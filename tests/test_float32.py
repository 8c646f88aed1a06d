"""The engine's working precision: float32 graph nodes, and the
row-stable products that keep it exact."""

import numpy as np
import pytest

from permnet.autodiff import Tensor, affine
from permnet.cli import env_factory_for, net_factory_for
from permnet.env import PRESETS
from permnet.learners import (
    Learner,
    ParallelRunner,
    TrainConfig,
    augment_experience,
    evaluate_net,
)


def test_tensor_keeps_float_arrays_and_promotes_the_rest():
    for dtype in (np.float32, np.float64):
        value = np.arange(6, dtype=dtype).reshape(2, 3)
        assert Tensor(value).data is value
    for value in (np.arange(3), np.array([True, False]), 2, 0.5, True,
                  [1.0, 2.0]):
        assert Tensor(value).data.dtype == np.float64


@pytest.mark.parametrize("arch, mixer, augment", [
    (arch, mixer, False)
    for arch in ("hpn", "hpn_set", "dpn", "deepset", "concat", "big_concat")
    for mixer in ("vdn", "qmix")] + [("dpn", "qmix", True)])
def test_every_graph_node_is_float32(arch, mixer, augment, monkeypatch):
    """One train step, one runner tick and one evaluation build no node
    that is not float32: every constant meets the graph in its dtype."""
    made = []
    original = Tensor._from_op.__func__

    def recording(cls, value, parents, backward_rule):
        made.append(value.dtype)
        return original(cls, value, parents, backward_rule)

    monkeypatch.setattr(Tensor, "_from_op", classmethod(recording))
    cfg = TrainConfig(parallel_runners=3, batch_episodes=4,
                      target_update_interval=5, epsilon_anneal_steps=200)
    env_factory = env_factory_for("3v3", True, 0)
    learner = Learner(cfg, net_factory_for(arch, PRESETS["3v3"]),
                      PRESETS["3v3"], mixer)
    runner = ParallelRunner(cfg, env_factory, learner.net)
    episodes = []
    while len(episodes) < cfg.batch_episodes:
        episodes.extend(runner.tick())
    if augment:
        episodes = augment_experience(episodes, 1, np.random.default_rng(1))
    learner.train_step(episodes)
    evaluate_net(learner.net, env_factory, episodes=2)
    assert len(made) > 100
    assert set(made) == {np.dtype(np.float32)}
    assert all(p.data.dtype == np.float32 and p.grad.dtype == np.float32
               for p in learner.params.values() if p.grad is not None)


# Products whose row positions an entity reordering moves: the
# hypernetworks' (L, 4) @ (4, 64), (L, 64) @ (64, 256) and (L, 64) @ (64, 64)
# over live entity rows, and DPN's (B·m, 4) @ (4, 8) and (B·m, 8) @ (8, m)
# assignment scores.  Exact order-freedom rests on each of them giving a
# row's result independently of its position in the batch.  The heads
# 64 -> 1, 3, 6 and 9 do not (at row counts that are not a multiple of
# 4, depending on the dtype) and need not: they only see rows whose
# positions are fixed.  A one-row product runs through a matrix-vector
# kernel and may differ from the same row in a larger batch.
ROW_MOVED_SHAPES = [(4, 64), (64, 256), (64, 64), (4, 8)] + [
    (8, m) for m in (2, 3, 4, 6, 7, 9)]


@pytest.mark.parametrize("k, p", ROW_MOVED_SHAPES)
def test_reordered_rows_give_reordered_products_bitwise(k, p):
    rng = np.random.default_rng([k, p])
    w = Tensor(rng.normal(size=(k, p)).astype(np.float32))
    b = Tensor(rng.normal(size=p).astype(np.float32))
    for rows in [*range(2, 71), 3000, 4099]:
        x = rng.normal(size=(rows, k)).astype(np.float32)
        perm = rng.permutation(rows)
        out = affine(Tensor(x), w, b).data
        moved = affine(Tensor(x[perm]), w, b).data
        assert moved.dtype == np.float32
        assert moved.tobytes() == out[perm].tobytes(), rows
