"""Concatenation, Deep Set, and pooled-input/generated-head agents, plus
the forward interface every architecture shares."""

import itertools

import numpy as np
import pytest

from permnet.autodiff import ShapeError, Tensor, canonical_sum, reduce_sum
from permnet.baselines import (
    ConcatAgentNet,
    DeepSetAgentNet,
    HpnSetAgentNet,
    big_concat_agent,
)
from permnet.cli import ARCHITECTURES, net_factory_for
from permnet.env import (
    ENTITY_FEATURES,
    N_MOVE_ACTIONS,
    OWN_FEATURES,
    PRESETS,
    ObservationSet,
)
from permnet.hpn import HpnAgentNet, distinct_rows
from permnet.layers import Linear, count_parameters
from permnet.learners import greedy_actions

K = ENTITY_FEATURES


def live_obs(rng, n_allies=3, n_enemies=3):
    allies = rng.normal(size=(n_allies - 1, K))
    enemies = rng.normal(size=(n_enemies, K))
    allies[:, 3] = 1.0
    enemies[:, 3] = 1.0
    return ObservationSet(own=rng.normal(size=OWN_FEATURES),
                          allies=allies, enemies=enemies)


def reordered(obs, ally_perm=None, enemy_perm=None):
    allies = obs.allies if ally_perm is None else obs.allies[list(ally_perm)]
    enemies = (obs.enemies if enemy_perm is None
               else obs.enemies[list(enemy_perm)])
    return ObservationSet(own=obs.own, allies=allies, enemies=enemies)


# -- ConcatAgentNet ----------------------------------------------------


def test_concat_shape_and_param_count():
    net = ConcatAgentNet(np.random.default_rng(0), 3, 3)
    assert net.input_dim == OWN_FEATURES + 2 * K + 3 * K
    assert net.n_actions == N_MOVE_ACTIONS + 3
    q = net.forward(live_obs(np.random.default_rng(1)))
    assert q.shape == (9,)
    expected = (net.input_dim + 1) * 64 + (64 + 1) * 9
    assert count_parameters(net.named_parameters()) == expected


def test_concat_is_permutation_sensitive():
    net = ConcatAgentNet(np.random.default_rng(2), 3, 3)
    obs = live_obs(np.random.default_rng(3))
    base = net.forward(obs).data
    deltas = [
        np.abs(net.forward(reordered(obs, enemy_perm=p)).data - base).max()
        for p in itertools.permutations(range(3)) if p != (0, 1, 2)
    ]
    assert max(deltas) > 1e-6


def test_concat_zero_input_gives_composed_biases():
    net = ConcatAgentNet(np.random.default_rng(4), 3, 3)
    # float32 zeros, as the battle presents a dead observer
    zero = ObservationSet(own=np.zeros(OWN_FEATURES, np.float32),
                          allies=np.zeros((2, K), np.float32),
                          enemies=np.zeros((3, K), np.float32))
    q = net.forward(zero).data
    l0, l1 = net.net.layers
    expected = np.maximum(l0.bias.data, 0.0) @ l1.weight.data + l1.bias.data
    assert np.array_equal(q, expected)


def test_concat_rejects_wrong_entity_block():
    net = ConcatAgentNet(np.random.default_rng(5), 3, 3)
    with pytest.raises(ShapeError):
        net.forward_batch(Tensor(np.zeros((1, OWN_FEATURES))),
                          Tensor(np.zeros((1, 2, K))),
                          Tensor(np.zeros((1, 4, K))))


def test_big_concat_exceeds_hypernet_for_every_preset():
    for name, cfg in PRESETS.items():
        big = big_concat_agent(np.random.default_rng(6),
                               cfg.n_allies, cfg.n_enemies)
        ref = HpnAgentNet(np.random.default_rng(7),
                          cfg.n_allies, cfg.n_enemies)
        assert (count_parameters(big.named_parameters())
                > count_parameters(ref.named_parameters())), name


def test_big_concat_rejects_undersized_widths():
    with pytest.raises(ValueError, match="must exceed"):
        big_concat_agent(np.random.default_rng(8), 3, 3, hidden=(8,))


# -- DeepSetAgentNet ---------------------------------------------------


def test_deepset_identity_embedding_pools_to_entity_sum():
    net = DeepSetAgentNet(np.random.default_rng(9), 3, 3, hidden=K)
    net.phi_enemy.weight.data = np.eye(K)
    net.phi_enemy.bias.data = np.zeros(K)
    X = np.arange(3 * K, dtype=np.float64).reshape(3, K)
    X[2] = X[0]                     # one row embedded once, pooled twice
    rows, ranks = distinct_rows(Tensor(X))
    assert len(rows.data) == 2
    pooled = canonical_sum(net.phi_enemy(rows), ranks)
    assert np.array_equal(pooled.data, X.sum(axis=0))


def test_deepset_all_outputs_invariant():
    net = DeepSetAgentNet(np.random.default_rng(10), 3, 3)
    obs = live_obs(np.random.default_rng(11))
    base = net.forward(obs).data
    for ap in itertools.permutations(range(2)):
        for ep in itertools.permutations(range(3)):
            q = net.forward(reordered(obs, ap, ep)).data
            assert np.array_equal(q, base)


def test_deepset_attack_head_is_not_equivariant():
    """Swapping two enemies leaves attack Q-values in place instead of
    swapping them: the pooled representation has no per-enemy identity."""
    net = DeepSetAgentNet(np.random.default_rng(12), 3, 3)
    obs = live_obs(np.random.default_rng(13))
    base = net.forward(obs).data[N_MOVE_ACTIONS:]
    swapped = net.forward(reordered(obs, enemy_perm=(1, 0, 2))).data
    assert np.array_equal(swapped[N_MOVE_ACTIONS:], base)
    assert not np.array_equal(base, base[[1, 0, 2]])


def test_deepset_rejects_wrong_feature_width():
    net = DeepSetAgentNet(np.random.default_rng(14), 3, 3)
    with pytest.raises(ShapeError):
        net.forward_batch(Tensor(np.zeros((1, OWN_FEATURES))),
                          Tensor(np.zeros((1, 2, K + 1))),
                          Tensor(np.zeros((1, 3, K))))


# -- HpnSetAgentNet ----------------------------------------------------


def test_hpn_set_move_invariant_attack_equivariant():
    net = HpnSetAgentNet(np.random.default_rng(15), 3, 3)
    obs = live_obs(np.random.default_rng(16))
    base = net.forward(obs).data
    for ap in itertools.permutations(range(2)):
        for ep in itertools.permutations(range(3)):
            q = net.forward(reordered(obs, ap, ep)).data
            assert np.array_equal(q[:N_MOVE_ACTIONS], base[:N_MOVE_ACTIONS])
            assert np.array_equal(q[N_MOVE_ACTIONS:],
                                  base[N_MOVE_ACTIONS:][list(ep)])


def test_hpn_set_masks_dead_enemies():
    """The dead enemy's finite attack value ties the live ones, above
    every move; ``greedy_actions`` never picks it."""
    net = HpnSetAgentNet(np.random.default_rng(17), 3, 3)
    net.attack_head.body.weight.data[:] = 0.0
    net.attack_head.b_head.bias.data += 1e3
    obs = live_obs(np.random.default_rng(18))
    obs.enemies[0] = 0.0
    q = net.forward(obs).data
    assert np.isfinite(q).all()
    assert int(np.argmax(q)) == N_MOVE_ACTIONS
    avail = np.ones(q.shape, bool)
    avail[N_MOVE_ACTIONS] = False
    assert greedy_actions(q, avail) == N_MOVE_ACTIONS + 1


def test_hpn_set_shares_output_head_but_not_input_path():
    hybrid = HpnSetAgentNet(np.random.default_rng(19), 3, 3)
    full = HpnAgentNet(np.random.default_rng(20), 3, 3)
    hy = hybrid.named_parameters()
    fu = full.named_parameters()
    head = lambda d: {k: d[k].shape for k in d if k.startswith("attack_head.")}
    assert head(hy) == head(fu)
    hy_input = {k for k in hy if not k.startswith(("attack_head.",
                                                   "move_head."))}
    fu_input = {k for k in fu if not k.startswith(("attack_head.",
                                                   "move_head."))}
    assert hy_input != fu_input


# -- shared behaviour --------------------------------------------------


@pytest.mark.parametrize("arch", ARCHITECTURES)
def test_batch_forward_matches_single(arch):
    cfg = PRESETS["5v6"]        # groups of unequal size
    net = net_factory_for(arch, cfg)(np.random.default_rng(21))
    rng = np.random.default_rng(22)
    observations = [live_obs(rng, cfg.n_allies, cfg.n_enemies)
                    for _ in range(4)]
    batch = [Tensor(np.stack([getattr(o, field) for o in observations]))
             for field in ("own", "allies", "enemies")]
    batched = net.forward_batch(*batch, rng=None, deterministic=True).data
    for i, obs in enumerate(observations):
        assert np.allclose(batched[i], net.forward(obs).data, atol=1e-12)
    noisy = [net.forward_batch(*batch, rng=np.random.default_rng(23),
                               deterministic=False).data for _ in range(2)]
    assert np.array_equal(noisy[0], noisy[1])
    # only DPN samples: its noisy Gumbel selection reorders some groups
    assert np.array_equal(noisy[0], batched) == (arch != "dpn")


@pytest.mark.parametrize("arch", ARCHITECTURES)
def test_gradients_reach_every_parameter(arch):
    net = net_factory_for(arch, PRESETS["3v3"])(np.random.default_rng(23))
    obs = live_obs(np.random.default_rng(24))
    loss = reduce_sum(net.forward(obs, rng=np.random.default_rng(25),
                                  deterministic=False))
    loss.backward()
    for name, p in net.named_parameters().items():
        assert p.grad is not None, name


def test_count_parameters_examples():
    layer = Linear(np.random.default_rng(25), 4, 3)
    assert count_parameters(layer.named_parameters()) == 15
    assert count_parameters({}) == 0
