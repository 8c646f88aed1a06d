"""Permutation-matrix generation and DPN forward paths."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permnet.autodiff import (
    AdamState,
    ShapeError,
    Tensor,
    adam_step,
    add,
    grad_check,
    matmul,
    mul,
    reduce_sum,
)
from permnet.dpn import (
    DpnAgentNet,
    DpnNet,
    generate_permutation_matrix,
    is_permutation_matrix,
)
from permnet.env import ENTITY_FEATURES, N_MOVE_ACTIONS, OWN_FEATURES, ObservationSet
from permnet.gumbel import GumbelConfig
from permnet.layers import Mlp

DET = GumbelConfig(tau=0.5, hard=True, deterministic=True)


def det_net(seed, k=4, m=3, hidden=8):
    net = DpnNet(np.random.default_rng(seed), k, m, hidden, DET)
    return net


def hand_net(weight_rows):
    """Group-size-2 net whose assignment scores are X @ W exactly."""
    net = DpnNet(np.random.default_rng(0), 2, 2, gumbel=DET)
    net.assign_mlp = Mlp(np.random.default_rng(0), [2, 2])
    net.assign_mlp.layers[0].weight.data[:] = np.array(weight_rows, dtype=float)
    net.assign_mlp.layers[0].bias.data[:] = 0.0
    return net


# -- validity predicate ------------------------------------------------


def test_is_permutation_matrix_accepts():
    assert is_permutation_matrix(np.eye(4))
    assert is_permutation_matrix(np.eye(4)[[2, 0, 3, 1]])
    batch = np.stack([np.eye(3), np.eye(3)[[1, 2, 0]]])
    assert is_permutation_matrix(batch)


def test_is_permutation_matrix_rejects():
    assert not is_permutation_matrix(np.ones((3, 3)))
    assert not is_permutation_matrix(np.zeros((3, 3)))
    assert not is_permutation_matrix(np.eye(3) * 0.5)
    assert not is_permutation_matrix(np.ones((2, 3)))
    two_in_row = np.array([[1.0, 1.0], [0.0, 0.0]])
    assert not is_permutation_matrix(two_in_row)
    assert not is_permutation_matrix(np.array([1.0, 0.0]))


def test_inverse_is_transpose():
    rng = np.random.default_rng(3)
    for _ in range(10):
        net = det_net(int(rng.integers(1e6)))
        X = Tensor(rng.normal(size=(3, 4)))
        M = generate_permutation_matrix(net, X).data
        assert np.array_equal(M.T @ M, np.eye(3))


# -- hand-traced sequential assignment ---------------------------------


def test_hand_trace_identity_assignment():
    # scores transpose to [[2, 1], [0.5, 3]]: slot 0 takes entity 0,
    # slot 1 takes entity 1
    net = hand_net([[2.0, 0.5], [1.0, 3.0]])
    X = Tensor(np.eye(2))
    M = generate_permutation_matrix(net, X)
    assert np.array_equal(M.data, np.eye(2))


def test_hand_trace_swapped_rows():
    net = hand_net([[2.0, 0.5], [1.0, 3.0]])
    X = Tensor(np.eye(2))
    X_swapped = Tensor(np.eye(2)[[1, 0]])
    # transposed scores become [[1, 2], [3, 0.5]]: slot 0 now takes
    # entity 1, the mask forces slot 1 onto entity 0
    M = generate_permutation_matrix(net, X)
    M_swapped = generate_permutation_matrix(net, X_swapped)
    assert np.array_equal(M_swapped.data, np.array([[0.0, 1.0], [1.0, 0.0]]))
    out = matmul(M, X).data
    out_swapped = matmul(M_swapped, X_swapped).data
    assert np.array_equal(out, out_swapped)


def test_group_size_mismatch_raises():
    net = det_net(0, k=4, m=3)
    with pytest.raises(ShapeError, match="group size 4"):
        generate_permutation_matrix(net, Tensor(np.zeros((4, 4))))


# -- validity and canonicalization properties --------------------------


@settings(max_examples=60, deadline=None)
@given(net_seed=st.integers(0, 10_000), x_seed=st.integers(0, 10_000),
       m=st.integers(1, 5), noisy=st.booleans())
def test_generated_matrices_are_always_valid(net_seed, x_seed, m, noisy):
    cfg = GumbelConfig(tau=0.7, hard=True, deterministic=not noisy)
    net = DpnNet(np.random.default_rng(net_seed), 4, m, gumbel=cfg)
    rng = np.random.default_rng(x_seed)
    X = Tensor(rng.normal(size=(m, 4)))
    M = generate_permutation_matrix(net, X, rng=rng if noisy else None)
    assert is_permutation_matrix(M.data)


def test_noisy_sampling_varies_the_matrix():
    net = DpnNet(np.random.default_rng(1), 4, 3,
                 gumbel=GumbelConfig(tau=1.0, hard=True))
    X = Tensor(np.random.default_rng(2).normal(size=(3, 4)))
    rng = np.random.default_rng(3)
    seen = {generate_permutation_matrix(net, X, rng).data.tobytes()
            for _ in range(50)}
    assert len(seen) > 1


def test_deterministic_canonicalization_across_orderings():
    rng = np.random.default_rng(7)
    for trial in range(10):
        net = det_net(trial, k=4, m=3)
        X = rng.normal(size=(3, 4))
        outputs = set()
        for p in itertools.permutations(range(3)):
            Xp = Tensor(X[list(p)])
            M = generate_permutation_matrix(net, Xp)
            outputs.add(matmul(M, Xp).data.tobytes())
        assert len(outputs) == 1


def test_canonicalization_with_duplicate_entities():
    net = det_net(11, k=4, m=3)
    row = np.random.default_rng(4).normal(size=4)
    other = np.random.default_rng(5).normal(size=4)
    X = np.stack([row, row, other])        # entities 0 and 1 identical
    outputs = set()
    for p in itertools.permutations(range(3)):
        Xp = Tensor(X[list(p)])
        M = generate_permutation_matrix(net, Xp)
        outputs.add(matmul(M, Xp).data.tobytes())
    assert len(outputs) == 1


# -- agent entity groups -----------------------------------------------


def random_obs(rng, n_allies=3, n_enemies=3):
    return ObservationSet(
        own=rng.normal(size=OWN_FEATURES),
        allies=rng.normal(size=(n_allies - 1, ENTITY_FEATURES)),
        enemies=rng.normal(size=(n_enemies, ENTITY_FEATURES)))


def test_dual_group_size_mismatch_raises():
    agent = DpnAgentNet(np.random.default_rng(1), n_allies=3, n_enemies=3)
    for n_allies, n_enemies in ((4, 3), (3, 2)):
        obs = random_obs(np.random.default_rng(0), n_allies, n_enemies)
        with pytest.raises(ShapeError, match="group size"):
            agent.forward_batch(Tensor(obs.own[None]),
                                Tensor(obs.allies[None]),
                                Tensor(obs.enemies[None]))


# -- gradients ---------------------------------------------------------


def test_gradients_reach_assignment_parameters():
    net = DpnNet(np.random.default_rng(31), 4, 3,
                 gumbel=GumbelConfig(tau=0.5, hard=True))
    rng = np.random.default_rng(32)
    X = Tensor(rng.normal(size=(3, 4)))
    target = rng.normal(size=(3, 4))
    M = generate_permutation_matrix(net, X, rng)
    diff = add(matmul(M, X), Tensor(-target))
    loss = reduce_sum(mul(diff, diff))
    loss.backward()
    params = net.named_parameters()
    grad_norm = sum(float(np.abs(p.grad).sum()) for p in params.values()
                    if p.grad is not None)
    assert grad_norm > 0.0
    before = {k: p.data.copy() for k, p in params.items()}
    adam_step(params, AdamState(lr=1e-3))
    assert any(not np.array_equal(before[k], params[k].data) for k in params)


def test_grad_check_soft_assignment_path():
    # soft rows keep the whole pipeline differentiable, so finite
    # differences must agree with backprop through the masked softmax loop
    net = DpnNet(np.random.default_rng(41), 3, 3,
                 gumbel=GumbelConfig(tau=1.0, hard=False, deterministic=True))
    rng = np.random.default_rng(42)
    X = Tensor(rng.normal(size=(3, 3)))
    C = Tensor(rng.normal(size=(3, 3)))

    def f(w):
        M = generate_permutation_matrix(net, X)
        return reduce_sum(mul(matmul(M, X), C))

    err = grad_check(f, [net.assign_mlp.layers[0].weight])
    assert err < 1e-4


def test_grad_check_trunk_through_hard_canonicalization():
    # hard M is locally constant, so trunk gradients are exactly the
    # gradients of downstream(M·X) and finite differences apply
    agent = DpnAgentNet(np.random.default_rng(51), n_allies=2, n_enemies=2,
                        hidden=6)
    obs = random_obs(np.random.default_rng(52), n_allies=2, n_enemies=2)

    def f(w):
        return reduce_sum(agent.forward(obs, deterministic=True))

    err = grad_check(f, [agent.body.weight])
    assert err < 1e-4


# -- agent network -----------------------------------------------------


def test_agent_forward_shape_and_params():
    agent = DpnAgentNet(np.random.default_rng(61), n_allies=3, n_enemies=4)
    obs = random_obs(np.random.default_rng(62), n_allies=3, n_enemies=4)
    q = agent.forward(obs, deterministic=True)
    assert q.shape == (N_MOVE_ACTIONS + 4,)
    names = agent.named_parameters()
    for prefix in ("ally_net.", "enemy_net.", "body.", "move_head.",
                   "attack_head."):
        assert any(n.startswith(prefix) for n in names)


def test_agent_shuffle_invariance():
    agent = DpnAgentNet(np.random.default_rng(81), n_allies=3, n_enemies=3)
    obs = random_obs(np.random.default_rng(82))
    base = agent.forward(obs, deterministic=True).data
    rng = np.random.default_rng(83)
    for _ in range(10):
        pa = rng.permutation(2)
        pe = rng.permutation(3)
        shuffled = ObservationSet(obs.own, obs.allies[pa], obs.enemies[pe])
        q = agent.forward(shuffled, deterministic=True).data
        assert np.array_equal(q[:N_MOVE_ACTIONS], base[:N_MOVE_ACTIONS])
        assert np.array_equal(q[N_MOVE_ACTIONS:], base[N_MOVE_ACTIONS:][pe])


def test_single_agent_team_empty_ally_group():
    agent = DpnAgentNet(np.random.default_rng(91), n_allies=1, n_enemies=2)
    obs = ObservationSet(
        own=np.random.default_rng(92).normal(size=OWN_FEATURES),
        allies=np.zeros((0, ENTITY_FEATURES)),
        enemies=np.random.default_rng(93).normal(size=(2, ENTITY_FEATURES)))
    q = agent.forward(obs, deterministic=True)
    assert q.shape == (N_MOVE_ACTIONS + 2,)
    assert np.isfinite(q.data).all()
