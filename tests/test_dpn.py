"""Permutation-matrix generation and DPN forward paths."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import permnet.dpn
import permnet.learners
from dpn_reference import softmax_permutation_matrix, use_softmax_loop
from float64_params import in_float64
from permnet.autodiff import (
    AdamState,
    ShapeError,
    Tensor,
    adam_step,
    add,
    grad_check,
    matmul,
    mul,
    no_grad,
    reduce_sum,
)
from permnet.dpn import (
    DpnAgentNet,
    DpnNet,
    generate_permutation_matrix,
    is_permutation_matrix,
)
from permnet.cli import env_factory_for, net_factory_for
from permnet.env import (
    ENTITY_FEATURES,
    N_MOVE_ACTIONS,
    OWN_FEATURES,
    PRESETS,
    ObservationSet,
)
from permnet.gumbel import GumbelConfig
from permnet.layers import Mlp
from permnet.learners import Learner, TrainConfig, train_loop
from test_hpn import battle_observations, make_net, q_values

DET = GumbelConfig(tau=0.5, hard=True, deterministic=True)


def det_net(seed, k=4, m=3, hidden=8):
    net = DpnNet(np.random.default_rng(seed), k, m, hidden, gumbel=DET)
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
    net = in_float64(DpnNet(np.random.default_rng(41), 3, 3,
                            gumbel=GumbelConfig(tau=1.0, hard=False,
                                                deterministic=True)))
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
    agent = in_float64(DpnAgentNet(np.random.default_rng(51), n_allies=2,
                                   n_enemies=2, hidden=6))
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


# -- greedy selection against the softmax loop -------------------------


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("m", range(1, 10))
def test_greedy_matrix_matches_softmax_loop_on_random_inputs(m):
    rng = np.random.default_rng([21, m])
    for seed in range(5):
        net = det_net([22, m, seed], m=m)
        X = rng.normal(size=(64, m, 4))
        X[:8, :2] = X[:8, :1]               # identical rows tie exactly
        for x in (X, X[0]):
            assert same_bits(generate_permutation_matrix(net, Tensor(x)).data,
                             softmax_permutation_matrix(net, Tensor(x)).data)


@pytest.mark.parametrize("preset", ["3v3", "5v6", "8v9"])
def test_greedy_forward_matches_softmax_loop_on_battle_observations(
        preset, monkeypatch):
    obs = battle_observations(preset, 8)
    agent = make_net(DpnAgentNet, preset, 9)
    for net, group in ((agent.ally_net, obs[1]), (agent.enemy_net, obs[2])):
        assert same_bits(generate_permutation_matrix(net, Tensor(group),
                                                     deterministic=True).data,
                         softmax_permutation_matrix(net, Tensor(group),
                                                    deterministic=True).data)
    q = q_values(agent, *obs).data
    with monkeypatch.context() as patch:
        use_softmax_loop(patch)
        assert same_bits(q, q_values(agent, *obs).data)


@pytest.mark.parametrize("preset", ["3v3", "5v6", "8v9"])
def test_greedy_forward_matches_softmax_loop_when_every_slot_ties(
        preset, monkeypatch):
    """With zero output weights every entity scores the slot's bias, so
    each slot takes the first entity left and M is the identity."""
    obs = battle_observations(preset, 10)
    agent = make_net(DpnAgentNet, preset, 11)
    for net, group in ((agent.ally_net, obs[1]), (agent.enemy_net, obs[2])):
        net.assign_mlp.layers[-1].weight.data[:] = 0.0
        M = generate_permutation_matrix(net, Tensor(group), deterministic=True)
        assert np.array_equal(M.data, np.broadcast_to(
            np.eye(net.group_size), M.shape))
    q = q_values(agent, *obs).data
    with monkeypatch.context() as patch:
        use_softmax_loop(patch)
        assert same_bits(q, q_values(agent, *obs).data)


# -- gradient semantics of greedy selection ----------------------------


def test_greedy_matrix_is_a_constant_under_grad_mode():
    net = det_net(12)
    X = Tensor(np.random.default_rng(13).normal(size=(5, 3, 4)),
               requires_grad=True)
    assert not generate_permutation_matrix(net, X).requires_grad
    agent = make_net(DpnAgentNet, "3v3", 14)
    loss = reduce_sum(q_values(agent, *battle_observations("3v3", 15)))
    assert loss.requires_grad
    loss.backward()
    for name, p in agent.named_parameters().items():
        assert (p.grad is None) == name.startswith(("ally_net.",
                                                     "enemy_net.")), name


def test_greedy_forwards_never_sample(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("greedy selection drew Gumbel noise")

    monkeypatch.setattr(permnet.dpn, "sample_gumbel", refuse)
    X = Tensor(np.random.default_rng(16).normal(size=(7, 3, 4)))
    generate_permutation_matrix(det_net(17), X)
    generate_permutation_matrix(det_net(17), Tensor(X.data[0]))
    agent = make_net(DpnAgentNet, "5v6", 18)
    obs = battle_observations("5v6", 19)
    q_values(agent, *obs)
    with no_grad():
        q_values(agent, *obs)
    permnet.learners.greedy_q(agent, [x[None] for x in obs])


@pytest.mark.parametrize("preset", ["3v3", "5v6"])
def test_greedy_trunk_gradients_match_softmax_loop(preset, monkeypatch):
    obs = battle_observations(preset, 20)
    weight = np.random.default_rng(21).normal(
        size=(len(obs[0]), N_MOVE_ACTIONS + PRESETS[preset].n_enemies))

    def trunk_grads():
        agent = make_net(DpnAgentNet, preset, 22)
        q = q_values(agent, *obs)
        reduce_sum(mul(q, Tensor(weight))).backward()
        return {name: p.grad for name, p in agent.named_parameters().items()
                if not name.startswith(("ally_net.", "enemy_net."))}

    greedy = trunk_grads()
    with monkeypatch.context() as patch:
        use_softmax_loop(patch)
        loop = trunk_grads()
    assert greedy.keys() == loop.keys()
    for name, g in greedy.items():
        assert same_bits(g, loop[name]), name


def test_noisy_forward_reaches_assignment_parameters():
    agent = make_net(DpnAgentNet, "3v3", 23)
    obs = battle_observations("3v3", 24)
    q = q_values(agent, *obs, rng=np.random.default_rng(25),
                 deterministic=False)
    weight = np.random.default_rng(26).normal(size=q.shape)
    reduce_sum(mul(q, Tensor(weight))).backward()
    for group in (agent.ally_net, agent.enemy_net):
        grads = [p.grad for p in group.named_parameters().values()]
        assert all(g is not None for g in grads)
        assert sum(float(np.abs(g).sum()) for g in grads) > 0.0


# -- sampled selection against the softmax loop ------------------------


SAMPLED_CONFIGS = {
    "hard-noisy": GumbelConfig(tau=0.5, hard=True),
    "soft-noisy": GumbelConfig(tau=0.7, hard=False),
    "soft-deterministic": GumbelConfig(tau=1.0, hard=False,
                                       deterministic=True),
}


def sampled_run(build, net, x, weight, seed, monkeypatch):
    """M, the gradients of sum(M * weight) for the assignment scores and
    every assignment parameter, and the sampling Generator's state after
    the call.  The backward frees the scores' own gradient, so the scores
    pass through an identity node whose rule records the gradient it
    hands on."""
    made = []
    score = Mlp.__call__

    def recording(self, inputs):
        scores = score(self, inputs)

        def rule(g):
            made.append(g)
            scores._accumulate(g)

        return Tensor._from_op(scores.data, (scores,), rule)

    for p in net.named_parameters().values():
        p.zero_grad()
    rng = np.random.default_rng(seed)
    with monkeypatch.context() as patch:
        patch.setattr(Mlp, "__call__", recording)
        M = build(net, Tensor(x), rng)
    reduce_sum(mul(M, Tensor(weight))).backward()
    grads = {name: p.grad for name, p in net.named_parameters().items()}
    grads["scores"], = made
    return M.data, grads, rng.bit_generator.state


@pytest.mark.parametrize("config", SAMPLED_CONFIGS)
@pytest.mark.parametrize("m", range(1, 10))
def test_sampled_matrix_matches_softmax_loop_bitwise(m, config, monkeypatch):
    rng = np.random.default_rng([27, m])
    for dtype in (np.float32, np.float64):
        net = DpnNet(np.random.default_rng([28, m]), 4, m,
                     gumbel=SAMPLED_CONFIGS[config])
        if dtype == np.float64:
            in_float64(net)
        X = rng.normal(size=(64, m, 4)).astype(dtype)
        X[:8, :2] = X[:8, :1]               # identical rows tie exactly
        for x in (X, X[0]):
            weight = rng.normal(size=x.shape[:-1] + (m,)).astype(dtype)
            M, grads, state = sampled_run(generate_permutation_matrix, net,
                                          x, weight, [29, m], monkeypatch)
            M_ref, grads_ref, state_ref = sampled_run(
                softmax_permutation_matrix, net, x, weight, [29, m],
                monkeypatch)
            assert same_bits(M, M_ref)
            assert M.dtype == dtype
            assert state == state_ref
            assert grads.keys() == grads_ref.keys()
            for name, g in grads.items():
                assert same_bits(g, grads_ref[name]), name


def test_noisy_selection_without_rng_raises():
    net = DpnNet(np.random.default_rng(30), 4, 3,
                 gumbel=GumbelConfig(tau=0.5, hard=True))
    X = Tensor(np.random.default_rng(31).normal(size=(3, 4)))
    with pytest.raises(ValueError, match="rng"):
        generate_permutation_matrix(net, X)


def test_train_loop_matches_softmax_loop_bitwise(monkeypatch):
    """A short augmented QMIX run at 5v6 gives the same rows and the same
    final parameters when M comes from the softmax loop."""
    built = []

    class RecordingLearner(Learner):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(permnet.learners, "Learner", RecordingLearner)

    def run():
        cfg = TrainConfig(batch_episodes=2, target_update_interval=5,
                          parallel_runners=2, total_env_steps=400,
                          train_interval=50, epsilon_anneal_steps=200,
                          seed=4)
        rows = train_loop(cfg, env_factory_for("5v6", False, 4),
                          net_factory_for("dpn", PRESETS["5v6"]),
                          mixer="qmix", augment=True, eval_interval=200)
        assert built[-1].train_steps > 0
        return repr(rows), {name: p.data.tobytes()
                            for name, p in built[-1].params.items()}

    fused = run()
    with monkeypatch.context() as patch:
        use_softmax_loop(patch)
        assert run() == fused
