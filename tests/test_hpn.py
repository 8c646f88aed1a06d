"""Hypernetwork input/output layers and the set-based agent network."""

import itertools

import numpy as np
import pytest

from permnet.autodiff import (
    ShapeError,
    Tensor,
    grad_check,
    matmul,
    mul,
    reduce_sum,
    reshape,
)
from permnet.env import ENTITY_FEATURES, N_MOVE_ACTIONS, OWN_FEATURES, ObservationSet
from permnet.hpn import (
    HpnAgentNet,
    HyperLayer,
    hpn_input_layer,
    hpn_output_layer,
)

K = ENTITY_FEATURES


def input_layer(seed, h=8):
    return HyperLayer(np.random.default_rng(seed), K, K, h, hidden=16,
                      shared_bias=True)


def output_layer(seed, h=8):
    return HyperLayer(np.random.default_rng(seed), K, h, 1, hidden=16,
                      per_entity_bias=True)


def live_obs(rng, n_allies=3, n_enemies=3):
    """Random observation with alive flags pinned to 1 (no dead masking)."""
    allies = rng.normal(size=(n_allies - 1, K))
    enemies = rng.normal(size=(n_enemies, K))
    allies[:, 3] = 1.0
    enemies[:, 3] = 1.0
    return ObservationSet(own=rng.normal(size=OWN_FEATURES),
                          allies=allies, enemies=enemies)


# -- HyperLayer --------------------------------------------------------


def test_generate_shapes():
    layer = output_layer(0, h=8)
    X = Tensor(np.random.default_rng(1).normal(size=(5, K)))
    w, b = layer.generate(X)
    assert w.shape == (5, 8, 1)
    assert b.shape == (5,)
    inp = input_layer(2, h=8)
    w, b = inp.generate(X)
    assert w.shape == (5, K, 8)
    assert b is None
    assert inp.shared_bias.shape == (8,)


def test_generate_rejects_feature_width():
    layer = input_layer(0)
    with pytest.raises(ShapeError, match="feature width"):
        layer.generate(Tensor(np.zeros((3, K + 1))))


def test_constant_hypernetwork_reduces_to_deep_set():
    layer = input_layer(3, h=8)
    layer.body.weight.data[:] = 0.0
    layer.body.bias.data[:] = 0.0
    const = np.random.default_rng(4).normal(size=K * 8)
    layer.w_head.bias.data[:] = const
    X = np.random.default_rng(5).normal(size=(4, K))
    out = hpn_input_layer(layer, Tensor(X)).data
    expected = (X.sum(axis=0) @ const.reshape(K, 8)) + layer.shared_bias.data
    assert np.allclose(out, expected, atol=1e-9)


def test_input_layer_invariant_bitwise():
    layer = input_layer(7, h=8)
    X = np.random.default_rng(8).normal(size=(4, K))
    base = hpn_input_layer(layer, Tensor(X)).data
    for p in itertools.permutations(range(4)):
        out = hpn_input_layer(layer, Tensor(X[list(p)])).data
        assert np.array_equal(out, base)


def test_input_layer_single_entity():
    layer = input_layer(9, h=8)
    x = np.random.default_rng(10).normal(size=(1, K))
    out = hpn_input_layer(layer, Tensor(x)).data
    w, _ = layer.generate(Tensor(x))
    expected = x[0] @ w.data[0] + layer.shared_bias.data
    assert np.allclose(out, expected, atol=1e-12)


def test_input_layer_empty_group_is_bias():
    layer = input_layer(11, h=8)
    out = hpn_input_layer(layer, Tensor(np.zeros((0, K)))).data
    assert np.array_equal(out, layer.shared_bias.data)


def test_output_layer_swap_swaps_q():
    layer = output_layer(13, h=8)
    hidden = Tensor(np.random.default_rng(14).normal(size=8))
    X = np.random.default_rng(15).normal(size=(3, K))
    q = hpn_output_layer(layer, hidden, Tensor(X)).data
    q_swapped = hpn_output_layer(layer, hidden,
                                 Tensor(X[[1, 0, 2]])).data
    assert np.array_equal(q_swapped, q[[1, 0, 2]])


def test_output_layer_identical_entities_identical_q():
    layer = output_layer(17, h=8)
    hidden = Tensor(np.random.default_rng(18).normal(size=8))
    row = np.random.default_rng(19).normal(size=K)
    X = np.stack([row, np.random.default_rng(20).normal(size=K), row])
    q = hpn_output_layer(layer, hidden, Tensor(X)).data
    assert q[0] == q[2]


def test_output_layer_exhaustive_equivariance():
    layer = output_layer(21, h=8)
    hidden = Tensor(np.random.default_rng(22).normal(size=8))
    X = np.random.default_rng(23).normal(size=(3, K))
    base = hpn_output_layer(layer, hidden, Tensor(X)).data
    for p in itertools.permutations(range(3)):
        q = hpn_output_layer(layer, hidden, Tensor(X[list(p)])).data
        assert np.array_equal(q, base[list(p)])


def test_output_layer_rejects_width_mismatch():
    layer = output_layer(25, h=8)
    with pytest.raises(ShapeError, match="trunk width"):
        hpn_output_layer(layer, Tensor(np.zeros(9)),
                         Tensor(np.zeros((3, K))))


def test_same_entity_same_generated_weights():
    # the generated weights for an entity depend on that entity alone,
    # not on which group it appears in
    layer = output_layer(27, h=8)
    shared = np.random.default_rng(28).normal(size=K)
    group_a = np.stack([shared, np.random.default_rng(29).normal(size=K)])
    group_b = np.stack([np.random.default_rng(30).normal(size=K),
                        np.random.default_rng(31).normal(size=K), shared])
    wa, ba = layer.generate(Tensor(group_a))
    wb, bb = layer.generate(Tensor(group_b))
    assert np.array_equal(wa.data[0], wb.data[2])
    assert ba.data[0] == bb.data[2]


# -- agent network -----------------------------------------------------


def test_agent_move_invariant_attack_equivariant():
    rng = np.random.default_rng(33)
    agent = HpnAgentNet(np.random.default_rng(34), n_allies=3, n_enemies=3,
                        hidden=16, hyper_hidden=16)
    obs = live_obs(rng)
    base = agent.forward(obs).data
    for pa in itertools.permutations(range(2)):
        for pe in itertools.permutations(range(3)):
            shuffled = ObservationSet(obs.own, obs.allies[list(pa)],
                                      obs.enemies[list(pe)])
            q = agent.forward(shuffled).data
            assert np.array_equal(q[:N_MOVE_ACTIONS], base[:N_MOVE_ACTIONS])
            assert np.array_equal(q[N_MOVE_ACTIONS:],
                                  base[N_MOVE_ACTIONS:][list(pe)])


def test_agent_dead_enemy_masked():
    rng = np.random.default_rng(35)
    agent = HpnAgentNet(np.random.default_rng(36), n_allies=3, n_enemies=3,
                        hidden=16, hyper_hidden=16)
    obs = live_obs(rng)
    obs.enemies[1] = 0.0                    # dead: zero row, alive flag 0
    q = agent.forward(obs).data
    assert q[N_MOVE_ACTIONS + 1] <= -1e9
    assert int(np.argmax(q)) != N_MOVE_ACTIONS + 1


def test_agent_all_dead_enemies_argmax_in_moves():
    agent = HpnAgentNet(np.random.default_rng(37), n_allies=3, n_enemies=3,
                        hidden=16, hyper_hidden=16)
    obs = live_obs(np.random.default_rng(38))
    obs.enemies[:] = 0.0
    q = agent.forward(obs).data
    assert int(np.argmax(q)) < N_MOVE_ACTIONS
    assert (q[N_MOVE_ACTIONS:] <= -1e9).all()


def test_agent_parameter_names():
    agent = HpnAgentNet(np.random.default_rng(41), n_allies=3, n_enemies=3)
    names = agent.named_parameters()
    for prefix in ("own_dense.", "ally_embed.", "enemy_embed.", "move_head.",
                   "attack_head."):
        assert any(n.startswith(prefix) for n in names)
    assert agent.n_actions == N_MOVE_ACTIONS + 3
    assert any(n.endswith("shared_bias") for n in names)
    assert any("b_head" in n for n in names)


def test_grad_check_through_hypernetworks():
    agent = HpnAgentNet(np.random.default_rng(43), n_allies=2, n_enemies=2,
                        hidden=8, hyper_hidden=8)
    obs = live_obs(np.random.default_rng(44), n_allies=2, n_enemies=2)
    probe = Tensor(np.random.default_rng(45).normal(
        size=N_MOVE_ACTIONS + 2))

    def f(*params):
        return reduce_sum(mul(agent.forward(obs), probe))

    targets = [agent.attack_head.body.weight, agent.attack_head.b_head.weight,
               agent.ally_embed.w_head.weight, agent.enemy_embed.body.weight,
               agent.ally_embed.shared_bias, agent.own_dense.weight]
    err = grad_check(f, targets)
    assert err < 1e-4


def test_input_layer_grad_check():
    layer = input_layer(47, h=6)
    X = Tensor(np.random.default_rng(48).normal(size=(3, K)))
    w = Tensor(np.random.default_rng(49).normal(size=(6, 1)))

    def f(*params):
        return reduce_sum(matmul(reshape(hpn_input_layer(layer, X),
                                         (1, 6)), w))

    err = grad_check(f, [layer.body.weight, layer.w_head.weight,
                         layer.shared_bias, X])
    assert err < 1e-4
