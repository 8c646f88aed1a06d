"""Hypernetwork input/output layers and the set-based agent network."""

import itertools

import numpy as np
import pytest

from float64_params import in_float64
from hpn_reference import dense_input_layer, dense_output_layer, use_dense_layers
from permnet.autodiff import (
    ShapeError,
    Tensor,
    grad_check,
    matmul,
    mul,
    reduce_sum,
    reshape,
)
from permnet.baselines import HpnSetAgentNet
from permnet.env import (
    ENTITY_FEATURES,
    N_MOVE_ACTIONS,
    OWN_FEATURES,
    PRESETS,
    BattleBatch,
    ObservationSet,
)
from permnet.hpn import (
    HpnAgentNet,
    HyperLayer,
    hpn_input_layer,
    hpn_output_layer,
)
from permnet.layers import NEG_MASK

K = ENTITY_FEATURES


def input_layer(seed, h=8):
    return HyperLayer(np.random.default_rng(seed), K, K, h, hidden=16)


def output_layer(seed, h=8):
    return HyperLayer(np.random.default_rng(seed), K, h, 1, hidden=16,
                      per_entity_bias=True)


def live_obs(rng, n_allies=3, n_enemies=3):
    """Random float32 observation, as the battle presents it, with alive
    flags pinned to 1 (no dead masking)."""
    allies = rng.normal(size=(n_allies - 1, K)).astype(np.float32)
    enemies = rng.normal(size=(n_enemies, K)).astype(np.float32)
    allies[:, 3] = 1.0
    enemies[:, 3] = 1.0
    own = rng.normal(size=OWN_FEATURES).astype(np.float32)
    return ObservationSet(own=own, allies=allies, enemies=enemies)


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
    agent = in_float64(HpnAgentNet(np.random.default_rng(43), n_allies=2,
                                   n_enemies=2, hidden=8, hyper_hidden=8))
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
    layer = in_float64(input_layer(47, h=6))
    X = Tensor(np.random.default_rng(48).normal(size=(3, K)))
    w = Tensor(np.random.default_rng(49).normal(size=(6, 1)))

    def f(*params):
        return reduce_sum(matmul(reshape(hpn_input_layer(layer, X),
                                         (1, 6)), w))

    err = grad_check(f, [layer.body.weight, layer.w_head.weight,
                         layer.shared_bias, X])
    assert err < 1e-4


# -- live rows only, against the dense layers ----------------------------

NETS = [HpnAgentNet, HpnSetAgentNet]


def battle_observations(preset, seed, battles=8, ticks=24):
    """Every observer's observation after each tick of random play in
    ``battles`` battles (a finished battle restarts, so terminal steps are
    in), each presented under random ally and enemy orders.  Before the
    last tick's observations battle 0 loses every enemy, so the batch also
    holds all-dead enemy groups seen by living observers."""
    cfg = PRESETS[preset]
    batch = BattleBatch(cfg, battles)
    rng = np.random.default_rng(seed)

    def reset(i):
        batch.reset(i, int(rng.integers(2 ** 31)),
                    rng.permutation(cfg.n_allies - 1),
                    rng.permutation(cfg.n_enemies))

    for i in range(battles):
        reset(i)
    own, allies, enemies = [], [], []
    for t in range(ticks):
        avail = batch.available_actions()
        _, terminated, _ = batch.step(
            np.argmax(rng.random(avail.shape) * avail, axis=-1))
        if t == ticks - 1:
            batch.enemy_hp[0] = 0
        for out, rows in zip((own, allies, enemies), batch.observations()):
            out.append(rows.reshape((-1,) + rows.shape[2:]))
        for i in np.flatnonzero(terminated):
            reset(i)
    return tuple(np.concatenate(rows) for rows in (own, allies, enemies))


def nobody_alive(preset):
    """Observations of a battle in which every unit is dead: no live row."""
    batch = BattleBatch(PRESETS[preset], 2)
    for i in range(2):
        batch.reset(i, i)
    batch.ally_hp[:] = 0
    batch.enemy_hp[:] = 0
    return tuple(rows.reshape((-1,) + rows.shape[2:])
                 for rows in batch.observations())


def make_net(cls, preset, seed):
    cfg = PRESETS[preset]
    return cls(np.random.default_rng(seed), cfg.n_allies, cfg.n_enemies)


def q_values(net, own, allies, enemies, **kwargs):
    return net.forward_batch(Tensor(own), Tensor(allies), Tensor(enemies),
                             **kwargs)


@pytest.mark.parametrize("preset", ["3v3", "5v6", "8v9"])
def test_battle_observations_hold_every_dead_case(preset):
    own, allies, enemies = battle_observations(preset, 0)
    dead_observer = ~own.any(axis=1)
    assert dead_observer.any() and not dead_observer.all()
    assert (~allies.any(axis=2)).any(axis=1)[~dead_observer].any()
    dead_enemy = enemies[..., 3] == 0.0
    assert dead_enemy[~dead_observer].any()
    assert dead_enemy.all(axis=1)[~dead_observer].any()
    assert not any(rows.any() for rows in nobody_alive(preset))


@pytest.mark.parametrize("cls", NETS)
@pytest.mark.parametrize("preset", ["3v3", "5v6", "8v9"])
def test_forward_matches_dense_on_live_entries(cls, preset, monkeypatch):
    for seed, obs in enumerate([battle_observations(preset, 1),
                                nobody_alive(preset)]):
        net = make_net(cls, preset, seed)
        q = q_values(net, *obs).data
        with monkeypatch.context() as patch:
            use_dense_layers(patch)
            dense = q_values(net, *obs).data
        dead = obs[2][..., 3] == 0.0
        assert np.array_equal(q[:, :N_MOVE_ACTIONS],
                              dense[:, :N_MOVE_ACTIONS])
        attack, dense_attack = q[:, N_MOVE_ACTIONS:], dense[:, N_MOVE_ACTIONS:]
        assert np.array_equal(attack[~dead], dense_attack[~dead])
        assert (attack[dead] == NEG_MASK).all()


@pytest.mark.parametrize("cls", NETS)
@pytest.mark.parametrize("preset", ["3v3", "8v9"])
def test_gradients_match_dense(cls, preset, monkeypatch):
    """A loss that reads only live entries, as the learner's does: every
    parameter gradient of a float64 copy of the net agrees with the dense
    layers' within rtol 1e-12.
    Fewer rows change the weight-gradient sums' rounding, so an entry
    whose sum cancels to near zero gets an absolute floor of 1e-12 times
    the largest entry of that parameter's gradient."""
    own, allies, enemies = battle_observations(preset, 2)
    net = in_float64(make_net(cls, preset, 3))
    probe = np.random.default_rng(4).normal(
        size=(len(own), net.n_actions))
    probe[:, N_MOVE_ACTIONS:][enemies[..., 3] == 0.0] = 0.0
    params = net.named_parameters()

    def grads():
        for p in params.values():
            p.zero_grad()
        q = q_values(net, own, allies, enemies)
        reduce_sum(mul(q, Tensor(probe))).backward()
        return {name: p.grad for name, p in params.items()}

    sparse = grads()
    with monkeypatch.context() as patch:
        use_dense_layers(patch)
        dense = grads()
    for name, g in dense.items():
        np.testing.assert_allclose(sparse[name], g, rtol=1e-12,
                                   atol=1e-12 * np.abs(g).max(),
                                   err_msg=name)


def test_input_layer_zero_rows_match_dense_bitwise():
    layer = input_layer(51, h=8)
    X = np.random.default_rng(52).normal(size=(6, 4, K))
    X[0] = 0.0                      # a dead observer's group
    X[1, 2] = 0.0
    X[2, :3] = 0.0
    X[3, 1] = -0.0
    out = hpn_input_layer(layer, Tensor(X)).data
    assert np.array_equal(out, dense_input_layer(layer, Tensor(X)).data)
    assert np.array_equal(out[0], layer.shared_bias.data)


def test_output_layer_dead_enemies_exactly_neg_mask():
    layer = output_layer(53, h=8)
    hidden = Tensor(np.random.default_rng(54).normal(size=(3, 8)))
    X = np.random.default_rng(55).normal(size=(3, 4, K))
    X[..., 3] = 1.0
    X[0, 1] = 0.0
    X[2] = 0.0
    q = hpn_output_layer(layer, hidden, Tensor(X)).data
    dense = dense_output_layer(layer, hidden, Tensor(X)).data
    dead = X[..., 3] == 0.0
    assert (q[dead] == NEG_MASK).all()
    assert np.array_equal(q[~dead], dense[~dead])


def test_output_layer_all_dead_backward_gives_zero_gradients():
    layer = output_layer(56, h=8)
    hidden = Tensor(np.random.default_rng(57).normal(size=(2, 8)),
                    requires_grad=True)
    X = Tensor(np.zeros((2, 3, K)), requires_grad=True)
    q = hpn_output_layer(layer, hidden, X)
    assert (q.data == NEG_MASK).all()
    reduce_sum(q).backward()
    params = layer.named_parameters()
    assert set(params) == {"body.weight", "body.bias", "w_head.weight",
                           "w_head.bias", "b_head.weight", "b_head.bias"}
    for name, p in params.items():
        assert p.grad.shape == p.shape, name
        assert not p.grad.any(), name
    assert not hidden.grad.any() and not X.grad.any()


@pytest.mark.parametrize("cls", NETS)
@pytest.mark.parametrize("preset", ["3v3", "5v6", "8v9"])
def test_exact_order_freedom_on_battle_observations(cls, preset):
    """Reordering the ally and enemy rows of observations with deaths
    leaves move Q-values bitwise unchanged and permutes attack Q-values
    bitwise, dead enemies' entries included."""
    own, allies, enemies = battle_observations(preset, 5)
    rng = np.random.default_rng(6)
    ally_perm = np.stack([rng.permutation(allies.shape[1]) for _ in own])
    enemy_perm = np.stack([rng.permutation(enemies.shape[1]) for _ in own])
    net = make_net(cls, preset, 7)
    q = q_values(net, own, allies, enemies).data
    q_perm = q_values(net, own,
                      np.take_along_axis(allies, ally_perm[..., None], 1),
                      np.take_along_axis(enemies, enemy_perm[..., None],
                                         1)).data
    assert np.array_equal(q_perm[:, :N_MOVE_ACTIONS], q[:, :N_MOVE_ACTIONS])
    assert np.array_equal(q_perm[:, N_MOVE_ACTIONS:],
                          np.take_along_axis(q[:, N_MOVE_ACTIONS:],
                                             enemy_perm, 1))
