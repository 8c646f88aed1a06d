"""Hypernetwork input/output layers and the set-based agent network."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import permnet.baselines
import permnet.hpn
from float64_params import in_float64
from hpn_reference import dense_input_layer, dense_output_layer, use_dense_layers
from permnet.autodiff import (
    ShapeError,
    Tensor,
    add,
    grad_check,
    matmul,
    mul,
    reduce_sum,
    reshape,
)
from permnet.baselines import DeepSetAgentNet, HpnSetAgentNet
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
    distinct_rows,
    hpn_input_layer,
    hpn_output_layer,
)
from permnet.learners import greedy_actions

K = ENTITY_FEATURES


def embed(layer, X):
    return hpn_input_layer(layer, *distinct_rows(X))


def score(layer, hidden, X):
    return hpn_output_layer(layer, hidden, *distinct_rows(X))


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
    out = embed(layer, Tensor(X)).data
    expected = (X.sum(axis=0) @ const.reshape(K, 8)) + layer.shared_bias.data
    assert np.allclose(out, expected, atol=1e-9)


def test_input_layer_invariant_bitwise():
    layer = input_layer(7, h=8)
    X = np.random.default_rng(8).normal(size=(4, K))
    base = embed(layer, Tensor(X)).data
    for p in itertools.permutations(range(4)):
        out = embed(layer, Tensor(X[list(p)])).data
        assert np.array_equal(out, base)


def test_input_layer_single_entity():
    layer = input_layer(9, h=8)
    x = np.random.default_rng(10).normal(size=(1, K))
    out = embed(layer, Tensor(x)).data
    w, _ = layer.generate(Tensor(x))
    expected = x[0] @ w.data[0] + layer.shared_bias.data
    assert np.allclose(out, expected, atol=1e-12)


def test_input_layer_empty_group_is_bias():
    layer = input_layer(11, h=8)
    out = embed(layer, Tensor(np.zeros((0, K)))).data
    assert np.array_equal(out, layer.shared_bias.data)


def test_output_layer_swap_swaps_q():
    layer = output_layer(13, h=8)
    hidden = Tensor(np.random.default_rng(14).normal(size=8))
    X = np.random.default_rng(15).normal(size=(3, K))
    q = score(layer, hidden, Tensor(X)).data
    q_swapped = score(layer, hidden, Tensor(X[[1, 0, 2]])).data
    assert np.array_equal(q_swapped, q[[1, 0, 2]])


def test_output_layer_identical_entities_identical_q():
    layer = output_layer(17, h=8)
    hidden = Tensor(np.random.default_rng(18).normal(size=8))
    row = np.random.default_rng(19).normal(size=K)
    X = np.stack([row, np.random.default_rng(20).normal(size=K), row])
    q = score(layer, hidden, Tensor(X)).data
    assert q[0] == q[2]


def test_output_layer_exhaustive_equivariance():
    layer = output_layer(21, h=8)
    hidden = Tensor(np.random.default_rng(22).normal(size=8))
    X = np.random.default_rng(23).normal(size=(3, K))
    base = score(layer, hidden, Tensor(X)).data
    for p in itertools.permutations(range(3)):
        q = score(layer, hidden, Tensor(X[list(p)])).data
        assert np.array_equal(q, base[list(p)])


def test_output_layer_rejects_width_mismatch():
    layer = output_layer(25, h=8)
    with pytest.raises(ShapeError, match="trunk width"):
        score(layer, Tensor(np.zeros(9)), Tensor(np.zeros((3, K))))


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


def attack_first(head):
    """Give every enemy, dead or alive, the same attack Q-value, above
    every move's, so the unmasked argmax is the first enemy's attack."""
    head.body.weight.data[:] = 0.0
    head.b_head.bias.data += 1e3


def test_agent_dead_enemy_masked():
    """A dead enemy's attack value is finite, and it can tie the best live
    one; ``greedy_actions`` never picks it."""
    agent = HpnAgentNet(np.random.default_rng(36), n_allies=3, n_enemies=3,
                        hidden=16, hyper_hidden=16)
    attack_first(agent.attack_head)
    obs = live_obs(np.random.default_rng(35))
    obs.enemies[0] = 0.0                    # dead: zero row, alive flag 0
    q = agent.forward(obs).data
    assert np.isfinite(q).all()
    assert int(np.argmax(q)) == N_MOVE_ACTIONS
    avail = np.ones(q.shape, bool)
    avail[N_MOVE_ACTIONS] = False
    assert greedy_actions(q, avail) == N_MOVE_ACTIONS + 1


def test_agent_all_dead_enemies_argmax_in_moves():
    agent = HpnAgentNet(np.random.default_rng(37), n_allies=3, n_enemies=3,
                        hidden=16, hyper_hidden=16)
    attack_first(agent.attack_head)
    obs = live_obs(np.random.default_rng(38))
    obs.enemies[:] = 0.0
    q = agent.forward(obs).data
    assert np.isfinite(q).all()
    assert int(np.argmax(q)) == N_MOVE_ACTIONS
    avail = np.arange(len(q)) < N_MOVE_ACTIONS
    assert greedy_actions(q, avail) == np.argmax(q[:N_MOVE_ACTIONS])


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
        return reduce_sum(matmul(reshape(embed(layer, X), (1, 6)), w))

    err = grad_check(f, [layer.body.weight, layer.w_head.weight,
                         layer.shared_bias, X])
    assert err < 1e-4


# -- distinct rows once, against the dense layers ----------------------

NETS = [HpnAgentNet, HpnSetAgentNet]
# every net that keys its entity sets with ``distinct_rows``
POOLING_NETS = NETS + [DeepSetAgentNet]


def battle_observations(preset, seed, battles=8, ticks=24, masks=False):
    """Every observer's observation after each tick of random play in
    ``battles`` battles (a finished battle restarts, so terminal steps are
    in), each presented under random ally and enemy orders.  Before the
    last tick's observations battle 0 loses every enemy, so the batch also
    holds all-dead enemy groups seen by living observers.  With ``masks``
    each observer's available actions come last."""
    cfg = PRESETS[preset]
    batch = BattleBatch(cfg, battles)
    rng = np.random.default_rng(seed)

    def reset(i):
        batch.reset(i, int(rng.integers(2 ** 31)),
                    rng.permutation(cfg.n_allies - 1),
                    rng.permutation(cfg.n_enemies))

    for i in range(battles):
        reset(i)
    blocks = [], [], [], []
    for t in range(ticks):
        avail = batch.available_actions()
        _, terminated, _ = batch.step(
            np.argmax(rng.random(avail.shape) * avail, axis=-1))
        if t == ticks - 1:
            batch.enemy_hp[0] = 0
        views = (*batch.observations(), batch.available_actions())
        for out, rows in zip(blocks, views):
            out.append(rows.reshape((-1,) + rows.shape[2:]))
        for i in np.flatnonzero(terminated):
            reset(i)
    return tuple(np.concatenate(rows) for rows in blocks[:4 if masks else 3])


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


def bits(a):
    return np.ascontiguousarray(a).view(f"u{a.itemsize}")


def bit_keys(rows):
    """Each row's raw bits, last column first: the order in which
    ``distinct_rows`` sorts them."""
    return [tuple(row[::-1]) for row in bits(rows)]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_distinct_rows_rebuilds_the_block_bitwise(data):
    """``rows[ranks]`` is X bit for bit, and the rows strictly increase in
    bit order, so no two of them have the same bits."""
    dtype = data.draw(st.sampled_from([np.float32, np.float64]))
    shape = data.draw(hnp.array_shapes(min_dims=1, max_dims=3, min_side=0,
                                       max_side=4)) + (data.draw(
        st.integers(1, 3)),)
    values = np.array([0.0, -0.0, 1.0, -2.5], dtype)
    X = values[data.draw(hnp.arrays(np.intp, shape,
                                    elements=st.integers(0, 3)))]
    rows, ranks = distinct_rows(Tensor(X))
    assert ranks.shape == X.shape[:-1]
    assert np.array_equal(bits(rows.data[ranks]), bits(X))
    keys = bit_keys(rows.data)
    assert all(a < b for a, b in zip(keys, keys[1:]))


def test_distinct_rows_keeps_signed_zeros_apart():
    X = np.zeros((3, K))
    X[1, 0] = -0.0
    rows, ranks = distinct_rows(Tensor(X))
    assert len(rows.data) == 2
    assert ranks[0] == ranks[2] != ranks[1]


def test_distinct_rows_merges_nothing_that_needs_a_gradient():
    X = np.tile(np.arange(K, dtype=np.float64), (2, 3, 1))
    X[1, 0, 0] = -1.0
    rows, ranks = distinct_rows(Tensor(X, requires_grad=True))
    assert len(rows.data) == 6
    assert np.array_equal(np.sort(ranks, axis=None), np.arange(6))
    assert np.array_equal(bits(rows.data[ranks]), bits(X))
    keys = bit_keys(rows.data)
    assert all(a <= b for a, b in zip(keys, keys[1:]))


def test_distinct_rows_of_empty_groups():
    rows, ranks = distinct_rows(Tensor(np.zeros((4, 0, K), np.float32)))
    assert rows.shape == (0, K) and ranks.shape == (4, 0)
    layer = input_layer(60)
    assert np.array_equal(hpn_input_layer(layer, rows, ranks).data,
                          np.tile(layer.shared_bias.data, (4, 1)))
    hidden = Tensor(np.zeros((4, 8), np.float32))
    assert hpn_output_layer(output_layer(61), hidden, rows,
                            ranks).shape == (4, 0)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_distinct_rows_hand_each_row_its_own_gradient(dtype):
    """Rows repeat within and across observations, but an input that
    needs a gradient merges none of them: X.grad is bitwise each row's
    upstream gradient, written back where the row came from."""
    X = Tensor(duplicate_rows_block(np.random.default_rng(64)).astype(dtype),
               requires_grad=True)
    rows, ranks = distinct_rows(X)
    assert rows._parents == (X,)
    g = np.random.default_rng(65).normal(size=rows.shape).astype(dtype)
    rows.backward(g)
    assert X.grad.dtype == dtype
    assert np.array_equal(bits(X.grad), bits(g[ranks]))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(0, 3, K), (4, 0, K)], ids=["B=0", "m=0"])
def test_distinct_rows_of_an_empty_block_backpropagate_zeros(shape, dtype):
    X = Tensor(np.zeros(shape, dtype), requires_grad=True)
    rows, _ = distinct_rows(X)
    rows.backward(np.zeros(rows.shape, dtype))
    assert X.grad.shape == shape and X.grad.dtype == dtype
    assert not X.grad.any()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_distinct_rows_of_a_constant_block_record_no_graph(dtype):
    X = Tensor(duplicate_rows_block(np.random.default_rng(66)).astype(dtype))
    rows, _ = distinct_rows(X)
    assert not rows.requires_grad
    assert rows._parents == () and rows._backward_rule is None


@pytest.mark.parametrize("cls", POOLING_NETS)
def test_each_entity_block_keyed_once_per_forward(cls, monkeypatch):
    keyed = []

    def counting(X):
        keyed.append(X)
        return distinct_rows(X)

    for module in (permnet.hpn, permnet.baselines):
        monkeypatch.setattr(module, "distinct_rows", counting)
    own, allies, enemies = (Tensor(rows) for rows in
                            battle_observations("3v3", 12, ticks=4))
    make_net(cls, "3v3", 13).forward_batch(own, allies, enemies)
    assert len(keyed) == 2
    assert {id(X) for X in keyed} == {id(allies), id(enemies)}


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
    """Move Q-values match the dense layers bitwise.  So does every attack
    entry, dead enemies' included, wherever the enemy block holds two
    distinct rows or more; a lone distinct row is generated by a BLAS
    matvec (see ``permnet.hpn``), which may differ in its last bits."""
    for seed, obs in enumerate([battle_observations(preset, 1),
                                nobody_alive(preset)]):
        net = make_net(cls, preset, seed)
        q = q_values(net, *obs).data
        with monkeypatch.context() as patch:
            use_dense_layers(patch)
            dense = q_values(net, *obs).data
        assert np.array_equal(q[:, :N_MOVE_ACTIONS],
                              dense[:, :N_MOVE_ACTIONS])
        attack, dense_attack = q[:, N_MOVE_ACTIONS:], dense[:, N_MOVE_ACTIONS:]
        if len(distinct_rows(Tensor(obs[2]))[0].data) >= 2:
            assert np.array_equal(attack, dense_attack)
        else:
            np.testing.assert_allclose(attack, dense_attack, rtol=1e-5)


@pytest.mark.parametrize("cls", NETS)
@pytest.mark.parametrize("preset", ["3v3", "8v9"])
def test_gradients_match_dense(cls, preset, monkeypatch):
    """A loss that reads every entry, dead enemies' included: every
    parameter gradient of a float64 copy of the net agrees with the dense
    layers' within rtol 1e-12.
    Fewer rows change the weight-gradient sums' rounding, so an entry
    whose sum cancels to near zero gets an absolute floor of 1e-12 times
    the largest entry of that parameter's gradient."""
    own, allies, enemies = battle_observations(preset, 2)
    net = in_float64(make_net(cls, preset, 3))
    probe = np.random.default_rng(4).normal(
        size=(len(own), net.n_actions))
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
    out = embed(layer, Tensor(X)).data
    assert np.array_equal(
        out, dense_input_layer(layer, *distinct_rows(Tensor(X))).data)
    assert np.array_equal(out[0], layer.shared_bias.data)


def test_output_layer_dead_enemies_bitwise_equal():
    """Dead enemies are scored like live ones: one observation's dead
    entries are bitwise equal, and every entry is the dense layer's."""
    layer = output_layer(53, h=8)
    hidden = Tensor(np.random.default_rng(54).normal(size=(3, 8)))
    X = np.random.default_rng(55).normal(size=(3, 4, K))
    X[..., 3] = 1.0
    X[0, 1] = X[0, 3] = 0.0
    X[2] = 0.0
    key = distinct_rows(Tensor(X))
    q = hpn_output_layer(layer, hidden, *key).data
    assert np.isfinite(q).all()
    assert q[0, 1] == q[0, 3] and (q[2] == q[2, 0]).all()
    assert np.array_equal(q, dense_output_layer(layer, hidden, *key).data)


def test_output_layer_all_dead_backward_gives_param_shaped_gradients():
    layer = output_layer(56, h=8)
    hidden = Tensor(np.random.default_rng(57).normal(size=(2, 8)),
                    requires_grad=True)
    X = Tensor(np.zeros((2, 3, K)), requires_grad=True)
    q = score(layer, hidden, X)
    assert np.isfinite(q.data).all()
    reduce_sum(q).backward()
    params = layer.named_parameters()
    assert set(params) == {"body.weight", "body.bias", "w_head.weight",
                           "w_head.bias", "b_head.weight", "b_head.bias"}
    for name, p in params.items():
        assert p.grad.shape == p.shape, name
    assert hidden.grad.shape == hidden.shape and X.grad.shape == X.shape


@pytest.mark.parametrize("cls", NETS)
@pytest.mark.parametrize("preset", ["3v3", "5v6", "8v9"])
def test_greedy_actions_never_attack_a_dead_enemy(cls, preset):
    """On battle observations with deaths, each observation's dead enemies
    get bitwise equal attack values, and ``greedy_actions`` picks an
    available action, never an attack on a dead enemy.  The attack bias
    is raised above every move, so that greedy picks attack, and where a
    dead enemy holds the best attack value only the mask stops it."""
    own, allies, enemies, avail = battle_observations(preset, 10,
                                                      masks=True)
    net = make_net(cls, preset, 11)
    net.attack_head.b_head.bias.data += 1e3
    q = q_values(net, own, allies, enemies).data
    attack = q[:, N_MOVE_ACTIONS:]
    dead = enemies[..., 3] == 0.0
    index = np.arange(len(q))
    same = attack == attack[index, np.argmax(dead, axis=1)][:, None]
    assert same[dead].all()
    assert dead[index, attack.argmax(axis=1)].any()
    picks = greedy_actions(q, avail)
    assert avail[index, picks].all()
    target = picks - N_MOVE_ACTIONS
    hit = target >= 0
    assert hit.any()
    assert not dead[hit, target[hit]].any()


@pytest.mark.parametrize("cls", POOLING_NETS)
@pytest.mark.parametrize("preset", ["3v3", "5v6", "8v9"])
def test_exact_order_freedom_on_battle_observations(cls, preset):
    """Reordering the ally and enemy rows of observations with deaths
    leaves move Q-values bitwise unchanged and permutes attack Q-values
    bitwise, dead enemies' entries included.  The deep set's attack head
    reads the pooled vector alone, so its attack Q-values stay put."""
    obs = battle_observations(preset, 5)
    rng = np.random.default_rng(6)
    # the second batch is mostly duplicates: 4x as many observations,
    # drawn from the first 8, each under its own order
    repeats = rng.integers(8, size=4 * len(obs[0]))
    net = make_net(cls, preset, 7)
    for own, allies, enemies in [obs, tuple(rows[repeats] for rows in obs)]:
        ally_perm = np.stack([rng.permutation(allies.shape[1]) for _ in own])
        enemy_perm = np.stack([rng.permutation(enemies.shape[1])
                               for _ in own])
        q = q_values(net, own, allies, enemies).data
        q_perm = q_values(net, own,
                          np.take_along_axis(allies, ally_perm[..., None], 1),
                          np.take_along_axis(enemies, enemy_perm[..., None],
                                             1)).data
        assert np.array_equal(q_perm[:, :N_MOVE_ACTIONS],
                              q[:, :N_MOVE_ACTIONS])
        attack = q[:, N_MOVE_ACTIONS:]
        if cls is not DeepSetAgentNet:
            attack = np.take_along_axis(attack, enemy_perm, 1)
        assert np.array_equal(q_perm[:, N_MOVE_ACTIONS:], attack)


@pytest.mark.parametrize("cls", POOLING_NETS)
@pytest.mark.parametrize("preset", ["3v3", "8v9"])
def test_tiled_batch_gives_the_untiled_q_bitwise(cls, preset):
    """Tiling a batch repeats every entity row, so each distinct row is
    generated once either way: the Q-values are the untiled ones.
    The tiled batches stay within 2,304 rows: at one BLAS thread a
    (2880, 64) @ (64, 6) move head rounds some rows differently from the
    (576, 64) one, a change of GEMM kernel that has nothing to do with
    row sharing."""
    obs = battle_observations(preset, 8, battles=4)
    net = make_net(cls, preset, 9)
    q = q_values(net, *obs).data
    for k in (2, 3):
        tiled = [np.concatenate([rows] * k) for rows in obs]
        assert np.array_equal(q_values(net, *tiled).data,
                              np.concatenate([q] * k))


@pytest.mark.parametrize("cls", NETS)
def test_grad_check_wrt_duplicate_entity_rows(cls):
    """An input that needs a gradient shares no rows: every copy of a
    repeated ally or enemy row gets its own input gradient."""
    net = in_float64(cls(np.random.default_rng(58), n_allies=3, n_enemies=3,
                         hidden=8, hyper_hidden=8))
    rng = np.random.default_rng(59)
    own = rng.normal(size=(3, OWN_FEATURES))
    row = rng.normal(size=K)
    row[3] = 1.0
    allies = np.stack([[row, row], [row, rng.normal(size=K)], [row, row]])
    enemies = np.tile(row, (3, 3, 1))
    enemies[1, 2] = rng.normal(size=K)
    enemies[1, 2, 3] = 1.0
    probe = Tensor(rng.normal(size=(3, net.n_actions)))

    def f(a, e):
        return reduce_sum(mul(net.forward_batch(Tensor(own), a, e), probe))

    assert grad_check(f, [allies, enemies]) < 1e-6


def duplicate_rows_block(rng, batch=4, m=4):
    """An enemy block whose rows repeat within and across observations:
    two live rows shared around, and all-zero dead rows."""
    shared = rng.normal(size=(2, K))
    shared[:, 3] = 1.0
    X = rng.normal(size=(batch, m, K))
    X[..., 3] = 1.0
    X[0, 1] = X[0, 3] = X[2, 0] = shared[0]
    X[1, :2] = X[3, 2] = shared[1]
    X[2, 2:] = X[3, 0] = 0.0
    return X


def test_output_layer_grad_check_with_duplicate_entity_rows():
    """Rows shared within and across observations (the input needs no
    gradient, so they merge): the count-matrix gradients of the generated
    weights and bias, and the trunk's, match central differences."""
    layer = in_float64(output_layer(62, h=6))
    rng = np.random.default_rng(63)
    X = Tensor(duplicate_rows_block(rng))
    assert len(distinct_rows(X)[0].data) < 16
    hidden = rng.normal(size=(4, 6))
    probe = Tensor(rng.normal(size=(4, 4)))

    def f(h, *params):
        return reduce_sum(mul(score(layer, h, X), probe))

    assert grad_check(f, [hidden, *layer.named_parameters().values()]) < 1e-6


def test_input_layer_grad_check_with_duplicate_entity_rows():
    layer = in_float64(input_layer(64, h=5))
    rng = np.random.default_rng(65)
    X = Tensor(duplicate_rows_block(rng))
    probe = Tensor(rng.normal(size=(4, 5)))

    def f(*params):
        return reduce_sum(mul(embed(layer, X), probe))

    assert grad_check(f, list(layer.named_parameters().values())) < 1e-6


@pytest.mark.parametrize("preset", ["3v3", "8v9"])
def test_output_layer_gradients_match_dense_in_float32(preset):
    """The float32 gradients of the head's parameters and of the trunk
    state agree with the dense layer's within float32 rounding: the
    count-matrix sums only regroup the same products."""
    _, _, enemies = battle_observations(preset, 10)
    layer = output_layer(66, h=64)
    rng = np.random.default_rng(67)
    probe = Tensor(rng.normal(size=enemies.shape[:2]).astype(np.float32))
    trunk = rng.normal(size=(len(enemies), 64)).astype(np.float32)
    params = layer.named_parameters()

    def grads(head):
        for p in params.values():
            p.zero_grad()
        hidden = Tensor(trunk, requires_grad=True)
        q = head(layer, hidden, *distinct_rows(Tensor(enemies)))
        reduce_sum(mul(q, probe)).backward()
        return {"trunk": hidden.grad,
                **{name: p.grad for name, p in params.items()}}

    sparse, dense = grads(hpn_output_layer), grads(dense_output_layer)
    for name, g in dense.items():
        assert sparse[name].dtype == np.float32
        np.testing.assert_allclose(sparse[name], g, rtol=1e-4,
                                   atol=2e-5 * np.abs(g).max(), err_msg=name)


@pytest.mark.parametrize("batch, m", [(3, 0), (0, 4), (0, 0)],
                         ids=["m=0", "B=0", "B=m=0"])
def test_empty_blocks_backward_to_zero_gradients(batch, m):
    """An empty enemy axis or an empty batch backpropagates zeros of the
    parameters' and the trunk's shapes through both layers."""
    X = Tensor(np.zeros((batch, m, K), np.float32))
    hidden = Tensor(np.ones((batch, 8), np.float32), requires_grad=True)
    inp, out = input_layer(68), output_layer(69)
    pooled = embed(inp, X)
    q = score(out, hidden, X)
    assert pooled.shape == (batch, 8) and q.shape == (batch, m)
    add(reduce_sum(pooled), reduce_sum(q)).backward()
    assert hidden.grad.shape == hidden.shape and not hidden.grad.any()
    for layer in (inp, out):
        for name, p in layer.named_parameters().items():
            assert p.grad.shape == p.shape, name
            if name != "shared_bias":
                assert not p.grad.any(), name
