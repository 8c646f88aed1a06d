"""Grid-battle environment: dynamics, masks, rewards, scripted opponents."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permnet import env as production
from permnet.env import (
    ACTION_EAST,
    ACTION_NOOP,
    ACTION_NORTH,
    ACTION_SOUTH,
    ACTION_STOP,
    ACTION_WEST,
    ENTITY_FEATURES,
    N_MOVE_ACTIONS,
    OWN_FEATURES,
    PRESETS,
    UNIT_FIELDS,
    BattleBatch,
    BattleConfig,
    MicroBattleEnv,
    ShuffleWrapper,
    other_ally_index,
    view_tables,
)

import battle_reference as ref
from scripted_policies import always_lose_policy, chebyshev, focus_fire_policy


def make_env(**kw):
    return MicroBattleEnv(BattleConfig(**kw))


def place(env, allies, enemies, ally_hp=None, enemy_hp=None):
    """Reset ``env`` (a battle or its shuffle wrapper, production or
    reference), then overwrite the battle's positions/health to build a
    hand-crafted scenario: row 0 of a production battle's batch, or a
    reference battle's own arrays."""
    env.reset(0)
    battle = getattr(env, "env", env)
    units = getattr(battle, "batch", battle)
    for i, (x, y) in enumerate(allies):
        units.ally_x[..., i], units.ally_y[..., i] = x, y
    for e, (x, y) in enumerate(enemies):
        units.enemy_x[..., e], units.enemy_y[..., e] = x, y
    if ally_hp is not None:
        units.ally_hp[:] = ally_hp
    if enemy_hp is not None:
        units.enemy_hp[:] = enemy_hp
    return env


# -- config ------------------------------------------------------------


def test_config_rejects_nonpositive_fields():
    with pytest.raises(ValueError):
        BattleConfig(n_allies=0)
    with pytest.raises(ValueError):
        BattleConfig(attack_damage=0)
    with pytest.raises(ValueError):
        BattleConfig(episode_limit=0)


def test_config_rejects_overfull_spawn_regions():
    with pytest.raises(ValueError):
        BattleConfig(grid_size=6, n_allies=13)
    with pytest.raises(ValueError):
        BattleConfig(grid_size=6, n_enemies=25)
    with pytest.raises(ValueError):
        BattleConfig(grid_size=5)


def test_config_action_and_state_dims():
    cfg = BattleConfig(n_allies=3, n_enemies=4)
    assert cfg.n_actions == N_MOVE_ACTIONS + 4
    assert cfg.state_dim == ENTITY_FEATURES * 7


def test_presets_cover_three_scales():
    assert PRESETS["3v3"].n_allies == 3 and PRESETS["3v3"].n_enemies == 3
    assert PRESETS["5v6"].n_allies == 5 and PRESETS["5v6"].n_enemies == 6
    assert PRESETS["8v9"].n_allies == 8 and PRESETS["8v9"].n_enemies == 9


# -- reset -------------------------------------------------------------


def test_reset_same_seed_identical():
    env = make_env()
    obs1, state1 = env.reset(123)
    units = [getattr(env.batch, name).copy() for name in UNIT_FIELDS]
    obs2, state2 = env.reset(123)
    for name, first in zip(UNIT_FIELDS, units):
        assert np.array_equal(first, getattr(env.batch, name))
    assert np.array_equal(state1, state2)
    for a, b in zip(obs1, obs2):
        assert np.array_equal(a.own, b.own)
        assert np.array_equal(a.allies, b.allies)
        assert np.array_equal(a.enemies, b.enemies)


def test_reset_full_health():
    env = make_env()
    env.reset(7)
    assert (env.batch.ally_hp[0] == env.cfg.max_health).all()
    assert (env.batch.enemy_hp[0] == env.cfg.max_health).all()


def test_reset_observation_row_counts():
    env = MicroBattleEnv(PRESETS["5v6"])
    obs, _ = env.reset(0)
    assert len(obs) == 5
    for o in obs:
        assert o.own.shape == (OWN_FEATURES,)
        assert o.allies.shape == (4, ENTITY_FEATURES)
        assert o.enemies.shape == (6, ENTITY_FEATURES)


def test_reset_spawn_geometry():
    env = make_env()
    g, b = env.cfg.grid_size, env.batch
    for seed in range(30):
        env.reset(seed)
        # allies: contiguous line on the left wall
        assert (b.ally_x[0] == 0).all()
        ys = np.sort(b.ally_y[0])
        assert (np.diff(ys) == 1).all()
        # enemies: distinct cells in the right four columns
        assert (b.enemy_x[0] >= g - 4).all() and (b.enemy_x[0] < g).all()
        cells = {(int(x), int(y)) for x, y in zip(b.enemy_x[0], b.enemy_y[0])}
        assert len(cells) == env.cfg.n_enemies


def test_reset_wide_team_wraps_to_two_columns():
    env = make_env(grid_size=6, n_allies=9)
    env.reset(3)
    b = env.batch
    assert set(b.ally_x[0].tolist()) == {0, 1}
    cells = {(int(x), int(y)) for x, y in zip(b.ally_x[0], b.ally_y[0])}
    assert len(cells) == 9


def test_reset_seeds_vary_layout():
    env = make_env()
    layouts, b = set(), env.batch
    for seed in range(10):
        env.reset(seed)
        layouts.add(tuple(b.ally_y[0].tolist()) + tuple(b.enemy_x[0].tolist())
                    + tuple(b.enemy_y[0].tolist()))
    assert len(layouts) > 1


# -- observations and state --------------------------------------------


def test_observation_feature_values():
    env = make_env()
    place(env, [(0, 2), (0, 3), (0, 4)], [(5, 2), (6, 6), (7, 7)],
          ally_hp=[6, 3, 6], enemy_hp=[6, 6, 0])
    norm = env.cfg.grid_size - 1
    obs = env.observations()
    o = obs[0]
    assert np.allclose(o.own, [0.0, 2 / norm, 1.0])
    # first ally row for agent 0 is agent 1: rel (0, 1), hp 3/6, alive
    assert np.allclose(o.allies[0], [0.0, 1 / norm, 0.5, 1.0])
    assert np.allclose(o.enemies[0], [5 / norm, 0.0, 1.0, 1.0])
    # dead enemy row is all zero
    assert np.array_equal(o.enemies[2], np.zeros(ENTITY_FEATURES))


def test_dead_observer_sees_zeros():
    env = make_env()
    place(env, [(0, 2), (0, 3), (0, 4)], [(5, 2), (6, 6), (7, 7)],
          ally_hp=[0, 6, 6])
    o = env.observations()[0]
    assert not o.own.any() and not o.allies.any() and not o.enemies.any()


def reference_observations(env):
    """Observations built row by row, one entity at a time, from the
    battle's units (row 0 of its batch)."""
    cfg, norm = env.cfg, env.cfg.grid_size - 1
    ally_x, ally_y, ally_hp, enemy_x, enemy_y, enemy_hp = (
        getattr(env.batch, name)[0] for name in UNIT_FIELDS)

    def entity_rows(ox, oy, xs, ys, hps, skip=-1):
        rows = []
        for j in range(len(hps)):
            if j == skip:
                continue
            if hps[j] > 0:
                rows.append([(xs[j] - ox) / norm, (ys[j] - oy) / norm,
                             hps[j] / cfg.max_health, 1.0])
            else:
                rows.append([0.0, 0.0, 0.0, 0.0])
        return np.array(rows) if rows else np.zeros((0, ENTITY_FEATURES))

    out = []
    for i in range(cfg.n_allies):
        if ally_hp[i] <= 0:
            out.append((np.zeros(OWN_FEATURES),
                        np.zeros((cfg.n_allies - 1, ENTITY_FEATURES)),
                        np.zeros((cfg.n_enemies, ENTITY_FEATURES))))
            continue
        ox, oy = int(ally_x[i]), int(ally_y[i])
        out.append((
            np.array([ox / norm, oy / norm, ally_hp[i] / cfg.max_health]),
            entity_rows(ox, oy, ally_x, ally_y, ally_hp, skip=i),
            entity_rows(ox, oy, enemy_x, enemy_y, enemy_hp)))
    return out


@pytest.mark.parametrize("preset", ["3v3", "5v6", "8v9"])
def test_observations_match_per_entity_reference_bitwise(preset):
    env = MicroBattleEnv(PRESETS[preset])
    rng = np.random.default_rng(31)
    for seed in range(20):
        obs, _ = env.reset(seed)
        done = False
        while True:
            expected = reference_observations(env)
            assert len(obs) == len(expected)
            for o, (own, allies, enemies) in zip(obs, expected):
                for got, want in ((o.own, own), (o.allies, allies),
                                  (o.enemies, enemies)):
                    assert_same_bytes(got, stored(want))
            if done:
                break
            mask = env.available_actions()
            acts = [int(rng.choice(np.flatnonzero(row))) for row in mask]
            obs, _, _, done, _ = env.step(acts)


def test_state_layout_allies_then_enemies():
    env = make_env()
    place(env, [(0, 2), (0, 3), (0, 4)], [(5, 2), (6, 6), (7, 7)],
          ally_hp=[6, 0, 6], enemy_hp=[3, 6, 6])
    norm = env.cfg.grid_size - 1
    s = env.state().reshape(6, ENTITY_FEATURES)
    assert np.allclose(s[0], [0.0, 2 / norm, 1.0, 1.0])
    assert not s[1].any()                      # dead ally row zeroed
    assert np.allclose(s[3], [5 / norm, 2 / norm, 0.5, 1.0])


# -- masks -------------------------------------------------------------


def test_mask_dead_agent_noop_only():
    env = make_env()
    place(env, [(0, 2), (0, 3), (0, 4)], [(5, 2), (6, 6), (7, 7)],
          ally_hp=[0, 6, 6])
    mask = env.available_actions()
    expected = np.zeros(env.cfg.n_actions, dtype=bool)
    expected[ACTION_NOOP] = True
    assert np.array_equal(mask[0], expected)
    assert not mask[1, ACTION_NOOP]


def test_mask_moves_respect_bounds():
    env = make_env()
    place(env, [(0, 0), (7, 7), (3, 3)], [(5, 2), (6, 6), (7, 5)])
    mask = env.available_actions()
    assert not mask[0, ACTION_WEST] and not mask[0, ACTION_SOUTH]
    assert mask[0, ACTION_EAST] and mask[0, ACTION_NORTH]
    assert not mask[1, ACTION_EAST] and not mask[1, ACTION_NORTH]
    assert mask[2, ACTION_NORTH] and mask[2, ACTION_SOUTH]
    assert mask[2, ACTION_EAST] and mask[2, ACTION_WEST]


def test_mask_attack_requires_range_and_alive():
    env = make_env()
    place(env, [(3, 3), (0, 0), (0, 1)], [(4, 4), (3, 5), (7, 7)],
          enemy_hp=[6, 0, 6])
    mask = env.available_actions()
    assert mask[0, N_MOVE_ACTIONS + 0]          # adjacent diagonal, alive
    assert not mask[0, N_MOVE_ACTIONS + 1]      # dead enemy
    assert not mask[0, N_MOVE_ACTIONS + 2]      # out of range
    assert mask[0, ACTION_STOP]


def test_step_rejects_unavailable_action():
    # the facade is where actions enter the engine: it names the first
    # offending agent and its action, and a rejected step changes nothing
    env = place(make_env(), [(0, 0), (0, 2), (3, 3)],
                [(7, 7), (7, 6), (4, 4)])
    # only agent 2 may attack, and only the last enemy: -1 must not wrap
    # to that column
    assert env.available_actions()[:, N_MOVE_ACTIONS:].tolist() == [
        [False] * 3, [False] * 3, [False, False, True]]
    for agent, action in ((0, N_MOVE_ACTIONS + 2), (1, ACTION_NOOP),
                          (0, ACTION_WEST), (1, 99), (2, -1)):
        actions = [ACTION_STOP] * 3
        actions[agent] = action
        with pytest.raises(ValueError, match=rf"^action {action} not "
                                             rf"available for agent {agent}$"):
            env.step(actions)
    assert env.batch.t[0] == 0 and env.batch.enemy_hp[0].tolist() == [6, 6, 6]
    env.step([ACTION_STOP, ACTION_STOP, N_MOVE_ACTIONS + 2])
    assert env.batch.t[0] == 1 and env.batch.enemy_hp[0].tolist() == [6, 6, 4]


def test_step_rejects_wrong_arity():
    env = make_env()
    env.reset(0)
    for actions, got in (([ACTION_STOP] * 2, r"int64 \(2,\)"),
                         ([[ACTION_STOP] * 3], r"int64 \(1, 3\)"),
                         ([1.9, 1.2, 1.0], r"float64 \(3,\)")):
        # a float once ran truncated: 6.9 as an attack on enemy 0
        with pytest.raises(ValueError, match=rf"^expected 3 actions as "
                                             rf"integers, got {got}$"):
            env.step(actions)
    assert env.batch.t[0] == 0


def test_step_after_terminal_raises():
    env = make_env()
    env.reset(0)
    done = False
    while not done:
        _, _, _, done, _ = env.step(focus_fire_policy(env, env.available_actions()))
    # a finished episode is named before anything about the actions
    for actions in ([ACTION_STOP] * 3, [ACTION_STOP], [99] * 3):
        with pytest.raises(RuntimeError, match="finished episode"):
            env.step(actions)


# -- movement ----------------------------------------------------------


def test_move_directions():
    env = make_env()
    place(env, [(3, 3), (0, 0), (0, 7)], [(7, 0), (7, 1), (7, 2)])
    env.available_actions()
    env.step([ACTION_NORTH, ACTION_STOP, ACTION_STOP])
    assert (env.batch.ally_x[0, 0], env.batch.ally_y[0, 0]) == (3, 4)
    env.available_actions()
    env.step([ACTION_EAST, ACTION_STOP, ACTION_STOP])
    assert (env.batch.ally_x[0, 0], env.batch.ally_y[0, 0]) == (4, 4)
    env.available_actions()
    env.step([ACTION_SOUTH, ACTION_STOP, ACTION_STOP])
    assert (env.batch.ally_x[0, 0], env.batch.ally_y[0, 0]) == (4, 3)
    env.available_actions()
    env.step([ACTION_WEST, ACTION_STOP, ACTION_STOP])
    assert (env.batch.ally_x[0, 0], env.batch.ally_y[0, 0]) == (3, 3)


def test_move_collision_mover_stays():
    env = make_env()
    place(env, [(2, 2), (2, 3), (0, 7)], [(7, 0), (7, 1), (7, 2)])
    env.available_actions()
    env.step([ACTION_NORTH, ACTION_STOP, ACTION_STOP])
    assert (env.batch.ally_x[0, 0], env.batch.ally_y[0, 0]) == (2, 2)


def test_move_into_cell_vacated_earlier_in_index_order():
    # agent 0 moves away first, so agent 1 can take its old cell
    env = make_env()
    place(env, [(2, 2), (2, 1), (0, 7)], [(7, 0), (7, 1), (7, 2)])
    env.available_actions()
    env.step([ACTION_EAST, ACTION_NORTH, ACTION_STOP])
    assert (env.batch.ally_x[0, 0], env.batch.ally_y[0, 0]) == (3, 2)
    assert (env.batch.ally_x[0, 1], env.batch.ally_y[0, 1]) == (2, 2)


def test_swap_attempt_blocked_for_second_mover():
    # agent 0 walks into agent 1's cell (blocked: 1 has not moved yet in
    # index order), then 1 moves into 0's cell, which 0 still occupies
    env = make_env()
    place(env, [(2, 2), (2, 3), (0, 7)], [(7, 0), (7, 1), (7, 2)])
    env.available_actions()
    env.step([ACTION_NORTH, ACTION_SOUTH, ACTION_STOP])
    assert (env.batch.ally_x[0, 0], env.batch.ally_y[0, 0]) == (2, 2)
    assert (env.batch.ally_x[0, 1], env.batch.ally_y[0, 1]) == (2, 3)


# -- rewards -----------------------------------------------------------


def test_reward_zero_when_out_of_contact():
    env = make_env()
    place(env, [(0, 2), (0, 3), (0, 4)], [(7, 2), (7, 4), (7, 6)])
    env.available_actions()
    _, _, reward, _, _ = env.step([ACTION_EAST, ACTION_EAST, ACTION_EAST])
    assert reward == 0.0


def test_reward_kill_at_exact_damage():
    env = make_env()
    place(env, [(4, 4), (0, 0), (0, 1)], [(5, 4), (7, 6), (7, 7)],
          enemy_hp=[2, 6, 6])
    env.available_actions()
    _, _, reward, done, info = env.step(
        [N_MOVE_ACTIONS + 0, ACTION_STOP, ACTION_STOP])
    cfg = env.cfg
    assert reward == pytest.approx(cfg.damage_scale * cfg.attack_damage
                                   + cfg.kill_bonus)
    assert env.batch.enemy_hp[0, 0] == 0
    assert not done and not info["win"]


def test_reward_final_kill_includes_win_bonus():
    env = make_env()
    place(env, [(4, 4), (0, 0), (0, 1)], [(5, 4), (7, 6), (7, 7)],
          enemy_hp=[2, 0, 0])
    env.available_actions()
    _, _, reward, done, info = env.step(
        [N_MOVE_ACTIONS + 0, ACTION_STOP, ACTION_STOP])
    cfg = env.cfg
    assert reward == pytest.approx(cfg.damage_scale * cfg.attack_damage
                                   + cfg.kill_bonus + cfg.win_bonus)
    assert done and info["win"]


def test_reward_counts_actual_damage_not_overkill():
    # two attackers on a 2-health enemy: only 2 health actually removed
    env = make_env()
    place(env, [(4, 4), (4, 5), (0, 0)], [(5, 4), (7, 6), (7, 7)],
          enemy_hp=[2, 6, 6])
    env.available_actions()
    _, _, reward, _, _ = env.step(
        [N_MOVE_ACTIONS + 0, N_MOVE_ACTIONS + 0, ACTION_STOP])
    cfg = env.cfg
    assert reward == pytest.approx(cfg.damage_scale * 2 + cfg.kill_bonus)


def test_enemy_damage_to_allies_not_in_reward():
    env = make_env()
    place(env, [(4, 4), (0, 0), (0, 1)], [(5, 4), (7, 6), (7, 7)])
    env.available_actions()
    _, _, reward, _, _ = env.step([N_MOVE_ACTIONS + 0, ACTION_STOP, ACTION_STOP])
    assert reward == pytest.approx(env.cfg.damage_scale * env.cfg.attack_damage)
    assert (env.batch.ally_hp[0, 0]
            == env.cfg.max_health - env.cfg.attack_damage)


def test_episode_limit_terminates_without_win():
    env = make_env(episode_limit=3)
    env.reset(0)
    done = False
    steps = 0
    while not done:
        env.available_actions()
        _, _, _, done, info = env.step([ACTION_STOP] * 3)
        steps += 1
        assert steps <= 3
    assert steps == 3 and not info["win"]


# -- scripted enemies --------------------------------------------------


def hold_step(env):
    """One step in which every living ally holds (stop) and dead ones
    noop, so only the scripted enemies act.  Only a living ally may stop."""
    env.step(np.where(env.available_actions()[:, ACTION_STOP], ACTION_STOP,
                      ACTION_NOOP))


def test_enemy_attacks_adjacent_ally():
    env = make_env()
    place(env, [(4, 4), (0, 0), (0, 1)], [(5, 5), (7, 0), (7, 1)])
    hold_step(env)
    hit = env.cfg.max_health - env.cfg.attack_damage
    assert env.batch.ally_hp[0].tolist() == [hit, 6, 6]


def test_enemy_attacks_lowest_index_in_range():
    env = make_env()
    place(env, [(4, 4), (4, 5), (6, 5)], [(5, 5), (7, 0), (7, 1)])
    # enemy 0 adjacent to allies 0, 1, 2: picks 0
    hold_step(env)
    hit = env.cfg.max_health - env.cfg.attack_damage
    assert env.batch.ally_hp[0].tolist() == [hit, 6, 6]


def test_enemy_pursues_nearest_ally_lowest_index_tie():
    env = make_env()
    place(env, [(1, 2), (5, 2), (0, 7)], [(3, 2), (7, 7), (7, 6)],
          ally_hp=[6, 6, 0])
    # allies 0 and 1 both at distance 2; target must be ally 0 (west move)
    hold_step(env)
    assert (env.batch.enemy_x[0, 0], env.batch.enemy_y[0, 0]) == (2, 2)


def test_enemy_move_prefers_x_axis_then_negative():
    env = make_env()
    # ally diagonal down-left: west and south both keep distance 2
    place(env, [(1, 2), (0, 0), (0, 1)], [(3, 4), (7, 7), (7, 6)],
          ally_hp=[6, 0, 0])
    hold_step(env)
    assert (env.batch.enemy_x[0, 0], env.batch.enemy_y[0, 0]) == (2, 4)


def test_enemy_blocked_stays():
    # enemy 0 pursues the ally at distance 2; west is occupied and both
    # vertical moves (equal distance) are too, east increases distance
    env = make_env(n_enemies=4)
    place(env, [(2, 2), (0, 6), (0, 7)],
          [(4, 2), (3, 2), (4, 3), (4, 1)])
    hold_step(env)
    assert (env.batch.enemy_x[0, 0], env.batch.enemy_y[0, 0]) == (4, 2)


def test_enemy_blocked_takes_next_preferred_move():
    # west (distance 1) is occupied by enemy 1, which attacks; of the
    # moves that keep distance 2, south comes first
    env = make_env()
    place(env, [(2, 2), (0, 6), (0, 7)], [(4, 2), (3, 2), (7, 7)])
    hold_step(env)
    assert (env.batch.enemy_x[0, 0], env.batch.enemy_y[0, 0]) == (4, 1)


def test_enemies_pursuing_into_one_cell_move_in_index_order():
    # both enemies' best move is (3, 3), judged on one snapshot: enemy 0
    # takes it and enemy 1, moving second, finds it taken and stays
    allies, enemies = [(2, 2), (0, 7), (0, 6)], [(4, 3), (3, 4), (7, 0)]
    env = place(make_env(), allies, enemies)
    want = place(ref.MicroBattleEnv(BattleConfig()), allies, enemies)
    hold_step(env)
    hold_step(want)
    got = [(int(x), int(y))
           for x, y in zip(env.batch.enemy_x[0], env.batch.enemy_y[0])]
    assert got[:2] == [(3, 3), (3, 4)]
    assert got == [(int(x), int(y)) for x, y in zip(want.enemy_x,
                                                     want.enemy_y)]


def test_enemy_distance_never_increases():
    env = make_env()
    b = env.batch
    rng = np.random.default_rng(0)
    for seed in range(10):
        env.reset(seed)
        done = False
        while not done:
            dist_before = {}
            live_allies = [(int(b.ally_x[0, i]), int(b.ally_y[0, i]))
                           for i in range(3) if b.ally_hp[0, i] > 0]
            for e in range(3):
                if b.enemy_hp[0, e] > 0 and live_allies:
                    dist_before[e] = min(
                        chebyshev(int(b.enemy_x[0, e]), int(b.enemy_y[0, e]),
                                  ax, ay)
                        for ax, ay in live_allies)
            mask = env.available_actions()
            acts = [int(rng.choice(np.flatnonzero(mask[i]))) for i in range(3)]
            _, _, _, done, _ = env.step(acts)
            # compare against pre-step ally positions: the enemy's own move
            # may not increase its distance to the (then) nearest ally
            for e, d0 in dist_before.items():
                if b.enemy_hp[0, e] > 0 and live_allies:
                    d1 = min(chebyshev(int(b.enemy_x[0, e]),
                                       int(b.enemy_y[0, e]), ax, ay)
                             for ax, ay in live_allies)
                    assert d1 <= d0


def test_dead_entities_never_move_or_act():
    env = make_env()
    place(env, [(4, 4), (0, 0), (0, 1)], [(5, 4), (6, 6), (7, 7)],
          ally_hp=[6, 0, 6], enemy_hp=[6, 0, 6])
    b = env.batch
    dead_ally = (int(b.ally_x[0, 1]), int(b.ally_y[0, 1]))
    dead_enemy = (int(b.enemy_x[0, 1]), int(b.enemy_y[0, 1]))
    env.available_actions()
    env.step([N_MOVE_ACTIONS + 0, ACTION_NOOP, ACTION_STOP])
    assert (int(b.ally_x[0, 1]), int(b.ally_y[0, 1])) == dead_ally
    assert (int(b.enemy_x[0, 1]), int(b.enemy_y[0, 1])) == dead_enemy
    assert b.enemy_hp[0, 1] == 0


# -- episode invariants ------------------------------------------------


def test_replay_is_bitwise_identical():
    env = make_env()
    env.reset(11)
    log = []
    states = []
    rewards = []
    done = False
    while not done:
        acts = focus_fire_policy(env, env.available_actions())
        log.append(acts)
        _, s, r, done, _ = env.step(acts)
        states.append(s)
        rewards.append(r)
    env.reset(11)
    for acts, s, r in zip(log, states, rewards):
        env.available_actions()
        _, s2, r2, _, _ = env.step(acts)
        assert np.array_equal(s, s2)
        assert r == r2


def test_health_monotone_nonincreasing():
    env = make_env()
    b = env.batch
    rng = np.random.default_rng(5)
    for seed in range(5):
        env.reset(seed)
        done = False
        prev_a, prev_e = b.ally_hp.copy(), b.enemy_hp.copy()
        while not done:
            mask = env.available_actions()
            acts = [int(rng.choice(np.flatnonzero(mask[i]))) for i in range(3)]
            _, _, _, done, _ = env.step(acts)
            assert (b.ally_hp <= prev_a).all()
            assert (b.enemy_hp <= prev_e).all()
            prev_a, prev_e = b.ally_hp.copy(), b.enemy_hp.copy()


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), policy_seed=st.integers(0, 10_000))
def test_random_rollout_invariants(seed, policy_seed):
    env = make_env()
    rng = np.random.default_rng(policy_seed)
    env.reset(seed)
    done = False
    steps = 0
    while not done:
        mask = env.available_actions()
        assert mask.any(axis=1).all()           # someone can always act
        acts = [int(rng.choice(np.flatnonzero(mask[i]))) for i in range(3)]
        obs, state, reward, done, info = env.step(acts)
        assert state.shape == (env.cfg.state_dim,)
        assert np.isfinite(reward)
        steps += 1
    assert steps <= env.cfg.episode_limit


# -- reference policies ------------------------------------------------


def test_focus_fire_emits_available_actions_only():
    env = make_env()
    for seed in range(20):
        env.reset(seed)
        done = False
        while not done:
            mask = env.available_actions()
            acts = focus_fire_policy(env, mask)
            for i, a in enumerate(acts):
                assert mask[i, a]
            _, _, _, done, _ = env.step(acts)


def test_focus_fire_sweeps_the_3v3_evaluation_seeds():
    env = MicroBattleEnv(PRESETS["3v3"])
    for i in range(32):
        env.reset(9_000_000 + i)
        done = False
        while not done:
            _, _, _, done, info = env.step(
                focus_fire_policy(env, env.available_actions()))
        assert info["win"], f"lost evaluation episode {i}"


def test_always_lose_never_wins():
    env = make_env()
    for seed in range(5):
        env.reset(seed)
        done = False
        while not done:
            _, _, _, done, info = env.step(
                always_lose_policy(env, env.available_actions()))
        assert not info["win"]


# -- shuffle wrapper ---------------------------------------------------


def test_shuffle_wrapper_exposes_permutations():
    env = make_env()
    wrapped = ShuffleWrapper(env, np.random.default_rng(0))
    wrapped.reset(0)
    # the battle's batch row keeps the draws: every observer's ally slots
    # hold the other allies, and the enemy slots every enemy
    assert (np.sort(env.batch.ally_rows[0], axis=1)
            == other_ally_index(3)).all()
    assert sorted(env.batch.enemy_perm[0].tolist()) == [0, 1, 2]


def test_shuffle_wrapper_permutes_rows_and_masks():
    env = make_env()
    wrapped = ShuffleWrapper(make_env(), np.random.default_rng(1))
    obs_w, _ = wrapped.reset(4)
    obs_t, _ = env.reset(4)
    mask_t = env.available_actions()
    mask_w = wrapped.available_actions()
    ep = wrapped.env.batch.enemy_perm[0]
    for p, (ow, ot) in enumerate(zip(obs_w, obs_t)):
        # true ally a is row a - (a > p) of observer p's unshuffled group
        rows = wrapped.env.batch.ally_rows[0, p]
        assert np.array_equal(ow.own, ot.own)
        assert np.array_equal(ow.allies, ot.allies[rows - (rows > p)])
        assert np.array_equal(ow.enemies, ot.enemies[ep])
    assert np.array_equal(mask_w[:, :N_MOVE_ACTIONS], mask_t[:, :N_MOVE_ACTIONS])
    assert np.array_equal(mask_w[:, N_MOVE_ACTIONS:],
                          mask_t[:, N_MOVE_ACTIONS + ep])


def test_shuffle_wrapper_translates_attacks():
    wrapped = ShuffleWrapper(make_env(), np.random.default_rng(2))
    place(wrapped, [(4, 4), (0, 0), (0, 1)], [(7, 7), (5, 4), (7, 6)],
          enemy_hp=[6, 2, 6])
    # presented slot j is true enemy perm[j]; true enemy 1, the adjacent
    # one, is presented in another slot under this stream's draw
    slot = int(np.flatnonzero(wrapped.env.batch.enemy_perm[0] == 1)[0])
    assert slot != 1
    mask = wrapped.available_actions()
    assert np.flatnonzero(mask[0, N_MOVE_ACTIONS:]).tolist() == [slot]
    wrapped.step([N_MOVE_ACTIONS + slot, ACTION_STOP, ACTION_STOP])
    assert wrapped.env.batch.enemy_hp[0].tolist() == [6, 0, 6]


def test_shuffle_wrapper_episode_semantics_unchanged():
    # playing the same true actions through the wrapper (translated to
    # presented indexing) reproduces the unwrapped episode exactly
    env_a = make_env()
    env_b = make_env()
    wrapped = ShuffleWrapper(env_b, np.random.default_rng(3))
    env_a.reset(9)
    wrapped.reset(9)
    inv = np.argsort(env_b.batch.enemy_perm[0])
    done = False
    while not done:
        acts = focus_fire_policy(env_a, env_a.available_actions())
        presented = acts.copy()
        attack = presented >= N_MOVE_ACTIONS
        presented[attack] = N_MOVE_ACTIONS + inv[presented[attack]
                                                 - N_MOVE_ACTIONS]
        wrapped.available_actions()
        _, _, r_a, done, info_a = env_a.step(acts)
        _, _, r_b, done_b, info_b = wrapped.step(presented)
        assert r_a == r_b and done == done_b and info_a == info_b
    assert np.array_equal(env_a.state(), env_b.state())


def test_shuffle_wrapper_draws_fresh_permutations():
    env = make_env(n_allies=6, n_enemies=6, grid_size=8)
    wrapped = ShuffleWrapper(env, np.random.default_rng(7))
    seen = set()
    for k in range(8):
        wrapped.reset(k)
        seen.add(tuple(env.batch.enemy_perm[0].tolist()))
    assert len(seen) > 1


# -- battle batch ------------------------------------------------------


def attack_minded_actions(avail, rng):
    """Per agent: an available attack with probability 0.9 when there is
    one, otherwise any available action, uniformly."""
    actions = []
    for row in avail:
        attacks = np.flatnonzero(row[N_MOVE_ACTIONS:]) + N_MOVE_ACTIONS
        if attacks.size and rng.random() < 0.9:
            actions.append(rng.choice(attacks))
        else:
            actions.append(rng.choice(np.flatnonzero(row)))
    return np.array(actions, dtype=np.int64)


def assert_same_bytes(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def stored(view):
    """A frozen reference view (float64) as the battle batch stores it:
    each value rounded once to float32."""
    return view.astype(np.float32)


def battles(cfg, shuffle, count, stream):
    """``count`` production battles and as many frozen reference ones; the
    i-th pair's wrappers draw from equal streams."""
    def make(module, i):
        env = module.MicroBattleEnv(cfg)
        return (module.ShuffleWrapper(env, np.random.default_rng([stream, i]))
                if shuffle else env)
    return ([make(production, i) for i in range(count)],
            [make(ref, i) for i in range(count)])


def assert_same_draws(batch, envs, refs):
    """Wrappers drew the same permutations, which row i of ``batch``
    presents for ``envs[i]``, and left their streams in the same state."""
    for i, (env, want) in enumerate(zip(envs, refs)):
        if isinstance(want, ref.ShuffleWrapper):
            others = other_ally_index(want.cfg.n_allies)
            assert_same_bytes(batch.ally_rows[i], others[:, want.ally_perm])
            assert_same_bytes(batch.enemy_perm[i], want.enemy_perm)
            assert (env._rng.bit_generator.state
                    == want._rng.bit_generator.state)


def assert_row_matches(batch, i, want):
    """Row i of the batch presents what reference env (or wrapper)
    ``want`` shows: masks, observations and state, bitwise."""
    assert_same_bytes(batch.available_actions()[i], want.available_actions())
    for field, column in zip(("own", "allies", "enemies"),
                             batch.observations()):
        assert_same_bytes(column[i], stored(np.stack(
            [getattr(o, field) for o in want.observations()])))
    assert_same_bytes(batch.state()[i], stored(want.state()))


@pytest.mark.parametrize("shuffle", [False, True], ids=["plain", "shuffle"])
@pytest.mark.parametrize("cfg", [
    PRESETS["3v3"], PRESETS["5v6"], PRESETS["8v9"],
    BattleConfig(grid_size=6, n_allies=9, n_enemies=4),
], ids=["3v3", "5v6", "8v9", "9-allies-two-columns"])
def test_battle_batch_reset_matches_reference_bitwise(cfg, shuffle):
    # 250 fresh placements per config, reset in place into a batch row
    # (as the runner does) and through a facade's reset (as evaluation
    # does), against the frozen scalar reset
    envs, refs = battles(cfg, shuffle, 4, stream=43)
    single, batch = envs.pop(), BattleBatch(cfg, 3)
    columns = set()
    for seed in range(250):
        i = seed % 3
        envs[i].reset_into(batch, i, seed)
        refs[i].reset(seed)
        battle = getattr(refs[i], "env", refs[i])
        for name in ("ally_x", "ally_y", "ally_hp", "enemy_x", "enemy_y",
                     "enemy_hp"):
            assert_same_bytes(getattr(batch, name)[i], getattr(battle, name))
        assert batch.t[i] == battle.t == 0
        assert_row_matches(batch, i, refs[i])
        obs, state = single.reset(seed)
        want_obs, want_state = refs[3].reset(seed)
        assert_same_bytes(state, stored(want_state))
        for got, want in zip(obs, want_obs, strict=True):
            for field in ("own", "allies", "enemies"):
                assert_same_bytes(getattr(got, field),
                                  stored(getattr(want, field)))
        columns.add(frozenset(battle.ally_x.tolist()))
        # the batch rows reset so far, and the single battle's own row
        assert_same_draws(batch, envs[:seed + 1], refs[:seed + 1])
        assert_same_draws(getattr(single, "env", single).batch, [single],
                          refs[3:])
    assert columns == ({frozenset({0, 1})} if cfg.n_allies > cfg.grid_size
                       else {frozenset({0})})


@pytest.mark.parametrize("preset, shuffle", [
    ("3v3", True), ("5v6", False), ("8v9", True),
], ids=["3v3-shuffle", "5v6", "8v9-shuffle"])
def test_battle_batch_matches_scalar_env_bitwise(preset, shuffle):
    rng = np.random.default_rng(41)
    seen = dict.fromkeys(["win", "reweighted_win", "loss", "time_limit",
                          "ally_death", "kill", "blocked_move", "chain_move",
                          "battle_steps"], 0)
    # the preset as it is; with reward weights under which the order of
    # the three reward terms shows in the float bits; with an episode limit
    # short enough that battles also end on it; with an attack range past
    # every distance on the grid, so no distance sentinel can stand in for
    # a dead unit; with a max_health of 9, whose health fractions h / 9 the
    # view tables and the reference must round alike
    cfg = PRESETS[preset]
    configs = (cfg, dataclasses.replace(cfg, kill_bonus=0.7),
               dataclasses.replace(cfg, episode_limit=12),
               dataclasses.replace(cfg, attack_range=2 * cfg.grid_size),
               dataclasses.replace(cfg, max_health=9))
    for cfg, win_key in zip(configs, ("win", "reweighted_win", "win", "win",
                                      "win"), strict=True):
        envs, refs = battles(cfg, shuffle, 4, stream=41)
        batch = BattleBatch(cfg, 4)

        def reset(i):
            seed = int(rng.integers(2 ** 31))
            envs[i].reset_into(batch, i, seed)
            refs[i].reset(seed)

        for i in range(4):
            reset(i)
        for _ in range(200):
            for i, want in enumerate(refs):
                assert_row_matches(batch, i, want)
            avail = batch.available_actions()
            # a dead agent may always noop and a living one may always
            # stop, so every agent has an action
            assert avail.any(axis=-1).all()
            actions = np.stack([attack_minded_actions(a, rng) for a in avail])
            rewards, terminated, win = batch.step(actions)
            assert rewards.dtype == np.float64
            for i, want in enumerate(refs):
                battle = getattr(want, "env", want)
                ally_hp, enemy_hp = battle.ally_hp, battle.enemy_hp
                xy_before = np.stack([battle.ally_x, battle.ally_y])
                _, _, reward, done, info = want.step(actions[i])
                assert np.float64(reward).tobytes() == rewards[i].tobytes()
                assert done == terminated[i] and info["win"] == win[i]
                xy_after = np.stack([battle.ally_x, battle.ally_y])
                moved = np.any(xy_after != xy_before, axis=0)
                moves = (actions[i] >= ACTION_NORTH) & (
                    actions[i] < N_MOVE_ACTIONS)
                seen["blocked_move"] += int((moves & ~moved).sum())
                # ally a entered the cell that a lower-index ally b left
                entered = (xy_after[:, :, None] == xy_before[:, None, :]).all(0)
                seen["chain_move"] += int(np.tril(
                    entered & moved[:, None] & moved[None, :], -1).sum())
                seen["ally_death"] += int(((ally_hp > 0)
                                           & (battle.ally_hp == 0)).sum())
                seen["kill"] += int(((enemy_hp > 0)
                                     & (battle.enemy_hp == 0)).sum())
                seen["battle_steps"] += 1
                if done:
                    seen[win_key if info["win"] else "time_limit"
                         if battle.t == cfg.episode_limit else "loss"] += 1
                    reset(i)
        assert_same_draws(batch, envs, refs)
    assert min(seen.values()) > 0, seen
    assert seen["battle_steps"] >= 2000


def test_battle_batch_step_names_the_offending_battle():
    # the batch checks no actions (MicroBattleEnv.step does, where they
    # enter), only that every row holds a running battle
    cfg = PRESETS["3v3"]
    batch = BattleBatch(cfg, 3)
    stop = np.full((3, cfg.n_allies), ACTION_STOP)
    batch.reset(0, 0)
    batch.reset(2, 2)
    with pytest.raises(RuntimeError, match="finished episode in battle 1"):
        batch.step(stop)
    # a rejected step changes nothing
    assert batch.t.tolist() == [0, 0, 0]
    batch.reset(1, 1)
    rewards, terminated, _ = batch.step(stop)
    assert batch.t.tolist() == [1, 1, 1] and not terminated.any()


# -- view tables -------------------------------------------------------

TABLE_CONFIGS = [PRESETS["3v3"], PRESETS["5v6"], PRESETS["8v9"],
                 BattleConfig(grid_size=6, max_health=9)]


@pytest.mark.parametrize("cfg", TABLE_CONFIGS,
                         ids=["3v3", "5v6", "8v9", "grid6-health9"])
def test_view_tables_hold_every_unit_exactly(cfg):
    # every (dx, dy, h) entry against the direct arithmetic: each value in
    # float64, rounded once to float32; the attack entries against the
    # Chebyshev range and the move entries against the grid bounds
    g, top = cfg.grid_size, cfg.max_health
    features, own, attacks, moves = view_tables(cfg)
    rows = (2 * g - 1) ** 2 * (top + 1)
    want_features = np.zeros((rows, ENTITY_FEATURES))
    want_attacks = np.zeros(rows, dtype=bool)
    want_moves = np.zeros((rows, N_MOVE_ACTIONS), dtype=bool)
    hits = np.zeros(rows, dtype=int)
    for dx in range(1 - g, g):
        for dy in range(1 - g, g):
            for h in range(top + 1):
                # counted from the end when negative, as numpy does
                row = ((dx * (2 * g - 1) + dy) * (top + 1) + h) % rows
                hits[row] += 1
                want_moves[row, ACTION_NOOP] = h == 0
                if h == 0:
                    continue
                want_features[row] = dx / (g - 1), dy / (g - 1), h / top, 1.0
                want_attacks[row] = max(abs(dx), abs(dy)) <= cfg.attack_range
                # read as a unit in cell (dx, dy): it may stop, and move
                # toward any wall that it is not on
                want_moves[row, ACTION_STOP] = True
                want_moves[row, ACTION_NORTH] = dy < g - 1
                want_moves[row, ACTION_SOUTH] = dy > 0
                want_moves[row, ACTION_EAST] = dx < g - 1
                want_moves[row, ACTION_WEST] = dx > 0
    assert (hits == 1).all()
    assert_same_bytes(features, want_features.astype(np.float32))
    assert_same_bytes(own, want_features[:, :OWN_FEATURES].astype(np.float32))
    assert_same_bytes(attacks, want_attacks)
    assert_same_bytes(moves, want_moves)


def test_view_tables_are_built_once_per_config_and_read_only():
    cfg = PRESETS["3v3"]
    batches = [BattleBatch(cfg, 8), BattleBatch(dataclasses.replace(cfg), 1),
               MicroBattleEnv(cfg).batch]
    for name, table in zip(("_features", "_own", "_attack", "_moves"),
                           view_tables(cfg), strict=True):
        assert all(getattr(b, name) is table for b in batches)
        assert not table.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 0
    assert BattleBatch(PRESETS["5v6"], 1)._features is not batches[0]._features
