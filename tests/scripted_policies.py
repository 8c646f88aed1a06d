"""Scripted ally policies and a per-battle evaluator, kept as test oracles.

``focus_fire_policy`` and ``always_lose_policy`` pin down how hard the
battle is (focus fire sweeps the 3v3 evaluation seeds, standing still
never wins); ``evaluate`` plays any ``policy(env, avail)`` one battle at a
time and is the reference that ``permnet.learners.evaluate_net`` is
compared against.  Nothing in ``src/`` imports this module.
"""

from __future__ import annotations

import numpy as np

from permnet.env import (
    _ENEMY_MOVE_PREFERENCE,
    _MOVE_DELTAS,
    ACTION_NOOP,
    ACTION_STOP,
    N_MOVE_ACTIONS,
    UNIT_FIELDS,
    MicroBattleEnv,
)
from permnet.learners import EVAL_SEED_BASE


def chebyshev(x0: int, y0: int, x1: int, y1: int) -> int:
    return max(abs(x0 - x1), abs(y0 - y1))


def _assign_focus_attacks(env: MicroBattleEnv, avail: np.ndarray) -> dict[int, int]:
    """Team target assignment without overkill.

    First pass secures kills: enemies in ascending (health, index) order
    each get exactly ceil(health / damage) shooters when that many cover
    them.  Remaining shooters concentrate on the lowest-health enemy they
    can reach.  Returns {agent_index: enemy_index}.
    """
    cfg = env.cfg
    ally_hp, enemy_hp = env.batch.ally_hp[0], env.batch.enemy_hp[0]
    live_e = [e for e in range(cfg.n_enemies) if enemy_hp[e] > 0]
    shooters: dict[int, set[int]] = {}
    for i in range(cfg.n_allies):
        if ally_hp[i] > 0:
            cov = {e for e in live_e if avail[i, N_MOVE_ACTIONS + e]}
            if cov:
                shooters[i] = cov
    assigned: dict[int, int] = {}
    hp_left = {e: int(enemy_hp[e]) for e in live_e}
    for e in sorted(live_e, key=lambda e: (hp_left[e], e)):
        need = -(-hp_left[e] // cfg.attack_damage)
        cands = [i for i in shooters if e in shooters[i] and i not in assigned]
        if len(cands) >= need:
            for i in cands[:need]:
                assigned[i] = e
            hp_left[e] = 0
    for i in shooters:
        if i not in assigned:
            cov = [e for e in shooters[i] if hp_left[e] > 0]
            if cov:
                assigned[i] = min(cov, key=lambda e: (hp_left[e], e))
            else:
                assigned[i] = min(shooters[i],
                                  key=lambda e: (int(enemy_hp[e]), e))
    return assigned


def focus_fire_policy(env: MicroBattleEnv, avail: np.ndarray) -> np.ndarray:
    """Hand-built ally reference policy: hold the line and focus fire.

    Agents with a shot take their team assignment (no overkill).  Once the
    fight has started, agents without a shot advance toward the team's
    focus target, but never onto a cell threatened by two or more enemies;
    an enemy does not count as a threat when a healthy lower-index ally
    already stands in its range, because enemies always shoot the
    lowest-index ally they can reach.  Before contact everyone holds
    position and lets the scattered enemies arrive piecemeal.

    Deterministic; exists as a measuring stick for learned policies and to
    pin down the environment's difficulty in tests.
    """
    cfg = env.cfg
    ally_x, ally_y, ally_hp, enemy_x, enemy_y, enemy_hp = (
        getattr(env.batch, name)[0] for name in UNIT_FIELDS)
    attack = _assign_focus_attacks(env, avail)
    live_e = [e for e in range(cfg.n_enemies) if enemy_hp[e] > 0]
    live_a = [i for i in range(cfg.n_allies) if ally_hp[i] > 0]
    epos = {e: (int(enemy_x[e]), int(enemy_y[e])) for e in live_e}
    apos = {i: (int(ally_x[i]), int(ally_y[i])) for i in live_a}
    # worst-case damage each ally takes this tick if nobody moves
    threat = {i: sum(cfg.attack_damage for e in live_e
                     if chebyshev(*apos[i], *epos[e]) <= cfg.attack_range)
              for i in live_a}
    actions = []
    for i in range(cfg.n_allies):
        if ally_hp[i] <= 0:
            actions.append(ACTION_NOOP)
            continue
        if i in attack:
            actions.append(N_MOVE_ACTIONS + attack[i])
            continue
        if attack and live_e:
            x, y = apos[i]
            counts: dict[int, int] = {}
            for tgt in attack.values():
                counts[tgt] = counts.get(tgt, 0) + 1
            focus = min(counts, key=lambda e: (-counts[e], e))
            fx, fy = epos[focus]
            cur = chebyshev(x, y, fx, fy)
            best, best_score = ACTION_STOP, cur + 1
            for a in _ENEMY_MOVE_PREFERENCE:
                if not avail[i, a]:
                    continue
                dx, dy = _MOVE_DELTAS[a]
                nx, ny = x + dx, y + dy
                exposure = 0
                for e in live_e:
                    if chebyshev(nx, ny, *epos[e]) > cfg.attack_range:
                        continue
                    shielded = any(
                        j < i
                        and chebyshev(*apos[j], *epos[e]) <= cfg.attack_range
                        and ally_hp[j] > threat[j]
                        for j in live_a)
                    if not shielded:
                        exposure += 1
                if exposure >= 2:
                    continue
                score = chebyshev(nx, ny, fx, fy)
                if score < best_score and score <= cur:
                    best_score, best = score, a
            actions.append(best)
            continue
        actions.append(ACTION_STOP)
    return np.array(actions, dtype=np.int64)


def always_lose_policy(env: MicroBattleEnv, avail: np.ndarray) -> np.ndarray:
    """Stands still forever; never attacks, never wins."""
    actions = np.full(env.cfg.n_allies, ACTION_STOP, dtype=np.int64)
    actions[env.batch.ally_hp[0] <= 0] = ACTION_NOOP
    return actions


def evaluate(policy, env_factory, episodes: int = 32,
             seed_base: int = EVAL_SEED_BASE) -> float:
    """Win fraction of ``policy`` over fixed-seed greedy episodes.

    ``policy`` is called as policy(env, avail) and must return one action
    per ally; scripted policies plug in directly.
    """
    wins = 0
    for i in range(episodes):
        env = env_factory(1000 + i)
        env.reset(seed_base + i)
        terminated = False
        won = False
        while not terminated:
            actions = policy(env, env.available_actions())
            _, _, _, terminated, info = env.step(actions)
            won = info["win"]
        wins += int(won)
    return wins / episodes
