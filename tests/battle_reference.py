"""Frozen copy of the scalar battle rules, kept as a test reference.

``MicroBattleEnv``, ``scripted_enemy_policy`` and ``ShuffleWrapper`` as
they stood before ``permnet.env.BattleBatch`` became the one engine of the
battle rules: one battle at a time, in per-agent and per-enemy Python
loops.  The tests compare the batch (and the single-battle facades built
on it) with this copy bit for bit; nothing in ``src/`` imports it.
"""

from __future__ import annotations

import numpy as np

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
    BattleConfig,
    ObservationSet,
    other_ally_index,
)

from scripted_policies import chebyshev

# x-axis moves before y-axis moves, negative direction first within an axis;
# this is the scripted-enemy move preference order
_MOVE_DELTAS = {
    ACTION_NORTH: (0, 1), ACTION_SOUTH: (0, -1),
    ACTION_EAST: (1, 0), ACTION_WEST: (-1, 0),
}
_ENEMY_MOVE_PREFERENCE = (ACTION_WEST, ACTION_EAST, ACTION_SOUTH, ACTION_NORTH)


class MicroBattleEnv:
    """Single battle instance.  reset() then step() until terminal."""

    def __init__(self, cfg: BattleConfig):
        self.cfg = cfg
        self.t = 0
        n, m, g = cfg.n_allies, cfg.n_enemies, cfg.grid_size
        self.ally_x = np.zeros(n, dtype=np.int64)
        self.ally_y = np.zeros(n, dtype=np.int64)
        self.ally_hp = np.zeros(n, dtype=np.int64)
        self.enemy_x = np.zeros(m, dtype=np.int64)
        self.enemy_y = np.zeros(m, dtype=np.int64)
        self.enemy_hp = np.zeros(m, dtype=np.int64)
        self._last_avail: np.ndarray | None = None
        self._done = True
        self._norm = float(g - 1)
        self._others = other_ally_index(n)

    # -- lifecycle -----------------------------------------------------
    def reset(self, seed: int):
        """Place allies as a contiguous line hugging the left wall and
        enemies at scattered cells in the right four columns, both
        deterministic from the seed; everyone at full health.

        The asymmetry is deliberate: the ally line forms a mutually
        supporting front, while scattered enemies arrive in staggered
        waves that a coordinated team can defeat piecemeal.
        """
        cfg = self.cfg
        rng = np.random.default_rng(seed)
        g = cfg.grid_size
        n = cfg.n_allies
        if n <= g:
            r0 = int(rng.integers(0, g - n + 1))
            ally_cells = [(0, r0 + j) for j in range(n)]
        else:
            rows = (n + 1) // 2
            r0 = int(rng.integers(0, g - rows + 1))
            ally_cells = [(x, r0 + j) for j in range(rows) for x in (0, 1)][:n]
        right = [(x, y) for x in range(g - 4, g) for y in range(g)]
        picks = rng.choice(len(right), size=cfg.n_enemies, replace=False)
        for i, (x, y) in enumerate(ally_cells):
            self.ally_x[i], self.ally_y[i] = x, y
        for i, c in enumerate(picks):
            self.enemy_x[i], self.enemy_y[i] = right[c]
        self.ally_hp[:] = cfg.max_health
        self.enemy_hp[:] = cfg.max_health
        self.t = 0
        self._done = False
        self._last_avail = None
        return self.observations(), self.state()

    # -- views ---------------------------------------------------------
    def ally_alive(self) -> np.ndarray:
        return self.ally_hp > 0

    def enemy_alive(self) -> np.ndarray:
        return self.enemy_hp > 0

    def state(self) -> np.ndarray:
        """Global state: one (x, y, health, alive) block per entity,
        allies first, normalized like observations; dead rows all-zero."""
        cfg = self.cfg
        rows = []
        for x, y, hp in ((self.ally_x, self.ally_y, self.ally_hp),
                         (self.enemy_x, self.enemy_y, self.enemy_hp)):
            block = np.zeros((len(hp), ENTITY_FEATURES))
            live = hp > 0
            block[live, 0] = x[live] / self._norm
            block[live, 1] = y[live] / self._norm
            block[live, 2] = hp[live] / cfg.max_health
            block[live, 3] = 1.0
            rows.append(block)
        return np.concatenate(rows).reshape(-1)

    def observations(self) -> list[ObservationSet]:
        """Per-agent views into (n, ...) arrays built for all allies at once."""
        cfg = self.cfg
        live = self.ally_hp > 0
        own = np.zeros((cfg.n_allies, OWN_FEATURES))
        own[live, 0] = self.ally_x[live] / self._norm
        own[live, 1] = self.ally_y[live] / self._norm
        own[live, 2] = self.ally_hp[live] / cfg.max_health
        every_ally = self._relative_rows(live, self.ally_x, self.ally_y,
                                         self.ally_hp)
        allies = every_ally[np.arange(cfg.n_allies)[:, None], self._others]
        enemies = self._relative_rows(live, self.enemy_x, self.enemy_y,
                                      self.enemy_hp)
        return [ObservationSet(own[i], allies[i], enemies[i])
                for i in range(cfg.n_allies)]

    def _relative_rows(self, observer_live, xs, ys, hps) -> np.ndarray:
        """(n_allies, len(hps), ENTITY_FEATURES) rows of every entity as
        seen by every ally; all-zero for a dead entity or observer."""
        seen = observer_live[:, None] & (hps > 0)[None, :]
        rows = np.zeros(seen.shape + (ENTITY_FEATURES,))
        rows[..., 0] = (xs[None, :] - self.ally_x[:, None]) / self._norm
        rows[..., 1] = (ys[None, :] - self.ally_y[:, None]) / self._norm
        rows[..., 2] = hps / self.cfg.max_health
        rows[..., 3] = 1.0
        rows[~seen] = 0.0
        return rows

    def available_actions(self) -> np.ndarray:
        """(n_allies, n_actions) boolean mask.  Dead agents may only noop;
        living agents may stop, move to any in-bounds cell, and attack any
        living enemy within attack range."""
        cfg = self.cfg
        mask = np.zeros((cfg.n_allies, cfg.n_actions), dtype=bool)
        g = cfg.grid_size
        for i in range(cfg.n_allies):
            if self.ally_hp[i] <= 0:
                mask[i, ACTION_NOOP] = True
                continue
            mask[i, ACTION_STOP] = True
            x, y = int(self.ally_x[i]), int(self.ally_y[i])
            mask[i, ACTION_NORTH] = y + 1 < g
            mask[i, ACTION_SOUTH] = y - 1 >= 0
            mask[i, ACTION_EAST] = x + 1 < g
            mask[i, ACTION_WEST] = x - 1 >= 0
            for e in range(cfg.n_enemies):
                mask[i, N_MOVE_ACTIONS + e] = (
                    self.enemy_hp[e] > 0
                    and chebyshev(x, y, int(self.enemy_x[e]),
                                  int(self.enemy_y[e])) <= cfg.attack_range)
        self._last_avail = mask
        return mask

    def _occupied(self) -> set[tuple[int, int]]:
        cells = set()
        for j in range(self.cfg.n_allies):
            if self.ally_hp[j] > 0:
                cells.add((int(self.ally_x[j]), int(self.ally_y[j])))
        for j in range(self.cfg.n_enemies):
            if self.enemy_hp[j] > 0:
                cells.add((int(self.enemy_x[j]), int(self.enemy_y[j])))
        return cells

    # -- dynamics ------------------------------------------------------
    def step(self, actions):
        """Resolve one tick: ally moves (index order, collision keeps the
        mover in place), simultaneous ally attacks, scripted enemy phase,
        then terminal checks.  Reward counts only ally-dealt damage, enemy
        kills, and the win bonus."""
        cfg = self.cfg
        if self._done:
            raise RuntimeError("step() on a finished episode; call reset()")
        actions = np.asarray(actions, dtype=np.int64)
        if actions.shape != (cfg.n_allies,):
            raise ValueError(f"expected {cfg.n_allies} actions, got {actions.shape}")
        avail = self._last_avail if self._last_avail is not None \
            else self.available_actions()
        for i, a in enumerate(actions):
            if not (0 <= a < cfg.n_actions) or not avail[i, a]:
                raise ValueError(f"action {int(a)} not available for agent {i}")

        # phase 1: ally moves, agent-index order
        occupied = self._occupied()
        for i, a in enumerate(actions):
            if a in _MOVE_DELTAS and self.ally_hp[i] > 0:
                dx, dy = _MOVE_DELTAS[int(a)]
                src = (int(self.ally_x[i]), int(self.ally_y[i]))
                dst = (src[0] + dx, src[1] + dy)
                if dst not in occupied:
                    occupied.discard(src)
                    occupied.add(dst)
                    self.ally_x[i], self.ally_y[i] = dst

        # phase 2: simultaneous ally attacks
        incoming = np.zeros(cfg.n_enemies, dtype=np.int64)
        for i, a in enumerate(actions):
            if a >= N_MOVE_ACTIONS and self.ally_hp[i] > 0:
                incoming[a - N_MOVE_ACTIONS] += cfg.attack_damage
        before = self.enemy_hp.copy()
        self.enemy_hp = np.maximum(0, self.enemy_hp - incoming)
        damage_dealt = int((before - self.enemy_hp).sum())
        kills = int(((before > 0) & (self.enemy_hp == 0)).sum())

        reward = cfg.damage_scale * damage_dealt + cfg.kill_bonus * kills
        win = not self.enemy_alive().any()

        # phase 3: scripted enemies (skipped once they are all dead)
        if not win:
            self._enemy_phase()

        self.t += 1
        terminated = win or not self.ally_alive().any() \
            or self.t >= cfg.episode_limit
        if win:
            reward += cfg.win_bonus
        self._done = terminated
        self._last_avail = None
        info = {"win": win}
        return self.observations(), self.state(), float(reward), terminated, info

    def _enemy_phase(self):
        intents = scripted_enemy_policy(self)
        # moves first, enemy-index order, same collision rule as allies
        occupied = self._occupied()
        for e, intent in intents:
            if intent[0] == "move":
                dx, dy = intent[1], intent[2]
                src = (int(self.enemy_x[e]), int(self.enemy_y[e]))
                dst = (src[0] + dx, src[1] + dy)
                if dst not in occupied:
                    occupied.discard(src)
                    occupied.add(dst)
                    self.enemy_x[e], self.enemy_y[e] = dst
        # then simultaneous attacks
        incoming = np.zeros(self.cfg.n_allies, dtype=np.int64)
        for e, intent in intents:
            if intent[0] == "attack":
                incoming[intent[1]] += self.cfg.attack_damage
        self.ally_hp = np.maximum(0, self.ally_hp - incoming)


def scripted_enemy_policy(env: MicroBattleEnv):
    """Deterministic enemy rule.

    Each living enemy attacks the lowest-index living ally in attack range.
    Otherwise it targets the nearest living ally (lowest index on distance
    ties) and takes the move minimizing the resulting Chebyshev distance,
    skipping occupied or out-of-bounds cells; move ties prefer the x-axis
    and then the negative direction, and staying put is the last resort.

    Returns a list of (enemy_index, intent) with intent one of
    ("attack", ally_index), ("move", dx, dy), ("stop",).
    """
    cfg = env.cfg
    intents = []
    occupied = env._occupied()
    live_allies = [i for i in range(cfg.n_allies) if env.ally_hp[i] > 0]
    for e in range(cfg.n_enemies):
        if env.enemy_hp[e] <= 0 or not live_allies:
            continue
        ex, ey = int(env.enemy_x[e]), int(env.enemy_y[e])
        dists = [(chebyshev(ex, ey, int(env.ally_x[i]), int(env.ally_y[i])), i)
                 for i in live_allies]
        in_range = [i for d, i in dists if d <= cfg.attack_range]
        if in_range:
            intents.append((e, ("attack", min(in_range))))
            continue
        best_d, target = min(dists)
        tx, ty = int(env.ally_x[target]), int(env.ally_y[target])
        # pursue: take the unblocked move minimizing the resulting distance,
        # accepting equal-distance moves (a diagonal offset cannot be
        # strictly reduced by a single axis step); stay as last resort
        best = ("stop",)
        best_score = best_d + 1
        for a in _ENEMY_MOVE_PREFERENCE:
            dx, dy = _MOVE_DELTAS[a]
            nx, ny = ex + dx, ey + dy
            if not (0 <= nx < cfg.grid_size and 0 <= ny < cfg.grid_size):
                continue
            if (nx, ny) in occupied:
                continue
            score = chebyshev(nx, ny, tx, ty)
            if score < best_score and score <= best_d:
                best_score = score
                best = ("move", dx, dy)
        intents.append((e, best))
    return intents


class ShuffleWrapper:
    """Presents the env under fixed per-episode group permutations.

    Each reset draws an ally-row permutation and an enemy permutation from
    the wrapper's own stream and applies them to every observation's group
    rows and to the attack-action indexing and masks for the whole episode.
    The underlying episode is semantically identical; the wrapper only
    relabels what the agents see.  The drawn permutations are exposed as
    ``ally_perm`` / ``enemy_perm`` (presented row r is true row perm[r]).
    """

    def __init__(self, env: MicroBattleEnv, rng: np.random.Generator):
        self.env = env
        self.cfg = env.cfg
        self._rng = rng
        self.ally_perm = np.arange(max(env.cfg.n_allies - 1, 0))
        self.enemy_perm = np.arange(env.cfg.n_enemies)

    def reset(self, seed: int):
        self.ally_perm = self._rng.permutation(self.cfg.n_allies - 1)
        self.enemy_perm = self._rng.permutation(self.cfg.n_enemies)
        obs, state = self.env.reset(seed)
        return [self._wrap_obs(o) for o in obs], state

    def _wrap_obs(self, obs: ObservationSet) -> ObservationSet:
        return ObservationSet(obs.own, obs.allies[self.ally_perm],
                              obs.enemies[self.enemy_perm])

    def observations(self) -> list[ObservationSet]:
        return [self._wrap_obs(o) for o in self.env.observations()]

    def available_actions(self) -> np.ndarray:
        mask = self.env.available_actions()
        out = mask.copy()
        out[:, N_MOVE_ACTIONS:] = mask[:, N_MOVE_ACTIONS + self.enemy_perm]
        return out

    def state(self) -> np.ndarray:
        return self.env.state()

    def step(self, actions):
        actions = np.asarray(actions, dtype=np.int64).copy()
        attack = actions >= N_MOVE_ACTIONS
        actions[attack] = N_MOVE_ACTIONS + \
            self.enemy_perm[actions[attack] - N_MOVE_ACTIONS]
        obs, state, reward, terminated, info = self.env.step(actions)
        return [self._wrap_obs(o) for o in obs], state, reward, terminated, info

