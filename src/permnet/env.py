"""Deterministic grid-battle environment: learning allies vs scripted enemies.

A bounded 2D grid holds two teams of homogeneous units.  Allies act through
the learned policy; enemies follow a fixed handcrafted rule.  Observations
factor into own-features plus an ally entity group and an enemy entity
group, and the action space splits into six order-free actions (noop, stop,
four moves) followed by one attack action per enemy slot, so agent networks
can treat entity groups as sets and attack actions as per-entity outputs.

All dynamics are integer-state and rule-based: a (seed, action log) pair
replays a trajectory bitwise.  ``BattleBatch`` is the one implementation of
the rules, for R battles at once; ``MicroBattleEnv`` is a batch of one for
single-battle use (evaluation and the tests) and ``ShuffleWrapper`` only
draws each episode's permutations, which the batch row then presents.
Views are takes from per-config tables (``view_tables``), which hold units
in the grid with health in 0..max_health: (2g - 1)²(max_health + 1) rows.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

N_MOVE_ACTIONS = 6
ACTION_NOOP, ACTION_STOP = 0, 1
ACTION_NORTH, ACTION_SOUTH, ACTION_EAST, ACTION_WEST = 2, 3, 4, 5
ENTITY_FEATURES = 4   # rel-x, rel-y, health fraction, alive flag
OWN_FEATURES = 3      # normalized x, y, health fraction
# a battle's units, each as (n,) or (m,) ints in true order
UNIT_FIELDS = ("ally_x", "ally_y", "ally_hp", "enemy_x", "enemy_y", "enemy_hp")

# x-axis moves before y-axis moves, negative direction first within an axis;
# this is the scripted-enemy move preference order
_MOVE_DELTAS = {
    ACTION_NORTH: (0, 1), ACTION_SOUTH: (0, -1),
    ACTION_EAST: (1, 0), ACTION_WEST: (-1, 0),
}
_ENEMY_MOVE_PREFERENCE = (ACTION_WEST, ACTION_EAST, ACTION_SOUTH, ACTION_NORTH)
_PURSUIT_DX = np.array([_MOVE_DELTAS[a][0] for a in _ENEMY_MOVE_PREFERENCE])
_PURSUIT_DY = np.array([_MOVE_DELTAS[a][1] for a in _ENEMY_MOVE_PREFERENCE])


@dataclass(frozen=True)
class BattleConfig:
    grid_size: int = 8
    n_allies: int = 3
    n_enemies: int = 3
    max_health: int = 6
    attack_range: int = 1     # Chebyshev metric
    attack_damage: int = 2
    episode_limit: int = 60
    damage_scale: float = 0.1
    kill_bonus: float = 1.0
    win_bonus: float = 10.0

    def __post_init__(self):
        for name in ("grid_size", "n_allies", "n_enemies", "max_health",
                     "attack_range", "attack_damage", "episode_limit"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        # allies line up along the left wall (two columns when the line
        # would not fit); enemies scatter over the right four columns
        if self.grid_size < 6:
            raise ValueError("grid_size must be >= 6 so spawn regions are disjoint")
        if self.n_allies > 2 * self.grid_size:
            raise ValueError("more allies than spawn cells")
        if self.n_enemies > 4 * self.grid_size:
            raise ValueError("more enemies than spawn cells")

    @property
    def n_actions(self) -> int:
        return N_MOVE_ACTIONS + self.n_enemies

    @property
    def state_dim(self) -> int:
        return ENTITY_FEATURES * (self.n_allies + self.n_enemies)


PRESETS = {
    "3v3": BattleConfig(),
    "5v6": BattleConfig(grid_size=10, n_allies=5, n_enemies=6, episode_limit=80),
    "8v9": BattleConfig(grid_size=12, n_allies=8, n_enemies=9, episode_limit=100),
}


@dataclass
class ObservationSet:
    """One agent's factored observation: own vector plus two entity groups.

    Group rows are (rel-x, rel-y, health/max, alive); dead entities (and
    every row of a dead observer) are all-zero.  Row order is canonical
    entity-index order unless a shuffle wrapper is active.
    """

    own: np.ndarray       # (OWN_FEATURES,)
    allies: np.ndarray    # (n_allies - 1, ENTITY_FEATURES)
    enemies: np.ndarray   # (n_enemies, ENTITY_FEATURES)


def other_ally_index(n: int) -> np.ndarray:
    """(n, n - 1) ally indices: row p lists every ally but p in index
    order, which is the row order of ally p's ally group."""
    j = np.arange(n - 1)
    return j[None, :] + (j[None, :] >= np.arange(n)[:, None])


@functools.cache
def view_tables(cfg: BattleConfig) -> tuple[np.ndarray, ...]:
    """``BattleBatch``'s float32 features, own features, attack targets and
    move masks for ``cfg``, in its row order; built once, read-only."""
    g, top = cfg.grid_size, cfg.max_health
    # every (dx, dy, h) from (0, 0, 0) on, the negative rows at the end
    cube = np.indices((2 * g - 1, 2 * g - 1, top + 1)).reshape(3, -1)
    x, y, hp = np.roll(cube - np.array([[g - 1], [g - 1], [0]]),
                       -2 * g * (g - 1) * (top + 1), axis=1)
    live = hp > 0
    # each value computed in float64 and rounded once as stored
    features = np.stack([x / (g - 1), y / (g - 1), hp / top, live], axis=1)
    features = np.where(live[:, None], features, 0.0).astype(np.float32)
    tables = (features, np.ascontiguousarray(features[:, :OWN_FEATURES]),
              live & (np.maximum(np.abs(x), np.abs(y)) <= cfg.attack_range),
              np.stack([~live, live, live & (y < g - 1), live & (y > 0),
                        live & (x < g - 1), live & (x > 0)], axis=1))
    for table in tables:
        table.flags.writeable = False
    return tables


class BattleBatch:
    """R battles of one config, stepped together with array ops.

    This is the one implementation of the battle rules.  Row r holds
    battle r as (R, n) and (R, m) int arrays (``UNIT_FIELDS``) plus its
    presentation: ``ally_rows[r, p, k]``, the true ally observer p sees in
    slot k, and ``enemy_perm[r, j]``, the true enemy presented as j (a
    ``ShuffleWrapper``'s draws, or the identity).  ``available_actions``,
    ``observations`` (both at once: ``views``) and ``step`` speak that
    presented indexing; positions, health and ``state`` keep the true
    entity order.

    ``reset(i, seed, ...)`` starts a fresh battle in row i.  Rows start
    finished, and every row must hold a running battle when ``step`` is
    called, so a caller resets a row before its first step and after it
    terminates.  ``MicroBattleEnv`` is a batch of one.

    Views are takes from ``view_tables(cfg)``, (2g - 1)²(H + 1) rows (1,575
    at 3v3, 3,703 at 8v9; g = grid_size, H = max_health), so units stay in
    the grid with health in 0..H: row (dx (2g - 1) + dy)(H + 1) + h, read
    from the end when negative, is health h at (dx, dy) from the observer.
    """

    def __init__(self, cfg: BattleConfig, size: int):
        self.cfg = cfg
        n, m, g = cfg.n_allies, cfg.n_enemies, cfg.grid_size
        for name in UNIT_FIELDS:
            setattr(self, name, np.zeros(
                (size, m if name.startswith("enemy") else n), dtype=np.int64))
        self.t = np.zeros(size, dtype=np.int64)
        self.enemy_perm = np.zeros((size, m), dtype=np.int64)
        self.ally_rows = np.zeros((size, n, n - 1), dtype=np.int64)
        self._done = np.ones(size, dtype=bool)
        rows = np.arange(size)[:, None]
        # flat indices: row r's entry j of an (R, k) array is r * k + j, and
        # its pair (e, a) of (R, m, n) enemy-ally pairs pair_base[r, e] + a
        self._ally_base, self._enemy_base = rows * n, rows * m
        self._pair_base = (self._enemy_base + np.arange(m)) * n
        # occupancy grids: battle r's cell (x, y) is flat cell
        # origin[r] + x * w + y of a w x w grid, w = g + 2, whose border
        # cells (x or y in {-1, g}) are walls, never free
        w = self._width = g + 2
        self._origin = rows * w * w + w + 1
        self._features, self._own, self._attack, self._moves = view_tables(cfg)
        self._cols, self._stride = 2 * g - 1, cfg.max_health + 1
        self._others = other_ally_index(n)
        # per true action index: the move's cell offset (zero for
        # non-moves) and the presented enemy slot an attack aims at
        self._offset = np.zeros(cfg.n_actions, dtype=np.int64)
        for a, (dx, dy) in _MOVE_DELTAS.items():
            self._offset[a] = dx * w + dy
        self._slot = np.maximum(np.arange(cfg.n_actions) - N_MOVE_ACTIONS, 0)
        self._pursuit_offset = _PURSUIT_DX * w + _PURSUIT_DY
        # the ally line's cells relative to its first row: one column on
        # the left wall, or two (filled row by row) when one would not fit
        if n <= g:
            self._line_x = np.zeros(n, dtype=np.int64)
            self._line_y = np.arange(n)
        else:
            self._line_x = np.arange(n) % 2
            self._line_y = np.arange(n) // 2
        self._line_starts = g - int(self._line_y[-1])

    # -- lifecycle -----------------------------------------------------
    def reset(self, i: int, seed: int, ally_perm=None, enemy_perm=None):
        """Start a fresh battle in row i, placed from ``default_rng(seed)``:
        the ally line's first row (one ``integers`` draw), then distinct
        enemy cells in the right four columns (one ``choice`` without
        replacement); everyone at full health.  The row is presented under
        ``ally_perm`` / ``enemy_perm`` (presented row k is true row
        perm[k]), the identity by default.

        The asymmetry is deliberate: the ally line forms a mutually
        supporting front, while scattered enemies arrive in staggered
        waves that a coordinated team can defeat piecemeal.
        """
        cfg = self.cfg
        g = cfg.grid_size
        rng = np.random.default_rng(seed)
        self.ally_x[i] = self._line_x
        self.ally_y[i] = rng.integers(0, self._line_starts) + self._line_y
        # right-column cell c is (g - 4 + c // g, c % g)
        cells = rng.choice(4 * g, size=cfg.n_enemies, replace=False)
        self.enemy_x[i] = g - 4 + cells // g
        self.enemy_y[i] = cells % g
        self.ally_hp[i] = self.enemy_hp[i] = cfg.max_health
        self.t[i] = 0
        self._done[i] = False
        self.ally_rows[i] = (self._others if ally_perm is None
                             else self._others[:, ally_perm])
        self.enemy_perm[i] = (np.arange(cfg.n_enemies) if enemy_perm is None
                              else enemy_perm)

    # -- views ---------------------------------------------------------
    def state(self) -> np.ndarray:
        """(R, state_dim) global states: one (x, y, health, alive) block
        per entity, allies first, normalized like observations, dead rows
        all-zero; in true entity order (a wrapper does not permute the
        state).  float32, like the observations."""
        rows = np.concatenate(self._rows(), axis=1)
        return self._features.take(rows, axis=0).reshape(len(rows), -1)

    def views(self) -> tuple[np.ndarray, tuple]:
        """``(available_actions(), observations())`` from one shared pass."""
        sight = self._sight()
        return self._mask(*sight), self._observe(*sight)

    def available_actions(self) -> np.ndarray:
        """(R, n, n_actions) boolean masks, attack columns presented.
        Dead agents may only noop; living agents may stop, move to any
        in-bounds cell, and attack any living enemy within attack range."""
        return self._mask(*self._sight())

    def observations(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """own (R, n, OWN_FEATURES), allies (R, n, n - 1, ENTITY_FEATURES)
        and enemies (R, n, m, ENTITY_FEATURES), group rows presented: an
        entity's position is relative to the observer's.  Rows of a dead
        entity, and every row of a dead observer, are all-zero."""
        return self._observe(*self._sight())

    def _rows(self) -> tuple[np.ndarray, np.ndarray]:
        """The (R, n) allies' and (R, m) enemies' table rows, true order."""
        units = [getattr(self, name) for name in UNIT_FIELDS]
        return tuple((x * self._cols + y) * self._stride + hp
                     for x, y, hp in (units[:3], units[3:]))

    def _sight(self):
        """Own rows (R, n), each observer's presented enemy rows (R, n, m;
        row 0 for a dead one), and keys (zero-health rows) and living flags."""
        own, enemies = self._rows()
        key = (own - self.ally_hp)[:, :, None]
        live = (self.ally_hp > 0)[:, :, None]
        enemies = enemies.take(self._enemy_base + self.enemy_perm)[:, None]
        return own, (enemies - key) * live, key, live

    def _mask(self, own, enemies, key, live) -> np.ndarray:
        return np.concatenate([self._moves.take(own, axis=0),
                               self._attack.take(enemies)], axis=2)

    def _observe(self, own, enemies, key, live):
        allies = own.take(self._ally_base[:, :, None] + self.ally_rows)
        return (self._own.take(own, axis=0),
                self._features.take((allies - key) * live, axis=0),
                self._features.take(enemies, axis=0))

    @functools.cached_property
    def _floor(self) -> np.ndarray:
        """Flat free-cell grids of empty battles: all but the walls.  Built
        on the first ``step``; a batch that only presents views skips it."""
        floor = np.zeros((len(self.t), self._width, self._width), dtype=bool)
        floor[:, 1:-1, 1:-1] = True
        return floor.reshape(-1)

    def _move_in_order(self, free, cells, offset, go):
        """Move unit after unit, in index order, from (R, k) ``cells`` by
        ``offset`` where ``go`` holds and the destination is free at that
        moment; updates the free-cell grid, returns the cells after it."""
        dst = cells + offset
        moved = go.copy()
        for unit in go.any(axis=0).nonzero()[0].tolist():
            moves, to = moved[:, unit], dst[:, unit]
            moves &= free[to]
            free[cells[:, unit][moves]] = True
            free[to[moves]] = False
        return np.where(moved, dst, cells)

    # -- dynamics ------------------------------------------------------
    def step(self, actions):
        """One tick of every battle from (R, n) presented actions: ally
        moves (index order, collision keeps the mover in place),
        simultaneous ally attacks, the scripted enemy phase, then terminal
        checks.  Reward counts only ally-dealt damage, enemy kills and the
        win bonus.

        Actions are not checked (``MicroBattleEnv.step`` checks those from
        outside): each must be available, or be the noop or stop that
        ``learners.greedy_actions`` falls back to, which moves and attacks
        nobody.

        Returns (rewards (R,), terminated (R,), win (R,)).  Every row must
        hold a running battle: ``reset`` a row after it terminates.
        """
        cfg = self.cfg
        if self._done.any():
            raise RuntimeError(
                f"step() on a finished episode in battle "
                f"{np.flatnonzero(self._done)[0]}; reset it first")
        w = self._width
        live, enemy_live = self.ally_hp > 0, self.enemy_hp > 0
        # each team's cells, once, for the grid, the moves and the pursuit
        ally_cells = self._origin + self.ally_x * w + self.ally_y
        enemy_cells = self._origin + self.enemy_x * w + self.enemy_y
        free = self._floor.copy()
        free[ally_cells[live]] = False
        free[enemy_cells[enemy_live]] = False

        # phase 1: ally moves, agent-index order
        offset = self._offset[actions]
        cells = self._move_in_order(free, ally_cells, offset,
                                    live & (offset != 0))
        self.ally_x, self.ally_y = np.divmod(cells - self._origin, w)

        # phase 2: simultaneous ally attacks, attack j on enemy enemy_perm[j]
        base = self._enemy_base
        targets = base + self.enemy_perm.take(base + self._slot[actions])
        attacking = live & (actions >= N_MOVE_ACTIONS)
        hits = np.bincount(targets[attacking], minlength=enemy_live.size)
        before = self.enemy_hp
        self.enemy_hp = np.maximum(
            0, before - cfg.attack_damage * hits.reshape(before.shape))
        damage_dealt = (before - self.enemy_hp).sum(axis=1)
        survivors = self.enemy_hp > 0
        killed = enemy_live & ~survivors
        kills = killed.sum(axis=1)
        reward = cfg.damage_scale * damage_dealt + cfg.kill_bonus * kills
        win = ~survivors.any(axis=1)

        # phase 3: scripted enemies (a won battle has none left to act);
        # the units just killed free their cells
        free[enemy_cells[killed]] = True
        self._enemy_turn(free, enemy_cells, live, survivors)

        self.t += 1
        terminated = win | ~(self.ally_hp > 0).any(axis=1) \
            | (self.t >= cfg.episode_limit)
        reward = np.where(win, reward + cfg.win_bonus, reward)
        self._done = terminated
        return reward, terminated, win

    def _enemy_turn(self, free, cells, ally_live, enemy_live):
        """The scripted enemy rule for every enemy of every battle.

        Each living enemy attacks the lowest-index living ally in attack
        range.  Otherwise it targets the nearest living ally (lowest index
        on distance ties) and takes the move minimizing the resulting
        Chebyshev distance, skipping occupied or out-of-bounds cells; move
        ties prefer the x-axis and then the negative direction, and staying
        put is the last resort.  Intents are judged against one snapshot
        (the free-cell grid as the ally phase left it); then enemies move
        in index order, under the allies' collision rule, and attack
        simultaneously.  ``cells``: the enemies'; masks: who is alive."""
        cfg = self.cfg
        g = cfg.grid_size
        # (R, m, n) offsets and distances from every ally to every enemy
        off_x = self.enemy_x[:, :, None] - self.ally_x[:, None, :]
        off_y = self.enemy_y[:, :, None] - self.ally_y[:, None, :]
        dist = np.maximum(np.abs(off_x), np.abs(off_y))
        pair = enemy_live[:, :, None] & ally_live[:, None, :]
        in_range = pair & (dist <= cfg.attack_range)
        victim = in_range.argmax(axis=2)          # lowest index in range
        attacks = in_range.take(self._pair_base + victim)
        far = np.where(pair, dist, 2 * g)
        # the pair of each enemy and its target, the nearest living ally
        # (lowest index on ties); 2g when the enemy or every ally is dead
        target = self._pair_base + far.argmin(axis=2)
        best_d = far.take(target)
        pursuing = (best_d < 2 * g) & ~attacks
        # pursue: of the free cells one step away (walls are never free),
        # the one closest to the target (first in preference order on
        # ties), if no farther than now (a diagonal offset cannot be
        # strictly reduced by a single axis step); (4, R, m) candidates in
        # preference order, (dx, dy) off the target
        dx = off_x.take(target) + _PURSUIT_DX[:, None, None]
        dy = off_y.take(target) + _PURSUIT_DY[:, None, None]
        score = np.where(free[cells + self._pursuit_offset[:, None, None]],
                         np.maximum(np.abs(dx), np.abs(dy)), 2 * g)
        cells = self._move_in_order(
            free, cells, self._pursuit_offset[score.argmin(axis=0)],
            pursuing & (score.min(axis=0) <= best_d))
        self.enemy_x, self.enemy_y = np.divmod(cells - self._origin,
                                               self._width)
        hits = np.bincount((self._ally_base + victim)[attacks],
                           minlength=ally_live.size)
        self.ally_hp = np.maximum(0, self.ally_hp - cfg.attack_damage
                                  * hits.reshape(ally_live.shape))


def _row0(name: str) -> property:
    return property(lambda self: getattr(self.batch, name)[0],
                    doc=f"Row 0 of the batch's ``{name}`` (a writable view).")


class MicroBattleEnv:
    """Single battle instance: a ``BattleBatch`` of one, driven through
    its row 0.  reset() then step() until terminal.

    ``ally_x`` ... ``enemy_hp`` are views of the battle's arrays (tests
    read them and place units by writing them) and ``t`` is its tick
    count.
    """

    ally_x, ally_y, ally_hp, enemy_x, enemy_y, enemy_hp = map(_row0, UNIT_FIELDS)

    def __init__(self, cfg: BattleConfig):
        self.cfg = cfg
        self.batch = BattleBatch(cfg, 1)

    @property
    def t(self) -> int:
        return int(self.batch.t[0])

    # -- lifecycle -----------------------------------------------------
    def reset_into(self, batch: BattleBatch, i: int, seed: int):
        """Start a fresh battle from ``seed`` in row i of ``batch``."""
        batch.reset(i, seed)

    def reset(self, seed: int):
        """Start a fresh battle from ``seed``; returns (observations,
        state)."""
        self.reset_into(self.batch, 0, seed)
        return self.observations(), self.state()

    # -- views ---------------------------------------------------------
    def state(self) -> np.ndarray:
        return self.batch.state()[0]

    def observations(self) -> list[ObservationSet]:
        """Per-agent views into the batch's (1, n, ...) arrays."""
        own, allies, enemies = self.batch.observations()
        return [ObservationSet(own[0, i], allies[0, i], enemies[0, i])
                for i in range(self.cfg.n_allies)]

    def available_actions(self) -> np.ndarray:
        """(n_allies, n_actions) boolean mask."""
        return self.batch.available_actions()[0]

    # -- dynamics ------------------------------------------------------
    def step(self, actions):
        """One tick from n actions; returns (observations, state, reward,
        terminated, {"win": ...}).  Actions enter the engine here and are
        checked: a running episode, then n integers, each in range and
        available (the error names the agent)."""
        if self.batch._done[0]:
            raise RuntimeError("step() on a finished episode; reset it first")
        actions = np.asarray(actions)
        n = self.cfg.n_allies
        if actions.shape != (n,) or actions.dtype.kind not in "iu":
            raise ValueError(f"expected {n} actions as integers, got "
                             f"{actions.dtype} {actions.shape}")
        known = (actions >= 0) & (actions < self.cfg.n_actions)
        allowed = known & self.batch.available_actions()[
            0, np.arange(n), np.where(known, actions, 0)]
        if not allowed.all():
            agent = int(np.argmin(allowed))
            raise ValueError(f"action {actions[agent]} not available for "
                             f"agent {agent}")
        rewards, terminated, win = self.batch.step(actions[None])
        return (self.observations(), self.state(), float(rewards[0]),
                bool(terminated[0]), {"win": bool(win[0])})


class ShuffleWrapper:
    """Presents the env under fixed per-episode group permutations.

    Each reset draws an ally-row permutation and then an enemy permutation
    from the wrapper's own stream and hands both to the battle's batch
    row, which applies them to every observation's group rows and to the
    attack-action indexing and masks for the whole episode (the wrapped
    env, sharing that row, presents the same view).  The underlying
    episode is semantically identical; the wrapper only relabels what the
    agents see.  The drawn permutations are exposed as ``ally_perm`` /
    ``enemy_perm`` (presented row r is true row perm[r]).
    """

    def __init__(self, env: MicroBattleEnv, rng: np.random.Generator):
        self.env = env
        self.cfg = env.cfg
        self._rng = rng
        self.ally_perm = np.arange(max(env.cfg.n_allies - 1, 0))
        self.enemy_perm = np.arange(env.cfg.n_enemies)

    def reset_into(self, batch: BattleBatch, i: int, seed: int):
        """Draw this episode's permutations and start a fresh battle from
        ``seed`` in row i of ``batch``, presented under them."""
        self.ally_perm = self._rng.permutation(self.cfg.n_allies - 1)
        self.enemy_perm = self._rng.permutation(self.cfg.n_enemies)
        batch.reset(i, seed, self.ally_perm, self.enemy_perm)

    def reset(self, seed: int):
        self.reset_into(self.env.batch, 0, seed)
        return self.env.observations(), self.env.state()

    def observations(self) -> list[ObservationSet]:
        return self.env.observations()

    def available_actions(self) -> np.ndarray:
        return self.env.available_actions()

    def state(self) -> np.ndarray:
        return self.env.state()

    def step(self, actions):
        return self.env.step(actions)
