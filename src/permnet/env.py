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
"""

from __future__ import annotations

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


class BattleBatch:
    """R battles of one config, stepped together with array ops.

    This is the one implementation of the battle rules.  Row r holds
    battle r as (R, n) and (R, m) int arrays (``UNIT_FIELDS``) plus its
    presentation: ``ally_rows[r, p, k]``, the true ally observer p sees in
    slot k, and ``enemy_perm[r, j]``, the true enemy presented as j (a
    ``ShuffleWrapper``'s draws, or the identity).  ``available_actions``,
    ``observations`` and ``step`` speak that presented indexing;
    positions, health and ``state`` keep the true entity order.

    ``reset(i, seed, ...)`` starts a fresh battle in row i.  Rows start
    finished, and every row must hold a running battle when ``step`` is
    called, so a caller resets a row before its first step and after it
    terminates.  ``MicroBattleEnv`` is a batch of one.
    """

    def __init__(self, cfg: BattleConfig, size: int):
        self.cfg = cfg
        n, m, g = cfg.n_allies, cfg.n_enemies, cfg.grid_size
        self.ally_x = np.zeros((size, n), dtype=np.int64)
        self.ally_y = np.zeros((size, n), dtype=np.int64)
        self.ally_hp = np.zeros((size, n), dtype=np.int64)
        self.enemy_x = np.zeros((size, m), dtype=np.int64)
        self.enemy_y = np.zeros((size, m), dtype=np.int64)
        self.enemy_hp = np.zeros((size, m), dtype=np.int64)
        self.t = np.zeros(size, dtype=np.int64)
        self.enemy_perm = np.zeros((size, m), dtype=np.int64)
        self.ally_rows = np.zeros((size, n, n - 1), dtype=np.int64)
        self._done = np.ones(size, dtype=bool)
        self._rows = np.arange(size)[:, None]
        # occupancy grids: battle r's cell (x, y) is flat cell
        # r * w * w + (x + 1) * w + y + 1 of a (g + 2) x (g + 2) grid whose
        # border cells (x or y in {-1, g}) are walls, always occupied
        self._width = g + 2
        self._cell_base = self._rows * self._width ** 2
        walls = np.ones((size, self._width, self._width), dtype=bool)
        walls[:, 1:-1, 1:-1] = False
        self._walls = walls.reshape(-1)
        self._norm = float(g - 1)
        self._others = other_ally_index(n)
        # (dx, dy) of every true action index; zero for non-moves
        self._dx = np.zeros(cfg.n_actions, dtype=np.int64)
        self._dy = np.zeros(cfg.n_actions, dtype=np.int64)
        for a, (dx, dy) in _MOVE_DELTAS.items():
            self._dx[a], self._dy[a] = dx, dy
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
        self.ally_hp[i] = cfg.max_health
        self.enemy_hp[i] = cfg.max_health
        self.t[i] = 0
        self._done[i] = False
        if ally_perm is None:
            ally_perm = np.arange(cfg.n_allies - 1)
        if enemy_perm is None:
            enemy_perm = np.arange(cfg.n_enemies)
        self.enemy_perm[i] = enemy_perm
        self.ally_rows[i] = self._others[:, ally_perm]

    # -- views ---------------------------------------------------------
    def _presented_enemies(self):
        """Enemy x, y, hp as (R, m) arrays in each battle's presented order."""
        rows, perm = self._rows, self.enemy_perm
        return (self.enemy_x[rows, perm], self.enemy_y[rows, perm],
                self.enemy_hp[rows, perm])

    def state(self) -> np.ndarray:
        """(R, state_dim) global states: one (x, y, health, alive) block
        per entity, allies first, normalized like observations, dead rows
        all-zero; in true entity order (a wrapper does not permute the
        state).  float32, like the observations."""
        cfg = self.cfg
        xs = np.concatenate([self.ally_x, self.enemy_x], axis=1)
        ys = np.concatenate([self.ally_y, self.enemy_y], axis=1)
        hps = np.concatenate([self.ally_hp, self.enemy_hp], axis=1)
        live = hps > 0
        block = np.zeros(hps.shape + (ENTITY_FEATURES,), np.float32)
        block[live, 0] = xs[live] / self._norm
        block[live, 1] = ys[live] / self._norm
        block[live, 2] = hps[live] / cfg.max_health
        block[live, 3] = 1.0
        return block.reshape(len(hps), -1)

    def observations(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """own (R, n, OWN_FEATURES), allies (R, n, n - 1, ENTITY_FEATURES)
        and enemies (R, n, m, ENTITY_FEATURES), group rows presented.

        float32: each value is computed in float64 and rounded once as it
        is stored."""
        cfg = self.cfg
        live = self.ally_hp > 0
        own = np.zeros(live.shape + (OWN_FEATURES,), np.float32)
        own[live, 0] = self.ally_x[live] / self._norm
        own[live, 1] = self.ally_y[live] / self._norm
        own[live, 2] = self.ally_hp[live] / cfg.max_health
        rows = self._rows[:, :, None]
        allies = self._relative_rows(
            live, self.ally_x[rows, self.ally_rows],
            self.ally_y[rows, self.ally_rows],
            self.ally_hp[rows, self.ally_rows])
        ex, ey, ehp = self._presented_enemies()
        enemies = self._relative_rows(live, ex[:, None], ey[:, None],
                                      ehp[:, None])
        return own, allies, enemies

    def _relative_rows(self, observer_live, xs, ys, hps) -> np.ndarray:
        """(R, n, k, ENTITY_FEATURES) rows of entities (xs, ys, hps
        broadcast to (R, n, k)) as seen by every ally; all-zero for a dead
        entity or observer."""
        seen = observer_live[:, :, None] & (hps > 0)
        rows = np.empty(seen.shape + (ENTITY_FEATURES,), np.float32)
        rows[..., 0] = (xs - self.ally_x[:, :, None]) / self._norm
        rows[..., 1] = (ys - self.ally_y[:, :, None]) / self._norm
        rows[..., 2] = hps / self.cfg.max_health
        rows[..., 3] = 1.0
        return np.where(seen[..., None], rows, 0.0)

    def available_actions(self) -> np.ndarray:
        """(R, n, n_actions) boolean masks, attack columns presented.
        Dead agents may only noop; living agents may stop, move to any
        in-bounds cell, and attack any living enemy within attack range."""
        cfg = self.cfg
        g = cfg.grid_size
        x, y = self.ally_x, self.ally_y
        live = self.ally_hp > 0
        mask = np.empty(live.shape + (cfg.n_actions,), dtype=bool)
        mask[..., ACTION_NOOP] = ~live
        mask[..., ACTION_STOP] = live
        mask[..., ACTION_NORTH] = live & (y + 1 < g)
        mask[..., ACTION_SOUTH] = live & (y - 1 >= 0)
        mask[..., ACTION_EAST] = live & (x + 1 < g)
        mask[..., ACTION_WEST] = live & (x - 1 >= 0)
        ex, ey, ehp = self._presented_enemies()
        dist = np.maximum(np.abs(ex[:, None, :] - x[:, :, None]),
                          np.abs(ey[:, None, :] - y[:, :, None]))
        mask[..., N_MOVE_ACTIONS:] = (live[:, :, None] & (ehp > 0)[:, None, :]
                                      & (dist <= cfg.attack_range))
        return mask

    def _cells(self, xs, ys) -> np.ndarray:
        """Flat occupancy-grid cells of (R, ...) positions."""
        return self._cell_base + (xs + 1) * self._width + ys + 1

    def _occupancy(self) -> np.ndarray:
        """Flat occupancy grids: the walls plus the cells living units
        stand on."""
        grid = self._walls.copy()
        grid[self._cells(self.ally_x, self.ally_y)[self.ally_hp > 0]] = True
        grid[self._cells(self.enemy_x, self.enemy_y)[self.enemy_hp > 0]] = True
        return grid

    def _move_in_order(self, grid, xs, ys, dx, dy, go):
        """Move unit after unit, in index order, by (R, k) steps (dx, dy)
        where ``go`` holds and the destination cell is free at that
        moment; updates positions and the grid."""
        # (k, R): one contiguous row per unit
        src = self._cells(xs, ys).T
        dst = src + (dx * self._width + dy).T
        moved = np.zeros(src.shape, dtype=bool)
        for unit in np.flatnonzero(go.any(axis=0)):
            moves = go[:, unit] & ~grid[dst[unit]]
            grid[src[unit, moves]] = False
            grid[dst[unit, moves]] = True
            moved[unit] = moves
        xs += dx * moved.T
        ys += dy * moved.T

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
        live = self.ally_hp > 0

        # phase 1: ally moves, agent-index order
        grid = self._occupancy()
        dx, dy = self._dx[actions], self._dy[actions]
        self._move_in_order(grid, self.ally_x, self.ally_y, dx, dy,
                            live & ((dx != 0) | (dy != 0)))

        # phase 2: simultaneous ally attacks
        attacking = live & (actions >= N_MOVE_ACTIONS)
        # presented attack j targets true enemy enemy_perm[j]
        targets = self.enemy_perm[self._rows,
                                  np.maximum(actions - N_MOVE_ACTIONS, 0)]
        hits = attacking[:, :, None] & (
            targets[:, :, None] == np.arange(cfg.n_enemies))
        before = self.enemy_hp
        self.enemy_hp = np.maximum(
            0, before - cfg.attack_damage * hits.sum(axis=1))
        damage_dealt = (before - self.enemy_hp).sum(axis=1)
        killed = (before > 0) & (self.enemy_hp == 0)
        kills = killed.sum(axis=1)
        reward = cfg.damage_scale * damage_dealt + cfg.kill_bonus * kills
        win = ~(self.enemy_hp > 0).any(axis=1)

        # phase 3: scripted enemies (a won battle has none left to act);
        # the units just killed free their cells
        grid[self._cells(self.enemy_x, self.enemy_y)[killed]] = False
        self._enemy_turn(grid)

        self.t += 1
        terminated = win | ~(self.ally_hp > 0).any(axis=1) \
            | (self.t >= cfg.episode_limit)
        reward = np.where(win, reward + cfg.win_bonus, reward)
        self._done = terminated
        return reward, terminated, win

    def _enemy_turn(self, grid):
        """The scripted enemy rule for every enemy of every battle.

        Each living enemy attacks the lowest-index living ally in attack
        range.  Otherwise it targets the nearest living ally (lowest index
        on distance ties) and takes the move minimizing the resulting
        Chebyshev distance, skipping occupied or out-of-bounds cells; move
        ties prefer the x-axis and then the negative direction, and staying
        put is the last resort.  Intents are judged against one snapshot
        (the occupancy grid as the ally phase left it); then enemies move
        in index order, under the allies' collision rule, and attack
        simultaneously."""
        cfg = self.cfg
        g = cfg.grid_size
        ax, ay, ex, ey = self.ally_x, self.ally_y, self.enemy_x, self.enemy_y
        ally_live = self.ally_hp > 0
        enemy_live = self.enemy_hp > 0
        # (R, m, n) distances from every enemy to every ally
        dist = np.maximum(np.abs(ex[:, :, None] - ax[:, None, :]),
                          np.abs(ey[:, :, None] - ay[:, None, :]))
        pair = enemy_live[:, :, None] & ally_live[:, None, :]
        in_range = pair & (dist <= cfg.attack_range)
        attacks = in_range.any(axis=2)
        victim = in_range.argmax(axis=2)          # lowest index in range
        pursuing = enemy_live & ~attacks & ally_live.any(axis=1)[:, None]
        far = np.where(pair, dist, 2 * g)
        target = far.argmin(axis=2)               # nearest, lowest index
        best_d = far.min(axis=2)
        tx, ty = ax[self._rows, target], ay[self._rows, target]
        # pursue: of the free cells one step away (walls are never free),
        # the one closest to the target (first in preference order on
        # ties), if no farther than now (a diagonal offset cannot be
        # strictly reduced by a single axis step); (4, R, m) candidates in
        # preference order
        nx = ex + _PURSUIT_DX[:, None, None]
        ny = ey + _PURSUIT_DY[:, None, None]
        free = ~grid[self._cells(nx, ny)]
        score = np.where(free, np.maximum(np.abs(nx - tx), np.abs(ny - ty)),
                         2 * g)
        choice = score.argmin(axis=0)
        go = pursuing & (score.min(axis=0) <= best_d)
        self._move_in_order(grid, ex, ey, _PURSUIT_DX[choice] * go,
                            _PURSUIT_DY[choice] * go, go)
        hits = attacks[:, :, None] & (
            victim[:, :, None] == np.arange(cfg.n_allies))
        self.ally_hp = np.maximum(
            0, self.ally_hp - cfg.attack_damage * hits.sum(axis=1))


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

    ally_x = _row0("ally_x")
    ally_y = _row0("ally_y")
    ally_hp = _row0("ally_hp")
    enemy_x = _row0("enemy_x")
    enemy_y = _row0("enemy_y")
    enemy_hp = _row0("enemy_hp")

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
