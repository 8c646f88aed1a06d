"""Float references for the integer replay.

An ``Episode`` stores battle states, and the learner rebuilds the views
the team saw from them.  Before that, an episode held those views as
float arrays, and augmentation renamed units by indexing them.  This
module keeps both float paths as test oracles:

* ``episode_views`` rebuilds an episode's views one step at a time through
  a ``MicroBattleEnv`` facade, the reference for ``_stack_episodes``;
* ``relabel_views`` is the float relabelling that ``relabel_episode``
  applied to those views, the oracle for the integer relabelling.

``ListReplay`` is the list of ``Episode`` objects that the replay's
record arrays replaced, the reference for which episodes it keeps and
samples.  ``episode_of`` builds an ``Episode`` record from per-step
dicts, in int64 unless given a ``step_dtype``.
"""

from __future__ import annotations

import numpy as np

from permnet.env import (ENTITY_FEATURES, N_MOVE_ACTIONS, PRESETS,
                         UNIT_FIELDS, MicroBattleEnv, ObservationSet,
                         other_ally_index)
from permnet.learners import Episode, _stack_episodes

VIEW_FIELDS = ("own", "allies", "enemies", "state", "avail")


def episode_of(steps: list, ally_rows, enemy_perm, dtype=None) -> Episode:
    """An episode from per-step dicts of the unit arrays, ``actions`` and
    ``rewards``, under the given presentation.  Its record is in ``dtype``
    (a ``step_dtype``) and its presentation in that dtype's int; without
    one, every field keeps the dtype of its stacked steps (int64 ints)."""
    columns = {name: np.stack([step[name] for step in steps])
               for name in steps[0]}
    if dtype is None:
        dtype = np.dtype([(name, column.dtype, column.shape[1:])
                          for name, column in columns.items()])
    record = np.empty(len(steps), dtype)
    for name, column in columns.items():
        record[name] = column
    ints = dtype["actions"].base
    return Episode(record, np.array(ally_rows, ints),
                   np.array(enemy_perm, ints))


class ListReplay:
    """A list of episodes, oldest first: the newest ``capacity`` stay,
    and ``sample`` draws list indices with one ``rng.choice`` call."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.episodes: list = []

    def add(self, episode: Episode):
        self.episodes.append(episode)
        if len(self.episodes) > self.capacity:
            del self.episodes[0]

    def sample(self, rng: np.random.Generator, k: int) -> list:
        idx = rng.choice(len(self.episodes), size=min(k, len(self.episodes)),
                         replace=False)
        return [self.episodes[i] for i in idx]


def rollout_episode(seed, cfg=PRESETS["3v3"], policy=None,
                    dtype=None) -> Episode:
    """One full episode on the battle env: uniform random available
    actions from ``default_rng(seed + 1)``, or ``policy(env, avail)``.
    Its record is in ``dtype`` as ``episode_of`` makes it, int64 without
    one."""
    env = MicroBattleEnv(cfg)
    env.reset(seed)
    rng = np.random.default_rng(seed + 1)
    steps, terminated = [], False
    while not terminated:
        avail = env.available_actions()
        if policy is None:
            actions = np.array([rng.choice(np.flatnonzero(avail[i]))
                                for i in range(cfg.n_allies)])
        else:
            actions = policy(env, avail)
        step = {name: getattr(env.batch, name)[0].copy()
                for name in UNIT_FIELDS}
        _, _, reward, terminated, _ = env.step(actions)
        steps.append(dict(step, actions=np.asarray(actions, dtype=np.int64),
                          rewards=reward))
    return episode_of(steps, env.batch.ally_rows[0], env.batch.enemy_perm[0],
                      dtype)


def episode_views(episode: Episode, cfg) -> dict:
    """(T, ...) ``own``, ``allies``, ``enemies``, ``state`` and ``avail``
    of an episode, each step set into a batch-of-one facade under the
    episode's presentation."""
    env = MicroBattleEnv(cfg)
    env.batch.ally_rows[0] = episode.ally_rows
    env.batch.enemy_perm[0] = episode.enemy_perm
    views = {name: [] for name in VIEW_FIELDS}
    for t in range(len(episode)):
        for name in UNIT_FIELDS:
            getattr(env.batch, name)[0] = episode.steps[name][t]
        obs = env.observations()
        for name in ("own", "allies", "enemies"):
            views[name].append(np.stack([getattr(o, name) for o in obs]))
        views["state"].append(env.state())
        views["avail"].append(env.available_actions())
    return {name: np.stack(rows) for name, rows in views.items()}


def batch_views(battles) -> dict:
    """A ``BattleBatch``'s views, one row per battle, in the fields of
    ``episode_views``."""
    own, allies, enemies = battles.observations()
    return dict(own=own, allies=allies, enemies=enemies,
                state=battles.state(), avail=battles.available_actions())


def learner_views(episode: Episode, cfg) -> dict:
    """The views the learner rebuilds for one episode."""
    return batch_views(_stack_episodes([episode], cfg)[0])


def step_obs(views: dict, t: int, i: int) -> ObservationSet:
    """Agent i's observation at step t of an episode's views."""
    return ObservationSet(views["own"][t, i], views["allies"][t, i],
                          views["enemies"][t, i])


def relabel_views(views: dict, actions: np.ndarray, ally_perm: np.ndarray,
                  enemy_perm: np.ndarray) -> tuple[dict, np.ndarray]:
    """Rename the team and enemy indices of every step's views and
    actions.

    New agent p is old agent ally_perm[p]; new enemy row j is old enemy
    row enemy_perm[j].  Observation rows, state entity blocks,
    availability masks and attack-action indices all move together.
    Ally rows are taken to list the other allies in index order, so
    renaming the team changes both which rows appear and how they sort.
    """
    ally_perm = np.asarray(ally_perm, dtype=np.int64)
    enemy_perm = np.asarray(enemy_perm, dtype=np.int64)
    n = len(ally_perm)
    moves = np.arange(N_MOVE_ACTIONS)
    others = ally_perm[other_ally_index(n)]
    ally_rows = others - (others > ally_perm[:, None])
    columns = np.concatenate([moves, N_MOVE_ACTIONS + enemy_perm])
    action_map = np.concatenate(
        [moves, N_MOVE_ACTIONS + np.argsort(enemy_perm)])
    entities = np.concatenate([ally_perm, n + enemy_perm])
    steps = len(actions)
    return dict(
        own=views["own"][:, ally_perm],
        allies=views["allies"][:, ally_perm[:, None], ally_rows],
        enemies=views["enemies"][:, ally_perm[:, None], enemy_perm],
        state=views["state"].reshape(steps, len(entities), ENTITY_FEATURES)[
            :, entities].reshape(steps, -1),
        avail=views["avail"][:, ally_perm[:, None], columns],
    ), action_map[actions[:, ally_perm]]
