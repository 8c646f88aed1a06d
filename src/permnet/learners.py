"""Value-decomposition Q-learning for the micro battle.

One parameter-shared Q-network serves every ally.  Per-agent chosen-action
values are mixed into a team value either by plain summation (VDN) or by a
state-conditioned monotonic mixing network (QMIX).  Targets are TD(lambda)
returns computed backward over whole episodes with double-Q bootstrapping:
the online network picks the argmax action, the hard-updated target copy
evaluates it.  The recursion runs on float64 rewards; the targets are
rounded once to the network's float32 where they enter the loss.  Replay
stores whole episodes of battle states, which the env's ``BattleBatch``
presents to the learner, and samples them uniformly.  It keeps each
episode as one read-only record array in the narrowest int dtype the
battle config allows (int8 on every preset); a sampled episode's fields
are views of its record, widened to int64 only where the learner stacks
its batch.

``augment_experience`` is a pure data transform: it renames the units of
stored episodes under random ally/enemy permutations (unit axes,
presentation and attack-action indices move together) so a step keeps
describing the same event under a different entity naming.

Rollouts run as lockstep batched environments: every runner's battle lives
in one ``BattleBatch`` and all of them step once per tick with one set of
array ops, one network forward and one masked argmax over every agent.
Epsilon-greedy exploration is two array draws a tick from one stream: a
uniform per agent, then a pick among its available actions per explorer,
each in (runner, agent) order.  Completed episodes merge in runner-index
order, so training is bitwise reproducible per seed.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .autodiff import (
    AdamState,
    ShapeError,
    Tensor,
    abs_,
    adam_step,
    add,
    bmm,
    constant,
    mul,
    no_grad,
    reduce_sum,
    relu,
    reshape,
    take_index,
)
from .env import N_MOVE_ACTIONS, UNIT_FIELDS, BattleBatch, BattleConfig
from .layers import NEG_MASK, Linear, Mlp, Module


# ---------------------------------------------------------------------------
# data containers
# ---------------------------------------------------------------------------

@dataclass
class Episode:
    """One finished battle as time-major int arrays; step T - 1 is terminal.

    Step t holds the units (true order), the presented actions and the
    reward that followed; ``ally_rows`` and ``enemy_perm`` are the
    presentation of the battle's ``BattleBatch`` row.  The runner hands
    out int64 episodes; ``ReplayBuffer.sample`` returns read-only ones in
    the store's narrow int dtype, step fields viewing a stored record."""

    ally_x: np.ndarray      # (T, n)
    ally_y: np.ndarray      # (T, n)
    ally_hp: np.ndarray     # (T, n)
    enemy_x: np.ndarray     # (T, m)
    enemy_y: np.ndarray     # (T, m)
    enemy_hp: np.ndarray    # (T, m)
    actions: np.ndarray     # (T, n)
    rewards: np.ndarray     # (T,) float
    ally_rows: np.ndarray   # (n, n - 1)
    enemy_perm: np.ndarray  # (m,)

    def __len__(self) -> int:
        return len(self.rewards)


@dataclass
class TrainConfig:
    gamma: float = 0.99
    lr: float = 0.001
    td_lambda: float = 0.6
    epsilon_start: float = 1.0
    epsilon_finish: float = 0.05
    epsilon_anneal_steps: int = 100_000
    buffer_size: int = 5000
    batch_episodes: int = 32
    target_update_interval: int = 200
    parallel_runners: int = 8
    total_env_steps: int = 200_000
    train_interval: int = 16
    seed: int = 0

    def __post_init__(self):
        for name in ("epsilon_anneal_steps", "buffer_size", "batch_episodes",
                     "target_update_interval", "parallel_runners",
                     "total_env_steps", "train_interval"):
            if getattr(self, name) < 1:
                raise ValueError(
                    f"{name} must be >= 1, got {getattr(self, name)}")
        for name in ("td_lambda", "epsilon_start", "epsilon_finish"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(
                    f"{name} {getattr(self, name)} outside [0, 1]")
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError(f"gamma {self.gamma} outside (0, 1]")
        if not 0.0 < self.lr < np.inf:
            raise ValueError(f"lr must be finite and > 0, got {self.lr}")
        if self.buffer_size < self.batch_episodes:
            # the buffer could never hold a batch, so nothing would train
            raise ValueError(
                f"buffer_size {self.buffer_size} < batch_episodes "
                f"{self.batch_episodes}")


# ---------------------------------------------------------------------------
# mixers
# ---------------------------------------------------------------------------

def vdn_mix(per_agent_q: Tensor) -> Tensor:
    """Team value as the sum of per-agent chosen-action values over the
    last axis, which indexes agents."""
    return reduce_sum(per_agent_q, axis=-1)


class QmixMixer(Module):
    """State-conditioned monotonic mixer.

    Q_tot = |w2(s)| . relu(|w1(s)| . q + b1(s)) + v(s).  The absolute value
    on both mixing weight layers makes dQ_tot/dq_i >= 0 for every agent;
    biases stay unconstrained.
    """

    def __init__(self, rng: np.random.Generator, n_agents: int,
                 state_dim: int, embed: int = 32, hypernet_embed: int = 64):
        self.n_agents = n_agents
        self.embed = embed
        self.hyper_w1 = Mlp(rng, [state_dim, hypernet_embed, n_agents * embed])
        self.hyper_w2 = Mlp(rng, [state_dim, hypernet_embed, embed])
        self.hyper_b1 = Linear(rng, state_dim, embed)
        self.value = Mlp(rng, [state_dim, embed, 1])

    def __call__(self, agent_qs: Tensor, state: Tensor) -> Tensor:
        """(B, n_agents) x (B, state_dim) -> (B,)."""
        if agent_qs.shape[-1] != self.n_agents:
            raise ShapeError(
                f"got {agent_qs.shape[-1]} agent values, expected "
                f"{self.n_agents}")
        b = state.shape[0]
        w1 = reshape(abs_(self.hyper_w1(state)),
                     (b, self.n_agents, self.embed))
        b1 = self.hyper_b1(state)
        hidden = relu(add(reshape(bmm(reshape(agent_qs, (b, 1, self.n_agents)),
                                      w1), (b, self.embed)), b1))
        w2 = reshape(abs_(self.hyper_w2(state)), (b, self.embed, 1))
        y = reshape(bmm(reshape(hidden, (b, 1, self.embed)), w2), (b,))
        return add(y, reshape(self.value(state), (b,)))


# ---------------------------------------------------------------------------
# targets and exploration
# ---------------------------------------------------------------------------

def td_lambda_targets(rewards: np.ndarray, next_values: np.ndarray,
                      gamma: float, td_lambda: float) -> np.ndarray:
    """Backward-recursion lambda returns.

    G_t = r_t + gamma.((1 - lambda).V_{t+1} + lambda.G_{t+1}) with
    G_T = V_T, where next_values[t] holds V(s_{t+1}) from the target
    network and is 0 on terminal steps.  Accepts (T,) or (B, T) arrays;
    zero-padded batch tails propagate zeros through the recursion.
    """
    rewards = np.asarray(rewards, dtype=np.float64)
    next_values = np.asarray(next_values, dtype=np.float64)
    if rewards.shape != next_values.shape:
        raise ShapeError(
            f"rewards {rewards.shape} vs next values {next_values.shape}")
    if rewards.size == 0:
        raise ValueError("empty episode has no targets")
    horizon = rewards.shape[-1]
    out = np.zeros_like(rewards)
    out[..., -1] = rewards[..., -1] + gamma * next_values[..., -1]
    for t in range(horizon - 2, -1, -1):
        blended = ((1.0 - td_lambda) * next_values[..., t]
                   + td_lambda * out[..., t + 1])
        out[..., t] = rewards[..., t] + gamma * blended
    return out


def anneal_epsilon(step: int, start: float = 1.0, finish: float = 0.05,
                   anneal_steps: int = 100_000) -> float:
    """Linear schedule from start to finish over anneal_steps, then held."""
    frac = min(1.0, max(0.0, step / anneal_steps))
    return start + (finish - start) * frac


# ---------------------------------------------------------------------------
# replay and augmentation
# ---------------------------------------------------------------------------

class ReplayBuffer:
    """Whole-episode store; uniform episode sampling without replacement.

    A deque, oldest first, holds one read-only numpy structured array per
    stored episode with one record per step: a field per ``UNIT_FIELDS``
    name and ``actions``, in the narrowest int dtype that holds every value
    a battle under ``cfg`` takes (below ``max(grid_size, max_health + 1,
    n_actions, n_allies)``: int8 on every preset), and float64
    ``rewards``.  Each episode's ``ally_rows`` and ``enemy_perm`` go, in
    the same int dtype, into a ring of ``capacity`` rows at its add count
    modulo ``capacity``.  ``capacity`` counts episodes.

    ``sample`` draws deque indices with one ``rng.choice`` call and returns
    ``Episode``s whose step fields are views of the stored records and
    whose presentation is a copy from the ring.  No add or eviction writes
    a stored record, so they stay unchanged, and all are read-only, so
    writing to one raises.
    """

    def __init__(self, capacity: int, cfg: BattleConfig):
        self.capacity = capacity
        n, m = cfg.n_allies, cfg.n_enemies
        # the narrowest signed int holding -bound holds 0 .. bound - 1
        narrow = np.min_scalar_type(-max(cfg.grid_size, cfg.max_health + 1,
                                         cfg.n_actions, n))
        self._range = np.iinfo(narrow)
        self._step_dtype = np.dtype(
            [(name, narrow, (m if name.startswith("enemy") else n,))
             for name in UNIT_FIELDS + ("actions",)]
            + [("rewards", np.float64)])
        self._records: deque[np.ndarray] = deque(maxlen=capacity)
        self._presentations = np.zeros(capacity, [
            ("ally_rows", narrow, (n, n - 1)), ("enemy_perm", narrow, (m,))])
        self._added = 0

    def __len__(self) -> int:
        return len(self._records)

    def _holds(self, values: np.ndarray) -> bool:
        return (self._range.min <= values.min()
                and values.max() <= self._range.max)

    def add(self, episode: Episode):
        """Store an episode, evicting the oldest at capacity.  An empty
        episode, or one with an int value outside the store's dtype,
        raises ``ValueError`` and leaves the buffer as it was."""
        if not episode:
            raise ValueError("refusing to store an empty episode")
        names = UNIT_FIELDS + ("actions", "ally_rows", "enemy_perm")
        ints = [getattr(episode, name) for name in names]
        # one check over every int value; a second pass names the field
        if not self._holds(np.concatenate(ints, axis=None)):
            name = next(name for name, values in zip(names, ints)
                        if not self._holds(values))
            raise ValueError(f"episode {name} has values outside "
                             f"{self._range.dtype}")
        record = np.empty(len(episode), self._step_dtype)
        for name in self._step_dtype.names:
            record[name] = getattr(episode, name)
        record.setflags(write=False)
        self._presentations[self._added % self.capacity] = (
            episode.ally_rows, episode.enemy_perm)
        self._added += 1
        self._records.append(record)

    def sample(self, rng: np.random.Generator, k: int) -> list:
        idx = rng.choice(len(self), size=min(k, len(self)), replace=False)
        shown = self._presentations[
            (self._added - len(self) + idx) % self.capacity]
        shown.setflags(write=False)
        return [Episode(**{name: self._records[i][name]
                           for name in self._step_dtype.names},
                        **{name: shown[name][j] for name in shown.dtype.names})
                for j, i in enumerate(idx)]


def relabel_episode(episode: Episode, ally_perm: np.ndarray,
                    enemy_perm: np.ndarray) -> Episode:
    """Rename the units of every step of an episode: new ally p is old
    ally ally_perm[p]; new enemy j, true and presented, is old enemy
    enemy_perm[j].  New observer p's slot k holds old observer
    ally_perm[p]'s slot c, where c is the index-order place of p's k-th
    ally (by new index): identity-presented rows stay in index order."""
    ally_inv, enemy_inv = np.argsort(ally_perm), np.argsort(enemy_perm)
    old_rows = episode.ally_rows[ally_perm]
    slots = np.argsort(ally_inv[np.sort(old_rows, axis=1)], axis=1)
    action_map = np.concatenate(
        [np.arange(N_MOVE_ACTIONS), N_MOVE_ACTIONS + enemy_inv])
    units = {name: getattr(episode, name)[
        :, ally_perm if name.startswith("ally") else enemy_perm]
        for name in UNIT_FIELDS}
    return Episode(
        **units, actions=action_map[episode.actions[:, ally_perm]],
        rewards=episode.rewards,
        ally_rows=np.take_along_axis(ally_inv[old_rows], slots, axis=1),
        enemy_perm=enemy_inv[episode.enemy_perm[enemy_perm]])


def augment_experience(episodes: list, num_permutations: int,
                       rng: np.random.Generator) -> list:
    """Originals plus num_permutations random relabelings of each episode.

    One ally permutation and one enemy permutation are drawn per copy and
    applied to every step of that episode.
    """
    out = list(episodes)
    for episode in episodes:
        if not episode:
            raise ValueError("cannot augment an empty episode")
        n, m = len(episode.ally_rows), len(episode.enemy_perm)
        for _ in range(num_permutations):
            out.append(relabel_episode(episode, rng.permutation(n),
                                       rng.permutation(m)))
    return out


# ---------------------------------------------------------------------------
# learner
# ---------------------------------------------------------------------------

def team_parameters(net, mixer) -> dict[str, Tensor]:
    """A (net, mixer) pair's named parameters, the mixer's under
    ``mixer.``; ``mixer`` is None under VDN."""
    params = net.named_parameters()
    if mixer is not None:
        params.update(mixer.named_parameters("mixer."))
    return params


def copy_parameters(src: dict[str, Tensor], dst: dict[str, Tensor]):
    for name, p in dst.items():
        p.data[...] = src[name].data


def _net_forward(net, own: Tensor, allies: Tensor, enemies: Tensor,
                 **kwargs) -> Tensor:
    """Kept for its one caller, ``_greedy_q`` in ``perfbench/bench.py``."""
    return net.forward_batch(own, allies, enemies, **kwargs)


def greedy_actions(q: np.ndarray, avail: np.ndarray) -> np.ndarray:
    """Masked argmax over the last axis, the first maximum on ties.

    The result is an available action unless every available value is
    below ``NEG_MASK``; then it is the first masked column, noop for a
    living agent and stop for a dead one, and ``BattleBatch.step`` moves
    and attacks nobody for either.
    """
    return np.where(avail, q, NEG_MASK).argmax(axis=-1)


def _agent_rows(observations) -> list[Tensor]:
    """Batch observations as one row per agent: own, allies, enemies."""
    return [Tensor(x.reshape((-1,) + x.shape[2:])) for x in observations]


def greedy_q(net, observations) -> np.ndarray:
    """(R, n, n_actions) Q-values of the (R, n, ...) own, allies and
    enemies arrays that ``BattleBatch.views`` returns: one deterministic
    forward over every agent's row, without a graph."""
    with no_grad():
        q = net.forward_batch(*_agent_rows(observations), deterministic=True)
    return q.data.reshape(observations[0].shape[:2] + (-1,))


def _stack_episodes(episodes: list, cfg: BattleConfig
                    ) -> tuple[BattleBatch, dict[str, np.ndarray]]:
    """Join the episodes' steps along time: the S real steps, episode
    after episode, become the rows of one ``BattleBatch`` under their
    episodes' presentations (no padded step reaches a network), and
    ``actions`` joins their actions.  Every int column is joined as int64,
    whatever the episodes' dtype, since the batch's table rows outgrow
    int8 (up to 1,854 at 8v9).  Only the TD(lambda) recursion runs
    on a (B, T_max) grid: ``rewards`` is zero-padded to it and the boolean
    ``mask`` flags its real steps, in the same order as the rows.
    """
    lengths = np.array([len(e) for e in episodes])
    battles = BattleBatch(cfg, int(lengths.sum()))
    for name in UNIT_FIELDS + ("ally_rows", "enemy_perm"):
        columns = [getattr(e, name) for e in episodes]
        setattr(battles, name,
                np.concatenate(columns, dtype=np.int64) if name in UNIT_FIELDS
                else np.repeat(np.stack(columns, dtype=np.int64), lengths,
                               axis=0))
    data = {"actions": np.concatenate([e.actions for e in episodes],
                                      dtype=np.int64),
            "mask": np.arange(lengths.max()) < lengths[:, None]}
    data["rewards"] = np.zeros(data["mask"].shape)
    data["rewards"][data["mask"]] = np.concatenate(
        [e.rewards for e in episodes])
    return battles, data


class Learner:
    """Episodic double-Q trainer with a hard-updated target copy.

    The same agent network serves every ally (parameter sharing, no agent
    id feature).  ``mixer`` is "vdn" or "qmix"; QMIX adds a monotonic
    state-conditioned mixing network trained jointly with the agent net.
    """

    def __init__(self, cfg: TrainConfig,
                 net_factory: Callable[[np.random.Generator], object],
                 env_cfg, mixer: str = "vdn"):
        if mixer not in ("vdn", "qmix"):
            raise ValueError(f"unknown mixer {mixer!r}")
        self.cfg = cfg
        self.env_cfg = env_cfg
        # online and target copies start from the same draws
        self.net, self.target_net = (
            net_factory(np.random.default_rng([cfg.seed, 1]))
            for _ in range(2))
        self.mixer, self.target_mixer = (
            None if mixer == "vdn" else QmixMixer(
                np.random.default_rng([cfg.seed, 2]), env_cfg.n_allies,
                env_cfg.state_dim)
            for _ in range(2))
        self.params = team_parameters(self.net, self.mixer)
        self.opt = AdamState(lr=cfg.lr)
        self.train_steps = 0
        # noisy canonicalization during the gradient forward only
        self.forward_rng = np.random.default_rng([cfg.seed, 3])
        self._sync_target()

    def _sync_target(self):
        copy_parameters(self.params,
                        team_parameters(self.target_net, self.target_mixer))

    def _mix(self, chosen: Tensor, state: np.ndarray | None, mixer) -> Tensor:
        """(S, n) chosen values -> (S,) team values."""
        if mixer is None:
            return vdn_mix(chosen)
        return mixer(chosen, Tensor(state))

    def train_step(self, episodes: list) -> float:
        """One gradient update on a batch of episodes; returns the loss.

        Every forward, the mixing and the backward run on the real steps
        alone; only the TD(lambda) recursion sees the padded grid.
        """
        if not episodes:
            raise ValueError("empty training batch")
        battles, data = _stack_episodes(episodes, self.env_cfg)
        avail, observations = battles.views()
        state = None if self.mixer is None else battles.state()
        steps, n = data["actions"].shape
        rows = steps * n

        q_target = greedy_q(self.target_net, observations)
        q = self.net.forward_batch(*_agent_rows(observations),
                                   rng=self.forward_rng, deterministic=False)
        # only a noisy grad forward differs from the greedy one
        best = greedy_actions(
            greedy_q(self.net, observations) if self.net.noisy_grad_forward
            else q.data.reshape(avail.shape), avail)
        chosen_target = np.take_along_axis(
            q_target, best[..., None], axis=-1)[..., 0]
        with no_grad():
            values = self._mix(Tensor(chosen_target), state,
                               self.target_mixer).data
        # scatter onto the padded grid for the recursion, which then reads
        # V(s_{t+1}) = 0 past each episode's last step; gather back after
        mask = data["mask"]
        grid = np.zeros(mask.shape)
        grid[mask] = values
        next_values = np.zeros(mask.shape)
        next_values[:, :-1] = grid[:, 1:]
        targets = td_lambda_targets(data["rewards"], next_values,
                                    self.cfg.gamma, self.cfg.td_lambda)[mask]

        chosen = reshape(take_index(q, data["actions"].reshape(rows)),
                         (steps, n))
        q_tot = self._mix(chosen, state, self.mixer)
        diff = add(q_tot, constant(-targets, q_tot))
        loss = mul(reduce_sum(mul(diff, diff)), constant(1.0 / steps, q_tot))
        loss_value = float(loss.data)
        if not np.isfinite(loss_value):
            raise FloatingPointError(
                f"non-finite training loss {loss_value!r}")
        for p in self.params.values():
            p.zero_grad()
        loss.backward()
        adam_step(self.params, self.opt)
        self.train_steps += 1
        if self.train_steps % self.cfg.target_update_interval == 0:
            self._sync_target()
        return loss_value


# ---------------------------------------------------------------------------
# rollouts and evaluation
# ---------------------------------------------------------------------------

class ParallelRunner:
    """Lockstep batched episode collector.

    All runners' battles live in one ``BattleBatch`` and step together
    once per tick: one acting forward over every agent, one masked argmax,
    and two exploration draws from ``select_rng``: a uniform for every
    agent (below epsilon explores), then a uniform index into each
    explorer's available actions, both in (runner, agent) order, so
    collection is deterministic.  Runner i's battle is row i of
    ``batch``, reset in place through ``envs[i].reset_into`` (``envs[i]``
    from ``env_factory(i)``; a ``ShuffleWrapper`` draws the episode's
    permutations from its own stream; ``envs[i]`` holds no battle).  Reset
    seeds come from one ``reset_rng``: one per row at construction, then
    one per finished row, each time in row order.

    Running episodes are logged on the battle clock: step t of row i at
    ``i * episode_limit + t`` of one array per ``Episode`` field, written
    at ``batch.t``: the units straight from the batch and the actions
    before the step, the rewards after it.
    """

    def __init__(self, cfg: TrainConfig, env_factory, net):
        self.cfg = cfg
        self.net = net
        self.envs = [env_factory(i) for i in range(cfg.parallel_runners)]
        self.reset_rng = np.random.default_rng([cfg.seed, 7])
        self.select_rng = np.random.default_rng([cfg.seed, 4])
        self.env_steps = 0
        batch = self.batch = BattleBatch(self.envs[0].cfg,
                                         cfg.parallel_runners)
        limit = batch.cfg.episode_limit
        self._starts = np.arange(cfg.parallel_runners) * limit
        steps = cfg.parallel_runners * limit
        self._log = {name: np.zeros((steps,) + getattr(batch, name).shape[1:],
                                    np.int64) for name in UNIT_FIELDS}
        self._log["actions"] = np.zeros_like(self._log["ally_x"])
        self._log["rewards"] = np.zeros(steps)
        for i, env in enumerate(self.envs):
            env.reset_into(batch, i, int(self.reset_rng.integers(2 ** 31)))

    def tick(self) -> list:
        """Advance every environment one step; return finished episodes."""
        batch = self.batch
        avail, observations = batch.views()
        runners = len(avail)
        actions = greedy_actions(greedy_q(self.net, observations), avail)
        eps = anneal_epsilon(self.env_steps, self.cfg.epsilon_start,
                             self.cfg.epsilon_finish,
                             self.cfg.epsilon_anneal_steps)
        # every agent's uniform, then every explorer's pick among its
        # available actions, both in (runner, agent) order
        explore = self.select_rng.random(actions.shape) < eps
        options = avail[explore]
        k = self.select_rng.integers(options.sum(axis=-1))
        # the explorer's (k + 1)-th available action
        actions[explore] = (options.cumsum(axis=-1) <= k[:, None]).sum(axis=-1)
        log, at = self._log, self._starts + batch.t
        for name in UNIT_FIELDS:
            log[name][at] = getattr(batch, name)
        log["actions"][at] = actions
        rewards, terminated, _ = batch.step(actions)
        self.env_steps += runners
        log["rewards"][at] = rewards
        completed = []
        for i in np.flatnonzero(terminated):
            steps = slice(self._starts[i], at[i] + 1)
            completed.append(Episode(ally_rows=batch.ally_rows[i].copy(),
                                     enemy_perm=batch.enemy_perm[i].copy(),
                                     **{name: column[steps].copy()
                                        for name, column in log.items()}))
            self.envs[i].reset_into(
                batch, i, int(self.reset_rng.integers(2 ** 31)))
        return completed


EVAL_SEED_BASE = 9_000_000


def evaluate_net(net, env_factory, episodes: int = 32) -> float:
    """Greedy win rate of a Q-network: each tick runs one forward over
    every running battle, then steps each battle through its own env."""
    envs = [env_factory(1000 + i) for i in range(episodes)]
    obs = [env.reset(EVAL_SEED_BASE + i)[0] for i, env in enumerate(envs)]
    done = np.zeros(episodes, dtype=bool)
    won = np.zeros(episodes, dtype=bool)
    while not done.all():
        active = np.flatnonzero(~done)
        avail = np.stack([envs[i].available_actions() for i in active])
        observations = [np.array([[getattr(o, name) for o in obs[i]]
                                  for i in active])
                        for name in ("own", "allies", "enemies")]
        actions = greedy_actions(greedy_q(net, observations), avail)
        for pos, i in enumerate(active):
            obs[i], _, _, done[i], info = envs[i].step(actions[pos])
            won[i] = info["win"]
    return float(won.mean())


# ---------------------------------------------------------------------------
# full training loop
# ---------------------------------------------------------------------------

def train_loop(cfg: TrainConfig, env_factory, net_factory,
               mixer: str = "vdn", augment: bool = False,
               augment_copies: int = 1, eval_interval: int = 1000,
               progress=None) -> list[tuple[int, float, float]]:
    """Train one seed to ``cfg.total_env_steps``.

    Returns (env_steps, win_rate, mean_loss) rows, one per evaluation on
    the eval_interval grid.  ``env_factory(tag)`` must build a fresh
    environment; the tag seeds any wrapper randomness.  Fully deterministic
    for a fixed config.
    """
    if eval_interval < 1:  # the evaluation grid would never pass step 0
        raise ValueError(f"eval_interval must be >= 1, got {eval_interval}")
    env_cfg = env_factory(0).cfg
    learner = Learner(cfg, net_factory, env_cfg, mixer)
    runner = ParallelRunner(cfg, env_factory, learner.net)
    buffer = ReplayBuffer(cfg.buffer_size, env_cfg)
    sample_rng = np.random.default_rng([cfg.seed, 5])
    augment_rng = np.random.default_rng([cfg.seed, 6])
    rows: list[tuple[int, float, float]] = []
    losses: list[float] = []
    next_train = cfg.train_interval
    next_eval = eval_interval
    while True:
        for episode in runner.tick():
            buffer.add(episode)
        while next_train <= runner.env_steps:
            next_train += cfg.train_interval
            if len(buffer) >= cfg.batch_episodes:
                batch = buffer.sample(sample_rng, cfg.batch_episodes)
                if augment:
                    batch = augment_experience(batch, augment_copies,
                                               augment_rng)
                losses.append(learner.train_step(batch))
        while (next_eval <= runner.env_steps
               and next_eval <= cfg.total_env_steps):
            win = evaluate_net(learner.net, env_factory)
            mean_loss = float(np.mean(losses)) if losses else float("nan")
            rows.append((next_eval, win, mean_loss))
            losses = []
            if progress is not None:
                progress(rows[-1])
            next_eval += eval_interval
        if runner.env_steps >= cfg.total_env_steps:
            break
    return rows
