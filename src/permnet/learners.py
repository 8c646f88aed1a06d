"""Value-decomposition Q-learning for the micro battle.

One parameter-shared Q-network serves every ally.  Per-agent chosen-action
values are mixed into a team value either by plain summation (VDN) or by a
state-conditioned monotonic mixing network (QMIX).  Targets are TD(lambda)
returns computed backward over whole episodes with double-Q bootstrapping:
the online network picks the argmax action, the hard-updated target copy
evaluates it.  Replay stores whole episodes and samples them uniformly.

``augment_experience`` is a pure data transform: it relabels stored
episodes under random ally/enemy permutations (observation rows, the state
entity blocks, availability masks, and attack-action indices all move
together) so a transition keeps describing the same event under a
different entity naming.

Rollouts run as lockstep batched environments: every runner steps once per
tick, network forwards are batched across runners, and completed episodes
merge in runner-index order, so training is bitwise reproducible per seed.
"""

from __future__ import annotations

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
    mul,
    no_grad,
    reduce_sum,
    relu,
    reshape,
    take_index,
)
from .env import ENTITY_FEATURES, N_MOVE_ACTIONS, OWN_FEATURES, ObservationSet
from .layers import NEG_MASK, Linear, Mlp, Module


# ---------------------------------------------------------------------------
# data containers
# ---------------------------------------------------------------------------

@dataclass
class Transition:
    """One team step: per-agent observations and actions, shared reward."""

    obs: list
    state: np.ndarray
    actions: np.ndarray
    reward: float
    avail: np.ndarray
    terminal: bool

    def __post_init__(self):
        self.actions = np.asarray(self.actions, dtype=np.int64)
        for i, a in enumerate(self.actions):
            if not self.avail[i, a]:
                raise ValueError(
                    f"recorded action {int(a)} unavailable for agent {i}")


# an episode is a time-ordered list of Transitions ending on a terminal
# step; an EpisodeBatch is a list of episodes
EpisodeBatch = list


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
    mixing_embed_dim: int = 32
    hypernet_embed: int = 64
    total_env_steps: int = 200_000
    train_interval: int = 16
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.td_lambda <= 1.0:
            raise ValueError(f"td_lambda {self.td_lambda} outside [0, 1]")
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError(f"gamma {self.gamma} outside (0, 1]")


# ---------------------------------------------------------------------------
# mixers
# ---------------------------------------------------------------------------

def vdn_mix(per_agent_q):
    """Team value as the sum of per-agent chosen-action values.

    Accepts a list of scalar tensors (or floats) or a single tensor whose
    last axis indexes agents; the sum runs over that axis.
    """
    if isinstance(per_agent_q, Tensor):
        return reduce_sum(per_agent_q, axis=-1)
    if len(per_agent_q) == 0:
        raise ValueError("nothing to mix: empty per-agent value list")
    total = None
    for q in per_agent_q:
        q = q if isinstance(q, Tensor) else Tensor(q)
        total = q if total is None else add(total, q)
    return total


class QmixMixer(Module):
    """State-conditioned monotonic mixer.

    Q_tot = |w2(s)| . relu(|w1(s)| . q + b1(s)) + v(s).  The absolute value
    on both mixing weight layers makes dQ_tot/dq_i >= 0 for every agent;
    biases stay unconstrained.
    """

    def __init__(self, rng: np.random.Generator, n_agents: int,
                 state_dim: int, embed: int = 32, hypernet_embed: int = 64):
        self.n_agents = n_agents
        self.state_dim = state_dim
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
        if state.shape[-1] != self.state_dim:
            raise ShapeError(
                f"state width {state.shape[-1]} != {self.state_dim}")
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


def epsilon_greedy_select(q_values, available, epsilon: float,
                          rng: np.random.Generator | None = None) -> int:
    """Masked argmax, or a uniform available action with probability eps."""
    q = np.asarray(getattr(q_values, "data", q_values), dtype=np.float64)
    avail = np.asarray(available, dtype=bool)
    open_actions = np.flatnonzero(avail)
    if open_actions.size == 0:
        raise ValueError("no available actions to select from")
    if epsilon > 0.0 and rng.random() < epsilon:
        return int(open_actions[rng.integers(open_actions.size)])
    return int(np.argmax(np.where(avail, q, NEG_MASK)))


# ---------------------------------------------------------------------------
# replay and augmentation
# ---------------------------------------------------------------------------

class ReplayBuffer:
    """Whole-episode store; uniform episode sampling without replacement."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self._episodes: list = []

    def __len__(self) -> int:
        return len(self._episodes)

    def add(self, episode: list):
        if not episode:
            raise ValueError("refusing to store an empty episode")
        self._episodes.append(episode)
        if len(self._episodes) > self.capacity:
            del self._episodes[0]

    def sample(self, rng: np.random.Generator, k: int) -> list:
        count = min(k, len(self._episodes))
        idx = rng.choice(len(self._episodes), size=count, replace=False)
        return [self._episodes[i] for i in idx]


def relabel_episode(episode: list, ally_perm: np.ndarray,
                    enemy_perm: np.ndarray) -> list:
    """Rename the team and enemy indices of every transition in an episode.

    New agent p is old agent ally_perm[p]; new enemy row j is old enemy
    enemy_perm[j].  Observation rows, state entity blocks, availability
    masks, and attack-action indices all move together, so each transition
    still records the same event.
    """
    ally_perm = np.asarray(ally_perm, dtype=np.int64)
    enemy_perm = np.asarray(enemy_perm, dtype=np.int64)
    n = len(episode[0].obs)
    m = episode[0].obs[0].enemies.shape[0]
    inv_enemy = np.argsort(enemy_perm)
    out = []
    for tr in episode:
        if len(tr.obs) != n or any(o.enemies.shape[0] != m for o in tr.obs):
            raise ValueError("inconsistent group sizes within the episode")
        obs = []
        for p in range(n):
            src = tr.obs[ally_perm[p]]
            # ally rows list the *other* allies in index order; renaming the
            # team changes both which rows appear and how they sort
            rows = [int(ally_perm[q]) - int(ally_perm[q] > ally_perm[p])
                    for q in range(n) if q != p]
            obs.append(ObservationSet(src.own, src.allies[rows],
                                      src.enemies[enemy_perm]))
        actions = np.empty(n, dtype=np.int64)
        avail = np.empty_like(tr.avail)
        for p in range(n):
            a = int(tr.actions[ally_perm[p]])
            if a >= N_MOVE_ACTIONS:
                a = N_MOVE_ACTIONS + int(inv_enemy[a - N_MOVE_ACTIONS])
            actions[p] = a
            row = tr.avail[ally_perm[p]].copy()
            row[N_MOVE_ACTIONS:] = tr.avail[ally_perm[p],
                                            N_MOVE_ACTIONS + enemy_perm]
            avail[p] = row
        entity = tr.state.reshape(n + m, ENTITY_FEATURES)
        state = np.concatenate([entity[:n][ally_perm],
                                entity[n:][enemy_perm]]).reshape(-1)
        out.append(Transition(obs, state, actions, tr.reward, avail,
                              tr.terminal))
    return out


def augment_experience(episodes: list, num_permutations: int,
                       rng: np.random.Generator) -> list:
    """Originals plus num_permutations random relabelings of each episode.

    One ally permutation and one enemy permutation are drawn per copy and
    applied to every transition of that episode.
    """
    out = list(episodes)
    for episode in episodes:
        if not episode:
            raise ValueError("cannot augment an empty episode")
        n = len(episode[0].obs)
        m = episode[0].obs[0].enemies.shape[0]
        for _ in range(num_permutations):
            out.append(relabel_episode(episode, rng.permutation(n),
                                       rng.permutation(m)))
    return out


# ---------------------------------------------------------------------------
# learner
# ---------------------------------------------------------------------------

def copy_parameters(src: dict[str, Tensor], dst: dict[str, Tensor]):
    for name, p in dst.items():
        p.data[...] = src[name].data


def _net_forward(net, own: Tensor, allies: Tensor, enemies: Tensor,
                 rng: np.random.Generator | None = None,
                 deterministic: bool = True) -> Tensor:
    return net.forward_batch(own, allies, enemies, rng=rng,
                             deterministic=deterministic)


def _stack_episodes(episodes: list) -> dict[str, np.ndarray]:
    """Zero-pad episodes to a common horizon and stack into flat arrays.

    Padded steps carry all-zero observations, reward 0, and a noop-only
    availability row so downstream argmaxes stay well defined; the returned
    ``mask`` flags real steps.
    """
    batch = len(episodes)
    horizon = max(len(e) for e in episodes)
    first = episodes[0][0]
    n = len(first.obs)
    m = first.obs[0].enemies.shape[0]
    n_actions = first.avail.shape[1]
    k = ENTITY_FEATURES
    own = np.zeros((batch, horizon, n, OWN_FEATURES))
    allies = np.zeros((batch, horizon, n, n - 1, k))
    enemies = np.zeros((batch, horizon, n, m, k))
    state = np.zeros((batch, horizon, first.state.shape[0]))
    actions = np.zeros((batch, horizon, n), dtype=np.int64)
    avail = np.zeros((batch, horizon, n, n_actions), dtype=bool)
    avail[..., 0] = True
    rewards = np.zeros((batch, horizon))
    mask = np.zeros((batch, horizon))
    for b, episode in enumerate(episodes):
        for t, tr in enumerate(episode):
            for i, o in enumerate(tr.obs):
                own[b, t, i] = o.own
                allies[b, t, i] = o.allies
                enemies[b, t, i] = o.enemies
            state[b, t] = tr.state
            actions[b, t] = tr.actions
            avail[b, t] = tr.avail
            rewards[b, t] = tr.reward
            mask[b, t] = 1.0
    return {"own": own, "allies": allies, "enemies": enemies,
            "state": state, "actions": actions, "avail": avail,
            "rewards": rewards, "mask": mask}


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
        self.mixer_kind = mixer
        self.net = net_factory(np.random.default_rng([cfg.seed, 1]))
        self.target_net = net_factory(np.random.default_rng([cfg.seed, 1]))
        if mixer == "qmix":
            self.mixer = QmixMixer(np.random.default_rng([cfg.seed, 2]),
                                   env_cfg.n_allies, env_cfg.state_dim,
                                   cfg.mixing_embed_dim, cfg.hypernet_embed)
            self.target_mixer = QmixMixer(
                np.random.default_rng([cfg.seed, 2]),
                env_cfg.n_allies, env_cfg.state_dim,
                cfg.mixing_embed_dim, cfg.hypernet_embed)
        else:
            self.mixer = None
            self.target_mixer = None
        self.params = self.net.named_parameters()
        if self.mixer is not None:
            self.params.update(self.mixer.named_parameters("mixer."))
        self.opt = AdamState(lr=cfg.lr)
        self.train_steps = 0
        # noisy canonicalization during the gradient forward only
        self.forward_rng = np.random.default_rng([cfg.seed, 3])
        self._sync_target()

    def _target_params(self) -> dict[str, Tensor]:
        params = self.target_net.named_parameters()
        if self.target_mixer is not None:
            params.update(self.target_mixer.named_parameters("mixer."))
        return params

    def _sync_target(self):
        copy_parameters(self.params, self._target_params())

    def _mix(self, chosen: Tensor, state: np.ndarray, mixer) -> Tensor:
        """(B, T, n) chosen values -> (B, T) team values."""
        b, t, n = chosen.shape
        if mixer is None:
            return vdn_mix(chosen)
        flat = mixer(reshape(chosen, (b * t, n)),
                     Tensor(state.reshape(b * t, -1)))
        return reshape(flat, (b, t))

    def train_step(self, episodes: list) -> float:
        """One gradient update on a batch of episodes; returns the loss."""
        if not episodes:
            raise ValueError("empty training batch")
        data = _stack_episodes(episodes)
        batch, horizon, n = data["actions"].shape
        n_actions = data["avail"].shape[-1]
        rows = batch * horizon * n
        own = Tensor(data["own"].reshape(rows, OWN_FEATURES))
        allies = Tensor(data["allies"].reshape(rows, n - 1, ENTITY_FEATURES))
        enemies = Tensor(data["enemies"].reshape(
            rows, data["enemies"].shape[-2], ENTITY_FEATURES))

        with no_grad():
            q_target = _net_forward(self.target_net, own, allies, enemies,
                                    deterministic=True).data
        q = _net_forward(self.net, own, allies, enemies,
                         rng=self.forward_rng, deterministic=False)
        if self.net.noisy_grad_forward:
            with no_grad():
                q_online = _net_forward(self.net, own, allies, enemies,
                                        deterministic=True).data
        else:
            # same ops and values as a greedy forward: reuse them
            q_online = q.data
        q_online = q_online.reshape(batch, horizon, n, n_actions)
        q_target = q_target.reshape(batch, horizon, n, n_actions)
        best = np.where(data["avail"], q_online, NEG_MASK).argmax(axis=-1)
        chosen_target = np.take_along_axis(
            q_target, best[..., None], axis=-1)[..., 0]
        if self.target_mixer is None:
            values = chosen_target.sum(axis=-1)
        else:
            with no_grad():
                values = self.target_mixer(
                    Tensor(chosen_target.reshape(batch * horizon, n)),
                    Tensor(data["state"].reshape(batch * horizon, -1))
                ).data.reshape(batch, horizon)
        values = values * data["mask"]
        next_values = np.zeros_like(values)
        next_values[:, :-1] = values[:, 1:]
        targets = td_lambda_targets(data["rewards"], next_values,
                                    self.cfg.gamma, self.cfg.td_lambda)

        chosen = reshape(take_index(q, data["actions"].reshape(rows)),
                         (batch, horizon, n))
        q_tot = self._mix(chosen, data["state"], self.mixer)
        diff = q_tot - Tensor(targets)
        masked_sq = mul(mul(diff, diff), Tensor(data["mask"]))
        loss = mul(reduce_sum(masked_sq),
                   Tensor(1.0 / float(data["mask"].sum())))
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

    Every runner steps its own environment once per tick; agent forwards
    are batched across runners and actions drawn from one shared stream in
    runner-index order, so collection is deterministic.  Runner i seeds its
    episode stream with seed XOR i.
    """

    def __init__(self, cfg: TrainConfig, env_factory, net):
        self.cfg = cfg
        self.net = net
        self.envs = [env_factory(i) for i in range(cfg.parallel_runners)]
        self.streams = [np.random.default_rng(cfg.seed ^ i)
                        for i in range(cfg.parallel_runners)]
        self.select_rng = np.random.default_rng([cfg.seed, 4])
        self.env_steps = 0
        self._partial = [[] for _ in self.envs]
        self._obs = []
        self._state = []
        for i, env in enumerate(self.envs):
            obs, state = env.reset(int(self.streams[i].integers(2 ** 31)))
            self._obs.append(obs)
            self._state.append(state)

    def tick(self) -> list:
        """Advance every environment one step; return finished episodes."""
        n = self.envs[0].cfg.n_allies
        avail = [env.available_actions() for env in self.envs]
        own = np.stack([o.own for obs in self._obs for o in obs])
        allies = np.stack([o.allies for obs in self._obs for o in obs])
        enemies = np.stack([o.enemies for obs in self._obs for o in obs])
        with no_grad():
            q = _net_forward(self.net, Tensor(own), Tensor(allies),
                             Tensor(enemies), deterministic=True).data
        eps = anneal_epsilon(self.env_steps, self.cfg.epsilon_start,
                             self.cfg.epsilon_finish,
                             self.cfg.epsilon_anneal_steps)
        completed = []
        for i, env in enumerate(self.envs):
            actions = np.array(
                [epsilon_greedy_select(q[i * n + j], avail[i][j], eps,
                                       self.select_rng)
                 for j in range(n)], dtype=np.int64)
            obs, state, reward, terminated, info = env.step(actions)
            self._partial[i].append(Transition(
                self._obs[i], self._state[i], actions, reward,
                avail[i], terminated))
            self.env_steps += 1
            if terminated:
                completed.append(self._partial[i])
                self._partial[i] = []
                obs, state = env.reset(
                    int(self.streams[i].integers(2 ** 31)))
            self._obs[i] = obs
            self._state[i] = state
        return completed


EVAL_SEED_BASE = 9_000_000


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


def evaluate_net(net, env_factory, episodes: int = 32,
                 seed_base: int = EVAL_SEED_BASE) -> float:
    """Batched-lockstep greedy evaluation of a Q-network."""
    envs = [env_factory(1000 + i) for i in range(episodes)]
    n = envs[0].cfg.n_allies
    obs = []
    for i, env in enumerate(envs):
        o, _ = env.reset(seed_base + i)
        obs.append(o)
    done = np.zeros(episodes, dtype=bool)
    won = np.zeros(episodes, dtype=bool)
    while not done.all():
        active = np.flatnonzero(~done)
        avails = [envs[i].available_actions() for i in active]
        own = np.stack([o.own for i in active for o in obs[i]])
        allies = np.stack([o.allies for i in active for o in obs[i]])
        enemies = np.stack([o.enemies for i in active for o in obs[i]])
        with no_grad():
            q = _net_forward(net, Tensor(own), Tensor(allies),
                             Tensor(enemies), deterministic=True).data
        q = q.reshape(len(active), n, -1)
        for pos, i in enumerate(active):
            actions = np.array(
                [int(np.argmax(np.where(avails[pos][j], q[pos, j],
                                        NEG_MASK)))
                 for j in range(n)], dtype=np.int64)
            o, _, _, terminated, info = envs[i].step(actions)
            obs[i] = o
            if terminated:
                done[i] = True
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
    env_cfg = env_factory(0).cfg
    learner = Learner(cfg, net_factory, env_cfg, mixer)
    runner = ParallelRunner(cfg, env_factory, learner.net)
    buffer = ReplayBuffer(cfg.buffer_size)
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
