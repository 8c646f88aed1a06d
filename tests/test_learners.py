"""Mixers, TD(lambda) targets, exploration, replay, relabeling, training."""

import numpy as np
import pytest

from permnet import learners
from permnet.autodiff import (
    ShapeError,
    Tensor,
    adam_step,
    grad_check,
    mul,
    no_grad,
    reduce_sum,
    reshape,
    take_index,
)
from permnet.baselines import ConcatAgentNet
from permnet.cli import env_factory_for, net_factory_for
from permnet.env import (
    ACTION_STOP,
    ENTITY_FEATURES,
    N_MOVE_ACTIONS,
    PRESETS,
    MicroBattleEnv,
    ObservationSet,
    always_lose_policy,
    focus_fire_policy,
)
from permnet.hpn import HpnAgentNet
from permnet.layers import NEG_MASK
from permnet.learners import (
    Episode,
    Learner,
    ParallelRunner,
    QmixMixer,
    ReplayBuffer,
    TrainConfig,
    anneal_epsilon,
    augment_experience,
    epsilon_greedy_select,
    evaluate,
    evaluate_net,
    relabel_episode,
    td_lambda_targets,
    train_loop,
    vdn_mix,
)

K = ENTITY_FEATURES


def step_columns(obs, state, actions, avail, reward):
    """One step as the per-field values an Episode stacks over time."""
    return (np.stack([o.own for o in obs]), np.stack([o.allies for o in obs]),
            np.stack([o.enemies for o in obs]), state,
            np.asarray(actions, dtype=np.int64), avail, reward)


def episode_of(steps):
    return Episode(*map(np.stack, zip(*steps)))


def step_obs(episode, t, i):
    """Agent i's observation at step t of an episode."""
    return ObservationSet(episode.own[t, i], episode.allies[t, i],
                          episode.enemies[t, i])


def assert_same_arrays(got: dict, want: dict):
    assert got.keys() == want.keys()
    for name in want:
        assert got[name].dtype == want[name].dtype, name
        assert got[name].shape == want[name].shape, name
        assert got[name].tobytes() == want[name].tobytes(), name


def rollout_episode(seed, policy=None, cfg=PRESETS["3v3"]):
    """Collect one full episode from the battle env."""
    env = MicroBattleEnv(cfg)
    obs, state = env.reset(seed)
    rng = np.random.default_rng(seed + 1)
    steps = []
    terminated = False
    while not terminated:
        avail = env.available_actions()
        if policy is None:
            actions = np.array([rng.choice(np.flatnonzero(avail[i]))
                                for i in range(cfg.n_allies)])
        else:
            actions = policy(env, avail)
        next_obs, next_state, reward, terminated, _ = env.step(actions)
        steps.append(step_columns(obs, state, actions, avail, reward))
        obs, state = next_obs, next_state
    return episode_of(steps)


# -- containers --------------------------------------------------------


def test_train_config_validation():
    TrainConfig()
    with pytest.raises(ValueError, match="td_lambda"):
        TrainConfig(td_lambda=1.2)
    with pytest.raises(ValueError, match="td_lambda"):
        TrainConfig(td_lambda=-0.1)
    with pytest.raises(ValueError, match="gamma"):
        TrainConfig(gamma=0.0)
    with pytest.raises(ValueError, match="gamma"):
        TrainConfig(gamma=1.5)


# -- VDN ---------------------------------------------------------------


def test_vdn_mix_examples():
    assert vdn_mix([1.0, 2.0, 3.0]).item() == 6.0
    assert vdn_mix([0.0, 0.0, 0.0]).item() == 0.0
    with pytest.raises(ValueError, match="empty"):
        vdn_mix([])


def test_vdn_mix_permutation_invariant():
    rng = np.random.default_rng(0)
    values = list(rng.normal(size=5))
    base = vdn_mix(values).item()
    assert vdn_mix(values[::-1]).item() == pytest.approx(base, abs=1e-12)


def test_vdn_mix_tensor_axis_form():
    q = Tensor(np.arange(12, dtype=np.float64).reshape(2, 2, 3))
    out = vdn_mix(q)
    assert out.shape == (2, 2)
    assert np.array_equal(out.data, q.data.sum(axis=-1))


# -- QMIX --------------------------------------------------------------


def make_mixer(seed=0, n=3, state_dim=8, embed=4, hyper=8):
    return QmixMixer(np.random.default_rng(seed), n, state_dim, embed, hyper)


def test_qmix_monotonicity_1000_probes():
    mixer = make_mixer(1)
    rng = np.random.default_rng(2)
    qs = rng.normal(size=(1000, 3))
    states = rng.normal(size=(1000, 8))
    base = mixer(Tensor(qs), Tensor(states)).data
    for agent in range(3):
        bump = qs.copy()
        bump[:, agent] += 1e-3
        shifted = mixer(Tensor(bump), Tensor(states)).data
        assert (shifted - base >= 0.0).all()


def test_qmix_degenerates_to_vdn():
    mixer = make_mixer(3, n=3, state_dim=5, embed=1, hyper=4)
    for head in (mixer.hyper_w1, mixer.hyper_w2):
        head.layers[-1].weight.data[...] = 0.0
        head.layers[-1].bias.data[...] = 1.0
    mixer.hyper_b1.weight.data[...] = 0.0
    mixer.hyper_b1.bias.data[...] = 0.0
    mixer.value.layers[-1].weight.data[...] = 0.0
    mixer.value.layers[-1].bias.data[...] = 0.0
    rng = np.random.default_rng(4)
    qs = rng.uniform(0.0, 2.0, size=(16, 3))
    states = rng.normal(size=(16, 5))
    out = mixer(Tensor(qs), Tensor(states)).data
    assert np.allclose(out, qs.sum(axis=1), atol=1e-12)


def test_qmix_shape_errors():
    mixer = make_mixer(5)
    with pytest.raises(ShapeError, match="state width"):
        mixer(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 9))))
    with pytest.raises(ShapeError, match="agent values"):
        mixer(Tensor(np.zeros((2, 4))), Tensor(np.zeros((2, 8))))


def test_qmix_grad_check():
    mixer = make_mixer(6)
    rng = np.random.default_rng(7)
    qs = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    states = Tensor(rng.normal(size=(4, 8)), requires_grad=True)
    params = list(mixer.named_parameters().values()) + [qs, states]

    def f(*_):
        return reduce_sum(mixer(qs, states))

    assert grad_check(f, params) < 1e-4


# -- TD(lambda) --------------------------------------------------------


def forward_view_targets(rewards, next_values, gamma, lam):
    """Weighted n-step return sum, the independent oracle."""
    horizon = len(rewards)
    out = np.zeros(horizon)
    for t in range(horizon):
        total = 0.0
        for nstep in range(1, horizon - t + 1):
            g = sum(gamma ** k * rewards[t + k] for k in range(nstep))
            g += gamma ** nstep * next_values[t + nstep - 1]
            if t + nstep < horizon:
                total += (1.0 - lam) * lam ** (nstep - 1) * g
            else:
                total += lam ** (nstep - 1) * g
        out[t] = total
    return out


def test_td_lambda_hand_case():
    targets = td_lambda_targets([1.0, 1.0], [0.0, 0.0], 0.9, 0.5)
    assert targets[1] == 1.0
    assert targets[0] == pytest.approx(1.45, abs=1e-12)


def test_td_lambda_degeneracies():
    rng = np.random.default_rng(8)
    rewards = rng.normal(size=7)
    next_values = rng.normal(size=7)
    one_step = td_lambda_targets(rewards, next_values, 0.9, 0.0)
    assert np.allclose(one_step, rewards + 0.9 * next_values, atol=0)
    zeroed = next_values.copy()
    zeroed[-1] = 0.0
    mc = td_lambda_targets(rewards, zeroed, 0.9, 1.0)
    expected = np.zeros(7)
    acc = 0.0
    for t in range(6, -1, -1):
        acc = rewards[t] + 0.9 * acc
        expected[t] = acc
    assert np.allclose(mc, expected, atol=1e-14)


def test_td_lambda_matches_forward_view():
    rng = np.random.default_rng(9)
    for _ in range(1000):
        horizon = int(rng.integers(1, 11))
        rewards = rng.normal(size=horizon)
        next_values = rng.normal(size=horizon)
        gamma = rng.uniform(0.5, 1.0)
        lam = rng.uniform(0.0, 1.0)
        backward = td_lambda_targets(rewards, next_values, gamma, lam)
        forward = forward_view_targets(rewards, next_values, gamma, lam)
        assert np.abs(backward - forward).max() < 1e-10


def test_td_lambda_batch_matches_rows():
    rng = np.random.default_rng(10)
    rewards = rng.normal(size=(5, 6))
    next_values = rng.normal(size=(5, 6))
    batched = td_lambda_targets(rewards, next_values, 0.95, 0.6)
    for b in range(5):
        row = td_lambda_targets(rewards[b], next_values[b], 0.95, 0.6)
        assert np.array_equal(batched[b], row)


def test_td_lambda_errors():
    with pytest.raises(ValueError, match="empty"):
        td_lambda_targets(np.zeros(0), np.zeros(0), 0.9, 0.5)
    with pytest.raises(ShapeError):
        td_lambda_targets(np.zeros(3), np.zeros(4), 0.9, 0.5)


# -- exploration -------------------------------------------------------


def test_anneal_schedule():
    assert anneal_epsilon(0) == 1.0
    assert anneal_epsilon(50_000) == pytest.approx(0.525, abs=1e-12)
    assert anneal_epsilon(100_000) == pytest.approx(0.05, abs=1e-12)
    assert anneal_epsilon(250_000) == pytest.approx(0.05, abs=1e-12)


def test_epsilon_zero_is_masked_argmax():
    q = np.array([5.0, 1.0, 3.0, 2.0])
    avail = np.array([False, True, True, True])
    assert epsilon_greedy_select(q, avail, 0.0) == 2


def test_epsilon_one_is_uniform_over_available():
    rng = np.random.default_rng(11)
    q = np.zeros(9)
    avail = np.zeros(9, dtype=bool)
    avail[[1, 3, 4, 7]] = True
    counts = np.zeros(9)
    for _ in range(100_000):
        counts[epsilon_greedy_select(q, avail, 1.0, rng)] += 1
    freqs = counts / 100_000
    assert counts[~avail].sum() == 0
    assert np.abs(freqs[[1, 3, 4, 7]] - 0.25).max() < 0.01


def test_epsilon_all_unavailable_raises():
    with pytest.raises(ValueError, match="available"):
        epsilon_greedy_select(np.zeros(4), np.zeros(4, dtype=bool), 0.0)


# -- replay ------------------------------------------------------------


def test_replay_buffer_eviction_and_sampling():
    buf = ReplayBuffer(capacity=3)
    episodes = [[("ep", i)] for i in range(5)]
    for ep in episodes:
        buf.add(ep)
    assert len(buf) == 3
    sampled = buf.sample(np.random.default_rng(12), 10)
    assert len(sampled) == 3
    kept = {ep[0][1] for ep in sampled}
    assert kept == {2, 3, 4}
    with pytest.raises(ValueError, match="empty"):
        buf.add([])


# -- augmentation ------------------------------------------------------


def test_relabel_identity_is_noop():
    episode = rollout_episode(100)
    same = relabel_episode(episode, np.arange(3), np.arange(3))
    assert_same_arrays(vars(same), vars(episode))


def test_relabel_translates_attack_actions():
    env = MicroBattleEnv(PRESETS["3v3"])
    obs, state = env.reset(101)
    avail = env.available_actions()
    avail = avail.copy()
    avail[:, N_MOVE_ACTIONS:] = True     # open all attacks for the check
    actions = np.array([N_MOVE_ACTIONS + 0, ACTION_STOP, ACTION_STOP])
    episode = episode_of([step_columns(obs, state, actions, avail, 0.0)])
    out = relabel_episode(episode, np.arange(3), np.array([1, 0, 2]))
    assert out.actions[0, 0] == N_MOVE_ACTIONS + 1
    assert out.actions[0, 1] == ACTION_STOP


def reference_relabel(episode, ally_perm, enemy_perm):
    """The per-step, per-agent relabeling loop that relabel_episode's
    fancy indexing replaces."""
    n, m = len(ally_perm), len(enemy_perm)
    inv_enemy = np.argsort(enemy_perm)
    steps = []
    for t in range(len(episode)):
        obs = []
        for p in range(n):
            src = step_obs(episode, t, ally_perm[p])
            rows = [int(ally_perm[q]) - int(ally_perm[q] > ally_perm[p])
                    for q in range(n) if q != p]
            obs.append(ObservationSet(src.own, src.allies[rows],
                                      src.enemies[enemy_perm]))
        actions = np.empty(n, dtype=np.int64)
        avail = np.empty_like(episode.avail[t])
        for p in range(n):
            a = int(episode.actions[t, ally_perm[p]])
            if a >= N_MOVE_ACTIONS:
                a = N_MOVE_ACTIONS + int(inv_enemy[a - N_MOVE_ACTIONS])
            actions[p] = a
            row = episode.avail[t, ally_perm[p]].copy()
            row[N_MOVE_ACTIONS:] = episode.avail[t, ally_perm[p],
                                                 N_MOVE_ACTIONS + enemy_perm]
            avail[p] = row
        entity = episode.state[t].reshape(n + m, K)
        state = np.concatenate([entity[:n][ally_perm],
                                entity[n:][enemy_perm]]).reshape(-1)
        steps.append(step_columns(obs, state, actions, avail,
                                  episode.rewards[t]))
    return episode_of(steps)


@pytest.mark.parametrize("preset", ["3v3", "5v6"])
def test_relabel_matches_per_step_reference_bitwise(preset):
    cfg = PRESETS[preset]
    rng = np.random.default_rng(19)
    for seed in range(150, 160):
        episode = rollout_episode(seed, cfg=cfg)
        ally_perm = rng.permutation(cfg.n_allies)
        enemy_perm = rng.permutation(cfg.n_enemies)
        relabeled = relabel_episode(episode, ally_perm, enemy_perm)
        assert_same_arrays(vars(relabeled),
                           vars(reference_relabel(episode, ally_perm,
                                                  enemy_perm)))
        restored = relabel_episode(relabeled, np.argsort(ally_perm),
                                   np.argsort(enemy_perm))
        assert_same_arrays(vars(restored), vars(episode))


def test_relabel_matches_equivariant_network_exactly():
    """A relabeled step must look to an order-free network like the
    original with rows renamed: move Q rows permuted by the ally renaming,
    attack Q entries additionally permuted by the enemy renaming, and the
    chosen-action scalar unchanged."""
    net = HpnAgentNet(np.random.default_rng(13), 3, 3)
    rng = np.random.default_rng(14)
    checked = 0
    seed = 200
    while checked < 100:
        episode = rollout_episode(seed)
        seed += 1
        ally_perm = rng.permutation(3)
        enemy_perm = rng.permutation(3)
        relabeled = relabel_episode(episode, ally_perm, enemy_perm)
        for t in range(len(episode)):
            q_old = [net.forward(step_obs(episode, t, i)).data
                     for i in range(3)]
            q_new = [net.forward(step_obs(relabeled, t, i)).data
                     for i in range(3)]
            for p in range(3):
                src = q_old[ally_perm[p]]
                assert np.array_equal(q_new[p][:N_MOVE_ACTIONS],
                                      src[:N_MOVE_ACTIONS])
                assert np.array_equal(
                    q_new[p][N_MOVE_ACTIONS:],
                    src[N_MOVE_ACTIONS:][enemy_perm])
                assert (q_new[p][relabeled.actions[t, p]]
                        == src[episode.actions[t, ally_perm[p]]])
            checked += 1
            if checked >= 100:
                break


def test_augment_grows_batch_and_validates():
    episodes = [rollout_episode(300), rollout_episode(301)]
    rng = np.random.default_rng(15)
    grown = augment_experience(episodes, 2, rng)
    assert len(grown) == 6
    assert grown[0] is episodes[0] and grown[1] is episodes[1]
    with pytest.raises(ValueError, match="empty"):
        augment_experience([[]], 1, rng)


# -- learner -----------------------------------------------------------


def small_cfg(**kw):
    defaults = dict(batch_episodes=2, target_update_interval=5,
                    parallel_runners=2, total_env_steps=400,
                    train_interval=50, epsilon_anneal_steps=200, seed=0)
    defaults.update(kw)
    return TrainConfig(**defaults)


def concat_factory(rng):
    return ConcatAgentNet(rng, 3, 3)


def plain_env_factory(tag):
    return MicroBattleEnv(PRESETS["3v3"])


def test_learner_overfits_single_transition():
    env = MicroBattleEnv(PRESETS["3v3"])
    obs, state = env.reset(400)
    avail = env.available_actions()
    actions = focus_fire_policy(env, avail)
    _, _, reward, _, _ = env.step(actions)
    episode = episode_of([step_columns(obs, state, actions, avail, reward)])
    learner = Learner(small_cfg(target_update_interval=10**9),
                      concat_factory, env.cfg, mixer="vdn")
    loss = np.inf
    for _ in range(2000):
        loss = learner.train_step([episode])
        if loss < 1e-3:
            break
    assert loss < 1e-3


def test_learner_deterministic_losses():
    episodes = [rollout_episode(500 + i) for i in range(3)]
    runs = []
    for _ in range(2):
        learner = Learner(small_cfg(), concat_factory,
                          PRESETS["3v3"], mixer="vdn")
        runs.append([learner.train_step(episodes) for _ in range(100)])
    assert runs[0] == runs[1]


def test_learner_initial_loss_finite():
    episodes = [rollout_episode(600 + i) for i in range(4)]
    for mixer in ("vdn", "qmix"):
        learner = Learner(small_cfg(), concat_factory,
                          PRESETS["3v3"], mixer=mixer)
        assert np.isfinite(learner.train_step(episodes))


def test_learner_nan_aborts():
    episodes = [rollout_episode(700)]
    learner = Learner(small_cfg(), concat_factory, PRESETS["3v3"])
    next(iter(learner.params.values())).data[...] = np.nan
    with pytest.raises(FloatingPointError):
        learner.train_step(episodes)


def test_learner_rejects_bad_inputs():
    learner = Learner(small_cfg(), concat_factory, PRESETS["3v3"])
    with pytest.raises(ValueError, match="empty"):
        learner.train_step([])
    with pytest.raises(ValueError, match="mixer"):
        Learner(small_cfg(), concat_factory, PRESETS["3v3"], mixer="mean")


def test_target_network_hard_update_cadence():
    episodes = [rollout_episode(800 + i) for i in range(2)]
    learner = Learner(small_cfg(target_update_interval=5),
                      concat_factory, PRESETS["3v3"])
    name = next(iter(learner.params))
    for step in range(1, 6):
        learner.train_step(episodes)
        online = learner.params[name].data
        target = learner._target_params()[name].data
        if step < 5:
            assert not np.array_equal(online, target)
        else:
            assert np.array_equal(online, target)


def test_qmix_learner_updates_mixer_parameters():
    episodes = [rollout_episode(900 + i) for i in range(2)]
    learner = Learner(small_cfg(), concat_factory, PRESETS["3v3"],
                      mixer="qmix")
    before = {k: v.data.copy() for k, v in learner.params.items()
              if k.startswith("mixer.")}
    learner.train_step(episodes)
    moved = any(not np.array_equal(learner.params[k].data, v)
                for k, v in before.items())
    assert moved


def reference_stack(episodes):
    """The batch x step x agent loop that _stack_episodes' one copy per
    field per episode replaces."""
    batch = len(episodes)
    horizon = max(len(e) for e in episodes)
    _, n, m, _ = episodes[0].enemies.shape
    n_actions = episodes[0].avail.shape[-1]
    own = np.zeros((batch, horizon, n, episodes[0].own.shape[-1]))
    allies = np.zeros((batch, horizon, n, n - 1, K))
    enemies = np.zeros((batch, horizon, n, m, K))
    state = np.zeros((batch, horizon, episodes[0].state.shape[-1]))
    actions = np.zeros((batch, horizon, n), dtype=np.int64)
    avail = np.zeros((batch, horizon, n, n_actions), dtype=bool)
    avail[..., 0] = True
    rewards = np.zeros((batch, horizon))
    mask = np.zeros((batch, horizon))
    for b, episode in enumerate(episodes):
        for t in range(len(episode)):
            for i in range(n):
                o = step_obs(episode, t, i)
                own[b, t, i] = o.own
                allies[b, t, i] = o.allies
                enemies[b, t, i] = o.enemies
            state[b, t] = episode.state[t]
            actions[b, t] = episode.actions[t]
            avail[b, t] = episode.avail[t]
            rewards[b, t] = episode.rewards[t]
            mask[b, t] = 1.0
    return {"own": own, "allies": allies, "enemies": enemies,
            "state": state, "actions": actions, "avail": avail,
            "rewards": rewards, "mask": mask}


def collect_episodes(preset, shuffle, count, seed=21):
    cfg = PRESETS[preset]
    net = net_factory_for("concat", cfg)(np.random.default_rng(seed))
    runner = ParallelRunner(small_cfg(parallel_runners=3, seed=seed),
                            env_factory_for(preset, shuffle, seed), net)
    episodes = []
    while len(episodes) < count:
        episodes.extend(runner.tick())
    return episodes


@pytest.mark.parametrize("preset, shuffle", [("3v3", True), ("5v6", False)])
def test_stack_episodes_matches_per_step_reference_bitwise(preset, shuffle):
    episodes = collect_episodes(preset, shuffle, 6)
    assert len({len(e) for e in episodes}) > 1    # padding is exercised
    assert_same_arrays(learners._stack_episodes(episodes),
                       reference_stack(episodes))


def three_forward_train_step(learner, episodes):
    """Reference VDN update with its own greedy online forward: online,
    target and grad forwards, in that order, for any agent net."""
    cfg = learner.cfg
    data = learners._stack_episodes(episodes)
    batch, horizon, n = data["actions"].shape
    rows = batch * horizon * n
    own = Tensor(data["own"].reshape(rows, -1))
    allies = Tensor(data["allies"].reshape(rows, n - 1, K))
    enemies = Tensor(data["enemies"].reshape(rows, -1, K))
    with no_grad():
        q_online, q_target = [
            net.forward_batch(own, allies, enemies).data.reshape(
                batch, horizon, n, -1)
            for net in (learner.net, learner.target_net)]
    best = np.where(data["avail"], q_online, NEG_MASK).argmax(axis=-1)
    values = np.take_along_axis(q_target, best[..., None], axis=-1)[..., 0]
    values = values.sum(axis=-1) * data["mask"]
    next_values = np.zeros_like(values)
    next_values[:, :-1] = values[:, 1:]
    targets = td_lambda_targets(data["rewards"], next_values, cfg.gamma,
                                cfg.td_lambda)
    q = learner.net.forward_batch(own, allies, enemies,
                                  rng=learner.forward_rng,
                                  deterministic=False)
    chosen = reshape(take_index(q, data["actions"].reshape(rows)),
                     (batch, horizon, n))
    diff = vdn_mix(chosen) - Tensor(targets)
    loss = mul(reduce_sum(mul(mul(diff, diff), Tensor(data["mask"]))),
               Tensor(1.0 / float(data["mask"].sum())))
    for p in learner.params.values():
        p.zero_grad()
    loss.backward()
    adam_step(learner.params, learner.opt)
    learner.train_steps += 1
    if learner.train_steps % cfg.target_update_interval == 0:
        learner._sync_target()
    return float(loss.data)


@pytest.mark.parametrize("arch, forwards", [
    ("hpn", 2), ("hpn_set", 2), ("deepset", 2), ("concat", 2), ("dpn", 3)])
def test_train_step_reuses_grad_forward_bitwise(arch, forwards, monkeypatch):
    # only DPN's noisy grad forward needs a separate greedy online forward;
    # reusing the grad forward elsewhere must not move a single bit
    episodes = [rollout_episode(1000 + i) for i in range(2)]
    factory = net_factory_for(arch, PRESETS["3v3"])
    learner = Learner(small_cfg(), factory, PRESETS["3v3"])
    reference = Learner(small_cfg(), factory, PRESETS["3v3"])
    cls = type(learner.net)
    original = cls.forward_batch
    calls = []

    def counted(self, *args, **kwargs):
        calls.append(1)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(cls, "forward_batch", counted)
    for _ in range(6):  # crosses the target sync at step 5
        calls.clear()
        loss = learner.train_step(episodes)
        assert len(calls) == forwards
        assert loss == three_forward_train_step(reference, episodes)
    for name, p in learner.params.items():
        assert p.data.tobytes() == reference.params[name].data.tobytes(), name


# -- rollouts and evaluation -------------------------------------------


def test_runner_counts_env_steps_and_is_deterministic():
    net = concat_factory(np.random.default_rng(16))
    outs = []
    for _ in range(2):
        runner = ParallelRunner(small_cfg(), plain_env_factory, net)
        episodes = []
        for _ in range(40):
            episodes.extend(runner.tick())
        assert runner.env_steps == 40 * 2
        outs.append([(len(ep), ep.actions.tolist(), ep.rewards.tolist())
                     for ep in episodes])
    assert outs[0] == outs[1]
    assert len(outs[0]) > 0


class SeedLoggingEnv(MicroBattleEnv):
    """Remembers every reset seed, so a test can replay its episodes."""

    def __init__(self, cfg):
        super().__init__(cfg)
        self.seeds = []

    def reset(self, seed):
        self.seeds.append(seed)
        return super().reset(seed)


def assert_replays(cfg, seed, episode):
    """Stepping a fresh env with the recorded actions reproduces every
    recorded field bitwise and ends exactly at the last recorded step."""
    env = MicroBattleEnv(cfg)
    obs, state = env.reset(seed)
    for t in range(len(episode)):
        recorded = {name: column[t] for name, column in vars(episode).items()
                    if name not in ("actions", "rewards")}
        assert_same_arrays(recorded, {
            "own": np.stack([o.own for o in obs]),
            "allies": np.stack([o.allies for o in obs]),
            "enemies": np.stack([o.enemies for o in obs]),
            "state": state, "avail": env.available_actions()})
        obs, state, reward, terminated, _ = env.step(episode.actions[t])
        assert reward == episode.rewards[t]
        assert terminated == (t == len(episode) - 1)
    assert env.t == len(episode) == len(episode.actions)


def test_runner_episodes_replayable():
    for preset in ("3v3", "5v6"):
        cfg = PRESETS[preset]
        net = net_factory_for("concat", cfg)(np.random.default_rng(17))
        runner = ParallelRunner(small_cfg(parallel_runners=3),
                                lambda tag: SeedLoggingEnv(cfg), net)
        replayed = 0
        while replayed < 6:
            resets = [len(env.seeds) for env in runner.envs]
            episodes = runner.tick()
            # episodes come back in runner order; a runner that finished
            # one has just reset again
            seeds = [env.seeds[-2] for env, count in zip(runner.envs, resets)
                     if len(env.seeds) > count]
            assert len(seeds) == len(episodes)
            for seed, episode in zip(seeds, episodes):
                assert_replays(cfg, seed, episode)
                replayed += 1


def test_evaluate_scripted_policies():
    assert evaluate(always_lose_policy, plain_env_factory, episodes=8) == 0.0
    assert evaluate(focus_fire_policy, plain_env_factory, episodes=32) == 1.0


def greedy_net_policy(net):
    """Reference policy: one single-observation forward per agent."""
    def policy(env, avail):
        with no_grad():
            return np.array(
                [epsilon_greedy_select(net.forward(o).data, avail[i], 0.0)
                 for i, o in enumerate(env.observations())], dtype=np.int64)
    return policy


def test_evaluate_net_matches_per_env_policy():
    net = concat_factory(np.random.default_rng(18))
    batched = evaluate_net(net, plain_env_factory, episodes=8)
    looped = evaluate(greedy_net_policy(net), plain_env_factory, episodes=8)
    assert batched == looped
    assert 0.0 <= batched <= 1.0


def test_train_loop_schedule_and_determinism():
    runs = []
    for _ in range(2):
        rows = train_loop(small_cfg(), plain_env_factory, concat_factory,
                          mixer="vdn", eval_interval=200)
        runs.append(rows)
    assert runs[0] == runs[1]
    steps = [r[0] for r in runs[0]]
    assert steps == [200, 400]
    for _, win, _ in runs[0]:
        assert 0.0 <= win <= 1.0


def test_train_loop_with_augmentation_runs():
    rows = train_loop(small_cfg(total_env_steps=200), plain_env_factory,
                      concat_factory, mixer="vdn", augment=True,
                      eval_interval=200)
    assert len(rows) == 1
