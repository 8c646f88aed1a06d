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
from permnet.cli import net_factory_for
from permnet.env import (
    ACTION_STOP,
    ENTITY_FEATURES,
    N_MOVE_ACTIONS,
    PRESETS,
    MicroBattleEnv,
    always_lose_policy,
    focus_fire_policy,
)
from permnet.hpn import HpnAgentNet
from permnet.layers import NEG_MASK
from permnet.learners import (
    Learner,
    ParallelRunner,
    QmixMixer,
    ReplayBuffer,
    TrainConfig,
    Transition,
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


def rollout_episode(seed, policy=None, cfg=PRESETS["3v3"]):
    """Collect one full episode of Transitions from the battle env."""
    env = MicroBattleEnv(cfg)
    obs, state = env.reset(seed)
    rng = np.random.default_rng(seed + 1)
    episode = []
    terminated = False
    while not terminated:
        avail = env.available_actions()
        if policy is None:
            actions = np.array([rng.choice(np.flatnonzero(avail[i]))
                                for i in range(cfg.n_allies)])
        else:
            actions = policy(env, avail)
        next_obs, next_state, reward, terminated, _ = env.step(actions)
        episode.append(Transition(obs, state, actions, reward, avail,
                                  terminated))
        obs, state = next_obs, next_state
    return episode


# -- containers --------------------------------------------------------


def test_transition_rejects_unavailable_action():
    env = MicroBattleEnv(PRESETS["3v3"])
    obs, state = env.reset(0)
    avail = env.available_actions()
    bad = np.array([np.flatnonzero(~avail[0])[0], ACTION_STOP, ACTION_STOP])
    with pytest.raises(ValueError, match="unavailable"):
        Transition(obs, state, bad, 0.0, avail, False)


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
    for a, b in zip(episode, same):
        assert np.array_equal(a.actions, b.actions)
        assert np.array_equal(a.avail, b.avail)
        assert np.array_equal(a.state, b.state)
        assert a.reward == b.reward and a.terminal == b.terminal
        for oa, ob in zip(a.obs, b.obs):
            assert np.array_equal(oa.own, ob.own)
            assert np.array_equal(oa.allies, ob.allies)
            assert np.array_equal(oa.enemies, ob.enemies)


def test_relabel_translates_attack_actions():
    env = MicroBattleEnv(PRESETS["3v3"])
    obs, state = env.reset(101)
    avail = env.available_actions()
    avail = avail.copy()
    avail[:, N_MOVE_ACTIONS:] = True     # open all attacks for the check
    actions = np.array([N_MOVE_ACTIONS + 0, ACTION_STOP, ACTION_STOP])
    tr = Transition(obs, state, actions, 0.0, avail, False)
    out = relabel_episode([tr], np.arange(3), np.array([1, 0, 2]))[0]
    assert out.actions[0] == N_MOVE_ACTIONS + 1
    assert out.actions[1] == ACTION_STOP


def test_relabel_matches_equivariant_network_exactly():
    """A relabeled transition must look to an order-free network like the
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
        for tr, new in zip(episode, relabeled):
            q_old = [net.forward(o).data for o in tr.obs]
            q_new = [net.forward(o).data for o in new.obs]
            for p in range(3):
                src = q_old[ally_perm[p]]
                assert np.array_equal(q_new[p][:N_MOVE_ACTIONS],
                                      src[:N_MOVE_ACTIONS])
                assert np.array_equal(
                    q_new[p][N_MOVE_ACTIONS:],
                    src[N_MOVE_ACTIONS:][enemy_perm])
                assert (q_new[p][new.actions[p]]
                        == src[tr.actions[ally_perm[p]]])
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


def test_relabel_rejects_inconsistent_groups():
    episode = rollout_episode(302)
    other = rollout_episode(303, cfg=PRESETS["5v6"])
    with pytest.raises(ValueError, match="inconsistent"):
        relabel_episode([episode[0], other[0]], np.arange(3), np.arange(3))


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
    episode = [Transition(obs, state, actions, reward, avail, True)]
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
        outs.append([(len(ep), [tuple(tr.actions) for tr in ep],
                      sum(tr.reward for tr in ep)) for ep in episodes])
    assert outs[0] == outs[1]
    assert len(outs[0]) > 0


def test_runner_episodes_replayable():
    net = concat_factory(np.random.default_rng(17))
    runner = ParallelRunner(small_cfg(), plain_env_factory, net)
    episodes = []
    while not episodes:
        episodes.extend(runner.tick())
    episode = episodes[0]
    assert episode[-1].terminal
    assert all(not tr.terminal for tr in episode[:-1])


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
