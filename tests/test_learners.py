"""Mixers, TD(lambda) targets, exploration, replay, relabeling, training."""

import copy
import dataclasses
import gc
import tracemalloc

import numpy as np
import pytest

from permnet import learners
from permnet.autodiff import (
    ShapeError,
    Tensor,
    adam_step,
    add,
    grad_check,
    mul,
    no_grad,
    reduce_sum,
    reshape,
    take_index,
)
from permnet.baselines import ConcatAgentNet
from permnet.cli import ARCHITECTURES, env_factory_for, net_factory_for
from permnet.env import (
    ACTION_NOOP,
    ACTION_STOP,
    ENTITY_FEATURES,
    N_MOVE_ACTIONS,
    PRESETS,
    UNIT_FIELDS,
    BattleBatch,
    BattleConfig,
    MicroBattleEnv,
    ObservationSet,
    other_ally_index,
)
from permnet.hpn import HpnAgentNet
from permnet.layers import NEG_MASK
from permnet.learners import (
    Learner,
    ParallelRunner,
    QmixMixer,
    ReplayBuffer,
    TrainConfig,
    anneal_epsilon,
    augment_experience,
    evaluate_net,
    greedy_actions,
    greedy_q,
    relabel_episode,
    td_lambda_targets,
    team_parameters,
    train_loop,
    vdn_mix,
)

import battle_reference as ref
from float64_params import in_float64, learner_in_float64
from replay_reference import (
    VIEW_FIELDS,
    ListReplay,
    batch_views,
    episode_of,
    episode_views,
    learner_views,
    relabel_views,
    rollout_episode,
    step_obs,
)
from scripted_policies import always_lose_policy, evaluate, focus_fire_policy

K = ENTITY_FEATURES
STEP_FIELDS = UNIT_FIELDS + ("actions", "rewards")


class Float32ViewsEnv(ref.MicroBattleEnv):
    """The frozen reference env presenting its float64 views as the
    battle batch stores them: each value rounded once to float32."""

    def observations(self):
        return [ObservationSet(*(x.astype(np.float32)
                                 for x in (o.own, o.allies, o.enemies)))
                for o in super().observations()]

    def state(self):
        return super().state().astype(np.float32)


def assert_same_arrays(got: dict, want: dict):
    assert got.keys() == want.keys()
    for name in want:
        assert got[name].dtype == want[name].dtype, name
        assert got[name].shape == want[name].shape, name
        assert got[name].tobytes() == want[name].tobytes(), name


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
    with pytest.raises(ValueError, match="train_interval"):
        TrainConfig(train_interval=0)
    with pytest.raises(ValueError, match="parallel_runners"):
        TrainConfig(parallel_runners=-2)
    with pytest.raises(ValueError, match="total_env_steps"):
        TrainConfig(total_env_steps=0)
    with pytest.raises(ValueError, match="buffer_size"):
        TrainConfig(buffer_size=31, batch_episodes=32)
    TrainConfig(buffer_size=32, batch_episodes=32)
    for lr in (0.0, -0.5, float("nan")):
        with pytest.raises(ValueError, match="lr"):
            TrainConfig(lr=lr)
    for name in ("epsilon_start", "epsilon_finish"):
        for bad in (-0.1, 1.5):
            with pytest.raises(ValueError, match=name):
                TrainConfig(**{name: bad})
        TrainConfig(**{name: 0.0})
        TrainConfig(**{name: 1.0})


# -- VDN ---------------------------------------------------------------


def test_vdn_mix_examples():
    assert float(vdn_mix(Tensor(np.array([1.0, 2.0, 3.0]))).data) == 6.0
    assert float(vdn_mix(Tensor(np.zeros(3))).data) == 0.0


def test_vdn_mix_permutation_invariant():
    rng = np.random.default_rng(0)
    values = rng.normal(size=5)
    base = float(vdn_mix(Tensor(values)).data)
    assert float(vdn_mix(Tensor(values[::-1].copy())).data) == pytest.approx(
        base, abs=1e-12)


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
    with pytest.raises(ShapeError, match="input width"):
        mixer(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 9))))
    with pytest.raises(ShapeError, match="agent values"):
        mixer(Tensor(np.zeros((2, 4))), Tensor(np.zeros((2, 8))))


def test_qmix_grad_check():
    mixer = in_float64(make_mixer(6))
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


# -- replay ------------------------------------------------------------


def assert_same_values(got, want):
    """Every field of episode ``got`` holds ``want``'s values, in any int
    dtype; rewards stay float64."""
    assert vars(got).keys() == vars(want).keys()
    for name, column in vars(want).items():
        assert getattr(got, name).shape == column.shape, name
        assert np.array_equal(getattr(got, name), column), name
    assert got.rewards.dtype == np.float64


def test_replay_buffer_eviction_and_sampling():
    # runner episodes past capacity: the oldest go, and every draw picks
    # the episodes the list-of-episodes buffer picks, in its order
    cfg = PRESETS["3v3"]
    episodes = collect_episodes("3v3", True, 40)
    buf, reference = ReplayBuffer(7, cfg), ListReplay(7)
    for i, episode in enumerate(episodes):
        buf.add(episode)
        reference.add(episode)
        assert len(buf) == len(reference.episodes) == min(i + 1, 7)
        for seed in range(3):
            got = buf.sample(np.random.default_rng(seed), 4)
            want = reference.sample(np.random.default_rng(seed), 4)
            assert len(got) == len(want) == min(i + 1, 4)
            for g, w in zip(got, want):
                assert_same_values(g, w)
    kept = buf.sample(np.random.default_rng(12), 10)
    assert len(kept) == 7
    order = np.random.default_rng(12).choice(7, size=7, replace=False)
    for got, i in zip(kept, order):
        assert_same_values(got, episodes[33 + i])
    with pytest.raises(ValueError, match="empty"):
        buf.add(dataclasses.replace(episodes[0], **{
            name: getattr(episodes[0], name)[:0] for name in STEP_FIELDS}))


@pytest.mark.parametrize("preset", ["3v3", "5v6", "8v9"])
def test_replay_round_trips_every_field(preset):
    # int8 holds every preset; the stacked batch widens to int64, so 8v9
    # table rows (up to 1,854) come out as from the runner's int64 episodes
    cfg = PRESETS[preset]
    episodes = collect_episodes(preset, True, 8)
    buf = ReplayBuffer(len(episodes), cfg)
    for episode in episodes:
        buf.add(episode)
    stored = buf.sample(np.random.default_rng(3), len(episodes))
    order = np.random.default_rng(3).choice(len(episodes), size=len(episodes),
                                            replace=False)
    for got, i in zip(stored, order):
        assert_same_values(got, episodes[i])
        assert {getattr(got, name).dtype for name in vars(got)
                if name != "rewards"} == {np.dtype(np.int8)}
    battles, data = learners._stack_episodes(stored, cfg)
    want = [learner_views(episodes[i], cfg) for i in order]
    assert_same_arrays(batch_views(battles), {
        name: np.concatenate([views[name] for views in want])
        for name in VIEW_FIELDS})
    assert data["actions"].dtype == np.int64
    assert np.array_equal(data["actions"],
                          np.concatenate([episodes[i].actions for i in order]))


def test_replay_widens_dtype_for_a_large_grid():
    # x and y reach 129 on a 130-cell grid, past int8: the store derives
    # int16 from the config and keeps every value
    cfg = BattleConfig(grid_size=130, episode_limit=12)
    episodes = [rollout_episode(seed, cfg) for seed in (0, 1)]
    assert max(getattr(e, name).max() for e in episodes
               for name in UNIT_FIELDS) > np.iinfo(np.int8).max
    buf = ReplayBuffer(2, cfg)
    for episode in episodes:
        buf.add(episode)
    for got, i in zip(buf.sample(np.random.default_rng(0), 2),
                      np.random.default_rng(0).choice(2, 2, replace=False)):
        assert_same_values(got, episodes[i])
        assert got.enemy_x.dtype == got.actions.dtype == np.int16


def test_replay_refuses_values_its_dtype_cannot_hold():
    # a 130-cell grid's coordinates do not fit a 3v3 buffer's int8: add
    # names the field and refuses before it evicts, so a full buffer keeps
    # what it held
    cfg = PRESETS["3v3"]
    episodes = collect_episodes("3v3", True, 4)[:4]
    buf = ReplayBuffer(4, cfg)
    for episode in episodes:
        buf.add(episode)
    wide = rollout_episode(0, BattleConfig(grid_size=130, episode_limit=12))
    with pytest.raises(ValueError, match=r"^episode (ally|enemy)_[xy] .*int8"):
        buf.add(wide)
    assert len(buf) == 4
    for got, i in zip(buf.sample(np.random.default_rng(7), 4),
                      np.random.default_rng(7).choice(4, 4, replace=False)):
        assert_same_values(got, episodes[i])


def test_sampled_episodes_are_read_only_and_stable():
    cfg = PRESETS["3v3"]
    episodes = collect_episodes("3v3", True, 30)
    buf = ReplayBuffer(4, cfg)
    for episode in episodes[:4]:
        buf.add(episode)
    held = buf.sample(np.random.default_rng(5), 4)
    order = np.random.default_rng(5).choice(4, size=4, replace=False)
    for episode in held:
        for name, column in vars(episode).items():
            with pytest.raises(ValueError, match="read-only"):
                column[...] = 0
            with pytest.raises(ValueError):
                column.flags.writeable = True
    for episode in episodes[4:]:   # evicts all four
        buf.add(episode)
    for got, i in zip(held, order):
        assert_same_values(got, episodes[i])


@pytest.mark.parametrize("preset", ["3v3", "8v9"])
def test_replay_store_bytes_per_step(preset):
    # what the store keeps per stored battle-step, by tracemalloc: a list
    # of runner Episode objects (ten int64/float64 arrays each) kept 347 B
    # per 3v3 step here; one int8 record array per episode, plus the
    # presentation ring, keeps 56 B per 3v3 step and 83 B per 8v9 step.
    # The bound is under a third of 347.
    cfg = PRESETS[preset]
    episodes = collect_episodes(preset, True, 240)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        buf = ReplayBuffer(200, cfg)
        for episode in episodes:
            buf.add(copy.deepcopy(episode))
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(buf) == 200
    assert kept / sum(len(e) for e in episodes[-200:]) <= 100


# -- augmentation ------------------------------------------------------


def test_relabel_identity_is_noop():
    episode = rollout_episode(100)
    same = relabel_episode(episode, np.arange(3), np.arange(3))
    assert_same_arrays(vars(same), vars(episode))


def test_relabel_translates_attack_actions():
    episode = rollout_episode(101)
    episode.actions[0] = [N_MOVE_ACTIONS + 0, ACTION_STOP, ACTION_STOP]
    out = relabel_episode(episode, np.arange(3), np.array([1, 0, 2]))
    assert out.actions[0, 0] == N_MOVE_ACTIONS + 1
    assert out.actions[0, 1] == ACTION_STOP


def reference_relabel(views, actions, ally_perm, enemy_perm):
    """The per-step, per-agent relabeling loop that the float oracle's
    fancy indexing replaced, on an episode's views and actions."""
    n, m = len(ally_perm), len(enemy_perm)
    inv_enemy = np.argsort(enemy_perm)
    out = {name: [] for name in VIEW_FIELDS}
    new_actions = np.empty_like(actions)
    for t in range(len(actions)):
        for p in range(n):
            src = step_obs(views, t, ally_perm[p])
            rows = [int(ally_perm[q]) - int(ally_perm[q] > ally_perm[p])
                    for q in range(n) if q != p]
            out["own"].append(src.own)
            out["allies"].append(src.allies[rows])
            out["enemies"].append(src.enemies[enemy_perm])
            a = int(actions[t, ally_perm[p]])
            if a >= N_MOVE_ACTIONS:
                a = N_MOVE_ACTIONS + int(inv_enemy[a - N_MOVE_ACTIONS])
            new_actions[t, p] = a
            row = views["avail"][t, ally_perm[p]].copy()
            row[N_MOVE_ACTIONS:] = views["avail"][t, ally_perm[p],
                                                  N_MOVE_ACTIONS + enemy_perm]
            out["avail"].append(row)
        entity = views["state"][t].reshape(n + m, K)
        out["state"].append(np.concatenate(
            [entity[:n][ally_perm], entity[n:][enemy_perm]]).reshape(-1))
    shapes = {name: views[name].shape for name in VIEW_FIELDS}
    return {name: np.stack(rows).reshape(shapes[name])
            for name, rows in out.items()}, new_actions


def assert_relabel_matches_float_oracle(cfg, episode, relabeled, ally_perm,
                                        enemy_perm):
    """The views the learner rebuilds for ``relabeled`` are the float
    relabelling of ``episode``'s views, bit for bit, and so are the
    actions."""
    views, actions = relabel_views(learner_views(episode, cfg),
                                   episode.actions, ally_perm, enemy_perm)
    assert_same_arrays(learner_views(relabeled, cfg), views)
    assert relabeled.actions.tobytes() == actions.tobytes()
    assert relabeled.rewards is episode.rewards


@pytest.mark.parametrize("preset", ["3v3", "5v6"])
def test_relabel_matches_per_step_reference_bitwise(preset):
    cfg = PRESETS[preset]
    rng = np.random.default_rng(19)
    for seed in range(150, 160):
        episode = rollout_episode(seed, cfg)
        ally_perm = rng.permutation(cfg.n_allies)
        enemy_perm = rng.permutation(cfg.n_enemies)
        relabeled = relabel_episode(episode, ally_perm, enemy_perm)
        assert_relabel_matches_float_oracle(cfg, episode, relabeled,
                                            ally_perm, enemy_perm)
        # the float oracle is the per-step loop, vectorized
        views = episode_views(episode, cfg)
        oracle, oracle_actions = relabel_views(views, episode.actions,
                                               ally_perm, enemy_perm)
        loop, loop_actions = reference_relabel(views, episode.actions,
                                               ally_perm, enemy_perm)
        assert_same_arrays(oracle, loop)
        assert oracle_actions.tobytes() == loop_actions.tobytes()
        restored = relabel_episode(relabeled, np.argsort(ally_perm),
                                   np.argsort(enemy_perm))
        assert_same_arrays(vars(restored), vars(episode))


@pytest.mark.parametrize("preset, shuffle", [
    ("3v3", True), ("5v6", False), ("5v6", True)])
def test_augmented_runner_episodes_match_float_oracle(preset, shuffle):
    # runner episodes carry the wrapper's presentation; each augmented copy
    # composes it with the drawn renaming
    cfg = PRESETS[preset]
    episodes = collect_episodes(preset, shuffle, 6)
    identity = other_ally_index(cfg.n_allies)
    presented = sum(not np.array_equal(e.ally_rows, identity)
                    for e in episodes)
    assert (presented > 0) == shuffle
    copies = 2
    grown = augment_experience(episodes, copies, np.random.default_rng(8))
    # the replay holds integer battle states, originals and copies alike
    assert all(getattr(e, name).dtype.kind == "i"
               for e in grown for name in vars(e) if name != "rewards")
    draws = np.random.default_rng(8)
    for b, episode in enumerate(episodes):
        for c in range(copies):
            ally_perm = draws.permutation(cfg.n_allies)
            enemy_perm = draws.permutation(cfg.n_enemies)
            relabeled = grown[len(episodes) + b * copies + c]
            assert_relabel_matches_float_oracle(cfg, episode, relabeled,
                                                ally_perm, enemy_perm)


def test_relabel_matches_equivariant_network_exactly():
    """A relabeled step must look to an order-free network like the
    original with rows renamed: move Q rows permuted by the ally renaming,
    attack Q entries additionally permuted by the enemy renaming, and the
    chosen-action scalar unchanged."""
    cfg = PRESETS["3v3"]
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
        old, new = (learner_views(e, cfg) for e in (episode, relabeled))
        for t in range(len(episode)):
            q_old = [net.forward(step_obs(old, t, i)).data for i in range(3)]
            q_new = [net.forward(step_obs(new, t, i)).data for i in range(3)]
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
    cfg = PRESETS["3v3"]
    played = rollout_episode(400, cfg, focus_fire_policy)
    episode = dataclasses.replace(
        played, **{name: getattr(played, name)[:1] for name in STEP_FIELDS})
    learner = Learner(small_cfg(target_update_interval=10**9),
                      concat_factory, cfg, mixer="vdn")
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
        target = team_parameters(learner.target_net,
                                 learner.target_mixer)[name].data
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


def reference_stack(episodes, cfg):
    """What _stack_episodes and its batch's ``state`` give, built one step
    at a time through the per-step facade: real steps only, episode after
    episode, plus rewards on the zero-padded (B, T_max) grid and its
    real-step mask."""
    fields = {name: [] for name in VIEW_FIELDS + ("actions",)}
    horizon = max(len(e) for e in episodes)
    rewards = np.zeros((len(episodes), horizon))
    mask = np.zeros((len(episodes), horizon), dtype=bool)
    for b, episode in enumerate(episodes):
        views = episode_views(episode, cfg)
        for t in range(len(episode)):
            for name in VIEW_FIELDS:
                fields[name].append(views[name][t])
            fields["actions"].append(episode.actions[t])
            rewards[b, t] = episode.rewards[t]
            mask[b, t] = True
    out = {name: np.stack(rows) for name, rows in fields.items()}
    out.update(rewards=rewards, mask=mask)
    return out


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
    cfg = PRESETS[preset]
    episodes = collect_episodes(preset, shuffle, 6)
    assert len({len(e) for e in episodes}) > 1    # the grid has padding
    battles, data = learners._stack_episodes(episodes, cfg)
    assert_same_arrays(dict(data, **batch_views(battles)),
                       reference_stack(episodes, cfg))


def test_replay_stores_battle_states_only():
    # the integer fields an 8v9 battle-step costs, against the 2536 bytes
    # of float32 observations and state plus boolean masks that it derives
    cfg = PRESETS["8v9"]
    episode = rollout_episode(31, cfg)
    assert all(column.dtype.kind == "i" for name, column in
               vars(episode).items() if name != "rewards")
    per_step = sum(getattr(episode, name)[0].nbytes for name in STEP_FIELDS)
    derived = sum(column[0].nbytes
                  for column in episode_views(episode, cfg).values())
    assert (per_step, derived) == (480, 2536)


def three_forward_train_step(learner, episodes):
    """Reference VDN update with its own greedy online forward: online,
    target and grad forwards, in that order, for any agent net."""
    cfg = learner.cfg
    battles, data = learners._stack_episodes(episodes, learner.env_cfg)
    views = batch_views(battles)
    steps, n = data["actions"].shape
    rows = steps * n
    own = Tensor(views["own"].reshape(rows, -1))
    allies = Tensor(views["allies"].reshape(rows, n - 1, K))
    enemies = Tensor(views["enemies"].reshape(rows, -1, K))
    with no_grad():
        q_online, q_target = [
            net.forward_batch(own, allies, enemies).data.reshape(steps, n, -1)
            for net in (learner.net, learner.target_net)]
    best = np.where(views["avail"], q_online, NEG_MASK).argmax(axis=-1)
    values = np.take_along_axis(q_target, best[..., None], axis=-1)[..., 0]
    grid = np.zeros(data["mask"].shape)
    grid[data["mask"]] = values.sum(axis=-1)
    next_values = np.zeros_like(grid)
    next_values[:, :-1] = grid[:, 1:]
    targets = td_lambda_targets(data["rewards"], next_values, cfg.gamma,
                                cfg.td_lambda)[data["mask"]]
    q = learner.net.forward_batch(own, allies, enemies,
                                  rng=learner.forward_rng,
                                  deterministic=False)
    chosen = reshape(take_index(q, data["actions"].reshape(rows)), (steps, n))
    # the constants in the float32 loss graph are float32 too
    diff = add(vdn_mix(chosen), Tensor(-targets.astype(np.float32)))
    loss = mul(reduce_sum(mul(diff, diff)), Tensor(np.float32(1.0 / steps)))
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


def padded_train_step(learner, episodes):
    """The zero-padded update that train_step's real-step rows replace.

    Episodes are padded to the longest, with zero observations and state,
    a noop-only availability row and mask 0 on padded steps; every
    forward, the mixing and the masked mean loss run over the whole
    (B, T_max) grid.  Only for nets whose grad forward is greedy."""
    cfg = learner.cfg
    batch, horizon = len(episodes), max(len(e) for e in episodes)
    columns = [dict(episode_views(e, learner.env_cfg), actions=e.actions,
                    rewards=e.rewards) for e in episodes]
    data = {name: np.zeros((batch, horizon) + column.shape[1:], column.dtype)
            for name, column in columns[0].items()}
    data["avail"][..., 0] = True
    mask = np.zeros((batch, horizon))
    for b, episode in enumerate(columns):
        for name, column in episode.items():
            data[name][b, :len(column)] = column
        mask[b, :len(column)] = 1.0
    n = data["actions"].shape[-1]
    rows = batch * horizon * n
    own = Tensor(data["own"].reshape(rows, -1))
    allies = Tensor(data["allies"].reshape(rows, n - 1, K))
    enemies = Tensor(data["enemies"].reshape(rows, -1, K))
    state = Tensor(data["state"].reshape(batch * horizon, -1))

    def mix(chosen, mixer):
        if mixer is None:
            return vdn_mix(chosen)
        flat = mixer(reshape(chosen, (batch * horizon, n)), state)
        return reshape(flat, (batch, horizon))

    with no_grad():
        q_target = learner.target_net.forward_batch(
            own, allies, enemies).data.reshape(batch, horizon, n, -1)
    q = learner.net.forward_batch(own, allies, enemies)
    best = np.where(data["avail"], q.data.reshape(q_target.shape),
                    NEG_MASK).argmax(axis=-1)
    chosen_target = np.take_along_axis(q_target, best[..., None],
                                       axis=-1)[..., 0]
    with no_grad():
        values = mix(Tensor(chosen_target), learner.target_mixer).data * mask
    next_values = np.zeros_like(values)
    next_values[:, :-1] = values[:, 1:]
    targets = td_lambda_targets(data["rewards"], next_values, cfg.gamma,
                                cfg.td_lambda)
    chosen = reshape(take_index(q, data["actions"].reshape(rows)),
                     (batch, horizon, n))
    diff = add(mix(chosen, learner.mixer), Tensor(-targets))
    loss = mul(reduce_sum(mul(mul(diff, diff), Tensor(mask))),
               Tensor(1.0 / float(mask.sum())))
    for p in learner.params.values():
        p.zero_grad()
    loss.backward()
    adam_step(learner.params, learner.opt)
    learner.train_steps += 1
    if learner.train_steps % cfg.target_update_interval == 0:
        learner._sync_target()
    return float(loss.data)


@pytest.mark.parametrize("arch, mixer", [("hpn", "vdn"), ("concat", "qmix")])
def test_train_step_matches_padded_reference(arch, mixer):
    # dropping the padded rows changes summation order only: the loss and
    # every post-Adam parameter agree with the padded update to float64
    # rounding, on float64 copies of the nets
    episodes = collect_episodes("3v3", False, 5)
    assert len({len(e) for e in episodes}) > 1
    factory = net_factory_for(arch, PRESETS["3v3"])
    learner, reference = (
        learner_in_float64(Learner(small_cfg(), factory, PRESETS["3v3"],
                                   mixer))
        for _ in range(2))
    for _ in range(6):  # crosses the target sync at step 5
        loss = learner.train_step(episodes)
        assert loss == pytest.approx(padded_train_step(reference, episodes),
                                     rel=1e-12, abs=0.0)
    for name, p in learner.params.items():
        np.testing.assert_allclose(p.data, reference.params[name].data,
                                   rtol=1e-12, atol=0.0, err_msg=name)


@pytest.mark.parametrize("arch, mixer, augment", [
    ("hpn", "vdn", False), ("dpn", "qmix", True)])
def test_learner_forwards_see_only_real_steps(arch, mixer, augment,
                                              monkeypatch):
    cfg = PRESETS["5v6"]
    episodes = collect_episodes("5v6", False, 4)
    if augment:
        episodes = augment_experience(episodes, 1, np.random.default_rng(3))
    learner = Learner(small_cfg(), net_factory_for(arch, cfg), cfg, mixer)
    cls = type(learner.net)
    original = cls.forward_batch
    rows = []

    def counted(self, own, allies, enemies, **kwargs):
        rows.append((own.shape[0], allies.shape[0], enemies.shape[0]))
        return original(self, own, allies, enemies, **kwargs)

    monkeypatch.setattr(cls, "forward_batch", counted)
    learner.train_step(episodes)
    real = sum(len(e) for e in episodes) * cfg.n_allies
    assert real < len(episodes) * max(len(e) for e in episodes) * cfg.n_allies
    assert rows == [(real,) * 3] * (3 if arch == "dpn" else 2)


@pytest.mark.parametrize("arch, mixer, augment, preset", [
    ("dpn", "qmix", True, "5v6"), ("hpn", "vdn", False, "3v3")])
def test_train_step_leaves_no_graph_behind(arch, mixer, augment, preset,
                                           monkeypatch):
    """When Adam runs, the backward has released every gradient but the
    parameters': a train step that keeps its graph alive fails here, not
    only in peak RSS."""
    cfg = PRESETS[preset]
    episodes = collect_episodes(preset, False, 4)
    if augment:
        episodes = augment_experience(episodes, 1, np.random.default_rng(3))
    learner = Learner(small_cfg(), net_factory_for(arch, cfg), cfg, mixer)

    def holding_grads():
        return [o for o in gc.get_objects()
                if isinstance(o, Tensor) and o.grad is not None]

    # kept alive, so no id below can be reused by a Tensor the step makes
    earlier = holding_grads()
    seen = []
    original = learners.adam_step

    def scanning(params, state):
        seen.extend(holding_grads())
        original(params, state)

    monkeypatch.setattr(learners, "adam_step", scanning)
    learner.train_step(episodes)
    params = {id(p) for p in learner.params.values()}
    held = {id(o) for o in seen}
    assert held & params
    assert held - params <= {id(o) for o in earlier}


# -- rollouts and evaluation -------------------------------------------


@pytest.mark.parametrize("preset", ["3v3", "5v6"])
@pytest.mark.parametrize("arch", ARCHITECTURES)
def test_greedy_q_is_the_deterministic_forward_bitwise(arch, preset):
    cfg = PRESETS[preset]
    rng = np.random.default_rng(41)
    batch = BattleBatch(cfg, 4)
    for i in range(4):
        batch.reset(i, int(rng.integers(2 ** 31)),
                    rng.permutation(cfg.n_allies - 1),
                    rng.permutation(cfg.n_enemies))
    for _ in range(3):
        avail = batch.available_actions()
        batch.step(np.argmax(rng.random(avail.shape) * avail, axis=-1))
    avail, observations = batch.views()
    net = net_factory_for(arch, cfg)(np.random.default_rng(42))
    q = greedy_q(net, observations)
    with no_grad():
        expected = net.forward_batch(
            *(Tensor(x.reshape((-1,) + x.shape[2:])) for x in observations),
            deterministic=True).data
    assert isinstance(q, np.ndarray) and q.shape == avail.shape
    assert q.dtype == expected.dtype
    assert q.tobytes() == expected.tobytes()


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

    def reset_into(self, batch, i, seed):
        self.seeds.append(seed)
        super().reset_into(batch, i, seed)


def reference_views(obs, state, avail):
    """One step's views from a frozen reference env, in the fields of
    ``episode_views``."""
    return {"own": np.stack([o.own for o in obs]),
            "allies": np.stack([o.allies for o in obs]),
            "enemies": np.stack([o.enemies for o in obs]),
            "state": state, "avail": avail}


def assert_replays(cfg, seed, episode):
    """Stepping a fresh frozen reference env with the recorded actions
    reproduces every recorded unit array, and the views the learner
    rebuilds from them, bitwise, and ends exactly at the last recorded
    step."""
    env = Float32ViewsEnv(cfg)
    obs, state = env.reset(seed)
    views = learner_views(episode, cfg)
    for t in range(len(episode)):
        assert_same_arrays(
            {name: getattr(episode, name)[t] for name in UNIT_FIELDS},
            {name: getattr(env, name) for name in UNIT_FIELDS})
        assert_same_arrays(
            {name: column[t] for name, column in views.items()},
            reference_views(obs, state, env.available_actions()))
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


def test_run_seeds_deal_different_battle_layouts():
    """Each run seed starts its runners on its own reset seeds, not on one
    shared set dealt to different runners."""
    cfg = PRESETS["3v3"]
    net = net_factory_for("concat", cfg)(np.random.default_rng(17))
    firsts = []
    for seed in range(5):
        runner = ParallelRunner(small_cfg(parallel_runners=8, seed=seed),
                                lambda tag: SeedLoggingEnv(cfg), net)
        firsts.append(sorted(env.seeds[0] for env in runner.envs))
    for a in range(5):
        for b in range(a):
            assert firsts[a] != firsts[b], (a, b)


class RandomQNet:
    """Stand-in agent net: fresh standard-normal Q rows on every forward,
    each remembered."""

    def __init__(self, n_actions, seed=0):
        self.rng = np.random.default_rng(seed)
        self.n_actions = n_actions
        self.outputs = []

    def forward_batch(self, own, allies, enemies, *, rng=None,
                      deterministic=True):
        q = self.rng.standard_normal((own.shape[0], self.n_actions))
        self.outputs.append(q)
        return Tensor(q)


def record_steps(runner):
    """Wrap the runner's batch so each tick's (avail, actions) pair is
    kept."""
    batch, seen = runner.batch, []
    views_of, step = batch.views, batch.step

    def views():
        avail, observations = views_of()
        seen.append([avail])
        return avail, observations

    def recording_step(actions):
        seen[-1].append(np.array(actions))
        return step(actions)

    batch.views = views
    batch.step = recording_step
    return seen


def test_runner_greedy_is_masked_argmax():
    cfg = PRESETS["5v6"]
    net = RandomQNet(cfg.n_actions)
    runner = ParallelRunner(
        small_cfg(parallel_runners=3, epsilon_start=0.0, epsilon_finish=0.0),
        env_factory_for("5v6", True, 0), net)
    seen = record_steps(runner)
    for _ in range(100):
        runner.tick()
    masked_away = 0
    for (avail, actions), q in zip(seen, net.outputs):
        q = q.reshape(avail.shape)
        for i, j in np.ndindex(actions.shape):
            open_actions = np.flatnonzero(avail[i, j])
            best = open_actions[np.argmax(q[i, j, open_actions])]
            assert actions[i, j] == best
            masked_away += not avail[i, j, np.argmax(q[i, j])]
    assert masked_away > 100


def test_runner_exploration_is_uniform_over_available():
    cfg = PRESETS["3v3"]
    runner = ParallelRunner(
        small_cfg(parallel_runners=4, epsilon_start=1.0, epsilon_finish=1.0),
        plain_env_factory, RandomQNet(cfg.n_actions))
    seen = record_steps(runner)
    for _ in range(1500):
        runner.tick()
    counts = {}     # open-action count -> how often each rank was chosen
    for avail, actions in seen:
        for i, j in np.ndindex(actions.shape):
            open_actions = np.flatnonzero(avail[i, j])
            assert avail[i, j, actions[i, j]]
            rank = np.searchsorted(open_actions, actions[i, j])
            counts.setdefault(open_actions.size,
                              np.zeros(open_actions.size))[rank] += 1
    checked = 0
    for size, ranks in counts.items():
        if size > 1 and ranks.sum() >= 2000:
            assert np.abs(ranks / ranks.sum() - 1 / size).max() < 0.03
            checked += 1
    assert checked >= 2


@pytest.mark.parametrize("eps", [0.0, 0.5])
def test_runner_explores_at_rate_epsilon(eps):
    # an explorer leaves the masked argmax unless its uniform pick lands
    # on it, so an agent with `count` open actions is non-greedy with
    # probability eps * (1 - 1/count)
    cfg = PRESETS["5v6"]
    net = RandomQNet(cfg.n_actions)
    runner = ParallelRunner(
        small_cfg(parallel_runners=4, epsilon_start=eps, epsilon_finish=eps),
        env_factory_for("5v6", True, 0), net)
    seen = record_steps(runner)
    for _ in range(600):
        runner.tick()
    non_greedy, expected = [], []
    for (avail, actions), q in zip(seen, net.outputs):
        greedy = greedy_actions(q.reshape(avail.shape), avail)
        assert np.take_along_axis(avail, actions[..., None], -1).all()
        non_greedy.append(actions != greedy)
        expected.append(eps * (1 - 1 / avail.sum(axis=-1)))
    non_greedy, expected = np.concatenate(non_greedy), np.concatenate(expected)
    if eps == 0.0:
        assert not non_greedy.any()
    else:
        # 12,000 agent-steps: the share's standard deviation is under 0.005
        assert abs(non_greedy.mean() - expected.mean()) < 0.02
        assert expected.mean() > 0.25


def test_greedy_actions_ties_and_all_masked_fallback():
    avail = np.array([[True, True, False, True],
                      [False, True, True, True],
                      [True, False, True, False],
                      [False, True, False, True]])
    q = np.array([[1.0, 3.0, 9.0, 3.0],      # tie: the first maximum
                  [7.0, 2.0, 2.0, -1.0],     # tie after a masked maximum
                  [-2e10, 0.0, -3e10, 0.0],  # every available value masked
                  [0.0, -2e10, 5.0, -2e10]])
    assert greedy_actions(q, avail).tolist() == [1, 1, 1, 0]
    # the all-masked fallback is noop for a living agent and stop for a
    # dead one, and the batch runs either as nothing at all
    cfg = PRESETS["3v3"]
    batch, fallback = BattleBatch(cfg, 2), BattleBatch(cfg, 2)
    for b in (batch, fallback):
        b.reset(0, 4)
        b.reset(1, 5)
        b.ally_hp[1, 0] = 0
    avail = batch.available_actions()
    actions = greedy_actions(np.full(avail.shape, 2 * NEG_MASK), avail)
    assert actions.tolist() == [[ACTION_NOOP] * 3,
                                [ACTION_STOP, ACTION_NOOP, ACTION_NOOP]]
    assert not avail[[0, 0, 0, 1, 1, 1], [0, 1, 2, 0, 1, 2],
                     actions.ravel()].any()
    got = fallback.step(actions)
    want = batch.step(np.where(avail[..., ACTION_NOOP], ACTION_NOOP,
                               ACTION_STOP))
    for a, b in zip(got, want):
        assert a.tobytes() == b.tobytes()
    for name in ("ally_x", "ally_y", "ally_hp", "enemy_x", "enemy_y",
                 "enemy_hp", "t"):
        assert getattr(fallback, name).tobytes() == \
            getattr(batch, name).tobytes(), name


def reference_env_factory(preset, shuffle, run_seed):
    """``cli.env_factory_for`` over the frozen reference env (with float32
    views) and wrapper: same configs, same wrapper streams."""
    cfg = PRESETS[preset]
    if not shuffle:
        return lambda tag: Float32ViewsEnv(cfg)
    return lambda tag: ref.ShuffleWrapper(
        Float32ViewsEnv(cfg), np.random.default_rng([run_seed, 17, tag]))


class PerBattleRunner:
    """The runner as it was before the battle batch: one env.step per
    battle and one epsilon-greedy choice per agent, each from its own
    ``ObservationSet``.  The reference for ``ParallelRunner``'s streams;
    run it on ``reference_env_factory`` envs.  Each tick draws every
    agent's uniform, then every explorer's index into its available
    actions, in (runner, agent) order.  It records each episode's unit
    arrays and presentation, and keeps the views it acted on in ``views``,
    one dict per finished episode."""

    def __init__(self, cfg, env_factory, net):
        self.cfg = cfg
        self.net = net
        self.envs = [env_factory(i) for i in range(cfg.parallel_runners)]
        self.reset_rng = np.random.default_rng([cfg.seed, 7])
        self.select_rng = np.random.default_rng([cfg.seed, 4])
        self.env_steps = 0
        self._partial = [[] for _ in self.envs]
        self.views = []
        self._obs, self._state = [], []
        for env in self.envs:
            obs, state = env.reset(int(self.reset_rng.integers(2 ** 31)))
            self._obs.append(obs)
            self._state.append(state)

    def select(self, q, avail, eps):
        """Each battle's actions: an explorer's ``k``-th available action,
        else the masked argmax."""
        n = len(avail[0])
        explore = self.select_rng.random((len(avail), n)) < eps
        explorers = list(zip(*np.nonzero(explore)))
        open_actions = [np.flatnonzero(avail[i][j]) for i, j in explorers]
        picks = self.select_rng.integers(
            np.array([a.size for a in open_actions], dtype=np.int64))
        actions = [np.array([np.argmax(np.where(row[j], q[i * n + j], NEG_MASK))
                             for j in range(n)], dtype=np.int64)
                   for i, row in enumerate(avail)]
        for (i, j), a, k in zip(explorers, open_actions, picks):
            actions[i][j] = a[k]
        return actions

    def tick(self):
        n = self.envs[0].cfg.n_allies
        avail = [env.available_actions() for env in self.envs]
        own = np.stack([o.own for obs in self._obs for o in obs])
        allies = np.stack([o.allies for obs in self._obs for o in obs])
        enemies = np.stack([o.enemies for obs in self._obs for o in obs])
        with no_grad():
            q = self.net.forward_batch(Tensor(own), Tensor(allies),
                                       Tensor(enemies)).data
        eps = anneal_epsilon(self.env_steps, self.cfg.epsilon_start,
                             self.cfg.epsilon_finish,
                             self.cfg.epsilon_anneal_steps)
        chosen = self.select(q, avail, eps)
        completed = []
        for i, env in enumerate(self.envs):
            actions = chosen[i]
            battle = getattr(env, "env", env)
            units = {name: getattr(battle, name).copy()
                     for name in UNIT_FIELDS}
            obs, state, reward, terminated, _ = env.step(actions)
            rows = slice(i * n, (i + 1) * n)
            self._partial[i].append((
                dict(units, actions=actions, rewards=reward),
                {"own": own[rows], "allies": allies[rows],
                 "enemies": enemies[rows], "state": self._state[i],
                 "avail": avail[i]}))
            self.env_steps += 1
            if terminated:
                steps, views = zip(*self._partial[i])
                ally_perm = getattr(env, "ally_perm", np.arange(n - 1))
                enemy_perm = getattr(env, "enemy_perm",
                                     np.arange(env.cfg.n_enemies))
                completed.append(episode_of(
                    steps, other_ally_index(n)[:, ally_perm], enemy_perm))
                self.views.append({name: np.stack([v[name] for v in views])
                                   for name in VIEW_FIELDS})
                self._partial[i] = []
                obs, state = env.reset(
                    int(self.reset_rng.integers(2 ** 31)))
            self._obs[i] = obs
            self._state[i] = state
        return completed


def rng_states(runner):
    """Bit-generator states of every stream a runner draws from."""
    wrappers = [env._rng for env in runner.envs if hasattr(env, "_rng")]
    return [g.bit_generator.state
            for g in [runner.select_rng, runner.reset_rng, *wrappers]]


@pytest.mark.parametrize("eps", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("preset, shuffle, limit", [
    ("3v3", True, None), ("5v6", False, None), ("3v3", True, 12),
], ids=["3v3-shuffle", "5v6", "3v3-shuffle-limit12"])
def test_tick_matches_per_battle_runner_bitwise(preset, shuffle, limit, eps,
                                                monkeypatch):
    if limit is not None:
        # time-limited episodes fill the runner's log to its last column
        monkeypatch.setitem(PRESETS, preset, dataclasses.replace(
            PRESETS[preset], episode_limit=limit))
    cfg = small_cfg(parallel_runners=3, epsilon_start=eps,
                    epsilon_finish=eps, seed=5)
    net = net_factory_for("concat", PRESETS[preset])(
        np.random.default_rng(23))
    runners = [cls(cfg, factory(preset, shuffle, 5), net)
               for cls, factory in ((ParallelRunner, env_factory_for),
                                    (PerBattleRunner, reference_env_factory))]
    finished = limited = 0
    for _ in range(150):
        got, want = (runner.tick() for runner in runners)
        assert len(got) == len(want)
        # the learner's views of each episode are what the reference acted on
        for ep_got, ep_want, seen in zip(got, want,
                                         runners[1].views[-len(want):]):
            assert_same_arrays(vars(ep_got), vars(ep_want))
            assert_same_arrays(learner_views(ep_got, PRESETS[preset]), seen)
        finished += len(got)
        limited += sum(len(e) == limit for e in got)
    assert finished >= 10
    assert (limited >= 5) == (limit is not None)
    assert runners[0].env_steps == runners[1].env_steps
    assert rng_states(runners[0]) == rng_states(runners[1])


@pytest.mark.parametrize("arch, mixer, augment, shuffle, preset", [
    ("concat", "vdn", False, True, "3v3"),
    ("dpn", "qmix", True, False, "5v6"),
], ids=["concat-shuffle-3v3", "dpn-qmix-aug-5v6"])
def test_train_loop_matches_per_battle_runner_bitwise(
        monkeypatch, arch, mixer, augment, shuffle, preset):
    learners_built = []

    class RecordingLearner(Learner):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            learners_built.append(self)

    monkeypatch.setattr(learners, "Learner", RecordingLearner)
    runs = []
    # the reference run also evaluates on the frozen reference envs
    for runner_cls, factory in ((ParallelRunner, env_factory_for),
                                (PerBattleRunner, reference_env_factory)):
        monkeypatch.setattr(learners, "ParallelRunner", runner_cls)
        rows = train_loop(small_cfg(seed=3), factory(preset, shuffle, 3),
                          net_factory_for(arch, PRESETS[preset]), mixer=mixer,
                          augment=augment, eval_interval=200)
        learner = learners_built[-1]
        assert learner.train_steps > 0
        runs.append((repr(rows), {name: p.data.tobytes()
                                  for name, p in learner.params.items()}))
    assert runs[0] == runs[1]


def test_evaluate_scripted_policies():
    assert evaluate(always_lose_policy, plain_env_factory, episodes=8) == 0.0
    assert evaluate(focus_fire_policy, plain_env_factory, episodes=32) == 1.0


def greedy_net_policy(net):
    """Reference policy: one single-observation forward and one masked
    argmax per agent."""
    def policy(env, avail):
        with no_grad():
            return np.array(
                [np.argmax(np.where(avail[i], net.forward(o).data, NEG_MASK))
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


@pytest.mark.parametrize("interval", [0, -200])
def test_train_loop_refuses_an_interval_below_one(interval):
    """Such a grid never passes step 0 and would evaluate there forever;
    the callback stops that loop, so a missing check fails, not hangs."""
    rows = []

    def progress(row):
        rows.append(row)
        if len(rows) == 3:
            raise RuntimeError("evaluated 3 times without advancing")

    with pytest.raises(ValueError, match=f"got {interval}"):
        train_loop(small_cfg(), plain_env_factory, concat_factory,
                   eval_interval=interval, progress=progress)
    assert rows == []


def test_train_loop_with_augmentation_runs():
    rows = train_loop(small_cfg(total_env_steps=200), plain_env_factory,
                      concat_factory, mixer="vdn", augment=True,
                      eval_interval=200)
    assert len(rows) == 1
