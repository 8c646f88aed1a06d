"""Release gate: one test per acceptance criterion, each asserted at a
fixed tolerance.  Criterion 8 reuses complete benchmark CSVs under
``results/benchmark`` when present and trains them otherwise, so the first
run from a clean tree is expensive and every later run is seconds."""

import itertools
import math
import os
import time
from pathlib import Path

import numpy as np

from permnet.autodiff import (
    Tensor,
    grad_check,
    matmul,
    mul,
    reduce_sum,
)
from permnet.baselines import big_concat_agent
from permnet.benchmark import run_benchmark
from permnet.cli import ExperimentConfig, run_seed
from permnet.dpn import (
    DpnAgentNet,
    DpnNet,
    generate_permutation_matrix,
    is_permutation_matrix,
)
from permnet.env import (
    ENTITY_FEATURES,
    N_MOVE_ACTIONS,
    OWN_FEATURES,
    PRESETS,
    ObservationSet,
)
from permnet.gumbel import GumbelConfig, gumbel_softmax
from permnet.hpn import HpnAgentNet
from permnet.layers import count_parameters
from permnet.learners import (
    QmixMixer,
    TrainConfig,
    relabel_episode,
    td_lambda_targets,
)

from float64_params import in_float64
from replay_reference import learner_views, rollout_episode, step_obs

REPO_ROOT = Path(__file__).resolve().parents[1]
BENCHMARK_DIR = REPO_ROOT / "results" / "benchmark"

K = ENTITY_FEATURES


def live_obs(rng, n_allies, n_enemies):
    """A float32 observation, as the battle presents it, every entity
    alive."""
    allies = rng.normal(size=(n_allies - 1, K)).astype(np.float32)
    enemies = rng.normal(size=(n_enemies, K)).astype(np.float32)
    allies[:, 3] = 1.0
    enemies[:, 3] = 1.0
    own = rng.normal(size=OWN_FEATURES).astype(np.float32)
    return ObservationSet(own=own, allies=allies, enemies=enemies)


def test_c01_hpn_move_invariance_and_attack_equivariance():
    """100 float32 nets on float32 observations, 3 allies / 3 enemies, all
    12 joint permutations: move Q-values within 1e-9, attack Q-values
    permuted bitwise, under 10 s."""
    t0 = time.perf_counter()
    worst = 0.0
    for i in range(100):
        net = HpnAgentNet(np.random.default_rng([61, i]), 3, 3)
        obs = live_obs(np.random.default_rng([62, i]), 3, 3)
        base = net.forward(obs).data
        for pa in itertools.permutations(range(2)):
            for pe in itertools.permutations(range(3)):
                shuffled = ObservationSet(obs.own, obs.allies[list(pa)],
                                          obs.enemies[list(pe)])
                q = net.forward(shuffled).data
                worst = max(worst, float(np.max(np.abs(
                    q[:N_MOVE_ACTIONS] - base[:N_MOVE_ACTIONS]))))
                assert np.array_equal(q[N_MOVE_ACTIONS:],
                                      base[N_MOVE_ACTIONS:][list(pe)])
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-9
    assert elapsed < 10.0
    print(f"criterion 1 PASS: move drift {worst:.1e} <= 1e-9, attack "
          f"equivariance exact, {elapsed:.1f}s < 10s")


def test_c02_dpn_canonicalization_and_matrix_validity():
    """Deterministic assignment is order-free bitwise across all 4!
    orderings for 100 float32 nets on float32 inputs; 10k sampled matrices
    (noisy and deterministic) are valid permutation matrices; under
    30 s."""
    t0 = time.perf_counter()
    for i in range(100):
        net = DpnNet(np.random.default_rng([63, i]), K, 4,
                     gumbel=GumbelConfig(tau=0.5, hard=True,
                                         deterministic=True))
        X = np.random.default_rng([64, i]).normal(size=(4, K)).astype(
            np.float32)
        canon = set()
        for p in itertools.permutations(range(4)):
            Xp = Tensor(X[list(p)])
            M = generate_permutation_matrix(net, Xp)
            canon.add(matmul(M, Xp).data.tobytes())
        assert len(canon) == 1
    rng = np.random.default_rng(65)
    checked = 0
    for i in range(10):
        net = DpnNet(np.random.default_rng([66, i]), K, 4,
                     gumbel=GumbelConfig(tau=0.5, hard=True))
        X = Tensor(rng.normal(size=(500, 4, K)).astype(np.float32))
        noisy = generate_permutation_matrix(net, X, rng=rng)
        det = generate_permutation_matrix(net, X, deterministic=True)
        for M in noisy.data:
            assert is_permutation_matrix(M)
        for M in det.data:
            assert is_permutation_matrix(M)
        checked += 2 * X.shape[0]
    elapsed = time.perf_counter() - t0
    assert checked == 10_000
    assert elapsed < 30.0
    print(f"criterion 2 PASS: 100 nets canonicalize bitwise over 4! "
          f"orderings, {checked} matrices valid, {elapsed:.1f}s < 30s")


def _hpn_grad_case(j):
    sizes = [(2, 2), (3, 3), (2, 3), (3, 2), (4, 2), (2, 4), (3, 4)]
    n, m = sizes[j]
    agent = in_float64(HpnAgentNet(np.random.default_rng([71, j]), n, m,
                                   hidden=8, hyper_hidden=8))
    obs = live_obs(np.random.default_rng([72, j]), n, m)
    probe = Tensor(np.random.default_rng([73, j]).normal(
        size=N_MOVE_ACTIONS + m))

    def f(*params):
        return reduce_sum(mul(agent.forward(obs), probe))

    params = [agent.attack_head.b_head.weight, agent.attack_head.body.weight,
              agent.ally_embed.w_head.weight, agent.enemy_embed.body.weight,
              agent.own_dense.weight, agent.ally_embed.shared_bias]
    return f, params


def _dpn_soft_grad_case(j):
    m = 2 + j % 2
    net = in_float64(DpnNet(np.random.default_rng([74, j]), K, m,
                            gumbel=GumbelConfig(tau=1.0, hard=False,
                                                deterministic=True)))
    rng = np.random.default_rng([75, j])
    X = Tensor(rng.normal(size=(m, K)))
    C = Tensor(rng.normal(size=(m, K)))

    def f(*params):
        M = generate_permutation_matrix(net, X)
        return reduce_sum(mul(matmul(M, X), C))

    return f, [net.assign_mlp.layers[0].weight, net.assign_mlp.layers[1].bias]


def _dpn_trunk_grad_case(j):
    agent = in_float64(DpnAgentNet(np.random.default_rng([76, j]), 2 + j % 2,
                                   2, hidden=6))
    obs = live_obs(np.random.default_rng([77, j]), 2 + j % 2, 2)

    def f(*params):
        return reduce_sum(agent.forward(obs, deterministic=True))

    return f, [agent.body.weight, agent.move_head.weight,
               agent.attack_head.weight, agent.body.bias]


def _qmix_grad_case(j):
    mixer = in_float64(QmixMixer(np.random.default_rng([78, j]), 3, 8,
                                 embed=4, hypernet_embed=8))
    rng = np.random.default_rng([79, j])
    qs = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    states = Tensor(rng.normal(size=(4, 8)), requires_grad=True)

    def f(*params):
        return reduce_sum(mixer(qs, states))

    return f, list(mixer.named_parameters().values()) + [qs, states]


def test_c03_straight_through_and_full_model_gradients():
    """Hard-sample backward equals the soft-path backward bitwise; 20
    finite-difference checks across HPN, DPN, and mixing paths, on float64
    copies of the nets, stay under relative error 1e-4."""
    values = np.random.default_rng(68).normal(size=(4, 5))
    weight = Tensor(np.random.default_rng(69).normal(size=(4, 5)))
    hard_in = Tensor(values.copy(), requires_grad=True)
    soft_in = Tensor(values.copy(), requires_grad=True)
    cfg = GumbelConfig(tau=0.7)
    hard = gumbel_softmax(hard_in, GumbelConfig(tau=0.7, hard=True),
                          np.random.default_rng(70))
    soft = gumbel_softmax(soft_in, cfg, np.random.default_rng(70))
    reduce_sum(mul(hard, weight)).backward()
    reduce_sum(mul(soft, weight)).backward()
    assert np.array_equal(hard_in.grad, soft_in.grad)

    cases = [_hpn_grad_case(j) for j in range(7)]
    cases += [_dpn_soft_grad_case(j) for j in range(4)]
    cases += [_dpn_trunk_grad_case(j) for j in range(3)]
    cases += [_qmix_grad_case(j) for j in range(6)]
    assert len(cases) == 20
    worst = 0.0
    for f, params in cases:
        worst = max(worst, grad_check(f, params))
    assert worst < 1e-4
    print(f"criterion 3 PASS: straight-through grad exact, 20 grad checks "
          f"worst rel err {worst:.1e} < 1e-4")


def test_c04_gumbel_sampling_frequency():
    """100k noisy hard draws over logits [1, 2] select index 1 with the
    analytic categorical probability sigmoid(1) within 0.02."""
    rng = np.random.default_rng(81)
    logits = Tensor(np.tile([1.0, 2.0], (100_000, 1)))
    out = gumbel_softmax(logits, GumbelConfig(tau=1.0, hard=True), rng)
    freq = float(out.data[:, 1].mean())
    target = 1.0 / (1.0 + math.exp(-1.0))
    assert abs(freq - target) <= 0.02
    print(f"criterion 4 PASS: hard-sample frequency {freq:.4f} within "
          f"0.02 of {target:.4f}")


def test_c05_qmix_monotone_mixing():
    """1000 finite-difference probes: bumping any single agent value by
    1e-3 never decreases the mixed team value."""
    probes = 0
    for i in range(20):
        mixer = QmixMixer(np.random.default_rng([82, i]), 3, 8)
        rng = np.random.default_rng([83, i])
        for _ in range(50):
            qs = rng.normal(size=3)
            state = rng.normal(size=8)
            rows = np.tile(qs, (4, 1))
            for agent in range(3):
                rows[1 + agent, agent] += 1e-3
            out = mixer(Tensor(rows), Tensor(np.tile(state, (4, 1)))).data
            assert np.all(out[1:] - out[0] >= 0.0)
            probes += 1
    assert probes == 1000
    print("criterion 5 PASS: 1000 probes, every single-agent bump is "
          "non-decreasing in the team value")


def test_c06_td_lambda_backward_equals_forward_view():
    """Backward-recursion targets equal the weighted n-step forward view
    within 1e-10 on 1000 random episodes; the lambda 0 and 1 degeneracies
    are exact."""
    rng = np.random.default_rng(84)
    worst = 0.0
    for _ in range(1000):
        horizon = int(rng.integers(1, 11))
        rewards = rng.normal(size=horizon)
        next_values = rng.normal(size=horizon)
        gamma = float(rng.uniform(0.5, 1.0))
        lam = float(rng.uniform())
        got = td_lambda_targets(rewards, next_values, gamma, lam)
        want = np.zeros(horizon)
        for t in range(horizon):
            total = 0.0
            for nstep in range(1, horizon - t + 1):
                g = sum(gamma ** j * rewards[t + j] for j in range(nstep))
                g += gamma ** nstep * next_values[t + nstep - 1]
                if t + nstep < horizon:
                    total += (1.0 - lam) * lam ** (nstep - 1) * g
                else:
                    total += lam ** (nstep - 1) * g
            want[t] = total
        worst = max(worst, float(np.max(np.abs(got - want))))

        one_step = rewards + gamma * next_values
        assert np.array_equal(td_lambda_targets(rewards, next_values,
                                                gamma, 0.0), one_step)
        # G_t = r_t + gamma * G_{t+1} with G_T bootstrapped from V_T
        monte = np.zeros(horizon)
        running = next_values[-1]
        for t in reversed(range(horizon)):
            running = rewards[t] + gamma * running
            monte[t] = running
        assert np.array_equal(td_lambda_targets(rewards, next_values,
                                                gamma, 1.0), monte)
    assert worst <= 1e-10
    print(f"criterion 6 PASS: worst forward/backward gap {worst:.1e} "
          f"<= 1e-10 over 1000 episodes, degeneracies exact")


def test_c07_augmented_transitions_match_permuted_q_values():
    """On 100 relabeled transitions, observed as the learner rebuilds
    them, an HPN net returns exactly the enemy-permuted attack Q-values,
    and the chosen-action Q scalar is unchanged."""
    cfg = PRESETS["3v3"]
    net = HpnAgentNet(np.random.default_rng(90), 3, 3)
    rng = np.random.default_rng(91)
    checked, seed = 0, 400
    while checked < 100:
        episode = rollout_episode(seed)
        seed += 1
        ally_perm = rng.permutation(3)
        enemy_perm = rng.permutation(3)
        relabeled = relabel_episode(episode, ally_perm, enemy_perm)
        old, new = (learner_views(e, cfg) for e in (episode, relabeled))
        for t in range(len(episode)):
            for p in range(3):
                q_src = net.forward(step_obs(old, t, ally_perm[p])).data
                q_aug = net.forward(step_obs(new, t, p)).data
                assert np.array_equal(q_aug[N_MOVE_ACTIONS:],
                                      q_src[N_MOVE_ACTIONS:][enemy_perm])
                assert q_aug[relabeled.actions[t, p]] \
                    == q_src[episode.actions[t, ally_perm[p]]]
            checked += 1
            if checked >= 100:
                break
    print("criterion 7 PASS: 100 augmented transitions give exactly "
          "permuted attack Q rows and unchanged chosen-action values")


def test_c08_desk_scale_learning_benchmark():
    """3v3, 5 seeds, 200k env steps per method: HPN-VDN ends at median
    win rate >= 0.85 and first sustains >= 0.8 no later (in median env
    steps) than the shuffled concatenation baseline."""
    t0 = time.perf_counter()
    summaries = run_benchmark(str(BENCHMARK_DIR))
    elapsed = time.perf_counter() - t0
    hpn = summaries["hpn_vdn"]
    concat = summaries["concat_vdn_shuffle"]
    assert hpn.median_final >= 0.85
    assert hpn.median_sustain <= concat.median_sustain

    def show(v):
        return "never" if math.isinf(v) else str(int(v))

    print(f"criterion 8 PASS: hpn median final {hpn.median_final:.3f} "
          f">= 0.85; median sustain {show(hpn.median_sustain)} <= "
          f"{show(concat.median_sustain)} (concat+shuffle); "
          f"{elapsed:.0f}s on cached curves")


def test_c09_big_concat_has_more_parameters_than_hpn():
    """The widened concatenation baseline outsizes the hypernetwork agent
    on every preset; the build itself asserts the ordering."""
    for name, cfg in PRESETS.items():
        big = big_concat_agent(np.random.default_rng(0), cfg.n_allies,
                               cfg.n_enemies)
        hpn = HpnAgentNet(np.random.default_rng(1), cfg.n_allies,
                          cfg.n_enemies)
        big_n = count_parameters(big.named_parameters())
        hpn_n = count_parameters(hpn.named_parameters())
        assert big_n > hpn_n
        print(f"criterion 9 [{name}]: big concat {big_n} > hpn {hpn_n}")
    print("criterion 9 PASS: parameter ordering holds on every preset")


def test_c10_rerun_reproduces_csv_bytes(tmp_path):
    """The same config and seed write byte-identical result CSVs."""
    exp = ExperimentConfig(architecture="hpn", mixer="vdn",
                           eval_interval=500,
                           train=TrainConfig(total_env_steps=1000))
    paths = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        os.makedirs(out)
        paths.append(run_seed(exp, 0, str(out), overwrite=False))
    first = open(paths[0], "rb").read()
    second = open(paths[1], "rb").read()
    assert first == second
    lines = first.decode().splitlines()
    assert lines[0] == "env_steps,win_rate,loss"
    assert [int(ln.split(",")[0]) for ln in lines[1:]] == [500, 1000]
    print(f"criterion 10 PASS: rerun CSV byte-identical "
          f"({len(first)} bytes)")
