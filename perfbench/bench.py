"""Training-throughput benchmark for ``permnet.learners.train_loop``.

Each workload is one of the experiment configs in ``scripts/configs/`` run
on the paper schedule (``benchmark_train_config``) with a shortened env-step
budget, as a single-process closed loop: one learner, its lockstep rollout
runners and its evaluations, nothing else.  A run repeats ``train_loop``
with the same seed until its time is spent (see ``end_to_end`` for how the
repeats become one figure).  Each untraced repeat runs in a fresh
interpreter of its own: a second ``train_loop`` in one process runs some
10-25% slower than the first, by an amount that varies from run to run.
Timings are scaled to a reference host speed (see ``HostProbe``).

Workloads, and why each is in the set:

* ``hpn_vdn_3v3`` is the paper's headline arm and is learner-bound: the
  HPN hypernetwork forward and backward in ``Learner.train_step`` dominate.
* ``concat_vdn_shuffle_3v3`` is the order-sensitive arm behind
  ``ShuffleWrapper`` and is rollout-bound: env steps and the runner's
  per-step Python dominate.  It bypasses every HPN and autodiff-heavy path.
* ``dpn_qmix_aug_5v6`` drives the same learner differently: larger groups,
  a noisy grad forward, the QMIX mixer, relabelled replay that doubles each
  batch and longer, more padded episodes.

Correctness is checked on every repeat: finite rows, win rates in [0, 1]
and a complete evaluation grid; a row digest bit-identical to the first
repeat's; and, for the order-free architectures, an exact equivariance
probe on the trained online net (for DPN, except where a tie in its
argmax assignment can change the value; see ``dpn_exempt``).  Concat's
residual is printed too, to show that the probe can fail.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from permnet import autodiff, cli, dpn, gumbel, learners
from permnet.benchmark import benchmark_train_config
from permnet.env import N_MOVE_ACTIONS, PRESETS, MicroBattleEnv

from spans import SPAN_NAMES, Counters, Tracer, tail_percentile


@dataclasses.dataclass(frozen=True)
class Workload:
    config: str     # file name under scripts/configs/
    budget: int     # env steps per train_loop call


WORKLOADS = {
    "hpn_vdn_3v3": Workload("hpn_vdn_3v3.cfg", 8000),
    "concat_vdn_shuffle_3v3": Workload("concat_vdn_shuffle_3v3.cfg", 8000),
    "dpn_qmix_aug_5v6": Workload("dpn_qmix_5v6_aug.cfg", 4000),
}
EVALS_PER_RUN = 2
MIN_REPEATS = 2
SETUP_PROBES = 11   # fresh-process set-up probes per untraced run
REPEAT_TIMEOUT_S = 150
PROBE_OBSERVATIONS = 96
# spans that run a hundred times or more per repeat where they run at all
TAIL_SPANS = (
    "rollout.tick", "rollout.env_step", "rollout.env_reset", "rollout.avail",
    "rollout.net_act", "replay.add", "eval.env_step",
    "hpn.generate", "hpn.input_layer", "hpn.output_layer",
    "hpn.canonical_sum", "dpn.permutation_matrix", "dpn.gumbel_softmax",
)
# the loop's phases, which together cover a traced repeat
PHASE_SPANS = ("rollout.tick", "replay.augment", "learner.train_step",
               "eval.evaluate_net")
COUNTERS = {
    "work.env_steps": "count", "work.episodes": "count",
    "work.train_steps": "count", "learner.rows_per_step": "rows",
    "learner.pad_efficiency": "ratio", "replay.augmented_episodes": "count",
    "trace.overhead": "ratio", "trace.wall_s": "s", "trace.span_s": "s",
    "trace.unattributed_s": "s",
    "dpn.exempt_probes": "count", "dpn.exempt_entries": "count",
}


# ---------------------------------------------------------------------------
# running train_loop
# ---------------------------------------------------------------------------

def load_experiment(root: Path, name: str, seed: int,
                    budget: int | None = None) -> cli.ExperimentConfig:
    """The workload's config on the paper schedule, shortened budget."""
    workload = WORKLOADS[name]
    budget = workload.budget if budget is None else budget
    exp = cli.load_config(str(root / "scripts" / "configs" / workload.config))
    train = dataclasses.replace(benchmark_train_config(budget), seed=seed)
    if budget % (EVALS_PER_RUN * train.parallel_runners):
        raise ValueError(f"budget {budget} does not split into "
                         f"{EVALS_PER_RUN} evaluations of whole ticks")
    return dataclasses.replace(exp, train=train,
                               eval_interval=budget // EVALS_PER_RUN)


class SetupDone(Exception):
    """Raised at the first rollout tick when only set-up is timed."""


class FirstTick:
    """Stamps the first ``ParallelRunner.tick`` of ``train_loop``, where
    set-up ends.  The hook serves one call and puts the method back before
    ticking, so the loop itself runs unwrapped."""

    def __init__(self, stop: bool = False):
        self.stop = stop
        self.time = float("nan")

    def __enter__(self):
        cls = learners.ParallelRunner
        self._prev = prev = cls.__dict__["tick"]

        def tick(runner):
            self.time = time.perf_counter()
            cls.tick = prev
            if self.stop:
                raise SetupDone
            return prev(runner)

        cls.tick = tick
        return self

    def __exit__(self, *exc):
        learners.ParallelRunner.tick = self._prev
        return False


# ---------------------------------------------------------------------------
# host speed
# ---------------------------------------------------------------------------

# The shared host runs the same code up to 1.8x slower for seconds to
# minutes at a time, often for a whole run.  A fixed kernel of the benchmark's
# own (interpreter-bound Python and small numpy operations, the two kinds of
# work the program does) is timed between rollout ticks all through a
# repeat, and right after each set-up probe.  env_steps_per_s and setup_s
# are scaled by (median kernel time / PROBE_REF_S) ** PROBE_EXPONENT: they
# read as if the host ran at the reference speed, while a faster program
# raises them exactly as much as the raw figures, which are printed and
# recorded too.  The kernel swings more than the program does: across 60
# runs of the three workloads on a 2-vCPU Xeon VM, the program's speed
# followed the kernel's to a power of about 0.5-0.7, and scaling by the
# full ratio over-corrected the fast spells.
PROBE_EVERY = 10            # rollout ticks per host probe
PROBE_REF_S = 3.0e-4        # the kernel's typical time on that VM
PROBE_EXPONENT = 0.6
SETUP_PROBE_KERNELS = 50    # kernels timed after each set-up probe
_PROBE_X = np.linspace(-1.0, 1.0, 128).reshape(16, 8)
_PROBE_W = np.linspace(-0.5, 0.5, 64).reshape(8, 8)


def _kernel():
    total, seen = 0.0, {}
    for i in range(400):
        total += i * 0.5
        seen[i % 7] = total
    y = _PROBE_X
    for _ in range(15):
        h = np.tanh(y @ _PROBE_W + _PROBE_X)
        y = np.maximum(h, 0.0) * 0.5 + h.mean(axis=0, keepdims=True)


def probe_kernel() -> float:
    """Seconds one run of the host-speed kernel takes, after an untimed
    run that brings its code and data into the caches.  The collector is
    off meanwhile, so the program's live objects do not count."""
    gc_was_on = gc.isenabled()
    gc.disable()
    try:
        _kernel()
        start = time.perf_counter()
        _kernel()
        return time.perf_counter() - start
    finally:
        if gc_was_on:
            gc.enable()


class HostProbe:
    """Runs ``probe_kernel`` before every PROBE_EVERY-th rollout tick.
    ``run_repeat`` takes the ``spent`` seconds out of the wall time."""

    def __init__(self):
        self.times: list[float] = []
        self.spent = 0.0
        self._ticks = 0

    def __enter__(self):
        cls = learners.ParallelRunner
        self._prev = prev = cls.__dict__["tick"]

        def tick(runner):
            self._ticks += 1
            if self._ticks % PROBE_EVERY == 0:
                start = time.perf_counter()
                self.times.append(probe_kernel())
                self.spent += time.perf_counter() - start
            return prev(runner)

        cls.tick = tick
        return self

    def __exit__(self, *exc):
        learners.ParallelRunner.tick = self._prev
        return False


def host_scale(times: list[float]) -> float:
    """How much slower than the reference the host ran, from kernel
    times."""
    return (statistics.median(times) / PROBE_REF_S) ** PROBE_EXPONENT


def train(exp: cli.ExperimentConfig, nets: list, stop_at_first_tick=False):
    """Run train_loop on the experiment.  Returns the rows and the seconds
    from the first tick to the end; the nets it builds are appended to
    ``nets`` (online first, then target)."""
    make_net = cli.net_factory_for(exp.architecture, PRESETS[exp.preset])

    def net_factory(rng):
        nets.append(make_net(rng))
        return nets[-1]

    env_factory = cli.env_factory_for(exp.preset, exp.shuffle,
                                      exp.train.seed)
    with FirstTick(stop=stop_at_first_tick) as first:
        try:
            rows = learners.train_loop(
                exp.train, env_factory, net_factory, mixer=exp.mixer,
                augment=exp.augment, augment_copies=exp.augment_copies,
                eval_interval=exp.eval_interval)
        except SetupDone:
            return [], 0.0
    return rows, time.perf_counter() - first.time


def time_setup(root: Path, name: str, seed: int, t0: float) -> float:
    """Seconds from ``t0`` (taken before this module was imported) until
    train_loop's first tick: permnet import plus learner and runner
    construction."""
    train(load_experiment(root, name, seed), [], stop_at_first_tick=True)
    return time.perf_counter() - t0


def setup_scale() -> float:
    """HostProbe.scale for the moment right after a set-up probe."""
    return host_scale([probe_kernel() for _ in range(SETUP_PROBE_KERNELS)])


def fresh_setup_time(root: Path, name: str, seed: int) -> tuple[float, float]:
    """Set-up time measured in a fresh interpreter, and the host's
    slowness (``setup_scale``) there."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("run.py")),
         "--setup-probe", "--workload", name, "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, check=True)
    setup, scale = proc.stdout.strip().splitlines()[-1].split()
    return float(setup), float(scale)


# ---------------------------------------------------------------------------
# correctness
# ---------------------------------------------------------------------------

def row_digest(rows) -> str:
    """SHA-256 over the rows with every float in full precision."""
    h = hashlib.sha256()
    for steps, win, loss in rows:
        h.update(f"{steps},{float(win).hex()},{float(loss).hex()}\n"
                 .encode())
    return h.hexdigest()


def _non_identity_perm(rng: np.random.Generator, size: int) -> np.ndarray:
    if size < 2:
        return np.arange(size)
    while True:
        perm = rng.permutation(size)
        if np.any(perm != np.arange(size)):
            return perm


def _probe_batch(env_cfg, seed: int):
    """Observations from random-action episodes (every fourth step), each
    with a non-identity ally and enemy permutation."""
    rng = np.random.default_rng([seed, 77])
    env = MicroBattleEnv(env_cfg)
    obs = []
    while len(obs) < PROBE_OBSERVATIONS:
        step_obs, _ = env.reset(int(rng.integers(2 ** 31)))
        for t in range(env_cfg.episode_limit):
            if t % 4 == 0:
                obs.extend(step_obs)
            avail = env.available_actions()
            actions = np.array([rng.choice(np.flatnonzero(row))
                                for row in avail])
            step_obs, _, _, done, _ = env.step(actions)
            if done:
                break
    obs = obs[:PROBE_OBSERVATIONS]
    allies = np.stack([o.allies for o in obs])
    enemies = np.stack([o.enemies for o in obs])
    return (np.stack([o.own for o in obs]), allies, enemies,
            np.stack([_non_identity_perm(rng, allies.shape[1]) for _ in obs]),
            np.stack([_non_identity_perm(rng, enemies.shape[1])
                      for _ in obs]))


def _greedy_q(net, own, allies, enemies) -> np.ndarray:
    with autodiff.no_grad():
        return learners._net_forward(
            net, autodiff.Tensor(own), autodiff.Tensor(allies),
            autodiff.Tensor(enemies), deterministic=True).data


def _permuted(batch):
    own, allies, enemies, ally_perm, enemy_perm = batch
    return (own, np.take_along_axis(allies, ally_perm[..., None], axis=1),
            np.take_along_axis(enemies, enemy_perm[..., None], axis=1))


def equivariance_residuals(net, batch) -> np.ndarray:
    """Per probe observation and Q entry, |Q(pi x) - pi Q(x)| where pi
    reorders the ally and enemy rows: move values must not change and
    attack values must follow their enemy."""
    own, allies, enemies, _, enemy_perm = batch
    q = _greedy_q(net, own, allies, enemies)
    q_perm = _greedy_q(net, *_permuted(batch))
    expected = np.concatenate(
        [q[:, :N_MOVE_ACTIONS],
         np.take_along_axis(q[:, N_MOVE_ACTIONS:], enemy_perm, axis=1)],
        axis=1)
    return np.abs(q_perm - expected)


def _distinct_ties(group_net, rows: np.ndarray) -> np.ndarray:
    """Replays DPN's deterministic slot-by-slot selection on one group's
    rows (B, m, k).  Per observation: whether some slot's maximum among the
    entities not yet taken is shared by rows that differ.  The argmax then
    picks by input position, so the canonical input M x depends on the
    order."""
    b, m = rows.shape[:2]
    cfg = dataclasses.replace(group_net.gumbel, hard=False,
                              deterministic=True)
    index = np.arange(b)
    taken = np.zeros((b, m))
    tied = np.zeros(b, dtype=bool)
    with autodiff.no_grad():
        scores = group_net.assign_mlp(autodiff.Tensor(rows)).data
        for d in range(m):
            masked = autodiff.add(autodiff.Tensor(scores[:, :, d]),
                                  autodiff.Tensor(dpn.NEG_MASK * taken))
            soft = gumbel.gumbel_softmax(masked, cfg).data
            top = soft == soft.max(axis=-1, keepdims=True)
            pick = np.argmax(soft, axis=-1)
            same = np.all(rows == rows[index, pick][:, None, :], axis=-1)
            tied |= np.any(top & ~same, axis=-1)
            taken[index, pick] = 1.0
    return tied


def _twins(rows: np.ndarray) -> np.ndarray:
    """Per observation and entity: whether another row equals its row."""
    equal = np.all(rows[:, :, None, :] == rows[:, None, :, :], axis=-1)
    return equal.sum(axis=-1) > 1


def dpn_exempt(net, batch) -> tuple[np.ndarray, np.ndarray]:
    """The probe observations, and the Q entries of the others, whose
    value a tie in DPN's argmax assignment can change.

    A tie between distinct rows makes the canonical input, and with it
    every Q value, depend on the input order: the observation is exempt.
    A tie between identical rows (dead entities) leaves the canonical input
    unchanged, but M^T hands the twins' attack values out by position, so
    only the attack entries of identical enemy rows are exempt."""
    own, allies, enemies, _, _ = batch
    _, p_allies, p_enemies = _permuted(batch)
    probes = np.zeros(len(own), dtype=bool)
    for group_net, group in ((net.ally_net, allies), (net.ally_net, p_allies),
                             (net.enemy_net, enemies),
                             (net.enemy_net, p_enemies)):
        probes |= _distinct_ties(group_net, group)
    entries = np.zeros((len(own), net.n_actions), dtype=bool)
    entries[:, N_MOVE_ACTIONS:] = _twins(p_enemies)
    entries[probes] = True
    return probes, entries


# architectures whose Q-values must follow an entity permutation bitwise,
# each with the probes and entries a known tie-break exempts (None: none)
EXACT_ARCHITECTURES = {"hpn": None, "dpn": dpn_exempt}


def check_rows(rows, exp: cli.ExperimentConfig) -> list[str]:
    problems = []
    grid = list(range(exp.eval_interval, exp.train.total_env_steps + 1,
                      exp.eval_interval))
    if [r[0] for r in rows] != grid:
        problems.append(f"eval grid {[r[0] for r in rows]} != {grid}")
    for steps, win, loss in rows:
        if not (np.isfinite(win) and np.isfinite(loss)):
            problems.append(f"non-finite row at {steps}: {win}, {loss}")
        elif not 0.0 <= win <= 1.0:
            problems.append(f"win rate {win} outside [0, 1] at {steps}")
    return problems


@dataclasses.dataclass
class Repeat:
    traced: bool
    wall_s: float = float("nan")        # train_loop less host probes
    host_scale: float = float("nan")    # see host_scale; untraced only
    peak_rss_mb: float = float("nan")   # of a fresh-process repeat
    digest: str = ""
    residual: float = float("nan")      # over every probe entry
    gated: float = float("nan")         # over the entries it gates
    exempt_probes: int = 0              # observations a tie exempts
    exempt_entries: int = 0             # Q entries of the others it exempts
    problems: list = dataclasses.field(default_factory=list)


def run_repeat(exp, tracer: Tracer | None = None,
               reference: str | None = None) -> Repeat:
    """One train_loop call plus its correctness checks.  A raised error
    is recorded as a failed repeat so the run can go on and report it."""
    rep = Repeat(traced=tracer is not None)
    nets: list = []
    try:
        if tracer is not None:
            tracer.nets = nets
            tracer.install()
        probe = HostProbe() if tracer is None else None
        try:
            with probe or contextlib.nullcontext():
                rows, rep.wall_s = train(exp, nets)
        finally:
            if tracer is not None:
                tracer.restore()
        if probe is not None:
            rep.wall_s -= probe.spent
            rep.host_scale = host_scale(probe.times)
        rep.digest = row_digest(rows)
        rep.problems += check_rows(rows, exp)
        batch = _probe_batch(PRESETS[exp.preset], exp.train.seed)
        residuals = equivariance_residuals(nets[0], batch)
        rep.residual = float(residuals.max())
        if exp.architecture in EXACT_ARCHITECTURES:
            exempt_on = EXACT_ARCHITECTURES[exp.architecture]
            probes, entries = (
                (np.zeros(len(residuals), dtype=bool),
                 np.zeros(residuals.shape, dtype=bool))
                if exempt_on is None else exempt_on(nets[0], batch))
            rep.exempt_probes = int(probes.sum())
            rep.exempt_entries = int(entries[~probes].sum())
            rep.gated = float(residuals[~entries].max(initial=0.0))
    except Exception:
        rep.problems.append(traceback.format_exc())
        return rep
    _check_digest(rep, reference)
    if exp.architecture in EXACT_ARCHITECTURES and rep.gated != 0.0:
        rep.problems.append(f"equivariance residual {rep.gated!r} != 0")
    return rep


def _check_digest(rep: Repeat, reference: str | None):
    if reference is not None and rep.digest != reference:
        rep.problems.append(f"row digest {rep.digest[:16]} differs from "
                            f"the first repeat's {reference[:16]}")


def one_repeat(root: Path, name: str, seed: int,
               budget: int | None) -> dict:
    """One untraced repeat in this process, with its peak RSS, as the
    record ``fresh_repeat`` reads."""
    rep = run_repeat(load_experiment(root, name, seed, budget))
    rep.peak_rss_mb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                       / 1024.0)
    return dataclasses.asdict(rep)


def fresh_repeat(root: Path, name: str, seed: int, budget: int | None,
                 reference: str | None) -> Repeat:
    """One untraced repeat in a fresh interpreter.  A process that fails
    or times out is a failed repeat."""
    cmd = [sys.executable, str(Path(__file__).with_name("run.py")),
           "--one-repeat", "--workload", name, "--seed", str(seed)]
    if budget is not None:
        cmd += ["--budget", str(budget)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=REPEAT_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return Repeat(traced=False, problems=[
            f"repeat process ran past {REPEAT_TIMEOUT_S} s"])
    if proc.returncode != 0:
        return Repeat(traced=False, problems=[
            f"repeat process exited {proc.returncode}:\n"
            + proc.stderr[-4000:]])
    rep = Repeat(**json.loads(proc.stdout.strip().splitlines()[-1]))
    _check_digest(rep, reference)
    return rep


# ---------------------------------------------------------------------------
# provenance and reporting
# ---------------------------------------------------------------------------

def blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({ln.split()[-1] for ln in fh
                           if "openblas" in ln.lower() and ".so" in ln})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root: Path) -> str:
    """HEAD of the checkout's own .git, without running git (which could
    find a repository above the checkout)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(root: Path, name: str, exp, seconds: float,
               trace: bool) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": name, "seed": exp.train.seed,
        "budget_env_steps": exp.train.total_env_steps,
        "eval_interval": exp.eval_interval, "seconds": seconds,
        "trace": trace, "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(), "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(), "git_commit": _git_commit(root),
    }


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def _residual_text(rep: Repeat) -> str:
    if np.isnan(rep.gated):
        return f"residual {rep.residual!r} (informational)"
    return (f"residual {rep.residual!r}, gated {rep.gated!r} on "
            f"{PROBE_OBSERVATIONS - rep.exempt_probes}/{PROBE_OBSERVATIONS} "
            f"probes less {rep.exempt_entries} twin attack entries")


def _print_repeat(i: int, rep: Repeat, budget: int):
    rate = budget / rep.wall_s if rep.wall_s > 0 else float("nan")
    kind = "traced  " if rep.traced else "untraced"
    status = "ok" if not rep.problems else "FAILED"
    host = "" if rep.traced else (f" (host x{rep.host_scale:.3f}: "
                                  f"{rate * rep.host_scale:.1f})")
    print(f"  repeat {i:2d} {kind} {rep.wall_s:8.3f} s  {rate:9.1f} "
          f"env steps/s{host}  digest {rep.digest[:16]}  "
          f"{_residual_text(rep)}  {status}")
    for problem in rep.problems:
        print("    " + problem.rstrip().replace("\n", "\n    "))


def end_to_end(exp, repeats: list[Repeat],
               setup: list[tuple[float, float]]) -> dict:
    """Median env steps per second over the passing repeats and median
    fresh-process set-up time, both at the reference host speed, and
    median peak RSS of the repeats' processes."""
    passing = [r for r in repeats if not r.problems]
    raw = [exp.train.total_env_steps / r.wall_s for r in passing]
    rates = [rate * r.host_scale for rate, r in zip(raw, passing)]
    setups = [seconds / scale for seconds, scale in setup]
    peak_mb = (statistics.median(r.peak_rss_mb for r in passing)
               if passing else 0.0)
    metrics = {
        "env_steps_per_s": _metric(statistics.median(rates) if rates
                                   else 0.0, "1/s"),
        "setup_s": _metric(statistics.median(setups), "s"),
        "peak_rss_mb": _metric(peak_mb, "MB"),
    }
    if rates:
        lo, hi = _quartiles(rates)
        print(f"env_steps_per_s  {statistics.median(rates):.1f} 1/s  "
              f"(median of {len(rates)} repeats at reference host speed; "
              f"p25 {lo:.1f}, p75 {hi:.1f}, max {max(rates):.1f}; as run "
              f"{statistics.median(raw):.1f})")
    print(f"setup_s          {statistics.median(setups):.4f} s  (median of "
          f"{len(setups)} fresh processes at reference host speed; min "
          f"{min(setups):.4f}, max {max(setups):.4f}; as run "
          f"{statistics.median(s for s, _ in setup):.4f})")
    print(f"peak_rss_mb      {peak_mb:.1f} MB")
    return metrics


def per_layer(tracer: Tracer, repeats: list[Repeat]) -> tuple[dict, dict]:
    """Per-span metrics and trace counters, plus each span's tail
    percentile.  Calls and counters come from the first traced run; self
    times are medians over traced runs; latencies pool every traced call.
    A traced repeat's run id is its index in ``repeats``."""
    runs = [i for i, r in enumerate(repeats) if r.traced and not r.problems]
    traced = [repeats[i] for i in runs]
    untraced = [r for r in repeats if not r.traced and not r.problems]
    first = runs[0]
    calls = tracer.calls(first)
    selfs = [tracer.self_times(run) for run in runs]
    durations = tracer.durations()
    metrics, tails = {}, {}
    for span in SPAN_NAMES:
        d = durations.get(span, np.zeros(0))
        metrics[f"{span}.calls"] = _metric(calls.get(span, 0), "count")
        metrics[f"{span}.self_s"] = _metric(
            statistics.median(s.get(span, 0.0) for s in selfs), "s")
        metrics[f"{span}.p50_ms"] = _metric(
            float(np.percentile(d, 50)) * 1e3 if d.size else 0.0, "ms")
        pct = tail_percentile(calls.get(span, 0))
        tail = float(np.percentile(d, pct)) * 1e3 if pct else 0.0
        tails[span] = (pct, tail)
        if span in TAIL_SPANS:
            metrics[f"{span}.tail_ms"] = _metric(tail, "ms")
    c = tracer.counters.get(first, Counters())
    wall = traced[0].wall_s
    covered = tracer.root_time(first)
    counters = {
        "work.env_steps": calls.get("rollout.env_step", 0),
        "work.episodes": calls.get("replay.add", 0),
        "work.train_steps": c.train_steps,
        "learner.rows_per_step": c.grad_rows / max(c.train_steps, 1),
        "learner.pad_efficiency": c.real_steps / max(c.padded_steps, 1),
        "replay.augmented_episodes": c.augmented,
        "trace.overhead": (min(r.wall_s for r in traced)
                           / min(r.wall_s for r in untraced)),
        "trace.wall_s": wall, "trace.span_s": covered,
        "trace.unattributed_s": wall - covered,
        "dpn.exempt_probes": traced[0].exempt_probes,
        "dpn.exempt_entries": traced[0].exempt_entries,
    }
    for key, value in counters.items():
        metrics[key] = _metric(value, COUNTERS[key])
    return metrics, tails


def print_layers(metrics: dict, tails: dict):
    wall = metrics["trace.wall_s"]["value"]
    print(f"{'span':24s} {'calls':>7s} {'self_s':>9s} {'share':>6s} "
          f"{'p50_ms':>9s} {'tail':>6s} {'tail_ms':>9s}")
    order = sorted(SPAN_NAMES, key=lambda s: -metrics[f"{s}.self_s"]["value"])
    for span in order:
        calls = metrics[f"{span}.calls"]["value"]
        if not calls:
            continue
        self_s = metrics[f"{span}.self_s"]["value"]
        pct, tail = tails[span]
        label = f"p{pct:g}" if pct else "-"
        print(f"{span:24s} {calls:7d} {self_s:9.4f} {self_s / wall:6.1%} "
              f"{metrics[f'{span}.p50_ms']['value']:9.4f} {label:>6s} "
              f"{tail:9.4f}")
    for key in COUNTERS:
        print(f"{key:28s} {metrics[key]['value']!r} {COUNTERS[key]}")


def print_phases(tracer: Tracer, run: int, wall: float):
    """Share of one traced repeat's wall time spent under each phase,
    children included."""
    totals = tracer.totals(run)
    print("phases " + ", ".join(
        f"{span} {totals.get(span, 0.0) / wall:.1%}" for span in PHASE_SPANS))


# ---------------------------------------------------------------------------
# one benchmark run
# ---------------------------------------------------------------------------

def run(root: Path, out_dir: Path, name: str, seed: int, seconds: float,
        trace: bool, budget: int | None = None) -> dict:
    """Repeat the workload until ``seconds`` are spent, at least
    MIN_REPEATS times, and return the result object the benchmark prints
    last.  Traced repeats alternate with untraced ones when ``trace``.
    ``budget`` overrides the workload's env steps per repeat."""
    exp = load_experiment(root, name, seed, budget)
    prov = provenance(root, name, exp, seconds, trace)
    print(f"workload {name} seed {seed}: {exp.train.total_env_steps} env "
          f"steps per repeat, eval every {exp.eval_interval}")
    print("provenance " + repr(prov))
    tracer = Tracer()
    repeats: list[Repeat] = []
    setup: list[tuple[float, float]] = []     # (seconds, host scale)
    start = time.perf_counter()
    deadline = start + seconds
    while True:
        started = time.perf_counter()
        traced = trace and len(repeats) % 2 == 1
        tracer.run = len(repeats)
        reference = repeats[0].digest if repeats else None
        repeats.append(
            run_repeat(exp, tracer if traced else None, reference) if trace
            else fresh_repeat(root, name, seed, budget, reference))
        _print_repeat(len(repeats), repeats[-1], exp.train.total_env_steps)
        spent = time.perf_counter() - started
        enough = len(repeats) >= MIN_REPEATS and (
            not trace or len(repeats) % 2 == 0)
        done = enough and time.perf_counter() + spent > deadline
        if not trace:
            # set-up probes keep pace with the run's time, so a short slow
            # spell of the shared host cannot set their median
            share = 1.0 if done or seconds <= 0 else (
                (time.perf_counter() - start) / seconds)
            while len(setup) < min(SETUP_PROBES,
                                   math.ceil(SETUP_PROBES * share)):
                setup.append(fresh_setup_time(root, name, seed))
        if done:
            break
    failed = sum(1 for r in repeats if r.problems)
    metrics, tails = {}, {}
    if not trace:
        metrics = end_to_end(exp, repeats, setup)
    elif any(r.traced and not r.problems for r in repeats) and any(
            not r.traced and not r.problems for r in repeats):
        metrics, tails = per_layer(tracer, repeats)
        print_layers(metrics, tails)
        first = next(i for i, r in enumerate(repeats)
                     if r.traced and not r.problems)
        print_phases(tracer, first, repeats[first].wall_s)
    if trace:
        tracer.write_csv(out_dir / f"{name}_seed{seed}_spans.csv")
    print(f"row digest {repeats[0].digest}")
    print(f"equivariance {_residual_text(repeats[0])}")
    print(f"correctness: {'ok' if not failed else 'FAILED'}  failed "
          f"{failed} / attempted {len(repeats)}")
    result = {"correct": failed == 0 and bool(metrics),
              "attempted": len(repeats), "failed": failed,
              "metrics": metrics}
    record = {"provenance": prov, "result": result,
              "row_digest": repeats[0].digest,
              "repeats": [dataclasses.asdict(r) for r in repeats],
              "setup_probes": [{"seconds": s, "host_scale": k}
                               for s, k in setup],
              "tail_percentiles": {k: v[0] for k, v in tails.items()}}
    (out_dir / f"{name}_seed{seed}_trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1))
    return result
