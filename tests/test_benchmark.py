"""Benchmark driver: sustain statistic, curve memoization, summaries."""

import hashlib
import json
import math
import os
import platform
import runpy
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from permnet.benchmark import (
    MethodSummary,
    benchmark_experiment,
    ensure_curve,
    first_sustain_step,
    run_benchmark,
    summarize_method,
)
from permnet.cli import load_config


def test_first_sustain_basic():
    steps = [100, 200, 300, 400]
    assert first_sustain_step(steps, [0.9, 0.9, 0.9, 0.9]) == 100
    assert first_sustain_step(steps, [0.1, 0.9, 0.7, 0.9]) == 400
    assert first_sustain_step(steps, [0.1, 0.9, 0.9, 0.7]) == math.inf
    assert first_sustain_step(steps, [0.1, 0.1, 0.8, 0.8]) == 300
    assert first_sustain_step([], []) == math.inf


def test_experiment_tags():
    assert benchmark_experiment("hpn_vdn").tag == "hpn_vdn_3v3"
    assert benchmark_experiment("concat_vdn_shuffle").tag \
        == "concat_vdn_shuffle_3v3"
    with pytest.raises(ValueError, match="unknown benchmark method"):
        benchmark_experiment("qmix_only")


def test_ensure_curve_memoizes(tmp_path):
    out = str(tmp_path)
    path = ensure_curve("concat_vdn_shuffle", 0, out,
                        total_env_steps=400, eval_interval=200)
    stamp = open(path, "rb").read()
    again = ensure_curve("concat_vdn_shuffle", 0, out,
                         total_env_steps=400, eval_interval=200)
    assert again == path
    assert open(path, "rb").read() == stamp
    # a truncated file no longer covers the grid and must be regenerated
    with open(path, "w") as fh:
        fh.write("env_steps,win_rate,loss\n200,0.000000,0.000000\n")
    ensure_curve("concat_vdn_shuffle", 0, out,
                 total_env_steps=400, eval_interval=200)
    assert open(path, "rb").read() == stamp


def test_ensure_curve_retrains_a_nan_win_curve(tmp_path):
    out = str(tmp_path)
    path = ensure_curve("concat_vdn_shuffle", 0, out,
                        total_env_steps=400, eval_interval=200)
    stamp = open(path, "rb").read()
    # the full grid, but win rates that first_sustain_step would count as
    # sustained
    with open(path, "w") as fh:
        fh.write("env_steps,win_rate,loss\n200,nan,nan\n400,nan,0.5\n")
    ensure_curve("concat_vdn_shuffle", 0, out,
                 total_env_steps=400, eval_interval=200)
    assert open(path, "rb").read() == stamp


def test_benchmark_arms_are_their_config_files():
    # ``permnet --config`` on these files trains the committed curves
    root = Path(__file__).resolve().parents[1] / "scripts" / "configs"
    for method, name in (("hpn_vdn", "hpn_vdn_3v3.cfg"),
                         ("concat_vdn_shuffle", "concat_vdn_shuffle_3v3.cfg")):
        assert load_config(str(root / name)) == benchmark_experiment(method)


def test_run_benchmark_summary_statistics(tmp_path):
    out = str(tmp_path)
    summaries = run_benchmark(out, seeds=(0, 1), total_env_steps=400,
                              eval_interval=200)
    assert set(summaries) == {"hpn_vdn", "concat_vdn_shuffle"}
    for s in summaries.values():
        assert len(s.final_win_rates) == 2
        assert all(0.0 <= w <= 1.0 for w in s.final_win_rates)
        assert all(v == math.inf or v in (200, 400) for v in s.sustain_steps)


@pytest.mark.parametrize("seeds", [(2, 2, 2, 0, 1), (0, -1), ()])
def test_run_benchmark_rejects_repeated_or_negative_seeds(tmp_path, seeds):
    # (2, 2, 2, 0, 1) once counted seed 2's curve three times in each median
    out = tmp_path / "bench"
    with pytest.raises(ValueError, match="a negative one or a repeat"):
        run_benchmark(str(out), seeds=seeds, total_env_steps=400,
                      eval_interval=200)
    assert not out.exists()


def run_benchmark_script(out, *flags):
    root = Path(__file__).resolve().parents[1]
    return subprocess.run(
        [sys.executable, str(root / "scripts" / "run_benchmark.py"),
         "--out", str(out), *flags],
        env=dict(os.environ, PYTHONPATH=str(root / "src")),
        capture_output=True, text=True)


@pytest.mark.parametrize("seeds", [["0", "0"], ["1", "-2"]])
def test_benchmark_script_exits_2_on_bad_seeds(tmp_path, seeds):
    out = tmp_path / "bench"
    proc = run_benchmark_script(out, "--seeds", *seeds)
    assert proc.returncode == 2
    assert "--seeds" in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("flags, named", [
    (["--eval-interval", "0"], "--eval-interval"),
    (["--steps", "0"], "--steps"),
    (["--steps", "400", "--eval-interval", "800"], "--eval-interval"),
], ids=["zero-interval", "zero-steps", "interval-past-steps"])
def test_benchmark_script_exits_2_on_bad_grid(tmp_path, flags, named):
    # no evaluation point would fall on the grid
    out = tmp_path / "bench"
    proc = run_benchmark_script(out, *flags)
    assert proc.returncode == 2
    # the usage line lists every flag; the error line names the bad one
    assert proc.stderr.splitlines()[-1].split("error: ")[1].startswith(named)
    assert not out.exists()


def test_summary_medians():
    s = MethodSummary("m", (0.9, 0.8, 1.0), (100, math.inf, 300))
    assert s.median_final == 0.9
    assert s.median_sustain == 300
    never = MethodSummary("m", (0.1,), (math.inf, math.inf, 200))
    assert never.median_sustain == math.inf


def test_summarize_method_reads_existing(tmp_path):
    out = str(tmp_path)
    ensure_curve("concat_vdn_shuffle", 3, out,
                 total_env_steps=400, eval_interval=200)
    s = summarize_method("concat_vdn_shuffle", out, seeds=(3,),
                         total_env_steps=400, eval_interval=200)
    assert len(s.final_win_rates) == 1


# records the BLAS variables at the moment numpy is first imported, then
# runs the script as a module (its main() does not run)
_SPY = """
import json, os, runpy, sys
seen = []
class Spy:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not seen:
            seen.append({v: os.environ.get(v) for v in sys.argv[2:]})
sys.meta_path.insert(0, Spy())
runpy.run_path(sys.argv[1])
print(json.dumps(seen[0]))
"""


def test_benchmark_script_pins_blas_before_numpy_loads():
    root = Path(__file__).resolve().parents[1]
    names = ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"]
    env = dict(os.environ, PYTHONPATH=str(root / "src"),
               **{name: "2" for name in names})
    out = subprocess.run(
        [sys.executable, "-c", _SPY, str(root / "scripts" / "run_benchmark.py"),
         *names], env=env, capture_output=True, text=True, check=True)
    assert json.loads(out.stdout) == {name: "1" for name in names}


# a weight-gradient product over a long batch axis: a multi-threaded BLAS
# splits its sum by thread, so its bytes follow the thread count
_GEMM = """
import hashlib
import permnet
import numpy as np
rng = np.random.default_rng(0)
a, g = rng.normal(size=(5000, 64)), rng.normal(size=(5000, 256))
print(hashlib.sha256((a.T @ g).tobytes()).hexdigest())
"""


def test_package_import_pins_blas_threads():
    root = Path(__file__).resolve().parents[1]
    digests = set()
    for threads in ("2", "1"):
        env = dict(os.environ, PYTHONPATH=str(root / "src"),
                   OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads)
        out = subprocess.run([sys.executable, "-c", _GEMM], env=env,
                             capture_output=True, text=True, check=True)
        digests.add(out.stdout)
    assert len(digests) == 1


@pytest.mark.parametrize("code, threads, warns", [
    ("import numpy, permnet", "2", True),
    ("import permnet, numpy", "2", False),
    ("import numpy, permnet", "1", False),
])
def test_late_import_warns_unless_blas_has_one_thread(code, threads, warns):
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"),
               OPENBLAS_NUM_THREADS=threads)
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert ("UserWarning" in out.stderr) == warns
    assert ("import permnet before numpy" in out.stderr) == warns


# the C library as ``permnet`` loads it: missing, without ``mallopt``, or
# recording each ``mallopt`` call
_ALLOCATOR = """
import ctypes, json, sys, types
calls = []

def mallopt(*args):
    calls.append(args)
    return 1

def library(name):
    if sys.argv[1] == "missing":
        raise OSError("no C library")
    return types.SimpleNamespace(
        **({} if sys.argv[1] == "lacks" else {"mallopt": mallopt}))

ctypes.CDLL = library
import permnet
print(json.dumps(calls))
"""


@pytest.mark.parametrize("library", ["missing", "lacks", "records"])
def test_import_keeps_freed_heap_only_where_glibc_allows(library):
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    out = subprocess.run(
        [sys.executable, "-W", "error::UserWarning", "-c", _ALLOCATOR,
         library], env=env, capture_output=True, text=True, check=True)
    assert out.stderr == ""
    glibc = platform.libc_ver()[0] == "glibc"
    # M_TOP_PAD (-2) at 64 MB
    want = [[-2, 64 << 20]] if library == "records" and glibc else []
    assert json.loads(out.stdout) == want


# numpy's bundled OpenBLAS as ``permnet.blas_setup`` finds and loads it:
# absent (another BLAS), failing to load, without the two getters, with
# only the thread getter, or reading both
_BLAS_PROBE = """
import ctypes, glob, json, sys, types
import permnet
case = sys.argv[1]
getters = {"scipy_openblas_get_num_threads64_": lambda: 3,
           "scipy_openblas_get_corename64_": lambda: b"Haswell"}
if case == "threads":
    del getters["scipy_openblas_get_corename64_"]

def library(name):
    if case == "fails":
        raise OSError("cannot load")
    return types.SimpleNamespace(**({} if case == "lacks" else getters))

if case == "absent":
    glob.glob = lambda pattern: []
ctypes.CDLL = library
print(json.dumps(permnet.blas_setup()))
"""


@pytest.mark.parametrize("case, want", [
    ("absent", [None, None]), ("fails", [None, None]),
    ("lacks", [None, None]), ("threads", [3, None]), ("reads", [3, "Haswell"]),
])
def test_blas_setup_reads_what_it_can(case, want):
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    out = subprocess.run(
        [sys.executable, "-W", "error::UserWarning", "-c", _BLAS_PROBE, case],
        env=env, capture_output=True, text=True, check=True)
    assert out.stderr == ""
    assert json.loads(out.stdout) == want


@pytest.mark.parametrize("setup, line", [
    ((1, "SkylakeX"), "BLAS: OpenBLAS kernel SkylakeX, threads 1"),
    ((3, None), "BLAS: kernel unknown, threads 3"),
    ((None, None), "BLAS: kernel unknown, threads unknown"),
])
def test_benchmark_script_names_only_the_blas_it_read(setup, line):
    # OpenBLAS is named only when its kernel was read
    root = Path(__file__).resolve().parents[1]
    script = runpy.run_path(str(root / "scripts" / "run_benchmark.py"))
    assert script["fmt_blas"](*setup) == line


def test_blas_setup_reads_the_suite_thread_count():
    from permnet import blas_setup
    threads, kernel = blas_setup()
    # None only where numpy bundles no scipy-openblas
    assert (threads, kernel) == (None, None) or (
        threads == 1 and isinstance(kernel, str) and kernel)


def test_suite_runs_on_one_blas_thread():
    """The suite's own process gives the 1-thread GEMM bytes, whatever
    thread count the host would default to."""
    rng = np.random.default_rng(0)
    a, g = rng.normal(size=(5000, 64)), rng.normal(size=(5000, 256))
    here = hashlib.sha256((a.T @ g).tobytes()).hexdigest()
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    out = subprocess.run([sys.executable, "-c", _GEMM], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == here
