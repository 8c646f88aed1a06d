#!/usr/bin/env python3
"""Run permnet's training-throughput benchmark from the checkout root.

    python3 perfbench/run.py --workload hpn_vdn_3v3 --seed 0 --seconds 30 \\
        --trace 0

``--trace 0`` prints the end-to-end metrics (env_steps_per_s, setup_s,
peak_rss_mb), running each repeat in a fresh interpreter; ``--trace 1``
alternates untraced and traced repeats in one process and prints per-layer
span metrics.  ``--workload all`` runs every workload, each
in its own process.  The last stdout line of a single-workload run is one
JSON object: correct, attempted, failed, metrics.  Exit code 0 when every
correctness check passed, 1 when one failed, 2 when the program's sources
are missing.  Results and span dumps go to ``perfbench/out/``.

BLAS runs single-threaded (below the core count of any machine) so the
closed loop measures one core; the thread count is recorded.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("hpn_vdn_3v3", "concat_vdn_shuffle_3v3", "dpn_qmix_aug_5v6")
BLAS_THREADS = "1"


def _prepare() -> bool:
    """Point imports at the checkout's own sources; False when absent."""
    src = ROOT / "src"
    if not (src / "permnet" / "__init__.py").is_file() \
            or not (ROOT / "scripts" / "configs").is_dir():
        print(f"permnet sources not found under {ROOT}", file=sys.stderr)
        return False
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path[:0] = [str(src), str(HERE)]
    return True


def _run_all(args) -> int:
    """Each workload in its own process, so peak RSS is that workload's."""
    status = 0
    summary = []
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        status = max(status, proc.returncode)
        summary.append((name, proc.stdout.strip().splitlines()[-1:]))
    print("summary")
    for name, last in summary:
        print(f"  {name}: {last[0] if last else 'no result'}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0,
                        help="TrainConfig.seed of every repeat")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="time to spend on repeats")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--one-repeat", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--budget", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not _prepare():
        return 2
    if args.workload == "all":
        return _run_all(args)
    t0 = time.perf_counter()
    import bench

    if args.setup_probe:
        setup = bench.time_setup(ROOT, args.workload, args.seed, t0)
        print(f"{setup!r} {bench.setup_scale()!r}")
        return 0
    if args.one_repeat:
        print(json.dumps(bench.one_repeat(ROOT, args.workload, args.seed,
                                          args.budget)))
        return 0
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    result = bench.run(ROOT, out_dir, args.workload, args.seed, args.seconds,
                       bool(args.trace), args.budget)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
