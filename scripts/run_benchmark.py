#!/usr/bin/env python3
"""Train every benchmark curve (reusing complete CSVs) and print the
per-method summary: final win rates and first-sustain step per seed.

Importing ``permnet`` pins BLAS to one thread before numpy loads, so a
curve's full-precision rows do not depend on the host."""

import argparse
import math
import time

from permnet import blas_setup
from permnet.benchmark import (
    BENCHMARK_SEEDS,
    BENCHMARK_STEPS,
    EVAL_INTERVAL,
    run_benchmark,
)
from permnet.cli import check_seeds


def fmt_sustain(value: float) -> str:
    return "never" if math.isinf(value) else f"{int(value)}"


def fmt_blas(threads: int | None, kernel: str | None) -> str:
    """``blas_setup``'s reading, "unknown" for a part it could not read."""
    named = "kernel unknown" if kernel is None else f"OpenBLAS kernel {kernel}"
    count = "unknown" if threads is None else threads
    return f"BLAS: {named}, threads {count}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results/benchmark")
    parser.add_argument("--seeds", type=int, nargs="+",
                        default=list(BENCHMARK_SEEDS))
    parser.add_argument("--steps", type=int, default=BENCHMARK_STEPS)
    parser.add_argument("--eval-interval", type=int, default=EVAL_INTERVAL)
    args = parser.parse_args()
    try:
        check_seeds(args.seeds)
    except ValueError as err:
        parser.error(f"--seeds: {err}")      # exits 2
    # every curve is evaluated on the grid eval_interval, 2 * eval_interval,
    # ... up to steps, which needs at least one point
    if args.steps < 1:
        parser.error(f"--steps: must be >= 1, got {args.steps}")
    if not 1 <= args.eval_interval <= args.steps:
        parser.error(f"--eval-interval: must be in [1, --steps {args.steps}]"
                     f", got {args.eval_interval}")

    # curve bytes hold per BLAS kernel and thread count (README)
    print(fmt_blas(*blas_setup()), flush=True)
    t0 = time.time()

    def progress(method, seed, path):
        print(f"[{time.time() - t0:7.0f}s] {method} seed {seed}: {path}",
              flush=True)

    summaries = run_benchmark(args.out, tuple(args.seeds), args.steps,
                              args.eval_interval, progress=progress)
    for name, s in summaries.items():
        finals = " ".join(f"{w:.3f}" for w in s.final_win_rates)
        sustains = " ".join(fmt_sustain(v) for v in s.sustain_steps)
        print(f"{name}:")
        print(f"  final win rates : {finals}  (median {s.median_final:.3f})")
        print(f"  sustain >=0.8 at: {sustains}  "
              f"(median {fmt_sustain(s.median_sustain)})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
