"""Desk-scale learning benchmark: set-based agents vs order-sensitive ones.

The headline comparison trains HPN-VDN on the 3v3 preset against a flat
concatenation agent whose inputs are re-shuffled every episode, over the
same seeds and step budget, and summarizes each method by

* the median final evaluation win rate, and
* the median number of env steps to *first sustain* a win rate >= 0.8,
  meaning every evaluation from that point through the end of training
  stays at or above the threshold (math.inf when a run never does).

Curves are written as the standard result CSVs and reused on rerun when a
complete file is already present, so the expensive part runs at most once
per (method, seed).  ``scripts/run_benchmark.py`` is the command-line
wrapper around :func:`run_benchmark`.
"""

from __future__ import annotations

import dataclasses
import math
import os

import numpy as np

from .cli import (ExperimentConfig, check_seeds, read_curve, run_seed,
                  seed_csv_path)
from .learners import TrainConfig

BENCHMARK_SEEDS = (0, 1, 2, 3, 4)
BENCHMARK_STEPS = 200_000
EVAL_INTERVAL = 4_000
SUSTAIN_THRESHOLD = 0.8

# method name -> ExperimentConfig field overrides; only identity differs,
# both methods train under the same tuned hyperparameters
METHODS = {
    "hpn_vdn": {"architecture": "hpn", "shuffle": False},
    "concat_vdn_shuffle": {"architecture": "concat", "shuffle": True},
}


def benchmark_train_config(total_env_steps: int = BENCHMARK_STEPS) -> TrainConfig:
    """Single-CPU tuned schedule: sparser, larger-batch updates than the
    dense defaults, a faster target sync to match, and a shorter
    exploration anneal so greedy performance settles well before the
    step budget runs out."""
    return TrainConfig(total_env_steps=total_env_steps,
                       train_interval=128,
                       target_update_interval=50,
                       epsilon_anneal_steps=50_000)


def benchmark_experiment(method: str, total_env_steps: int = BENCHMARK_STEPS,
                         eval_interval: int = EVAL_INTERVAL) -> ExperimentConfig:
    if method not in METHODS:
        raise ValueError(f"unknown benchmark method {method!r}; "
                         f"expected one of {sorted(METHODS)}")
    return ExperimentConfig(
        **METHODS[method], mixer="vdn", preset="3v3",
        eval_interval=eval_interval, seeds=BENCHMARK_SEEDS,
        train=benchmark_train_config(total_env_steps))


def _expected_grid(total_env_steps: int, eval_interval: int) -> list[int]:
    return list(range(eval_interval, total_env_steps + 1, eval_interval))


def ensure_curve(method: str, seed: int, out_dir: str,
                 total_env_steps: int = BENCHMARK_STEPS,
                 eval_interval: int = EVAL_INTERVAL) -> str:
    """Return the CSV path for one (method, seed), training only if the
    file is missing or does not cover the full evaluation grid."""
    exp = benchmark_experiment(method, total_env_steps, eval_interval)
    path = seed_csv_path(out_dir, exp.tag, seed)
    grid = _expected_grid(total_env_steps, eval_interval)
    if os.path.exists(path):
        try:
            steps, _ = read_curve(path)
        except ValueError:
            steps = []
        if steps == grid:
            return path
    os.makedirs(out_dir, exist_ok=True)
    return run_seed(exp, seed, out_dir, overwrite=True)


def first_sustain_step(steps, wins, threshold: float = SUSTAIN_THRESHOLD) -> float:
    """First grid step from which the win rate never drops below the
    threshold again; math.inf when no suffix qualifies."""
    result = math.inf
    for step, win in zip(reversed(steps), reversed(wins)):
        if win < threshold:
            break
        result = step
    return result


@dataclasses.dataclass(frozen=True)
class MethodSummary:
    method: str
    final_win_rates: tuple
    sustain_steps: tuple

    @property
    def median_final(self) -> float:
        return float(np.median(self.final_win_rates))

    @property
    def median_sustain(self) -> float:
        return float(np.median(self.sustain_steps))


def summarize_method(method: str, out_dir: str,
                     seeds=BENCHMARK_SEEDS,
                     total_env_steps: int = BENCHMARK_STEPS,
                     eval_interval: int = EVAL_INTERVAL) -> MethodSummary:
    exp = benchmark_experiment(method, total_env_steps, eval_interval)
    finals, sustains = [], []
    for seed in seeds:
        steps, wins = read_curve(seed_csv_path(out_dir, exp.tag, seed))
        finals.append(wins[-1])
        sustains.append(first_sustain_step(steps, wins))
    return MethodSummary(method, tuple(finals), tuple(sustains))


def run_benchmark(out_dir: str, seeds=BENCHMARK_SEEDS,
                  total_env_steps: int = BENCHMARK_STEPS,
                  eval_interval: int = EVAL_INTERVAL,
                  progress=None) -> dict[str, MethodSummary]:
    """Train (or reuse) every (method, seed) curve and summarize each
    method; a repeated seed would count its curve once per repeat."""
    seeds = check_seeds(seeds)
    for method in METHODS:
        for seed in seeds:
            path = ensure_curve(method, seed, out_dir, total_env_steps,
                                eval_interval)
            if progress is not None:
                progress(method, seed, path)
    return {method: summarize_method(method, out_dir, seeds,
                                     total_env_steps, eval_interval)
            for method in METHODS}
