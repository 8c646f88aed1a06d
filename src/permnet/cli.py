"""Seeded experiment runner and result aggregator.

Config files are flat ``key = value`` text with ``#`` comments.  Keys map
onto ExperimentConfig (architecture, mixer, augment, shuffle, preset,
eval_interval, seeds, tag) or TrainConfig (gamma, lr, td_lambda, ...).
Each seed trains independently and streams one CSV curve
``<out>/<tag>_seed<k>.csv`` with header ``env_steps,win_rate,loss``; the
``aggregate`` mode folds several such curves into median / 25% / 75%
percentile columns.

Exit codes: 0 all seeds complete, 2 unknown architecture/mixer/config
name, a repeated config key, invalid config value (a repeated seed, or a
``tag`` that is not a plain file name) or ``--jobs`` below 1, 3
unwritable or already-occupied output, 4 a bad, empty or mismatched curve.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import dataclasses
import os
import sys

import numpy as np

from .baselines import (
    ConcatAgentNet,
    DeepSetAgentNet,
    HpnSetAgentNet,
    big_concat_agent,
)
from .dpn import DpnAgentNet
from .env import PRESETS, MicroBattleEnv, ShuffleWrapper
from .hpn import HpnAgentNet
from .learners import TrainConfig, train_loop

ARCHITECTURES = ("hpn", "dpn", "concat", "big_concat", "deepset", "hpn_set")
MIXERS = ("vdn", "qmix")

EXIT_OK = 0
EXIT_BAD_NAME = 2
EXIT_UNWRITABLE = 3
EXIT_GRID_MISMATCH = 4


class ConfigError(Exception):
    """Invalid experiment configuration; the message quotes the offending
    token."""


@dataclasses.dataclass
class ExperimentConfig:
    architecture: str = "hpn"
    mixer: str = "vdn"
    augment: bool = False
    augment_copies: int = 1
    shuffle: bool = False
    preset: str = "3v3"
    eval_interval: int = 1000
    seeds: tuple = (0, 1, 2, 3, 4)
    tag: str = ""
    train: TrainConfig = dataclasses.field(default_factory=TrainConfig)

    def __post_init__(self):
        for name, choices in (("architecture", ARCHITECTURES),
                              ("mixer", MIXERS), ("preset", PRESETS)):
            if getattr(self, name) not in choices:
                raise ConfigError(f"unknown {name} {getattr(self, name)!r}; "
                                  f"choose from {', '.join(choices)}")
        for name in ("eval_interval", "augment_copies"):
            if getattr(self, name) < 1:
                raise ValueError(
                    f"{name} must be >= 1, got {getattr(self, name)}")
        if self.eval_interval > self.train.total_env_steps:
            # no evaluation would fall inside the run
            raise ValueError(
                f"eval_interval {self.eval_interval} > total_env_steps "
                f"{self.train.total_env_steps}")
        if self.tag in (".", "..") or os.path.basename(self.tag) != self.tag:
            # the tag names the CSVs inside --out and must stay there
            raise ValueError(f"tag {self.tag!r} is not a plain file name")
        if not self.tag:
            parts = [self.architecture, self.mixer]
            if self.augment:
                parts.append("aug")
            if self.shuffle:
                parts.append("shuffle")
            parts.append(self.preset)
            self.tag = "_".join(parts)


def check_seeds(seeds) -> tuple:
    """``seeds`` as a tuple; ValueError if there are none, one is negative
    or one repeats."""
    seeds = tuple(seeds)
    if not seeds or min(seeds) < 0 or len(set(seeds)) < len(seeds):
        raise ValueError(f"no seeds, a negative one or a repeat in {seeds}")
    return seeds


def _parse_seeds(text: str) -> tuple:
    """Seeds separated by commas and/or whitespace; ValueError if one is
    not an integer or ``check_seeds`` refuses them."""
    return check_seeds(int(tok) for tok in text.replace(",", " ").split())


def _parse_value(key: str, value: str, kind: type):
    if key == "seeds":
        try:
            return _parse_seeds(value)
        except ValueError:
            raise ConfigError(f"bad seed list {value!r} for {key}")
    if kind is bool:
        lowered = value.lower()
        if lowered in ("true", "1", "yes", "on"):
            return True
        if lowered in ("false", "0", "no", "off"):
            return False
        raise ConfigError(f"bad boolean {value!r} for {key}")
    try:
        if kind is int:
            return int(value)
        if kind is float:
            return float(value)
    except ValueError:
        raise ConfigError(f"bad {kind.__name__} {value!r} for {key}")
    return value


def parse_config_text(text: str) -> ExperimentConfig:
    exp_fields = {f.name: f.type for f in
                  dataclasses.fields(ExperimentConfig) if f.name != "train"}
    # each run's seed comes from ``seeds``; a ``seed`` key would be ignored
    train_fields = {f.name: f.type for f in dataclasses.fields(TrainConfig)
                    if f.name != "seed"}
    type_of = {"str": str, "int": int, "float": float, "bool": bool,
               "tuple": tuple}
    exp_kwargs: dict = {}
    train_kwargs: dict = {}
    first_line: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got "
                              f"{line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key in first_line:   # the last value would silently win
            raise ConfigError(f"line {lineno}: repeated config key {key!r} "
                              f"(first set on line {first_line[key]})")
        first_line[key] = lineno
        if key in exp_fields:
            exp_kwargs[key] = _parse_value(key, value,
                                           type_of.get(exp_fields[key], str))
        elif key in train_fields:
            train_kwargs[key] = _parse_value(
                key, value, type_of.get(train_fields[key], str))
        else:
            hint = "; list run seeds under 'seeds'" if key == "seed" else ""
            raise ConfigError(
                f"line {lineno}: unknown config key {key!r}{hint}")
    try:
        return ExperimentConfig(train=TrainConfig(**train_kwargs),
                                **exp_kwargs)
    except ValueError as err:
        raise ConfigError(f"bad value: {err}")


def load_config(path: str) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())


# ---------------------------------------------------------------------------
# factories
# ---------------------------------------------------------------------------

def net_factory_for(architecture: str, env_cfg):
    net = {"hpn": HpnAgentNet, "dpn": DpnAgentNet, "concat": ConcatAgentNet,
           "big_concat": big_concat_agent, "deepset": DeepSetAgentNet,
           "hpn_set": HpnSetAgentNet}[architecture]
    return lambda rng: net(rng, env_cfg.n_allies, env_cfg.n_enemies)


def env_factory_for(preset: str, shuffle: bool, run_seed: int):
    cfg = PRESETS[preset]
    if not shuffle:
        return lambda tag: MicroBattleEnv(cfg)
    return lambda tag: ShuffleWrapper(
        MicroBattleEnv(cfg), np.random.default_rng([run_seed, 17, tag]))


# ---------------------------------------------------------------------------
# run mode
# ---------------------------------------------------------------------------

def seed_csv_path(out_dir: str, tag: str, seed: int) -> str:
    return os.path.join(out_dir, f"{tag}_seed{seed}.csv")


def run_seed(exp: ExperimentConfig, seed: int, out_dir: str,
             overwrite: bool) -> str:
    """Train one seed, streaming its CSV row by row; returns the path."""
    path = seed_csv_path(out_dir, exp.tag, seed)
    if os.path.exists(path) and not overwrite:
        raise FileExistsError(
            f"{path} exists; pass --overwrite to replace it")
    train_cfg = dataclasses.replace(exp.train, seed=seed)
    env_factory = env_factory_for(exp.preset, exp.shuffle, seed)
    net_factory = net_factory_for(exp.architecture, PRESETS[exp.preset])
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("env_steps,win_rate,loss\n")
        fh.flush()

        def emit(row):
            fh.write(f"{row[0]},{row[1]:.6f},{row[2]:.6f}\n")
            fh.flush()

        train_loop(train_cfg, env_factory, net_factory, mixer=exp.mixer,
                   augment=exp.augment, augment_copies=exp.augment_copies,
                   eval_interval=exp.eval_interval, progress=emit)
    return path


def cmd_run(args) -> int:
    if args.jobs < 1:
        print(f"bad --jobs {args.jobs}: must be >= 1", file=sys.stderr)
        return EXIT_BAD_NAME
    try:
        exp = load_config(args.config)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_BAD_NAME
    except OSError as err:
        print(f"cannot read config: {err}", file=sys.stderr)
        return EXIT_BAD_NAME

    source, raw = "--seeds", args.seeds
    if not raw:
        source, raw = "PERMNET_SEED", os.environ.get("PERMNET_SEED", "")
    seeds = exp.seeds
    if raw:
        try:
            seeds = _parse_seeds(raw)
        except ValueError:
            print(f"bad {source} list: {raw!r}", file=sys.stderr)
            return EXIT_BAD_NAME

    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as err:
        print(f"cannot create output dir: {err}", file=sys.stderr)
        return EXIT_UNWRITABLE

    try:
        if args.jobs > 1:
            with concurrent.futures.ProcessPoolExecutor(
                    max_workers=args.jobs) as pool:
                futures = [pool.submit(run_seed, exp, seed, args.out,
                                       args.overwrite) for seed in seeds]
                for future in futures:
                    future.result()
        else:
            for seed in seeds:
                run_seed(exp, seed, args.out, args.overwrite)
    except (FileExistsError, OSError) as err:
        print(str(err), file=sys.stderr)
        return EXIT_UNWRITABLE
    return EXIT_OK


# ---------------------------------------------------------------------------
# aggregate mode
# ---------------------------------------------------------------------------

def read_curve(path: str) -> tuple[list[int], list[float]]:
    """Steps and win rates of a result CSV.  A row that is not an integer
    step, a win rate in [0, 1] and a loss (``nan`` before any training)
    raises a ``ValueError`` naming the file and the line."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [(i, ln.strip()) for i, ln in enumerate(fh, 1) if ln.strip()]
    if len(lines) < 2 or lines[0][1] != "env_steps,win_rate,loss":
        raise ValueError(f"{path}: not a result CSV with evaluation rows")
    steps: list[int] = []
    wins: list[float] = []
    for i, line in lines[1:]:
        try:
            step, win, _ = line.split(",")
            steps.append(int(step))
            wins.append(float(win))
            if not 0.0 <= wins[-1] <= 1.0:      # nan fails this too
                raise ValueError(f"win rate {win} outside [0, 1]")
        except ValueError as err:
            raise ValueError(f"{path}, line {i}: {err}") from None
    return steps, wins


def cmd_aggregate(paths: list[str]) -> int:
    curves = []
    for path in paths:
        try:
            curves.append(read_curve(path))
        except (OSError, ValueError) as err:
            print(str(err), file=sys.stderr)
            return EXIT_GRID_MISMATCH
    grid = curves[0][0]
    for path, (steps, _) in zip(paths, curves):
        if steps != grid:
            print(f"{path}: env_steps grid does not match {paths[0]}",
                  file=sys.stderr)
            return EXIT_GRID_MISMATCH
    wins = np.array([w for _, w in curves])
    print("env_steps,median,p25,p75")
    for column, step in enumerate(grid):
        values = wins[:, column]
        print(f"{step},{np.percentile(values, 50):.6f},"
              f"{np.percentile(values, 25):.6f},"
              f"{np.percentile(values, 75):.6f}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "aggregate":
        parser = argparse.ArgumentParser(prog="permnet aggregate")
        parser.add_argument("files", nargs="+")
        args = parser.parse_args(argv[1:])
        return cmd_aggregate(args.files)
    parser = argparse.ArgumentParser(
        prog="permnet",
        description="train a (architecture x mixer) combination on the "
                    "micro battle and emit per-seed CSV learning curves")
    parser.add_argument("--config", required=True,
                        help="flat key = value experiment config")
    parser.add_argument("--out", default="results",
                        help="output directory for CSV curves")
    parser.add_argument("--seeds", default="",
                        help="comma-separated seed list override")
    parser.add_argument("--jobs", type=int, default=1,
                        help="train this many seeds concurrently")
    parser.add_argument("--overwrite", action="store_true",
                        help="replace existing output files")
    args = parser.parse_args(argv)
    return cmd_run(args)


if __name__ == "__main__":
    sys.exit(main())
