"""Self-tests of the benchmark at a tiny budget.  They check its schema and
mechanics only and assert no timings.

    python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import numpy as np  # noqa: E402

import bench  # noqa: E402
import permnet  # noqa: E402
import permnet.benchmark  # noqa: E402
from permnet import cli  # noqa: E402
from permnet.env import N_MOVE_ACTIONS, PRESETS  # noqa: E402
from spans import SPAN_NAMES, Tracer, tail_percentile  # noqa: E402

TINY = 1024
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _permnet_attributes() -> dict:
    """Every attribute of every permnet module and class, by identity."""
    out = {}
    for name, module in sorted(sys.modules.items()):
        if name != "permnet" and not name.startswith("permnet."):
            continue
        for attr, value in vars(module).items():
            out[(name, attr)] = id(value)
            if isinstance(value, type) and value.__module__ == name:
                for cattr, cvalue in vars(value).items():
                    out[(name, attr, cattr)] = id(cvalue)
    return out


def _curve_files():
    curves = ROOT / "results" / "benchmark"
    return {p.name: (p.stat().st_mtime_ns, p.read_bytes())
            for p in sorted(curves.iterdir())}


def test_traced_run_restores_every_wrapped_attribute():
    exp = bench.load_experiment(ROOT, "hpn_vdn_3v3", 0, TINY)
    before = _permnet_attributes()
    tracer = Tracer()
    rep = bench.run_repeat(exp, tracer)
    assert _permnet_attributes() == before
    assert not rep.problems, rep.problems
    names = {s.name for s in tracer.spans}
    assert {"rollout.tick", "learner.train_step", "hpn.generate",
            "learner.net_grad", "eval.env_step"} <= names
    assert names <= set(SPAN_NAMES)
    for i, span in enumerate(tracer.spans):
        assert span.parent < i and span.start <= span.end
        if span.parent >= 0:
            parent = tracer.spans[span.parent]
            assert parent.start <= span.start and span.end <= parent.end


def test_untraced_run_after_traced_run_gives_same_digest():
    exp = bench.load_experiment(ROOT, "dpn_qmix_aug_5v6", 0, TINY)
    traced = bench.run_repeat(exp, Tracer())
    before = _permnet_attributes()
    untraced = bench.run_repeat(exp, None, reference=traced.digest)
    assert _permnet_attributes() == before
    assert not traced.problems and not untraced.problems, \
        traced.problems + untraced.problems
    assert traced.digest == untraced.digest
    assert untraced.host_scale > 0 and untraced.wall_s > 0
    assert traced.gated == 0.0


def test_dpn_exemption_covers_ties_only():
    exp = bench.load_experiment(ROOT, "dpn_qmix_aug_5v6", 0, TINY)
    preset = PRESETS[exp.preset]
    net = cli.net_factory_for(exp.architecture, preset)(
        np.random.default_rng(0))
    batch = bench._probe_batch(preset, 0)
    probes, entries = bench.dpn_exempt(net, batch)
    assert not probes.all()
    assert bench.equivariance_residuals(net, batch)[~entries].max() == 0.0
    for param in net.enemy_net.named_parameters().values():
        param.data[...] = 0.0       # every enemy ties in every slot
    probes, entries = bench.dpn_exempt(net, batch)
    enemies = batch[2]
    distinct = np.any(enemies != enemies[:, :1], axis=(1, 2))
    assert distinct.any() and probes[distinct].all()
    assert entries[:, N_MOVE_ACTIONS:].all()


def test_results_follow_the_benchmark_spec(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the benchmark must not touch learning curves")

    monkeypatch.setattr(permnet.benchmark, "ensure_curve", refuse)
    monkeypatch.setattr(permnet.benchmark, "run_benchmark", refuse)
    curves = _curve_files()
    for trace, spec_key in ((False, "end_to_end"), (True, "per_layer")):
        result = bench.run(ROOT, tmp_path, "concat_vdn_shuffle_3v3", 1,
                           seconds=0.0, trace=trace, budget=TINY)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= bench.MIN_REPEATS
        assert {k: v["unit"] for k, v in result["metrics"].items()} == \
            {m["name"]: m["unit"] for m in SPEC[spec_key]}
    assert (tmp_path / "concat_vdn_shuffle_3v3_seed1_spans.csv").is_file()
    assert _curve_files() == curves


def test_spec_lists_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)
    assert tail_percentile(100) == 90.0
    assert tail_percentile(1000) == 99.0
    assert tail_percentile(10000) == 99.9
    assert tail_percentile(19) is None


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        SPEC["command"] + ["--workload", "hpn_vdn_3v3", "--seed", "0",
                           "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
