"""Config parsing, experiment runner exit codes, CSV output, aggregation."""

import re

import pytest

from permnet.cli import (
    ConfigError,
    ExperimentConfig,
    cmd_aggregate,
    env_factory_for,
    main,
    parse_config_text,
    seed_csv_path,
)
from permnet.env import MicroBattleEnv, ShuffleWrapper

TINY = """
# desk-scale smoke configuration
architecture = concat
mixer = vdn
preset = 3v3
eval_interval = 200
seeds = 0
total_env_steps = 400
parallel_runners = 2
batch_episodes = 2
train_interval = 100
epsilon_anneal_steps = 300
"""

ROW = re.compile(r"^\d+,[01]\.\d{6},(-?\d+\.\d{6}|nan)$")


def write_config(tmp_path, text=TINY, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# -- config parsing ----------------------------------------------------


def test_parse_config_fields():
    exp = parse_config_text(TINY.replace("seeds = 0", "seeds = 3, 4 5")
                            + "augment = true\nshuffle = on\n"
                            "td_lambda = 0.4\n")
    assert exp.architecture == "concat"
    assert exp.mixer == "vdn"
    assert exp.augment is True and exp.shuffle is True
    assert exp.train.td_lambda == 0.4
    assert exp.train.total_env_steps == 400
    assert exp.seeds == (3, 4, 5)
    assert exp.tag == "concat_vdn_aug_shuffle_3v3"
    assert parse_config_text(TINY + "tag = hpn-run.v2\n").tag == "hpn-run.v2"


def test_parse_rejects_unknown_key():
    with pytest.raises(ConfigError, match="unknown config key"):
        parse_config_text("learning_rate = 0.1\n")
    # run_seed would overwrite a training seed with each entry of seeds
    with pytest.raises(ConfigError, match="unknown config key 'seed'; list "
                                          "run seeds under 'seeds'"):
        parse_config_text("seed = 7\n")


@pytest.mark.parametrize("key, first, second", [
    ("lr", "0.5", "0.001"), ("architecture", "dpn", "hpn"),
    ("seeds", "0", "0")])
def test_parse_rejects_a_repeated_key_naming_both_lines(key, first, second):
    # the last value once won without a word
    text = f"{key} = {first}\n# a comment\n\n{key} = {second}\n"
    with pytest.raises(ConfigError, match=rf"^line 4: repeated config key "
                                          rf"'{key}' \(first set on line 1\)$"):
        parse_config_text(text)


def test_repeated_config_key_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, TINY + "lr = 0.5\nlr = 0.001\n")
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "'lr'" in err
    assert not out.exists()


def test_parse_rejects_bad_values():
    with pytest.raises(ConfigError, match="boolean"):
        parse_config_text("augment = maybe\n")
    with pytest.raises(ConfigError, match="key = value"):
        parse_config_text("architecture hpn\n")
    with pytest.raises(ConfigError, match="int"):
        parse_config_text("eval_interval = soon\n")


def test_config_rejects_unknown_names():
    with pytest.raises(ConfigError, match="unknown architecture "
                                          "'transformer'; choose from hpn"):
        ExperimentConfig(architecture="transformer")
    with pytest.raises(ConfigError, match="unknown mixer 'mean'; choose "
                                          "from vdn, qmix$"):
        ExperimentConfig(mixer="mean")
    with pytest.raises(ConfigError, match="unknown preset '9v9'; choose "
                                          "from 3v3, 5v6, 8v9$"):
        ExperimentConfig(preset="9v9")


def test_env_factory_shuffle_wraps():
    plain = env_factory_for("3v3", False, 0)(0)
    wrapped = env_factory_for("3v3", True, 0)(0)
    assert isinstance(plain, MicroBattleEnv)
    assert isinstance(wrapped, ShuffleWrapper)


# -- run mode ----------------------------------------------------------


def test_unknown_architecture_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, "architecture = transformer\n")
    code = main(["--config", cfg, "--out", str(tmp_path / "out")])
    assert code == 2
    assert "transformer" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [
    ("train_interval", "0"), ("eval_interval", "0"),
    ("parallel_runners", "0"), ("target_update_interval", "0"),
    ("epsilon_anneal_steps", "0"), ("batch_episodes", "0"),
    ("buffer_size", "-1"), ("gamma", "2"),
    ("augment_copies", "0"), ("augment_copies", "-3"),
    ("total_env_steps", "0"), ("lr", "-0.5"), ("lr", "0"),
    ("lr", "inf"), ("lr", "1e400"),
    ("epsilon_start", "1.5"), ("epsilon_finish", "-0.1"), ("seeds", ""),
    ("buffer_size", "1"), ("eval_interval", "401"), ("seed", "7"),
    ("seeds", "-1"), ("seeds", "0 -2"), ("seeds", "0 0"), ("seeds", "1, 2 1"),
    # the QMIX sizes are QmixMixer's own defaults, not config keys
    ("mixing_embed_dim", "16"), ("hypernet_embed", "16"),
    # a tag of '../x' once wrote its CSVs beside --out, and an absolute
    # tag ignored --out altogether
    ("tag", "../x"), ("tag", "/tmp/x"), ("tag", "a/b"), ("tag", ".."),
    ("tag", "."),
])
def test_bad_config_value_exits_2_naming_the_key(tmp_path, capsys, key,
                                                  value):
    # each of these once hung the run loop, crashed it with a traceback, or
    # trained the wrong experiment (or none) and exited 0
    text = re.sub(rf"^{key} = .*$", "", TINY, flags=re.MULTILINE)
    cfg = write_config(tmp_path, text + f"{key} = {value}\n")
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and key in err
    assert not out.exists()


def test_run_writes_schedule_and_is_deterministic(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out)]) == 0
    path = seed_csv_path(str(out), "concat_vdn_3v3", 0)
    first = open(path, "rb").read()
    lines = first.decode().splitlines()
    assert lines[0] == "env_steps,win_rate,loss"
    assert len(lines) == 3
    assert [int(ln.split(",")[0]) for ln in lines[1:]] == [200, 400]
    for line in lines[1:]:
        assert ROW.match(line), line
        assert 0.0 <= float(line.split(",")[1]) <= 1.0
    assert b"\r" not in first
    assert main(["--config", cfg, "--out", str(out), "--overwrite"]) == 0
    assert open(path, "rb").read() == first


def test_run_row_schedule_two_seeds_five_rows(tmp_path):
    text = """
architecture = concat
eval_interval = 1000
total_env_steps = 5000
seeds = 0 1
parallel_runners = 2
batch_episodes = 2
train_interval = 500
epsilon_anneal_steps = 2000
"""
    cfg = write_config(tmp_path, text)
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out)]) == 0
    for seed in (0, 1):
        lines = (out / f"concat_vdn_3v3_seed{seed}.csv") \
            .read_text().splitlines()
        assert lines[0] == "env_steps,win_rate,loss"
        assert len(lines) == 6
        assert [int(ln.split(",")[0]) for ln in lines[1:]] \
            == [1000, 2000, 3000, 4000, 5000]


def test_run_refuses_to_clobber(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out)]) == 0
    assert main(["--config", cfg, "--out", str(out)]) == 3
    assert "--overwrite" in capsys.readouterr().err
    # every seed's CSV is checked before any seed trains: seed 7 once
    # trained and wrote its CSV before seed 0's refusal
    taken = out / "concat_vdn_3v3_seed0.csv"
    kept = taken.read_bytes()
    for jobs in ("1", "2"):
        assert main(["--config", cfg, "--out", str(out), "--seeds", "7,0",
                     "--jobs", jobs]) == 3
        assert f"{taken} exists; pass --overwrite" in capsys.readouterr().err
        assert [p.name for p in out.iterdir()] == [taken.name]
        assert taken.read_bytes() == kept


def test_unwritable_out_exits_3(tmp_path, capsys):
    cfg = write_config(tmp_path)
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    code = main(["--config", cfg, "--out", str(blocker / "sub")])
    assert code == 3


def test_seed_overrides(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "a"
    assert main(["--config", cfg, "--out", str(out), "--seeds", "7"]) == 0
    assert (out / "concat_vdn_3v3_seed7.csv").exists()
    assert not (out / "concat_vdn_3v3_seed0.csv").exists()


def test_bad_seed_lists_exit_2_naming_their_source(tmp_path, capsys):
    out = str(tmp_path / "out")
    bad_cfg = write_config(tmp_path, TINY.replace("seeds = 0", "seeds = 1 x"),
                           name="bad.cfg")
    assert main(["--config", bad_cfg, "--out", out]) == 2
    assert "config error: bad seed list '1 x'" in capsys.readouterr().err
    cfg = write_config(tmp_path)
    assert main(["--config", cfg, "--out", out, "--seeds", "1,x"]) == 2
    assert "bad --seeds list: '1,x'" in capsys.readouterr().err
    # a list with no seeds in it would train nothing and exit 0
    assert main(["--config", cfg, "--out", out, "--seeds", ","]) == 2
    assert "bad --seeds list: ','" in capsys.readouterr().err
    # a negative seed once crashed after creating its CSV, which then
    # blocked the rerun
    bad_cfg = write_config(tmp_path, TINY.replace("seeds = 0", "seeds = -1"),
                           name="negative.cfg")
    assert main(["--config", bad_cfg, "--out", out]) == 2
    assert "config error: bad seed list '-1'" in capsys.readouterr().err
    assert main(["--config", cfg, "--out", out, "--seeds=0,-1"]) == 2
    assert "bad --seeds list: '0,-1'" in capsys.readouterr().err
    # a repeated seed once trained in full and then exited 3 on its own
    # CSV, or with --overwrite trained the same seed twice
    bad_cfg = write_config(tmp_path, TINY.replace("seeds = 0", "seeds = 0 0"),
                           name="repeat.cfg")
    assert main(["--config", bad_cfg, "--out", out, "--overwrite"]) == 2
    assert "config error: bad seed list '0 0'" in capsys.readouterr().err
    assert main(["--config", cfg, "--out", out, "--seeds", "1,0,1"]) == 2
    assert "bad --seeds list: '1,0,1'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_bad_jobs_exits_2_naming_the_flag(tmp_path, capsys, jobs):
    # --jobs 0 once trained every seed serially without a word
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), "--jobs", jobs]) == 2
    assert f"bad --jobs {jobs}" in capsys.readouterr().err
    assert not out.exists()


def test_parallel_jobs(tmp_path):
    cfg = write_config(tmp_path, TINY.replace("seeds = 0", "seeds = 0 1"))
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), "--jobs", "2"]) == 0
    assert (out / "concat_vdn_3v3_seed0.csv").exists()
    assert (out / "concat_vdn_3v3_seed1.csv").exists()


# -- aggregate mode ----------------------------------------------------


def curve(tmp_path, name, rows):
    path = tmp_path / name
    lines = ["env_steps,win_rate,loss"]
    lines += [f"{s},{w:.6f},{l:.6f}" for s, w, l in rows]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def test_aggregate_single_file_collapses(tmp_path, capsys):
    path = curve(tmp_path, "a.csv", [(100, 0.25, 1.0), (200, 0.75, 0.5)])
    assert main(["aggregate", path]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "env_steps,median,p25,p75"
    assert lines[1] == "100,0.250000,0.250000,0.250000"
    assert lines[2] == "200,0.750000,0.750000,0.750000"


def test_aggregate_linear_percentiles(tmp_path, capsys):
    paths = [curve(tmp_path, f"{i}.csv", [(100, w, 0.0)])
             for i, w in enumerate([0.0, 0.5, 1.0])]
    assert cmd_aggregate(paths) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[1] == "100,0.500000,0.250000,0.750000"
    assert len(out) == 2


def test_aggregate_mismatched_grid_exits_4(tmp_path, capsys):
    a = curve(tmp_path, "a.csv", [(100, 0.5, 0.0)])
    b = curve(tmp_path, "b.csv", [(150, 0.5, 0.0)])
    assert main(["aggregate", a, b]) == 4
    assert "grid" in capsys.readouterr().err


@pytest.mark.parametrize("rows", [[], [(100, 0.5, 0.0)]],
                         ids=["alone", "beside-a-full-curve"])
def test_aggregate_empty_curve_exits_4(tmp_path, capsys, rows):
    # a run killed before its first evaluation leaves only the header
    empty = curve(tmp_path, "empty.csv", [])
    paths = [curve(tmp_path, "full.csv", rows)] if rows else []
    assert main(["aggregate", *paths, empty]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{empty}: not a result CSV with evaluation rows" in captured.err


@pytest.mark.parametrize("row, message", [
    ("200,0.500000", "line 3: not enough values to unpack"),
    ("2e2,0.500000,0.000000", "line 3: invalid literal for int()"),
    ("200,nan,0.000000", "line 3: win rate nan outside [0, 1]"),
    ("200,1.700000,0.000000", "line 3: win rate 1.700000 outside [0, 1]"),
    ("200,0.500000,abc", "line 3: could not convert string to float: 'abc'"),
    ("200,0.500000,", "line 3: could not convert string to float: ''"),
], ids=["two-columns", "non-integer-step", "nan-win", "win-above-1",
        "non-float-loss", "empty-loss"])
def test_aggregate_malformed_row_exits_4_naming_file_and_line(
        tmp_path, capsys, row, message):
    path = curve(tmp_path, "bad.csv", [(100, 0.5, 0.0)])
    with open(path, "a") as fh:
        fh.write(row + "\n")
    assert main(["aggregate", path]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{path}, {message}" in captured.err


def test_aggregate_accepts_a_nan_loss(tmp_path, capsys):
    # an evaluation before the first train step has no loss to average
    path = curve(tmp_path, "a.csv", [(100, 0.25, float("nan")),
                                     (200, 0.75, 0.5)])
    assert main(["aggregate", path]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == [
        "100,0.250000,0.250000,0.250000", "200,0.750000,0.750000,0.750000"]
