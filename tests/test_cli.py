import errno
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import snwell.cli
import snwell.sweep
from snwell.cli import build_parser, config_from_args, main
from snwell.sweep import PointFailure, SweepPointError


def parse(argv):
    return config_from_args(build_parser().parse_args(argv))


def test_defaults_mirror_standard_setup():
    cfg = parse([])
    assert cfg.mu == 4.0
    assert cfg.alpha_values == (1.0, 2.0, 5.0)
    assert cfg.domain == (-1.0, 9.0)
    assert cfg.momentum_domain == (-6.0, 6.0)
    assert cfg.n_points == 599 and cfg.n_states == 5
    assert cfg.hbar == 1.0 and cfg.mass == 1.0
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    assert cfg.threads == cpus


def test_import_loads_no_scipy():
    # scipy.linalg used to be most of the command's start-up time
    env = dict(os.environ, PYTHONPATH=str(Path(snwell.cli.__file__).parents[1]))
    code = "import snwell.cli, sys; sys.exit('scipy' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode == 0


def test_figure_script_runs_are_valid_configs(tmp_path):
    script = Path(__file__).parents[1] / "scripts" / "figure_data.sh"
    lines = script.read_text(encoding="utf-8").replace("\\\n", " ").splitlines()
    calls = [shlex.split(line.replace("$root", str(tmp_path)))
             for line in lines if line.lstrip().startswith("snwell-sweep")]
    assert len(calls) == 2  # three_depths and depth_curves
    for argv in calls:
        cfg = parse(argv[1:])
        assert isinstance(cfg, snwell.sweep.SweepConfig)
        assert cfg.output_dir.parent == tmp_path


def test_alpha_range_flag():
    cfg = parse(["--alpha-range", "1", "2", "3"])
    assert cfg.alpha_values == (1.0, 1.5, 2.0)


def test_repeatable_alpha_flag():
    cfg = parse(["--alpha", "1.5", "--alpha", "0.5"])
    assert cfg.alpha_values == (1.5, 0.5)


def test_window_flags_take_every_negative_float_spelling():
    # argparse's stock test reads '-1e3' and '-inf' as unknown options
    assert parse(["--domain", "-1e3", "9"]).domain == (-1000.0, 9.0)
    assert parse(["--domain", "-1E+1", "-.5"]).domain == (-10.0, -0.5)
    args = build_parser().parse_args(["--pdomain", "-inf", "6", "--mu", "-Infinity"])
    assert args.pdomain == [-float("inf"), 6.0] and args.mu == -float("inf")


def test_outputs_flag_accepts_commas():
    cfg = parse(["--outputs", "spectrum,contours"])
    assert cfg.outputs == frozenset({"spectrum", "contours"})


def test_conflicting_alpha_flags_rejected():
    with pytest.raises(Exception):
        parse(["--alpha", "1", "--alpha-range", "1", "2", "3"])


def test_config_file_merging(tmp_path):
    cfg_file = tmp_path / "sweep.cfg"
    cfg_file.write_text(
        "# comment line\n"
        "mu = 3\n"
        "alpha = 1\n"
        "alpha = 2.5\n"
        "n-points = 149\n"
        "n_states = 2\n"
        "outputs = observables\n"
        "pdomain = -5 5\n"
        f"out = {tmp_path / 'results'}\n"
    )
    cfg = parse(["--config", str(cfg_file), "--n-states", "3"])
    assert cfg.mu == 3.0
    assert cfg.alpha_values == (1.0, 2.5)
    assert cfg.n_points == 149
    assert cfg.n_states == 3  # flag wins over file
    assert cfg.outputs == frozenset({"observables"})
    assert cfg.momentum_domain == (-5.0, 5.0)
    assert str(cfg.output_dir).endswith("results")


def test_config_file_alpha_range(tmp_path):
    cfg_file = tmp_path / "sweep.cfg"
    cfg_file.write_text("alpha_range = 2 4 3\n")
    cfg = parse(["--config", str(cfg_file)])
    assert cfg.alpha_values == (2.0, 3.0, 4.0)


@pytest.mark.parametrize(
    "content",
    [
        "mystery = 1\n",
        "mu 4\n",
        "mu = 4\nmu = 5\n",
        "alpha = 1\nalpha_range = 1 2 3\n",
        "n_points = many\n",
        b"\xff\xfe",  # not UTF-8
        "domain = 1 2 3\n",
        "domain = 1 2 --mass 3\n",  # extra parts must not pass for another flag
        "alpha_range = 1 2\n",
        "config = other.cfg\n",
        "fail_fast = maybe\n",
        "outputs =\n",
        "outputs = , ,\n",
        "out =\n",
    ],
)
def test_bad_config_files_exit_2(tmp_path, monkeypatch, capsys, content):
    monkeypatch.chdir(tmp_path)  # a run that went ahead would write here
    cfg_file = tmp_path / "sweep.cfg"
    cfg_file.write_bytes(content if isinstance(content, bytes) else content.encode())
    assert main(["--config", str(cfg_file)]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err
    assert "Traceback" not in err and "usage:" not in err


# key, its file value, the same value as flag arguments, and a second value as flags
PARITY_CASES = [
    ("mu", "3", ["--mu", "3"], ["--mu", "5"]),
    ("hbar", "0.5", ["--hbar", "0.5"], ["--hbar", "2"]),
    ("mass", "2", ["--mass", "2"], ["--mass", "3"]),
    ("n_points", "149", ["--n-points", "149"], ["--n-points", "201"]),
    ("n_states", "2", ["--n-states", "2"], ["--n-states", "3"]),
    ("threads", "2", ["--threads", "2"], ["--threads", "3"]),
    ("domain", "-2 8", ["--domain", "-2", "8"], ["--domain", "-1.5", "7"]),
    ("pdomain", "-5e0 6", ["--pdomain", "-5e0", "6"], ["--pdomain", "-7", "7"]),
    ("outputs", "spectrum observables", ["--outputs", "spectrum observables"],
     ["--outputs", "contours"]),
    ("out", "some dir", ["--out", "some dir"], ["--out", "other"]),
    ("out", "-results", ["--out=-results"], ["--out", "other"]),
    ("alpha", "1\nalpha = 2.5", ["--alpha", "1", "--alpha", "2.5"],
     ["--alpha-range", "1", "2", "3"]),
    ("alpha_range", "2 4 3", ["--alpha-range", "2", "4", "3"], ["--alpha", "7"]),
    ("fail_fast", "true", ["--fail-fast"], ["--fail-fast"]),
    ("fail_fast", "false", [], ["--fail-fast"]),
    ("fail_fast", "yes", ["--fail-fast"], ["--fail-fast"]),
    ("fail_fast", "off", [], ["--fail-fast"]),
]


@pytest.mark.parametrize("key,value,flags,override", PARITY_CASES)
def test_config_key_parses_as_its_flag(tmp_path, key, value, flags, override):
    cfg_file = tmp_path / "sweep.cfg"
    cfg_file.write_text(f"{key} = {value}\n")
    config = ["--config", str(cfg_file)]
    assert parse(config) == parse(flags)
    assert parse(config + override) == parse(override)  # the flag replaces the file's value


def test_missing_config_file_exits_2(tmp_path):
    assert main(["--config", str(tmp_path / "absent.cfg")]) == 2


def test_invalid_alpha_exits_2():
    assert main(["--alpha", "-3"]) == 2


def test_non_finite_later_alpha_exits_2(tmp_path):
    assert main(["--alpha", "1", "--alpha", "nan", "--out", str(tmp_path)]) == 2


def test_more_states_than_interior_points_exits_2(tmp_path):
    assert main(["--n-states", "1000", "--n-points", "100", "--out", str(tmp_path)]) == 2


def test_bad_range_count_exits_2():
    assert main(["--alpha-range", "1", "2", "2.5"]) == 2


@pytest.mark.parametrize("count", ["inf", "nan"])
def test_non_finite_range_count_exits_2(tmp_path, capsys, count):
    cfg_file = tmp_path / "sweep.cfg"
    cfg_file.write_text(f"alpha_range = 1 2 {count}\n")
    for argv in (["--alpha-range", "1", "2", count], ["--config", str(cfg_file)]):
        assert main(argv + ["--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "key,window", [("pdomain", "0 inf"), ("pdomain", "-inf 6"), ("domain", "-1 inf")]
)
def test_non_finite_window_exits_2(tmp_path, capsys, key, window):
    cfg_file = tmp_path / "sweep.cfg"
    cfg_file.write_text(f"{key} = {window}\nalpha = 1\n")
    runs = [["--config", str(cfg_file)], [f"--{key}", *window.split(), "--alpha", "1"]]
    for argv in runs:
        assert main(argv + ["--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "entries",
    [
        "domain = -1e103 1e103\n",  # the cubic overflows at both ends
        "domain = -1e102 1\nalpha = 1\nalpha = 1000\n",  # only for the second alpha
        # rounded points of a window one ulp wide repeat and fall back
        "pdomain = -115.68810169584913 -115.68810169579964\nn_points = 2367\n",
    ],
)
def test_unusable_finite_window_exits_2(tmp_path, capsys, entries):
    cfg_file = tmp_path / "sweep.cfg"
    cfg_file.write_text(entries)
    assert main(["--config", str(cfg_file), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_uncreatable_output_directory_exits_2(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory\n")
    for out in (blocker, blocker / "sub"):
        argv = ["--alpha", "2", "--n-points", "149", "--n-states", "2",
                "--outputs", "observables", "--out", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and "Traceback" not in err


def test_successful_run_exits_0(tmp_path, capsys):
    code = main(
        ["--alpha", "2", "--n-points", "149", "--n-states", "2",
         "--outputs", "observables", "--out", str(tmp_path), "--threads", "1"]
    )
    assert code == 0
    assert (tmp_path / "records.csv").exists()
    assert "2 records" in capsys.readouterr().out


def test_unwritable_records_file_exits_1(tmp_path, monkeypatch, capsys):
    def disk_full(path, cfg, records):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(snwell.sweep, "_write_records", disk_full)
    argv = ["--alpha", "2", "--n-points", "149", "--n-states", "2",
            "--outputs", "observables", "--out", str(tmp_path)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "error: cannot write records.csv" in err and "Traceback" not in err


def test_point_failure_exits_1(tmp_path, monkeypatch):
    def exploding(cfg):
        raise SweepPointError([PointFailure(2.0, None, "synthetic")], [])

    monkeypatch.setattr(snwell.cli, "run_sweep", exploding)
    assert main(["--out", str(tmp_path)]) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["--bogus"],
        ["--n-points", "many"],
        ["--outputs", ""],
        ["--outputs", ","],
        ["--out", ""],
    ],
)
def test_bad_flags_exit_2(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)  # a run that went ahead would write here
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "usage:" in err and "error: " in err and "Traceback" not in err
    assert not any(tmp_path.iterdir())


def test_help_exits_0():
    with pytest.raises(SystemExit) as excinfo:
        main(["--help"])
    assert excinfo.value.code == 0


def test_readme_flag_list_matches_the_parser():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    paragraph = readme[readme.index("Flags:"):].split("\n\n", 1)[0]
    options = {s for a in build_parser()._actions for s in a.option_strings}
    assert set(re.findall(r"--[a-z][a-z-]*", paragraph)) == options - {"-h", "--help"}
