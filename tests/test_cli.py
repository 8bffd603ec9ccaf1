import contextlib
import dataclasses
import errno
import io
import os
import re
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import snwell.cli
import snwell.sweep
from snwell.cli import build_parser, config_from_args, main
from snwell.sweep import PointFailure, SweepPointError
from test_golden import blas_build


# the CPUs this process may use
CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


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
    assert cfg.threads == CPUS


def test_every_flag_names_its_config_field():
    fields = {f.name for f in dataclasses.fields(snwell.sweep.SweepConfig)}
    assert set(vars(build_parser().parse_args([]))) == fields | {"config", "alpha_range"}


def test_wigner_output_defaults_to_one_thread():
    assert parse(["--outputs", "wigner"]).threads == 1
    assert parse(["--outputs", "wigner,probability", "--threads", "2"]).threads == 2


def _fresh_snwell(code, timeout_value=None):
    """Run `code` after `import snwell` in a fresh process, OPENBLAS_THREAD_TIMEOUT
    set to `timeout_value` or unset; return its standard output."""
    env = dict(os.environ, PYTHONPATH=str(Path(snwell.cli.__file__).parents[1]),
               PYTHONWARNINGS="error")
    env.pop("OPENBLAS_THREAD_TIMEOUT", None)
    if timeout_value is not None:
        env["OPENBLAS_THREAD_TIMEOUT"] = timeout_value
    done = subprocess.run([sys.executable, "-c", "import snwell\n" + code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_import_loads_no_scipy():
    # scipy.linalg used to be most of the command's start-up time
    _fresh_snwell("import snwell.cli, sys; sys.exit('scipy' in sys.modules)")


@pytest.mark.parametrize(("given", "kept"), [(None, "4"), ("20", "20")])
def test_import_sets_openblas_thread_timeout_unless_given(given, kept):
    code = "import os; print(os.environ['OPENBLAS_THREAD_TIMEOUT'])"
    assert _fresh_snwell(code, given) == f"{kept}\n"


@pytest.mark.skipif("openblas" not in blas_build().lower() or CPUS < 2,
                    reason="needs numpy's OpenBLAS and at least 2 CPUs")
def test_idle_openblas_workers_sleep_after_import():
    # at OpenBLAS's default timeout its idle workers spin 50-85 ms of CPU
    # right after numpy's import (2 vCPUs)
    code = ("import resource, time\n"
            "def cpu():\n"
            "    usage = resource.getrusage(resource.RUSAGE_SELF)\n"
            "    return usage.ru_utime + usage.ru_stime\n"
            "start = cpu()\n"
            "time.sleep(0.3)\n"
            "print(cpu() - start)\n")
    assert float(_fresh_snwell(code)) < 0.020


def test_fresh_threaded_probability_sweep_completes(tmp_path):
    # a fresh process: its three workers share the prefix table's first build
    env = dict(os.environ, PYTHONPATH=str(Path(snwell.cli.__file__).parents[1]),
               PYTHONWARNINGS="error")
    trees = {}
    for threads in ("3", "1"):
        out = tmp_path / threads
        done = subprocess.run(
            [sys.executable, "-m", "snwell.cli", "--alpha-range", "1", "5", "3", "--outputs",
             "probability", "--n-points", "149", "--threads", threads, "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        trees[threads] = (out / "records.csv").read_bytes()
    assert trees["3"] == trees["1"]


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


def test_convergence_study_script_runs():
    root = Path(__file__).parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONWARNINGS="error")
    done = subprocess.run([sys.executable, str(root / "scripts" / "convergence_study.py")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert "E0 ~ -9.666667" in lines[1]  # -32/3 + 1 at mu = 4, alpha = 1
    assert [row.split()[0] for row in lines[3:]] == ["149", "299", "599", "1201", "2401"]


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
    assert args.momentum_domain == [-float("inf"), 6.0] and args.mu == -float("inf")


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
        "mu = 3  # a '#' after whitespace starts a comment\n"
        "alpha = 1\n"
        "alpha = 2.5\n"
        "  # indented comment line\n"
        "n-points = 149 #tight\n"
        "n_states = 2\n"
        "outputs = observables\n"
        "pdomain = -5 5\n"
        f"out = {tmp_path / 'results#2'}\n"  # elsewhere a '#' is part of the value
    )
    cfg = parse(["--config", str(cfg_file), "--n-states", "3"])
    assert cfg.mu == 3.0
    assert cfg.alpha_values == (1.0, 2.5)
    assert cfg.n_points == 149
    assert cfg.n_states == 3  # flag wins over file
    assert cfg.outputs == frozenset({"observables"})
    assert cfg.momentum_domain == (-5.0, 5.0)
    assert cfg.output_dir == tmp_path / "results#2"


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
        "mu = 4\n# a comment\n\nmystery = 1\n",
        "mu = 4\n\ndomain = 1\n",
        "n_points = 1.5\n",
        "alpha = 1\nalpha = x\n",
        "alpha = 1\n\nalpha = 2\nalpha = 3 4\n",
        "mu = 4\nthreads = two\n",
        "mu = 4\nalpha_range = 1 5 0.5\n",
        "alpha_range = 1 2 nan\n",
        "domain = 1 --m\n",  # an ambiguous option prefix as a value
        "mu = 4\nalpha_range = 1 2 --h\n",
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
    if content in BAD_LINES:
        assert f"{cfg_file}:{BAD_LINES[content]}: " in err


@pytest.mark.parametrize(
    ("content", "message"),
    [
        ("n_points = 1.5\n", "1: argument --n-points: invalid int value: '1.5'"),
        ("alpha = 1\nalpha = x\nalpha = 2\n", "2: argument --alpha: invalid float value: 'x'"),
        ("mu = 4\ndomain = -x 9\n", "2: argument --domain: expected 2 arguments"),
        ("mu = 4\nalpha = 1#2\n", "2: argument --alpha: invalid float value: '1#2'"),
    ],
    ids=["int_flag", "second_alpha_line", "window_flag", "hash_inside_a_value"],
)
def test_rejected_config_value_names_its_line_with_the_parser_message(
        tmp_path, capsys, content, message):
    cfg_file = tmp_path / "sweep.cfg"
    cfg_file.write_text(content)
    assert main(["--config", str(cfg_file), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"configuration error: {cfg_file}:{message}\n"
    assert not (tmp_path / "out").exists()


# the inputs whose error names the file and the bad line, counting every line
BAD_LINES = {
    "mystery = 1\n": 1,
    "mu 4\n": 1,
    "mu = 4\nmu = 5\n": 2,
    "domain = 1 2 3\n": 1,
    "domain = 1 2 --mass 3\n": 1,
    "alpha_range = 1 2\n": 1,
    "config = other.cfg\n": 1,
    "mu = 4\n# a comment\n\nmystery = 1\n": 4,
    "mu = 4\n\ndomain = 1\n": 3,
    "n_points = many\n": 1,
    "fail_fast = maybe\n": 1,
    "n_points = 1.5\n": 1,
    "alpha = 1\nalpha = x\n": 2,
    "alpha = 1\n\nalpha = 2\nalpha = 3 4\n": 4,
    "mu = 4\nthreads = two\n": 2,
    "alpha = 1\nalpha_range = 1 2 3\n": 2,
    "mu = 4\nalpha_range = 1 5 0.5\n": 2,
    "alpha_range = 1 2 nan\n": 1,
    "domain = 1 --m\n": 1,
    "mu = 4\nalpha_range = 1 2 --h\n": 2,
}


# key, its file value, the same value as flag arguments, and a second value
# as flags; each case carries its id, so that a case added anywhere renames no other
PARITY_CASES = [
    pytest.param("mu", "3", ["--mu", "3"], ["--mu", "5"], id="mu-3-flags0-override0"),
    pytest.param("hbar", "0.5", ["--hbar", "0.5"], ["--hbar", "2"],
                 id="hbar-0.5-flags1-override1"),
    pytest.param("mass", "2", ["--mass", "2"], ["--mass", "3"], id="mass-2-flags2-override2"),
    pytest.param("n_points", "149", ["--n-points", "149"], ["--n-points", "201"],
                 id="n_points-149-flags3-override3"),
    pytest.param("n_states", "2", ["--n-states", "2"], ["--n-states", "3"],
                 id="n_states-2-flags4-override4"),
    pytest.param("threads", "2", ["--threads", "2"], ["--threads", "3"],
                 id="threads-2-flags5-override5"),
    pytest.param("domain", "-2 8", ["--domain", "-2", "8"], ["--domain", "-1.5", "7"],
                 id="domain--2 8-flags6-override6"),
    pytest.param("pdomain", "-5e0 6", ["--pdomain", "-5e0", "6"], ["--pdomain", "-7", "7"],
                 id="pdomain--5e0 6-flags7-override7"),
    pytest.param("outputs", "spectrum observables", ["--outputs", "spectrum observables"],
                 ["--outputs", "contours"], id="outputs-spectrum observables-flags8-override8"),
    pytest.param("out", "some dir", ["--out", "some dir"], ["--out", "other"],
                 id="out-some dir-flags9-override9"),
    pytest.param("out", "-results", ["--out=-results"], ["--out", "other"],
                 id="out--results-flags10-override10"),
    pytest.param("alpha", "1\nalpha = 2.5", ["--alpha", "1", "--alpha", "2.5"],
                 ["--alpha-range", "1", "2", "3"], id="alpha-1\nalpha = 2.5-flags11-override11"),
    pytest.param("alpha_range", "2 4 3", ["--alpha-range", "2", "4", "3"], ["--alpha", "7"],
                 id="alpha_range-2 4 3-flags12-override12"),
    pytest.param("fail_fast", "true", ["--fail-fast"], ["--fail-fast"],
                 id="fail_fast-true-flags13-override13"),
    pytest.param("fail_fast", "false", [], ["--fail-fast"],
                 id="fail_fast-false-flags14-override14"),
    pytest.param("fail_fast", "yes", ["--fail-fast"], ["--fail-fast"],
                 id="fail_fast-yes-flags15-override15"),
    pytest.param("fail_fast", "off", [], ["--fail-fast"], id="fail_fast-off-flags16-override16"),
    pytest.param("fail_fast", "ON", ["--fail-fast=ON"], ["--fail-fast=no"],
                 id="fail_fast-ON-flags17-override17"),
]


@pytest.mark.parametrize("key,value,flags,override", PARITY_CASES)
def test_config_key_parses_as_its_flag(tmp_path, key, value, flags, override):
    cfg_file = tmp_path / "sweep.cfg"
    cfg_file.write_text(f"{key} = {value}\n")
    config = ["--config", str(cfg_file)]
    assert parse(config) == parse(flags)
    assert parse(config + override) == parse(override)  # the flag replaces the file's value


def test_config_file_may_start_with_a_byte_order_mark(tmp_path):
    cfg_file = tmp_path / "sweep.cfg"
    cfg_file.write_text("mu = 3\nn_states = 2\n", encoding="utf-8-sig")
    assert cfg_file.read_bytes().startswith(b"\xef\xbb\xbf")
    assert parse(["--config", str(cfg_file)]) == parse(["--mu", "3", "--n-states", "2"])


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


def assert_runs_exit_2(tmp_path, capsys, runs):
    """Each argv exits 2 with a configuration error and no traceback, and no
    run creates its output directory."""
    for argv in runs:
        assert main(argv + ["--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("count", ["inf", "nan"])
def test_non_finite_range_count_exits_2(tmp_path, capsys, count):
    cfg_file = tmp_path / "sweep.cfg"
    cfg_file.write_text(f"alpha_range = 1 2 {count}\n")
    runs = [["--alpha-range", "1", "2", count], ["--config", str(cfg_file)]]
    assert_runs_exit_2(tmp_path, capsys, runs)


# 1e300 is past numpy's largest array size; 1e18 doubles (6.94 EiB) are past
# any address space, so the allocation fails at once and touches no memory
@pytest.mark.parametrize("count", ["1e300", "1e18"])
def test_unallocatable_range_count_exits_2(tmp_path, capsys, count):
    cfg_file = tmp_path / "sweep.cfg"
    cfg_file.write_text(f"alpha_range = 1 5 {count}\n")
    runs = [["--alpha-range", "1", "5", count], ["--config", str(cfg_file)]]
    assert_runs_exit_2(tmp_path, capsys, runs)


# 1e15 doubles (7.1 PiB) are past any address space, and 2^62 doubles
# overflow numpy's size computation: both fail at once, touching no memory
@pytest.mark.parametrize("n_points", ["1000000000000000", "4611686018427387904"])
def test_unallocatable_grid_exits_2(tmp_path, capsys, n_points):
    assert_runs_exit_2(tmp_path, capsys, [["--n-points", n_points]])


@pytest.mark.parametrize(
    "key,window", [("pdomain", "0 inf"), ("pdomain", "-inf 6"), ("domain", "-1 inf")]
)
def test_non_finite_window_exits_2(tmp_path, capsys, key, window):
    cfg_file = tmp_path / "sweep.cfg"
    cfg_file.write_text(f"{key} = {window}\nalpha = 1\n")
    runs = [["--config", str(cfg_file)], [f"--{key}", *window.split(), "--alpha", "1"]]
    assert_runs_exit_2(tmp_path, capsys, runs)


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
    assert_runs_exit_2(tmp_path, capsys, [["--config", str(cfg_file)]])


# a well depth or kinetic scale that over- or underflows from finite parts
@pytest.mark.parametrize(
    "entries",
    [
        "alpha = 1e-160\nn_points = 149\n",
        "alpha = 1e-200\nn_points = 149\n",
        "mu = 1e250\nn_points = 149\n",  # the default alphas
        "alpha = 1\nhbar = 1e-170\nn_points = 149\n",
        "alpha = 1\nhbar = 1e200\nn_points = 149\n",
        "alpha = 1\nhbar = 1e154\nn_points = 149\n",
        "alpha = 1\nmass = 1e-310\nn_points = 149\n",
        "alpha = 1\ndomain = 0 1e-300\nn_points = 5\nn_states = 1\n",
    ],
    ids=["depth_inf", "alpha_squared_0", "mu_power_overflows", "hbar_squared_0",
         "hbar_squared_overflows", "scale_inf_from_hbar", "scale_inf_from_mass", "dx_squared_0"],
)
def test_unusable_depth_or_kinetic_scale_exits_2(tmp_path, capsys, entries):
    cfg_file = tmp_path / "sweep.cfg"
    cfg_file.write_text(entries)
    flags = []
    for line in entries.splitlines():
        key, _, value = line.partition(" = ")
        flags += [f"--{key.replace('_', '-')}", *value.split()]
    assert_runs_exit_2(tmp_path, capsys, [flags, ["--config", str(cfg_file)]])


# counts that no float holds, or whose N^(3/2) no float holds, checked before
# any grid is allocated
@pytest.mark.parametrize(
    "entries",
    [
        f"alpha = 1\nn_points = 1{'0' * 400}\n",
        f"alpha = 1\ndomain = -1e60 1e60\nn_points = 1{'0' * 210}\n",
    ],
    ids=["dx_overflows", "n_points_power_overflows"],
)
def test_n_points_too_large_for_a_float_exits_2(tmp_path, capsys, entries):
    cfg_file = tmp_path / "sweep.cfg"
    cfg_file.write_text(entries)
    flags = []
    for line in entries.splitlines():
        key, _, value = line.partition(" = ")
        flags += [f"--{key.replace('_', '-')}", *value.split()]
    assert_runs_exit_2(tmp_path, capsys, [flags, ["--config", str(cfg_file)]])


def test_uncreatable_output_directory_exits_2(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory\n")
    for out in (blocker, blocker / "sub"):
        argv = ["--alpha", "2", "--n-points", "149", "--n-states", "2",
                "--outputs", "observables", "--out", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and "Traceback" not in err


def test_missing_lapack_exits_2_with_one_message(no_lapack, tmp_path, capsys):
    argv = ["--alpha", "1", "--alpha", "2", "--n-points", "41", "--out", str(tmp_path / "out")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("dstebz") == 1 and "snwell[lapack]" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_successful_run_exits_0(tmp_path, capsys):
    code = main(
        ["--alpha", "2", "--n-points", "149", "--n-states", "2",
         "--outputs", "observables", "--out", str(tmp_path), "--threads", "1"]
    )
    assert code == 0
    assert (tmp_path / "records.csv").exists()
    assert "2 records" in capsys.readouterr().out


def test_overflowing_momentum_window_runs(tmp_path):
    # p^2 / 2m overflows on most of the window, which the region test allows for
    argv = ["--alpha", "2", "--n-points", "149", "--n-states", "2", "--outputs", "probability",
            "--pdomain", "-1e300", "1e300", "--out", str(tmp_path)]
    assert main(argv) == 0


def test_unwritable_records_file_exits_1(tmp_path, monkeypatch, capsys):
    def disk_full(path, cfg, records):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(snwell.sweep, "_write_records", disk_full)
    argv = ["--alpha", "2", "--n-points", "149", "--n-states", "2",
            "--outputs", "observables", "--out", str(tmp_path)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "error: cannot write records.csv" in err and "Traceback" not in err


@pytest.mark.parametrize("outputs", ["", ",", " , "], ids=["empty", "comma", "spaced_comma"])
def test_empty_outputs_exit_2(tmp_path, capsys, outputs):
    cfg_file = tmp_path / "sweep.cfg"
    cfg_file.write_text(f"outputs = {outputs}\n")
    assert_runs_exit_2(tmp_path, capsys, [["--outputs", outputs], ["--config", str(cfg_file)]])


# at N = 149 the solver's range ends at sqrt(largest double) / 149^(3/2) = 7.372e150,
# which is hbar^2 / (m dx^2) at m = 2.971e-149
@pytest.mark.parametrize("mass", ["1e-300", "2.9e-149"], ids=["far_past", "just_past"])
def test_kinetic_scale_past_the_solver_range_exits_2(tmp_path, capsys, mass):
    cfg_file = tmp_path / "sweep.cfg"
    cfg_file.write_text(f"alpha = 1\nmass = {mass}\nn_points = 149\n")
    flags = ["--alpha", "1", "--mass", mass, "--n-points", "149"]
    assert_runs_exit_2(tmp_path, capsys, [flags, ["--config", str(cfg_file)]])


def test_kinetic_scale_just_inside_the_solver_range_runs(tmp_path):
    cfg_file = tmp_path / "sweep.cfg"
    cfg_file.write_text("alpha = 1\nmass = 3e-149\nn_points = 149\n")
    flags = ["--alpha", "1", "--mass", "3e-149", "--n-points", "149"]
    for name, argv in (("flags", flags), ("file", ["--config", str(cfg_file)])):
        assert main(argv + ["--out", str(tmp_path / name)]) == 0
        assert (tmp_path / name / "records.csv").exists()


def test_point_failure_exits_1(tmp_path, monkeypatch):
    def exploding(cfg):
        raise SweepPointError([PointFailure(2.0, None, "synthetic")])

    monkeypatch.setattr(snwell.cli, "run_sweep", exploding)
    assert main(["--out", str(tmp_path)]) == 1


# each case carries its id, so that a case added anywhere renames no other
@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["--bogus"], id="argv0"),
        pytest.param(["--n-points", "many"], id="argv1"),
        pytest.param(["--out", ""], id="argv4"),
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


def test_readme_library_example_runs():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    library = readme[readme.index("## Library"):]
    block = library.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})


# values for the config-file property test: valid, malformed, non-finite,
# overflowing and extreme; nothing asks for more than 2 threads, 3 alphas or
# a grid of more than a few tens of points
NUMBERS = st.sampled_from(["1", "2", "4", "0.5", "-1", "0", "-0.0", "3e-149",  # valid or near
                           "x", "", "1 2", "1,5", "--mu", "0x10",  # malformed
                           "--m", "--h",  # ambiguous option prefixes
                           "nan", "inf", "-inf",  # non-finite
                           "1e309", "-1e309", "1e308", "-1e308",  # overflowing
                           "1e-300", "5e-324", "1e300", "1e103", "-1e102"])  # extreme
COUNTS = st.sampled_from(["1", "2", "3", "0", "0.5", "-1", "nan", "inf", "1e309", "two"])
PAIRS = st.one_of(st.lists(NUMBERS, min_size=2, max_size=2).map(" ".join),
                  st.sampled_from(["-1 9", "0 5", "-6 6", "9 -1", "1 1", "1", "1 2 3"]))
CONFIG_VALUES = {
    "mu": NUMBERS,
    "alpha": st.lists(NUMBERS, min_size=1, max_size=3),
    "alpha_range": st.tuples(NUMBERS, NUMBERS, COUNTS).map(" ".join),
    "domain": PAIRS,
    "pdomain": PAIRS,
    "n_points": st.sampled_from(["3", "5", "9", "21", "41", "0", "2", "-3", "1.5", "x", ""]),
    "n_states": st.sampled_from(["1", "2", "5", "0", "-1", "40", "1000", "x"]),
    "hbar": NUMBERS,
    "mass": NUMBERS,
    "outputs": st.one_of(
        st.sets(st.sampled_from(snwell.sweep.OUTPUT_KINDS), min_size=1).map(" ".join),
        st.sampled_from(["", ",", "bogus", "spectrum,bogus"])),
    "fail_fast": st.sampled_from(["true", "no", "ON", "maybe", ""]),
    "threads": st.sampled_from(["1", "2", "0", "-1", "1.5", "x"]),
}


@st.composite
def config_files(draw):
    """The lines of a config file of 0 to 6 of the keys, alpha one line per value."""
    keys = draw(st.lists(st.sampled_from(sorted(CONFIG_VALUES)), unique=True, max_size=6))
    lines = []
    for key in keys:
        value = draw(CONFIG_VALUES[key])
        lines += [f"{key} = {v}" for v in (value if isinstance(value, list) else [value])]
    return keys, lines


@settings(max_examples=100, deadline=None)
@given(config_files())
def test_any_config_file_exits_0_or_2_without_a_traceback(config):
    keys, lines = config
    with tempfile.TemporaryDirectory() as tmp:
        cfg_file = Path(tmp) / "sweep.cfg"
        cfg_file.write_text("\n".join(lines) + "\n")
        argv = ["--config", str(cfg_file), "--out", str(Path(tmp) / "out")]
        if "n_points" not in keys:
            argv += ["--n-points", "9"]
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            status = main(argv)
        assert "Traceback" not in err.getvalue()
        if status == 0:
            assert (Path(tmp) / "out" / "records.csv").exists()
        else:
            assert status == 2 and "configuration error" in err.getvalue(), err.getvalue()
