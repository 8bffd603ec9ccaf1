"""Tests of the benchmark itself: python3 -m pytest perfbench -q (from the repo root)."""

from __future__ import annotations

import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import checks
import run
import spans
import workloads

checks.import_snwell()
from snwell import cli  # noqa: E402


def figure_data_flags() -> list[list[str]]:
    """The snwell-sweep flag lists of scripts/figure_data.sh, without --out."""
    text = (checks.ROOT / "scripts" / "figure_data.sh").read_text()
    commands = text.split("snwell-sweep")[1:]
    flags = []
    for command in commands:
        words = command.split("\n\n")[0].replace("\\\n", " ").split()
        flags.append(words[: words.index("--out")])
    return flags


def test_seed_zero_reproduces_figure_data_flags():
    three, curves = figure_data_flags()
    assert workloads.sweep_argv("three_depths", 0, "d")[:-2] == three
    assert workloads.sweep_argv("depth_curves", 0, "d")[:-2] == curves
    assert workloads.sweep_argv("depth_curves_n1201", 0, "d")[:-2] == [
        "--alpha-range", "1", "5", "10", "--n-points", "1201",
        "--outputs", "observables,probability"]
    assert workloads.alpha_values("depth_curves", 0) == tuple(np.linspace(1, 5, 40))
    assert workloads.alpha_values("depth_curves_n1201", 0) == tuple(np.linspace(1, 5, 10))
    assert workloads.alpha_values("three_depths", 0) == (1.0, 2.0, 5.0)


@pytest.mark.parametrize("sweep", sorted(workloads.SWEEPS))
def test_other_seeds_draw_distinct_alphas_in_range(sweep):
    count = len(workloads.alpha_values(sweep, 0))
    for seed in (1, 2, 77):
        alphas = workloads.alpha_values(sweep, seed)
        assert alphas == workloads.alpha_values(sweep, seed)
        assert len(set(alphas)) == count
        assert all(1.0 <= a <= 5.0 for a in alphas)
        argv = workloads.sweep_argv(sweep, seed, "d")
        assert [float(v) for f, v in zip(argv, argv[1:]) if f == "--alpha"] == list(alphas)
    assert workloads.alpha_values(sweep, 1) != workloads.alpha_values(sweep, 2)


def test_benchmark_json_matches_the_runner():
    bench = json.loads((checks.ROOT / "BENCHMARK.json").read_text())
    assert bench["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert all(w["why"] == workloads.WORKLOADS[w["name"]] and len(w["why"]) <= 200
               for w in bench["workloads"])
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert all(0 < m["bound"] <= 0.25 for m in bench["end_to_end"])
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == [
        (name, unit, better) for name, (unit, better) in run.PER_LAYER.items()
    ]


def test_layer_metrics_report_every_per_layer_metric_without_spans():
    metrics = run.layer_metrics({"untraced_wall": 1.0, "traced_wall": 1.1}, {}, {})
    assert list(metrics) == list(run.PER_LAYER)
    assert metrics["trace.overhead_frac"] == pytest.approx(0.1)


def _damage(path: Path, row: int, col: int) -> None:
    """Change one tabulated rho value of a Wigner grid file."""
    lines = path.read_text().splitlines()
    first = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    values = lines[first + row].split()
    values[col] = repr(float(values[col]) * 1.5 + 1e-3)
    lines[first + row] = " ".join(values)
    path.write_text("\n".join(lines) + "\n")


def _small_sweep(out: Path, *extra: str) -> list[str]:
    argv = ["--alpha", "1", "--alpha", "2", "--n-points", "61", "--n-states", "2",
            "--outputs", workloads.FIGURE_OUTPUTS, "--out", str(out), *extra]
    assert cli.main(argv) == 0
    return argv


def test_sweep_checks_pass_on_a_good_tree_and_catch_damage(tmp_path):
    _small_sweep(tmp_path)

    def problems():
        return checks.check_sweep_tree(tmp_path, "three_depths", (1.0, 2.0), n_states=2)

    assert problems() == []
    wigner = tmp_path / "wigner_2.0_n1.dat"
    assert checks.check_wigner_file(wigner, n_points=61) == []

    lines = wigner.read_text().splitlines()
    _damage(wigner, 18, 30)  # the well bottom x = 2, p = 0: inside the region
    assert "recomputed probability" in checks.check_wigner_file(wigner, n_points=61)[0]
    wigner.write_text("\n".join(lines[:-1]) + "\n")  # one row short
    assert checks.check_wigner_file(wigner, n_points=61) != []

    records = tmp_path / "records.csv"
    text = records.read_text()
    records.write_text(text.replace(text.splitlines()[-1].split(",")[3], "nan"))
    assert any("non-finite" in p for p in problems())
    records.write_text("\n".join(text.splitlines()[:-1]) + "\n")
    assert any("rows, expected 4" in p for p in problems())

    (tmp_path / "contours_1.0.csv").unlink()
    assert "missing contours_1.0.csv" in problems()


def test_rerun_must_match_the_checked_tree_byte_for_byte(tmp_path):
    ok = SimpleNamespace(problems=lambda: [])
    argv = ["--alpha", "1", "--alpha", "2", "--n-points", "61",
            "--outputs", workloads.CURVE_OUTPUTS, "--out"]
    trees = [tmp_path / name for name in ("first", "same", "changed")]
    for tree in trees:
        assert cli.main(argv + [str(tree)]) == 0
    records = trees[2] / "records.csv"
    records.write_text(records.read_text().replace("# snwell", "#  snwell", 1))

    problems, reference, done = run._sweep_run(ok, trees[0], "depth_curves", (1.0, 2.0), None)
    assert problems == [] and done == 2 and not trees[0].exists()
    assert run._sweep_run(ok, trees[1], "depth_curves", (1.0, 2.0), reference)[0] == []
    problems = run._sweep_run(ok, trees[2], "depth_curves", (1.0, 2.0), reference)[0]
    assert problems == ["tree differs from the first run's in ['records.csv']"]


def test_corrupted_grid_file_counts_as_a_failed_readback_run(tmp_path):
    grids = tmp_path / "grids"
    assert cli.main(["--alpha", "1", "--n-states", "1", "--outputs", "wigner",
                     "--out", str(grids)]) == 0
    runs = run.Runs()
    good = run.Child("readback", tmp_path, "good", [grids])
    assert runs.count("good", good.problems()) and good.result["files"] == 1

    _damage(next(grids.glob("wigner_*.dat")), 299, 299)  # the well bottom x = 4, p = 0
    bad = run.Child("readback", tmp_path, "bad", [grids])
    assert not runs.count("bad", bad.problems())
    assert runs.attempted == 2 and len(runs.failures) == 1
    assert "recomputed probability" in runs.failures[0]["problems"][0]


def test_traced_child_records_layer_spans(tmp_path):
    out = tmp_path / "tree"
    argv = _small_sweep(tmp_path / "untraced")[:-2] + ["--out", str(out)]
    spans_path = tmp_path / "spans.json"
    child = run.Child("sweep", tmp_path, "traced", argv, spans=spans_path)
    assert child.problems() == []
    recorded = json.loads(spans_path.read_text())["spans"]
    agg = spans.aggregate(recorded)
    assert agg["main"]["layer"] == "cli" and agg["main"]["calls"] == 1
    assert agg["run_sweep"]["calls"] == 1
    assert agg["solve"]["calls"] == 2 and agg["wigner_transform"]["calls"] == 4
    # probability is computed per state, then again by every emit_wigner_grid
    assert agg["nonreactive_probability"]["calls"] == 8
    assert agg["emit_wigner_grid"]["work"] == sum(
        p.stat().st_size for p in out.glob("wigner_*.dat"))
    by_id = {s["id"]: s for s in recorded}
    sweep_id = next(s["id"] for s in recorded if s["name"] == "run_sweep")
    for s in recorded:
        if s["name"] in ("solve", "wigner_transform"):
            assert s["parent"] == sweep_id  # worker-thread calls hang under run_sweep
        if s["name"] == "nonreactive_probability" and s["parent"] != sweep_id:
            assert by_id[s["parent"]]["name"] == "emit_wigner_grid"
    metrics = run.layer_metrics({"spans": recorded, "states": 4, "points": 2, "points_done": 2},
                                {"sweep_spans": recorded, "states": 4}, {})
    assert metrics["nonreactive_probability.calls_per_state"] == 2.0
    assert metrics["figure_io.nonreactive_probability.calls_per_state"] == 2.0
    assert metrics["figure_io.emit_wigner_grid.calls"] == 4
    assert 0.0 < metrics["figure_io.emit_wigner_grid.self_frac"] < 1.0
    assert 0.0 < metrics["sweep.worker_busy_frac"] <= 1.0


def test_nscan_child_reports_every_nscan_metric(tmp_path):
    child = run.Child("nscan", tmp_path, "nscan", [1.0])
    assert child.problems() == []
    assert sorted(child.result["sizes"]) == sorted(str(n) for n in workloads.NSCAN_SIZES)
    for values in child.result["sizes"].values():
        assert sorted(values) == sorted(run.NSCAN_METRICS)
        assert all(v > 0 for v in values.values())


def test_self_time_subtracts_the_union_of_parallel_children():
    recorder = spans.SpanRecorder("t")
    leaf = recorder.wrap("wigner", lambda: time.sleep(0.05))

    def parent():
        with ThreadPoolExecutor(max_workers=2) as pool:
            for fut in [pool.submit(leaf), pool.submit(leaf)]:
                fut.result()
        time.sleep(0.05)

    recorder.wrap("sweep", parent)()
    recorded = recorder.as_dicts()
    root = next(s for s in recorded if s["parent"] is None)
    children = [s for s in recorded if s["parent"] == root["id"]]
    assert len(children) == 2 and len({s["thread"] for s in children}) == 2
    assert all(s["thread"] != threading.get_ident() for s in children)
    own = spans.self_times(recorded)
    union = max(s["end"] for s in children) - min(s["start"] for s in children)
    assert own[root["id"]] == pytest.approx(root["end"] - root["start"] - union, abs=1e-9)
    assert own[root["id"]] >= 0.05


def test_covered_merges_overlaps_and_clips():
    assert spans._covered([(0, 2), (1, 3), (5, 6)], 0, 10) == 4
    assert spans._covered([(0, 2), (1, 3), (5, 6)], 1.5, 5.5) == 2.0
    assert spans._covered([], 0, 1) == 0
