import logging
import math
import os
import signal
import sys
import threading
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import snwell._lapack
import snwell.sweep
import snwell.wigner
from snwell import (
    ConfigurationError,
    ModelParams,
    NumericalError,
    SweepConfig,
    SweepPointError,
    assemble,
    contour_points,
    depth,
    emit_wigner_grid,
    load_wigner_grid,
    make_grid,
    make_momentum_grid,
    nonreactive_probabilities,
    nonreactive_probability,
    position_records,
    potential,
    run_sweep,
    solve,
    wigner_transform,
)

from conftest import tree_digest

SMALL = dict(n_points=149, n_states=2)
ALL_OUTPUTS = frozenset(snwell.sweep.OUTPUT_KINDS)


def read_table(path):
    """Parse one of the CSV outputs: (header dict, column names, rows of strings)."""
    header, columns, rows = {}, None, []
    for line in Path(path).read_text().splitlines():
        if line.startswith("#"):
            body = line[1:].strip()
            if "=" in body:
                key, _, value = body.partition("=")
                header[key.strip()] = value.strip()
        elif columns is None:
            columns = line.split(",")
        else:
            rows.append(line.split(","))
    return header, columns, rows


# each case carries its id, so that a case added anywhere renames no other
@pytest.mark.parametrize(
    "kwargs",
    [
        pytest.param(dict(alpha_values=()), id="kwargs0"),
        pytest.param(dict(alpha_values=(1.0, -2.0)), id="kwargs1"),
        pytest.param(dict(alpha_values=(1.0, 1.0)), id="kwargs2"),
        pytest.param(dict(n_states=0), id="kwargs3"),
        pytest.param(dict(outputs=frozenset({"spectrum", "plots"})), id="kwargs4"),
        pytest.param(dict(threads=0), id="kwargs5"),
        pytest.param(dict(mu=-1.0), id="kwargs6"),
        pytest.param(dict(alpha_values=(1.0, math.nan)), id="kwargs7"),
        pytest.param(dict(alpha_values=(1.0, math.inf)), id="kwargs8"),
        pytest.param(dict(alpha_values=(2.0, 0.0)), id="kwargs9"),
        pytest.param(dict(n_points=149, n_states=148), id="kwargs10"),
        pytest.param(dict(threads=None), id="kwargs11"),
        pytest.param(dict(domain=(-1e103, 1e103)), id="kwargs12"),
        # V overflows at alpha = 1000
        pytest.param(dict(alpha_values=(1.0, 1000.0), domain=(-1e102, 1.0)), id="kwargs13"),
        # was accepted, and then every point failed
        pytest.param(dict(n_points=149.0), id="kwargs14"),
        pytest.param(dict(n_states=2.0), id="kwargs15"),
        pytest.param(dict(threads=2.0), id="kwargs16"),
        # a bool is an int to isinstance, and ran one worker
        pytest.param(dict(threads=True), id="kwargs17"),
        pytest.param(dict(n_points=np.float64(149)), id="kwargs18"),
        # ran, and wrote a records.csv of nan columns
        pytest.param(dict(outputs=frozenset()), id="no_outputs"),
        # sqrt(largest double) / 149^(3/2) = 7.37e150 < hbar^2 / (m dx^2) = 7.55e150
        pytest.param(dict(mass=2.9e-149, n_points=149), id="scale_past_the_solver_range"),
    ],
)
def test_config_validation(kwargs):
    with pytest.raises(ConfigurationError):
        SweepConfig(**kwargs)


@pytest.mark.parametrize("n", [5, 41, 149, 599])
def test_solver_works_up_to_the_largest_accepted_kinetic_scale(n):
    # SweepConfig takes hbar^2 / (m dx^2) up to sqrt(largest double) / N^(3/2);
    # dstein gave NaN vectors from sqrt(pi) times that on (more at small N),
    # and dstebz an error from 2 sqrt(largest double) on
    dx = 10.0 / (n - 1)
    limit = math.sqrt(sys.float_info.max) / n**1.5
    for alpha in (1.0, 5.0):
        cfg = SweepConfig(mass=1.0 / (0.999 * limit * dx**2), n_points=n, n_states=min(5, n - 2),
                          alpha_values=(alpha,))
        params = ModelParams(cfg.mu, alpha, mass=cfg.mass)
        states = solve(assemble(params, make_grid(*cfg.domain, n)), cfg.n_states).states
        assert np.isfinite([s.values for s in states]).all()
        with pytest.raises(ConfigurationError, match="eigensolver"):
            replace(cfg, mass=1.0 / (1.001 * limit * dx**2))


def test_sweep_uses_a_pool_of_usable_cpus_by_default(tmp_path, monkeypatch):
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    assert SweepConfig().threads == cpus

    pools = []
    real_pool = snwell.sweep.ThreadPoolExecutor

    def recording_pool(max_workers):
        pools.append(max_workers)
        return real_pool(max_workers=max_workers)

    monkeypatch.setattr(snwell.sweep, "ThreadPoolExecutor", recording_pool)
    if hasattr(os, "sched_getaffinity"):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    else:
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
    for alphas in ((1.0, 2.0, 3.0), (1.0,)):
        cfg = SweepConfig(
            alpha_values=alphas,
            outputs=frozenset({"observables"}),
            output_dir=tmp_path / str(len(alphas)),
            **SMALL,
        )
        assert cfg.threads == 4
        assert len(run_sweep(cfg)) == 2 * len(alphas)
    # three points on four CPUs: three workers; a single point: one
    assert pools == [3, 1]


@pytest.mark.parametrize("cpu_count,threads", [(3, 3), (None, 1)])
def test_threads_default_to_the_cpu_count_without_an_affinity_mask(monkeypatch, cpu_count,
                                                                   threads):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
    assert SweepConfig().threads == threads


def test_wigner_sweeps_default_to_one_worker(tmp_path, monkeypatch):
    pools = []
    real_pool = snwell.sweep.ThreadPoolExecutor

    def recording_pool(max_workers):
        pools.append(max_workers)
        return real_pool(max_workers=max_workers)

    monkeypatch.setattr(snwell.sweep, "ThreadPoolExecutor", recording_pool)
    monkeypatch.setattr(snwell.sweep, "_usable_cpus", lambda: 4)
    alphas, wigner = (1.0, 2.0, 3.0), frozenset({"wigner"})
    configs = [
        SweepConfig(alpha_values=alphas, outputs=wigner, output_dir=tmp_path / "a", **SMALL),
        SweepConfig(alpha_values=alphas, outputs=wigner, output_dir=tmp_path / "b", threads=2,
                    **SMALL),
        SweepConfig(alpha_values=alphas, outputs=frozenset({"observables"}),
                    output_dir=tmp_path / "c", **SMALL),
    ]
    assert [cfg.threads for cfg in configs] == [1, 2, 4]
    for cfg in configs:
        run_sweep(cfg)
    # the default Wigner sweep runs on one worker; an explicit 2 gets two
    assert pools == [1, 2, 3]


@pytest.mark.parametrize("threads", [1, 2], ids=lambda t: f"threads={t}")
def test_interrupted_sweep_starts_no_further_point(tmp_path, monkeypatch, threads):
    started = []
    waiting = threading.Event()
    real_solve, real_wait = snwell.sweep.solve, snwell.sweep.wait

    def slow_solve(h, k):
        started.append(h.params.alpha)
        # Ctrl-C once every point is queued and the first points run
        if len(started) == 1 and waiting.wait(timeout=10):
            os.kill(os.getpid(), signal.SIGINT)
        time.sleep(0.5)
        return real_solve(h, k)

    def recording_wait(*args, **kwargs):
        waiting.set()
        return real_wait(*args, **kwargs)

    monkeypatch.setattr(snwell.sweep, "solve", slow_solve)
    monkeypatch.setattr(snwell.sweep, "wait", recording_wait)
    cfg = SweepConfig(
        alpha_values=tuple(1.0 + 0.5 * i for i in range(8)),
        outputs=frozenset({"observables"}),
        output_dir=tmp_path,
        threads=threads,
        **SMALL,
    )
    previous = signal.signal(signal.SIGINT, signal.default_int_handler)
    try:
        with pytest.raises(KeyboardInterrupt):
            run_sweep(cfg)
    finally:
        signal.signal(signal.SIGINT, previous)
    time.sleep(0.3)  # a point still queued would start in this time
    assert waiting.is_set() and len(started) <= threads
    assert not (tmp_path / "records.csv").exists()


def test_missing_lapack_is_one_configuration_error(no_lapack, tmp_path):
    cfg = SweepConfig(alpha_values=(1.0, 2.0), n_points=41, output_dir=tmp_path / "out")
    with pytest.raises(ConfigurationError, match=r"dstebz/dstein .*'snwell\[lapack\]'"):
        run_sweep(cfg)
    assert not (tmp_path / "out").exists()


def test_sweep_logs_its_lapack_source_once(tmp_path, caplog):
    caplog.set_level(logging.INFO, logger="snwell.sweep")
    run_sweep(SweepConfig(alpha_values=(1.0, 2.0, 5.0), n_points=41, n_states=2,
                          outputs=frozenset({"observables"}), output_dir=tmp_path, threads=2))
    [line] = [r.getMessage() for r in caplog.records if "eigensolver" in r.getMessage()]
    assert line == f"eigensolver: dstebz/dstein from {snwell._lapack.lapack_source()}"
    assert snwell._lapack.lapack_source() in ("numpy's LAPACK", "scipy.linalg.lapack")


def test_a_sweep_leaves_no_block_buffers_on_the_callers_thread(tmp_path):
    held = []

    def sweep_then_look():
        run_sweep(SweepConfig(alpha_values=(1.0, 2.0), outputs=frozenset({"probability"}),
                              output_dir=tmp_path, threads=1, **SMALL))
        held.append(getattr(snwell.wigner._blocks, "buffers", None))

    # a fresh thread, so no earlier test's buffers sit on it
    caller = threading.Thread(target=sweep_then_look)
    caller.start()
    caller.join(timeout=60)
    # the pool's worker kept the probability kernel's buffers and freed them
    # as it exited; the caller holds none
    assert not caller.is_alive() and held == [None]


def test_single_point_sweep_matches_direct_calls(tmp_path):
    cfg = SweepConfig(
        alpha_values=(2.0,),
        outputs=frozenset({"observables", "probability"}),
        output_dir=tmp_path,
        threads=1,
        **SMALL,
    )
    records = run_sweep(cfg)

    grid = make_grid(-1.0, 9.0, cfg.n_points)
    pgrid = make_momentum_grid(-6.0, 6.0, cfg.n_points)
    params = ModelParams(4.0, 2.0)
    spectrum = solve(assemble(params, grid), cfg.n_states)
    assert len(records) == cfg.n_states
    probs = nonreactive_probabilities(spectrum.states, grid, pgrid, params)
    means, sigmas = position_records(spectrum.states, grid)
    for rec, st, prob, mean, sigma in zip(records, spectrum.states, probs, means, sigmas):
        assert rec.energy == st.energy
        assert rec.mean_x == mean and rec.sigma_x == sigma
        w = wigner_transform(st, grid, pgrid, params)
        assert rec.nonreactive_prob == prob
        assert abs(rec.nonreactive_prob - nonreactive_probability(w, params)) <= 1e-14


def test_records_file_round_trips(tmp_path):
    cfg = SweepConfig(
        alpha_values=(2.0, 1.0),
        outputs=frozenset({"observables"}),
        output_dir=tmp_path,
        threads=1,
        **SMALL,
    )
    records = run_sweep(cfg)
    header, columns, rows = read_table(tmp_path / "records.csv")
    assert columns == list(snwell.sweep.RECORD_COLUMNS)
    assert header["mu"] == "4.0" and header["n_points"] == "149"
    assert len(rows) == len(records)
    # rows sorted by (alpha, state_index), values round-trip exactly
    by_key = sorted(records, key=lambda r: (r.alpha, r.state_index))
    for row, rec in zip(rows, by_key):
        assert float(row[0]) == rec.alpha
        assert float(row[1]) == rec.depth
        assert int(row[2]) == rec.state_index
        assert float(row[3]) == rec.energy
        assert float(row[4]) == rec.mean_x
        assert math.isnan(float(row[6]))  # probability not requested


def test_spectrum_file_reproduces_states(tmp_path):
    cfg = SweepConfig(
        alpha_values=(1.0,),
        outputs=frozenset({"spectrum"}),
        output_dir=tmp_path,
        threads=1,
        **SMALL,
    )
    run_sweep(cfg)
    grid = make_grid(-1.0, 9.0, cfg.n_points)
    spectrum = solve(assemble(ModelParams(4.0, 1.0), grid), cfg.n_states)

    header, columns, rows = read_table(tmp_path / "spectrum_1.0.csv")
    assert columns == ["x", "psi_0", "psi_1"]
    assert float(header["energy_0"]) == spectrum.states[0].energy
    data = np.array([[float(v) for v in row] for row in rows])
    np.testing.assert_array_equal(data[:, 0], grid.points)
    np.testing.assert_array_equal(data[:, 1], spectrum.states[0].values)
    np.testing.assert_array_equal(data[:, 2], spectrum.states[1].values)


def test_contours_file_points_lie_on_level_sets(tmp_path):
    cfg = SweepConfig(
        alpha_values=(1.0,),
        outputs=frozenset({"contours"}),
        output_dir=tmp_path,
        threads=1,
        **SMALL,
    )
    run_sweep(cfg)
    header, columns, rows = read_table(tmp_path / "contours_1.0.csv")
    assert columns == ["state_index", "energy", "x", "p"]
    params = ModelParams(4.0, 1.0)
    assert rows, "expected at least one contour sample"
    for row in rows:
        e, x, p = float(row[1]), float(row[2]), float(row[3])
        h = p**2 / (2.0 * params.mass) + potential(params, x)
        assert abs(h - e) <= 1e-9 * max(1.0, abs(e))


def test_table_lines_print_each_value_by_the_round_trip_rule(tmp_path, monkeypatch):
    # negate every other eigenvector, so that solve flips those states back and
    # their endpoint zeros are -0.0, which a float comparison cannot tell from 0.0
    real = snwell._lapack.lowest_eigenvectors

    def negated(*args):
        v = real(*args).copy()
        v[1::2] *= -1.0
        return v

    monkeypatch.setattr(snwell._lapack, "lowest_eigenvectors", negated)
    cfg = SweepConfig(
        alpha_values=(2.0,),
        outputs=frozenset({"spectrum", "contours", "observables"}),
        output_dir=tmp_path,
        threads=1,
        n_points=149,
        n_states=3,
    )
    run_sweep(cfg)
    params = ModelParams(4.0, 2.0)
    grid = make_grid(-1.0, 9.0, cfg.n_points)
    states = solve(assemble(params, grid), cfg.n_states).states
    means, sigmas = position_records(states, grid)

    def body(name):
        """The column line and the data lines of one output file."""
        lines = (tmp_path / name).read_text().splitlines()
        return [line for line in lines if not line.startswith("#")]

    # the rule: str() for a state index, repr(float()) for every other value
    assert body("records.csv") == [",".join(snwell.sweep.RECORD_COLUMNS)] + [
        ",".join([repr(2.0), repr(float(depth(params))), str(s.index), repr(float(s.energy)),
                  repr(float(mean)), repr(float(sigma)), "nan",
                  repr(float(s.boundary_amplitude))])
        for s, mean, sigma in zip(states, means, sigmas)
    ]
    spectrum = body("spectrum_2.0.csv")
    assert spectrum == ["x,psi_0,psi_1,psi_2"] + [
        ",".join(repr(float(v)) for v in row)
        for row in zip(grid.points, *(s.values for s in states))
    ]
    assert spectrum[1].split(",")[1:] == ["0.0", "-0.0", "0.0"]
    assert body("contours_2.0.csv") == ["state_index,energy,x,p"] + [
        f"{s.index},{float(s.energy)!r},{float(x)!r},{float(p)!r}"
        for s in states for x, p in contour_points(params, s.energy, grid)
    ]


def test_wigner_files_written_and_reload_exactly(tmp_path):
    cfg = SweepConfig(
        alpha_values=(1.0, 5.0),
        n_points=201,
        n_states=2,
        outputs=frozenset({"wigner", "probability"}),
        output_dir=tmp_path,
        threads=1,
    )
    records = run_sweep(cfg)
    paths = sorted(tmp_path.glob("wigner_*.dat"))
    assert [p.name for p in paths] == [
        "wigner_1.0_n0.dat",
        "wigner_1.0_n1.dat",
        "wigner_5.0_n0.dat",
        "wigner_5.0_n1.dat",
    ]
    by_key = {(r.alpha, r.state_index): r for r in records}
    for path in paths:
        field, meta = load_wigner_grid(path)
        rec = by_key[(field.params.alpha, field.state_index)]
        assert field.energy == rec.energy
        stored = float(meta["nonreactive_prob"])
        assert stored == rec.nonreactive_prob
        assert abs(nonreactive_probability(field, field.params) - stored) <= 1e-12


def test_emit_and_load_single_field(tmp_path, deep_spectrum, saddle_grid, momentum_grid,
                                    deep_params):
    w = wigner_transform(deep_spectrum.states[0], saddle_grid, momentum_grid, deep_params)
    path = tmp_path / "field.dat"
    emit_wigner_grid(w, path)
    loaded, meta = load_wigner_grid(path)
    np.testing.assert_array_equal(loaded.values, w.values)
    assert loaded.energy == deep_spectrum.states[0].energy
    assert loaded.params == deep_params
    np.testing.assert_array_equal(loaded.spatial_grid.points, saddle_grid.points)
    np.testing.assert_array_equal(loaded.momentum_grid.points, momentum_grid.points)
    stored = float(meta["nonreactive_prob"])
    assert abs(nonreactive_probability(loaded, loaded.params) - stored) <= 1e-12


def test_truncated_wigner_file_rejected(tmp_path, deep_spectrum, saddle_grid, momentum_grid,
                                        deep_params):
    w = wigner_transform(deep_spectrum.states[0], saddle_grid, momentum_grid, deep_params)
    path = tmp_path / "field.dat"
    emit_wigner_grid(w, path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(ValueError, match="shape"):
        load_wigner_grid(path)


def test_wigner_file_without_a_header_key_rejected(tmp_path, deep_spectrum, saddle_grid,
                                                 momentum_grid, deep_params):
    w = wigner_transform(deep_spectrum.states[0], saddle_grid, momentum_grid, deep_params)
    full, path = tmp_path / "field.dat", tmp_path / "dropped.dat"
    emit_wigner_grid(w, full)
    lines = full.read_text().splitlines()
    for key in snwell.sweep._WIGNER_KEYS:
        path.write_text("\n".join(x for x in lines if not x.startswith(f"# {key} =")) + "\n")
        with pytest.raises(ValueError, match=f"header has no {key} line"):
            load_wigner_grid(path)


def test_serial_and_parallel_trees_identical(tmp_path):
    # the Wigner set too: its files are written from the worker threads
    for k, outputs in enumerate((snwell.sweep.DEFAULT_OUTPUTS, ALL_OUTPUTS)):
        trees = {}
        for threads in (1, 2):
            out = tmp_path / f"set{k}_threads{threads}"
            cfg = SweepConfig(
                alpha_values=(0.8, 1.7, 2.9, 4.1),
                outputs=outputs,
                output_dir=out,
                threads=threads,
                **SMALL,
            )
            run_sweep(cfg)
            trees[threads] = tree_digest(out)
        assert trees[1] == trees[2]


def test_each_point_writes_its_files_before_the_next_point_starts(tmp_path, monkeypatch):
    real_solve = snwell.sweep.solve
    seen = []

    def recording_solve(h, k):
        seen.append({p.name for p in tmp_path.iterdir()})
        return real_solve(h, k)

    monkeypatch.setattr(snwell.sweep, "solve", recording_solve)
    cfg = SweepConfig(
        alpha_values=(1.0, 2.0, 5.0),
        outputs=ALL_OUTPUTS,
        output_dir=tmp_path,
        threads=1,
        **SMALL,
    )
    run_sweep(cfg)
    point_files = [
        {f"spectrum_{a}.csv", f"contours_{a}.csv", f"wigner_{a}_n0.dat", f"wigner_{a}_n1.dat"}
        for a in ("1.0", "2.0", "5.0")
    ]
    assert seen == [set(), point_files[0], point_files[0] | point_files[1]]
    assert {p.name for p in tmp_path.iterdir()} == set().union(*point_files, {"records.csv"})


def test_write_lines_streams_the_bytes_of_the_joined_lines(tmp_path):
    lines = ["# header", "", "1.0 -0.0 nan", "  spaced  ", "last"]
    path = tmp_path / "f.txt"
    snwell.sweep._write_lines(path, (line for line in lines))
    assert path.read_bytes() == ("\n".join(lines) + "\n").encode()
    assert [p.name for p in tmp_path.iterdir()] == ["f.txt"]


class _FillingFile:
    """A text file that takes `room` characters, writes them out, then fails."""

    def __init__(self, f, room):
        self._f, self._room = f, room

    def write(self, data):
        if len(data) > self._room:
            self._f.write(data[: self._room])
            self._f.flush()
            raise OSError(28, "No space left on device")
        self._room -= len(data)
        return self._f.write(data)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._f.close()


def _disk_full_halfway(monkeypatch, name_part):
    """Make files that Path.open opens for writing under names holding
    name_part take 1000 characters, part of a Wigner file's first data row,
    then fail."""
    real_open = Path.open

    def open_(self, mode="r", *args, **kwargs):
        f = real_open(self, mode, *args, **kwargs)
        return _FillingFile(f, 1000) if "w" in mode and name_part in self.name else f

    monkeypatch.setattr(Path, "open", open_)


def test_failed_rewrite_keeps_the_old_file(tmp_path, monkeypatch, deep_spectrum, saddle_grid,
                                            momentum_grid, deep_params):
    w = wigner_transform(deep_spectrum.states[0], saddle_grid, momentum_grid, deep_params)
    path = tmp_path / "field.dat"
    emit_wigner_grid(w, path)
    before = path.read_bytes()
    _disk_full_halfway(monkeypatch, "field")
    with pytest.raises(OSError, match="No space left"):
        emit_wigner_grid(w, path)
    assert [p.name for p in tmp_path.iterdir()] == ["field.dat"]
    assert path.read_bytes() == before


def test_failed_write_leaves_no_partial_file(tmp_path, monkeypatch):
    cfg = SweepConfig(
        alpha_values=(1.0, 2.0, 5.0),
        outputs=ALL_OUTPUTS,
        output_dir=tmp_path / "clean",
        threads=1,
        **SMALL,
    )
    run_sweep(cfg)
    clean = tree_digest(tmp_path / "clean")

    _disk_full_halfway(monkeypatch, "wigner_2.0_n1")
    out = tmp_path / "failed"
    with pytest.raises(SweepPointError) as excinfo:
        run_sweep(replace(cfg, output_dir=out))
    (failure,) = excinfo.value.failures
    assert failure.alpha == 2.0 and "No space left" in failure.message
    # no temporary file, nothing of the failed point; the others' files intact
    survived = tree_digest(out)
    del survived["records.csv"], clean["records.csv"]
    assert survived == {k: v for k, v in clean.items() if "2.0" not in k}
    _, _, rows = read_table(out / "records.csv")
    assert sorted({row[0] for row in rows}) == ["1.0", "5.0"]


def test_failed_rerun_removes_only_the_files_it_wrote(tmp_path, monkeypatch):
    cfg = SweepConfig(alpha_values=(1.0, 2.0), outputs=frozenset({"wigner", "spectrum"}),
                      output_dir=tmp_path, threads=1, n_points=41, n_states=2)
    run_sweep(cfg)
    first = {name: (tmp_path / name).read_bytes()
             for name in ("wigner_2.0_n1.dat", "spectrum_2.0.csv")}

    # the rerun into the same directory writes state 0's file, then fails on state 1's
    _disk_full_halfway(monkeypatch, "wigner_2.0_n1")
    with pytest.raises(SweepPointError):
        run_sweep(cfg)
    assert not (tmp_path / "wigner_2.0_n0.dat").exists()
    # the failed write kept the first run's file, and the point never wrote the spectrum
    assert {name: (tmp_path / name).read_bytes() for name in first} == first
    _, _, rows = read_table(tmp_path / "records.csv")
    assert {row[0] for row in rows} == {"1.0"}


def test_failed_computation_removes_the_files_the_point_wrote(tmp_path, monkeypatch):
    cfg = SweepConfig(
        alpha_values=(1.0, 2.0, 5.0),
        outputs=ALL_OUTPUTS,
        output_dir=tmp_path / "clean",
        threads=1,
        **SMALL,
    )
    (energy,) = [r.energy for r in run_sweep(cfg) if r.alpha == 2.0 and r.state_index == 1]
    clean = tree_digest(tmp_path / "clean")

    out = tmp_path / "failed"
    real_transform = snwell.sweep.wigner_transform
    seen = []

    # wigner_transform runs once per state, after the states before it wrote their files
    def failing_transform(state, *args):
        if state.energy == energy:  # state 1 at alpha = 2.0
            seen.append({p.name for p in out.iterdir()})
            raise NumericalError("synthetic failure", state_index=state.index)
        return real_transform(state, *args)

    monkeypatch.setattr(snwell.sweep, "wigner_transform", failing_transform)
    with pytest.raises(SweepPointError) as excinfo:
        run_sweep(replace(cfg, output_dir=out))
    (failure,) = excinfo.value.failures
    assert failure.alpha == 2.0 and failure.state_index == 1
    # state 0's Wigner file was already written when state 1 failed
    assert "wigner_2.0_n0.dat" in seen[0]
    survived = tree_digest(out)
    del survived["records.csv"], clean["records.csv"]
    assert survived == {k: v for k, v in clean.items() if "2.0" not in k}


def test_records_csv_same_for_numpy_float_alphas(tmp_path):
    cfg = SweepConfig(alpha_values=(1.0, 2.5), outputs=frozenset({"observables"}),
                      output_dir=tmp_path / "plain", threads=1, **SMALL)
    run_sweep(cfg)
    numpy_alphas = tuple(np.float64(a) for a in cfg.alpha_values)
    run_sweep(replace(cfg, alpha_values=numpy_alphas, output_dir=tmp_path / "numpy"))
    plain = (tmp_path / "plain" / "records.csv").read_bytes()
    assert (tmp_path / "numpy" / "records.csv").read_bytes() == plain
    assert b"np.float64" not in plain


def test_numpy_integer_counts_write_the_same_tree(tmp_path):
    cfg = SweepConfig(alpha_values=(1.0, 2.5), outputs=frozenset({"observables", "spectrum"}),
                      output_dir=tmp_path / "plain", threads=2, **SMALL)
    run_sweep(cfg)
    counts = {name: np.int64(getattr(cfg, name)) for name in ("n_points", "n_states", "threads")}
    run_sweep(replace(cfg, output_dir=tmp_path / "numpy", **counts))
    assert tree_digest(tmp_path / "numpy") == tree_digest(tmp_path / "plain")


def test_wigner_point_holds_one_field_at_a_time(tmp_path):
    cfg = SweepConfig(alpha_values=(2.0,), outputs=frozenset({"wigner", "probability"}),
                      n_points=599, n_states=5, threads=1)
    grid, pg = make_grid(-1.0, 9.0, 599), make_momentum_grid(-6.0, 6.0, 599)
    tracemalloc.start()
    try:
        snwell.sweep._sweep_point(cfg, grid, pg, 2.0, tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(list(tmp_path.iterdir())) == 5
    # one field and, at most, its correlation matrix, cosines and level
    # product or the probability's masked copy of it: 6.2 MB measured; an
    # N x N table of H alongside that copy peaks at 9.1 MB
    assert peak <= 3 * grid.n_points * pg.n_points * 8


def test_point_failure_reported_and_others_survive(tmp_path, monkeypatch):
    real_solve = snwell.sweep.solve

    def failing_solve(h, k):
        if h.params.alpha == 2.0:
            raise NumericalError("synthetic failure", state_index=1)
        return real_solve(h, k)

    monkeypatch.setattr(snwell.sweep, "solve", failing_solve)
    cfg = SweepConfig(
        alpha_values=(1.0, 2.0, 5.0),
        outputs=frozenset({"observables"}),
        output_dir=tmp_path,
        threads=1,
        **SMALL,
    )
    with pytest.raises(SweepPointError) as excinfo:
        run_sweep(cfg)
    (failure,) = excinfo.value.failures
    assert failure.alpha == 2.0 and failure.state_index == 1
    _, _, rows = read_table(tmp_path / "records.csv")
    assert len(rows) == 2 * cfg.n_states
    assert sorted({row[0] for row in rows}) == ["1.0", "5.0"]


@pytest.mark.parametrize("alphas", [(1.0, 2.0, 5.0), (5.0, 2.0, 1.0)],
                         ids=["ascending", "descending"])
def test_threaded_failures_reported_in_alpha_order(tmp_path, monkeypatch, alphas):
    real_solve = snwell.sweep.solve
    first, last = alphas[0], alphas[-1]

    def failing_solve(h, k):
        if h.params.alpha == first:
            time.sleep(0.3)  # lets the last-given point fail first on the other worker
        if h.params.alpha in (first, last):
            raise NumericalError(f"synthetic failure at {h.params.alpha}")
        return real_solve(h, k)

    monkeypatch.setattr(snwell.sweep, "solve", failing_solve)
    cfg = SweepConfig(
        alpha_values=alphas,
        outputs=frozenset({"observables"}),
        output_dir=tmp_path,
        threads=2,
        **SMALL,
    )
    with pytest.raises(SweepPointError) as excinfo:
        run_sweep(cfg)
    # the order the alphas were given: neither sorted nor the order they failed in
    assert [f.alpha for f in excinfo.value.failures] == [first, last]
    _, _, rows = read_table(tmp_path / "records.csv")
    assert [row[0] for row in rows] == ["2.0"] * cfg.n_states


def test_fail_fast_aborts_immediately(tmp_path, monkeypatch):
    calls = []
    real_solve = snwell.sweep.solve

    def failing_solve(h, k):
        calls.append(h.params.alpha)
        if h.params.alpha == 1.0:
            raise NumericalError("synthetic failure")
        return real_solve(h, k)

    monkeypatch.setattr(snwell.sweep, "solve", failing_solve)
    cfg = SweepConfig(
        alpha_values=(1.0, 2.0, 5.0),
        outputs=frozenset({"observables"}),
        output_dir=tmp_path,
        fail_fast=True,
        threads=1,
        **SMALL,
    )
    with pytest.raises(SweepPointError):
        run_sweep(cfg)
    assert calls == [1.0]
    assert not (tmp_path / "records.csv").exists()


@pytest.mark.parametrize("threads", [1, 2], ids=lambda t: f"threads={t}")
def test_fail_fast_starts_no_point_after_the_failure(tmp_path, monkeypatch, threads):
    calls = []
    real_solve, real_wait = snwell.sweep.solve, snwell.sweep.wait

    def failing_solve(h, k):
        if h.params.alpha == 1.0:
            calls.append(1.0)
            raise NumericalError("synthetic failure")
        time.sleep(0.05)  # the first point fails while a second one runs
        calls.append(h.params.alpha)
        return real_solve(h, k)

    def late_wait(*args, **kwargs):
        time.sleep(0.3)  # a main thread that wakes late
        return real_wait(*args, **kwargs)

    monkeypatch.setattr(snwell.sweep, "solve", failing_solve)
    monkeypatch.setattr(snwell.sweep, "wait", late_wait)
    cfg = SweepConfig(
        alpha_values=tuple(1.0 + i for i in range(6)),
        outputs=frozenset({"observables"}),
        output_dir=tmp_path,
        fail_fast=True,
        threads=threads,
        **SMALL,
    )
    with pytest.raises(SweepPointError) as excinfo:
        run_sweep(cfg)
    assert calls[0] == 1.0 and len(calls) <= threads
    assert [f.alpha for f in excinfo.value.failures] == [1.0]
    assert not (tmp_path / "records.csv").exists()


def test_fail_fast_lists_the_failures_in_flight_in_the_given_order(tmp_path, monkeypatch):
    calls = []
    real_solve = snwell.sweep.solve
    both_running = threading.Barrier(2, timeout=10)

    def failing_solve(h, k):
        calls.append(h.params.alpha)
        if h.params.alpha in (5.0, 1.0):
            both_running.wait()  # both points are in flight before either fails
            raise NumericalError(f"synthetic failure at {h.params.alpha}")
        return real_solve(h, k)

    monkeypatch.setattr(snwell.sweep, "solve", failing_solve)
    cfg = SweepConfig(
        alpha_values=(5.0, 1.0, 2.0, 3.0),
        outputs=frozenset({"observables"}),
        output_dir=tmp_path,
        fail_fast=True,
        threads=2,
        **SMALL,
    )
    with pytest.raises(SweepPointError) as excinfo:
        run_sweep(cfg)
    assert [f.alpha for f in excinfo.value.failures] == [5.0, 1.0]
    assert sorted(calls) == [1.0, 5.0]
    assert not (tmp_path / "records.csv").exists()


@pytest.mark.parametrize("threads", [1, 2], ids=lambda t: f"threads={t}")
def test_base_exception_in_a_point_propagates_and_starts_no_further_point(tmp_path, monkeypatch,
                                                                          threads):
    calls = []
    real_solve = snwell.sweep.solve

    def exiting_solve(h, k):
        if h.params.alpha == 1.0:
            calls.append(1.0)
            raise SystemExit("synthetic exit")
        time.sleep(0.05)
        calls.append(h.params.alpha)
        return real_solve(h, k)

    monkeypatch.setattr(snwell.sweep, "solve", exiting_solve)
    cfg = SweepConfig(
        alpha_values=tuple(1.0 + i for i in range(6)),
        outputs=frozenset({"observables"}),
        output_dir=tmp_path,
        threads=threads,
        **SMALL,
    )
    with pytest.raises(SystemExit, match="synthetic exit"):
        run_sweep(cfg)
    assert calls[0] == 1.0 and len(calls) <= threads
    assert not (tmp_path / "records.csv").exists()


def test_float_formatting_round_trips():
    for value in (1.0, 10.0 / 3.0, 1e-300, -0.1, 5.551115123125783e-17):
        assert float(snwell.sweep._fmt(value)) == value
    assert math.isnan(float(snwell.sweep._fmt(float("nan"))))


def _mirrored(values):
    return np.concatenate((values[:, ::-1][:, : values.shape[1] - 1], values), axis=1)


@pytest.mark.parametrize(
    "values",
    [
        # odd width
        pytest.param(_mirrored(np.array([[0.0, 1.5, -2.0e-300], [np.nan, 0.1, -0.0]])),
                     id="values0"),
        # even width
        pytest.param(np.array([[0.25, -1.0, -1.0, 0.25], [3.0, 0.0, 0.0, 3.0]]), id="values1"),
        # a mirror that == sees but the bits do not
        pytest.param(np.array([[1.0, 0.0, -0.0, 1.0]]), id="values2"),
        # one bit off the mirror
        pytest.param(np.array([[0.1, 2.0, np.nextafter(0.1, 1.0)]]), id="values3"),
        pytest.param(np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]), id="values4"),
        pytest.param(np.array([[1, 2, 1]]), id="values5"),  # integers print as floats
        pytest.param(np.array([[7.5]]), id="values6"),
    ],
)
def test_grid_rows_print_every_value_as_fmt(values):
    expected = [" ".join(snwell.sweep._fmt(v) for v in row) for row in values]
    assert list(snwell.sweep._grid_rows(values)) == expected
