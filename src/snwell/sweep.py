"""Batch driver: alpha sweeps at fixed mu, with reproducible data files.

One sweep point = one alpha value: assemble the matrix, solve the lowest
n_states pairs, then (depending on the requested outputs) position
observables, Wigner fields, the nonreactive probability, and classical
contours at e = E_n.  Points are independent work items, and every sweep
computes them on a thread pool of min(threads, points) workers, threads
defaulting to the CPUs this process may run on, or to 1 when the sweep
writes Wigner files; one worker takes the points in order.  Workers
overlap only where the interpreter lock is released: in the LAPACK calls
(made through ctypes), the probability kernel's np.take and the cosines of
the shared prefix table's build, whose row blocks (one lock each) every
worker that needs the unfinished table builds.  The table's cumsum, the
kernel's einsum contraction, the Wigner text formatting and numpy calls on
small arrays hold it, so the solve's checks, the position moments and the
probability kernel each take all of a point's states in one array pass.
The probability kernel works in fixed-size blocks, and each pool thread
keeps its one pair of block buffers and reuses it from point to point, so
memory grows with the threads in use, not with the number of points.  A
point writes its files in one pass (each line by line to a temporary file
moved into place): each Wigner file as soon as its field is built, the
field then dropped, and the spectrum and contour files after the last
state; it keeps only its records, and records.csv is written last.  A
failed point, a failed computation or write included, leaves none of its
files.  One abort event stops a sweep: a fail_fast failure, a point's
BaseException or Ctrl-C sets it, no point starts after it, the points in
flight finish their files, and records.csv is not written.  No file depends
on the order points finish in, so serial and parallel runs of the same
config produce byte-identical trees.

File formats (all plain text, all embedding the full parameter set as
leading '# key = value' lines; floats are printed with repr round-trip
formatting so files reload to bitwise-identical doubles):

* records.csv            one row per (alpha, state): alpha, depth,
                         state_index, energy, mean_x, sigma_x,
                         nonreactive_prob, boundary_amplitude.  Columns not
                         requested via `outputs` hold nan.
* spectrum_<alpha>.csv   x column plus one psi_n column per state; energies
                         in the header.
* wigner_<alpha>_n<k>.dat  header then N rows (x) by N columns (p) of rho.
* contours_<alpha>.csv   level-set samples of H = E_n per state.
"""

from __future__ import annotations

import itertools
import logging
import math
import operator
import os
import threading
from collections.abc import Iterable, Iterator, Sequence
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from dataclasses import fields as dataclass_fields
from pathlib import Path

import numpy as np

from . import _lapack
from .classical import ModelParams, contour_points, depth, potential
from .discretize import assemble, make_grid
from .eigensolve import Spectrum, solve
from .errors import ConfigurationError
from .observables import position_records
from .wigner import (
    WignerField,
    make_momentum_grid,
    nonreactive_probabilities,
    nonreactive_probability,
    wigner_transform,
)

__all__ = [
    "SweepConfig",
    "SweepRecord",
    "SweepPointError",
    "run_sweep",
    "emit_wigner_grid",
    "load_wigner_grid",
]

logger = logging.getLogger(__name__)

OUTPUT_KINDS = ("spectrum", "observables", "wigner", "probability", "contours")
DEFAULT_OUTPUTS = frozenset({"spectrum", "observables", "probability", "contours"})

# seconds between the pool's checks for an interrupt
_POLL_S = 0.1

# the first header keys of a Wigner file, in order; load_wigner_grid needs each
_WIGNER_KEYS = ("mu", "alpha", "hbar", "mass", "state_index", "energy",
                "x_window", "x_points", "p_window", "p_points")


def _usable_cpus() -> int:
    """The CPUs this process may run on (its affinity mask where the OS has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# threads when none is given: resolved in SweepConfig.__post_init__
_DEFAULT_THREADS = object()


@dataclass(frozen=True)
class SweepConfig:
    """Everything one sweep run depends on.  Defaults are the standard setup:
    mu = 4, window [-1, 9] x [-6, 6], N = 599, five states, hbar = m = 1,
    and a pool of min(threads, points) workers, threads defaulting to the
    usable CPUs, or to 1 when the sweep writes Wigner files: their text
    formatting holds the interpreter lock, so a second worker is slower and
    holds a second field (three_depths, N = 599, 2 vCPUs: 2.5-3.4 s and
    41 MB peak RSS with one worker, 2.9-4.3 s and 48 MB with two).  The
    default is fixed at construction; replace() keeps it, so pass threads."""

    mu: float = 4.0
    alpha_values: tuple[float, ...] = (1.0, 2.0, 5.0)
    domain: tuple[float, float] = (-1.0, 9.0)
    momentum_domain: tuple[float, float] = (-6.0, 6.0)
    n_points: int = 599
    n_states: int = 5
    hbar: float = 1.0
    mass: float = 1.0
    outputs: frozenset = DEFAULT_OUTPUTS
    output_dir: Path = Path("sweep_out")
    fail_fast: bool = False
    threads: int = _DEFAULT_THREADS

    def __post_init__(self):
        if self.threads is _DEFAULT_THREADS:
            threads = 1 if "wigner" in self.outputs else _usable_cpus()
            object.__setattr__(self, "threads", threads)
        for name in ("n_points", "n_states", "threads"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
                raise ConfigurationError(f"{name} must be an integer >= 1, got {value!r}")
        if len(self.alpha_values) < 1:
            raise ConfigurationError("alpha_values must not be empty")
        if len(set(self.alpha_values)) != len(self.alpha_values):
            raise ConfigurationError("alpha values must be distinct (they name output files)")
        if not 1 <= self.n_states <= self.n_points - 2:
            raise ConfigurationError(
                f"n_states must be in [1, n_points - 2 = {self.n_points - 2}], "
                f"got {self.n_states}"
            )
        unknown = set(self.outputs) - set(OUTPUT_KINDS)
        if unknown:
            raise ConfigurationError(f"unknown outputs {sorted(unknown)}; valid: {OUTPUT_KINDS}")
        if not self.outputs:
            raise ConfigurationError(f"outputs must name at least one of {OUTPUT_KINDS}")
        # ModelParams checks alpha, mu, hbar and mass; V is a cubic, so on a finite
        # window it stays finite everywhere once it is finite at both ends.  The
        # depth, the grid step and the kinetic scale (the off-diagonal, which must
        # be strictly negative) can still overflow or underflow though each part
        # is finite.
        ends = np.array(self.domain, dtype=float)
        for alpha in self.alpha_values:
            params = ModelParams(mu=self.mu, alpha=alpha, hbar=self.hbar, mass=self.mass)
            with np.errstate(over="ignore", invalid="ignore"):
                at_ends = potential(params, ends)
            if not np.all(np.isfinite(at_ends)):
                raise ConfigurationError(
                    f"the potential at the window ends {self.domain} is not finite "
                    f"for alpha = {alpha}: {at_ends.tolist()}"
                )
            _require_finite(f"the well depth 4 mu^(3/2) / (3 alpha^2) for alpha = {alpha}",
                            lambda: depth(params))
        dx = _require_finite("the grid step (b - a) / (n_points - 1)",
                             lambda: (self.domain[1] - self.domain[0]) / (self.n_points - 1))
        scale = _require_finite(f"the kinetic scale hbar^2 / (m dx^2) at dx = {dx!r}",
                                lambda: self.hbar**2 / (self.mass * dx**2), positive=True)
        # LAPACK's dstebz squares the off-diagonal -scale / 2 (PIVMIN = SAFMIN
        # max(1, e^2)), and dstein's inverse iteration forms products of about
        # scale^2 (N - 2) (N - 1)^2 / pi; past the largest double they return an
        # error or NaN vectors.  scale^2 N^3 <= the largest double keeps both finite.
        limit = _require_finite("sqrt(largest double) / n_points^(3/2)",
                                lambda: math.sqrt(np.finfo(float).max) / self.n_points**1.5)
        if scale > limit:
            raise ConfigurationError(
                f"the kinetic scale hbar^2 / (m dx^2) = {scale!r} is above {limit!r}, "
                f"sqrt(largest double) / n_points^(3/2), the eigensolver's range"
            )


def _require_finite(quantity: str, compute, positive: bool = False) -> float:
    """Return compute(), which must be a finite number, and one > 0 if
    positive; otherwise raise a ConfigurationError naming quantity.  Python's
    float ** and / raise an ArithmeticError where numpy would give inf or nan."""
    try:
        value = compute()
        usable = math.isfinite(value) and (value > 0 or not positive)
    except ArithmeticError as exc:
        value, usable = exc, False
    if not usable:
        kind = "finite positive" if positive else "finite"
        raise ConfigurationError(f"{quantity} is not a {kind} number: {value}")
    return value


@dataclass(frozen=True)
class SweepRecord:
    alpha: float
    depth: float
    state_index: int
    energy: float
    mean_x: float
    sigma_x: float
    nonreactive_prob: float
    boundary_amplitude: float


# the columns of records.csv, in SweepRecord's field order
RECORD_COLUMNS = tuple(f.name for f in dataclass_fields(SweepRecord))


@dataclass(frozen=True)
class PointFailure:
    alpha: float
    state_index: int | None
    message: str


class SweepPointError(RuntimeError):
    """Sweep points failed, each one in .failures; the other points' files were
    still written, unless fail_fast stopped the sweep at the first failure."""

    def __init__(self, failures: list[PointFailure]):
        lines = ", ".join(f"(alpha={f.alpha}, n={f.state_index}): {f.message}" for f in failures)
        super().__init__(f"{len(failures)} sweep point(s) failed: {lines}")
        self.failures = failures


def _fmt(x) -> str:
    """Shortest decimal string that round-trips the IEEE double exactly."""
    return repr(float(x))


def _sweep_point(cfg: SweepConfig, grid, pgrid, alpha: float, outdir: Path) -> list[SweepRecord]:
    """Compute one alpha point and write its files in one pass; return its records.

    Each Wigner file is written as soon as its field is built, and the field
    is dropped before the next one, so a point holds one field at a time.
    The spectrum and contour files follow.  All of the point's files or
    none: a failure, in a computation or in a write, removes every file the
    point has written and no other; a path is listed once its writer returns.
    """
    params = ModelParams(mu=cfg.mu, alpha=alpha, hbar=cfg.hbar, mass=cfg.mass)
    spectrum = solve(assemble(params, grid), cfg.n_states)
    want_prob = "probability" in cfg.outputs
    want_wigner = "wigner" in cfg.outputs

    states, well_depth = spectrum.states, depth(params)
    tag = _fmt(alpha)
    records, written = [], []
    try:
        probs = means = sigmas = [math.nan] * len(states)
        # without Wigner files the probabilities come from the states through the
        # cached prefix table, with no field built; with them, from each field
        if want_prob and not want_wigner:
            probs = nonreactive_probabilities(states, grid, pgrid, params)
        if "observables" in cfg.outputs:
            means, sigmas = (moments.tolist() for moments in position_records(states, grid))
        for state, prob, mean_x, sigma_x in zip(states, probs, means, sigmas):
            if want_wigner:
                w = wigner_transform(state, grid, pgrid, params)
                if want_prob:
                    prob = nonreactive_probability(w, params)
                path = outdir / f"wigner_{tag}_n{state.index}.dat"
                emit_wigner_grid(w, path)
                written.append(path)
                del w
            records.append(SweepRecord(
                alpha=alpha, depth=well_depth, state_index=state.index, energy=state.energy,
                mean_x=mean_x, sigma_x=sigma_x, nonreactive_prob=prob,
                boundary_amplitude=state.boundary_amplitude,
            ))
        if "spectrum" in cfg.outputs:
            path = outdir / f"spectrum_{tag}.csv"
            _write_spectrum(path, spectrum)
            written.append(path)
        if "contours" in cfg.outputs:
            path = outdir / f"contours_{tag}.csv"
            _write_contours(path, spectrum,
                            [contour_points(params, s.energy, grid) for s in states])
            written.append(path)
    except BaseException:
        for path in written:
            path.unlink(missing_ok=True)
        raise
    return records


def _header(title: str, fields: list[tuple[str, object]]) -> list[str]:
    """'# title', then one '# key = value' line per (key, value) field, in order.

    A str value is written as it is; any other value is a number or a
    sequence of numbers, written as space-separated _fmt floats.
    """
    lines = [f"# {title}"]
    for key, value in fields:
        if not isinstance(value, str):
            value = " ".join(_fmt(v) for v in np.atleast_1d(value))
        lines.append(f"# {key} = {value}")
    return lines


def _point_fields(spectrum: Spectrum) -> list[tuple[str, object]]:
    """Header fields of the per-alpha files: the parameter set and the x grid."""
    params, grid = spectrum.params, spectrum.grid
    return [
        ("mu", params.mu),
        ("alpha", params.alpha),
        ("hbar", params.hbar),
        ("mass", params.mass),
        ("domain", (grid.a, grid.b)),
        ("n_points", str(grid.n_points)),
    ]


def _write_lines(path: Path, lines: Iterable[str]) -> None:
    """Write each line and a newline to a temporary file next to path, then
    move it into place; a generator of lines is written as it is produced."""
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with tmp.open("w") as f:
            for line in lines:
                f.write(line)
                f.write("\n")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_table(path: Path, title: str, fields: list[tuple[str, object]],
                 columns: Sequence[str], rows: Iterable[Sequence]) -> None:
    """_header(title, fields), the comma-joined column names, then one line
    per row: each value through float() as _fmt takes it, printed with %r,
    and a state_index column with %d, as str() prints the index."""
    row = ",".join("%d" if c == "state_index" else "%r" for c in columns)
    lines = _header(title, fields) + [",".join(columns)]
    _write_lines(path, itertools.chain(lines, (row % tuple(map(float, r)) for r in rows)))


def _write_records(path: Path, cfg: SweepConfig, records: list[SweepRecord]) -> None:
    fields = [
        ("mu", cfg.mu),
        ("hbar", cfg.hbar),
        ("mass", cfg.mass),
        ("domain", cfg.domain),
        ("pdomain", cfg.momentum_domain),
        ("n_points", str(cfg.n_points)),
        ("n_states", str(cfg.n_states)),
        ("alpha", cfg.alpha_values),
        ("outputs", " ".join(sorted(cfg.outputs))),
    ]
    ordered = sorted(records, key=lambda r: (r.alpha, r.state_index))
    rows = map(operator.attrgetter(*RECORD_COLUMNS), ordered)
    _write_table(path, "snwell sweep records", fields, RECORD_COLUMNS, rows)


def _write_spectrum(path: Path, spectrum: Spectrum) -> None:
    energies = [(f"energy_{s.index}", s.energy) for s in spectrum.states]
    columns = ["x"] + [f"psi_{s.index}" for s in spectrum.states]
    rows = zip(spectrum.grid.points.tolist(), *(s.values.tolist() for s in spectrum.states))
    _write_table(path, "snwell spectrum", _point_fields(spectrum) + energies, columns, rows)


def _write_contours(path: Path, spectrum: Spectrum, contours: list[np.ndarray]) -> None:
    rows = ((s.index, s.energy, x, p)
            for s, pts in zip(spectrum.states, contours) for x, p in pts.tolist())
    _write_table(path, "snwell classical level sets at e = E_n", _point_fields(spectrum),
                 ("state_index", "energy", "x", "p"), rows)


def emit_wigner_grid(w: WignerField, path) -> None:
    """Write one Wigner field as a self-describing whitespace grid file.

    The header carries the parameter set, both grid windows, the state index
    and energy (enough to rebuild the field's provenance and the classical
    overlay contour at e = E_n), and the nonreactive probability of the
    tabulated values.
    """
    path = Path(path)
    xg, pg = w.spatial_grid, w.momentum_grid
    values = (w.params.mu, w.params.alpha, w.params.hbar, w.params.mass, str(w.state_index),
              w.energy, (xg.a, xg.b), str(xg.n_points), (pg.c, pg.d), str(pg.n_points))
    lines = _header("snwell wigner grid", [
        *zip(_WIGNER_KEYS, values, strict=True),
        ("nonreactive_prob", nonreactive_probability(w, w.params)),
        ("layout", "rows x, columns p"),
    ])
    _write_lines(path, itertools.chain(lines, _grid_rows(w.values)))


def _grid_rows(values: np.ndarray) -> Iterator[str]:
    """Each row of values as space-separated _fmt floats.

    When every row is bitwise its own mirror, as on a mirrored momentum grid,
    only the right half of each row is formatted.  The test is on the bits,
    not ==: -0.0 == 0.0, but the two print differently.
    """
    values = np.asarray(values, dtype=np.float64)
    half = values.shape[1] // 2
    bits = values.view(np.uint64)
    start = half if np.array_equal(bits[:, :half], bits[:, ::-1][:, :half]) else 0
    for row in values[:, start:]:
        right = list(map(repr, row.tolist()))
        yield " ".join(right[::-1][:start] + right)


def load_wigner_grid(path) -> tuple[WignerField, dict]:
    """Reload a grid file written by emit_wigner_grid.

    Returns the reconstructed field and the raw header dict (string values;
    notably meta['nonreactive_prob'] as stored at write time).
    """
    path = Path(path)
    meta = {}
    with open(path) as fh:
        for line in fh:
            if not line.startswith("#"):
                break
            body = line[1:].strip()
            if "=" in body:
                key, _, value = body.partition("=")
                meta[key.strip()] = value.strip()
    missing = [key for key in _WIGNER_KEYS if key not in meta]
    if missing:
        raise ValueError(f"{path}: header has no {', '.join(missing)} line")
    values = np.loadtxt(path)
    shape = (int(meta["x_points"]), int(meta["p_points"]))
    if values.shape != shape:
        raise ValueError(f"{path}: grid has shape {values.shape}, header says {shape}")
    params = ModelParams(**{key: float(meta[key]) for key in ("mu", "alpha", "hbar", "mass")})
    xa, xb = (float(v) for v in meta["x_window"].split())
    pc, pd = (float(v) for v in meta["p_window"].split())
    xg = make_grid(xa, xb, shape[0])
    pg = make_momentum_grid(pc, pd, shape[1])
    field_ = WignerField(
        values=values,
        state_index=int(meta["state_index"]),
        energy=float(meta["energy"]),
        params=params,
        spatial_grid=xg,
        momentum_grid=pg,
    )
    return field_, meta


def run_sweep(cfg: SweepConfig) -> list[SweepRecord]:
    """Run every alpha point, write the requested files, return all records.

    Every point runs on a pool of min(cfg.threads, points) workers.  Point
    failures (a failed write included) are logged with their (alpha, n) and
    do not stop the other points unless cfg.fail_fast; a SweepPointError
    carrying only them, in the order the alphas were given, is raised after
    the remaining points were computed and written.  A fail_fast failure, a
    point's BaseException or Ctrl-C sets the abort event, the sweep's one stop
    state: no point starts after it and records.csv is not written.  Neither
    LAPACK source: a ConfigurationError before the output directory exists.
    """
    logger.info("eigensolver: dstebz/dstein from %s", _lapack.lapack_source())
    grid = make_grid(cfg.domain[0], cfg.domain[1], cfg.n_points)
    pgrid = make_momentum_grid(cfg.momentum_domain[0], cfg.momentum_domain[1], cfg.n_points)
    outdir = Path(cfg.output_dir)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigurationError(f"cannot create the output directory: {exc}") from exc

    abort = threading.Event()  # once set, no further point starts

    def capture(alpha: float) -> list[SweepRecord] | PointFailure:
        """The point's records (none if it never started), or its failure."""
        if abort.is_set():
            return []
        try:
            return _sweep_point(cfg, grid, pgrid, alpha, outdir)
        except Exception as exc:
            logger.error("sweep point alpha=%s failed: %s", alpha, exc)
            if cfg.fail_fast:
                abort.set()
            return PointFailure(alpha=alpha, state_index=getattr(exc, "state_index", None),
                                message=str(exc))
        except BaseException:
            abort.set()
            raise

    # leaving the block waits for the points in flight to finish their files
    with ThreadPoolExecutor(max_workers=min(cfg.threads, len(cfg.alpha_values))) as pool:
        try:
            futures = [pool.submit(capture, alpha) for alpha in cfg.alpha_values]
            # wake now and then: Ctrl-C is raised only while the main thread runs
            while wait(futures, _POLL_S).not_done:
                pass
        except BaseException:
            abort.set()
            raise

    # in the order the alphas were given; result() re-raises a BaseException from a point
    outcomes = [fut.result() for fut in futures]
    failures = [o for o in outcomes if isinstance(o, PointFailure)]
    records = [r for o in outcomes if isinstance(o, list) for r in o]
    if not abort.is_set():  # here only a fail_fast failure can have set it
        _write_records(outdir / "records.csv", cfg, records)
    if failures:
        raise SweepPointError(failures)
    return records
