"""One measured process of the benchmark.

    python3 perfbench/child.py MODE RESULT_JSON [--spans SPANS_JSON] [-- ARGS...]

MODE is
  probe     import snwell.cli and exit (a set-up sample);
  sweep     call snwell.cli.main(ARGS), the user path of snwell-sweep;
  readback  load every wigner_*.dat under ARGS[0] with load_wigner_grid and
            check that the recomputed probability equals the stored one;
  nscan     time wigner_transform and nonreactive_probability at N = 599,
            1201 and 2401 (ARGS[0] is the alpha).

The child writes its CLOCK_MONOTONIC timestamps (comparable with the
parent's) and results to RESULT_JSON.  With --spans it wraps every layer's
public functions first and writes the recorded spans to SPANS_JSON on exit.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

import checks
from workloads import N_STATES, NSCAN_SIZES

checks.import_snwell()
from snwell import cli  # noqa: E402  (the set-up being measured)

T_READY = time.monotonic()

NSCAN_MIN_SECONDS = 0.25  # per size and function; at least one pass over the states


def wigner_flop(n_x: int, n_p: int) -> float:
    """Computed flop of one wigner_transform: the (N x (L+1)) @ ((L+1) x N_p,half)
    product, L = (N-1)//2, N_p,half the momentum columns actually evaluated."""
    return 2.0 * n_x * ((n_x - 1) // 2 + 1) * ((n_p + 1) // 2)


def probability_flop(n_x: int, n_p: int) -> float:
    """Computed flop of one nonreactive_probability: H on the grid plus the sum."""
    return 2.0 * n_x * n_p


def work_counters():
    def emitted_bytes(args, kwargs, result):
        return float(os.path.getsize(args[1] if len(args) > 1 else kwargs["path"]))

    def loaded_bytes(args, kwargs, result):
        return float(os.path.getsize(args[0] if args else kwargs["path"]))

    def transform_flop(args, kwargs, result):
        return wigner_flop(result.spatial_grid.n_points, result.momentum_grid.n_points)

    def region_flop(args, kwargs, result):
        w = args[0] if args else kwargs["w"]
        return probability_flop(*w.values.shape)

    return {
        "emit_wigner_grid": emitted_bytes,
        "load_wigner_grid": loaded_bytes,
        "wigner_transform": transform_flop,
        "nonreactive_probability": region_flop,
    }


def run_sweep(args: list[str]) -> dict:
    t_begin = time.monotonic()
    rc = cli.main(args)
    return {"t_begin": t_begin, "t_end": time.monotonic(), "rc": rc}


def run_readback(args: list[str]) -> dict:
    paths = sorted(Path(args[0]).glob("wigner_*.dat"))
    t_begin = time.monotonic()
    problems = []
    for path in paths:
        problems += checks.check_wigner_file(path)
    t_end = time.monotonic()
    if not paths:
        problems.append(f"no wigner files under {args[0]}")
    return {"t_begin": t_begin, "t_end": t_end, "rc": 0, "files": len(paths), "problems": problems}


def _median_call(fn, inputs) -> float:
    times = []
    deadline = time.perf_counter() + NSCAN_MIN_SECONDS
    while not times or time.perf_counter() < deadline:
        for item in inputs:
            t0 = time.perf_counter()
            fn(item)
            times.append(time.perf_counter() - t0)
    times.sort()
    return times[len(times) // 2]


def run_nscan(args: list[str]) -> dict:
    from snwell import (ModelParams, assemble, make_grid, make_momentum_grid,
                        nonreactive_probability, solve, wigner_transform)

    params = ModelParams(mu=4.0, alpha=float(args[0]))
    sizes = {}
    for n in NSCAN_SIZES:
        grid = make_grid(-1.0, 9.0, n)
        pgrid = make_momentum_grid(-6.0, 6.0, n)
        states = solve(assemble(params, grid), N_STATES).states
        transform_s = _median_call(lambda s: wigner_transform(s, grid, pgrid, params), states)
        field = wigner_transform(states[0], grid, pgrid, params)
        region_s = _median_call(lambda w: nonreactive_probability(w, params), [field])
        sizes[n] = {
            "wigner_transform.ms_per_call": transform_s * 1e3,
            "wigner_transform.gflop": wigner_flop(n, n) * 1e-9,
            "wigner_transform.gflops": wigner_flop(n, n) * 1e-9 / transform_s,
            "nonreactive_probability.ms_per_call": region_s * 1e3,
            "nonreactive_probability.gflop": probability_flop(n, n) * 1e-9,
        }
    return {"rc": 0, "sizes": sizes}


def main(argv: list[str]) -> int:
    mode, result_path = argv[0], argv[1]
    rest = argv[2:]
    spans_path = None
    if rest[:1] == ["--spans"]:
        spans_path, rest = rest[1], rest[2:]
    if rest[:1] == ["--"]:
        rest = rest[1:]

    recorder = None
    if spans_path is not None:
        import spans

        recorder = spans.SpanRecorder(run_id=f"{mode}-{time.time_ns()}")
        spans.install(recorder, work_counters())

    runners = {"probe": lambda a: {"rc": 0}, "sweep": run_sweep, "readback": run_readback,
               "nscan": run_nscan}
    result = runners[mode](rest)
    result["t_ready"] = T_READY
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    if recorder is not None:
        with open(spans_path, "w") as fh:
            json.dump({"run_id": recorder.run_id, "spans": recorder.as_dicts()}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
