#!/usr/bin/env python3
"""Benchmark of snwell's figure-data runs, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed 0 --seconds 10 --trace 0

Run it from the root of a checkout: snwell is imported from ./src, and all
temporary trees and result files go under ./.perfbench/.

Every timed run is a fresh child process (perfbench/child.py) that imports
snwell.cli and calls snwell.cli.main(flags), the user path of snwell-sweep,
with its output going to a fresh tree.  This is a closed loop with one
caller: a run starts after the previous one ended and was checked.  The
benchmark passes no --threads and sets no BLAS thread variable, so it
measures the defaults a user gets; both are recorded in the result metadata.

End-to-end metrics (--trace 0), medians over the runs of one invocation:
  wall_s       the cli.main call
  setup_s      child start until snwell.cli is imported and ready
  peak_rss_mb  peak resident memory of the child, from os.wait4
failed_frac (failed / attempted runs) is printed with them and carried by the
`attempted` and `failed` fields of the result line; it is 0 when the program
is correct, so it is not a bounded metric.  Every child process is a checked
run: set-up probes, timed runs and, with --trace 1, the traced, serial,
figure_io and N-scan runs.

--trace 1 makes the same untraced runs, then one traced run (spans around
every layer's public functions, see spans.py), a --threads 1 pass that must
give a byte-identical tree, the figure_io probe (a traced three_depths
Wigner-grid sweep and a traced readback of its grids) and a kernel N-scan,
and reports the per-layer metrics.  The last line of standard output is
always the JSON result; the full record (samples, spans, metadata) is
written to .perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans as spanlib
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE_DIR = ROOT / ".perfbench"

SETUP_PROBES = 5  # import-only children per invocation, so setup_s has enough samples
CHILD_TIMEOUT_S = 90.0

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

NSCAN_METRICS = {
    "wigner_transform.ms_per_call": ("ms", "lower"),
    "wigner_transform.gflop": ("GFLOP", "lower"),
    "wigner_transform.gflops": ("GFLOP/s", "higher"),
    "nonreactive_probability.ms_per_call": ("ms", "lower"),
    "nonreactive_probability.gflop": ("GFLOP", "lower"),
}

# name -> (unit, better); the order of BENCHMARK.json's per_layer list
PER_LAYER = {
    # the workload's traced run
    "wigner_transform.self_s": ("s", "lower"),
    "wigner_transform.calls": ("count", "lower"),
    "wigner_transform.ms_per_call": ("ms", "lower"),
    "wigner_transform.gflop": ("GFLOP", "lower"),
    "wigner_transform.gflops": ("GFLOP/s", "higher"),
    "nonreactive_probability.self_s": ("s", "lower"),
    "nonreactive_probability.calls": ("count", "lower"),
    "nonreactive_probability.calls_per_state": ("calls/state", "lower"),
    "run_sweep.self_s": ("s", "lower"),
    "sweep.points": ("count", "higher"),
    "sweep.points_failed": ("count", "lower"),
    "sweep.pool_speedup": ("ratio", "higher"),
    "sweep.worker_busy_frac": ("fraction", "higher"),
    "solve.self_s": ("s", "lower"),
    "solve.calls": ("count", "lower"),
    "assemble.self_s": ("s", "lower"),
    "position_record.self_s": ("s", "lower"),
    **{f"layer.{layer}.self_s": ("s", "lower") for layer in spanlib.LAYERS},
    "trace.overhead_frac": ("fraction", "lower"),
    # the figure_io probe: traced three_depths sweep, then traced readback
    "figure_io.sweep_wall_s": ("s", "lower"),
    "figure_io.sweep_peak_rss_mb": ("MB", "lower"),
    "figure_io.emit_wigner_grid.self_s": ("s", "lower"),
    "figure_io.emit_wigner_grid.calls": ("count", "lower"),
    "figure_io.emit_wigner_grid.bytes": ("bytes", "lower"),
    "figure_io.emit_wigner_grid.mb_per_s": ("MB/s", "higher"),
    "figure_io.emit_wigner_grid.self_frac": ("fraction", "lower"),
    "figure_io.nonreactive_probability.calls_per_state": ("calls/state", "lower"),
    "figure_io.run_sweep.self_s": ("s", "lower"),
    "figure_io.contour_points.self_s": ("s", "lower"),
    "figure_io.readback_wall_s": ("s", "lower"),
    "figure_io.load_wigner_grid.self_s": ("s", "lower"),
    "figure_io.load_wigner_grid.calls": ("count", "lower"),
    "figure_io.load_wigner_grid.mb_per_s": ("MB/s", "higher"),
    "figure_io.readback.nonreactive_probability.self_s": ("s", "lower"),
    **{f"nscan.N{n}.{name}": spec
       for n in workloads.NSCAN_SIZES for name, spec in NSCAN_METRICS.items()},
}

# functions _sweep_point calls per alpha: the compute phase of a sweep
POINT_FUNCTIONS = {"assemble", "solve", "position_record", "wigner_transform",
                   "nonreactive_probability", "contour_points", "depth"}


class Child:
    """One finished child process: exit status, rusage and its own timestamps."""

    def __init__(self, mode: str, work: Path, tag: str, args=(), spans: Path | None = None):
        self.result_path = work / f"{tag}.result.json"
        self.log_path = work / f"{tag}.log"
        cmd = [sys.executable, str(HERE / "child.py"), mode, str(self.result_path)]
        if spans is not None:
            cmd += ["--spans", str(spans)]
        cmd += ["--", *map(str, args)]
        with open(self.log_path, "wb") as log:
            t_spawn = time.monotonic()
            proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT, cwd=ROOT)
            status, usage = _wait(proc, CHILD_TIMEOUT_S)
        self.exit = os.waitstatus_to_exitcode(status) if status is not None else None
        self.peak_rss_mb = usage.ru_maxrss / 1024.0 if usage is not None else None
        self.result = {}
        if self.result_path.is_file():
            self.result = json.loads(self.result_path.read_text())
        self.setup_s = self.result["t_ready"] - t_spawn if "t_ready" in self.result else None
        self.wall_s = (self.result["t_end"] - self.result["t_begin"]
                       if "t_end" in self.result else None)

    def problems(self) -> list[str]:
        if self.exit == 0 and self.result.get("rc") == 0:
            return list(self.result.get("problems", []))
        tail = self.log_path.read_text(errors="replace")[-400:] if self.log_path.is_file() else ""
        return [f"child exit {self.exit}, program rc {self.result.get('rc')}: {tail.strip()}"]


def _wait(proc: subprocess.Popen, timeout: float):
    """os.wait4 with a deadline; a child past it is killed and reaped."""
    deadline = time.monotonic() + timeout
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid == proc.pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return status, usage
        if time.monotonic() > deadline:
            proc.send_signal(signal.SIGKILL)
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            return None, None
        time.sleep(0.005)


def _summary(values: list[float]) -> dict:
    out = {"n": len(values), "median": statistics.median(values), "min": min(values),
           "max": max(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3)
    return out


class Runs:
    """Attempted and failed runs with their problems, and the timing samples."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[dict] = []
        self.samples: dict[str, list[float]] = {name: [] for name in END_TO_END}

    def count(self, label: str, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failures.append({"run": label, "problems": problems[:20]})
        return not problems


def _sweep_run(child: Child, out: Path, workload: str, alphas, reference: dict | None):
    """Problems of one sweep run, its tree digest, and how many alphas reached
    records.csv.

    A tree byte-identical to `reference`, the tree of an earlier run that
    passed every check, passes them too: the checks read nothing but the
    files.  Any other tree gets the full checks, and a tree that differs from
    the reference is a failure in itself (reruns are byte-identical).
    """
    import checks

    problems = child.problems()
    digest = checks.tree_digest(out)
    if digest != reference:
        problems += checks.check_sweep_tree(out, workload, alphas)
    if reference is not None and digest != reference:
        changed = sorted(k for k in digest.keys() | reference.keys()
                         if digest.get(k) != reference.get(k))
        problems.append(f"tree differs from the first run's in {changed[:5]}")
    records = out / "records.csv"
    lines = records.read_text().splitlines() if records.is_file() else []
    rows = [ln for ln in lines if ln and not ln.startswith("#")][1:]  # after the column header
    points_done = len({row.split(",", 1)[0] for row in rows})
    shutil.rmtree(out, ignore_errors=True)
    return problems, digest, points_done


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    alphas = workloads.alpha_values(workload, seed)
    work = STATE_DIR / f"tmp-{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runs = Runs()
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "alphas": list(alphas), "why": workloads.WORKLOADS[workload],
              "argv": workloads.sweep_argv(workload, seed, "<tree>")}

    def one_run(tag: str, reference: dict | None, extra=(), spans=None):
        out = work / tag
        argv = workloads.sweep_argv(workload, seed, out) + list(extra)
        child = Child("sweep", work, tag, argv, spans=spans)
        return (child, *_sweep_run(child, out, workload, alphas, reference))

    try:
        for i in range(SETUP_PROBES):
            probe = Child("probe", work, f"probe{i}")
            if runs.count(f"probe{i}", probe.problems()):
                runs.samples["setup_s"].append(probe.setup_s)

        reference = None
        start = time.monotonic()
        i = 0
        while i == 0 or time.monotonic() - start < seconds:
            child, problems, digest, _ = one_run(f"run{i}", reference)
            if runs.count(f"run{i}", problems):
                reference = reference or digest
                runs.samples["wall_s"].append(child.wall_s)
                runs.samples["setup_s"].append(child.setup_s)
                runs.samples["peak_rss_mb"].append(child.peak_rss_mb)
            i += 1

        if trace:
            record["layers"] = _traced_pass(seed, alphas, work, runs, one_run, reference)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record["attempted"] = runs.attempted
    record["failures"] = runs.failures
    record["samples"] = runs.samples
    record["summary"] = {k: _summary(v) for k, v in runs.samples.items() if v}
    return record


def _spans(path: Path) -> list[dict]:
    return json.loads(path.read_text())["spans"] if path.is_file() else []


def _figure_io(seed: int, work: Path, runs: Runs) -> dict:
    """The figure_io probe: a traced three_depths sweep of this seed, then a
    traced readback of its Wigner grids (load, recompute, compare), checked."""
    import checks

    alphas = workloads.alpha_values("three_depths", seed)
    out = work / "figure_io"
    sweep = Child("sweep", work, "figure_io", workloads.sweep_argv("three_depths", seed, out),
                  spans=work / "figure_io.spans.json")
    runs.count("figure_io", sweep.problems() + checks.check_sweep_tree(out, "three_depths", alphas))
    readback = Child("readback", work, "readback", [out], spans=work / "readback.spans.json")
    problems = readback.problems()
    if readback.result.get("files") != len(alphas) * workloads.N_STATES:
        problems.append(f"read {readback.result.get('files')} Wigner files")
    runs.count("readback", problems)
    shutil.rmtree(out, ignore_errors=True)
    return {"sweep_spans": _spans(work / "figure_io.spans.json"),
            "readback_spans": _spans(work / "readback.spans.json"),
            "states": len(alphas) * workloads.N_STATES, "sweep_wall": sweep.wall_s,
            "sweep_peak_rss_mb": sweep.peak_rss_mb, "readback_wall": readback.wall_s}


def _self_shares(spans: list[dict]) -> dict[str, float]:
    agg = spanlib.aggregate(spans)
    total = sum(e["self_s"] for e in agg.values()) or 1.0
    return dict(sorted(((name, e["self_s"] / total) for name, e in agg.items()),
                       key=lambda item: -item[1]))


def _traced_pass(seed, alphas, work, runs: Runs, one_run, reference) -> dict:
    """Traced run, serial pass, figure_io probe and N-scan; returns the
    per-layer metrics and the spans."""
    traced_path = work / "traced.spans.json"
    child, problems, _, points_done = one_run("traced", reference, spans=traced_path)
    runs.count("traced", problems)
    serial, serial_problems, _, _ = one_run("serial", reference, extra=["--threads", "1"])
    runs.count("serial", serial_problems)
    figure_io = _figure_io(seed, work, runs)
    nscan = Child("nscan", work, "nscan", [alphas[0]])
    runs.count("nscan", nscan.problems())

    traced = {
        "spans": _spans(traced_path),
        "states": len(alphas) * workloads.N_STATES,
        "points": len(alphas),
        "points_done": points_done,
        "untraced_wall": statistics.median(runs.samples["wall_s"] or [0.0]),
        "traced_wall": child.wall_s,
        "serial_wall": serial.wall_s if not serial_problems else None,
    }
    sizes = nscan.result.get("sizes", {})
    return {"metrics": layer_metrics(traced, figure_io, sizes),
            "self_time_share": _self_shares(traced["spans"]),
            "figure_io_self_time_share": _self_shares(figure_io["sweep_spans"]),
            "spans": traced["spans"], "figure_io": figure_io, "nscan": sizes}


def layer_metrics(traced: dict, figure_io: dict, nscan: dict) -> dict[str, float]:
    """Every PER_LAYER metric.  `traced` describes the workload's traced run,
    `figure_io` the probe (as returned by _figure_io), `nscan` the N-scan
    sizes; a missing entry or a function never called reads 0."""

    def totals(spans):
        agg = spanlib.aggregate(spans)
        return lambda name, key: float(agg[name][key]) if name in agg else 0.0

    def ratio(num, den):
        return num / den if num and den else 0.0

    spans = traced.get("spans", [])
    get = totals(spans)
    m = {}
    for name in ("wigner_transform", "nonreactive_probability", "run_sweep", "solve",
                 "assemble", "position_record"):
        m[f"{name}.self_s"] = get(name, "self_s")
        m[f"{name}.calls"] = get(name, "calls")
    m["wigner_transform.ms_per_call"] = 1e3 * ratio(get("wigner_transform", "total_s"),
                                                    get("wigner_transform", "calls"))
    m["wigner_transform.gflop"] = get("wigner_transform", "work") * 1e-9
    m["wigner_transform.gflops"] = ratio(m["wigner_transform.gflop"],
                                         m["wigner_transform.self_s"])
    m["nonreactive_probability.calls_per_state"] = ratio(m["nonreactive_probability.calls"],
                                                         traced.get("states"))
    m["sweep.points"] = float(traced.get("points", 0))
    m["sweep.points_failed"] = float(traced.get("points", 0) - traced.get("points_done", 0))
    untraced = traced.get("untraced_wall")
    m["sweep.pool_speedup"] = ratio(traced.get("serial_wall"), untraced)
    m["sweep.worker_busy_frac"] = worker_busy_frac(spans)
    own = spanlib.self_times(spans)
    for layer in spanlib.LAYERS:
        m[f"layer.{layer}.self_s"] = sum(own[s["id"]] for s in spans if s["layer"] == layer)
    m["trace.overhead_frac"] = ratio((traced.get("traced_wall") or 0.0) - (untraced or 0.0),
                                     untraced)

    io_get = totals(figure_io.get("sweep_spans", []))
    io_self = sum(spanlib.self_times(figure_io.get("sweep_spans", [])).values())
    m["figure_io.sweep_wall_s"] = float(figure_io.get("sweep_wall") or 0.0)
    m["figure_io.sweep_peak_rss_mb"] = float(figure_io.get("sweep_peak_rss_mb") or 0.0)
    m["figure_io.emit_wigner_grid.self_s"] = io_get("emit_wigner_grid", "self_s")
    m["figure_io.emit_wigner_grid.calls"] = io_get("emit_wigner_grid", "calls")
    m["figure_io.emit_wigner_grid.bytes"] = io_get("emit_wigner_grid", "work")
    m["figure_io.emit_wigner_grid.mb_per_s"] = ratio(io_get("emit_wigner_grid", "work") * 1e-6,
                                                     io_get("emit_wigner_grid", "self_s"))
    m["figure_io.emit_wigner_grid.self_frac"] = ratio(io_get("emit_wigner_grid", "self_s"), io_self)
    m["figure_io.nonreactive_probability.calls_per_state"] = ratio(
        io_get("nonreactive_probability", "calls"), figure_io.get("states"))
    m["figure_io.run_sweep.self_s"] = io_get("run_sweep", "self_s")
    m["figure_io.contour_points.self_s"] = io_get("contour_points", "self_s")
    rb_get = totals(figure_io.get("readback_spans", []))
    m["figure_io.readback_wall_s"] = float(figure_io.get("readback_wall") or 0.0)
    m["figure_io.load_wigner_grid.self_s"] = rb_get("load_wigner_grid", "self_s")
    m["figure_io.load_wigner_grid.calls"] = rb_get("load_wigner_grid", "calls")
    m["figure_io.load_wigner_grid.mb_per_s"] = ratio(rb_get("load_wigner_grid", "work") * 1e-6,
                                                     rb_get("load_wigner_grid", "self_s"))
    m["figure_io.readback.nonreactive_probability.self_s"] = rb_get("nonreactive_probability",
                                                                   "self_s")
    for n in workloads.NSCAN_SIZES:
        for name in NSCAN_METRICS:
            m[f"nscan.N{n}.{name}"] = float(nscan.get(str(n), {}).get(name, 0.0))
    return {name: m[name] for name in PER_LAYER}


def worker_busy_frac(spans) -> float:
    """Time inside traced point calls / (threads used x compute-phase wall time).

    The point calls are the direct children of run_sweep that _sweep_point
    makes; the compute phase runs from the first one's start to the last
    one's end."""
    sweep_ids = {s["id"] for s in spans if s["name"] == "run_sweep"}
    point = [s for s in spans if s["parent"] in sweep_ids and s["name"] in POINT_FUNCTIONS]
    if not point:
        return 0.0
    phase = max(s["end"] for s in point) - min(s["start"] for s in point)
    threads = len({s["thread"] for s in point})
    busy = sum(s["end"] - s["start"] for s in point)
    return busy / (threads * phase) if phase > 0 else 0.0


def _result_line(record: dict, trace: bool) -> dict:
    failed = len(record["failures"])
    if trace:
        metrics = {name: {"value": value, "unit": PER_LAYER[name][0]}
                   for name, value in record["layers"]["metrics"].items()}
    else:
        metrics = {name: {"value": record["summary"][name]["median"], "unit": unit}
                   for name, unit in END_TO_END.items() if name in record["summary"]}
    return {"correct": failed == 0, "attempted": record["attempted"], "failed": failed,
            "metrics": metrics}


def _print_summary(record: dict) -> None:
    failed, attempted = len(record["failures"]), record["attempted"]
    parts = [f"{record['workload']} seed={record['seed']}:"]
    for name, unit in END_TO_END.items():
        s = record["summary"].get(name)
        if s:
            parts.append(f"{name}={s['median']:.4f} {unit} (median of {s['n']})")
    parts.append(f"failed_frac={failed / attempted:.4f} ({failed}/{attempted})")
    print("  ".join(parts))
    for failure in record["failures"]:
        print(f"  FAILED {failure['run']}: {'; '.join(failure['problems'])}")
    if "layers" in record:
        for label, key in (("", "self_time_share"), ("figure_io ", "figure_io_self_time_share")):
            shares = list(record["layers"][key].items())[:5]
            print(f"  {label}self time share: "
                  + ", ".join(f"{name} {100 * share:.1f}%" for name, share in shares))


def _save(records: list[dict], meta: dict) -> Path:
    results = STATE_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    r = records[0]
    name = "all" if len(records) > 1 else r["workload"]
    path = results / f"{name}-seed{r['seed']}-trace{int(r['trace'])}-{time.time_ns()}.json"
    path.write_text(json.dumps({"metadata": meta, "runs": records}, indent=1))
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "snwell" / "cli.py").is_file():
        print(f"perfbench: no snwell sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    import checks
    import machine

    checks.import_snwell()
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    records = [run_workload(name, args.seed, args.seconds, bool(args.trace)) for name in names]
    meta = machine.metadata(ROOT, STATE_DIR)
    print(f"machine: {meta['nproc']} cpus ({meta['cpu_model']}), python {meta['python']}, "
          f"numpy {meta['numpy']} with {meta['numpy_blas'].get('name')} "
          f"{meta['numpy_blas'].get('version')}, thread env {meta['thread_env']}, "
          f"commit {meta['git_commit']}")
    for record in records:
        _print_summary(record)
    print(f"full record: {_save(records, meta).relative_to(ROOT)}")
    if len(records) == 1:
        print(json.dumps(_result_line(records[0], bool(args.trace))))
    else:
        lines = [_result_line(r, bool(args.trace)) for r in records]
        print(json.dumps({
            "correct": all(line["correct"] for line in lines),
            "attempted": sum(line["attempted"] for line in lines),
            "failed": sum(line["failed"] for line in lines),
            "metrics": {f"{r['workload']}.{k}": v for r, line in zip(records, lines)
                        for k, v in line["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
