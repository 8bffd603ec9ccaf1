"""Golden trees: two small sweeps written again and compared with the files
checked in under tests/golden/.

Each file must have the SHA-256 of its golden copy wherever numpy and the
BLAS it runs on match the ones the trees were written with (recorded in
tests/golden/environment.json).  Elsewhere the last bits may move, so every
number in each file must instead agree with the golden one to TOLERANCE of
its column's largest magnitude, and all text must be equal.  On a mismatch
the failure lists the largest relative difference of each column.

To write the trees again after a change that is meant to move bits:

    PYTHONPATH=src python tests/test_golden.py
"""

import ctypes
import hashlib
import json
import math
import platform
import shutil
from pathlib import Path

import numpy as np
import pytest

from snwell import SweepConfig, _lapack, run_sweep

GOLDEN = Path(__file__).with_name("golden")
ENVIRONMENT = GOLDEN / "environment.json"

# the default outputs at N = 149, and a Wigner tree kept to one field
TREES = {
    "default_n149": dict(n_points=149),
    "wigner_n41": dict(n_points=41, n_states=1, alpha_values=(2.0,),
                       outputs=frozenset({"wigner", "probability"})),
}

# largest |new - golden| / (largest |golden| of the column) allowed where
# numpy or BLAS differ from the recorded ones
TOLERANCE = 1e-9


def blas_build() -> str:
    """The BLAS numpy runs: OpenBLAS's run-time configuration (its version and
    the kernel set it picked for this CPU) where numpy's OpenBLAS exports it,
    else numpy's build record."""
    try:
        from numpy._core import _multiarray_umath

        config = ctypes.CDLL(_multiarray_umath.__file__).scipy_openblas_get_config64_
        config.restype = ctypes.c_char_p
        return config().decode()
    except (ImportError, OSError, AttributeError):
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas.get('version')}"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment() -> dict:
    return {"numpy": np.__version__, "blas": blas_build(), "cpu": cpu_model(),
            "python": platform.python_version()}


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _numbers(text: str):
    try:
        return [float(v) for v in text.replace(",", " ").split()]
    except ValueError:
        return None


def parse(path: Path) -> tuple[list[str], dict[str, list[float]]]:
    """(text lines, numeric columns) of one output file.

    A '# key = value' header line whose value is numbers is the column
    '# key'; every other header line, and a CSV's column-name line, is text.
    A CSV's data columns go by their names; a Wigner grid's values are one
    column, 'rho'.
    """
    text, columns, names, rows = [], {}, None, []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            key, equals, value = line[1:].partition("=")
            values = _numbers(value) if equals else None
            if values:
                columns[f"# {key.strip()}"] = values
            else:
                text.append(line)
        elif path.suffix == ".csv" and names is None:
            names = line.split(",")
            text.append(line)
        else:
            rows.append(_numbers(line))
    if names is None:
        columns["rho"] = [v for row in rows for v in row]
    else:
        columns.update(zip(names, (list(col) for col in zip(*rows))))
    return text, columns


def relative_difference(new: list[float], old: list[float]) -> float:
    """max |new - old| over the column / max |old|; inf when the shapes or
    the places of nan differ."""
    a, b = np.array(new), np.array(old)
    if a.shape != b.shape or not np.array_equal(np.isnan(a), np.isnan(b)):
        return math.inf
    a, b = a[~np.isnan(a)], b[~np.isnan(b)]
    scale = max(np.max(np.abs(b), initial=0.0), np.finfo(float).tiny)
    return float(np.max(np.abs(a - b), initial=0.0) / scale)


def column_differences(new: Path, old: Path) -> dict[str, float]:
    """The largest relative difference of each column; 'text' is inf when any
    text line differs."""
    (new_text, new_cols), (old_text, old_cols) = parse(new), parse(old)
    report = {"text": 0.0 if new_text == old_text else math.inf}
    for name in sorted(new_cols.keys() | old_cols.keys()):
        both = name in new_cols and name in old_cols
        report[name] = relative_difference(new_cols[name], old_cols[name]) if both else math.inf
    return report


def assert_matches_golden(tmp_path: Path, name: str) -> None:
    """Write the tree `name` into tmp_path and compare it with its golden copy."""
    golden = GOLDEN / name
    run_sweep(SweepConfig(output_dir=tmp_path, **TREES[name]))
    files = sorted(p.name for p in golden.iterdir())
    assert sorted(p.name for p in tmp_path.iterdir()) == files
    differ = {f: column_differences(tmp_path / f, golden / f)
              for f in files if digest(tmp_path / f) != digest(golden / f)}
    if not differ:
        return
    recorded, current = json.loads(ENVIRONMENT.read_text()), environment()
    same_build = all(recorded[key] == current[key] for key in ("numpy", "blas"))
    assert not same_build, f"files differ from the golden tree on its own build: {differ}"
    worst = max(max(report.values()) for report in differ.values())
    assert worst <= TOLERANCE, (
        f"files differ beyond {TOLERANCE} (golden: {recorded}, here: {current}): {differ}"
    )


@pytest.mark.parametrize("name", sorted(TREES))
def test_sweep_tree_matches_its_golden_copy(tmp_path, name):
    assert_matches_golden(tmp_path, name)


def test_default_tree_through_the_scipy_source_matches_its_golden_copy(tmp_path, monkeypatch):
    # the eigensolver's other source of dstebz/dstein, for numpy builds that
    # do not export them
    pytest.importorskip("scipy.linalg")
    monkeypatch.setattr(_lapack, "_routines", _lapack._scipy_routines)
    assert_matches_golden(tmp_path, "default_n149")


def write_golden() -> None:
    """Write every golden tree and the environment it was written on."""
    for name, kwargs in TREES.items():
        shutil.rmtree(GOLDEN / name, ignore_errors=True)
        run_sweep(SweepConfig(output_dir=GOLDEN / name, **kwargs))
    ENVIRONMENT.write_text(json.dumps(environment(), indent=2) + "\n")


if __name__ == "__main__":
    write_golden()
