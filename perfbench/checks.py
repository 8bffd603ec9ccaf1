"""Output checks run on every checked run; any problem counts the run as failed.

Each check returns a list of problems (empty when the output is correct), so
a run is failed when the program exits non-zero or any list is non-empty.
"""

from __future__ import annotations

import hashlib
import math
import sys
from pathlib import Path

from workloads import N_POINTS, N_STATES

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_snwell():
    """Import snwell from the checkout's src/, never from an installed copy."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import snwell

    if Path(snwell.__file__).resolve().parent != SRC / "snwell":
        raise ImportError(f"snwell imported from {snwell.__file__}, not from {SRC}")
    return snwell


def alpha_tag(alpha: float) -> str:
    """How output file names spell an alpha (repr round-trip)."""
    return repr(float(alpha))


def check_records(path: Path, alphas, n_states: int = N_STATES) -> list[str]:
    """records.csv: n_alpha x n_states rows for exactly `alphas`, all finite,
    energies strictly ascending within each alpha."""
    if not path.is_file():
        return [f"missing {path.name}"]
    lines = [ln for ln in path.read_text().splitlines() if ln and not ln.startswith("#")]
    if not lines:
        return [f"{path.name}: no column header"]
    header, rows = lines[0].split(","), [ln.split(",") for ln in lines[1:]]
    missing = {"alpha", "state_index", "energy"} - set(header)
    if missing:
        return [f"{path.name}: no column(s) {sorted(missing)}"]
    problems = []
    if len(rows) != len(alphas) * n_states:
        problems.append(f"{path.name}: {len(rows)} rows, expected {len(alphas) * n_states}")
    by_alpha: dict[float, list[tuple[int, float]]] = {}
    for row in rows:
        if len(row) != len(header):
            problems.append(f"{path.name}: row {row[:3]} has {len(row)} fields")
            continue
        try:
            values = dict(zip(header, (float(v) for v in row)))
        except ValueError as exc:
            problems.append(f"{path.name}: {exc}")
            continue
        if not all(math.isfinite(v) for v in values.values()):
            problems.append(f"{path.name}: non-finite value in row {row[:3]}")
        by_alpha.setdefault(values["alpha"], []).append(
            (int(values["state_index"]), values["energy"])
        )
    if sorted(by_alpha) != sorted(float(a) for a in alphas):
        problems.append(f"{path.name}: alphas {sorted(by_alpha)} differ from the requested ones")
    for alpha, states in by_alpha.items():
        energies = [e for _, e in sorted(states)]
        if any(b <= a for a, b in zip(energies, energies[1:])):
            problems.append(f"{path.name}: energies not ascending at alpha={alpha}")
    return problems


def expected_files(sweep: str, alphas, n_states: int = N_STATES) -> list[str]:
    names = ["records.csv"]
    if sweep == "three_depths":
        for alpha in alphas:
            tag = alpha_tag(alpha)
            names += [f"spectrum_{tag}.csv", f"contours_{tag}.csv"]
            names += [f"wigner_{tag}_n{k}.dat" for k in range(n_states)]
    return names


def check_wigner_file(path: Path, n_points: int = N_POINTS) -> list[str]:
    """Reload with load_wigner_grid; the field is n_points x n_points and the
    probability recomputed from it equals the stored header value exactly."""
    import_snwell()
    # module attributes, not the package re-exports: the traced run wraps these
    from snwell import sweep, wigner

    try:
        field, meta = sweep.load_wigner_grid(path)
        stored = float(meta["nonreactive_prob"])
    except Exception as exc:  # any way a damaged file fails to load is a failed run
        return [f"{path.name}: does not reload: {type(exc).__name__}: {exc}"]
    if field.values.shape != (n_points, n_points):
        return [f"{path.name}: shape {field.values.shape}, expected {(n_points, n_points)}"]
    recomputed = wigner.nonreactive_probability(field, field.params)
    if recomputed != stored:
        return [f"{path.name}: recomputed probability {recomputed!r} != stored {stored!r}"]
    return []


def check_sweep_tree(out_dir: Path, sweep: str, alphas, n_states: int = N_STATES) -> list[str]:
    """Every expected file exists and records.csv is right; the Wigner grids of
    three_depths are checked file by file with check_wigner_file."""
    problems = [
        f"missing {name}" for name in expected_files(sweep, alphas, n_states)
        if not (out_dir / name).is_file()
    ]
    return problems + check_records(out_dir / "records.csv", alphas, n_states)


def tree_digest(root: Path) -> dict[str, str]:
    """Relative path -> sha256 of every file under root."""
    digest = {}
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h = hashlib.sha256()
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
        digest[str(path.relative_to(root))] = h.hexdigest()
    return digest
