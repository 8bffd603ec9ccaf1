"""Command line front end for the sweep driver.

Configuration comes from an optional flat `key = value` file plus flags;
flags override file entries, both override the built-in defaults (mu = 4,
alpha in {1, 2, 5}, window [-1, 9] x [-6, 6], N = 599, 5 states).  The only
repeated-key convention in the file is `alpha`, listed once per value:

    mu = 4
    alpha = 1
    alpha = 2.5
    domain = -1 9
    outputs = spectrum observables probability contours
    out = results

Exit status: 0 on full success, 1 if any sweep point failed, 2 on a
configuration problem.
"""

from __future__ import annotations

import argparse
import logging
import math
import sys
from pathlib import Path

import numpy as np

from .errors import ConfigurationError
from .sweep import DEFAULT_OUTPUTS, OUTPUT_KINDS, SweepConfig, SweepPointError, run_sweep

__all__ = ["main", "build_parser", "parse_config_file", "config_from_args"]


class _NegativeFloat:
    """argparse's test for "this argument starting with '-' is a number".

    argparse's own pattern knows only '-5' and '-.5', so `--domain -1e3 9` or
    `--pdomain -inf 6` read the window end as an unknown option and stopped
    with "expected 2 arguments".  Anything float() reads counts as a number
    here, as it does for a value in a config file.
    """

    @staticmethod
    def match(text: str) -> bool:
        try:
            float(text)
        except ValueError:
            return False
        return True


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="snwell-sweep",
        description="Sweep the well-depth parameter alpha at fixed mu and write "
        "spectra, observables, Wigner grids, nonreactive probabilities, and "
        "classical contours as reproducible data files.",
    )
    parser.add_argument("--config", type=Path, metavar="FILE",
                        help="flat 'key = value' config file; flags override it")
    parser.add_argument("--mu", type=float, help="equilibrium-separation parameter (default 4)")
    parser.add_argument("--alpha", type=float, action="append", metavar="A",
                        help="well-depth parameter, repeatable (default 1 2 5)")
    parser.add_argument("--alpha-range", nargs=3, type=float, metavar=("START", "STOP", "COUNT"),
                        help="evenly spaced alpha values, inclusive endpoints")
    parser.add_argument("--domain", nargs=2, type=float, metavar=("A", "B"),
                        help="spatial window (default -1 9)")
    parser.add_argument("--pdomain", nargs=2, type=float, metavar=("C", "D"),
                        help="momentum window (default -6 6)")
    parser.add_argument("--n-points", type=int, metavar="N",
                        help="grid points per axis, endpoints included (default 599)")
    parser.add_argument("--n-states", type=int, metavar="K",
                        help="number of lowest eigenstates (default 5)")
    parser.add_argument("--hbar", type=float, help="reduced Planck constant (default 1)")
    parser.add_argument("--mass", type=float, help="particle mass (default 1)")
    parser.add_argument("--outputs", type=_output_set, metavar="LIST",
                        help=f"comma or space separated subset of {OUTPUT_KINDS} "
                        f"(default: {' '.join(sorted(DEFAULT_OUTPUTS))})")
    parser.add_argument("--out", type=Path, metavar="DIR", help="output directory")
    parser.add_argument("--fail-fast", action="store_true", default=None,
                        help="abort on the first failing sweep point")
    parser.add_argument("--threads", type=int, metavar="T",
                        help="sweep points run at once on a thread pool; the default 1 "
                        "runs them serially, T > 1 opts into the pool")
    parser._negative_number_matcher = _NegativeFloat()
    return parser


def parse_config_file(path: Path) -> dict[str, list[str]]:
    """Read a flat key = value file; repeated keys accumulate in order."""
    entries: dict[str, list[str]] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"cannot read config file: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        entries.setdefault(key.strip().replace("-", "_"), []).append(value.strip())
    return entries


def _scalar(entries: dict[str, list[str]], key: str) -> str | None:
    values = entries.get(key)
    if values is None:
        return None
    if len(values) > 1:
        raise ConfigurationError(f"config key '{key}' appears {len(values)} times")
    return values[0]


def _floats(text: str, key: str, count: int) -> tuple[float, ...]:
    parts = text.split()
    if len(parts) != count:
        raise ConfigurationError(f"'{key}' needs {count} numbers, got {text!r}")
    try:
        return tuple(float(p) for p in parts)
    except ValueError as exc:
        raise ConfigurationError(f"'{key}': {exc}") from exc


def _alpha_list(start: float, stop: float, count: float) -> tuple[float, ...]:
    if not math.isfinite(count) or count != int(count) or count < 1:
        raise ConfigurationError(f"alpha range count must be a positive integer, got {count}")
    return tuple(float(a) for a in np.linspace(start, stop, int(count)))


def _resolve_alphas(args, entries) -> tuple[float, ...] | None:
    if args.alpha is not None and args.alpha_range is not None:
        raise ConfigurationError("--alpha and --alpha-range are mutually exclusive")
    if args.alpha is not None:
        return tuple(args.alpha)
    if args.alpha_range is not None:
        return _alpha_list(*args.alpha_range)
    file_alphas = entries.get("alpha")
    file_range = _scalar(entries, "alpha_range")
    if file_alphas is not None and file_range is not None:
        raise ConfigurationError("config sets both 'alpha' and 'alpha_range'")
    if file_alphas is not None:
        try:
            return tuple(float(a) for a in file_alphas)
        except ValueError as exc:
            raise ConfigurationError(f"'alpha': {exc}") from exc
    if file_range is not None:
        return _alpha_list(*_floats(file_range, "alpha_range", 3))
    return None


def _output_set(text: str) -> frozenset:
    return frozenset(text.replace(",", " ").split())


def _parse_bool(text: str, key: str) -> bool:
    lowered = text.lower()
    if lowered in ("true", "yes", "1", "on"):
        return True
    if lowered in ("false", "no", "0", "off"):
        return False
    raise ConfigurationError(f"'{key}' must be a boolean, got {text!r}")


# every config key but alpha and alpha_range: (SweepConfig field, parser of
# the file's text); the flag of the same name, when given, wins
_CONFIG_KEYS = {
    "mu": ("mu", float),
    "hbar": ("hbar", float),
    "mass": ("mass", float),
    "n_points": ("n_points", int),
    "n_states": ("n_states", int),
    "threads": ("threads", int),
    "domain": ("domain", lambda t: _floats(t, "domain", 2)),
    "pdomain": ("momentum_domain", lambda t: _floats(t, "pdomain", 2)),
    "out": ("output_dir", Path),
    "fail_fast": ("fail_fast", lambda t: _parse_bool(t, "fail_fast")),
    "outputs": ("outputs", _output_set),
}


def config_from_args(args: argparse.Namespace) -> SweepConfig:
    """Merge CLI flags over config-file entries over the defaults."""
    entries = parse_config_file(args.config) if args.config else {}
    unknown = set(entries) - set(_CONFIG_KEYS) - {"alpha", "alpha_range"}
    if unknown:
        raise ConfigurationError(f"unknown config keys {sorted(unknown)}")

    kwargs = {}
    for key, (name, parse) in _CONFIG_KEYS.items():
        value = getattr(args, key)
        raw = _scalar(entries, key) if value is None else None
        if raw is not None:
            try:
                value = parse(raw)
            except ConfigurationError:
                raise
            except ValueError as exc:
                raise ConfigurationError(f"'{key}': {exc}") from exc
        if value is not None:
            kwargs[name] = tuple(value) if isinstance(value, list) else value  # nargs=2
    alphas = _resolve_alphas(args, entries)
    if alphas is not None:
        kwargs["alpha_values"] = alphas
    return SweepConfig(**kwargs)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    try:
        cfg = config_from_args(args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    try:
        records = run_sweep(cfg)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except SweepPointError as exc:
        for failure in exc.failures:
            print(
                f"sweep point alpha={failure.alpha} n={failure.state_index} failed: "
                f"{failure.message}",
                file=sys.stderr,
            )
        return 1
    print(
        f"wrote {len(records)} records for {len(cfg.alpha_values)} alpha value(s) "
        f"to {cfg.output_dir}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
