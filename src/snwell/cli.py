"""Command line front end for the sweep driver.

Configuration comes from an optional flat `key = value` file plus flags, over
the built-in defaults (mu = 4, alpha in {1, 2, 5}, window [-1, 9] x [-6, 6],
N = 599, 5 states).  Each file key is a flag's name, written with `-` or `_`,
and the flag's own parser reads its value; `alpha` may repeat, one value per
line, and `fail_fast` and `--fail-fast` take `true`, `yes`, `1` or `on`, or
`false`, `no`, `0` or `off`, in any case (a bare `--fail-fast` is true):

    mu = 4
    alpha = 1
    alpha = 2.5
    domain = -1 9
    outputs = spectrum observables probability contours
    out = results

A flag replaces the file's value of its key (`--fail-fast=no` a file's
`fail_fast = true`).  A file sets `alpha` or `alpha_range`, not both, and
`--alpha` or `--alpha-range` replaces either; it may start with a BOM.  A
`#` at the start of a line or after whitespace starts a comment.

Exit status: 0 on full success, 1 if any sweep point failed or records.csv
could not be written, 2 on a configuration problem in the file or the flags
(every problem on a file line is named as FILE:LINE, with the flag parser's
message for a value it rejects, an option-like value included; argparse
prints its usage and message for a flag).
"""

from __future__ import annotations

import argparse
import logging
import math
import re
import sys
from pathlib import Path

import numpy as np

from .errors import ConfigurationError
from .sweep import DEFAULT_OUTPUTS, OUTPUT_KINDS, SweepConfig, SweepPointError, run_sweep

__all__ = ["main", "build_parser", "config_from_args"]


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
    parser.add_argument("--alpha", dest="alpha_values", type=float, action="append", metavar="A",
                        help="well-depth parameter, repeatable (default 1 2 5)")
    parser.add_argument("--alpha-range", nargs=3, type=float, metavar=("START", "STOP", "COUNT"),
                        help="evenly spaced alpha values, inclusive endpoints")
    parser.add_argument("--domain", nargs=2, type=float, metavar=("A", "B"),
                        help="spatial window (default -1 9)")
    parser.add_argument("--pdomain", dest="momentum_domain", nargs=2, type=float,
                        metavar=("C", "D"),
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
    parser.add_argument("--out", dest="output_dir", type=_directory, metavar="DIR",
                        help="output directory")
    parser.add_argument("--fail-fast", nargs="?", const=True, type=_boolean, metavar="BOOL",
                        help="abort on the first failing sweep point (bare: true)")
    parser.add_argument("--threads", type=int, metavar="T",
                        help="sweep points run on a pool of min(T, points) threads "
                        "(default: the CPUs this process may use, or 1 with wigner "
                        "output); 1 is one worker taking the points in order")
    parser._negative_number_matcher = _NegativeFloat()
    return parser


def _alpha_list(start: float, stop: float, count: float) -> tuple[float, ...]:
    if not math.isfinite(count) or count != int(count) or count < 1:
        raise ConfigurationError(f"alpha range count must be a positive integer, got {count}")
    try:
        with np.errstate(all="ignore"):  # SweepConfig rejects a non-finite alpha
            return tuple(np.linspace(start, stop, int(count)).tolist())
    except (ValueError, MemoryError) as exc:  # a count too large to allocate
        raise ConfigurationError(f"alpha range count {count:g} is too large: {exc}") from exc


def _output_set(text: str) -> frozenset:
    return frozenset(text.replace(",", " ").split())


def _directory(text: str) -> Path:
    if not text:  # Path("") would be the current directory
        raise argparse.ArgumentTypeError("needs a directory name")
    return Path(text)


def _boolean(text: str) -> bool:
    lowered = text.lower()
    if lowered in ("true", "yes", "1", "on", "false", "no", "0", "off"):
        return lowered in ("true", "yes", "1", "on")
    raise argparse.ArgumentTypeError(f"expected true/yes/1/on or false/no/0/off, got {text!r}")


def _parse_config_entries(path: Path) -> argparse.Namespace:
    """Read a flat key = value file, each line as the flag of its key's name;
    the parser's `error` raises, so every rejected line names FILE:LINE."""
    def error(message):
        raise ConfigurationError(message)

    parser = build_parser()
    parser.error = error
    actions = {a.option_strings[0][2:].replace("-", "_"): a
               for a in parser._actions if a.dest not in ("help", "config")}
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"cannot read config file: {exc}") from exc
    namespace, seen = parser.parse_args([]), set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = re.split(r"(?:^|\s)#", raw, maxsplit=1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip().replace("-", "_"), value.strip()
        if key not in actions:
            raise ConfigurationError(f"{path}:{lineno}: unknown config key '{key}'")
        if key in seen and key != "alpha":
            raise ConfigurationError(f"{path}:{lineno}: config key '{key}' repeats")
        seen.add(key)
        if {"alpha", "alpha_range"} <= seen:
            raise ConfigurationError(
                f"{path}:{lineno}: alpha and alpha_range are mutually exclusive")
        nargs, flag = actions[key].nargs, actions[key].option_strings[0]
        if not isinstance(nargs, int):
            tokens = [f"{flag}={value}"]  # one value, even if it starts with '-'
        elif len(value.split()) == nargs:
            tokens = [flag, *value.split()]
        else:  # extra parts could pass for other flags
            raise ConfigurationError(
                f"{path}:{lineno}: '{key}' needs {nargs} values, got {value!r}")
        # each line is parsed on its own into the one namespace, so that an
        # error names its line and the alpha lines append to one list; an
        # alpha_range line becomes its alpha values, its count checked there
        try:
            namespace = parser.parse_args(tokens, namespace)
            if key == "alpha_range":
                namespace.alpha_values = _alpha_list(*namespace.alpha_range)
        except ConfigurationError as exc:
            raise ConfigurationError(f"{path}:{lineno}: {exc}") from exc
    return namespace


def config_from_args(args: argparse.Namespace) -> SweepConfig:
    """Merge CLI flags over config-file entries over the defaults."""
    values = vars(_parse_config_entries(args.config)) if args.config else {}
    values.update((k, v) for k, v in vars(args).items() if v is not None)
    if args.alpha_range is not None:  # a file's alpha_range is its alpha values already
        if args.alpha_values is not None:
            raise ConfigurationError("alpha and alpha_range are mutually exclusive")
        values["alpha_values"] = _alpha_list(*args.alpha_range)
    return SweepConfig(**{k: tuple(v) if isinstance(v, list) else v for k, v in values.items()
                          if v is not None and k not in ("config", "alpha_range")})


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse has printed its usage and message
        if exc.code == 0:  # --help
            raise
        return 2
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    try:
        cfg = config_from_args(args)
        records = run_sweep(cfg)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except SweepPointError as exc:
        for f in exc.failures:
            print(f"sweep point alpha={f.alpha} n={f.state_index} failed: {f.message}",
                  file=sys.stderr)
        return 1
    except OSError as exc:  # a point's own write failures are point failures
        print(f"error: cannot write records.csv: {exc}", file=sys.stderr)
        return 1
    print(
        f"wrote {len(records)} records for {len(cfg.alpha_values)} alpha value(s) "
        f"to {cfg.output_dir}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
