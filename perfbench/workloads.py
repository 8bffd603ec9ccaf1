"""Workload definitions: seed -> the CLI flags one run passes to snwell-sweep.

Seed 0 reproduces the figure runs flag for flag (scripts/figure_data.sh for
depth_curves and three_depths).  Any other seed draws the same number of
distinct alphas from [1, 5], one uniform draw in each of `count` equal slices
of the range (stratified), so every seed still covers the whole depth range
the figures span and the cost of one run stays comparable from seed to seed.
The program only ever sees the flags.
"""

from __future__ import annotations

import random

ALPHA_RANGE = (1.0, 5.0)
N_POINTS = 599  # CLI default, grid points per axis
N_STATES = 5  # CLI default
NSCAN_SIZES = (599, 1201, 2401)  # kernel N-scan: correlation matrix 1.4 MB to 23 MB

CURVE_OUTPUTS = "observables,probability"
FIGURE_OUTPUTS = "spectrum,observables,wigner,probability,contours"

# sweep -> (alpha count, extra flags, outputs)
SWEEPS = {
    "depth_curves": (40, [], CURVE_OUTPUTS),
    "depth_curves_n1201": (10, ["--n-points", "1201"], CURVE_OUTPUTS),
    # the Wigner-grid figure run; traced with its readback as the figure_io probe
    "three_depths": (3, [], FIGURE_OUTPUTS),
}

# the timed workloads, with why each was chosen
WORKLOADS = {
    "depth_curves": (
        "40-point alpha sweep of observables and probabilities from figure_data.sh: "
        "kernel-bound (Wigner GEMM plus region sum per state), writes almost nothing"
    ),
    "depth_curves_n1201": (
        "10-point depth curves on the 1201-point grid: the same kernel with a 5.8 MB "
        "correlation matrix that overflows L2, so a kernel gain must hold as the working set grows"
    ),
}


def alpha_values(sweep: str, seed: int) -> tuple[float, ...]:
    """The alphas a sweep runs for this seed, in the order the CLI gets them."""
    count = SWEEPS[sweep][0]
    lo, hi = ALPHA_RANGE
    if seed == 0:
        if sweep == "three_depths":
            return (1.0, 2.0, 5.0)
        # the values --alpha-range 1 5 COUNT expands to (numpy.linspace)
        step = (hi - lo) / (count - 1)
        return tuple(hi if i == count - 1 else lo + i * step for i in range(count))
    rng = random.Random(seed)
    width = (hi - lo) / count
    alphas = tuple(lo + width * (i + rng.random()) for i in range(count))
    if len(set(alphas)) != count:
        raise ValueError(f"seed {seed} drew repeated alphas")
    return alphas


def sweep_argv(sweep: str, seed: int, out_dir) -> list[str]:
    """CLI flags of `sweep` for this seed, writing to out_dir."""
    count, extra, outputs = SWEEPS[sweep]
    if seed == 0 and sweep == "three_depths":
        alpha_flags = ["--alpha", "1", "--alpha", "2", "--alpha", "5"]
    elif seed == 0:
        alpha_flags = ["--alpha-range", "1", "5", str(count)]
    else:
        alpha_flags = []
        for alpha in alpha_values(sweep, seed):
            alpha_flags += ["--alpha", repr(alpha)]
    return alpha_flags + extra + ["--outputs", outputs, "--out", str(out_dir)]
