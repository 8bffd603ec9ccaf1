"""Exact scaling covariance of the whole pipeline.

H = p^2 / 2m - sqrt(mu) x^2 + (alpha / 3) x^3 on a Dirichlet grid has three
symmetries, each mapping a parameter set onto one whose matrix is the same,
or a multiple of it:

* length (x -> x / s): mu s^4, alpha s^3, m s^2, x window / s, p window * s.
  E, rho, P and the depth stay; psi is multiplied by sqrt(s), <x> and sigma
  by 1 / s, and the contour points (x, p) by (1 / s, s).
* energy (H -> c H): mu c^2, alpha c, m / c.  E and the depth are multiplied
  by c; psi, rho, P, <x>, sigma and the contour points stay.
* action (hbar -> t hbar): m t^2, p window * t.  E, psi, <x>, sigma, P and
  the depth stay; rho is multiplied by 1 / t, and the contour momenta by t.

With factors of 4 and 1/4 every factor above is a power of 2 (sqrt(s) = 2 or
1/2 because s is a power of 4), and so is every factor the code meets on the
way (s^2 dx^2, c sqrt(mu), t hbar, ...).  Scaling by a power of 2 commutes
with each rounding, so each relation holds bit for bit; a tolerance here
would hide a change in where hbar, m, mu or alpha enter.  The oracle needs
no reference solution: it pins the kinetic scale, V, the depth, the Wigner
phase and prefactor, the H <= 0 region and the contour momenta at once.
"""

import math
import re

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from snwell import (
    ModelParams,
    SweepConfig,
    assemble,
    contour_points,
    depth,
    make_grid,
    make_momentum_grid,
    nonreactive_probabilities,
    nonreactive_probability,
    position_records,
    run_sweep,
    solve,
    wigner_transform,
)

# generator: factor -> (the factors of mu, alpha, hbar, mass, the x window and
# the p window; the factor of each computed quantity)
GENERATORS = {
    "length": lambda s: (
        dict(mu=s**4, alpha=s**3, hbar=1.0, mass=s**2, x=1 / s, p=s),
        dict(energy=1.0, psi=math.sqrt(s), mean_x=1 / s, sigma_x=1 / s, rho=1.0, prob=1.0,
             depth=1.0, contour_x=1 / s, contour_p=s),
    ),
    "energy": lambda c: (
        dict(mu=c**2, alpha=c, hbar=1.0, mass=1 / c, x=1.0, p=1.0),
        dict(energy=c, psi=1.0, mean_x=1.0, sigma_x=1.0, rho=1.0, prob=1.0,
             depth=c, contour_x=1.0, contour_p=1.0),
    ),
    "action": lambda t: (
        dict(mu=1.0, alpha=1.0, hbar=t, mass=t**2, x=1.0, p=t),
        dict(energy=1.0, psi=1.0, mean_x=1.0, sigma_x=1.0, rho=1 / t, prob=1.0,
             depth=1.0, contour_x=1.0, contour_p=t),
    ),
}


def pipeline(params, n, x_window, p_window, k=3):
    """Every number a sweep point computes from its states, by quantity."""
    xg, pg = make_grid(*x_window, n), make_momentum_grid(*p_window, n)
    states = solve(assemble(params, xg), k).states
    mean_x, sigma_x = position_records(states, xg)
    fields = [wigner_transform(s, xg, pg, params) for s in states]
    contours = [contour_points(params, s.energy, xg) for s in states]
    return dict(
        energy=np.array([s.energy for s in states]),
        psi=np.array([s.values for s in states]),
        mean_x=mean_x,
        sigma_x=sigma_x,
        rho=np.array([w.values for w in fields]),
        prob=np.array([[nonreactive_probability(w, params) for w in fields],
                       nonreactive_probabilities(states, xg, pg, params)]),
        depth=np.float64(depth(params)),
        contour_x=np.concatenate([c[:, 0] for c in contours]),
        contour_p=np.concatenate([c[:, 1] for c in contours]),
    )


@settings(max_examples=40)
@given(
    alpha=st.floats(1.0, 5.0),
    mu=st.floats(0.5, 8.0),
    generator=st.sampled_from(sorted(GENERATORS)),
    factor=st.sampled_from([4.0, 0.25]),
    n=st.integers(41, 149),
)
# C's pow rounds (16 mu)**1.5 and (4 alpha)**2 apart from 64 mu**1.5 and 16 alpha**2 here
@example(alpha=1.0, mu=1.0000000000000002, generator="energy", factor=4.0, n=41)
@example(alpha=4.915381454756383, mu=4.0, generator="energy", factor=4.0, n=41)
def test_scaled_parameters_scale_every_number_bitwise(alpha, mu, generator, factor, n):
    moves, expected = GENERATORS[generator](factor)
    params = ModelParams(mu, alpha)
    image = ModelParams(mu * moves["mu"], alpha * moves["alpha"], hbar=moves["hbar"],
                        mass=moves["mass"])
    original = pipeline(params, n, (-1.0, 9.0), (-6.0, 6.0))
    scaled = pipeline(image, n, (-1.0 * moves["x"], 9.0 * moves["x"]),
                      (-6.0 * moves["p"], 6.0 * moves["p"]))
    for quantity, f in expected.items():
        assert (original[quantity] * f).tobytes() == scaled[quantity].tobytes(), quantity


def read_tree(root):
    """{file name: (its header as (key, value) pairs, the title's value
    empty; its column names, ["value"] for a Wigner grid; its rows as one
    array)}."""
    tree = {}
    for path in sorted(root.iterdir()):
        header, columns, rows = [], ["value"], []
        for line in path.read_text().splitlines():
            if line.startswith("#"):
                key, _, value = line[2:].partition(" = ")
                header.append((key, value))
            elif path.suffix == ".csv" and columns == ["value"]:
                columns = line.split(",")
            else:
                rows.append(re.split("[ ,]", line))
        tree[path.name] = header, columns, np.array(rows, dtype=float)
    return tree


def test_length_image_of_a_wigner_sweep_is_its_tree_scaled_bitwise(tmp_path):
    s = 4.0
    outputs = frozenset({"spectrum", "observables", "wigner", "probability", "contours"})
    cfg = SweepConfig(n_points=149, outputs=outputs, output_dir=tmp_path / "original")
    image = SweepConfig(
        mu=cfg.mu * s**4, alpha_values=tuple(a * s**3 for a in cfg.alpha_values),
        mass=s**2, domain=tuple(x / s for x in cfg.domain),
        momentum_domain=tuple(p * s for p in cfg.momentum_domain),
        n_points=149, outputs=outputs, output_dir=tmp_path / "image",
    )
    run_sweep(cfg)
    run_sweep(image)
    # the factor of each header key and column; a key not listed is text and stays
    factors = dict(mu=s**4, alpha=s**3, mass=s**2, hbar=1.0, domain=1 / s, pdomain=s,
                   x_window=1 / s, p_window=s, energy=1.0, nonreactive_prob=1.0, depth=1.0,
                   state_index=1.0, mean_x=1 / s, sigma_x=1 / s, boundary_amplitude=math.sqrt(s),
                   x=1 / s, p=s, psi=math.sqrt(s), value=1.0)
    original, scaled = read_tree(cfg.output_dir), read_tree(image.output_dir)
    assert len(original) == len(scaled) == 1 + 3 * (2 + 5)

    def factor(key):
        return factors.get(re.sub(r"_\d+$", "", key))  # energy_k, psi_k as energy, psi

    for name, (header, columns, rows) in original.items():
        # the alpha in the file name: spectrum_1.0.csv, wigner_1.0_n0.dat, ...
        name = re.sub(r"(?<=_)[\d.]+(?=_n|\.csv)", lambda m: repr(float(m[0]) * s**3), name)
        image_header, image_columns, image_rows = scaled[name]
        assert [key for key, _ in header] == [key for key, _ in image_header], name
        for (key, value), (_, image_value) in zip(header, image_header):
            if factor(key) is None:
                assert value == image_value, (name, key)
            else:
                value, image_value = (np.array(v.split(), dtype=float) for v in (value, image_value))
                assert (value * factor(key)).tobytes() == image_value.tobytes(), (name, key)
        assert columns == image_columns, name
        column_factors = np.array([factor(column) for column in columns])
        assert (rows * column_factors).tobytes() == image_rows.tobytes(), name
