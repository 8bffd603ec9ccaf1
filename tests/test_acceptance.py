"""End-to-end acceptance suite.

Each test checks one acceptance criterion at its stated tolerance and prints
one `ACCEPTANCE <id> ...: PASS|FAIL` line (visible with `pytest -s`, or in
the captured output of a failing run).

Known honest failure: criterion 4b.  Over the full sweep alpha in [1, 5] the
mean position of state n = 2 is not strictly monotone in the well depth:
it dips by about 2.5 percent for alpha between roughly 2.1 and 2.9, where
E_2 rises above the barrier energy and the state delocalizes toward the left
window wall.  The dip is converged in the grid (identical at N = 599, 1201,
2401) and confirmed by the independent sine DVR
(tests/test_sine_dvr.py::test_the_4b_dip_is_in_the_dvr_too), so it is a
property of the specified system, not an implementation artifact.
States n = 0 and n = 1 are strictly monotone as required.
"""

import numpy as np
import pytest

from snwell import (
    ModelParams,
    SweepConfig,
    assemble,
    depth,
    load_wigner_grid,
    make_grid,
    make_momentum_grid,
    marginal_x,
    nonreactive_probability,
    position_records,
    run_sweep,
    solve,
    wigner_transform,
)

from conftest import fd_hamiltonian, tree_digest


def report(cid, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {cid} {description}: {status}{suffix}")
    return ok


@pytest.fixture(scope="module")
def sweep20(saddle_grid):
    """20-point alpha sweep, states n = 0..2, sorted by ascending depth."""
    rows = []
    for alpha in np.linspace(1.0, 5.0, 20):
        params = ModelParams(4.0, float(alpha))
        s = solve(assemble(params, saddle_grid), 3)
        means, widths = position_records(s.states, saddle_grid)
        rows.append(
            dict(
                alpha=float(alpha),
                depth=depth(params),
                centre=2.0 * np.sqrt(4.0) / alpha,
                energies=s.energies,
                means=means,
                widths=widths,
            )
        )
    rows.sort(key=lambda r: r["depth"])
    return rows


@pytest.fixture(scope="module")
def deep_probabilities(deep_spectrum, saddle_grid, momentum_grid, deep_params):
    return [
        nonreactive_probability(
            wigner_transform(st, saddle_grid, momentum_grid, deep_params), deep_params
        )
        for st in deep_spectrum.states[:5]
    ]


def test_1_depth_values_match_two_decimal_references():
    printed = [round(depth(ModelParams(4.0, a)), 2) for a in (1.0, 2.0, 5.0)]
    ok = printed == [10.67, 2.67, 0.43]
    assert report(1, "well depths at alpha = 1, 2, 5", ok, f"values {printed}")


def test_2_analytic_eigenvalue_oracles():
    g = make_grid(-7.0, 13.0, 1201)
    s = solve(fd_hamiltonian(g, lambda x: 0.5 * (x - 3.0) ** 2), 5)
    harm_err = float(np.max(np.abs(s.energies - (np.arange(5) + 0.5))))

    gb = make_grid(0.0, 1.0, 1201)
    sb = solve(fd_hamiltonian(gb, lambda x: 0.0 * x), 3)
    box_exact = np.arange(1, 4) ** 2 * np.pi**2 / 2.0
    box_err = float(np.max(np.abs(sb.energies - box_exact) / box_exact))

    ok = harm_err < 1e-3 and box_err < 1e-3
    assert report(
        2,
        "harmonic and box spectra vs analytic levels",
        ok,
        f"harmonic max err {harm_err:.2e}, box max rel err {box_err:.2e}",
    )


def test_3_sturm_oscillation_node_counts(deep_spectrum):
    counts = []
    for st in deep_spectrum.states[:6]:
        signs = np.sign(st.values[1:-1])
        signs = signs[signs != 0]
        counts.append(int(np.sum(signs[1:] != signs[:-1])))
    ok = counts == list(range(6))
    assert report(3, "interior sign changes equal state index, n = 0..5", ok, f"{counts}")


def test_4a_energies_strictly_decreasing_in_depth(sweep20):
    E = np.array([r["energies"] for r in sweep20])
    ok = all((np.diff(E[:, n]) < 0).all() for n in range(3))
    assert report(4, "a: E_n strictly decreasing in depth, n = 0..2", ok)


def test_4b_mean_positions_increasing_in_depth(sweep20):
    M = np.array([r["means"] for r in sweep20])
    D = np.array([r["depth"] for r in sweep20])
    violations = [
        (n, float(D[i]), float(M[i, n]), float(M[i + 1, n]))
        for n in range(3)
        for i in range(len(D) - 1)
        if M[i + 1, n] <= M[i, n]
    ]
    ok = not violations
    report(4, "b: <x>_n strictly increasing in depth, n = 0..2", ok, f"violations {violations}")
    assert ok, (
        "mean position of state 2 dips as depth grows past the barrier-crossing "
        f"region (grid-converged, cross-checked independently): {violations}"
    )


def test_4c_mean_positions_between_saddle_and_centre(sweep20):
    ok = all(
        0.0 < r["means"][n] < r["centre"] for r in sweep20 for n in range(3)
    )
    assert report(4, "c: 0 < <x>_n < centre position everywhere", ok)


def test_4d_width_ordering_at_fixed_depth(sweep20):
    ok = all(r["widths"][0] < r["widths"][1] < r["widths"][2] for r in sweep20)
    assert report(4, "d: width ordering sigma_0 < sigma_1 < sigma_2 at fixed depth", ok)


def test_5_ground_level_slope_in_depth(saddle_grid):
    depths, energies = [], []
    for alpha in np.linspace(1.0, 2.0, 6):
        params = ModelParams(4.0, float(alpha))
        s = solve(assemble(params, saddle_grid), 1)
        depths.append(depth(params))
        energies.append(s.energies[0])
    slope = float(np.polyfit(depths, energies, 1)[0])
    ok = abs(slope - (-1.0)) <= 0.15
    assert report(5, "least-squares slope of E_0 vs depth on the deep-well range", ok,
                  f"slope {slope:+.5f}")


def test_6_wigner_correctness_bundle():
    g = make_grid(-10.0, 10.0, 1201)
    pg = make_momentum_grid(-6.0, 6.0, 1201)
    params = ModelParams(mu=0.0, alpha=1.0)
    s = solve(fd_hamiltonian(g, lambda x: 0.5 * x**2), 1)
    w = wigner_transform(s.states[0], g, pg, params)

    exact = np.exp(-(g.points[:, None] ** 2 + pg.points[None, :] ** 2)) / np.pi
    window = (np.abs(g.points) <= 3.0)[:, None] & (np.abs(pg.points) <= 3.0)[None, :]
    pointwise = float(np.max(np.abs(w.values - exact)[window]))
    symmetric = bool(np.array_equal(w.values, w.values[:, ::-1]))
    norm_err = float(abs(np.sum(w.values) * g.dx * pg.dp - 1.0))
    marg_err = float(np.max(np.abs(marginal_x(w) - s.states[0].values ** 2)))
    bound_ok = bool(np.max(np.abs(w.values)) <= 1.0 / np.pi + 1e-6)

    ok = pointwise < 1e-3 and symmetric and norm_err < 1e-2 and marg_err < 1e-2 and bound_ok
    assert report(
        6,
        "harmonic Wigner field: pointwise, symmetry, normalization, marginal, bound",
        ok,
        f"pointwise {pointwise:.2e}, norm {norm_err:.2e}, marginal {marg_err:.2e}, "
        f"symmetric {symmetric}, bounded {bound_ok}",
    )


def test_7_nonreactive_probability_endpoints(deep_probabilities, saddle_grid, momentum_grid):
    shallow = solve(assemble(ModelParams(4.0, 5.0), saddle_grid), 5)
    shallow_probs = [
        nonreactive_probability(
            wigner_transform(st, saddle_grid, momentum_grid, shallow.params), shallow.params
        )
        for st in shallow.states
    ]
    deep_ok = deep_probabilities[0] >= 0.9
    shallow_ok = all(p <= 0.2 for p in shallow_probs[1:])
    decreasing = (np.diff(deep_probabilities) < 0).all()
    ok = bool(deep_ok and shallow_ok and decreasing)
    assert report(
        7,
        "nonreactive probability endpoints and ordering",
        ok,
        f"deep n=0 {deep_probabilities[0]:.4f}, shallow n=1..4 max {max(shallow_probs[1:]):.4f}, "
        f"decreasing {bool(decreasing)}",
    )


def test_8_default_sweep_is_deterministic_serial_and_parallel(tmp_path):
    digests = []
    for name, threads in (("serial_a", 1), ("serial_b", 1), ("parallel", 2)):
        cfg = SweepConfig(output_dir=tmp_path / name, threads=threads)
        run_sweep(cfg)
        digests.append(tree_digest(tmp_path / name))
    ok = digests[0] == digests[1] == digests[2]
    assert report(8, "default sweep trees byte-identical, rerun and serial vs parallel", ok,
                  f"{len(digests[0])} files per tree")


def test_9_wigner_grid_files_round_trip(tmp_path, deep_spectrum, saddle_grid, momentum_grid,
                                        deep_params):
    from snwell import emit_wigner_grid

    cfg = SweepConfig(
        n_points=201,
        n_states=2,
        outputs=frozenset({"wigner", "probability"}),
        output_dir=tmp_path,
        threads=1,
    )
    run_sweep(cfg)
    big = wigner_transform(deep_spectrum.states[0], saddle_grid, momentum_grid, deep_params)
    emit_wigner_grid(big, tmp_path / "wigner_big_n0.dat")

    paths = sorted(tmp_path.glob("wigner_*.dat"))
    worst = 0.0
    for path in paths:
        field, meta = load_wigner_grid(path)
        stored = float(meta["nonreactive_prob"])
        worst = max(worst, abs(nonreactive_probability(field, field.params) - stored))
    ok = len(paths) == 7 and worst <= 1e-12
    assert report(9, "every emitted Wigner grid reloads to its stored probability", ok,
                  f"{len(paths)} files, worst gap {worst:.2e}")
