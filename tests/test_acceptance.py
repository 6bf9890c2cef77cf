"""Acceptance criteria for the package, one test per criterion.

Each test ends with a single PASS line (visible with ``pytest -s`` or in the
captured output) stating the measured figure of merit next to its pinned
tolerance.
"""

import collections
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from neqfridge import (
    EnsembleSpec,
    ModelParams,
    cop_g,
    critical_gamma,
    eta_star_max,
    eta_star_min,
    heat_currents,
    local_target_temperature,
    random_ensemble,
    resonant_frame,
    solve_oracle,
    sweep_fig3,
    sweep_fig4,
    sweep_fig5,
    tilde_populations,
    validate,
    virtual_temperature,
)
from neqfridge.dissipation import bath_actions, build_generator_parts, generator_weights, localized_weights
from neqfridge.linalg import density_matrix_defects
from neqfridge.observables import currents_closed
from neqfridge.steadystate import steady_coefficients

from conftest import (
    P0,
    family_coords,
    family_operator,
    family_operators,
    find_root,
    high_temperature_saturation,
    hot_spec,
    lab_hamiltonians,
    max_cop_identity,
    random_feasible,
    random_hermitian,
    reset_channel,
    tilde_channel,
    to_lab,
)


def test_criterion_1_oracle_equivalence():
    """Closed-form and null-space steady states agree per coefficient."""
    rng = np.random.default_rng(101)
    points = [P0]
    points += [replace(P0, gamma=g) for g in (0.0, 0.1, 0.2, 0.4, 0.5)]
    points += [replace(P0, g=0.0), replace(P0, t1=2.0, t2=2.0, t3=2.0)]
    points += [random_feasible(rng) for _ in range(20)]
    worst_delta = worst_residual = 0.0
    for params in points:
        report = validate(params, tol=1e-8)
        assert report.passed, (params, report.groups)
        worst_delta = max(worst_delta, report.oracle.max_delta)
        worst_residual = max(worst_residual, report.oracle.numeric.residual)
    print(f"\nACCEPTANCE 1 PASS: {len(points)} points, max coefficient delta "
          f"{worst_delta:.2e} <= 1e-8, max numeric residual {worst_residual:.2e} <= 1e-10")


def _current_noise_points(rng: np.random.Generator, count: int) -> list[ModelParams]:
    """Draws where the currents' rounding is largest in their unit eps (p + g) eps2: the
    box of `random_feasible` with p log-uniform from 1e-9 and g uniform from 0 to p, every
    other draw cold with near-equal baths (T1 log-uniform over [0.01, 0.5], each next bath
    up to twice as hot, one in three all at T1), and every third draw's energies and
    temperatures times 2^k, k uniform over [-600, 500]."""
    points = []
    for i in range(count):
        params = random_feasible(rng)
        p = 10.0 ** rng.uniform(-9.0, math.log10(0.03))
        params = replace(params, p=p, g=p * rng.uniform(0.0, 1.0))
        if i % 2:
            hotter = lambda t: t if i % 3 == 1 else t * (1.0 + 10.0 ** rng.uniform(-6.0, 0.0))
            t1 = 10.0 ** rng.uniform(-2.0, math.log10(0.5))
            t2 = hotter(t1)
            params = replace(params, t1=t1, t2=t2, t3=hotter(t2))
        if i % 3 == 0:
            k = int(rng.integers(-600, 501))
            params = replace(params, **{name: math.ldexp(getattr(params, name), k)
                                        for name in ("e1", "e3", "gamma", "t1", "t2", "t3")})
        points.append(params)
    return points


def test_criterion_2_first_law_and_current_identity():
    """Q1 + Q2 + Q3 = 0, Q1g = Q1 and the two current routes' agreement within an eighth
    of the currents' floor, at 200 random feasible points and 1200 where the currents'
    rounding is largest, so that a shrinking margin fails here before it fails validate."""
    rng = np.random.default_rng(102)
    points = [random_feasible(rng) for _ in range(200)] + _current_noise_points(rng, 1200)
    worst_sum = worst_id = worst_route = 0.0
    for params in points:
        parts = build_generator_parts(params)
        currents = heat_currents(parts, solve_oracle(parts).numeric)
        worst_sum = max(worst_sum, abs(currents.q1 + currents.q2 + currents.q3) / currents.floor)
        worst_id = max(worst_id, abs(currents.q1g - currents.q1) / currents.floor)
        worst_route = max(worst_route, currents.max_route_delta / currents.floor)
    assert worst_sum <= 1 / 8
    assert worst_id <= 1 / 8
    assert worst_route <= 1 / 8
    print(f"\nACCEPTANCE 2 PASS: {len(points)} points, in units of the currents' floor: "
          f"max |Q1+Q2+Q3| {worst_sum:.3f}, max |Q1g-Q1| {worst_id:.3f}, max route delta "
          f"{worst_route:.3f}, each <= 1/8")


def test_criterion_3_critical_coupling():
    """The cooling-condition boundary matches its closed form and the
    finite-difference slope of the virtual temperature."""
    closed = critical_gamma(1.0, 4.0)
    reference = math.sqrt(2.0 * math.sqrt(17.0) - 8.0)
    assert abs(closed - reference) <= 1e-12

    def slope(gamma, h=1e-6):
        frame = resonant_frame(1.0, 4.0, gamma)

        def tv(t3):
            return virtual_temperature(frame, tilde_populations(frame, 2.0, t3, t1=2.0))

        return (tv(2.0 + h) - tv(2.0 - h)) / (2.0 * h)

    fd_root = find_root(slope, 0.45, 0.4999)
    assert abs(fd_root - reference) <= 1e-6
    print(f"\nACCEPTANCE 3 PASS: gamma_c closed-form delta {abs(closed - reference):.2e} "
          f"<= 1e-12, finite-difference delta {abs(fd_root - reference):.2e} <= 1e-6")


def test_criterion_4_fig3_reproduction():
    """Three qualitative current classes in coupling order, with the roots
    of the current and of the coherence change coinciding."""
    start = time.perf_counter()
    table = sweep_fig3(points=200)
    elapsed = time.perf_counter() - start
    assert elapsed <= 10.0

    def q1g_curve(gamma):
        """q1g of one coupling's curve, in increasing beta3."""
        at = table["gamma"] == gamma
        return table["q1g"][at][np.argsort(table["beta3"][at], kind="stable")].tolist()

    gamma_c = critical_gamma(1.0, 4.0)

    q48 = q1g_curve(0.48)[:-1]
    assert min(q48) > 0 and all(a >= b for a, b in zip(q48, q48[1:]))
    q49 = q1g_curve(0.49)[:-1]
    assert q49[0] < 0 < q49[-1]
    for gamma in (gamma_c, 0.50):
        assert max(q1g_curve(gamma)[:-1]) <= 0

    # shared zero of the current and the coherence change (class-2 curve)
    frame = resonant_frame(1.0, 4.0, 0.49)
    from neqfridge.model import virtual_coherence

    base_c = virtual_coherence(frame, tilde_populations(frame, 2.0, 2.0, t1=2.0))

    def q1g(beta3):
        pops = tilde_populations(frame, 2.0, 1.0 / beta3, t1=2.0)
        return -0.25 * 0.01 * steady_coefficients(pops, 0.01, 0.01).d

    def delta_c(beta3):
        return virtual_coherence(frame, tilde_populations(frame, 2.0, 1.0 / beta3, t1=2.0)) - base_c

    root_q = find_root(q1g, 0.02, 0.49)
    root_c = find_root(delta_c, 0.02, 0.49)
    assert abs(root_q - root_c) <= 1e-8
    print(f"\nACCEPTANCE 4 PASS: classes (1,2,3,3) in coupling order, shared root delta "
          f"{abs(root_q - root_c):.2e} <= 1e-8, sweep time {elapsed:.2f}s <= 10s")


def test_criterion_5_fig4_reproduction():
    """Window endpoints: vanishing thermodynamic COP and the dressed COP
    identity; COP ordering inside every window."""
    table, windows = sweep_fig4(points=200)
    worst_tot = worst_identity = 0.0
    for gamma, window in windows.items():
        for edge in (window.left, window.right):
            params = ModelParams(e1=edge, e3=4.0, gamma=gamma,
                                 t1=4.0 / 3.0, t2=2.0, t3=4.0, p=0.01, g=0.01)
            frame = resonant_frame(edge, 4.0, gamma)
            pops = tilde_populations(frame, params.t2, params.t3, t1=params.t1)
            d = steady_coefficients(pops, params.p, params.g).d
            closed = currents_closed(params, frame, pops, d)
            worst_tot = max(worst_tot, abs(closed["q1"] / closed["q3"]))
            fridge_pops = tilde_populations(frame, 2.0, 4.0, t1=2.0)
            worst_identity = max(
                worst_identity,
                abs(cop_g(frame) - max_cop_identity(frame, fridge_pops, 4.0 / 3.0)),
            )
    assert worst_tot <= 1e-8
    assert worst_identity <= 1e-10
    assert (table["eta_g"] >= table["eta_tot"]).all()
    assert (table["eta_g"] <= 1.0 + 1e-12).all()
    print(f"\nACCEPTANCE 5 PASS: endpoint |eta_tot| {worst_tot:.2e} <= 1e-8, endpoint COP "
          f"identity delta {worst_identity:.2e} <= 1e-10, eta_tot <= eta_g <= eta_c on "
          f"{table['e1'].size} window points")


def test_criterion_6_fig5_limits():
    """Endpoint COP ratio approaches one at bath degeneracy; coupling
    ordering holds at every sampled point."""
    table, _ = sweep_fig5(points=200)
    beta3, eta_ratio, coherence = table["beta3"], table["eta_ratio"], table["coherence"]
    by_beta = collections.defaultdict(dict)
    for i, (b, gamma) in enumerate(zip(beta3.tolist(), table["gamma"].tolist())):
        by_beta[round(b, 12)][gamma] = i
    worst_limit = 0.0
    for gamma in (0.1, 0.2, 0.3):
        at = np.flatnonzero(table["gamma"] == gamma)
        closest = at[np.argmax(beta3[at])]
        assert beta3[closest] == pytest.approx(0.5 - 1e-4, abs=1e-12)
        worst_limit = max(worst_limit, abs(eta_ratio[closest] - 1.0))
    assert worst_limit <= 1e-3
    for group in by_beta.values():
        if len(group) != 3:
            continue
        assert eta_ratio[group[0.1]] > eta_ratio[group[0.2]] > eta_ratio[group[0.3]]
        assert coherence[group[0.1]] < coherence[group[0.2]] < coherence[group[0.3]]
    print(f"\nACCEPTANCE 6 PASS: |eta_g/eta_c - 1| {worst_limit:.2e} <= 1e-3 at "
          f"beta3 = beta2 - 1e-4; coupling ordering at all sampled beta3")


def test_criterion_7_power_cop_bounds():
    """Seeded 1000-model ensemble respects the max-power COP band; models
    flagged near the upper bound carry little coherence."""
    start = time.perf_counter()
    table, meta = random_ensemble(EnsembleSpec(n=1000, eta_c=1.0, seed=7))
    elapsed = time.perf_counter() - start
    assert elapsed <= 15.0
    assert table["eta_star"].size == 1000
    for eta_star, x in zip(table["eta_star"].tolist(), table["gamma_over_e3"].tolist()):
        assert eta_star <= eta_star_max(1.0, x) + 1e-9
        assert eta_star >= eta_star_min(x) - 1e-9
    near = table["coherence"][table["near_bound"] != 0]
    assert (near <= 0.12).all()
    # clustering at the bound: models within twice the flag distance still
    # sit below the coherence ceiling
    upper, lower = table["eta_star_max"], table["eta_star_min"]
    close = table["coherence"][(upper - table["eta_star"]) / (upper - lower) < 0.10]
    assert close.size, "expected models approaching the bound"
    assert close.max() <= 0.12
    print(f"\nACCEPTANCE 7 PASS: 1000 models inside the bound band (slack 1e-9); "
          f"{near.size} flagged near-bound (C <= 0.12 holds), {close.size} within 10% of "
          f"the bound with max C {close.max():.3f}; "
          f"runtime {elapsed:.1f}s <= 15s")


@pytest.mark.parametrize("seed", [3, 4, 5, 6])
def test_criterion_7_bounds_hold_with_hot_machine_baths(seed):
    """Supplementary: the band holds within its 1e-9 slack with machine baths at
    hundreds to thousands of units, where the largest of Q1^g's values misses its
    maximum by up to 1e-6 relative, and eta* is read at the root of its E1-derivative."""
    table, _ = random_ensemble(hot_spec(seed))
    assert (table["eta_star"] <= table["eta_star_max"] + 1e-9).all()
    assert (table["eta_star"] >= table["eta_star_min"] - 1e-9).all()
    worst = np.max(table["eta_star"] - table["eta_star_max"])
    print(f"\nACCEPTANCE 7 HOT PASS (seed {seed}): max eta* - eta_star_max = {worst:.2e} <= 1e-9")


def test_criterion_7s_near_bound_coherence_hot_ensemble():
    """Supplementary: with hotter machine baths the 5% flag fires, and every
    flagged model stays below the coherence ceiling."""
    table, _ = random_ensemble(EnsembleSpec(n=300, seed=11, t2_range=(4.0, 12.0)))
    near = table["coherence"][table["near_bound"] != 0]
    assert near.size
    worst = near.max()
    assert worst <= 0.12
    print(f"\nACCEPTANCE 7 SUPPLEMENT PASS: {near.size} near-bound models in the hot "
          f"ensemble, max coherence {worst:.3f} <= 0.12")


def test_criterion_8_high_temperature_saturation():
    """At twenty-fold temperatures the max-power COP is within 2% of its
    bound; without coupling it reproduces half the Carnot value."""
    table = high_temperature_saturation(x_values=(0.0, 0.05, 0.1), kappas=(20.0,))
    assert (table["rel_gap"] <= 0.02).all()
    worst = max(0.0, table["rel_gap"].max())
    uncoupled = np.flatnonzero(table["gamma_over_e3"] == 0.0)[0]
    assert table["eta_star_bound"][uncoupled] == pytest.approx(0.5, abs=1e-15)
    assert abs(table["eta_star"][uncoupled] - 0.5) <= 0.01
    print(f"\nACCEPTANCE 8 PASS: kappa=20 relative gap to the bound {worst:.4%} <= 2%; "
          f"uncoupled limit eta* = {table['eta_star'][uncoupled]:.4f} vs eta_c/2 = 0.5")


def test_criterion_9_property_suite():
    """One thousand randomized trials of the full invariant chain with zero
    failures."""
    rng = np.random.default_rng(109)
    trials = 1000
    for _ in range(trials):
        params = random_feasible(rng)
        parts = build_generator_parts(params)
        frame, pops = parts.frame, parts.pops
        weights = generator_weights(parts)

        # channel algebra on the family part of a random Hermitian matrix
        probe = family_coords(random_hermitian(rng)).real
        for out in family_operator(bath_actions(weights, probe)):
            assert abs(np.trace(out)) < 1e-12
            assert density_matrix_defects(out)[0] < 1e-12

        # the package's delocalized and localized machine channels, read in the lab
        # frame, match the reference localized pair on the family
        t2c = tilde_channel(2, frame, pops, params.p)
        t3c = tilde_channel(3, frame, pops, params.p)
        for coords, op in zip(np.eye(9), family_operators(frame).values()):
            reference = t2c.apply(op) + t3c.apply(op)
            for package_weights in (weights, localized_weights(parts)):
                acted = bath_actions(package_weights, coords)[1:].sum(axis=0)
                assert np.max(np.abs(to_lab(frame, family_operator(acted)) - reference)) < 1e-12

        # steady state: validity, residual, sign chain, dressed currents
        steady = solve_oracle(parts).analytic
        assert steady.residual < 1e-10
        eigs = np.linalg.eigvalsh(steady.rho)
        assert eigs.min() > -1e-10
        assert abs(np.trace(steady.rho) - 1.0) < 1e-12

        d = steady.decomposition.d
        closed = currents_closed(params, frame, pops, d)
        if abs(d) > 1e-13:
            cooling = d < 0.0
            assert cooling == (closed["q1g"] > 0.0)
            t1s = (local_target_temperature(steady.decomposition.a1, params.e1)
                   if steady.decomposition.a1 < 0 else math.inf)
            assert cooling == (t1s < params.t1)

        currents = heat_currents(parts, steady)
        c2, s2 = frame.cos_half_sq, frame.sin_half_sq
        assert abs(currents.q1g + currents.qt2g + currents.qt3g) < 1e-10
        assert abs(currents.q2g - (currents.qt2g * c2 + currents.qt3g * s2)) < 1e-10
        assert abs(currents.q3g - (currents.qt3g * c2 + currents.qt2g * s2)) < 1e-10

        # zero net flow against a fictitious bath at the achieved temperature
        fictitious = reset_channel(1, params.p, 0.5 * (1.0 + steady.decomposition.a1))
        flow = np.trace(lab_hamiltonians(params, frame).htot @ fictitious.apply(to_lab(frame, steady.rho))).real
        assert abs(flow) < 1e-10
    print(f"\nACCEPTANCE 9 PASS: {trials} randomized trials of the invariant chain, "
          f"zero failures")


def test_criterion_10_determinism(tmp_path):
    """Identical seeded figure invocations produce byte-identical files."""
    from neqfridge.cli import main

    d1, d2 = tmp_path / "one", tmp_path / "two"
    assert main(["figure", "fig6", "--seed", "7", "--out", str(d1)]) == 0
    assert main(["figure", "fig6", "--seed", "7", "--out", str(d2)]) == 0
    for name in ("fig6a.csv", "fig6b.csv"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()
    print("\nACCEPTANCE 10 PASS: repeated `figure fig6 --seed 7` byte-identical")
