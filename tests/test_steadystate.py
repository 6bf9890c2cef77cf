from dataclasses import replace
from itertools import product

import numpy as np
import pytest

from neqfridge import (
    ModelParams,
    analytic_steady_state,
    numeric_steady_state,
    steady_coefficients,
    validate,
    virtual_temperature,
)
from neqfridge.dissipation import reset_channel
from neqfridge.linalg import density_matrix_defects
from neqfridge.model import (
    build_hamiltonians,
    resolve_resonance,
    thermal_populations,
    tilde_operator,
    tilde_populations,
)
from neqfridge.observables import local_target_temperature
from neqfridge.steadystate import decompose, family_operators, reconstruct_state

from conftest import P0, random_feasible, random_hermitian


def loop_decompose(rho, frame):
    """Reference projection: one trace per lab-frame operator, 64 dressed Pauli strings."""
    z1 = tilde_operator(frame, "z", "ii")
    z2 = tilde_operator(frame, "i", "zi")
    z3 = tilde_operator(frame, "i", "iz")
    y = -1j * tilde_operator(frame, "+", "-+") + 1j * tilde_operator(frame, "-", "+-")
    ops = {"a1": z1, "a2": z2, "a3": z3, "b12": z1 @ z2, "b13": z1 @ z3, "b23": z2 @ z3,
           "c": z1 @ z2 @ z3, "d": y}
    coeffs = {name: 8.0 * np.trace(op.conj().T @ rho).real / np.trace(op.conj().T @ op).real
              for name, op in ops.items()}
    leftover = rho - (np.eye(8) + sum(coeffs[name] * op for name, op in ops.items())) / 8.0
    off = max(abs(np.trace(tilde_operator(frame, a, b + c).conj().T @ leftover))
              for a, b, c in product("ixyz", repeat=3))
    return coeffs, off


class TestClosedForm:
    def test_benchmark_deviation(self, p0):
        decomp = steady_coefficients(thermal_populations(p0), p0.p, p0.g)
        assert decomp.d == pytest.approx(-0.04775738017024425, abs=1e-14)

    def test_no_interaction_gives_product_coefficients(self, p0):
        pops = thermal_populations(p0)
        decomp = steady_coefficients(pops, p0.p, 0.0)
        assert decomp.d == 0.0
        assert decomp.a1 == pops.s1
        assert decomp.a2 == pops.s2
        assert decomp.a3 == pops.s3
        assert decomp.b12 == pytest.approx(pops.s1 * pops.s2, abs=1e-15)
        assert decomp.b13 == pytest.approx(pops.s1 * pops.s3, abs=1e-15)
        assert decomp.b23 == pytest.approx(pops.s2 * pops.s3, abs=1e-15)
        assert decomp.c == pytest.approx(pops.s1 * pops.s2 * pops.s3, abs=1e-15)

    def test_matched_temperatures_zero_deviation(self):
        # setting the cold bath at the virtual temperature crosses d = 0
        frame = resolve_resonance(P0)
        pops = tilde_populations(frame, P0.t2, P0.t3)
        tv = virtual_temperature(frame, pops)
        params = replace(P0, t1=tv)
        decomp = steady_coefficients(thermal_populations(params), params.p, params.g)
        assert abs(decomp.d) < 1e-14

    def test_rate_rescaling_leaves_deviation_invariant(self, p0):
        pops = thermal_populations(p0)
        d1 = steady_coefficients(pops, p0.p, p0.g).d
        for kappa in (0.1, 3.0, 40.0):
            dk = steady_coefficients(pops, kappa * p0.p, kappa * p0.g).d
            assert dk == pytest.approx(d1, rel=1e-14)


class TestOracleEquivalence:
    def test_benchmark_point(self, p0):
        report = validate(p0, tol=1e-8)
        assert report.passed
        assert report.max_delta < 1e-10
        assert report.residual_numeric < 1e-10
        assert report.off_family_max < 1e-10

    def test_random_grid(self):
        rng = np.random.default_rng(17)
        for _ in range(8):
            params = random_feasible(rng)
            report = validate(params, tol=1e-8)
            assert report.passed, (params, report.deltas)

    def test_no_interaction_grid_over_coupling(self):
        for gamma in (0.0, 0.1, 0.2, 0.3, 0.4, 0.5):
            params = ModelParams(e1=1.0, e3=4.0, gamma=gamma,
                                 t1=4 / 3, t2=2.0, t3=4.0, p=0.01, g=0.0)
            report = validate(params, tol=1e-8)
            assert report.max_delta < 1e-12

    def test_doubled_pair_sum_rejected(self, p0):
        # regression guard: counting the population-overlap sum twice
        # changes d well beyond the oracle tolerance
        pops = thermal_populations(p0)
        numeric = numeric_steady_state(p0)
        r1, rt2, rt3 = pops.r1, pops.rtilde2, pops.rtilde3
        num = 48.0 * ((1 - r1) * rt2 * (1 - rt3) - r1 * (1 - rt2) * rt3) * p0.p * p0.g
        om = (r1 * (1 - rt2) + (1 - r1) * rt2) + (rt2 * (1 - rt3) + (1 - rt2) * rt3) \
            + (r1 * rt3 + (1 - r1) * (1 - rt3))
        d_doubled = num / (9 * p0.p ** 2 + (14 + 8 * om) * p0.g ** 2)
        assert abs(d_doubled - numeric.decomposition.d) > 1e-4

    def test_doubled_triple_sum_rejected(self, p0):
        numeric = numeric_steady_state(p0)
        decomp = steady_coefficients(thermal_populations(p0), p0.p, p0.g)
        pops = thermal_populations(p0)
        k = (p0.g / p0.p) * decomp.d / 2.0
        six_term_c = (2.0 * (pops.s1 * decomp.b23 + pops.s2 * decomp.b13 + pops.s3 * decomp.b12) - k) / 3.0
        assert abs(six_term_c - numeric.decomposition.c) > 1e-3

    def test_flipped_population_exponent_rejected(self, p0):
        # the wrong Boltzmann-exponent sign for the machine populations
        # no longer matches the generator kernel
        frame = resolve_resonance(p0)
        pops = thermal_populations(p0, frame)
        flipped = replace(
            pops,
            rtilde2=frame.cos_half_sq * (1 - pops.r22) + frame.sin_half_sq * (1 - pops.r23),
            rtilde3=frame.cos_half_sq * (1 - pops.r33) + frame.sin_half_sq * (1 - pops.r32),
        )
        flipped = replace(flipped, s2=2 * flipped.rtilde2 - 1, s3=2 * flipped.rtilde3 - 1)
        wrong = steady_coefficients(flipped, p0.p, p0.g)
        numeric = numeric_steady_state(p0)
        assert abs(wrong.d - numeric.decomposition.d) > 1e-3


class TestNumericRoute:
    def test_family_closure(self):
        # the kernel state carries no weight outside the nine-operator family
        rng = np.random.default_rng(18)
        for _ in range(10):
            result = numeric_steady_state(random_feasible(rng))
            assert result.off_family_max < 1e-10
            assert result.residual < 1e-10

    def test_density_matrix_invariants(self):
        rng = np.random.default_rng(19)
        for _ in range(10):
            result = numeric_steady_state(random_feasible(rng))
            herm, trace_dev, min_eig = density_matrix_defects(result.rho)
            assert herm < 1e-12 and trace_dev < 1e-12 and min_eig > -1e-10

    def test_decompose_reconstruct_round_trip(self, p0):
        frame = resolve_resonance(p0)
        result = analytic_steady_state(p0)
        decomp, off = decompose(result.rho, frame)
        assert off < 1e-12
        rebuilt = reconstruct_state(decomp, frame)
        assert np.max(np.abs(rebuilt - result.rho)) < 1e-14

    def test_decompose_matches_loop_reference(self, p0):
        rng = np.random.default_rng(23)
        cases = [(analytic_steady_state(p0).rho, resolve_resonance(p0))]
        cases += [(random_hermitian(rng), resolve_resonance(random_feasible(rng))) for _ in range(5)]
        for rho, frame in cases:
            decomp, off = decompose(rho, frame)
            coeffs, ref_off = loop_decompose(rho, frame)
            for name, value in decomp.as_dict().items():
                assert abs(value - coeffs[name]) < 1e-12
            assert abs(off - ref_off) < 1e-12
        assert ref_off > 0.1  # a random matrix leaves the family

    def test_family_operators_are_orthogonal(self, p0):
        ops = list(family_operators(resolve_resonance(p0)).values())
        for i, a in enumerate(ops):
            for b in ops[i + 1:]:
                assert abs(np.trace(a.conj().T @ b)) < 1e-12


class TestSignChain:
    def test_deviation_sign_equivalences(self):
        # d < 0 iff Tv < T1 iff the machine cools iff the achieved target
        # temperature falls below the bath temperature
        rng = np.random.default_rng(20)
        checked = 0
        while checked < 100:
            params = random_feasible(rng)
            if params.t2 == params.t3:
                continue
            frame = resolve_resonance(params)
            pops = thermal_populations(params, frame)
            decomp = steady_coefficients(pops, params.p, params.g)
            if abs(decomp.d) < 1e-13:
                continue
            tv = virtual_temperature(frame, pops)
            q1g = -0.25 * params.g * decomp.d * params.e1
            t1s = local_target_temperature(decomp.a1, params.e1) if decomp.a1 < 0 else np.inf
            cooling = decomp.d < 0
            assert cooling == (tv < params.t1) if tv > 0 else True
            assert cooling == (q1g > 0)
            assert cooling == (t1s < params.t1)
            checked += 1

    def test_fictitious_bath_zero_flow(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            params = random_feasible(rng)
            frame = resolve_resonance(params)
            steady = analytic_steady_state(params)
            hams = build_hamiltonians(params, frame)
            a1 = steady.decomposition.a1
            fictitious = reset_channel(1, params.p, 0.5 * (1.0 + a1))
            flow = np.trace(hams.htot @ fictitious.apply(steady.rho)).real
            assert abs(flow) < 1e-10


class TestValidateReport:
    def test_passes_at_benchmark(self, p0):
        report = validate(p0, tol=1e-7)
        assert report.passed
        assert set(report.deltas) == {"a1", "a2", "a3", "b12", "b13", "b23", "c", "d"}

    def test_fails_for_impossible_tolerance(self, p0):
        report = validate(p0, tol=0.0)
        assert not report.passed
