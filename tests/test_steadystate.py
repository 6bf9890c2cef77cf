from dataclasses import replace

import numpy as np
import pytest

from neqfridge import (
    ModelParams,
    assemble_liouvillian,
    numeric_steady_state,
    solve_oracle,
    steady_coefficients,
    validate,
    virtual_temperature,
)
from neqfridge.dissipation import build_generator_parts
from neqfridge.linalg import density_matrix_defects
from neqfridge.model import resonant_frame, tilde_populations
from neqfridge.observables import local_target_temperature
from neqfridge.steadystate import decompose, reconstruct_state

from conftest import (
    P0,
    benchmark_workloads,
    dressed,
    family_coords,
    family_operator,
    family_operators,
    full_generator,
    grid_box_points,
    kron_generator,
    lab_hamiltonians,
    lab_parts,
    pauli_null_space,
    random_feasible,
    random_hermitian,
    reset_channel,
    sector_steady_state,
    tilde_operator,
    to_lab,
    weak_dissipation_points,
)


def loop_decompose(rho, frame):
    """Reference projection: one trace per lab-frame family operator."""
    z1 = tilde_operator(frame, "z", "ii")
    z2 = tilde_operator(frame, "i", "zi")
    z3 = tilde_operator(frame, "i", "iz")
    y = -1j * tilde_operator(frame, "+", "-+") + 1j * tilde_operator(frame, "-", "+-")
    ops = {"a1": z1, "a2": z2, "a3": z3, "b12": z1 @ z2, "b13": z1 @ z3, "b23": z2 @ z3,
           "c": z1 @ z2 @ z3, "d": y}
    return {name: 8.0 * np.trace(op.conj().T @ rho).real / np.trace(op.conj().T @ op).real
            for name, op in ops.items()}


class TestClosedForm:
    def test_benchmark_deviation(self, p0):
        frame = resonant_frame(p0.e1, p0.e3, p0.gamma)
        decomp = steady_coefficients(tilde_populations(frame, p0.t2, p0.t3, t1=p0.t1), p0.p, p0.g)
        assert decomp.d == pytest.approx(-0.04775738017024425, abs=1e-14)

    def test_no_interaction_gives_product_coefficients(self, p0):
        pops = tilde_populations(resonant_frame(p0.e1, p0.e3, p0.gamma), p0.t2, p0.t3, t1=p0.t1)
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
        frame = resonant_frame(P0.e1, P0.e3, P0.gamma)
        pops = tilde_populations(frame, P0.t2, P0.t3, t1=P0.t1)
        tv = virtual_temperature(frame, pops)
        params = replace(P0, t1=tv)
        decomp = steady_coefficients(tilde_populations(frame, params.t2, params.t3, t1=params.t1),
                                     params.p, params.g)
        assert abs(decomp.d) < 1e-14

    def test_rate_rescaling_leaves_deviation_invariant(self, p0):
        pops = tilde_populations(resonant_frame(p0.e1, p0.e3, p0.gamma), p0.t2, p0.t3, t1=p0.t1)
        d1 = steady_coefficients(pops, p0.p, p0.g).d
        for kappa in (0.1, 3.0, 40.0):
            dk = steady_coefficients(pops, kappa * p0.p, kappa * p0.g).d
            assert dk == pytest.approx(d1, rel=1e-14)


class TestOracleEquivalence:
    def test_benchmark_point(self, p0):
        report = validate(p0, tol=1e-8)
        assert report.passed
        oracle = report.oracle
        assert oracle.max_delta < 1e-10
        assert oracle.numeric.residual < 1e-10

    def test_residual_is_the_plain_norm_bit_for_bit(self):
        # the residual's vector is scaled by a power of two before its norm is taken,
        # which changes no bit unless an entry underflows
        rng = np.random.default_rng(4)
        for params in [P0, *(random_feasible(rng) for _ in range(10))]:
            block = assemble_liouvillian(build_generator_parts(params))
            result = numeric_steady_state(block)
            assert result.residual == float(np.linalg.norm(block @ result.coords))

    def test_random_grid(self):
        rng = np.random.default_rng(17)
        for _ in range(8):
            params = random_feasible(rng)
            report = validate(params, tol=1e-8)
            assert report.passed, (params, report.oracle.deltas)

    def test_no_interaction_grid_over_coupling(self):
        for gamma in (0.0, 0.1, 0.2, 0.3, 0.4, 0.5):
            params = ModelParams(e1=1.0, e3=4.0, gamma=gamma,
                                 t1=4 / 3, t2=2.0, t3=4.0, p=0.01, g=0.0)
            report = validate(params, tol=1e-8)
            assert report.oracle.max_delta < 1e-12

    def test_doubled_pair_sum_rejected(self, p0):
        # regression guard: counting the population-overlap sum twice
        # changes d well beyond the oracle tolerance
        pops = tilde_populations(resonant_frame(p0.e1, p0.e3, p0.gamma), p0.t2, p0.t3, t1=p0.t1)
        numeric = numeric_steady_state(assemble_liouvillian(build_generator_parts(p0)))
        r1, rt2, rt3 = pops.r1, pops.rtilde2, pops.rtilde3
        num = 48.0 * ((1 - r1) * rt2 * (1 - rt3) - r1 * (1 - rt2) * rt3) * p0.p * p0.g
        om = (r1 * (1 - rt2) + (1 - r1) * rt2) + (rt2 * (1 - rt3) + (1 - rt2) * rt3) \
            + (r1 * rt3 + (1 - r1) * (1 - rt3))
        d_doubled = num / (9 * p0.p ** 2 + (14 + 8 * om) * p0.g ** 2)
        assert abs(d_doubled - numeric.decomposition.d) > 1e-4

    def test_doubled_triple_sum_rejected(self, p0):
        numeric = numeric_steady_state(assemble_liouvillian(build_generator_parts(p0)))
        pops = tilde_populations(resonant_frame(p0.e1, p0.e3, p0.gamma), p0.t2, p0.t3, t1=p0.t1)
        decomp = steady_coefficients(pops, p0.p, p0.g)
        k = (p0.g / p0.p) * decomp.d / 2.0
        six_term_c = (2.0 * (pops.s1 * decomp.b23 + pops.s2 * decomp.b13 + pops.s3 * decomp.b12) - k) / 3.0
        assert abs(six_term_c - numeric.decomposition.c) > 1e-3

    def test_flipped_population_exponent_rejected(self, p0):
        # the wrong Boltzmann-exponent sign for the machine populations
        # no longer matches the generator kernel
        frame = resonant_frame(p0.e1, p0.e3, p0.gamma)
        pops = tilde_populations(frame, p0.t2, p0.t3, t1=p0.t1)
        flipped = replace(
            pops,
            rtilde2=frame.cos_half_sq * (1 - pops.r22) + frame.sin_half_sq * (1 - pops.r23),
            rtilde3=frame.cos_half_sq * (1 - pops.r33) + frame.sin_half_sq * (1 - pops.r32),
        )
        wrong = steady_coefficients(flipped, p0.p, p0.g)
        numeric = numeric_steady_state(assemble_liouvillian(build_generator_parts(p0)))
        assert abs(wrong.d - numeric.decomposition.d) > 1e-3


class TestNumericRoute:
    def test_charge_0_kernel_lies_in_the_family(self):
        # the kernel of the whole 24x24 charge-0 reference block, free Hamiltonian
        # included, carries no weight outside the nine-operator family
        rng = np.random.default_rng(18)
        for _ in range(10):
            parts = build_generator_parts(random_feasible(rng))
            rho = sector_steady_state(parts.weights)
            assert np.max(np.abs(rho - family_operator(family_coords(rho).real))) < 1e-12
            assert numeric_steady_state(assemble_liouvillian(parts)).residual < 1e-10

    def test_density_matrix_invariants(self):
        rng = np.random.default_rng(19)
        for _ in range(10):
            result = numeric_steady_state(assemble_liouvillian(build_generator_parts(random_feasible(rng))))
            herm, trace_dev, min_eig = density_matrix_defects(result.rho)
            assert herm < 1e-12 and trace_dev < 1e-12 and min_eig > -1e-10

    def test_decompose_reconstruct_round_trip(self, p0):
        result = solve_oracle(build_generator_parts(p0)).numeric
        decomp = decompose(result.coords)
        assert decomp == result.decomposition
        rebuilt = reconstruct_state(decomp)
        assert np.max(np.abs(rebuilt - result.coords)) < 1e-15
        assert np.max(np.abs(family_operator(rebuilt) - result.rho)) < 1e-15

    def test_solve_builds_no_density_matrix(self, p0):
        # a state is its family coordinates; rho is contracted only when read
        oracle = solve_oracle(build_generator_parts(p0))
        for steady in (oracle.analytic, oracle.numeric):
            assert steady.coords.shape == (9,) and "rho" not in vars(steady)
            assert np.array_equal(steady.rho, family_operator(steady.coords))

    def test_decompose_matches_loop_reference(self, p0):
        # the package reads a dressed-frame state's family coordinates, the reference
        # the lab-frame form of the unit-trace operator they are read from
        rng = np.random.default_rng(23)
        frame0 = resonant_frame(p0.e1, p0.e3, p0.gamma)
        cases = [(solve_oracle(build_generator_parts(p0)).analytic.rho, frame0)]
        for _ in range(5):
            params = random_feasible(rng)
            rho = random_hermitian(rng)
            cases.append((rho / np.trace(rho), resonant_frame(params.e1, params.e3, params.gamma)))
        for rho, frame in cases:
            decomp = decompose(family_coords(rho).real)
            coeffs = loop_decompose(to_lab(frame, rho), frame)
            for name, value in decomp.as_dict().items():
                assert abs(value - coeffs[name]) < 1e-12

    def test_family_operators_are_orthogonal(self, p0):
        ops = list(family_operators(resonant_frame(p0.e1, p0.e3, p0.gamma)).values())
        for i, a in enumerate(ops):
            for b in ops[i + 1:]:
                assert abs(np.trace(a.conj().T @ b)) < 1e-12


def max_coefficient_delta(params: ModelParams, rho: np.ndarray) -> float:
    """The largest delta between the package's numeric coefficients at ``params`` and a reference state's."""
    got = solve_oracle(build_generator_parts(params)).numeric.decomposition.as_dict()
    want = decompose(family_coords(rho).real).as_dict()
    return max(abs(got[name] - want[name]) for name in want)


class TestChargeGradedSolve:
    # the family block's kernel against the kernels of the 24x24 charge-0 block and of the
    # whole kron-built 64x64 generator, both free Hamiltonian included, in the sum of the
    # routes' rounding units: eps (p + g) / p for the family block (scale p + g, kernel gap
    # of order p), and eps eps2 / (p + g) for the charge-0 block and eps eps2 / p for the
    # 64x64 one, whose scale is eps2.  The deltas measured reached 1.2 and 0.6 of these units
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_the_full_pauli_basis_solve(self, seed):
        workloads = benchmark_workloads()
        for point in workloads.oracle_points(seed, workloads.ORACLE_POINTS):
            parts = build_generator_parts(ModelParams(**point))
            generator = dressed(kron_generator(lab_parts(parts)), parts.frame)
            assert max_coefficient_delta(parts.params, pauli_null_space(generator)) <= 1e-12, point

    @pytest.mark.parametrize("points", [grid_box_points(37, 40), weak_dissipation_points(38, 60)],
                             ids=["grid", "weak"])
    def test_matches_the_charge_0_block_solve(self, points):
        eps = np.finfo(float).eps
        for params in points:
            parts = build_generator_parts(params)
            rate = params.p + params.g
            unit = eps * (rate / params.p + parts.frame.eps2 / rate)
            assert max_coefficient_delta(params, sector_steady_state(parts.weights)) <= 16 * unit, params

    @pytest.mark.parametrize("points", [grid_box_points(39, 10), weak_dissipation_points(40, 20, lowest=1e-6)],
                             ids=["grid", "weak"])
    def test_matches_the_kron_generator_solve(self, points):
        # p from 1e-6: below it the 64x64 block's kernel gap falls under the reference's own rule
        eps = np.finfo(float).eps
        for params in points:
            parts = build_generator_parts(params)
            unit = eps * (params.p + params.g + parts.frame.eps2) / params.p
            assert max_coefficient_delta(params, pauli_null_space(full_generator(parts.weights))) <= 16 * unit, params


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
            frame = resonant_frame(params.e1, params.e3, params.gamma)
            pops = tilde_populations(frame, params.t2, params.t3, t1=params.t1)
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
            frame = resonant_frame(params.e1, params.e3, params.gamma)
            steady = solve_oracle(build_generator_parts(params)).analytic
            hams = lab_hamiltonians(params, frame)
            a1 = steady.decomposition.a1
            fictitious = reset_channel(1, params.p, 0.5 * (1.0 + a1))
            flow = np.trace(hams.htot @ fictitious.apply(to_lab(frame, steady.rho))).real
            assert abs(flow) < 1e-10


class TestValidateReport:
    def test_passes_at_benchmark(self, p0):
        report = validate(p0, tol=1e-7)
        assert report.passed
        assert set(report.oracle.deltas) == {"a1", "a2", "a3", "b12", "b13", "b23", "c", "d"}

    def test_tolerance_below_the_rounding_floor_is_the_floor(self, p0):
        # tol = 0 cannot be met by rounding: the deltas are compared with the floor
        # 64 eps (p + g) / p, 2.8e-14 here, instead
        report = validate(p0, tol=0.0)
        assert 0.0 < report.oracle.max_delta <= 2.8e-14
        assert report.groups["oracle_equivalence"]["passed"] is True
