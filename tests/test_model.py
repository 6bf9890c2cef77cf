import math
from dataclasses import replace

import mpmath
import numpy as np
import pytest

from neqfridge import (
    ModelParams,
    ParameterError,
    ResonanceInfeasibleError,
    build_hamiltonians,
    resonant_frame,
    thermal_population,
    tilde_populations,
    virtual_coherence,
    virtual_temperature,
)
from neqfridge.linalg import IDENTITY_2, SIGMA_MINUS, SIGMA_PLUS, SIGMA_Z
from neqfridge.model import _delta_e, _gate_values, _verdicts
from neqfridge.observables import product_state

from conftest import (
    cooling_condition,
    family_operator,
    fridge_tilde_operator,
    lab_hamiltonians,
    random_feasible,
    tilde_channel,
    to_lab,
    unitary,
)


class TestModelParams:
    def test_valid_point(self, p0):
        assert p0.beta1 == pytest.approx(0.75)
        assert p0.beta2 == 0.5
        assert p0.beta3 == 0.25

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"e1": -1.0},
            {"e3": 0.0},
            {"gamma": -0.1},
            {"gamma": 0.6},        # above E1/2
            {"t1": 0.0},
            {"t1": 3.0},           # breaks ordering
            {"t3": 1.0},           # breaks ordering
            {"p": 0.0},
            {"g": -0.01},
        ],
    )
    def test_invalid_points_raise(self, kwargs):
        base = dict(e1=1.0, e3=4.0, gamma=0.3, t1=4 / 3, t2=2.0, t3=4.0, p=0.01, g=0.01)
        base.update(kwargs)
        with pytest.raises(ParameterError):
            ModelParams(**base)

    def test_dressed_gap_rule_is_named(self):
        with pytest.raises(ParameterError, match=r"eps3=-0\.39999\d* at E1=4\.8, E3=2, gamma=2\.4"):
            ModelParams(e1=4.8, e3=2, gamma=2.4, t1=1.0, t2=2.0, t3=4.0, p=0.01, g=0.01)
        # eps3 grows with E1: the same machine at a larger target gap is valid
        assert ModelParams(e1=6.0, e3=2, gamma=2.4, t1=1.0, t2=2.0, t3=4.0, p=0.01, g=0.01)

    def test_batch_reports_its_first_broken_element(self):
        e1 = np.array([1.0, 0.4, 1.0, 0.5])
        with pytest.raises(ResonanceInfeasibleError,
                           match=r"^resonance infeasible: gamma > E1/2 \(gamma=0\.3, E1=0\.4\)$"):
            ModelParams(e1=e1, e3=4.0, gamma=0.3, t1=4 / 3, t2=2.0, t3=4.0, p=0.01, g=0.01)
        batch = ModelParams(e1=e1[[0, 2]], e3=4.0, gamma=0.3, t1=4 / 3, t2=2.0,
                            t3=np.array([4.0, 5.0]), p=0.01, g=0.01)
        with pytest.raises(ParameterError, match="requires T1 <= T2 <= T3, got \\(1\\.3+, 2\\.0, 1\\.5\\)"):
            replace(batch, t3=np.array([4.0, 1.5]))

    def test_scalar_equality_and_hash(self, p0):
        same = ModelParams(**p0.as_dict())
        assert same == p0 and hash(same) == hash(p0)
        assert replace(p0, g=0.02) != p0
        assert len({p0, same, replace(p0, g=0.02)}) == 2


class TestResonantFrame:
    def test_no_coupling(self):
        frame = resonant_frame(1.0, 4.0, 0.0)
        assert frame.delta_e == pytest.approx(1.0)
        assert frame.e2 == pytest.approx(5.0)
        assert frame.lam == 0.5
        assert frame.theta == 0.0
        assert np.array_equal(unitary(frame), np.eye(4))
        assert frame.eps2 == pytest.approx(5.0)
        assert frame.eps3 == pytest.approx(4.0)

    def test_maximal_coupling_boundary(self):
        frame = resonant_frame(1.0, 4.0, 0.5)
        assert frame.delta_e == 0.0
        assert frame.theta == pytest.approx(math.pi / 2)

    def test_benchmark_coupling(self):
        frame = resonant_frame(1.0, 4.0, 0.3)
        assert frame.delta_e == pytest.approx(0.8, abs=1e-15)
        assert frame.e2 == pytest.approx(4.8, abs=1e-15)
        assert frame.lam == 0.5
        assert frame.theta == pytest.approx(math.atan(0.75), abs=1e-15)
        assert frame.eps2 == pytest.approx(4.9, abs=1e-14)
        assert frame.eps3 == pytest.approx(3.9, abs=1e-14)

    def test_infeasible(self):
        with pytest.raises(ResonanceInfeasibleError):
            resonant_frame(1.0, 4.0, 0.51)

    def test_infinite_engine_gap_raises(self):
        with pytest.raises(ParameterError, match="dressed engine gap overflows: eps3=inf"):
            resonant_frame(1.0, np.inf, 0.3)

    @pytest.mark.parametrize("gamma", [0.3, 1.7])
    @pytest.mark.parametrize("delta", [1e-14, 1e-12, 1e-9])
    def test_gap_is_exact_near_maximal_mixing(self, gamma, delta):
        # E1 = 2 gamma (1 + delta): E1^2 - 4 gamma^2 would cancel to a few bits
        e1 = 2.0 * gamma * (1.0 + delta)
        delta_e = _delta_e(e1, gamma)
        with mpmath.workdps(50):
            exact = mpmath.sqrt(mpmath.mpf(e1) ** 2 - 4 * mpmath.mpf(gamma) ** 2)
            error = float(abs(delta_e - exact) / exact)
        assert _verdicts(_gate_values(dict(e1=e1, e3=4.0, gamma=gamma))) == 0
        assert error <= 4 * np.finfo(float).eps

    def test_unitary_against_operator_formula(self):
        # cos^2(t/4) + sin^2(t/4) ZZ + sin(t/2)(s2+ s3- - s2- s3+)
        rng = np.random.default_rng(7)
        for _ in range(10):
            e1 = rng.uniform(0.5, 2.0)
            gamma = rng.uniform(0.0, 0.5) * e1
            frame = resonant_frame(e1, rng.uniform(2.0, 8.0), gamma)
            t = frame.theta
            formula = (
                math.cos(t / 4) ** 2 * np.eye(4)
                + math.sin(t / 4) ** 2 * np.kron(SIGMA_Z, SIGMA_Z)
                + math.sin(t / 2) * (np.kron(SIGMA_PLUS, SIGMA_MINUS) - np.kron(SIGMA_MINUS, SIGMA_PLUS))
            )
            assert np.max(np.abs(unitary(frame) - formula)) < 1e-14

    def test_frame_invariants(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            params = random_feasible(rng)
            frame = resonant_frame(params.e1, params.e3, params.gamma)
            u = unitary(frame)
            assert np.max(np.abs(u.conj().T @ u - np.eye(4))) < 1e-12
            # dressed diagonal transforms back to the machine Hamiltonian
            diag = 0.5 * frame.eps2 * np.kron(SIGMA_Z, IDENTITY_2) + 0.5 * frame.eps3 * np.kron(IDENTITY_2, SIGMA_Z)
            hfridge = (
                0.5 * frame.e2 * np.kron(SIGMA_Z, IDENTITY_2)
                + 0.5 * params.e3 * np.kron(IDENTITY_2, SIGMA_Z)
                + params.gamma * (np.kron(SIGMA_PLUS, SIGMA_MINUS) + np.kron(SIGMA_MINUS, SIGMA_PLUS))
            )
            assert np.max(np.abs(u.conj().T @ diag @ u - hfridge)) < 1e-12
            # resonance and consistency of lambda with the gap formula
            assert abs(frame.eps2 - frame.eps3 - params.e1) < 1e-12
            assert abs(frame.lam - math.hypot(0.5 * frame.delta_e, params.gamma)) < 1e-12
            # machine eigenvalues, each doubled by the target tensor factor
            eigs = np.sort(np.linalg.eigvalsh(hfridge))
            expected = np.sort([frame.ebar, frame.lam, -frame.lam, -frame.ebar])
            assert np.max(np.abs(eigs - expected)) < 1e-12


class TestThermalPopulation:
    def test_infinite_temperature_limit(self):
        assert thermal_population(1.0, 1e12) == pytest.approx(0.5, abs=1e-12)

    def test_zero_temperature_limit(self):
        assert thermal_population(1.0, 1e-12) == 0.0

    def test_reference_value(self):
        assert thermal_population(1.0, 2.0) == pytest.approx(0.3775406687981454, abs=1e-15)

    def test_monotone_in_temperature(self):
        values = [thermal_population(1.0, t) for t in (0.5, 1.0, 2.0, 5.0, 50.0)]
        assert values == sorted(values)
        assert all(0.0 < v < 0.5 for v in values)

    def test_negative_gap_gives_the_inverted_population(self):
        # the law is total; a negative gap only arises outside a ModelParams
        assert thermal_population(-1.0, 2.0) == pytest.approx(1.0 - thermal_population(1.0, 2.0),
                                                               abs=1e-15)


class TestTildePopulations:
    def test_degenerate_baths(self):
        frame = resonant_frame(1.0, 4.0, 0.3)
        pops = tilde_populations(frame, 2.0, 2.0, t1=2.0)
        assert pops.rtilde2 == pytest.approx(thermal_population(frame.eps2, 2.0), abs=1e-15)
        assert pops.rtilde3 == pytest.approx(thermal_population(frame.eps3, 2.0), abs=1e-15)
        assert pops.ttilde2 == pytest.approx(2.0, abs=1e-12)
        assert pops.ttilde3 == pytest.approx(2.0, abs=1e-12)

    def test_no_delocalization(self):
        frame = resonant_frame(1.0, 4.0, 0.0)
        pops = tilde_populations(frame, 2.0, 4.0, t1=2.0)
        assert pops.rtilde2 == pops.r22
        assert pops.rtilde3 == pops.r33
        assert pops.ttilde2 == pytest.approx(2.0, abs=1e-12)
        assert pops.ttilde3 == pytest.approx(4.0, abs=1e-12)

    def test_benchmark_values(self):
        frame = resonant_frame(1.0, 4.0, 0.3)
        pops = tilde_populations(frame, 2.0, 4.0, t1=2.0)
        assert pops.rtilde2 == pytest.approx(0.09420046832590666, abs=1e-12)
        assert pops.rtilde3 == pytest.approx(0.25895185268404036, abs=1e-12)
        assert pops.ttilde2 == pytest.approx(2.1648915151351646, abs=1e-10)
        assert pops.ttilde3 == pytest.approx(3.709257191331811, abs=1e-10)

    def test_mixing_formula(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            params = random_feasible(rng)
            frame = resonant_frame(params.e1, params.e3, params.gamma)
            pops = tilde_populations(frame, params.t2, params.t3, t1=params.t1)
            c2, s2 = frame.cos_half_sq, frame.sin_half_sq
            assert pops.rtilde2 == pytest.approx(c2 * pops.r22 + s2 * pops.r23, abs=1e-15)
            assert pops.rtilde3 == pytest.approx(c2 * pops.r33 + s2 * pops.r32, abs=1e-15)
            for r in (pops.r22, pops.r23, pops.r32, pops.r33, pops.rtilde2, pops.rtilde3):
                assert 0.0 < r < 0.5
            assert pops.ttilde2 > 0 and pops.ttilde3 > 0

    def test_cross_check_against_channel_fixed_point(self):
        # the dressed channels annihilate the product state built from the
        # claimed mixed populations
        frame = resonant_frame(1.0, 4.0, 0.3)
        pops = tilde_populations(frame, 2.0, 4.0, t1=4 / 3)
        rho0 = to_lab(frame, family_operator(product_state(pops)))
        for nu in (2, 3):
            out = tilde_channel(nu, frame, pops, 0.01).apply(rho0)
            assert np.max(np.abs(out)) < 1e-15

    @pytest.mark.parametrize("t2, t3, t1", [(-2.0, 4.0, None), (2.0, 0.0, None), (2.0, 4.0, 0.0),
                                            (2.0, np.array([4.0, -1.0]), 1.0)])
    def test_nonpositive_temperature_raises(self, t2, t3, t1):
        # the populations take checked temperatures: ModelParams is where they are checked
        with pytest.raises(ParameterError, match="temperatures must be positive"):
            ModelParams(e1=1.0, e3=4.0, gamma=0.3, t1=1.0 if t1 is None else t1, t2=t2, t3=t3,
                        p=0.01, g=0.01)


class TestVirtualQubit:
    def test_degenerate_baths_give_bath_temperature(self):
        frame = resonant_frame(1.0, 4.0, 0.3)
        pops = tilde_populations(frame, 2.0, 2.0, t1=2.0)
        assert virtual_temperature(frame, pops) == pytest.approx(2.0, abs=1e-12)

    def test_uncoupled_formula(self):
        frame = resonant_frame(1.0, 4.0, 0.0)
        pops = tilde_populations(frame, 2.0, 4.0, t1=2.0)
        expected = 1.0 / (5.0 / 2.0 - 4.0 / 4.0)
        assert virtual_temperature(frame, pops) == pytest.approx(expected, abs=1e-12)

    def test_benchmark_value(self):
        frame = resonant_frame(1.0, 4.0, 0.3)
        pops = tilde_populations(frame, 2.0, 4.0, t1=2.0)
        assert virtual_temperature(frame, pops) == pytest.approx(0.8251033339169167, abs=1e-12)

    def test_pole_reported(self):
        from dataclasses import replace

        frame = resonant_frame(1.0, 4.0, 0.3)
        pops = tilde_populations(frame, 2.0, 4.0, t1=2.0)
        broken = replace(pops, virtual_log_odds=0.0)
        assert math.isnan(virtual_temperature(frame, broken))
        batch = replace(pops, virtual_log_odds=np.array([0.0, pops.virtual_log_odds]))
        tv = virtual_temperature(frame, batch)
        assert math.isnan(tv[0]) and tv[1] == virtual_temperature(frame, pops)

    def test_coherence_vanishes_without_coupling(self):
        frame = resonant_frame(1.0, 4.0, 0.0)
        pops = tilde_populations(frame, 2.0, 4.0, t1=2.0)
        assert virtual_coherence(frame, pops) == 0.0

    def test_coherence_vanishes_for_equal_populations(self):
        from dataclasses import replace

        frame = resonant_frame(1.0, 4.0, 0.3)
        pops = tilde_populations(frame, 2.0, 4.0, t1=2.0)
        equal = replace(pops, virtual_log_odds=0.0)
        assert virtual_coherence(frame, equal) == 0.0

    def test_coherence_benchmark_value(self):
        frame = resonant_frame(1.0, 4.0, 0.3)
        pops = tilde_populations(frame, 2.0, 4.0, t1=2.0)
        assert virtual_coherence(frame, pops) == pytest.approx(0.324776673327092, abs=1e-12)

    def test_coherence_decreases_with_virtual_temperature(self):
        # sweep the engine bath at a fixed frame and compare orderings
        frame = resonant_frame(1.0, 4.0, 0.3)
        points = []
        for t3 in np.linspace(2.0, 30.0, 40):
            pops = tilde_populations(frame, 2.0, t3, t1=2.0)
            points.append((virtual_temperature(frame, pops), virtual_coherence(frame, pops)))
        points.sort()
        coherences = [c for _, c in points]
        assert all(c_lo >= c_hi - 1e-15 for c_lo, c_hi in zip(coherences, coherences[1:]))

    def test_virtual_temperature_slope_sign(self):
        # the derivative of Tv in T3 at T3 = T2 follows the cooling condition
        for gamma in (0.1, 0.3, 0.45, 0.49, 0.4962, 0.499):
            frame = resonant_frame(1.0, 4.0, gamma)
            h = 1e-6

            def tv(t3):
                return virtual_temperature(frame, tilde_populations(frame, 2.0, t3, t1=2.0))

            slope = (tv(2.0 + h) - tv(2.0 - h)) / (2 * h)
            condition = cooling_condition(1.0, 4.0, gamma)
            assert (slope < 0) == condition
            assert (2.0 * gamma**2 < 4.0 * frame.delta_e) == condition


class TestHamiltonians:
    def test_hermitian_and_commuting(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            params = random_feasible(rng)
            frame = resonant_frame(params.e1, params.e3, params.gamma)
            hams = build_hamiltonians(params, frame)
            for h in (hams.h1, hams.hfridge, hams.hg, hams.htot):
                assert np.max(np.abs(h - h.conj().T)) < 1e-12
            free = hams.h1 + hams.hfridge
            comm = free @ hams.hg - hams.hg @ free
            assert np.max(np.abs(comm)) < 1e-12

    def test_uncoupled_machine_is_diagonal(self):
        # the dressed machine Hamiltonian is diagonal, and without coupling
        # it is the lab-frame one
        params = ModelParams(e1=1.0, e3=4.0, gamma=0.0, t1=4 / 3, t2=2.0, t3=4.0, p=0.01, g=0.01)
        frame = resonant_frame(params.e1, params.e3, params.gamma)
        hams = build_hamiltonians(params, frame)
        assert np.max(np.abs(hams.hfridge - np.diag(np.diag(hams.hfridge)))) == 0.0
        assert np.max(np.abs(hams.hfridge - lab_hamiltonians(params, frame).hfridge)) == 0.0

    def test_dressed_hamiltonians_are_the_lab_ones_rotated(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            params = random_feasible(rng)
            frame = resonant_frame(params.e1, params.e3, params.gamma)
            dressed, lab = build_hamiltonians(params, frame), lab_hamiltonians(params, frame)
            for name in ("h1", "hfridge", "hg", "htot"):
                assert np.max(np.abs(to_lab(frame, getattr(dressed, name)) - getattr(lab, name))) < 1e-12

    def test_no_tripartite_coupling(self):
        params = ModelParams(e1=1.0, e3=4.0, gamma=0.3, t1=4 / 3, t2=2.0, t3=4.0, p=0.01, g=0.0)
        hams = build_hamiltonians(params, resonant_frame(params.e1, params.e3, params.gamma))
        assert np.max(np.abs(hams.hg)) == 0.0

    def test_interaction_matrix_elements(self, p0):
        # direct assembly from the eigenvector columns as the oracle
        frame = resonant_frame(p0.e1, p0.e3, p0.gamma)
        hams = lab_hamiltonians(p0, frame)
        eigvecs = unitary(frame).conj().T
        psi01 = eigvecs[:, 1]
        psi10 = eigvecs[:, 2]
        zero = np.array([1.0, 0.0])
        one = np.array([0.0, 1.0])
        # raising the target lowers the virtual qubit: |1, psi01> -> |0, psi10>
        bra = np.kron(zero, psi10)
        ket = np.kron(one, psi01)
        assert bra.conj() @ hams.hg @ ket == pytest.approx(p0.g, abs=1e-14)
        # dressed ladder form: sigma_v^+ equals the dressed exchange operator
        sig_v_plus = np.outer(psi01, psi10.conj())
        assert np.max(np.abs(sig_v_plus - fridge_tilde_operator(frame, "+-"))) < 1e-14

    def test_degenerate_bath_collapse_to_gibbs(self):
        # T2 = T3 makes the dressed product the Gibbs state of the machine
        params = ModelParams(e1=1.0, e3=4.0, gamma=0.35, t1=2.0, t2=2.0, t3=2.0, p=0.01, g=0.01)
        frame = resonant_frame(params.e1, params.e3, params.gamma)
        pops = tilde_populations(frame, 2.0, 2.0, t1=2.0)
        hams = build_hamiltonians(params, frame)
        hfridge4 = hams.hfridge.reshape(2, 4, 2, 4)[0, :, 0, :]
        evals, evecs = np.linalg.eigh(hfridge4)
        weights = np.exp(-evals / 2.0)
        gibbs = (evecs * (weights / weights.sum())) @ evecs.conj().T
        fridge_part = family_operator(product_state(pops)).reshape(2, 4, 2, 4)[0, :, 0, :] / pops.r1
        assert np.max(np.abs(fridge_part - gibbs)) < 1e-12
