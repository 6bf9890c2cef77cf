import math
from dataclasses import replace

import numpy as np
import pytest

from neqfridge import (
    ModelParams,
    ParameterError,
    assemble_liouvillian,
    jump_operator_set,
    reset_channel,
    tilde_channel,
)
from neqfridge.dissipation import LindbladChannel, build_generator_parts
from neqfridge.linalg import hermiticity_defect, vec
from neqfridge.model import (
    build_hamiltonians,
    resolve_resonance,
    resonant_frame,
    thermal_populations,
)
from neqfridge.observables import product_state
from neqfridge.steadystate import family_operators

from conftest import (
    P0,
    kron_commutator_superop,
    kron_dissipator_superop,
    loop_apply,
    random_feasible,
    random_hermitian,
    tilde_operator,
)


def grid_box_points(seed: int, count: int) -> list[ModelParams]:
    """P0 and seeded draws from the box of `validate --grid`, with g = 0 and gamma = E1/2 among them."""
    rng = np.random.default_rng(seed)
    points = [P0]
    for _ in range(count):
        e1 = rng.uniform(0.5, 2.0)
        t1 = rng.uniform(0.5, 2.0)
        t2 = t1 + rng.uniform(0.0, 2.0)
        points.append(ModelParams(
            e1=e1, e3=rng.uniform(2.0, 8.0), gamma=rng.uniform(0.0, 0.49) * e1,
            t1=t1, t2=t2, t3=t2 + rng.uniform(0.0, 4.0),
            p=rng.uniform(0.002, 0.03), g=rng.uniform(0.002, 0.03),
        ))
    points[1] = replace(points[1], g=0.0)
    points[2] = replace(points[2], gamma=0.5 * points[2].e1)
    return points


class TestResetChannel:
    def test_fixed_point_annihilated(self):
        channel = reset_channel(1, rate=0.01, population=0.3, n_qubits=1)
        tau = np.diag([0.3, 0.7]).astype(complex)
        assert np.max(np.abs(channel.apply(tau))) < 1e-18

    def test_coherence_decays_at_half_rate(self):
        channel = reset_channel(1, rate=0.01, population=0.3, n_qubits=1)
        coherence = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        assert np.max(np.abs(channel.apply(coherence) + 0.005 * coherence)) < 1e-18

    def test_population_transfer_rate(self):
        channel = reset_channel(1, rate=0.01, population=0.25, n_qubits=1)
        ground = np.diag([0.0, 1.0]).astype(complex)
        out = channel.apply(ground)
        assert out[0, 0] == pytest.approx(0.01 * 0.25, abs=1e-18)
        assert out[1, 1] == pytest.approx(-0.01 * 0.25, abs=1e-18)

    def test_trace_free_and_hermiticity_preserving(self):
        rng = np.random.default_rng(11)
        channel = reset_channel(2, rate=0.02, population=0.4)
        for _ in range(50):
            rho = random_hermitian(rng)
            out = channel.apply(rho)
            assert abs(np.trace(out)) < 1e-12
            assert hermiticity_defect(out) < 1e-12
            general = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
            assert np.max(np.abs(
                channel.apply(general).conj().T - channel.apply(general.conj().T)
            )) < 1e-12

    def test_invalid_inputs(self):
        with pytest.raises(ParameterError):
            reset_channel(1, rate=0.01, population=1.2)
        with pytest.raises(ParameterError):
            reset_channel(1, rate=0.0, population=0.3)


class TestJumpOperators:
    def test_decoupled_frame(self):
        from neqfridge.linalg import SIGMA_PLUS, embed

        ops = jump_operator_set(resonant_frame(1.0, 4.0, 0.0))
        by_label = {(p.nu, p.mu): p for p in ops.pairs}
        assert np.max(np.abs(by_label[(3, 2)].plus)) == 0.0
        assert np.max(np.abs(by_label[(2, 3)].plus)) == 0.0
        assert np.array_equal(by_label[(2, 2)].plus, embed(SIGMA_PLUS, 2))
        assert np.array_equal(by_label[(3, 3)].plus, embed(SIGMA_PLUS, 3))

    def test_maximal_mixing_prefactors(self):
        ops = jump_operator_set(resonant_frame(1.0, 4.0, 0.5))
        for pair in ops.pairs:
            assert abs(pair.prefactor) == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-15)

    def test_benchmark_half_angles(self):
        ops = jump_operator_set(resonant_frame(1.0, 4.0, 0.3))
        by_label = {(p.nu, p.mu): p for p in ops.pairs}
        assert by_label[(2, 2)].prefactor == pytest.approx(math.sqrt(0.9), abs=1e-15)
        assert by_label[(3, 2)].prefactor == pytest.approx(math.sqrt(0.1), abs=1e-15)
        assert by_label[(2, 3)].prefactor == pytest.approx(-math.sqrt(0.1), abs=1e-15)

    def test_adjoint_pairs_and_completeness(self):
        rng = np.random.default_rng(12)
        for _ in range(5):
            params = random_feasible(rng)
            frame = resolve_resonance(params)
            ops = jump_operator_set(frame)
            for pair in ops.pairs:
                assert np.max(np.abs(pair.minus - pair.plus.conj().T)) < 1e-12
            for mu in (2, 3):
                total = sum(p.prefactor ** 2 for p in ops.for_bath(mu))
                assert total == pytest.approx(1.0, abs=1e-12)

    def test_eigenoperator_frequencies(self):
        rng = np.random.default_rng(13)
        for _ in range(5):
            params = random_feasible(rng)
            frame = resolve_resonance(params)
            hams = build_hamiltonians(params, frame)
            for pair in jump_operator_set(frame).pairs:
                if np.max(np.abs(pair.plus)) == 0.0:
                    continue
                comm = hams.hfridge @ pair.plus - pair.plus @ hams.hfridge
                assert np.max(np.abs(comm - pair.frequency * pair.plus)) < 1e-12

    def test_sign_of_cross_jump_is_observably_irrelevant(self, p0):
        frame = resolve_resonance(p0)
        pops = thermal_populations(p0, frame)
        channel = jump_operator_set(frame).channel(3, pops, p0.p)
        flipped = LindbladChannel(jumps=tuple(
            (-op, w) if i >= 2 else (op, w) for i, (op, w) in enumerate(channel.jumps)
        ))
        assert np.max(np.abs(channel.superoperator() - flipped.superoperator())) < 1e-15


class TestFridgeChannel:
    def test_reduces_to_reset_without_coupling(self):
        params = ModelParams(e1=1.0, e3=4.0, gamma=0.0, t1=4 / 3, t2=2.0, t3=4.0, p=0.01, g=0.01)
        frame = resolve_resonance(params)
        pops = thermal_populations(params, frame)
        for mu, qubit in ((2, 2), (3, 3)):
            delocalized = jump_operator_set(frame).channel(mu, pops, params.p).superoperator()
            r = pops.r(mu, mu)
            local = reset_channel(qubit, params.p, r).superoperator()
            assert np.max(np.abs(delocalized - local)) < 1e-15

    def test_equilibrium_baths_fix_gibbs_state(self):
        params = ModelParams(e1=1.0, e3=4.0, gamma=0.35, t1=2.0, t2=2.0, t3=2.0, p=0.01, g=0.01)
        frame = resolve_resonance(params)
        pops = thermal_populations(params, frame)
        rho = product_state(frame, pops)  # equals tau_1 x Gibbs at T2 = T3
        jumps = jump_operator_set(frame)
        total = jumps.channel(2, pops, params.p).apply(rho) + jumps.channel(3, pops, params.p).apply(rho)
        assert np.max(np.abs(total)) < 1e-16

    def test_localization_identity_on_family(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            params = random_feasible(rng)
            frame = resolve_resonance(params)
            pops = thermal_populations(params, frame)
            jumps = jump_operator_set(frame)
            d2 = jumps.channel(2, pops, params.p)
            d3 = jumps.channel(3, pops, params.p)
            t2 = tilde_channel(2, frame, pops, params.p)
            t3 = tilde_channel(3, frame, pops, params.p)
            for op in family_operators(frame).values():
                delocalized = d2.apply(op) + d3.apply(op)
                localized = t2.apply(op) + t3.apply(op)
                assert np.max(np.abs(delocalized - localized)) < 1e-12

    def test_preserves_machine_eigenbasis_populations(self, p0):
        # a state diagonal in the dressed machine basis stays diagonal there
        rng = np.random.default_rng(15)
        frame = resolve_resonance(p0)
        pops = thermal_populations(p0, frame)
        w = np.kron(np.eye(2), frame.unitary)
        target_block = random_hermitian(rng, 2)
        fridge_diag = np.diag(rng.uniform(0.1, 1.0, size=4)).astype(complex)
        rho = w.conj().T @ np.kron(target_block, fridge_diag) @ w
        for mu in (2, 3):
            out = w @ jump_operator_set(frame).channel(mu, pops, p0.p).apply(rho) @ w.conj().T
            blocks = out.reshape(2, 4, 2, 4)
            for f1 in range(4):
                for f2 in range(4):
                    if f1 != f2:
                        assert np.max(np.abs(blocks[:, f1, :, f2])) < 1e-14

    def test_detailed_balance_per_transition(self, p0):
        # each single-transition channel alone drives its dressed qubit
        # toward the Boltzmann ratio of its own bath
        frame = resolve_resonance(p0)
        pops = thermal_populations(p0, frame)
        pairs = jump_operator_set(frame).pairs
        for pair in pairs:
            r = pops.r(pair.nu, pair.mu)
            single = LindbladChannel(jumps=((pair.plus, p0.p * r), (pair.minus, p0.p * (1 - r))))
            z_nu = tilde_operator(frame, "i", "zi" if pair.nu == 2 else "iz")
            # equilibrium state of that transition: dressed qubit nu at r
            diag2 = np.diag([r, 1.0 - r]).astype(complex)
            other = np.diag([0.35, 0.65]).astype(complex)
            fridge4 = np.kron(diag2, other) if pair.nu == 2 else np.kron(other, diag2)
            rho = np.kron(np.eye(2) / 2.0, frame.unitary.conj().T @ fridge4 @ frame.unitary)
            flow = np.trace(z_nu @ single.apply(rho))
            assert abs(flow) < 1e-15


class TestTildeChannel:
    def test_equals_reset_without_coupling(self):
        params = ModelParams(e1=1.0, e3=4.0, gamma=0.0, t1=4 / 3, t2=2.0, t3=4.0, p=0.01, g=0.01)
        frame = resolve_resonance(params)
        pops = thermal_populations(params, frame)
        local = tilde_channel(2, frame, pops, params.p).superoperator()
        reset = reset_channel(2, params.p, pops.rtilde2).superoperator()
        assert np.max(np.abs(local - reset)) < 1e-15

    def test_fixed_point(self, p0):
        frame = resolve_resonance(p0)
        pops = thermal_populations(p0, frame)
        rho0 = product_state(frame, pops)
        for nu in (2, 3):
            assert np.max(np.abs(tilde_channel(nu, frame, pops, p0.p).apply(rho0))) < 1e-15


class TestStackedChannel:
    def test_apply_matches_loop_reference(self):
        rng = np.random.default_rng(31)
        for params in grid_box_points(31, 5):
            parts = build_generator_parts(params)
            frame, pops = parts.frame, parts.pops
            channels = (parts.d1, parts.d2, parts.d3,
                        tilde_channel(2, frame, pops, params.p), tilde_channel(3, frame, pops, params.p))
            for channel in channels:
                for _ in range(3):
                    probe = random_hermitian(rng)
                    assert np.max(np.abs(channel.apply(probe) - loop_apply(channel.jumps, probe))) < 1e-15

    def test_apply_on_a_stack_matches_one_at_a_time(self, p0):
        rng = np.random.default_rng(32)
        channel = build_generator_parts(p0).d3
        probes = np.array([random_hermitian(rng) for _ in range(4)])
        stacked = channel.apply(probes)
        for probe, out in zip(probes, stacked):
            assert np.max(np.abs(out - channel.apply(probe))) < 1e-16


class TestLiouvillian:
    @pytest.mark.parametrize("localized", [False, True])
    def test_matches_per_jump_kron_reference(self, localized):
        for params in grid_box_points(33, 20):
            parts = build_generator_parts(params)
            machine = (parts.d2, parts.d3)
            if localized:
                machine = tuple(tilde_channel(nu, parts.frame, parts.pops, params.p) for nu in (2, 3))
            expected = kron_commutator_superop(parts.hams.htot)
            for channel in (parts.d1, *machine):
                for op, weight in channel.jumps:
                    expected = expected + kron_dissipator_superop(op, weight)
            assembled = assemble_liouvillian(parts, localized=localized)
            assert np.max(np.abs(assembled - expected)) < 1e-14

    def test_uncoupled_case_is_sum_of_resets(self):
        params = ModelParams(e1=1.0, e3=4.0, gamma=0.0, t1=4 / 3, t2=2.0, t3=4.0, p=0.01, g=0.0)
        frame = resolve_resonance(params)
        pops = thermal_populations(params, frame)
        hams = build_hamiltonians(params, frame)
        from neqfridge.linalg import commutator_superop

        expected = commutator_superop(hams.htot)
        expected += reset_channel(1, params.p, pops.r1).superoperator()
        expected += reset_channel(2, params.p, pops.r22).superoperator()
        expected += reset_channel(3, params.p, pops.r33).superoperator()
        assert np.max(np.abs(assemble_liouvillian(build_generator_parts(params)) - expected)) < 1e-15

    def test_decoupled_target_product_annihilated(self):
        params = ModelParams(e1=1.0, e3=4.0, gamma=0.3, t1=4 / 3, t2=2.0, t3=4.0, p=0.01, g=0.0)
        frame = resolve_resonance(params)
        pops = thermal_populations(params, frame)
        residual = assemble_liouvillian(build_generator_parts(params)) @ vec(product_state(frame, pops))
        assert np.max(np.abs(residual)) < 1e-12

    def test_trace_preserving(self, p0):
        left = vec(np.eye(8)).conj() @ assemble_liouvillian(build_generator_parts(p0))
        assert np.max(np.abs(left)) < 1e-12

    def test_unique_zero_eigenvalue(self, p0):
        eigenvalues = np.linalg.eigvals(assemble_liouvillian(build_generator_parts(p0)))
        scale = np.max(np.abs(eigenvalues))
        near_zero = np.abs(eigenvalues) < 1e-12 * scale
        assert int(np.sum(near_zero)) == 1
        assert np.max(np.real(eigenvalues[~near_zero])) < 0.0

    def test_action_matches_assembled_generator(self):
        rng = np.random.default_rng(22)
        for _ in range(5):
            parts = build_generator_parts(random_feasible(rng))
            rho = random_hermitian(rng)
            expected = assemble_liouvillian(parts) @ vec(rho)
            assert np.max(np.abs(vec(parts.apply(rho)) - expected)) < 1e-13

    def test_localized_variant_shares_steady_state(self, p0):
        from neqfridge.linalg import steady_null_space

        rho_full = steady_null_space(assemble_liouvillian(build_generator_parts(p0)))
        rho_localized = steady_null_space(assemble_liouvillian(build_generator_parts(p0), localized=True))
        assert np.max(np.abs(rho_full - rho_localized)) < 1e-10

    def test_channel_algebra_random_parameters(self):
        rng = np.random.default_rng(16)
        for _ in range(25):
            params = random_feasible(rng)
            parts = build_generator_parts(params)
            rho = random_hermitian(rng)
            for channel in (parts.d1, parts.d2, parts.d3):
                out = channel.apply(rho)
                assert abs(np.trace(out)) < 1e-12
                assert hermiticity_defect(out) < 1e-12
