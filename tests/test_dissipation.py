import math
from itertools import product
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from neqfridge import ModelParams, assemble_liouvillian, heat_currents, numeric_steady_state, solve_oracle
from neqfridge.dissipation import (
    _JUMP_STRINGS,
    _act,
    bath_actions,
    build_generator_parts,
    generator_weights,
    localized_weights,
    sector_tables,
)
from neqfridge.linalg import IDENTITY_2, SIGMA_PLUS, coordinates, density_matrix_defects, pauli_basis
from neqfridge.model import _TRIPARTITE, SIGMA_Z1, SIGMA_Z2, SIGMA_Z3, resonant_frame, tilde_populations
from neqfridge.observables import product_state

from conftest import (
    JUMP_SPECS,
    MACHINE_CHARGES,
    NEUTRAL,
    P0,
    PAIR_CHARGES,
    LindbladChannel,
    benchmark_workloads,
    between_blocks,
    channel_superop,
    charged_blocks,
    dressed,
    family_block,
    family_coords,
    family_operator,
    family_operators,
    full_generator,
    grid_box_points,
    jump_operator_set,
    kron_commutator_superop,
    kron_generator,
    kron_tables,
    lab_hamiltonians,
    lab_heat_currents,
    lab_parts,
    loop_apply,
    random_feasible,
    random_hermitian,
    reset_channel,
    sector_coords,
    sector_tables_24,
    tilde_channel,
    tilde_operator,
    to_dressed,
    to_lab,
    unitary,
    vec,
    weighted_jumps,
)


def localize(parts):
    """The lab-frame reference of the point with its machine baths acting
    through the dressed-local channels."""
    frame, pops, p = parts.frame, parts.pops, parts.params.p
    return replace(lab_parts(parts), d2=tilde_channel(2, frame, pops, p), d3=tilde_channel(3, frame, pops, p))


class TestResetChannel:
    # the lab-frame reference channel, which the package's tables are checked against
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
            assert density_matrix_defects(out)[0] < 1e-12
            general = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
            assert np.max(np.abs(
                channel.apply(general).conj().T - channel.apply(general.conj().T)
            )) < 1e-12

    def test_frozen_bath_is_a_valid_channel(self):
        # r = 0 (E/T past about 745, where exp(-E/T) underflows) only decays: the ground
        # state is its fixed point
        channel = reset_channel(1, rate=0.01, population=0.0, n_qubits=1)
        assert np.max(np.abs(channel.apply(np.diag([0.0, 1.0]).astype(complex)))) == 0.0
        excited = channel.apply(np.diag([1.0, 0.0]).astype(complex))
        assert excited[0, 0] == pytest.approx(-0.01, abs=1e-18)


def read_prefactors(frame, jumps) -> list[float]:
    """Each jump's real prefactor, read back against its kron-built dressed ladder."""
    prefactors = []
    for jump, (_, _, ladder) in zip(jumps, JUMP_SPECS):
        reference = tilde_operator(frame, "i", ladder)
        prefactor = np.vdot(reference, jump) / np.vdot(reference, reference)
        assert abs(prefactor.imag) < 1e-15
        assert np.max(np.abs(jump - prefactor.real * reference)) < 1e-15
        prefactors.append(prefactor.real)
    return prefactors


class TestJumpOperators:
    # the lab-frame reference jumps, and the dressed tables they rotate to
    def test_decoupled_frame(self):
        jumps = jump_operator_set(resonant_frame(1.0, 4.0, 0.0))
        assert jumps.shape == (4, 8, 8)
        assert np.max(np.abs(jumps[1])) == 0.0
        assert np.max(np.abs(jumps[3])) == 0.0
        assert np.array_equal(jumps[0], np.kron(IDENTITY_2, np.kron(SIGMA_PLUS, IDENTITY_2)))
        assert np.array_equal(jumps[2], np.kron(IDENTITY_2, np.kron(IDENTITY_2, SIGMA_PLUS)))

    def test_maximal_mixing_prefactors(self):
        frame = resonant_frame(1.0, 4.0, 0.5)
        for prefactor in read_prefactors(frame, jump_operator_set(frame)):
            assert abs(prefactor) == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-15)

    def test_benchmark_half_angles(self):
        frame = resonant_frame(1.0, 4.0, 0.3)
        expected = (math.sqrt(0.9), math.sqrt(0.1), math.sqrt(0.9), -math.sqrt(0.1))
        assert read_prefactors(frame, jump_operator_set(frame)) == pytest.approx(expected, abs=1e-15)

    def test_adjoint_pairs_and_completeness(self):
        rng = np.random.default_rng(12)
        for _ in range(5):
            frame = build_generator_parts(random_feasible(rng)).frame
            jumps = jump_operator_set(frame)
            prefactors = read_prefactors(frame, jumps)
            # each bath's two prefactors square to one
            assert prefactors[0] ** 2 + prefactors[1] ** 2 == pytest.approx(1.0, abs=1e-12)
            assert prefactors[2] ** 2 + prefactors[3] ** 2 == pytest.approx(1.0, abs=1e-12)
            # in the dressed frame each jump is its table's string times its prefactor
            expected = np.reshape(prefactors, (4, 1, 1)) * _JUMP_STRINGS
            assert np.max(np.abs(to_dressed(frame, jumps) - expected)) < 1e-15
        # the generator's terms pair each raising jump with its adjoint as the lowering one
        probes = np.array([random_hermitian(rng), rng.standard_normal((8, 8)) + 0j])
        for table, acted in zip(kron_tables(), _act(probes)):
            for probe, out in zip(probes, acted):
                assert np.max(np.abs(vec(out) - table @ vec(probe))) <= 1e-15

    def test_eigenoperator_frequencies(self):
        rng = np.random.default_rng(13)
        for _ in range(5):
            params = random_feasible(rng)
            frame = resonant_frame(params.e1, params.e3, params.gamma)
            hfridge = lab_hamiltonians(params, frame).hfridge
            for jump, (nu, _, _) in zip(jump_operator_set(frame), JUMP_SPECS):
                frequency = frame.eps2 if nu == 2 else frame.eps3
                lowering = jump.conj().T
                comm = hfridge @ jump - jump @ hfridge
                assert np.max(np.abs(comm - frequency * jump)) < 1e-12
                comm = hfridge @ lowering - lowering @ hfridge
                assert np.max(np.abs(comm + frequency * lowering)) < 1e-12

    def test_sign_of_cross_jump_is_observably_irrelevant(self, p0):
        channel = lab_parts(build_generator_parts(p0)).d3
        flipped = replace(channel, raising=channel.raising * np.reshape([1.0, -1.0], (2, 1, 1)))
        assert np.max(np.abs(channel_superop(channel) - channel_superop(flipped))) < 1e-15


class TestFridgeChannel:
    def test_reduces_to_reset_without_coupling(self):
        params = ModelParams(e1=1.0, e3=4.0, gamma=0.0, t1=4 / 3, t2=2.0, t3=4.0, p=0.01, g=0.01)
        parts = build_generator_parts(params)
        lab = lab_parts(parts)
        for channel, qubit in ((lab.d2, 2), (lab.d3, 3)):
            local = channel_superop(reset_channel(qubit, params.p, parts.pops.r(qubit, qubit)))
            assert np.max(np.abs(channel_superop(channel) - local)) < 1e-15

    def test_equilibrium_baths_fix_gibbs_state(self):
        params = ModelParams(e1=1.0, e3=4.0, gamma=0.35, t1=2.0, t2=2.0, t3=2.0, p=0.01, g=0.01)
        parts = build_generator_parts(params)
        rho = product_state(parts.pops)  # equals tau_1 x Gibbs at T2 = T3
        _, d2, d3 = bath_actions(generator_weights(parts), rho)
        assert np.max(np.abs(d2 + d3)) < 1e-16

    def test_localization_identity_on_family(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            params = random_feasible(rng)
            parts = build_generator_parts(params)
            frame, pops, lab = parts.frame, parts.pops, lab_parts(parts)
            t2 = tilde_channel(2, frame, pops, params.p)
            t3 = tilde_channel(3, frame, pops, params.p)
            for op in family_operators(frame).values():
                delocalized = lab.d2.apply(op) + lab.d3.apply(op)
                localized = t2.apply(op) + t3.apply(op)
                assert np.max(np.abs(delocalized - localized)) < 1e-12

    def test_preserves_machine_eigenbasis_populations(self, p0):
        # a state diagonal in the dressed machine basis stays diagonal there
        rng = np.random.default_rng(15)
        parts = build_generator_parts(p0)
        target_block = random_hermitian(rng, 2)
        fridge_diag = np.diag(rng.uniform(0.1, 1.0, size=4)).astype(complex)
        rho = np.kron(target_block, fridge_diag)  # charge 0: the fridge part is diagonal
        for out in bath_actions(generator_weights(parts), family_coords(rho).real)[1:]:
            blocks = family_operator(out).reshape(2, 4, 2, 4)
            for f1 in range(4):
                for f2 in range(4):
                    if f1 != f2:
                        assert np.max(np.abs(blocks[:, f1, :, f2])) < 1e-14

    def test_detailed_balance_per_transition(self, p0):
        # each single-transition channel alone drives its dressed qubit
        # toward the Boltzmann ratio of its own bath
        frame = resonant_frame(p0.e1, p0.e3, p0.gamma)
        pops = tilde_populations(frame, p0.t2, p0.t3, t1=p0.t1)
        jumps = jump_operator_set(frame)
        for k, (nu, mu, _) in enumerate(JUMP_SPECS):
            r = pops.r(nu, mu)
            single = LindbladChannel(jumps[k:k + 1], p0.p, (r,))
            z_nu = tilde_operator(frame, "i", "zi" if nu == 2 else "iz")
            # equilibrium state of that transition: dressed qubit nu at r
            diag2 = np.diag([r, 1.0 - r]).astype(complex)
            other = np.diag([0.35, 0.65]).astype(complex)
            fridge4 = np.kron(diag2, other) if nu == 2 else np.kron(other, diag2)
            rho = np.kron(np.eye(2) / 2.0, unitary(frame).conj().T @ fridge4 @ unitary(frame))
            flow = np.trace(z_nu @ single.apply(rho))
            assert abs(flow) < 1e-15


class TestTildeChannel:
    # the lab-frame reference of the dressed-local channels
    def test_equals_reset_without_coupling(self):
        params = ModelParams(e1=1.0, e3=4.0, gamma=0.0, t1=4 / 3, t2=2.0, t3=4.0, p=0.01, g=0.01)
        frame = resonant_frame(params.e1, params.e3, params.gamma)
        pops = tilde_populations(frame, params.t2, params.t3, t1=params.t1)
        local = channel_superop(tilde_channel(2, frame, pops, params.p))
        reset = channel_superop(reset_channel(2, params.p, pops.rtilde2))
        assert np.max(np.abs(local - reset)) < 1e-15

    def test_fixed_point(self, p0):
        frame = resonant_frame(p0.e1, p0.e3, p0.gamma)
        pops = tilde_populations(frame, p0.t2, p0.t3, t1=p0.t1)
        rho0 = to_lab(frame, family_operator(product_state(pops)))
        for nu in (2, 3):
            assert np.max(np.abs(tilde_channel(nu, frame, pops, p0.p).apply(rho0))) < 1e-15


class TestStackedChannel:
    # bath_actions reads the three baths off the stacked family tables; the channels
    # keep the family and never reach it from outside, so on a probe's family
    # coordinates they give the family part of their action on the whole probe
    def test_apply_matches_loop_reference(self):
        rng = np.random.default_rng(31)
        for params in grid_box_points(31, 5):
            parts = build_generator_parts(params)
            frame = parts.frame
            for weights, lab in ((generator_weights(parts), lab_parts(parts)),
                                 (localized_weights(parts), localize(parts))):
                for _ in range(3):
                    probe = random_hermitian(rng)
                    got = bath_actions(weights, family_coords(probe).real)
                    for out, channel in zip(got, (lab.d1, lab.d2, lab.d3)):
                        want = to_dressed(frame, loop_apply(weighted_jumps(channel), to_lab(frame, probe)))
                        assert np.max(np.abs(out - family_coords(want))) < 1e-15

    def test_apply_on_a_stack_matches_one_at_a_time(self, p0):
        # each bath sums its weighted terms, applied one at a time and cut to the
        # family, and the three baths with the Hamiltonian's part make up the block: the
        # free Hamiltonian's part cancels at resonance
        rng = np.random.default_rng(32)
        parts = build_generator_parts(p0)
        weights = generator_weights(parts)
        probe = random_hermitian(rng)
        one_at_a_time = [w * family_coords(out) for w, out in zip(weights, _act(probe[None])[:, 0])]
        got = bath_actions(weights, family_coords(probe).real)
        for bath, tables_of_bath in enumerate(((4, 9), (5, 6, 10, 11), (7, 8, 12, 13))):
            assert np.max(np.abs(got[bath] - sum(one_at_a_time[k] for k in tables_of_bath))) < 1e-16
        action = sum(one_at_a_time[:4]) + got.sum(axis=0)
        assert np.max(np.abs(action - assemble_liouvillian(parts) @ family_coords(probe))) < 1e-14


class TestLiouvillian:
    # assemble_liouvillian is the dressed-frame generator's family block: each
    # test compares it with the kron references rotated into the dressed frame
    # and cut to the family, or reads it on dressed-frame operators' family coordinates
    @pytest.mark.parametrize("localized", [False, True])
    def test_matches_per_jump_kron_reference(self, localized):
        for params in grid_box_points(33, 20):
            parts = build_generator_parts(params)
            if localized:
                got = np.tensordot(localized_weights(parts)[3:], sector_tables().generator, 1)
                want = family_block(dressed(kron_generator(localize(parts)), parts.frame))
            else:
                got = assemble_liouvillian(parts)
                want = family_block(dressed(kron_generator(lab_parts(parts)), parts.frame))
            assert np.max(np.abs(got - want)) < 1e-14

    def test_uncoupled_case_is_sum_of_resets(self):
        # at gamma = 0 the dressing is the identity and the frames coincide
        params = ModelParams(e1=1.0, e3=4.0, gamma=0.0, t1=4 / 3, t2=2.0, t3=4.0, p=0.01, g=0.0)
        frame = resonant_frame(params.e1, params.e3, params.gamma)
        pops = tilde_populations(frame, params.t2, params.t3, t1=params.t1)
        hams = lab_hamiltonians(params, frame)

        expected = kron_commutator_superop(hams.htot)
        expected += channel_superop(reset_channel(1, params.p, pops.r1))
        expected += channel_superop(reset_channel(2, params.p, pops.r22))
        expected += channel_superop(reset_channel(3, params.p, pops.r33))
        assert np.max(np.abs(assemble_liouvillian(build_generator_parts(params)) - family_block(expected))) < 1e-15

    def test_decoupled_target_product_annihilated(self):
        params = ModelParams(e1=1.0, e3=4.0, gamma=0.3, t1=4 / 3, t2=2.0, t3=4.0, p=0.01, g=0.0)
        frame = resonant_frame(params.e1, params.e3, params.gamma)
        pops = tilde_populations(frame, params.t2, params.t3, t1=params.t1)
        residual = assemble_liouvillian(build_generator_parts(params)) @ product_state(pops)
        assert np.max(np.abs(residual)) < 1e-12

    def test_trace_preserving(self, p0):
        left = family_coords(np.eye(8)).conj() @ assemble_liouvillian(build_generator_parts(p0))
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
            frame = parts.frame
            rho = random_hermitian(rng)
            expected = assemble_liouvillian(parts) @ family_coords(rho)
            lab_action = lab_parts(parts).apply(to_lab(frame, rho))
            assert np.max(np.abs(family_coords(to_dressed(frame, lab_action)) - expected)) < 1e-13

    def test_localized_variant_shares_steady_state(self, p0):
        parts = build_generator_parts(p0)
        rho_full = numeric_steady_state(assemble_liouvillian(parts)).rho
        rho_localized = numeric_steady_state(np.tensordot(localized_weights(parts)[3:], sector_tables()[0], 1)).rho
        assert np.max(np.abs(rho_full - rho_localized)) < 1e-10

    def test_channel_algebra_random_parameters(self):
        rng = np.random.default_rng(16)
        for _ in range(25):
            params = random_feasible(rng)
            parts = build_generator_parts(params)
            coords = family_coords(random_hermitian(rng)).real
            for out in family_operator(bath_actions(generator_weights(parts), coords)):
                assert abs(np.trace(out)) < 1e-12
                assert density_matrix_defects(out)[0] < 1e-12


def sampled_dissipator_weights(seed: int) -> np.ndarray:
    """Weights (2064, 10) of the ten dissipator tables at p = 1: every frozen corner of the five
    populations at theta near 0 and near pi, then 2000 draws with a fifth of them frozen."""
    rng = np.random.default_rng(seed)
    edges = np.array(list(product((0.0, 1.0), repeat=5)))
    pops = np.concatenate([edges, edges, rng.uniform(0.0, 1.0, (2000, 5))])
    frozen = rng.random(pops.shape) < 0.2
    pops[64:][frozen[64:]] = rng.integers(0, 2, np.count_nonzero(frozen[64:]))
    theta = np.concatenate([np.full(32, 1e-9), np.full(32, math.pi - 1e-9),
                            rng.uniform(0.0, math.pi, 2000)])
    c2, s2 = np.cos(0.5 * theta) ** 2, np.sin(0.5 * theta) ** 2
    rates = np.stack([np.ones_like(theta), c2, s2, c2, s2], axis=1)
    return np.concatenate([rates * pops, rates * (1.0 - pops)], axis=1)


# the edges of the parameter domain: no mixing, maximal mixing, no tripartite
# coupling, one temperature, and every bath frozen (eps3/T3 = 1000, past the E/T
# of about 745 at which exp(-E/T), and so a population, underflows to zero)
EDGE_POINTS = [replace(P0, gamma=0.0), replace(P0, gamma=0.5 * P0.e1), replace(P0, g=0.0),
               replace(P0, t1=2.0, t2=2.0, t3=2.0), replace(P0, t1=1e-3, t2=2e-3, t3=4e-3)]


class TestGeneratorTables:
    @pytest.mark.parametrize("params", grid_box_points(34, 8) + EDGE_POINTS)
    def test_dressed_generator_matches_rotated_kron_reference(self, params):
        parts = build_generator_parts(params)
        expected = family_block(dressed(kron_generator(lab_parts(parts)), parts.frame))
        assert np.max(np.abs(assemble_liouvillian(parts) - expected)) < 1e-14

    def test_frozen_edge_freezes_the_engine_bath(self):
        assert build_generator_parts(EDGE_POINTS[-1]).pops.r33 == 0.0

    @pytest.mark.parametrize("charges", [MACHINE_CHARGES, PAIR_CHARGES])
    def test_each_term_conserves_the_charge_difference(self, charges):
        # on every |a><b| the terms leave only operators of the charge difference q_a - q_b
        between = between_blocks(charges)
        units = np.eye(64).reshape(64, 8, 8).transpose(0, 2, 1)  # unit at vec position a + 8 b
        for acted in _act(units):
            table = np.array([vec(out) for out in acted]).T
            assert np.count_nonzero(table) > 0
            assert np.count_nonzero(table[between]) == 0

    def test_charged_blocks_of_the_dissipators_are_damped(self):
        # the Hermitian part of each charged block of the dissipator tables at
        # p = 1 has its top eigenvalue at most -(3/2 - sqrt 2); the bound is
        # reached, to rounding, at theta = 0 or pi with frozen baths
        weights = sampled_dissipator_weights(41)
        tops = []
        for block in charged_blocks():
            acted = np.tensordot(weights, kron_tables()[4:][(slice(None), *block)], 1)
            tops.append(np.max(np.linalg.eigvalsh(0.5 * (acted + acted.conj().transpose(0, 2, 1)))))
        assert abs(max(tops) + (1.5 - math.sqrt(2.0))) <= 1e-14

    def test_charged_blocks_are_far_from_singular(self):
        # the Hamiltonian part is anti-Hermitian, so the dissipators' bound holds
        # for the smallest singular value of the whole charged blocks, in units of p
        workloads = benchmark_workloads()
        for point in workloads.oracle_points(1, workloads.ORACLE_POINTS):
            parts = build_generator_parts(ModelParams(**point))
            generator = full_generator(parts.weights)
            for block in charged_blocks():
                smallest = np.linalg.svd(generator[block], compute_uv=False)[-1]
                assert smallest >= (1.5 - math.sqrt(2.0)) * parts.params.p, point

    def test_each_term_is_real_in_the_pauli_basis(self):
        # tr(P_a A_k(P_b)) / 8 on the Pauli strings P
        strings = pauli_basis(3)
        for acted in _act(strings):
            pauli = np.einsum("aji,bij->ab", strings, acted) / 8
            assert np.max(np.abs(pauli.real)) > 0.0
            assert np.max(np.abs(pauli.imag)) == 0.0



class TestFamilyBlock:
    # the facts that make the family's 9x9 block the whole kernel problem, each exact,
    # and the damping of what the charge-0 reference block holds outside it
    def test_family_stack_is_the_tables_on_the_family(self):
        tables = sector_tables()
        stack = tables.generator
        assert sector_tables() is tables
        assert stack.shape == (11, 9, 9) and stack.dtype == float
        assert not stack.flags.writeable and not tables.hamiltonians.flags.writeable
        assert tables.leakage == 0.0 and tables.closure == 0.0 and tables.channel_defect == 0.0
        # T and the ten dissipators, the terms after the free Hamiltonian's three
        for table, block in zip(kron_tables()[3:], stack):
            projected = family_block(table)
            assert np.max(np.abs(projected.imag)) <= 1e-15
            assert np.max(np.abs(projected.real - block)) <= 1e-15
        # the Hamiltonian's terms on the family; T lies outside it
        for h, coords in zip((SIGMA_Z1, SIGMA_Z2, SIGMA_Z3, _TRIPARTITE), tables.hamiltonians):
            assert np.max(np.abs(family_coords(h) - coords)) <= 1e-15
        assert np.max(np.abs(family_operator(tables.hamiltonians[:3]) - [SIGMA_Z1, SIGMA_Z2, SIGMA_Z3])) <= 1e-15
        assert np.count_nonzero(tables.hamiltonians[3]) == 0

    def test_the_neutral_operators_map_among_themselves(self):
        acted = _act(NEUTRAL)
        rebuilt = np.tensordot(coordinates(acted, NEUTRAL), NEUTRAL, 1)
        assert np.max(np.abs(acted - rebuilt)) <= 1e-15

    def test_the_free_hamiltonian_is_one_table_on_the_neutral_operators(self):
        # Z1 = -Z2 = Z3 there, so the free part weighs (E1 - eps2 + eps3)/2, zero at resonance
        z1, z2, z3 = _act(NEUTRAL)[:3]
        assert np.count_nonzero(z1) > 0
        assert np.array_equal(z2, -z1) and np.array_equal(z3, z1)

    def test_x_decouples_from_the_family(self):
        tables = coordinates(_act(NEUTRAL)[3:], NEUTRAL)  # [k, j, i] = tr(N_i A_k(N_j))
        assert np.count_nonzero(tables[:, 9, :9]) == 0 and np.count_nonzero(tables[:, :9, 9]) == 0

    @pytest.mark.parametrize("params", grid_box_points(36, 8) + EDGE_POINTS)
    def test_x_decays_at_three_halves_p(self, params):
        # half the sum of the dissipator weights, p (1 + 2 cos^2 + 2 sin^2) / 2
        weights = build_generator_parts(params).weights
        decay = weights[4:] @ coordinates(_act(NEUTRAL[9:])[4:, 0], NEUTRAL[9:])[:, 0]
        assert abs(decay + 1.5 * params.p) <= 1e-15 * params.p

    def test_the_rest_of_the_charge_0_block_is_damped(self):
        # on the 24x24 charge-0 reference block the dissipator tables at p = 1 keep the
        # 14-dimensional rest, charged under n1 + n2, apart from the neutral operators, and
        # its Hermitian part has its top eigenvalue at most -(3/2 - sqrt 2), the bound of
        # the machine-charged blocks, reached to rounding at frozen baths
        neutral = sector_coords(NEUTRAL).real.T  # (24, 10), orthonormal columns
        rest = np.linalg.qr(neutral, mode="complete")[0][:, 10:]
        blocks = np.tensordot(sampled_dissipator_weights(42), sector_tables_24()[4:], 1)
        assert np.max(np.abs(neutral.T @ blocks @ rest)) <= 1e-15
        assert np.max(np.abs(rest.T @ blocks @ neutral)) <= 1e-15
        held = rest.T @ blocks @ rest
        top = np.max(np.linalg.eigvalsh(0.5 * (held + held.transpose(0, 2, 1))))
        assert abs(top + (1.5 - math.sqrt(2.0))) <= 1e-14

    def test_the_rest_of_the_charge_0_block_is_far_from_singular(self):
        # with the Hamiltonian's anti-Hermitian part too, in units of p
        neutral = sector_coords(NEUTRAL).real.T
        rest = np.linalg.qr(neutral, mode="complete")[0][:, 10:]
        workloads = benchmark_workloads()
        for point in workloads.oracle_points(1, workloads.ORACLE_POINTS):
            parts = build_generator_parts(ModelParams(**point))
            held = rest.T @ np.tensordot(parts.weights, sector_tables_24(), 1) @ rest
            assert np.linalg.svd(held, compute_uv=False)[-1] >= (1.5 - math.sqrt(2.0)) * parts.params.p, point


@st.composite
def grid_box_models(draw) -> ModelParams:
    """Models over the box of `validate --grid`."""
    e1 = draw(st.floats(0.5, 2.0))
    t1 = draw(st.floats(0.5, 2.0))
    t2 = t1 + draw(st.floats(0.0, 2.0))
    return ModelParams(e1=e1, e3=draw(st.floats(2.0, 8.0)), gamma=draw(st.floats(0.0, 0.49)) * e1,
                       t1=t1, t2=t2, t3=t2 + draw(st.floats(0.0, 4.0)),
                       p=draw(st.floats(0.002, 0.03)), g=draw(st.floats(0.002, 0.03)))


def scaled(params: ModelParams, lam: float) -> ModelParams:
    """The model in units lam times smaller: energies, temperatures, p and g all times lam."""
    return ModelParams(**{name: lam * value for name, value in params.as_dict().items()})


PROBE = random_hermitian(np.random.default_rng(35))


class TestAgainstTheLabFrame:
    # the package reads every operator in the dressed frame; the lab-frame
    # reference of the tests rebuilds the channels and Hamiltonians there.
    # Currents are energy times rate, within 1e-14 (p + g) eps2; the bath
    # actions are rates, within 1e-14 (p + g); a residual carries the
    # Hamiltonian's rounding too, within 1e-15 eps2
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(params=grid_box_models())
    @example(params=replace(P0, gamma=0.0))
    @example(params=replace(P0, gamma=0.5 * P0.e1))
    @example(params=replace(P0, gamma=0.5 * P0.e1 * (1.0 - 1e-12)))
    @example(params=replace(P0, t1=2.0, t2=2.0, t3=2.0))
    @example(params=replace(P0, g=0.0))
    @example(params=scaled(P0, 1e-4))
    @example(params=scaled(P0, 1e4))
    def test_currents_residuals_and_bath_actions(self, params):
        parts = build_generator_parts(params)
        frame, lab = parts.frame, lab_parts(parts)
        rate = params.p + params.g
        oracle = solve_oracle(parts)
        currents = heat_currents(parts, oracle.numeric)
        reference = lab_heat_currents(parts, oracle.numeric.rho)
        for name, value in reference.items():
            assert abs(getattr(currents, name) - value) <= 1e-14 * rate * frame.eps2, name
        for steady in (oracle.analytic, oracle.numeric):
            lab_residual = np.linalg.norm(lab.apply(to_lab(frame, steady.rho)))
            assert abs(steady.residual - lab_residual) <= 1e-15 * frame.eps2
        for coords in (oracle.numeric.coords, family_coords(PROBE).real):
            got = bath_actions(generator_weights(parts), coords)
            for out, channel in zip(got, (lab.d1, lab.d2, lab.d3)):
                want = to_dressed(frame, channel.apply(to_lab(frame, family_operator(coords))))
                assert np.max(np.abs(out - family_coords(want))) <= 1e-14 * rate
