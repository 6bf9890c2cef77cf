import numpy as np
import pytest

from neqfridge import (
    DegenerateSteadyStateError,
    ModelParams,
    NeqFridgeError,
    NonHermitianGeneratorError,
    ParameterError,
    assemble_liouvillian,
    build_generator_parts,
    solve_oracle,
    steady_null_space,
    thermal_population,
    vec,
)
from neqfridge.linalg import (
    IDENTITY_2,
    SIGMA_MINUS,
    SIGMA_PLUS,
    SIGMA_Z,
    charge_sectors,
    commutator_superop,
    density_matrix_defects,
    dissipator_superop,
    pauli_basis,
    pauli_string,
)
from neqfridge.model import resonant_frame, tilde_populations
from neqfridge.steadystate import MACHINE_CHARGES

from conftest import channel_superop, kron_generator, lab_parts, random_hermitian, reset_channel, to_lab


class TestKron:
    """Kronecker-product conventions of pauli_string: the left factor is most significant."""

    def test_identity(self):
        assert np.array_equal(pauli_string("ii"), np.eye(4))

    def test_sigma_z_pair(self):
        assert np.array_equal(pauli_string("zz"), np.diag([1.0, -1.0, -1.0, 1.0]))

    def test_raising_lowering(self):
        # hand evaluation: single unit entry at row |01>, column |10>
        expected = np.zeros((4, 4))
        expected[1, 2] = 1.0
        assert np.array_equal(pauli_string("+-"), expected)

    def test_associativity(self):
        for labels in ("xyz", "+z-", "iyx", "-+i"):
            left = np.kron(pauli_string(labels[:2]), pauli_string(labels[2]))
            right = np.kron(pauli_string(labels[0]), pauli_string(labels[1:]))
            assert np.array_equal(left, pauli_string(labels))
            assert np.array_equal(right, pauli_string(labels))


class TestEmbed:
    """Single-qubit operators placed on the slots of three qubits: pauli_string
    labels, and the reset ladder of one numbered qubit."""

    def test_identity_slot(self):
        assert np.array_equal(pauli_string("iii"), np.eye(8))

    def test_sigma_z_qubit1(self):
        assert np.array_equal(pauli_string("zii"), np.diag([1.0] * 4 + [-1.0] * 4))

    def test_pair_raising_lowering(self):
        # sigma_2^+ sigma_3^- maps |q1 1 0> -> |q1 0 1>: unit entries per q1 state
        expected = np.zeros((8, 8))
        expected[0b001, 0b010] = 1.0
        expected[0b101, 0b110] = 1.0
        assert np.array_equal(pauli_string("i+-"), expected)

    def test_agrees_with_explicit_kron(self):
        single = {"i": IDENTITY_2, "z": SIGMA_Z, "+": SIGMA_PLUS, "-": SIGMA_MINUS}
        for labels in ("+ii", "i+i", "ii+", "z-i", "-iz"):
            a, b, c = (single[label] for label in labels)
            assert np.array_equal(pauli_string(labels), np.kron(a, np.kron(b, c)))


class TestPartialTrace:
    def test_target_reduction_is_thermalish(self, p0):
        # the reduced target state of the steady state is diagonal with the
        # Bloch-z component of the decomposition: <s1^+> = 0 and <sz1> = a1
        result = solve_oracle(build_generator_parts(p0)).analytic
        coherence = np.trace(pauli_string("+ii") @ result.rho)
        bloch = np.trace(pauli_string("zii") @ result.rho)
        assert abs(coherence) < 1e-14
        assert abs(bloch.imag) < 1e-14
        assert abs(bloch.real - result.decomposition.a1) < 1e-12


class TestVectorization:
    def test_column_stacking_convention(self):
        rng = np.random.default_rng(4)
        a, x, b = (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)) for _ in range(3))
        assert np.allclose(np.kron(b.T, a) @ vec(x), vec(a @ x @ b))

    def test_commutator_superop(self):
        rng = np.random.default_rng(5)
        h = random_hermitian(rng, 4)
        x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        assert np.allclose(commutator_superop(h) @ vec(x), vec(-1j * (h @ x - x @ h)))

    def test_dissipator_superop(self):
        rng = np.random.default_rng(6)
        jump = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        x = random_hermitian(rng, 4)

        def dissipator(op, weight):
            anti = op.conj().T @ op
            return weight * (op @ x @ op.conj().T - 0.5 * (anti @ x + x @ anti))

        direct = dissipator(jump, 0.7 * 0.3) + dissipator(jump.conj().T, 0.7 * (1.0 - 0.3))
        superop = 0.7 * 0.3 * dissipator_superop(jump) + 0.7 * (1.0 - 0.3) * dissipator_superop(jump.conj().T)
        assert np.allclose(superop @ vec(x), vec(direct))


class TestSteadyNullSpace:
    def test_uncoupled_resets_give_bare_product(self):
        params = ModelParams(e1=1.0, e3=4.0, gamma=0.0, t1=4 / 3, t2=2.0, t3=4.0, p=0.01, g=0.0)
        rho = steady_null_space(assemble_liouvillian(build_generator_parts(params)))
        taus = [
            np.diag([r, 1.0 - r])
            for r in (
                thermal_population(1.0, 4 / 3),
                thermal_population(5.0, 2.0),  # spiral gap is E3 + E1 at gamma = 0
                thermal_population(4.0, 4.0),
            )
        ]
        assert np.max(np.abs(rho - np.kron(taus[0], np.kron(taus[1], taus[2])))) < 1e-12

    def test_decoupled_target_gives_dressed_product(self, p0):
        from neqfridge.observables import product_state

        params = ModelParams(e1=1.0, e3=4.0, gamma=0.3, t1=4 / 3, t2=2.0, t3=4.0, p=0.01, g=0.0)
        rho = steady_null_space(kron_generator(lab_parts(build_generator_parts(params))))
        frame = resonant_frame(params.e1, params.e3, params.gamma)
        pops = tilde_populations(frame, params.t2, params.t3, t1=params.t1)
        assert np.max(np.abs(rho - to_lab(frame, product_state(pops)))) < 1e-12

    def test_matches_closed_form_at_benchmark(self, p0):
        parts = build_generator_parts(p0)
        liouvillian = kron_generator(lab_parts(parts))
        rho = steady_null_space(liouvillian)
        analytic = to_lab(parts.frame, solve_oracle(parts).analytic.rho)
        assert np.max(np.abs(rho - analytic)) < 1e-8
        assert np.linalg.norm(liouvillian @ vec(rho)) < 1e-10

    def test_output_is_density_matrix(self, p0):
        rho = steady_null_space(kron_generator(lab_parts(build_generator_parts(p0))))
        herm, trace_dev, min_eig = density_matrix_defects(rho)
        assert herm < 1e-12
        assert trace_dev < 1e-12
        assert min_eig > -1e-10

    def test_degenerate_kernel_detected(self):
        with pytest.raises(DegenerateSteadyStateError):
            steady_null_space(np.zeros((16, 16)))

    def test_genuinely_degenerate_generator_detected(self):
        # a reset channel touching only one of two qubits leaves a
        # four-dimensional kernel
        channel = reset_channel(1, rate=0.1, population=0.3, n_qubits=2)
        with pytest.raises(DegenerateSteadyStateError):
            steady_null_space(channel_superop(channel))


def _reset_generator(n_qubits):
    """Sum of one reset channel per qubit: a generator with a one-dimensional kernel."""
    return sum(channel_superop(reset_channel(q, rate=0.1 * q, population=0.2 + 0.1 * q, n_qubits=n_qubits))
               for q in range(1, n_qubits + 1))


class TestPauliBasis:
    @pytest.mark.parametrize("n_qubits", [1, 2, 3])
    def test_columns_are_orthogonal_vectorized_strings(self, n_qubits):
        strings, t = pauli_basis(n_qubits)
        d = 2 ** n_qubits
        assert np.array_equal(t.conj().T @ t, d * np.eye(d * d))
        for b in (0, 1, d * d - 1):
            assert np.array_equal(t[:, b], vec(strings[b]))

    @pytest.mark.parametrize("case", ["p0_dressed", "p0_lab", "reset_2", "reset_1"])
    def test_real_generator_keeps_the_singular_values(self, p0, case):
        if case.startswith("p0"):
            parts = build_generator_parts(p0)
            dressed = case == "p0_dressed"
            generator = assemble_liouvillian(parts) if dressed else kron_generator(lab_parts(parts))
        else:
            generator = _reset_generator(int(case[-1]))
        n_qubits = (generator.shape[0].bit_length() - 1) // 2
        _, t = pauli_basis(n_qubits)
        real = t.conj().T @ generator @ t / 2 ** n_qubits
        assert np.max(np.abs(real.imag)) <= 1e-12 * np.max(np.abs(real.real))
        s_real = np.linalg.svd(real.real, compute_uv=False)
        s_complex = np.linalg.svd(generator, compute_uv=False)
        assert np.max(np.abs(s_real - s_complex)) <= 1e-12 * s_complex[0]

    def test_reset_kernel_is_the_product_of_fixed_points(self):
        rho = steady_null_space(_reset_generator(2))
        assert np.max(np.abs(rho - np.kron(np.diag([0.3, 0.7]), np.diag([0.4, 0.6])))) < 1e-14

    def test_non_hermitian_generator_raises(self):
        rng = np.random.default_rng(8)
        h = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        with pytest.raises(NonHermitianGeneratorError, match="does not preserve Hermiticity"):
            steady_null_space(commutator_superop(h))
        assert issubclass(NonHermitianGeneratorError, NeqFridgeError)

    @pytest.mark.parametrize("shape", [(9, 9), (36, 36), (15, 15), (16, 4), (1, 1), (0, 0)])
    def test_dimension_not_a_power_of_two_raises(self, shape):
        with pytest.raises(ParameterError, match="its side must be 4\\^n"):
            steady_null_space(np.zeros(shape))


def _population_generator(up: float, down: float, dephasing: float) -> np.ndarray:
    """One qubit: rates up (|0><0| from |1><1|) and down between the populations,
    coherences damped at ``dephasing``; vec positions |0><0|, |1><0|, |0><1|, |1><1|."""
    generator = np.diag([-down, -dephasing, -dephasing, -up]).astype(complex)
    generator[0, 3], generator[3, 0] = up, down
    return generator


class TestChargeBlocks:
    def test_second_mode_in_a_charged_block_is_detected(self):
        # the charge-0 block (the populations) has a one-dimensional kernel,
        # but the undamped coherence |1><0| of charge difference +1 is stationary too
        charges = (0, 1)
        with pytest.raises(DegenerateSteadyStateError, match="degenerate"):
            steady_null_space(_population_generator(0.3, 0.1, 0.0), charges)
        rho = steady_null_space(_population_generator(0.3, 0.1, 0.2), charges)
        assert np.max(np.abs(rho - np.diag([0.75, 0.25]))) < 1e-15

    def test_each_block_is_judged_on_its_own_scale(self):
        # a charged block 1e12 times stiffer than the populations' block leaves
        # their one-dimensional kernel well posed
        rho = steady_null_space(_population_generator(0.3, 0.1, 1e12), (0, 1))
        assert np.max(np.abs(rho - np.diag([0.75, 0.25]))) < 1e-15

    @pytest.mark.parametrize("frame", ["dressed", "lab"])
    def test_blocks_hold_every_singular_value(self, p0, frame):
        parts = build_generator_parts(p0)
        generator = assemble_liouvillian(parts) if frame == "dressed" else kron_generator(lab_parts(parts))
        _, t0, block0, blocks, between = charge_sectors(MACHINE_CHARGES)
        assert [generator[block].shape for block in (block0, *blocks)] == [(24, 24), (16, 16), (4, 4)]
        assert np.max(np.abs(generator[between])) <= 1e-15 * np.max(np.abs(generator))
        block_values = [np.linalg.svd((t0.conj().T @ generator[block0] @ t0).real, compute_uv=False)]
        for block in blocks:  # the block of difference -c repeats that of +c
            block_values += 2 * [np.linalg.svd(generator[block], compute_uv=False)]
        union = np.sort(np.concatenate(block_values))[::-1]
        full = np.linalg.svd(generator, compute_uv=False)
        assert union.shape == full.shape
        assert np.max(np.abs(union - full)) <= 1e-12 * full[0]

    def test_charge_sector_basis_is_pauli_type(self):
        strings, t0, _, _, _ = charge_sectors(MACHINE_CHARGES)
        assert np.allclose(t0.conj().T @ t0, np.eye(24), atol=1e-15)
        machine = [pauli_string(labels) for labels in ("ii", "iz", "zi", "zz")]
        machine += [(pauli_string("xx") + pauli_string("yy")) / np.sqrt(2),
                    (pauli_string("xy") - pauli_string("yx")) / np.sqrt(2)]
        expected = [np.kron(pauli_string(p1), m) / np.sqrt(8) for p1 in "ixyz" for m in machine]
        overlaps = np.abs(np.einsum("aij,bij->ab", np.conj(expected), strings))
        assert np.allclose(np.sort(overlaps, axis=1)[:, -1], 1.0, atol=1e-15)  # each up to sign
        assert np.allclose(overlaps @ overlaps.T, np.eye(24), atol=1e-15)
