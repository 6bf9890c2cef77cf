import numpy as np
import pytest

from neqfridge import (
    DegenerateSteadyStateError,
    ModelParams,
    assemble_liouvillian,
    build_generator_parts,
    numeric_steady_state,
    solve_oracle,
    steady_null_space,
    thermal_population,
)
from neqfridge.linalg import (
    IDENTITY_2,
    SIGMA_MINUS,
    SIGMA_PLUS,
    SIGMA_Z,
    density_matrix_defects,
    pauli_basis,
    pauli_string,
)
from neqfridge.model import resonant_frame, tilde_populations

from conftest import (
    MACHINE_CHARGES,
    between_blocks,
    channel_superop,
    charge_sectors,
    charged_blocks,
    family_operator,
    full_generator,
    isometry,
    kron_commutator_superop,
    kron_dissipator_superop,
    kron_generator,
    lab_parts,
    pauli_null_space,
    random_hermitian,
    reset_channel,
    sector,
    to_lab,
    vec,
)


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
    # the column-stacking convention of the tests' kron-built 64x64 references
    def test_column_stacking_convention(self):
        rng = np.random.default_rng(4)
        a, x, b = (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)) for _ in range(3))
        assert np.allclose(np.kron(b.T, a) @ vec(x), vec(a @ x @ b))

    def test_kron_commutator_superop(self):
        rng = np.random.default_rng(5)
        h = random_hermitian(rng, 4)
        x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        assert np.allclose(kron_commutator_superop(h) @ vec(x), vec(-1j * (h @ x - x @ h)))

    def test_kron_dissipator_superop(self):
        rng = np.random.default_rng(6)
        jump = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        x = random_hermitian(rng, 4)
        anti = jump.conj().T @ jump
        direct = 0.7 * (jump @ x @ jump.conj().T - 0.5 * (anti @ x + x @ anti))
        assert np.allclose(kron_dissipator_superop(jump, 0.7) @ vec(x), vec(direct))


def sector_solve(generator: np.ndarray, charges: tuple[int, ...]) -> np.ndarray:
    """The trace-one kernel state of a charge-conserving generator, from the
    package's ``steady_null_space`` of its charge-0 block in the basis of ``charge_sectors``."""
    strings = charge_sectors(charges)
    t0 = isometry(strings)
    block = t0.conj().T @ generator @ t0
    assert np.max(np.abs(block.imag)) <= 1e-15 * np.max(np.abs(block.real))
    rho = np.tensordot(steady_null_space(block.real), strings, 1)
    return rho / np.trace(rho)


class TestSteadyNullSpace:
    # the package solves its generator on the steady family's block; lab-frame and
    # kron-built generators go to the full Pauli-basis reference
    def test_uncoupled_resets_give_bare_product(self):
        params = ModelParams(e1=1.0, e3=4.0, gamma=0.0, t1=4 / 3, t2=2.0, t3=4.0, p=0.01, g=0.0)
        rho = numeric_steady_state(assemble_liouvillian(build_generator_parts(params))).rho
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
        rho = pauli_null_space(kron_generator(lab_parts(build_generator_parts(params))))
        frame = resonant_frame(params.e1, params.e3, params.gamma)
        pops = tilde_populations(frame, params.t2, params.t3, t1=params.t1)
        assert np.max(np.abs(rho - to_lab(frame, family_operator(product_state(pops))))) < 1e-12

    def test_matches_closed_form_at_benchmark(self, p0):
        parts = build_generator_parts(p0)
        liouvillian = kron_generator(lab_parts(parts))
        rho = pauli_null_space(liouvillian)
        analytic = to_lab(parts.frame, solve_oracle(parts).analytic.rho)
        assert np.max(np.abs(rho - analytic)) < 1e-8
        assert np.linalg.norm(liouvillian @ vec(rho)) < 1e-10

    def test_output_is_density_matrix(self, p0):
        rho = numeric_steady_state(assemble_liouvillian(build_generator_parts(p0))).rho
        herm, trace_dev, min_eig = density_matrix_defects(rho)
        assert herm < 1e-12
        assert trace_dev < 1e-12
        assert min_eig > -1e-10

    def test_degenerate_kernel_detected(self):
        with pytest.raises(DegenerateSteadyStateError):
            steady_null_space(np.zeros((9, 9)))

    def test_genuinely_degenerate_generator_detected(self):
        # a reset channel touching only the target leaves the machine's
        # charge-0 operators stationary: a six-dimensional kernel on the sector
        channel = reset_channel(1, rate=0.1, population=0.3)
        with pytest.raises(DegenerateSteadyStateError, match="degenerate"):
            steady_null_space(sector(channel_superop(channel)).real)


def _reset_generator(n_qubits):
    """Sum of one reset channel per qubit: a generator with a one-dimensional kernel."""
    return sum(channel_superop(reset_channel(q, rate=0.1 * q, population=0.2 + 0.1 * q, n_qubits=n_qubits))
               for q in range(1, n_qubits + 1))


class TestPauliBasis:
    @pytest.mark.parametrize("n_qubits", [1, 2, 3])
    def test_strings_are_orthogonal_and_read_only(self, n_qubits):
        strings = pauli_basis(n_qubits)
        d = 2 ** n_qubits
        assert strings.shape == (d * d, d, d) and not strings.flags.writeable
        assert np.array_equal(np.einsum("aji,bji->ab", strings.conj(), strings), d * np.eye(d * d))
        assert np.array_equal(strings[1], pauli_string("i" * (n_qubits - 1) + "x"))

    @pytest.mark.parametrize("case", ["p0_dressed", "p0_lab", "reset_2", "reset_1"])
    def test_real_generator_keeps_the_singular_values(self, p0, case):
        if case.startswith("p0"):
            parts = build_generator_parts(p0)
            dressed = case == "p0_dressed"
            generator = full_generator(parts.weights) if dressed else kron_generator(lab_parts(parts))
        else:
            generator = _reset_generator(int(case[-1]))
        n_qubits = (generator.shape[0].bit_length() - 1) // 2
        t = isometry(pauli_basis(n_qubits))
        real = t.conj().T @ generator @ t / 2 ** n_qubits
        assert np.max(np.abs(real.imag)) <= 1e-12 * np.max(np.abs(real.real))
        s_real = np.linalg.svd(real.real, compute_uv=False)
        s_complex = np.linalg.svd(generator, compute_uv=False)
        assert np.max(np.abs(s_real - s_complex)) <= 1e-12 * s_complex[0]

    def test_reset_kernel_is_the_product_of_fixed_points(self):
        # with one charge for every state the sector is the whole operator space
        rho = sector_solve(_reset_generator(2), (0,) * 4)
        assert np.max(np.abs(rho - np.kron(np.diag([0.3, 0.7]), np.diag([0.4, 0.6])))) < 1e-14


def _population_generator(up: float, down: float, dephasing: float) -> np.ndarray:
    """One qubit: rates up (|0><0| from |1><1|) and down between the populations,
    coherences damped at ``dephasing``; vec positions |0><0|, |1><0|, |0><1|, |1><1|."""
    generator = np.diag([-down, -dephasing, -dephasing, -up]).astype(complex)
    generator[0, 3], generator[3, 0] = up, down
    return generator


class TestChargeBlocks:
    def test_the_charged_blocks_are_not_read(self):
        # the charge-0 sector holds the populations; the coherence |1><0| of
        # charge difference +1, 1e12 times stiffer or undamped, does not enter the solve
        for dephasing in (0.2, 1e12, 0.0):
            rho = sector_solve(_population_generator(0.3, 0.1, dephasing), (0, 1))
            assert np.max(np.abs(rho - np.diag([0.75, 0.25]))) < 1e-15

    @pytest.mark.parametrize("frame", ["dressed", "lab"])
    def test_blocks_hold_every_singular_value(self, p0, frame):
        parts = build_generator_parts(p0)
        generator = full_generator(parts.weights) if frame == "dressed" else kron_generator(lab_parts(parts))
        between = between_blocks()
        block0 = sector(generator)
        assert [generator[block].shape for block in charged_blocks()] == [(16, 16), (4, 4)]
        assert np.max(np.abs(generator[between])) <= 1e-15 * np.max(np.abs(generator))
        assert np.max(np.abs(block0.imag)) <= 1e-15 * np.max(np.abs(block0.real))
        block_values = [np.linalg.svd(block0.real, compute_uv=False)]
        for block in charged_blocks():  # the block of difference -c repeats that of +c
            block_values += 2 * [np.linalg.svd(generator[block], compute_uv=False)]
        union = np.sort(np.concatenate(block_values))[::-1]
        full = np.linalg.svd(generator, compute_uv=False)
        assert union.shape == full.shape
        assert np.max(np.abs(union - full)) <= 1e-12 * full[0]

    def test_charge_sector_basis_is_pauli_type(self):
        strings = charge_sectors(MACHINE_CHARGES)
        t0 = isometry(strings)
        assert t0.shape == (64, 24) and not strings.flags.writeable
        assert np.allclose(t0.conj().T @ t0, np.eye(24), atol=1e-15)
        machine = [pauli_string(labels) for labels in ("ii", "iz", "zi", "zz")]
        machine += [(pauli_string("xx") + pauli_string("yy")) / np.sqrt(2),
                    (pauli_string("xy") - pauli_string("yx")) / np.sqrt(2)]
        expected = [np.kron(pauli_string(p1), m) / np.sqrt(8) for p1 in "ixyz" for m in machine]
        overlaps = np.abs(np.einsum("aij,bij->ab", np.conj(expected), strings))
        assert np.allclose(np.sort(overlaps, axis=1)[:, -1], 1.0, atol=1e-15)  # each up to sign
        assert np.allclose(overlaps @ overlaps.T, np.eye(24), atol=1e-15)
