import numpy as np
import pytest

from neqfridge import (
    DegenerateSteadyStateError,
    LindbladChannel,
    ModelParams,
    NeqFridgeError,
    NonHermitianGeneratorError,
    ParameterError,
    analytic_steady_state,
    assemble_liouvillian,
    build_generator_parts,
    embed,
    kron,
    partial_trace,
    steady_null_space,
    thermal_population,
    unvec,
    vec,
)
from neqfridge.linalg import (
    IDENTITY_2,
    SIGMA_MINUS,
    SIGMA_PLUS,
    SIGMA_Z,
    commutator_superop,
    density_matrix_defects,
    pauli_basis,
    rotate_superop,
)

from conftest import random_hermitian


class TestKron:
    def test_identity(self):
        assert np.array_equal(kron(IDENTITY_2, IDENTITY_2), np.eye(4))

    def test_sigma_z_pair(self):
        assert np.array_equal(kron(SIGMA_Z, SIGMA_Z), np.diag([1.0, -1.0, -1.0, 1.0]))

    def test_raising_lowering(self):
        # hand evaluation: single unit entry at row |01>, column |10>
        expected = np.zeros((4, 4))
        expected[1, 2] = 1.0
        assert np.array_equal(kron(SIGMA_PLUS, SIGMA_MINUS), expected)

    def test_associativity(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a, b, c = (random_hermitian(rng, 2) for _ in range(3))
            left = kron(kron(a, b), c)
            right = kron(a, kron(b, c))
            assert np.max(np.abs(left - right)) < 1e-14


class TestEmbed:
    def test_identity_slot(self):
        assert np.array_equal(embed(IDENTITY_2, 2), np.eye(8))

    def test_sigma_z_qubit1(self):
        assert np.array_equal(embed(SIGMA_Z, 1), np.diag([1.0] * 4 + [-1.0] * 4))

    def test_pair_raising_lowering(self):
        # sigma_2^+ sigma_3^- maps |q1 1 0> -> |q1 0 1>: unit entries per q1 state
        op = embed(kron(SIGMA_PLUS, SIGMA_MINUS), (2, 3))
        expected = np.zeros((8, 8))
        expected[0b001, 0b010] = 1.0
        expected[0b101, 0b110] = 1.0
        assert np.array_equal(op, expected)

    def test_slot_order_follows_tuple(self):
        direct = embed(kron(SIGMA_PLUS, SIGMA_MINUS), (3, 1))
        swapped = embed(kron(SIGMA_MINUS, SIGMA_PLUS), (1, 3))
        assert np.array_equal(direct, swapped)

    def test_agrees_with_explicit_kron(self):
        rng = np.random.default_rng(1)
        a = random_hermitian(rng, 2)
        assert np.allclose(embed(a, 2), kron(IDENTITY_2, kron(a, IDENTITY_2)))

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            embed(SIGMA_Z, 4)
        with pytest.raises(IndexError):
            embed(kron(SIGMA_Z, SIGMA_Z), (2, 2))


class TestPartialTrace:
    def test_product_factorization(self):
        t1 = np.diag([0.3, 0.7])
        t2 = np.diag([0.2, 0.8])
        t3 = np.diag([0.45, 0.55])
        rho = kron(t1, kron(t2, t3))
        assert np.allclose(partial_trace(rho, 1), t1, atol=1e-14)
        assert np.allclose(partial_trace(rho, (2, 3)), kron(t2, t3), atol=1e-14)

    def test_maximally_mixed(self):
        assert np.allclose(partial_trace(np.eye(8) / 8.0, (2, 3)), np.eye(4) / 4.0)

    def test_embed_duality(self):
        rng = np.random.default_rng(2)
        for qubits in (1, 2, 3, (1, 2), (2, 3), (1, 3)):
            k = 1 if isinstance(qubits, int) else 2
            a = random_hermitian(rng, 2 ** k)
            rho = random_hermitian(rng, 8)
            lhs = np.trace(embed(a, qubits) @ rho)
            rhs = np.trace(a @ partial_trace(rho, qubits))
            assert abs(lhs - rhs) < 1e-12

    def test_target_reduction_is_thermalish(self, p0):
        # reduced target state of the steady state is diagonal with the
        # Bloch-z component of the decomposition
        result = analytic_steady_state(p0)
        reduced = partial_trace(result.rho, 1)
        assert abs(reduced[0, 1]) < 1e-14
        bloch = (reduced[0, 0] - reduced[1, 1]).real
        assert abs(bloch - result.decomposition.a1) < 1e-12


class TestVectorization:
    def test_round_trip_exact(self):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        assert np.array_equal(unvec(vec(m)), m)

    def test_column_stacking_convention(self):
        rng = np.random.default_rng(4)
        a, x, b = (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)) for _ in range(3))
        assert np.allclose(np.kron(b.T, a) @ vec(x), vec(a @ x @ b))

    def test_commutator_superop(self):
        rng = np.random.default_rng(5)
        h = random_hermitian(rng, 4)
        x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        assert np.allclose(unvec(commutator_superop(h) @ vec(x)), -1j * (h @ x - x @ h))

    def test_dissipator_superop(self):
        rng = np.random.default_rng(6)
        jump = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        x = random_hermitian(rng, 4)
        anti = jump.conj().T @ jump
        direct = 0.7 * (jump @ x @ jump.conj().T - 0.5 * (anti @ x + x @ anti))
        channel = LindbladChannel(jumps=((jump, 0.7),))
        assert np.allclose(unvec(channel.superoperator() @ vec(x)), direct)


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
        assert np.max(np.abs(rho - kron(taus[0], kron(taus[1], taus[2])))) < 1e-12

    def test_decoupled_target_gives_dressed_product(self, p0):
        from neqfridge.model import resolve_resonance, thermal_populations
        from neqfridge.observables import product_state

        params = ModelParams(e1=1.0, e3=4.0, gamma=0.3, t1=4 / 3, t2=2.0, t3=4.0, p=0.01, g=0.0)
        rho = steady_null_space(assemble_liouvillian(build_generator_parts(params)))
        frame = resolve_resonance(params)
        pops = thermal_populations(params, frame)
        assert np.max(np.abs(rho - product_state(frame, pops))) < 1e-12

    def test_matches_closed_form_at_benchmark(self, p0):
        liouvillian = assemble_liouvillian(build_generator_parts(p0))
        rho = steady_null_space(liouvillian)
        assert np.max(np.abs(rho - analytic_steady_state(p0).rho)) < 1e-8
        assert np.linalg.norm(liouvillian @ vec(rho)) < 1e-10

    def test_output_is_density_matrix(self, p0):
        rho = steady_null_space(assemble_liouvillian(build_generator_parts(p0)))
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
        from neqfridge.dissipation import reset_channel

        channel = reset_channel(1, rate=0.1, population=0.3, n_qubits=2)
        with pytest.raises(DegenerateSteadyStateError):
            steady_null_space(channel.superoperator())


def _reset_generator(n_qubits):
    """Sum of one reset channel per qubit: a generator with a one-dimensional kernel."""
    from neqfridge.dissipation import reset_channel

    return sum(reset_channel(q, rate=0.1 * q, population=0.2 + 0.1 * q, n_qubits=n_qubits).superoperator()
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
        from neqfridge.model import resolve_resonance

        if case.startswith("p0"):
            generator = assemble_liouvillian(build_generator_parts(p0))
            if case == "p0_dressed":
                generator = rotate_superop(generator, resolve_resonance(p0).dressing)
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
        assert np.max(np.abs(rho - kron(np.diag([0.3, 0.7]), np.diag([0.4, 0.6])))) < 1e-14

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
