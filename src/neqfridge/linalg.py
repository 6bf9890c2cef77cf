"""Dense linear algebra on the small fixed dimensions used by the model.

Everything works on plain numpy arrays: 2x2 single-qubit operators, 4x4
fridge operators, 8x8 three-qubit operators and the 64x64 vectorized
generator.  Operators on several qubits are built once as Pauli strings,
products with one single-qubit factor per qubit.  Vectorization is column-stacking throughout, so that
vec(A @ rho @ B) = kron(B.T, A) @ vec(rho).  Operators and generators are
complex; the kernel solve takes the generator into the Pauli-string basis,
where a Hermiticity-preserving generator is a real matrix.

Qubit ordering convention: |q1 q2 q3> with qubit 1 most significant, and
|0> is the *higher*-energy state of each qubit (sigma_z = |0><0| - |1><1|).
"""

from __future__ import annotations

import math
from functools import cache
from itertools import product

import numpy as np

from .errors import DegenerateSteadyStateError, NonHermitianGeneratorError, ParameterError

IDENTITY_2 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
SIGMA_PLUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)   # |0><1|
SIGMA_MINUS = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)  # |1><0|


_SINGLE_QUBIT = {
    "i": IDENTITY_2,
    "x": SIGMA_X,
    "y": SIGMA_Y,
    "z": SIGMA_Z,
    "+": SIGMA_PLUS,
    "-": SIGMA_MINUS,
}


def pauli_string(labels: str) -> np.ndarray:
    """Product operator over one label per qubit from {'i','x','y','z','+','-'}.

    The first label acts on qubit 1, e.g. ``'z+i'`` is sigma_1^z sigma_2^+.
    The model builds its constant operator tables with it.
    """
    out = np.ones((1, 1), dtype=complex)
    for label in labels:
        out = np.kron(out, _SINGLE_QUBIT[label])
    return out


def vec(m: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization, the convention of every superoperator here."""
    return np.asarray(m, dtype=complex).reshape(-1, order="F")


def sandwich_superop(lefts: np.ndarray, rights: np.ndarray) -> np.ndarray:
    """Matrix of rho -> sum_k lefts[k] @ rho @ rights[k] under column-stacking.

    ``lefts`` and ``rights`` are stacks (k, d, d); the matrix is the sum of
    kron(rights[k].T, lefts[k]), formed as one contraction over k.
    """
    lefts = np.asarray(lefts, dtype=complex)
    rights = np.asarray(rights, dtype=complex)
    dim = lefts.shape[-1]
    # entry [(b, a), (d, c)] of kron(B.T, A) is B[d, b] A[a, c]
    terms = np.tensordot(rights, lefts, axes=(0, 0))
    return terms.transpose(1, 2, 0, 3).reshape(dim * dim, dim * dim)


def commutator_superop(h: np.ndarray) -> np.ndarray:
    """Matrix of rho -> -i[h, rho] under column-stacking."""
    h = np.asarray(h, dtype=complex)
    eye = np.eye(h.shape[0], dtype=complex)
    return sandwich_superop([-1j * h, eye], [eye, 1j * h])


def rotate_superop(superop: np.ndarray, u: np.ndarray) -> np.ndarray:
    """S G S^+ with S = kron(conj u, u), the matrix of rho -> u rho u^+.

    This is the generator G acting on operators written in the basis that u
    rotates into.  S is never formed: u and conj u act on the two halves of
    the row index, and again on the column index through the adjoint.
    """
    u = np.asarray(u, dtype=complex)
    d = u.shape[0]

    def rotate_rows(m: np.ndarray) -> np.ndarray:
        half = np.matmul(u, m.reshape(d, d, d * d))
        return (u.conj() @ half.reshape(d, d ** 3)).reshape(d * d, d * d)

    return rotate_rows(rotate_rows(np.asarray(superop, dtype=complex)).conj().T).conj().T


@cache
def pauli_basis(n_qubits: int) -> tuple[np.ndarray, np.ndarray]:
    """The d^2 Pauli strings of ``n_qubits`` qubits as a stack (d^2, d, d) and
    the matrix T whose columns are their vectorizations; T / sqrt(d) is unitary."""
    strings = np.array([pauli_string("".join(labels)) for labels in product("ixyz", repeat=n_qubits)])
    t = strings.reshape(len(strings), -1, order="F").T
    strings.flags.writeable = t.flags.writeable = False  # shared by every caller
    return strings, t


def steady_null_space(liouvillian: np.ndarray, degeneracy_ratio: float = 1e-9) -> np.ndarray:
    """Unique trace-one Hermitian kernel state of a Lindblad generator matrix.

    The generator G acts on operators of dimension d = 2^n (n >= 1 qubits);
    any other dimension raises :class:`ParameterError`.  The kernel is read in
    the Pauli-string basis, G_r = T^+ G T / d with the columns of T the
    vectorized strings P_b.  A generator that preserves Hermiticity is real
    there; an imaginary part above 1e-12 of the real one raises
    :class:`NonHermitianGeneratorError`.  T / sqrt(d) is unitary, so G_r has
    the singular values of G.  The kernel vector v is the right singular
    vector of the smallest one, and the state is sum_b v_b P_b; a second
    singular value below ``degeneracy_ratio * s_max`` signals a degenerate
    steady space.
    """
    liouvillian = np.asarray(liouvillian, dtype=complex)
    d = math.isqrt(liouvillian.shape[0])
    n_qubits = d.bit_length() - 1
    if liouvillian.shape != (d * d, d * d) or d < 2 or d != 1 << n_qubits:
        raise ParameterError(
            f"generator of shape {liouvillian.shape} does not act on the operators "
            "of n >= 1 qubits: its side must be 4^n")
    strings, t = pauli_basis(n_qubits)
    rotated = t.conj().T @ liouvillian @ t / d
    if np.max(np.abs(rotated.imag)) > 1e-12 * np.max(np.abs(rotated.real)):
        raise NonHermitianGeneratorError("generator does not preserve Hermiticity")
    _, s, vh = np.linalg.svd(rotated.real)
    if s[0] == 0.0 or s[-2] < degeneracy_ratio * s[0]:
        raise DegenerateSteadyStateError(
            f"steady space is degenerate: singular values {s[-2]:.3e}, {s[-1]:.3e} "
            f"below threshold {degeneracy_ratio:.0e} * {s[0]:.3e}"
        )
    rho = np.tensordot(vh[-1], strings, axes=1) / math.sqrt(d)
    tr = np.trace(rho)
    if abs(tr) < 1e-12:
        raise DegenerateSteadyStateError("kernel vector carries no trace")
    rho = rho / tr
    return 0.5 * (rho + rho.conj().T)


def hermiticity_defect(m: np.ndarray) -> float:
    """Largest entrywise deviation from m = m+."""
    m = np.asarray(m)
    return float(np.max(np.abs(m - m.conj().T)))


def density_matrix_defects(rho: np.ndarray) -> tuple[float, float, float]:
    """(hermiticity defect, |trace - 1|, smallest eigenvalue) of a candidate state."""
    herm = hermiticity_defect(rho)
    trace_dev = abs(np.trace(rho) - 1.0)
    min_eig = float(np.min(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))))
    return herm, float(trace_dev), min_eig
