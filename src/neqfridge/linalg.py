"""Dense linear algebra on the small fixed dimensions used by the model.

Everything works on plain numpy arrays: 2x2 single-qubit operators, 4x4
fridge operators, 8x8 three-qubit operators and the 64x64 vectorized
generator.  Operators on several qubits are built once as Pauli strings,
products with one single-qubit factor per qubit.  Vectorization is
column-stacking throughout, so vec(A @ rho @ B) = kron(B.T, A) @ vec(rho).
The kernel solve reads a charge-conserving generator block by block, the
state's block in a real basis of Pauli-type strings.

Qubit ordering convention: |q1 q2 q3> with qubit 1 most significant, and
|0> is the *higher*-energy state of each qubit (sigma_z = |0><0| - |1><1|).
"""

from __future__ import annotations

import math
from functools import cache
from itertools import product

import numpy as np

from .errors import DegenerateSteadyStateError, NonHermitianGeneratorError, ParameterError

# a block whose singular values outside the kernel fall to this fraction of
# its largest one leaves the steady space degenerate
DEGENERACY_RATIO = 1e-9

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


def dissipator_superop(jump: np.ndarray) -> np.ndarray:
    """Matrix of rho -> L rho L+ - {L+L, rho}/2 under column-stacking, L = ``jump``."""
    jump = np.asarray(jump, dtype=complex)
    eye = np.eye(jump.shape[0], dtype=complex)
    half = -0.5 * jump.conj().T @ jump
    return sandwich_superop([jump, half, eye], [jump.conj().T, eye, half])


@cache
def pauli_basis(n_qubits: int) -> tuple[np.ndarray, np.ndarray]:
    """The d^2 Pauli strings of ``n_qubits`` qubits as a stack (d^2, d, d) and
    the matrix T whose columns are their vectorizations; T / sqrt(d) is unitary."""
    strings = np.array([pauli_string("".join(labels)) for labels in product("ixyz", repeat=n_qubits)])
    t = strings.reshape(len(strings), -1, order="F").T
    strings.flags.writeable = t.flags.writeable = False  # shared by every caller
    return strings, t


@cache
def charge_sectors(charges: tuple[int, ...]) -> tuple:
    """Blocks of a generator that maps |a><b| to operators of the same charge
    difference q_a - q_b: the charge-0 sector's orthonormal Hermitian basis
    B_j (n0, d, d), the unitary T0 of their vectorizations there, the
    ``np.ix_`` index of the charge-0 block and of each positive difference's
    block, and the mask of the entries between blocks.  The B_j are
    Gram-Schmidt over the Pauli strings cut to the sector, fewest x and y
    factors first, which keeps coherence noise out of a diagonal kernel.
    """
    q = np.asarray(charges)
    n_qubits = len(q).bit_length() - 1
    diff = np.subtract.outer(q, q).ravel(order="F")  # at vec position a + d b
    weights = [sum(c in "xy" for c in labels) for labels in product("ixyz", repeat=n_qubits)]
    basis: list[np.ndarray] = []
    for v in pauli_basis(n_qubits)[1].T[np.argsort(weights, kind="stable")] * (diff == 0):
        v = v - sum(np.vdot(b, v) * b for b in basis)
        if np.linalg.norm(v) > 1e-9:
            basis.append(v / np.linalg.norm(v))
    vecs = np.array(basis)
    positions = [np.flatnonzero(diff == c) for c in np.unique(diff[diff >= 0])]  # 0 first
    out = (vecs.reshape(-1, len(q), len(q)).transpose(0, 2, 1), vecs[:, positions[0]].T,
           np.subtract.outer(diff, diff) != 0, *positions)
    for array in out:
        array.flags.writeable = False  # shared by every caller
    blocks = tuple(np.ix_(idx, idx) for idx in positions)
    return out[0], out[1], blocks[0], blocks[1:], out[2]


def steady_null_space(liouvillian: np.ndarray, charges: tuple[int, ...] | None = None) -> np.ndarray:
    """Unique trace-one Hermitian kernel state of a Lindblad generator matrix.

    G acts on the operators of n >= 1 qubits (else :class:`ParameterError`)
    and conserves the ``charges`` of the basis states (all 0 when omitted).
    The state is sum_j v_j B_j, v the right singular vector of the smallest
    singular value of the charge-0 block G_0 = T0^+ G T0 (:func:`charge_sectors`),
    which is real for a generator that preserves Hermiticity (an imaginary
    part above 1e-12 of the real one raises :class:`NonHermitianGeneratorError`).
    The block of difference -c conjugates that of +c, so G_0 and the positive
    blocks hold every singular value of G.  Each block is judged against its
    own largest singular value: a second one of G_0, or any one of a positive
    block, at or below ``DEGENERACY_RATIO`` times it signals a degenerate
    steady space (an all-zero block included).
    """
    liouvillian = np.asarray(liouvillian, dtype=complex)
    d = math.isqrt(liouvillian.shape[0])
    if liouvillian.shape != (d * d, d * d) or d < 2 or d & (d - 1):
        raise ParameterError(
            f"generator of shape {liouvillian.shape} does not act on the operators "
            "of n >= 1 qubits: its side must be 4^n")
    strings, t0, block0, blocks, _ = charge_sectors(charges or (0,) * d)
    rotated = t0.conj().T @ liouvillian[block0] @ t0
    if np.max(np.abs(rotated.imag)) > 1e-12 * np.max(np.abs(rotated.real)):
        raise NonHermitianGeneratorError("generator does not preserve Hermiticity")
    _, s, vh = np.linalg.svd(rotated.real)
    others = [np.linalg.svd(liouvillian[block], compute_uv=False) for block in blocks]
    for values in (s[:-1], *others):  # per block, largest first; G_0's kernel value left out
        if values[-1] <= DEGENERACY_RATIO * values[0]:
            raise DegenerateSteadyStateError(
                f"steady space is degenerate: singular values {values[-1]:.3e}, {s[-1]:.3e} "
                f"at or below threshold {DEGENERACY_RATIO:.0e} * {values[0]:.3e}"
            )
    rho = np.tensordot(vh[-1], strings, axes=1)
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
