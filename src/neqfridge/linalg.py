"""Dense linear algebra on the small fixed dimensions used by the model.

Everything works on plain numpy arrays: 2x2 single-qubit operators, 4x4
fridge operators and 8x8 three-qubit operators.  Operators on several
qubits are built as Pauli strings, products with one single-qubit factor
per qubit.  A generator is solved on a block that it maps to itself, a real
matrix in an orthonormal basis of Hermitian operators, in which a state is
its real coordinates.

Qubit ordering convention: |q1 q2 q3> with qubit 1 most significant, and
|0> is the *higher*-energy state of each qubit (sigma_z = |0><0| - |1><1|).
"""

from __future__ import annotations

from functools import cache
from itertools import product

import numpy as np

from .errors import DegenerateSteadyStateError

# a generator block whose second smallest singular value falls to this
# fraction of its largest one leaves the steady space degenerate
DEGENERACY_RATIO = 1e-9

IDENTITY_2 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
SIGMA_PLUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)   # |0><1|
SIGMA_MINUS = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)  # |1><0|
_SINGLE_QUBIT = dict(zip("ixyz+-", (IDENTITY_2, SIGMA_X, SIGMA_Y, SIGMA_Z, SIGMA_PLUS, SIGMA_MINUS)))


def pauli_string(labels: str) -> np.ndarray:
    """Product operator over one label per qubit from {'i','x','y','z','+','-'}.

    The first label acts on qubit 1, e.g. ``'z+i'`` is sigma_1^z sigma_2^+.
    The model builds its constant operator tables with it.
    """
    out = np.ones((1, 1), dtype=complex)
    for label in labels:
        out = np.kron(out, _SINGLE_QUBIT[label])
    return out


@cache
def pauli_basis(n_qubits: int) -> np.ndarray:
    """The d^2 Pauli strings of ``n_qubits`` qubits as a read-only stack (d^2, d, d)."""
    strings = np.array([pauli_string("".join(labels)) for labels in product("ixyz", repeat=n_qubits)])
    strings.flags.writeable = False  # shared by every caller
    return strings


def coordinates(ops: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """The real coordinates tr(B_j A) of Hermitian operators A (..., d, d) on an orthonormal
    Hermitian basis B_j (n, d, d); A is their sum over the B_j if it lies in their span."""
    return np.einsum("...ij,nji->...n", ops, basis).real


def steady_null_space(block: np.ndarray) -> np.ndarray:
    """Unit kernel vector of a real generator block, the right singular vector of its
    smallest singular value.  A second singular value at or below ``DEGENERACY_RATIO``
    times the largest signals a degenerate steady space (an all-zero block included)."""
    k = np.frexp(np.abs(block).max())[1]  # the block over its largest entry's power of two
    _, s, vh = np.linalg.svd(np.ldexp(block, -k))
    if s[-2] <= DEGENERACY_RATIO * s[0]:
        raise DegenerateSteadyStateError(
            f"steady space is degenerate: singular values {abs(s[-2]):.3e}, {abs(s[-1]):.3e} "
            f"at or below threshold {DEGENERACY_RATIO:.0e} * {s[0]:.3e}, in units of 2^{k}")
    return vh[-1]


def density_matrix_defects(rho: np.ndarray) -> tuple[float, float, float]:
    """(largest entry of rho - rho+, |trace - 1|, smallest eigenvalue) of a candidate state."""
    herm = float(np.max(np.abs(rho - rho.conj().T)))
    trace_dev = abs(np.trace(rho) - 1.0)
    min_eig = float(np.min(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))))
    return herm, float(trace_dev), min_eig
