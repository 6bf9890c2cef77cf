"""The stationary state, two independent ways, in the dressed frame.

The closed-form route: in the dressed frame the steady state lives in a
nine-operator family (identity, the three dressed sigma_z's, their pair and
triple products, and one antisymmetric coherence operator Y).  The family
closes under the generator, so the coefficients solve a small linear system
whose solution is implemented here verbatim.

The numeric route: the dressed-frame generator conserves the machine charge
n2 + n3, and so does every family operator, so the steady state lives in
the charge-0 sector.  The generator's real 24x24 block there is one
contraction of constant sector tables with the point's weights, and the
kernel is one real SVD of it.  The two routes adjudicate one another; the
package treats the null space as ground truth and the closed form as the
fast path validated against it.  :func:`solve_oracle` runs both on a
point's :class:`~neqfridge.dissipation.GeneratorParts`, built once by
:func:`~neqfridge.dissipation.build_generator_parts`, with one assembled
block whose action on each state's sector coordinates is that state's
residual.  Every state here is a dressed-frame density matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .dissipation import (MACHINE_CHARGES, GeneratorParts, assemble_liouvillian, generator_tables,
                          sector_tables)
from .errors import DegenerateSteadyStateError
from .linalg import charge_sectors, pauli_basis, pauli_string, steady_null_space, vec
from .model import SIGMA_Z1, SIGMA_Z2, SIGMA_Z3, ThermalPopulations

# The nine-operator family in the dressed frame (target, dressed spiral,
# dressed engine), in SteadyDecomposition order after the identity; the last
# entry is the coherence operator Y = -i s1+ s2~- s3~+ + i s1- s2~+ s3~-.
_FAMILY = np.array([
    np.eye(8), SIGMA_Z1, SIGMA_Z2, SIGMA_Z3,
    SIGMA_Z1 @ SIGMA_Z2, SIGMA_Z1 @ SIGMA_Z3, SIGMA_Z2 @ SIGMA_Z3, SIGMA_Z1 @ SIGMA_Z2 @ SIGMA_Z3,
    -1j * pauli_string("+-+") + 1j * pauli_string("-+-"),
], dtype=complex)
_FAMILY_NORM_SQ = np.einsum("kij,kij->k", _FAMILY.conj(), _FAMILY).real
# all 64 Pauli strings, the basis in which the off-family leftover is read
_PAULI_STRINGS = pauli_basis(3)[0]


@dataclass(frozen=True)
class SteadyDecomposition:
    """Coefficients of the steady state over the dressed operator family.

    a_i multiply the dressed sigma_z's, b_ij the pair products, c the triple
    product, and d the coherence operator Y; d measures the deviation from
    the product of three thermal states and its sign decides cooling.
    """

    a1: float
    a2: float
    a3: float
    b12: float
    b13: float
    b23: float
    c: float
    d: float

    def as_dict(self) -> dict[str, float]:
        return {
            "a1": self.a1, "a2": self.a2, "a3": self.a3,
            "b12": self.b12, "b13": self.b13, "b23": self.b23,
            "c": self.c, "d": self.d,
        }


@dataclass(frozen=True)
class SteadyStateResult:
    """A dressed-frame steady state ``rho`` with its decomposition and solver
    diagnostics: the norm of the generator's action on it and the largest
    coefficient it leaves outside the family."""

    rho: np.ndarray
    decomposition: SteadyDecomposition
    residual: float
    off_family_max: float


@cache
def family_action() -> np.ndarray:
    """Each generator table on each dressed family operator, (14, 9, 8, 8), built on first use."""
    acted = _FAMILY.transpose(0, 2, 1).reshape(9, 64) @ generator_tables().transpose(0, 2, 1)
    return acted.reshape(14, 9, 8, 8).transpose(0, 1, 3, 2)  # from column-stacked


def deviation_coefficient(pops: ThermalPopulations, p: float, g: float) -> float:
    """Closed-form deviation coefficient d from the bath populations.

    d is proportional to the imbalance between the two directions of the
    resonant three-body exchange; its sign decides cooling.  It reads only
    r1 and the two mixed populations, so window and power searches call it
    without the other seven coefficients.
    """
    r1, rt2, rt3 = pops.r1, pops.rtilde2, pops.rtilde3
    q1, qt2, qt3 = 1.0 - r1, 1.0 - rt2, 1.0 - rt3  # ground-state populations
    numerator = 48.0 * (q1 * rt2 * qt3 - r1 * qt2 * rt3) * p * g
    om12 = r1 * qt2 + q1 * rt2
    om23 = rt2 * qt3 + qt2 * rt3
    om31 = r1 * rt3 + q1 * qt3
    return numerator / (9.0 * p * p + (14.0 + 4.0 * (om12 + om23 + om31)) * g * g)


def steady_coefficients(pops: ThermalPopulations, p: float, g: float) -> SteadyDecomposition:
    """Closed-form steady-state coefficients from the bath populations.

    The deviation d comes from :func:`deviation_coefficient`; the remaining
    coefficients follow from the per-channel balance conditions.
    """
    d = deviation_coefficient(pops, p, g)
    s1, s2, s3 = pops.s1, pops.s2, pops.s3
    k = (g / p) * (0.5 * d)
    a1 = s1 + k
    a2 = s2 - k
    a3 = s3 + k
    b12 = 0.5 * (s1 * a2 + s2 * a1)
    b13 = 0.5 * (s1 * a3 + s3 * a1)
    b23 = 0.5 * (s2 * a3 + s3 * a2)
    c = (s1 * b23 + s2 * b13 + s3 * b12 - k) / 3.0
    return SteadyDecomposition(a1=a1, a2=a2, a3=a3, b12=b12, b13=b13, b23=b23, c=c, d=d)


def reconstruct_state(decomposition: SteadyDecomposition) -> np.ndarray:
    """Dressed-frame density matrix from decomposition coefficients."""
    coeffs = np.array([1.0, *decomposition.as_dict().values()])
    return np.tensordot(coeffs, _FAMILY, 1) / 8.0


def decompose(rho: np.ndarray) -> tuple[SteadyDecomposition, float]:
    """Project a dressed-frame state onto the family; also return the largest leftover.

    Coefficients use the Hilbert-Schmidt convention 8 <B, rho> / <B, B>, so
    the identity coefficient of a unit-trace state is one.  The leftover is
    the largest coefficient on the dressed Pauli strings orthogonal to the
    family.
    """
    coeffs = 8.0 * np.einsum("kij,ij->k", _FAMILY.conj(), rho).real / _FAMILY_NORM_SQ
    coeffs[0] = 1.0  # the reconstruction keeps unit trace
    leftover = rho - np.tensordot(coeffs, _FAMILY, 1) / 8.0
    off = np.max(np.abs(np.einsum("kij,ij->k", _PAULI_STRINGS.conj(), leftover)))
    return SteadyDecomposition(*coeffs[1:]), float(off)


def _result(rho: np.ndarray, decomposition: SteadyDecomposition, off: float,
            block: np.ndarray) -> SteadyStateResult:
    """The result for ``rho``, with the norm of ``block`` times rho's coordinates on
    the charge-0 sector as its residual."""
    coords = charge_sectors(MACHINE_CHARGES)[1].conj().T @ vec(rho)
    return SteadyStateResult(rho=rho, decomposition=decomposition,
                             residual=float(np.linalg.norm(block @ coords)), off_family_max=off)


def analytic_steady_state(parts: GeneratorParts, block: np.ndarray) -> SteadyStateResult:
    """Closed-form steady state of the point ``parts``; its residual is the norm
    of the action of ``block``, the point's assembled charge-0 block."""
    decomposition = steady_coefficients(parts.pops, parts.params.p, parts.params.g)
    rho = reconstruct_state(decomposition)
    return _result(rho, decomposition, decompose(rho)[1], block)


def numeric_steady_state(block: np.ndarray) -> SteadyStateResult:
    """Steady state from the kernel of the dressed generator's charge-0 ``block``, read
    on the sector's Pauli-type strings: the dressed dissipators keep diagonal states
    diagonal, so at g = 0 d comes out below 1e-30 (a lab-frame kernel leaves 1e-14)."""
    rho = np.tensordot(steady_null_space(block), charge_sectors(MACHINE_CHARGES)[0], 1)
    tr = np.trace(rho)
    if abs(tr) < 1e-12:
        raise DegenerateSteadyStateError("kernel vector carries no trace")
    rho = 0.5 * (rho + rho.conj().T) / tr
    return _result(rho, *decompose(rho), block)


@dataclass(frozen=True)
class OracleSolve:
    """Both steady-state routes at one point, from one charge-0 block and one
    kernel solve.  ``charge_leakage`` is the generator tables' largest entry
    between charge blocks, which the sector solve drops, over their largest entry."""

    analytic: SteadyStateResult
    numeric: SteadyStateResult
    deltas: dict[str, float]
    charge_leakage: float

    @property
    def max_delta(self) -> float:
        return max(self.deltas.values())


def solve_oracle(parts: GeneratorParts) -> OracleSolve:
    """Solve the point ``parts`` both ways and compare the routes coefficient by coefficient.

    Raises :class:`DegenerateSteadyStateError` when the generator kernel is
    not one-dimensional.
    """
    block = assemble_liouvillian(parts)
    analytic = analytic_steady_state(parts, block)
    numeric = numeric_steady_state(block)
    a = analytic.decomposition.as_dict()
    n = numeric.decomposition.as_dict()
    return OracleSolve(analytic=analytic, numeric=numeric,
                       deltas={name: abs(a[name] - n[name]) for name in a},
                       charge_leakage=sector_tables()[1])
