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
residual.  A state is its 24 real sector coordinates, which the family
coefficients, the off-family leftover, the currents and the invariants read
through constant maps; its dressed-frame density matrix is built on read,
for its positivity and the public ``rho`` property.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .dissipation import MACHINE_CHARGES, GeneratorParts, assemble_liouvillian, sector_tables
from .errors import DegenerateSteadyStateError
from .linalg import charge_sectors, coordinates, pauli_basis, pauli_string, steady_null_space
from .model import SIGMA_Z1, SIGMA_Z2, SIGMA_Z3, ThermalPopulations

# The nine-operator family in the dressed frame (target, dressed spiral,
# dressed engine), in SteadyDecomposition order after the identity; the last
# entry is the coherence operator Y = -i s1+ s2~- s3~+ + i s1- s2~+ s3~-.
_FAMILY = np.array([
    np.eye(8), SIGMA_Z1, SIGMA_Z2, SIGMA_Z3,
    SIGMA_Z1 @ SIGMA_Z2, SIGMA_Z1 @ SIGMA_Z3, SIGMA_Z2 @ SIGMA_Z3, SIGMA_Z1 @ SIGMA_Z2 @ SIGMA_Z3,
    -1j * pauli_string("+-+") + 1j * pauli_string("-+-"),
], dtype=complex)


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
        return dict(vars(self))


@dataclass(frozen=True)
class SteadyStateResult:
    """A steady state, its charge-0 sector ``coords``, with its decomposition and
    solver diagnostics: the norm of the generator's action on it and the largest
    coefficient it leaves outside the family."""

    coords: np.ndarray
    decomposition: SteadyDecomposition
    residual: float
    off_family_max: float

    @property
    def rho(self) -> np.ndarray:
        """The dressed-frame density matrix, contracted from ``coords`` on each read."""
        return np.tensordot(self.coords, charge_sectors(MACHINE_CHARGES), 1)


@cache
def family_maps() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Constant maps of the charge-0 sector coordinates, read-only and built on first use:
    the family operators' coordinates (9, 24), the map from a state's coordinates to its
    family coefficients 8 <F_k, rho> / <F_k, F_k> (9, 24), and the map to the 64 Pauli-string
    coefficients of what the family leaves of the state (64, 24)."""
    basis = charge_sectors(MACHINE_CHARGES)
    family = coordinates(_FAMILY, basis)
    project = 8.0 * family / np.sum(family ** 2, axis=1, keepdims=True)  # <F_k, F_k> in the sector
    leftover = coordinates(pauli_basis(3), basis) @ (np.eye(len(basis)) - family.T @ project / 8.0)
    family.flags.writeable = project.flags.writeable = leftover.flags.writeable = False  # shared
    return family, project, leftover


@cache
def family_action() -> np.ndarray:
    """Each sector table on each family operator's coordinates, (14, 9, 24), built on first use."""
    return family_maps()[0] @ sector_tables().generator.transpose(0, 2, 1)


def deviation_coefficient(pops: ThermalPopulations, p: float, g: float) -> float:
    """Closed-form deviation coefficient d from the bath populations.

    d is proportional to the imbalance between the two directions of the
    resonant three-body exchange; its sign decides cooling.  It reads only
    r1 and the two mixed populations, so window and power searches call it
    without the other seven coefficients.  d is homogeneous of degree 0 in
    (p, g), so both are first scaled by the power of two that brings the
    larger below 1, exactly, which keeps g*g finite at any g.
    """
    unit = np.ldexp(1.0, -np.frexp(np.fmax(p, g))[1])
    p, g = p * unit, g * unit
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
    """The charge-0 sector coordinates of the state with these family coefficients."""
    return np.array([1.0, *decomposition.as_dict().values()]) @ family_maps()[0] / 8.0


def decompose(coords: np.ndarray) -> tuple[SteadyDecomposition, float]:
    """Project a state's sector coordinates onto the family; also return the largest leftover.

    Coefficients use the Hilbert-Schmidt convention 8 <B, rho> / <B, B>, so the identity
    coefficient of a unit-trace state is one.  The leftover is the largest coefficient on
    the dressed Pauli strings of what the family leaves of the state.
    """
    _, project, leftover = family_maps()
    return SteadyDecomposition(*project[1:] @ coords), float(np.max(np.abs(leftover @ coords)))


def _result(coords: np.ndarray, decomposition: SteadyDecomposition, off: float,
            block: np.ndarray) -> SteadyStateResult:
    """The state of sector coordinates ``coords``; its residual is the norm of ``block`` @ coords."""
    return SteadyStateResult(coords=coords, decomposition=decomposition,
                             residual=float(np.linalg.norm(block @ coords)), off_family_max=off)


def analytic_steady_state(parts: GeneratorParts, block: np.ndarray) -> SteadyStateResult:
    """Closed-form steady state of the point ``parts``; its residual is the norm
    of the action of ``block``, the point's assembled charge-0 block."""
    decomposition = steady_coefficients(parts.pops, parts.params.p, parts.params.g)
    coords = reconstruct_state(decomposition)
    return _result(coords, decomposition, decompose(coords)[1], block)


def numeric_steady_state(block: np.ndarray) -> SteadyStateResult:
    """Steady state from the kernel of the dressed generator's charge-0 ``block``, read
    on the sector's Pauli-type strings: the dressed dissipators keep diagonal states
    diagonal, so at g = 0 d comes out below 1e-30 (a lab-frame kernel leaves 1e-14)."""
    kernel = steady_null_space(block)
    tr = kernel @ family_maps()[0][0]  # the identity's coordinates are the basis' traces
    if abs(tr) < 1e-12:
        raise DegenerateSteadyStateError("kernel vector carries no trace")
    coords = kernel / tr
    return _result(coords, *decompose(coords), block)


@dataclass(frozen=True)
class OracleSolve:
    """Both steady-state routes at one point, from one charge-0 block and one kernel solve."""

    analytic: SteadyStateResult
    numeric: SteadyStateResult
    deltas: dict[str, float]

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
                       deltas={name: abs(a[name] - n[name]) for name in a})
