"""The stationary state, two independent ways, in the dressed frame.

The closed-form route: in the dressed frame the steady state lives in a
nine-operator family (identity, the three dressed sigma_z's, their pair and
triple products, and one antisymmetric coherence operator Y).  The family
closes under the generator, so the coefficients solve a small linear system
whose solution is implemented here verbatim.

The numeric route: the generator's terms conserve two charges, and at
resonance the family's block splits off exactly (see
:mod:`neqfridge.dissipation`), so the kernel is that of the generator's
real 9x9 block on the family, one contraction of constant tables with the
point's weights and one real SVD.  The two routes adjudicate one another;
the package treats the null space as ground truth and the closed form as
the fast path validated against it.  :func:`solve_oracle` runs both on a
point's :class:`~neqfridge.dissipation.GeneratorParts`, built once by
:func:`~neqfridge.dissipation.build_generator_parts`, with one assembled
block whose action on each state's coordinates is that state's residual.
A state is its nine real coordinates on the normalised family, a scaling
of its family coefficients, which the currents and the invariants read
too; its dressed-frame density matrix is built on read, for its
positivity and the public ``rho`` property.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dissipation import FAMILY, FAMILY_NORMS, GeneratorParts, assemble_liouvillian
from .errors import DegenerateSteadyStateError
from .linalg import steady_null_space
from .model import ThermalPopulations

# a family coefficient 8 tr(F rho) / tr(F^2) is the state's coordinate tr(B rho) on the
# normalised B = F / |F| times 8 / |F|
_SCALE = 8.0 / FAMILY_NORMS


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
    """A steady state, its family ``coords``, with its decomposition and the norm of the
    generator's action on it."""

    coords: np.ndarray
    decomposition: SteadyDecomposition
    residual: float

    @property
    def rho(self) -> np.ndarray:
        """The dressed-frame density matrix, contracted from ``coords`` on each read."""
        return np.tensordot(self.coords, FAMILY, 1)


def _deviation_terms(pops: ThermalPopulations, p, g) -> tuple:
    """f = E1/T1 - (L2 - L3), d = 48 N p g / D and k = 24 N g^2 / D as ((f, P, phi), D, p, g):
    N = q1 r~2 q~3 - r1 q~2 r~3 (q = 1 - r) is r1 q~2 r~3 expm1(f) = q1 r~2 q~3 (-expm1(-f)),
    so it is P phi, P the larger product and phi of f's sign and magnitude -expm1(-|f|):
    nothing cancels or overflows.  d and k are homogeneous of degree 0 in (p, g), so p
    and g are first scaled, exactly, by the power of two that brings the larger below 1.
    """
    exponent = np.frexp(np.fmax(p, g))[1]
    p, g = np.ldexp(p, -exponent), np.ldexp(g, -exponent)
    f = pops.log_odds1 - pops.virtual_log_odds
    r1, rt2, rt3 = pops.r1, pops.rtilde2, pops.rtilde3
    q1, qt2, qt3 = 1.0 - r1, 1.0 - rt2, 1.0 - rt3  # ground-state populations
    larger = np.where(f < 0.0, r1 * qt2 * rt3, q1 * rt2 * qt3)
    om12 = r1 * qt2 + q1 * rt2
    om23 = rt2 * qt3 + qt2 * rt3
    om31 = r1 * rt3 + q1 * qt3
    return ((f, larger, np.copysign(np.expm1(-np.abs(f)), f)),
            9.0 * p * p + (14.0 + 4.0 * (om12 + om23 + om31)) * g * g, p, g)


def steady_coefficients(pops: ThermalPopulations, p: float, g: float) -> SteadyDecomposition:
    """Closed-form steady-state coefficients from the bath populations.

    The deviation d = 48 N p g / D is proportional to the imbalance between
    the two directions of the resonant three-body exchange, and its sign
    decides cooling; the remaining coefficients follow from the per-channel
    balance conditions through k = (g/p)(d/2) = 24 N g^2 / D, which is taken
    in the scaled (p, g) of :func:`_deviation_terms`, so g/p never overflows.
    """
    (_, larger, phi), den, p, g = _deviation_terms(pops, p, g)
    n = larger * phi
    d = 48.0 * n * p * g / den
    k = 24.0 * n * g * g / den
    s1, s2, s3 = pops.s1, pops.s2, pops.s3
    a1 = s1 + k
    a2 = s2 - k
    a3 = s3 + k
    b12 = 0.5 * (s1 * a2 + s2 * a1)
    b13 = 0.5 * (s1 * a3 + s3 * a1)
    b23 = 0.5 * (s2 * a3 + s3 * a2)
    c = (s1 * b23 + s2 * b13 + s3 * b12 - k) / 3.0
    return SteadyDecomposition(a1=a1, a2=a2, a3=a3, b12=b12, b13=b13, b23=b23, c=c, d=d)


def reconstruct_state(decomposition: SteadyDecomposition) -> np.ndarray:
    """The family coordinates of the state with these family coefficients."""
    return np.array([1.0, *decomposition.as_dict().values()]) / _SCALE


def decompose(coords: np.ndarray) -> SteadyDecomposition:
    """A state's family coefficients, in the Hilbert-Schmidt convention 8 <F, rho> / <F, F>,
    from its family coordinates; the identity's is one for a unit-trace state."""
    return SteadyDecomposition(*(coords[1:] * _SCALE[1:]).tolist())


def _result(coords: np.ndarray, decomposition: SteadyDecomposition, block: np.ndarray) -> SteadyStateResult:
    """The state of family coordinates ``coords``; its residual is the norm of ``block`` @ coords."""
    action = block @ coords
    # scaled by its largest entry's power of two (exact unless one underflows), no square overflows
    exponent = np.frexp(np.abs(action).max())[1]
    residual = np.ldexp(np.linalg.norm(np.ldexp(action, -exponent)), exponent)
    return SteadyStateResult(coords=coords, decomposition=decomposition, residual=float(residual))


def analytic_steady_state(parts: GeneratorParts, block: np.ndarray) -> SteadyStateResult:
    """Closed-form steady state of the point ``parts``; its residual is the norm
    of the action of ``block``, the point's assembled family block."""
    decomposition = steady_coefficients(parts.pops, parts.params.p, parts.params.g)
    return _result(reconstruct_state(decomposition), decomposition, block)


def numeric_steady_state(block: np.ndarray) -> SteadyStateResult:
    """Steady state from the kernel of the dressed generator's family ``block``."""
    kernel = steady_null_space(block)
    tr = kernel[0] * _SCALE[0]  # the identity's coordinate is tr(rho) / sqrt 8
    if abs(tr) < 1e-12:
        raise DegenerateSteadyStateError("kernel vector carries no trace")
    coords = kernel / tr
    return _result(coords, decompose(coords), block)


@dataclass(frozen=True)
class OracleSolve:
    """Both steady-state routes at one point, from one family block and one kernel solve."""

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
