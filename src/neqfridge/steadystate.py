"""The stationary state, two independent ways.

The closed-form route: in the dressed frame the steady state lives in a
nine-operator family (identity, the three dressed sigma_z's, their pair and
triple products, and one antisymmetric coherence operator Y).  The family
closes under the generator, so the coefficients solve a small linear system
whose solution is implemented here verbatim.

The numeric route: the 64x64 generator is assembled and its kernel extracted
by singular value decomposition.  The two routes adjudicate one another; the
package treats the null space as ground truth and the closed form as the
fast path validated against it; :func:`solve_oracle` runs both at one point
from one generator.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .dissipation import GeneratorParts, assemble_liouvillian, build_generator_parts
from .errors import ParameterError
from .linalg import IDENTITY_2, SIGMA_MINUS, SIGMA_PLUS, SIGMA_X, SIGMA_Y, SIGMA_Z, steady_null_space
from .model import Frame, ModelParams, ThermalPopulations


def _string(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    return np.kron(a, np.kron(b, c))


# The nine-operator family in the dressed frame (target, dressed spiral,
# dressed engine), in SteadyDecomposition order after the identity; the last
# entry is the coherence operator Y = -i s1+ s2~- s3~+ + i s1- s2~+ s3~-.
_Z1 = _string(SIGMA_Z, IDENTITY_2, IDENTITY_2)
_Z2 = _string(IDENTITY_2, SIGMA_Z, IDENTITY_2)
_Z3 = _string(IDENTITY_2, IDENTITY_2, SIGMA_Z)
_FAMILY_NAMES = ("identity", "a1", "a2", "a3", "b12", "b13", "b23", "c", "d")
_FAMILY = np.array([
    np.eye(8), _Z1, _Z2, _Z3, _Z1 @ _Z2, _Z1 @ _Z3, _Z2 @ _Z3, _Z1 @ _Z2 @ _Z3,
    -1j * _string(SIGMA_PLUS, SIGMA_MINUS, SIGMA_PLUS) + 1j * _string(SIGMA_MINUS, SIGMA_PLUS, SIGMA_MINUS),
], dtype=complex)
_FAMILY_NORM_SQ = np.einsum("kij,kij->k", _FAMILY.conj(), _FAMILY).real
# all 64 Pauli strings, the basis in which the off-family leftover is read
_PAULI_STRINGS = np.array([_string(*labels) for labels in
                           product((IDENTITY_2, SIGMA_X, SIGMA_Y, SIGMA_Z), repeat=3)])


def _dressing(frame: Frame) -> np.ndarray:
    """W with W^+ B W the lab-frame form of a dressed-frame operator B."""
    return np.kron(IDENTITY_2, frame.unitary)


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
    """A steady state with its decomposition and solver diagnostics."""

    rho: np.ndarray
    decomposition: SteadyDecomposition
    method: str  # "analytic" | "numeric"
    residual: float
    off_family_max: float


def family_operators(frame: Frame) -> dict[str, np.ndarray]:
    """The nine-operator family spanning the steady state, keyed by name."""
    w = _dressing(frame)
    return dict(zip(_FAMILY_NAMES, w.conj().T @ _FAMILY @ w))


def steady_coefficients(pops: ThermalPopulations, p: float, g: float) -> SteadyDecomposition:
    """Closed-form steady-state coefficients from the bath populations.

    The deviation d is proportional to the imbalance between the two
    directions of the resonant three-body exchange; the remaining
    coefficients follow from the per-channel balance conditions.
    """
    if pops.r1 is None or pops.s1 is None:
        raise ParameterError("populations lack the target entry r1")
    r1, rt2, rt3 = pops.r1, pops.rtilde2, pops.rtilde3
    s1, s2, s3 = pops.s1, pops.s2, pops.s3
    numerator = 48.0 * ((1.0 - r1) * rt2 * (1.0 - rt3) - r1 * (1.0 - rt2) * rt3) * p * g
    om12 = r1 * (1.0 - rt2) + (1.0 - r1) * rt2
    om23 = rt2 * (1.0 - rt3) + (1.0 - rt2) * rt3
    om31 = r1 * rt3 + (1.0 - r1) * (1.0 - rt3)
    d = numerator / (9.0 * p * p + (14.0 + 4.0 * (om12 + om23 + om31)) * g * g)
    k = (g / p) * (0.5 * d)
    a1 = s1 + k
    a2 = s2 - k
    a3 = s3 + k
    b12 = 0.5 * (s1 * a2 + s2 * a1)
    b13 = 0.5 * (s1 * a3 + s3 * a1)
    b23 = 0.5 * (s2 * a3 + s3 * a2)
    c = (s1 * b23 + s2 * b13 + s3 * b12 - k) / 3.0
    return SteadyDecomposition(a1=a1, a2=a2, a3=a3, b12=b12, b13=b13, b23=b23, c=c, d=d)


def reconstruct_state(decomposition: SteadyDecomposition, frame: Frame) -> np.ndarray:
    """Lab-frame density matrix from decomposition coefficients."""
    w = _dressing(frame)
    coeffs = np.array([1.0, *decomposition.as_dict().values()])
    return w.conj().T @ np.tensordot(coeffs, _FAMILY, 1) @ w / 8.0


def decompose(rho: np.ndarray, frame: Frame) -> tuple[SteadyDecomposition, float]:
    """Project a state onto the family; also return the largest leftover.

    Coefficients use the Hilbert-Schmidt convention 8 <B, rho> / <B, B>, so
    the identity coefficient of a unit-trace state is one.  The leftover is
    the largest coefficient on the dressed Pauli strings orthogonal to the
    family.  Both are read off one basis change into the dressed frame.
    """
    w = _dressing(frame)
    dressed = w @ rho @ w.conj().T
    coeffs = 8.0 * np.einsum("kij,ij->k", _FAMILY.conj(), dressed).real / _FAMILY_NORM_SQ
    coeffs[0] = 1.0  # the reconstruction keeps unit trace
    leftover = dressed - np.tensordot(coeffs, _FAMILY, 1) / 8.0
    off = np.max(np.abs(np.einsum("kij,ij->k", _PAULI_STRINGS.conj(), leftover)))
    return SteadyDecomposition(*coeffs[1:]), float(off)


def analytic_steady_state(params: ModelParams, parts: GeneratorParts | None = None) -> SteadyStateResult:
    """Closed-form steady state reconstructed in the lab frame.

    ``parts`` is the point's generator, built here when not given; the
    residual is the norm of its action on the state.
    """
    parts = parts if parts is not None else build_generator_parts(params)
    decomposition = steady_coefficients(parts.pops, params.p, params.g)
    rho = reconstruct_state(decomposition, parts.frame)
    _, off = decompose(rho, parts.frame)
    return SteadyStateResult(
        rho=rho, decomposition=decomposition, method="analytic",
        residual=float(np.linalg.norm(parts.apply(rho))), off_family_max=off,
    )


def numeric_steady_state(params: ModelParams, parts: GeneratorParts | None = None) -> SteadyStateResult:
    """Steady state from the kernel of the assembled generator.

    ``parts`` is the point's generator, built here when not given.
    """
    parts = parts if parts is not None else build_generator_parts(params)
    rho = steady_null_space(assemble_liouvillian(parts))
    decomposition, off = decompose(rho, parts.frame)
    return SteadyStateResult(
        rho=rho, decomposition=decomposition, method="numeric",
        residual=float(np.linalg.norm(parts.apply(rho))), off_family_max=off,
    )


@dataclass(frozen=True)
class OracleSolve:
    """Both steady-state routes at one point, from one generator and one SVD."""

    parts: GeneratorParts
    analytic: SteadyStateResult
    numeric: SteadyStateResult
    deltas: dict[str, float]

    @property
    def max_delta(self) -> float:
        return max(self.deltas.values())


def solve_oracle(
    params: ModelParams,
    frame: Frame | None = None,
    pops: ThermalPopulations | None = None,
) -> OracleSolve:
    """Solve one point both ways and compare the routes coefficient by coefficient.

    Raises :class:`DegenerateSteadyStateError` when the generator kernel is
    not one-dimensional.
    """
    parts = build_generator_parts(params, frame, pops)
    analytic = analytic_steady_state(params, parts)
    numeric = numeric_steady_state(params, parts)
    a = analytic.decomposition.as_dict()
    n = numeric.decomposition.as_dict()
    return OracleSolve(parts=parts, analytic=analytic, numeric=numeric,
                       deltas={name: abs(a[name] - n[name]) for name in a})
