"""The dissipators and the generator on the steady family, in the dressed frame.

The target bath acts through a local reset on qubit 1.  Baths 2 and 3 act
on the strongly coupled machine through jumps that are eigenoperators of the
machine Hamiltonian, so dissipation produces transitions between machine
eigenstates without destroying them.  On the steady-state operator family
these delocalized channels are equivalent to two local reset channels on
the dressed qubits (the "tilde" channels; Hofer et al., NJP 19, 123037
(2017)).

In the dressed frame every jump is a constant Pauli-string table times a
prefactor, so the generator is a sum of 14 constant terms, each weighted by
the point: the commutators with the Hamiltonian's four terms and the unit
dissipators of ten jumps.  Every term conserves two charges, the machine's
n2 + n3 and n1 + n2, so the ten operators neutral under both (the eight Z
products and the two quadratures X and Y of |010><101|) map among
themselves.  There the free Hamiltonian's terms are one table, Z1 = -Z2 =
Z3, at the weight (E1 - eps2 + eps3)/2 that resonance makes zero, and the
other 11 terms keep the steady state's nine-operator family (the identity,
the seven Z products and Y) invariant without touching X, the tripartite
term's own quadrature.  So the oracle reads those 11 terms on the family
only: their action on 8x8 operators is read once on its nine normalised
operators, and every per-point operator is a real 9x9 block acting on a
state's nine family coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from typing import NamedTuple

import numpy as np

from .linalg import coordinates, pauli_basis, pauli_string
from .model import (
    _TRIPARTITE,
    SIGMA_Z1,
    SIGMA_Z2,
    SIGMA_Z3,
    Frame,
    ModelParams,
    ThermalPopulations,
    _delta_e,
    _frame_at,
    tilde_populations,
)

# the dressed ladders of the four nonzero machine jumps: projecting sigma_mu^+
# onto the machine eigenbasis leaves them, with prefactors (cos, sin, cos, -sin)
# of theta/2; bath 2 drives the first two and bath 3 the last two
_JUMP_STRINGS = np.array([pauli_string("i" + ops) for ops in ("+i", "z+", "i+", "+z")])
# the raising jumps of the generator: the target's, then the machine's
_DRESSED_JUMPS = np.concatenate([pauli_string("+ii")[None], _JUMP_STRINGS])
# the Hamiltonian's terms Z1, Z2, Z3 and the tripartite T, at weights E1/2, eps2/2, eps3/2 and g
_HAMILTONIANS = np.array([SIGMA_Z1, SIGMA_Z2, SIGMA_Z3, _TRIPARTITE])
# the machine charge n2 + n3 and the charge n1 + n2 of each basis state |q1 q2 q3>;
# every term conserves both
_CHARGES = np.array([[bin(state & mask).count("1") for state in range(8)] for mask in (3, 6)])
# the steady state's nine-operator family, in SteadyDecomposition order after the identity:
# the identity, the dressed sigma_z's, their pair and triple products and the coherence
# Y = -i s1+ s2~- s3~+ + i s1- s2~+ s3~-, each divided by its Hilbert-Schmidt norm
FAMILY_NORMS = np.sqrt([8.0] * 8 + [2.0])
FAMILY = np.array([
    np.eye(8), SIGMA_Z1, SIGMA_Z2, SIGMA_Z3,
    SIGMA_Z1 @ SIGMA_Z2, SIGMA_Z1 @ SIGMA_Z3, SIGMA_Z2 @ SIGMA_Z3, SIGMA_Z1 @ SIGMA_Z2 @ SIGMA_Z3,
    -1j * pauli_string("+-+") + 1j * pauli_string("-+-"),
]) / FAMILY_NORMS[:, None, None]
FAMILY.flags.writeable = False  # shared by every caller
# which bath (target, 2, 3) each dissipator term belongs to, the raising jumps' and then
# their adjoints', as a (3, 10) indicator (np.equal.outer would cost 0.25 MB at import)
_BATHS = np.eye(3)[[0, 1, 1, 2, 2] * 2].T


@dataclass(frozen=True)
class GeneratorParts:
    """Everything needed to evaluate the master equation at one point, or closed forms on a batch."""

    params: ModelParams
    frame: Frame
    pops: ThermalPopulations

    @cached_property
    def weights(self) -> np.ndarray:
        """The point's :func:`generator_weights`, computed once and read-only."""
        weights = generator_weights(self)
        weights.flags.writeable = False  # shared by every caller
        return weights


def build_generator_parts(params: ModelParams) -> GeneratorParts:
    """The model's frame and its bath populations.  The frame is built without the gate,
    whose rules ``ModelParams`` already checked, the frame's among them."""
    frame = _frame_at(params.e1, params.e3, params.gamma, _delta_e(params.e1, params.gamma))
    return GeneratorParts(params=params, frame=frame,
                          pops=tilde_populations(frame, params.t2, params.t3, t1=params.t1))


def _act(ops: np.ndarray) -> np.ndarray:
    """The 14 terms of the generator on a stack of operators X (n, 8, 8), as (14, n, 8, 8):
    -i[B, X] for the Hamiltonian's terms B, then L X L+ - {L+L, X}/2 for each of
    ``_DRESSED_JUMPS`` and then of their adjoints."""
    jumps = np.concatenate([_DRESSED_JUMPS, _DRESSED_JUMPS.conj().transpose(0, 2, 1)])[:, None]
    adjoints, hams = jumps.conj().swapaxes(-1, -2), _HAMILTONIANS[:, None]
    anti = adjoints @ jumps
    return np.concatenate([-1j * (hams @ ops - ops @ hams),
                           jumps @ ops @ adjoints - 0.5 * (anti @ ops + ops @ anti)])


class SectorTables(NamedTuple):
    """T's and the ten dissipators' action on the steady family, tr(F_i A_k(F_j)) on the
    normalised ``FAMILY`` (11, 9, 9), the family coordinates of the Hamiltonian's terms Z1,
    Z2, Z3 and T (4, 9; T's are 0), and three checks of the terms, each over its largest
    entry and exactly 0: ``leakage``, the largest entry of a Hamiltonian term or jump off
    its own shift of either charge; ``closure``, the largest of Z1 + Z2 and Z1 - Z3 on the
    ten doubly neutral operators and of the 11 terms' entries between the family and X;
    and ``channel_defect``, the dissipators' largest anti-Hermitian part or trace on the
    Pauli strings (trace-free, Hermiticity-preserving channels)."""

    generator: np.ndarray
    hamiltonians: np.ndarray
    leakage: float
    closure: float
    channel_defect: float


@cache
def sector_tables() -> SectorTables:
    """The :class:`SectorTables`, read-only and built on first use; the solve reads nothing else."""
    neutral = np.concatenate([FAMILY, _TRIPARTITE[None] / np.sqrt(2.0)])  # the family, then X
    acted = _act(neutral)
    tables = coordinates(acted, neutral).transpose(0, 2, 1)  # (14, 10, 10)
    # a contiguous copy, which each point's contraction reads in place
    generator = np.ascontiguousarray(tables[3:, :9, :9])
    hamiltonians = coordinates(_HAMILTONIANS, FAMILY)
    generator.flags.writeable = hamiltonians.flags.writeable = False  # shared by every caller
    # the 14 operators' entries |O_cd|, off the shift q_c - q_d of each one's largest entry
    ops = np.abs(np.concatenate([_HAMILTONIANS, _DRESSED_JUMPS, _DRESSED_JUMPS.transpose(0, 2, 1)]))
    ops, shifts = ops.reshape(len(ops), -1), (_CHARGES[:, :, None] - _CHARGES[:, None, :]).reshape(2, -1)
    off = ops * (shifts[:, None] != shifts[:, np.argmax(ops, axis=1), None])
    free, kept = acted[:3], tables[3:]
    closure = max(np.max(np.abs(free[0] + free[1])), np.max(np.abs(free[0] - free[2]))) / np.max(np.abs(free[0]))
    between = max(np.max(np.abs(kept[:, 9, :9])), np.max(np.abs(kept[:, :9, 9]))) / np.max(np.abs(kept))
    dissipators = _act(pauli_basis(3))[4:]
    defect = max(np.max(np.abs(dissipators - dissipators.conj().swapaxes(-1, -2))),
                 np.max(np.abs(np.trace(dissipators, axis1=-2, axis2=-1))))
    return SectorTables(generator, hamiltonians, float(np.max(off) / np.max(ops)),
                        float(max(closure, between)),
                        float(defect / np.max(np.abs(dissipators))))


def _weights(parts: GeneratorParts, prefactors_sq, populations) -> np.ndarray:
    """Weights of the generator's terms (:func:`_act`): the Hamiltonian's, then p pref^2 r for
    each raising jump (the target reset's, then the machine jumps' ``prefactors_sq``
    and ``populations``) and p pref^2 (1 - r) for its adjoint."""
    params, frame = parts.params, parts.frame
    rates, r = params.p * np.array([1.0, *prefactors_sq]), np.array([parts.pops.r1, *populations])
    return np.concatenate([(0.5 * params.e1, 0.5 * frame.eps2, 0.5 * frame.eps3, params.g),
                           rates * r, rates * (1.0 - r)])


def generator_weights(parts: GeneratorParts) -> np.ndarray:
    """The weights of the master equation: each machine jump at its squared prefactor
    and at the population of its own bath and transition frequency."""
    c2, s2, pops = parts.frame.cos_half_sq, parts.frame.sin_half_sq, parts.pops
    return _weights(parts, (c2, s2, c2, s2), (pops.r22, pops.r32, pops.r33, pops.r23))


def localized_weights(parts: GeneratorParts) -> np.ndarray:
    """The weights with the machine baths replaced by local resets of the dressed
    qubits 2 and 3 at their mixed populations r~2 and r~3 (the tilde channels)."""
    return _weights(parts, (1.0, 0.0, 1.0, 0.0), (parts.pops.rtilde2, 0.0, parts.pops.rtilde3, 0.0))


def assemble_liouvillian(parts: GeneratorParts) -> np.ndarray:
    """The dressed-frame generator of the master equation on the steady family, a real 9x9
    block: T and the ten dissipators at the point's weights."""
    return np.tensordot(parts.weights[3:], sector_tables().generator, 1)


def bath_actions(weights: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """The dissipators of the target bath, bath 2 and bath 3 at ``weights`` (one vector
    of :func:`generator_weights`' form) on one state's family coordinates, as the family
    coordinates of each bath's action (3, 9)."""
    return (_BATHS * weights[4:]) @ (sector_tables().generator[1:] @ coords)
