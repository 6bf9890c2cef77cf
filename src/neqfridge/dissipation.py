"""The dissipators and the full generator, in the dressed frame.

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
dissipators of ten jumps.  The terms conserve the machine charge n2 + n3,
and the oracle reads them only on the charge-0 sector, where the steady
state lives: their action on 8x8 operators is read once on the sector's 24
basis operators, and every per-point operator is a real 24x24 block acting
on a state's 24 sector coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from typing import NamedTuple

import numpy as np

from .linalg import charge_sectors, coordinates, pauli_basis, pauli_string
from .model import (
    _TRIPARTITE,
    SIGMA_Z1,
    SIGMA_Z2,
    SIGMA_Z3,
    Frame,
    ModelParams,
    ThermalPopulations,
    resonant_frame,
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
# the machine charge n2 + n3 of each basis state |q1 q2 q3>; every term conserves it
MACHINE_CHARGES = tuple(bin(state & 3).count("1") for state in range(8))
# which bath (target, 2, 3) each dissipator term belongs to, the raising jumps' and then
# their adjoints', as a (3, 10) indicator (np.equal.outer would cost 0.25 MB at import)
_BATHS = np.eye(3)[[0, 1, 1, 2, 2] * 2].T


@dataclass(frozen=True)
class GeneratorParts:
    """Everything needed to evaluate the master equation at one point."""

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
    """The point's frame and its bath populations."""
    frame = resonant_frame(params.e1, params.e3, params.gamma)
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
    """The generator's terms A_k on the charge-0 sector, tr(B_i A_k(B_j)) on the real basis
    B_j of ``charge_sectors`` (14, 24, 24), the coordinates of the Hamiltonian's terms Z1, Z2,
    Z3 and T (4, 24), and two checks of the terms, each over its largest entry and exactly 0:
    the largest entry of a Hamiltonian term or jump off its own charge shift, and the
    dissipators' largest anti-Hermitian part or trace on the Pauli strings (trace-free,
    Hermiticity-preserving channels)."""

    generator: np.ndarray
    hamiltonians: np.ndarray
    leakage: float
    channel_defect: float


@cache
def sector_tables() -> SectorTables:
    """The :class:`SectorTables`, read-only and built on first use; the solve reads nothing else."""
    basis = charge_sectors(MACHINE_CHARGES)
    # a contiguous real copy, which each point's contraction reads in place
    generator = np.ascontiguousarray(coordinates(_act(basis), basis).transpose(0, 2, 1))
    hamiltonians = coordinates(_HAMILTONIANS, basis)
    generator.flags.writeable = hamiltonians.flags.writeable = False  # shared by every caller
    # the 14 operators' entries |O_cd|, off the charge shift q_c - q_d of each one's largest entry
    ops = np.abs(np.concatenate([_HAMILTONIANS, _DRESSED_JUMPS, _DRESSED_JUMPS.transpose(0, 2, 1)]))
    ops, shifts = ops.reshape(len(ops), -1), np.subtract.outer(MACHINE_CHARGES, MACHINE_CHARGES).ravel()
    off = ops * (shifts != shifts[np.argmax(ops, axis=1)][:, None])
    dissipators = _act(pauli_basis(3))[4:]
    defect = max(np.max(np.abs(dissipators - dissipators.conj().swapaxes(-1, -2))),
                 np.max(np.abs(np.trace(dissipators, axis1=-2, axis2=-1))))
    return SectorTables(generator, hamiltonians, float(np.max(off) / np.max(ops)),
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
    """The dressed-frame generator of the master equation on the charge-0 sector, a real 24x24 block."""
    return np.tensordot(parts.weights, sector_tables().generator, 1)


def bath_actions(weights: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """The dissipators of the target bath, bath 2 and bath 3 at ``weights`` (one vector
    of :func:`generator_weights`' form) on one state's charge-0 sector coordinates, as
    the sector coordinates of each bath's action (3, 24)."""
    return (_BATHS * weights[4:]) @ (sector_tables().generator[4:] @ coords)
