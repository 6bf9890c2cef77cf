"""Lindblad channels and assembly of the full generator.

Every dissipator of the model has one form, :class:`LindbladChannel`: a
stack of raising jumps L_k with one rate and one population r_k per jump.
The target bath acts through a local reset on qubit 1.  Baths 2 and 3 act
on the strongly coupled machine through jumps that are eigenoperators of the
machine Hamiltonian, so dissipation produces transitions between machine
eigenstates without destroying them.  On the steady-state operator family
these delocalized channels are equivalent to two local reset channels on
the dressed qubits (the "tilde" channels; Hofer et al., NJP 19, 123037
(2017)).

Every jump is a constant Pauli-string table, rotated into the lab frame by
one batched product with the frame's dressing; channels stack their jumps
once and act without Kronecker products.  In the dressed frame the 64x64
generator is one contraction of the point's weights with constant tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .errors import ParameterError
from .linalg import commutator_superop, dissipator_superop, pauli_string
from .model import (
    _TRIPARTITE,
    SIGMA_Z1,
    SIGMA_Z2,
    SIGMA_Z3,
    Frame,
    Hamiltonians,
    ModelParams,
    ThermalPopulations,
    build_hamiltonians,
    resonant_frame,
    tilde_populations,
)

# (nu, mu, dressed machine ladder) of the four nonzero machine jumps, in the
# order of jump_operator_set: nu labels the dressed qubit whose gap eps_nu is
# the transition frequency, mu the bath driving it
_JUMP_SPECS = ((2, 2, "+i"), (3, 2, "z+"), (3, 3, "i+"), (2, 3, "+z"))
_JUMP_STRINGS = np.array([pauli_string("i" + ops) for _, _, ops in _JUMP_SPECS])
# the raising jumps of the generator tables: the target's, then the machine's
_DRESSED_JUMPS = np.concatenate([pauli_string("+ii")[None], _JUMP_STRINGS])


@dataclass(frozen=True)
class LindbladChannel:
    """Dissipator of raising jumps L_k, each paired with its lowering L_k+.

    ``raising`` is a stack (k, d, d) and ``populations`` holds one r_k per
    jump: L_k enters with weight rate*r_k and L_k+ with rate*(1 - r_k), each
    weighted jump L contributing w * (L rho L+ - {L+L, rho}/2).  The jumps
    are stacked once, on first use, together with K = sum w L+L.
    """

    raising: np.ndarray
    rate: float
    populations: tuple[float, ...]

    @cached_property
    def _stacked(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(w L, L+, K) over L_0, L_0+, L_1, L_1+, ... along the first axis of the first two."""
        ops = np.array([op for up in self.raising for op in (up, up.conj().T)], dtype=complex)
        weights = np.array([w for r in self.populations for w in (self.rate * r, self.rate * (1.0 - r))])
        weighted = weights[:, None, None] * ops
        ops_dag = ops.conj().transpose(0, 2, 1)
        return weighted, ops_dag, (ops_dag @ weighted).sum(axis=0)

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """Channel action on one operator or on a stack (..., d, d)."""
        weighted, ops_dag, anti = self._stacked
        rho = np.asarray(rho, dtype=complex)
        jumped = (weighted @ rho[..., None, :, :] @ ops_dag).sum(axis=-3)
        return jumped - 0.5 * (anti @ rho + rho @ anti)


@cache
def _reset_raising(qubit: int, n_qubits: int) -> np.ndarray:
    """Read-only stack (1, d, d) holding sigma^+ of one qubit among n_qubits."""
    if not 1 <= qubit <= n_qubits:
        raise ParameterError(f"qubit must lie in 1..{n_qubits}, got {qubit}")
    raising = pauli_string("i" * (qubit - 1) + "+" + "i" * (n_qubits - qubit))[None]
    raising.flags.writeable = False
    return raising


def reset_channel(qubit: int, rate: float, population: float, n_qubits: int = 3) -> LindbladChannel:
    """Local thermalizing channel whose fixed point on `qubit` is diag(r, 1-r).

    The excitation weight is rate*r and the decay weight rate*(1-r);
    single-qubit coherences decay at half the reset rate.
    """
    return LindbladChannel(_reset_raising(qubit, n_qubits), rate, (population,))


def jump_operator_set(frame: Frame) -> np.ndarray:
    """The four raising eigenoperators of the machine baths, as a stack (4, 8, 8).

    Projecting sigma_mu^+ onto the machine eigenbasis leaves exactly four
    nonzero jumps, dressed ladder operators in ``_JUMP_SPECS`` order with
    prefactors (cos, sin, cos, -sin) of theta/2, all rotated into the lab
    frame at once: bath 2 drives the first two, bath 3 the last two.  The
    sign on the (nu=2, mu=3) jump follows from the projection and is
    observably irrelevant (channels are quadratic in the jumps).
    """
    c = math.cos(0.5 * frame.theta)
    s = math.sin(0.5 * frame.theta)
    return np.reshape((c, s, c, -s), (4, 1, 1)) * frame.to_lab(_JUMP_STRINGS)


@dataclass(frozen=True)
class GeneratorParts:
    """Everything needed to evaluate the master equation at one point."""

    params: ModelParams
    frame: Frame
    pops: ThermalPopulations
    hams: Hamiltonians
    d1: LindbladChannel
    d2: LindbladChannel
    d3: LindbladChannel

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """Generator action -i[H, rho] + D1(rho) + D2(rho) + D3(rho) on an 8x8 operator.

        Its Frobenius norm equals the norm of the 64x64 generator times
        vec(rho), in either frame: this lab-frame action checks the
        dressed-frame solve of :func:`assemble_liouvillian`.
        """
        htot = self.hams.htot
        return (-1j * (htot @ rho - rho @ htot)
                + self.d1.apply(rho) + self.d2.apply(rho) + self.d3.apply(rho))


def build_generator_parts(params: ModelParams) -> GeneratorParts:
    """The point's Hamiltonians and its three channels: the target reset and
    the delocalized machine channels, each weighted by the population at its
    own transition frequency."""
    frame = resonant_frame(params.e1, params.e3, params.gamma)
    pops = tilde_populations(frame, params.t2, params.t3, t1=params.t1)
    jumps = jump_operator_set(frame)
    return GeneratorParts(
        params=params,
        frame=frame,
        pops=pops,
        hams=build_hamiltonians(params, frame),
        d1=reset_channel(1, params.p, pops.r1),
        d2=LindbladChannel(jumps[:2], params.p, (pops.r22, pops.r32)),
        d3=LindbladChannel(jumps[2:], params.p, (pops.r33, pops.r23)),
    )


@cache
def generator_tables() -> np.ndarray:
    """The 14 constant dressed-frame superoperators (14, 64, 64), read-only and built on
    first use: -i[B, .] for B = Z1, Z2, Z3 and the tripartite term T, then the unit
    dissipators of ``_DRESSED_JUMPS`` and then of their adjoints."""
    jumps = [*_DRESSED_JUMPS, *_DRESSED_JUMPS.conj().transpose(0, 2, 1)]
    tables = np.array([*map(commutator_superop, (SIGMA_Z1, SIGMA_Z2, SIGMA_Z3, _TRIPARTITE)),
                       *map(dissipator_superop, jumps)])
    tables.flags.writeable = False  # shared by every caller
    return tables


def _weights(parts: GeneratorParts, prefactors_sq, populations) -> np.ndarray:
    """Weights of :func:`generator_tables`: the Hamiltonian's, then p pref^2 r for
    each raising jump (the target reset's, then the machine jumps' ``prefactors_sq``
    and ``populations``) and p pref^2 (1 - r) for its adjoint."""
    params, frame = parts.params, parts.frame
    rates, r = params.p * np.array([1.0, *prefactors_sq]), np.array([parts.pops.r1, *populations])
    return np.concatenate([(0.5 * params.e1, 0.5 * frame.eps2, 0.5 * frame.eps3, params.g),
                           rates * r, rates * (1.0 - r)])


def generator_weights(parts: GeneratorParts) -> np.ndarray:
    """The weights of the master equation, with the jumps of :func:`jump_operator_set`."""
    c2, s2, pops = parts.frame.cos_half_sq, parts.frame.sin_half_sq, parts.pops
    return _weights(parts, (c2, s2, c2, s2), (pops.r22, pops.r32, pops.r33, pops.r23))


def localized_weights(parts: GeneratorParts) -> np.ndarray:
    """The weights with the machine baths replaced by local resets of the dressed
    qubits 2 and 3 at their mixed populations r~2 and r~3 (the tilde channels)."""
    return _weights(parts, (1.0, 0.0, 1.0, 0.0), (parts.pops.rtilde2, 0.0, parts.pops.rtilde3, 0.0))


def assemble_liouvillian(parts: GeneratorParts) -> np.ndarray:
    """64x64 generator of the master equation in the dressed frame, the matrix of
    B -> W L(W^+ B W) W^+ for the lab-frame generator L and W = ``parts.frame.dressing``."""
    return np.tensordot(generator_weights(parts), generator_tables(), 1)
