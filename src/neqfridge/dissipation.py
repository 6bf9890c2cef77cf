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
once and act, or assemble their 64x64 matrix, without Kronecker products.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .errors import ParameterError
from .linalg import commutator_superop, pauli_string, sandwich_superop
from .model import (
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
_TILDE_RAISING = {2: _JUMP_STRINGS[0], 3: _JUMP_STRINGS[2]}


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

    def superoperator(self) -> np.ndarray:
        """Matrix sum w kron(conj L, L) - (kron(I, K) + kron(K^T, I))/2, as one contraction."""
        weighted, ops_dag, anti = self._stacked
        eye = np.eye(anti.shape[0], dtype=complex)
        half = -0.5 * anti
        return sandwich_superop(np.concatenate([weighted, [half, eye]]),
                                np.concatenate([ops_dag, [eye, half]]))


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


def tilde_channel(nu: int, frame: Frame, pops: ThermalPopulations, rate: float) -> LindbladChannel:
    """Local reset channel on dressed qubit nu with its mixed population."""
    if nu not in (2, 3):
        raise ParameterError(f"dressed machine qubits are 2 and 3, got {nu}")
    r = pops.rtilde2 if nu == 2 else pops.rtilde3
    return LindbladChannel(frame.to_lab(_TILDE_RAISING[nu])[None], rate, (r,))


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
        vec(rho), at a fraction of the cost of assembling that matrix.
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


def assemble_liouvillian(parts: GeneratorParts) -> np.ndarray:
    """64x64 generator matrix of the full master equation."""
    total = commutator_superop(parts.hams.htot)
    total += parts.d1.superoperator()
    total += parts.d2.superoperator()
    total += parts.d3.superoperator()
    return total
