"""Lindblad channels and assembly of the full generator.

The target bath acts through a local reset-type dissipator.  Baths 2 and 3
act on the strongly coupled machine through jump operators that are
eigenoperators of the machine Hamiltonian, so dissipation produces
transitions between machine eigenstates without destroying them.  On the
steady-state operator family these delocalized channels are equivalent to
two local reset channels on the dressed qubits (the "tilde" channels).

Every jump operator is a constant Pauli-string table, rotated into the lab
frame by one batched product with the frame's dressing; channels stack their
jumps once and act, or assemble their 64x64 matrix, without Kronecker
products.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .errors import ParameterError
from .linalg import commutator_superop, embed, pauli_string, sandwich_superop, SIGMA_MINUS, SIGMA_PLUS
from .model import (
    Frame,
    Hamiltonians,
    ModelParams,
    ThermalPopulations,
    build_hamiltonians,
    resolve_resonance,
    thermal_populations,
)

# (nu, mu, dressed machine ladder) of the four nonzero eigenoperator pairs,
# and the bare tables that the frame rotates into their lab-frame form
_JUMP_SPECS = ((2, 2, "+i"), (3, 2, "z+"), (3, 3, "i+"), (2, 3, "+z"))
_JUMP_STRINGS = np.array([pauli_string("i" + ops) for _, _, ops in _JUMP_SPECS])
_TILDE_RAISING = {2: _JUMP_STRINGS[0], 3: _JUMP_STRINGS[2]}


@dataclass(frozen=True)
class LindbladChannel:
    """Weighted jump operators defining one dissipative channel.

    Each (L, w) pair contributes w * (L rho L+ - {L+L, rho}/2).  The jumps
    are stacked once, on first use, together with K = sum w L+L.
    """

    jumps: tuple[tuple[np.ndarray, float], ...]

    @cached_property
    def _stacked(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(w L, L+, K) with the jumps along the first axis of the first two."""
        ops = np.array([op for op, _ in self.jumps], dtype=complex)
        weights = np.array([weight for _, weight in self.jumps], dtype=float)
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
def _local_ladder(qubit: int, n_qubits: int) -> np.ndarray:
    """Read-only stack (sigma^+, sigma^-) of one qubit among n_qubits."""
    ladder = np.array([embed(SIGMA_PLUS, qubit, n_qubits), embed(SIGMA_MINUS, qubit, n_qubits)])
    ladder.flags.writeable = False
    return ladder


def reset_channel(qubit: int, rate: float, population: float, n_qubits: int = 3) -> LindbladChannel:
    """Local thermalizing channel whose fixed point on `qubit` is diag(r, 1-r).

    The excitation weight is rate*r and the decay weight rate*(1-r);
    single-qubit coherences decay at half the reset rate.
    """
    if not 0.0 < population < 1.0:
        raise ParameterError(f"population must lie in (0, 1), got {population}")
    if rate <= 0:
        raise ParameterError(f"rate must be positive, got {rate}")
    plus, minus = _local_ladder(qubit, n_qubits)
    return LindbladChannel(jumps=((plus, rate * population), (minus, rate * (1.0 - population))))


@dataclass(frozen=True)
class JumpPair:
    """Raising/lowering eigenoperator pair for one machine transition.

    ``nu`` labels the dressed qubit whose gap eps_nu is the transition
    frequency, ``mu`` the bath driving it; ``minus`` is the adjoint of
    ``plus``.
    """

    nu: int
    mu: int
    prefactor: float
    frequency: float
    plus: np.ndarray
    minus: np.ndarray


@dataclass(frozen=True)
class JumpOperatorSet:
    """The four nonzero jump-operator pairs of the coupled machine."""

    pairs: tuple[JumpPair, ...]

    def for_bath(self, mu: int) -> tuple[JumpPair, ...]:
        return tuple(pair for pair in self.pairs if pair.mu == mu)

    def channel(self, mu: int, pops: ThermalPopulations, rate: float) -> LindbladChannel:
        """Delocalized dissipator of bath mu acting on the coupled machine.

        Sums the two eigenoperator channels driven by bath mu, each weighted
        by the thermal population at its own transition frequency.
        """
        if mu not in (2, 3):
            raise ParameterError(f"machine baths are 2 and 3, got {mu}")
        jumps = []
        for pair in self.for_bath(mu):
            r = pops.r(pair.nu, mu)
            jumps.append((pair.plus, rate * r))
            jumps.append((pair.minus, rate * (1.0 - r)))
        return LindbladChannel(jumps=tuple(jumps))


def jump_operator_set(frame: Frame) -> JumpOperatorSet:
    """Decompose the bare machine ladder operators into eigenoperators.

    Projecting sigma_mu^+- onto the machine eigenbasis leaves exactly four
    nonzero pairs, dressed ladder operators with prefactors cos or sin of
    theta/2, all rotated into the lab frame at once; the sign on the
    (nu=2, mu=3) pair follows from the projection and is observably
    irrelevant (channels are quadratic in the jumps).
    """
    c = math.cos(0.5 * frame.theta)
    s = math.sin(0.5 * frame.theta)
    prefactors = (c, s, c, -s)
    plus = np.reshape(prefactors, (4, 1, 1)) * frame.to_lab(_JUMP_STRINGS)
    minus = plus.conj().transpose(0, 2, 1)
    return JumpOperatorSet(pairs=tuple(
        JumpPair(
            nu=nu,
            mu=mu,
            prefactor=pref,
            frequency=frame.eps2 if nu == 2 else frame.eps3,
            plus=plus[k],
            minus=minus[k],
        )
        for k, ((nu, mu, _), pref) in enumerate(zip(_JUMP_SPECS, prefactors))
    ))


def tilde_channel(nu: int, frame: Frame, pops: ThermalPopulations, rate: float) -> LindbladChannel:
    """Local reset channel on dressed qubit nu with its mixed population."""
    if nu not in (2, 3):
        raise ParameterError(f"dressed machine qubits are 2 and 3, got {nu}")
    plus = frame.to_lab(_TILDE_RAISING[nu])
    r = pops.rtilde2 if nu == 2 else pops.rtilde3
    return LindbladChannel(jumps=((plus, rate * r), (plus.conj().T, rate * (1.0 - r))))


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


def build_generator_parts(
    params: ModelParams,
    frame: Frame | None = None,
    pops: ThermalPopulations | None = None,
) -> GeneratorParts:
    frame = frame if frame is not None else resolve_resonance(params)
    pops = pops if pops is not None else thermal_populations(params, frame)
    if pops.r1 is None:
        raise ParameterError("populations lack the target entry r1")
    jumps = jump_operator_set(frame)
    return GeneratorParts(
        params=params,
        frame=frame,
        pops=pops,
        hams=build_hamiltonians(params, frame),
        d1=reset_channel(1, params.p, pops.r1),
        d2=jumps.channel(2, pops, params.p),
        d3=jumps.channel(3, pops, params.p),
    )


def assemble_liouvillian(parts: GeneratorParts, localized: bool = False) -> np.ndarray:
    """64x64 generator matrix of the full master equation.

    With ``localized=True`` the machine baths enter through the equivalent
    local channels on the dressed qubits instead of the delocalized ones;
    both agree on the steady-state operator family.
    """
    total = commutator_superop(parts.hams.htot)
    total += parts.d1.superoperator()
    if localized:
        p = parts.params.p
        total += tilde_channel(2, parts.frame, parts.pops, p).superoperator()
        total += tilde_channel(3, parts.frame, parts.pops, p).superoperator()
    else:
        total += parts.d2.superoperator()
        total += parts.d3.superoperator()
    return total
