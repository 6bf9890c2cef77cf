"""Lindblad channels and assembly of the full generator.

The target bath acts through a local reset-type dissipator.  Baths 2 and 3
act on the strongly coupled machine through jump operators that are
eigenoperators of the machine Hamiltonian, so dissipation produces
transitions between machine eigenstates without destroying them.  On the
steady-state operator family these delocalized channels are equivalent to
two local reset channels on the dressed qubits (the "tilde" channels).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .linalg import commutator_superop, dissipator_superop, embed, SIGMA_MINUS, SIGMA_PLUS
from .model import (
    Frame,
    Hamiltonians,
    ModelParams,
    ThermalPopulations,
    build_hamiltonians,
    fridge_tilde_operator,
    resolve_resonance,
    thermal_populations,
)


@dataclass(frozen=True)
class LindbladChannel:
    """Weighted jump operators defining one dissipative channel.

    Each (L, w) pair contributes w * (L rho L+ - {L+L, rho}/2).
    """

    jumps: tuple[tuple[np.ndarray, float], ...]

    def apply(self, rho: np.ndarray) -> np.ndarray:
        out = np.zeros_like(np.asarray(rho, dtype=complex))
        for op, weight in self.jumps:
            opd = op.conj().T
            anti = opd @ op
            out += weight * (op @ rho @ opd - 0.5 * (anti @ rho + rho @ anti))
        return out

    def superoperator(self) -> np.ndarray:
        dim = self.jumps[0][0].shape[0]
        total = np.zeros((dim * dim, dim * dim), dtype=complex)
        for op, weight in self.jumps:
            total += dissipator_superop(op, weight)
        return total


def reset_channel(qubit: int, rate: float, population: float, n_qubits: int = 3) -> LindbladChannel:
    """Local thermalizing channel whose fixed point on `qubit` is diag(r, 1-r).

    The excitation weight is rate*r and the decay weight rate*(1-r);
    single-qubit coherences decay at half the reset rate.
    """
    if not 0.0 < population < 1.0:
        raise ParameterError(f"population must lie in (0, 1), got {population}")
    if rate <= 0:
        raise ParameterError(f"rate must be positive, got {rate}")
    plus = embed(SIGMA_PLUS, qubit, n_qubits)
    minus = embed(SIGMA_MINUS, qubit, n_qubits)
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


def jump_operator_set(frame: Frame) -> JumpOperatorSet:
    """Decompose the bare machine ladder operators into eigenoperators.

    Projecting sigma_mu^+- onto the machine eigenbasis leaves exactly four
    nonzero pairs; the sign on the (nu=2, mu=3) pair follows from the
    projection and is observably irrelevant (channels are quadratic in the
    jumps).
    """
    c = math.cos(0.5 * frame.theta)
    s = math.sin(0.5 * frame.theta)
    specs = (
        (2, 2, c, "+i"),
        (3, 2, s, "z+"),
        (3, 3, c, "i+"),
        (2, 3, -s, "+z"),
    )
    pairs = []
    for nu, mu, pref, ops in specs:
        plus = embed(pref * fridge_tilde_operator(frame, ops), (2, 3))
        pairs.append(
            JumpPair(
                nu=nu,
                mu=mu,
                prefactor=pref,
                frequency=frame.eps2 if nu == 2 else frame.eps3,
                plus=plus,
                minus=plus.conj().T,
            )
        )
    return JumpOperatorSet(pairs=tuple(pairs))


def fridge_channel(mu: int, frame: Frame, pops: ThermalPopulations, rate: float) -> LindbladChannel:
    """Delocalized dissipator of bath mu acting on the coupled machine.

    Sums the two eigenoperator channels driven by bath mu, each weighted by
    the thermal population at its own transition frequency.
    """
    if mu not in (2, 3):
        raise ParameterError(f"machine baths are 2 and 3, got {mu}")
    jumps = []
    for pair in jump_operator_set(frame).for_bath(mu):
        r = pops.r(pair.nu, mu)
        jumps.append((pair.plus, rate * r))
        jumps.append((pair.minus, rate * (1.0 - r)))
    return LindbladChannel(jumps=tuple(jumps))


def tilde_channel(nu: int, frame: Frame, pops: ThermalPopulations, rate: float) -> LindbladChannel:
    """Local reset channel on dressed qubit nu with its mixed population."""
    if nu not in (2, 3):
        raise ParameterError(f"dressed machine qubits are 2 and 3, got {nu}")
    ops_plus = "+i" if nu == 2 else "i+"
    plus = embed(fridge_tilde_operator(frame, ops_plus), (2, 3))
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
    return GeneratorParts(
        params=params,
        frame=frame,
        pops=pops,
        hams=build_hamiltonians(params, frame),
        d1=reset_channel(1, params.p, pops.r1),
        d2=fridge_channel(2, frame, pops, params.p),
        d3=fridge_channel(3, frame, pops, params.p),
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
