"""Physical parameters, the resonant diagonalization frame and thermal populations.

The machine consists of three qubits: the *target* (1) to be cooled, the
*spiral* (2) extracting heat from it, and the *engine* (3) supplying free
energy, each coupled to its own bath at T1 <= T2 <= T3.  A strong exchange
coupling gamma mixes spiral and engine; diagonalizing the two-qubit machine
Hamiltonian yields two effective free qubits with gaps eps2 > eps3 whose
difference is locked to the target gap E1 (resonance).  The subspace spanned
by the two singly-excited machine eigenstates is the *virtual qubit*, whose
effective temperature and coherence govern cooling.

Convention: |0> is the higher-energy state, so the excited-state population
of a thermal qubit with gap E at temperature T is r = 1/(1 + exp(E/T)) < 1/2.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass, fields

import numpy as np

from .errors import ParameterError, ResonanceInfeasibleError
from .linalg import pauli_string

# bare three-qubit tables; the dressed-frame Hamiltonians are these times the model's scalars
SIGMA_Z1 = pauli_string("zii")
SIGMA_Z2 = pauli_string("izi")
SIGMA_Z3 = pauli_string("iiz")
# the tripartite coupling in the dressed frame: s1+ s2~- s3~+ + s1- s2~+ s3~-
_TRIPARTITE = pauli_string("+-+") + pauli_string("-+-")


@dataclass(frozen=True)
class ModelParams:
    """The eight physical inputs of one refrigerator, or of a batch as arrays.

    Construction gives every element a verdict from the ordered rule table
    ``_RULES``, 0 or 1 plus the index of the first rule it breaks, and raises
    the smallest nonzero one at its first element.  The spiral gap E2 is never
    an input: the resonance condition fixes it (see :func:`resonant_frame`).
    """

    e1: float
    e3: float
    gamma: float
    t1: float
    t2: float
    t3: float
    p: float
    g: float

    def __post_init__(self) -> None:
        _gate(_gate_values(vars(self)))

    @property
    def beta1(self) -> float:
        return 1.0 / self.t1

    @property
    def beta2(self) -> float:
        return 1.0 / self.t2

    @property
    def beta3(self) -> float:
        return 1.0 / self.t3

    def as_dict(self) -> dict[str, float]:
        return {name: getattr(self, name) for name in PARAM_NAMES}

    def take(self, idx) -> ModelParams:
        """The models ``idx`` of a batch whose fields are arrays, not validated again."""
        return self._unchecked({name: value[idx] for name, value in self.as_dict().items()})

    def as_batch(self) -> ModelParams:
        """This model or batch as one 1-D batch (fields broadcast), not validated again."""
        values = np.broadcast_arrays(*self.as_dict().values())
        return self._unchecked({name: np.ravel(v) for name, v in zip(PARAM_NAMES, values)})

    @staticmethod
    def _unchecked(values: dict) -> ModelParams:
        part = object.__new__(ModelParams)
        vars(part).update(values)
        return part


PARAM_NAMES = tuple(f.name for f in fields(ModelParams))


@np.errstate(invalid="ignore", over="ignore")
def _delta_e(e1, gamma):
    """delta_e = sqrt(E1^2 - 4 gamma^2), 0 where gamma > E1/2, with no rule checked."""
    k = np.frexp(e1)[1]  # over E1's power of two 2^k, exactly, no product under- or overflows
    e1, two_gamma = np.ldexp(e1, -k), np.ldexp(2.0 * gamma, -k)  # factored: exact near E1 = 2 gamma
    return np.ldexp(np.sqrt(np.maximum((e1 - two_gamma) * (e1 + two_gamma), 0.0)), k)


def _target_gap(delta_e, gamma):
    """E1 = sqrt(delta_e^2 + 4 gamma^2), inverting :func:`_delta_e` over a power of two."""
    k = np.frexp(np.fmax(delta_e, 2.0 * gamma))[1]
    u, two_gamma = np.ldexp(delta_e, -k), np.ldexp(2.0 * gamma, -k)
    return np.ldexp(np.sqrt(u * u + two_gamma * two_gamma), k)


@np.errstate(invalid="ignore", over="ignore")
def _engine_gap(e1, e3, delta_e):
    """The dressed engine gap eps3 = E3 + delta_e/2 - E1/2, with no rule checked.

    eps3 only grows with E1, since d eps3/dE1 = E1/(2 delta_e) - 1/2 >= 0.
    An infinite E1 gives nan and huge fields overflow it, without a warning.
    """
    return 0.5 * ((e3 + delta_e) + e3) - 0.5 * e1


def _finite(name: str):
    """The condition that field ``name`` be finite where the fields' sum is inf or nan."""
    return lambda v: v["summable"] | (abs(v[name]) < np.inf)


_ENGINE_GAP = ("eps3", "e1", "e3", "gamma")
# the gate's rules in order, each a condition on _gate_values' values, an error class, a message
# and the values it formats; -inf alone breaks a sign rule, and the frame's rules are 8-10, 15, 16
_RULES = (
    *((_finite(name), ParameterError, f"{name} must be finite, got {{}}", (name,))
      for name in PARAM_NAMES),
    (lambda v: (v["e1"] > 0) & (v["e3"] > 0), ParameterError,
     "qubit gaps must be positive: E1={}, E3={}", ("e1", "e3")),
    (lambda v: v["gamma"] >= 0, ParameterError,
     "internal coupling must be nonnegative: gamma={}", ("gamma",)),
    (lambda v: v["gamma"] <= 0.5 * v["e1"], ResonanceInfeasibleError,
     "resonance infeasible: gamma > E1/2 (gamma={}, E1={})", ("gamma", "e1")),
    (lambda v: (v["t1"] > 0) & (v["t2"] > 0) & (v["t3"] > 0), ParameterError,
     "temperatures must be positive: T=({}, {}, {})", ("t1", "t2", "t3")),
    (lambda v: (v["t1"] <= v["t2"]) & (v["t2"] <= v["t3"]), ParameterError,
     "fridge regime requires T1 <= T2 <= T3, got ({}, {}, {})", ("t1", "t2", "t3")),
    (lambda v: v["p"] > 0, ParameterError, "dissipation rate must be positive: p={}", ("p",)),
    (lambda v: v["g"] >= 0, ParameterError, "tripartite coupling must be nonnegative: g={}", ("g",)),
    (lambda v: v["eps3"] > 0, ParameterError,
     "dressed engine gap must be positive: eps3={} at E1={}, E3={}, gamma={}", _ENGINE_GAP),
    (lambda v: v["eps3"] < np.inf, ParameterError,
     "dressed engine gap overflows: eps3={} at E1={}, E3={}, gamma={}", _ENGINE_GAP),
)


def _gate_values(fields: dict) -> dict:
    """What the rules read: ``fields``, a frame's E1, E3 and gamma or a model's eight, delta_e,
    eps3, whether the fields' sum is below inf, and the rules that apply: all, or the frame's."""
    e1, e3, gamma, model = fields["e1"], fields["e3"], fields["gamma"], len(fields) > 3
    delta_e = _delta_e(e1, gamma)
    return {**fields, "delta_e": delta_e, "eps3": _engine_gap(e1, e3, delta_e),
            "summable": sum(fields.values()) < np.inf if model else True,
            "rules": range(len(_RULES)) if model else (8, 9, 10, 15, 16)}


def _verdicts(values: dict) -> np.ndarray:
    """Per element, 0 where the rules of ``values`` hold, else 1 plus the index of the first
    broken.  Valid input costs one reduction: a sum below inf stands for the finiteness rules."""
    rules = values["rules"]
    holds = functools.reduce(operator.and_, [_RULES[k][0](values) for k in rules
                                             if k >= len(PARAM_NAMES)], values["summable"])
    if holds.all() if getattr(holds, "ndim", 0) else holds:  # a scalar needs no reduction
        return np.zeros(getattr(holds, "shape", ()), int)
    return np.select([np.logical_not(_RULES[k][0](values)) for k in rules], [k + 1 for k in rules])


def _rule_error(values: dict, verdicts: np.ndarray, at) -> ParameterError:
    """The error of the flat element ``at`` of ``verdicts``, not 0, with its values."""
    _, error, message, names = _RULES[verdicts.flat[at] - 1]
    return error(message.format(*(np.broadcast_to(values[n], verdicts.shape).flat[at] for n in names)))


def _gate(values: dict) -> dict:
    """``values`` if its rules hold, else raises the smallest nonzero verdict at its first element."""
    verdicts = _verdicts(values)
    if verdicts.any() if verdicts.ndim else verdicts:
        raise _rule_error(values, verdicts, np.argmax(verdicts == verdicts[verdicts > 0].min()))
    return values


# the reference refrigerator of the figures and the CLI defaults
REFERENCE = ModelParams(e1=1.0, e3=4.0, gamma=0.3, t1=4.0 / 3.0, t2=2.0, t3=4.0, p=0.01, g=0.01)


@dataclass(frozen=True)
class Frame:
    """Derived diagonalization data of the two-qubit machine.

    The fields are floats, or arrays of one shape for a batch of frames.
    The mixing angle ``theta`` rotates the singly-excited machine states
    into the eigenvectors psi_01 = c|01> + s|10> and psi_10 = -s|01> + c|10>
    (c, s = cos, sin of theta/2), so the eigenbasis (psi_00, psi_01, psi_10,
    psi_11) has eigenvalues (ebar, lam, -lam, -ebar).  With the target's
    basis it spans the dressed frame, in which every operator of the
    package is written.
    """

    e2: float
    delta_e: float
    ebar: float
    lam: float
    eps2: float
    eps3: float
    theta: float

    @property
    def e1(self) -> float:
        return 2.0 * self.lam

    @functools.cached_property
    def cos_half_sq(self) -> float:
        return np.cos(0.5 * self.theta) ** 2

    @functools.cached_property
    def sin_half_sq(self) -> float:
        return np.sin(0.5 * self.theta) ** 2


def resonant_frame(e1, e3, gamma) -> Frame:
    """Diagonalization frame with the spiral gap adjusted for resonance.

    delta_e = sqrt(E1^2 - 4 gamma^2) makes the dressed gap difference
    eps2 - eps3 = 2*lam equal E1 exactly.  The inputs may be floats or
    arrays that broadcast together.  Raises the error of the first rule of
    ``_RULES`` on E1, E3, gamma and eps3 that an element breaks.
    """
    return _frame_at(e1, e3, gamma, _gate(_gate_values(dict(e1=e1, e3=e3, gamma=gamma)))["delta_e"])


def _frame_at(e1, e3, gamma, delta_e) -> Frame:
    """The frame of :func:`resonant_frame` at target gap(s) e1 whose
    delta_e = sqrt(E1^2 - 4 gamma^2) is given, with no rule checked: for
    target gaps inside a range whose frame is known to hold."""
    eps3 = _engine_gap(e1, e3, delta_e)
    e2 = e3 + delta_e
    ebar = 0.5 * (e2 + e3)
    lam = 0.5 * e1  # resonance by construction
    theta = np.arctan2(2.0 * gamma, delta_e)
    return Frame(
        e2=e2,
        delta_e=delta_e,
        ebar=ebar,
        lam=lam,
        eps2=ebar + lam,
        eps3=eps3,
        theta=theta,
    )


def thermal_population(energy, temperature):
    """Excited-state population 1/(1 + exp(E/T)) of a thermal qubit, elementwise, as
    u/(1 + u), or 1/(1 + u) at E/T < 0, with u = exp(-|E/T|), which never overflows."""
    x = energy / temperature
    u = np.exp(-np.abs(x))
    return np.where(x < 0.0, 1.0, u) / (1.0 + u)


@dataclass(frozen=True)
class ThermalPopulations:
    """Excited-state populations seen by the dressed machine qubits, and their log-odds.

    ``r22 .. r33`` are the bath populations r_{nu,mu} at gap eps_nu and bath temperature
    T_mu, which the generator's weights read, ``rtilde`` the dressed qubits' mixtures and
    ``r1`` the target's.  ``log_odds1 .. log_odds3`` are each qubit's ln(q/r) (q = 1 - r),
    E1/T1 and L = ln(q~/r~), finite wherever r~ underflows, ``virtual_log_odds`` is
    L2 - L3, formed without them, and ``log_shares`` are the logs of the shares of r~2 and
    r~3 that their other baths give (:func:`_log_odds`).  The effective temperatures
    ``ttilde``, their inverses ``btilde`` and the Bloch z components ``s*`` derive from
    the log-odds on read.
    """

    eps2: float
    eps3: float
    r22: float
    r23: float
    r32: float
    r33: float
    rtilde2: float
    rtilde3: float
    r1: float
    log_odds1: float
    log_odds2: float
    log_odds3: float
    virtual_log_odds: float
    log_shares: tuple

    ttilde2 = property(lambda self: self.eps2 / self.log_odds2)
    ttilde3 = property(lambda self: self.eps3 / self.log_odds3)
    btilde2 = property(lambda self: self.log_odds2 / self.eps2)
    btilde3 = property(lambda self: self.log_odds3 / self.eps3)
    s1 = property(lambda self: -np.tanh(0.5 * self.log_odds1))
    s2 = property(lambda self: -np.tanh(0.5 * self.log_odds2))
    s3 = property(lambda self: -np.tanh(0.5 * self.log_odds3))

    def r(self, nu: int, mu: int) -> float:
        return {(2, 2): self.r22, (2, 3): self.r23, (3, 2): self.r32, (3, 3): self.r33}[(nu, mu)]


@np.errstate(divide="ignore")  # ln sin^2(theta/2) is -inf at gamma = 0
def _log_odds(frame: Frame, t2, t3) -> tuple:
    """The dressed qubits' log-odds L = ln(q~/r~) and the virtual qubit's L2 - L3, as
    (L2, L3, L2 - L3); u = exp(-eps_nu/T_mu) as (u22, u23, u33, u32); and the logs of
    the shares s^2 r23 / r~2 and s^2 r32 / r~3 (c, s = cos, sin of theta/2).

    With x = eps/T >= 0 and u = exp(-x), which never overflows, ln q = -log1p(u) and
    ln r = -x - log1p(u), so ln q~ and ln r~ are each an ``np.logaddexp`` of two terms:
    L never forms 1 - r~ or the log of 0/0.  ln r~2 is shifted by eps3/T3 + E1/T2 and
    ln r~3 by eps3/T3 (eps2 = eps3 + E1), which leaves the exponents 0, eps3 (1/T2 - 1/T3)
    and E1 (1/T2 - 1/T3), so L2 - L3 holds no eps_nu/T_mu, which can dwarf it.
    """
    m2, m3 = -1.0 / t2, -1.0 / t3  # minus the inverse temperatures
    eps2, eps3, e1 = frame.eps2, frame.eps3, frame.e1
    low, gap = eps3 * m3, eps3 * (m3 - m2)  # -eps3/T3 and eps3 (1/T2 - 1/T3)
    u = np.exp(eps2 * m2), np.exp(eps2 * m3), np.exp(low), np.exp(eps3 * m2)
    l22, l23, l33, l32 = (np.log1p(v) for v in u)
    log_c2, log_s2 = np.log(frame.cos_half_sq), np.log(frame.sin_half_sq)
    q2_own, q2_other, q3_own, q3_other = log_c2 - l22, log_s2 - l23, log_c2 - l33, log_s2 - l32
    r2_own, r2_other, r3_other = q2_own - gap, q2_other + e1 * (m3 - m2), q3_other - gap
    log_q2, log_q3 = np.logaddexp(q2_own, q2_other), np.logaddexp(q3_own, q3_other)
    log_r2, log_r3 = np.logaddexp(r2_own, r2_other), np.logaddexp(q3_own, r3_other)
    odds2, odds3, e1_m2 = log_q2 - log_r2, log_q3 - log_r3, e1 * m2  # L2 - eps3/T3 - E1/T2, L3 - eps3/T3
    return ((odds2 - (e1_m2 + low), odds3 - low, (odds2 - odds3) - e1_m2), u,
            (r2_other - log_r2, r3_other - log_r3))


def tilde_populations(frame: Frame, t2, t3, t1) -> ThermalPopulations:
    """Populations of the dressed machine qubits and of the target, with their log-odds.

    Each dressed qubit is pushed by both baths; the combined fixed point is the mixture
    rtilde_nu = cos^2(theta/2) r_{nu,nu} + sin^2(theta/2) r_{nu,mu}, whose log-odds
    L_nu (:func:`_log_odds`) define the effective temperature ttilde_nu = eps_nu / L_nu.
    Every population follows the law of :func:`thermal_population` at E/T >= 0.
    """
    (l2, l3, virtual), u, shares = _log_odds(frame, t2, t3)
    log_odds1, c2, s2 = frame.e1 / t1, frame.cos_half_sq, frame.sin_half_sq
    r1, r22, r23, r33, r32 = (v / (1.0 + v) for v in (np.exp(-log_odds1), *u))
    return ThermalPopulations(
        eps2=frame.eps2, eps3=frame.eps3, r22=r22, r23=r23, r32=r32, r33=r33,
        rtilde2=c2 * r22 + s2 * r23, rtilde3=c2 * r33 + s2 * r32, r1=r1, log_odds1=log_odds1,
        log_odds2=l2, log_odds3=l3, virtual_log_odds=virtual, log_shares=shares,
    )


def quotient(numerator, denominator, defined):
    """numerator / denominator where ``defined`` holds and NaN elsewhere,
    elementwise, without dividing at the undefined points."""
    if np.all(defined):
        return numerator / denominator
    return np.where(defined, numerator / np.where(defined, denominator, 1.0), np.nan)


def virtual_temperature(frame: Frame, pops: ThermalPopulations):
    """Effective temperature of the virtual qubit from its population ratio.

    NaN at the pole where the two singly-excited machine eigenstates are
    equally populated.
    """
    log_ratio = pops.virtual_log_odds
    return quotient(frame.eps2 - frame.eps3, log_ratio, log_ratio != 0.0)


def virtual_coherence(frame: Frame, pops: ThermalPopulations):
    """l1 coherence of the virtual qubit in the machine steady state, sin(theta)
    tanh(|L2 - L3|/2), which is |r~2 - r~3| / (r~2 + r~3 - 2 r~2 r~3) sin(theta)."""
    return np.sin(frame.theta) * np.tanh(0.5 * np.abs(pops.virtual_log_odds))


@dataclass(frozen=True)
class Hamiltonians:
    """The 8x8 target, machine, interaction and total Hamiltonians in the dressed frame."""

    h1: np.ndarray
    hfridge: np.ndarray
    hg: np.ndarray
    htot: np.ndarray


def build_hamiltonians(params: ModelParams, frame: Frame) -> Hamiltonians:
    """The three-qubit Hamiltonians in the dressed frame, each a constant
    table times a model scalar: the target's 0.5 E1 Z1, the diagonal machine
    0.5 eps2 Z2 + 0.5 eps3 Z3, and the tripartite g T, which couples the
    target ladder operators to the virtual qubit's |psi_01><psi_10| and its
    adjoint and at resonance commutes with the free part.
    """
    h1 = 0.5 * params.e1 * SIGMA_Z1
    hfridge = 0.5 * frame.eps2 * SIGMA_Z2 + 0.5 * frame.eps3 * SIGMA_Z3
    hg = params.g * _TRIPARTITE
    return Hamiltonians(h1=h1, hfridge=hfridge, hg=hg, htot=h1 + hfridge + hg)
