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

from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np

from .errors import ParameterError, ResonanceInfeasibleError, VirtualTemperaturePoleError
from .linalg import pauli_string

# bare three-qubit tables; the Hamiltonians are these times the model's scalars
SIGMA_Z1 = pauli_string("zii")
SIGMA_Z2 = pauli_string("izi")
SIGMA_Z3 = pauli_string("iiz")
_EXCHANGE = pauli_string("i+-") + pauli_string("i-+")
# the tripartite coupling in the dressed frame: s1+ s2~- s3~+ + s1- s2~+ s3~-
_TRIPARTITE = pauli_string("+-+") + pauli_string("-+-")


@dataclass(frozen=True)
class ModelParams:
    """The eight physical inputs of one refrigerator, or of a batch as arrays.

    Construction checks every element, rule by rule, and reports the first
    broken rule at its first broken element.  The spiral gap E2 is never an
    input: it is fixed by the resonance condition (see
    :func:`resolve_resonance`), and the dressed engine gap eps3 it implies
    must be positive.  Temperatures must satisfy T1 <= T2 <= T3 unless
    ``require_ordered_temps`` is switched off for limit studies.
    """

    e1: float
    e3: float
    gamma: float
    t1: float
    t2: float
    t3: float
    p: float
    g: float
    require_ordered_temps: bool = field(default=True, repr=False)

    def __post_init__(self) -> None:
        t1, t2, t3 = self.t1, self.t2, self.t3
        _frame_gaps(
            self.e1, self.e3, self.gamma,
            ((t1 > 0) & (t2 > 0) & (t3 > 0), ParameterError,
             "temperatures must be positive: T=({}, {}, {})", t1, t2, t3),
            (((t1 <= t2) & (t2 <= t3)) | (not self.require_ordered_temps), ParameterError,
             "fridge regime requires T1 <= T2 <= T3, got ({}, {}, {})", t1, t2, t3),
            (self.p > 0, ParameterError, "dissipation rate must be positive: p={}", self.p),
            (self.g >= 0, ParameterError, "tripartite coupling must be nonnegative: g={}", self.g),
        )

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

    def __eq__(self, other) -> bool:
        """Field-by-field equality of scalars or arrays; ``require_ordered_temps`` is ignored."""
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(np.array_equal(getattr(self, name), getattr(other, name)) for name in PARAM_NAMES)

    def __hash__(self) -> int:
        values = self.as_dict().values()
        if any(np.ndim(value) for value in values):
            raise TypeError("a batch ModelParams is unhashable")
        return hash(tuple(float(value) for value in values))

    def take(self, idx) -> ModelParams:
        """The models ``idx`` of a batch whose fields are arrays, not validated again."""
        return self._unchecked({name: value[idx] for name, value in self.as_dict().items()})

    def as_batch(self) -> ModelParams:
        """This model or batch as one 1-D batch (fields broadcast), not validated again."""
        values = np.broadcast_arrays(*self.as_dict().values())
        return self._unchecked({name: np.ravel(v) for name, v in zip(PARAM_NAMES, values)})

    def _unchecked(self, values: dict) -> ModelParams:
        part = object.__new__(ModelParams)
        vars(part).update(values, require_ordered_temps=self.require_ordered_temps)
        return part


PARAM_NAMES = tuple(f.name for f in fields(ModelParams) if f.name != "require_ordered_temps")


def _require(holds, error, message: str, *values) -> None:
    """Raise ``error(message)``, formatted with the values at the first element
    where ``holds`` fails, unless it holds everywhere."""
    if holds.all() if getattr(holds, "ndim", 0) else holds:  # a scalar needs no reduction
        return
    shape = np.broadcast_shapes(*(np.shape(value) for value in values))
    at = np.argmin(np.broadcast_to(holds, shape))
    raise error(message.format(*(np.broadcast_to(v, shape).flat[at] for v in values)))


def _gaps(e1, e3, gamma) -> tuple:
    """delta_e = sqrt(E1^2 - 4 gamma^2), the dressed engine gap
    eps3 = E3 + delta_e/2 - E1/2 and, elementwise, whether the frame rules
    hold: E1, E3 > 0, 0 <= gamma <= E1/2 and eps3 > 0.

    eps3 only grows with E1, since d eps3/dE1 = E1/(2 delta_e) - 1/2 >= 0.
    """
    delta_e = np.sqrt(np.maximum(e1 * e1 - 4.0 * gamma * gamma, 0.0))
    eps3 = 0.5 * ((e3 + delta_e) + e3) - 0.5 * e1
    return delta_e, eps3, (e1 > 0) & (e3 > 0) & (gamma >= 0) & (gamma <= 0.5 * e1) & (eps3 > 0)


def _frame_gaps(e1, e3, gamma, *rules) -> tuple:
    """delta_e and eps3 of :func:`_gaps` once its rules hold, which costs one
    combined ``all`` when they do.  ``rules``, more :func:`_require` argument
    tuples, are checked before the dressed-gap rule, derived from the others.
    """
    delta_e, eps3, holds = _gaps(e1, e3, gamma)
    framed = holds.all() if holds.ndim else holds
    if not framed:
        _require((e1 > 0) & (e3 > 0), ParameterError,
                 "qubit gaps must be positive: E1={}, E3={}", e1, e3)
        _require(gamma >= 0, ParameterError,
                 "internal coupling must be nonnegative: gamma={}", gamma)
        _require(gamma <= 0.5 * e1, ResonanceInfeasibleError,
                 "resonance infeasible: gamma > E1/2 (gamma={}, E1={})", gamma, e1)
    for rule in rules:
        _require(*rule)
    if not framed:
        _require(eps3 > 0, ParameterError, "dressed engine gap must be positive: "
                 "eps3={} at E1={}, E3={}, gamma={}", eps3, e1, e3, gamma)
    return delta_e, eps3


# the reference refrigerator of the figures and the CLI defaults
REFERENCE = ModelParams(e1=1.0, e3=4.0, gamma=0.3, t1=4.0 / 3.0, t2=2.0, t3=4.0, p=0.01, g=0.01)


@dataclass(frozen=True)
class Frame:
    """Derived diagonalization data of the two-qubit machine.

    The fields are floats, or arrays of one shape for a batch of frames.
    ``unitary`` is the 4x4 rotation mixing the singly-excited machine states;
    its adjoint holds the machine eigenvectors as columns ordered
    (psi_00, psi_01, psi_10, psi_11) with eigenvalues (ebar, lam, -lam, -ebar).
    ``dressing`` is W = kron(I2, unitary) on the three qubits, which takes a
    dressed-frame operator B to its lab-frame form W^+ B W.  Both exist for
    single frames only and are built on first use, as do the two rotations.
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

    @property
    def cos_half_sq(self) -> float:
        return np.cos(0.5 * self.theta) ** 2

    @property
    def sin_half_sq(self) -> float:
        return np.sin(0.5 * self.theta) ** 2

    @cached_property
    def unitary(self) -> np.ndarray:
        c, s = np.cos(0.5 * self.theta), np.sin(0.5 * self.theta)
        return np.array([[1, 0, 0, 0], [0, c, s, 0], [0, -s, c, 0], [0, 0, 0, 1]], dtype=complex)

    @cached_property
    def dressing(self) -> np.ndarray:
        w = np.zeros((8, 8), dtype=complex)
        w[:4, :4] = w[4:, 4:] = self.unitary
        return w

    def to_lab(self, dressed: np.ndarray) -> np.ndarray:
        """W^+ B W for one dressed-frame operator B or a stack (..., 8, 8)."""
        return self.dressing.conj().T @ dressed @ self.dressing

    def to_dressed(self, lab: np.ndarray) -> np.ndarray:
        """W A W^+, the inverse of :meth:`to_lab`."""
        return self.dressing @ lab @ self.dressing.conj().T


def resonant_frame(e1, e3, gamma) -> Frame:
    """Diagonalization frame with the spiral gap adjusted for resonance.

    delta_e = sqrt(E1^2 - 4 gamma^2) makes the dressed gap difference
    eps2 - eps3 = 2*lam equal E1 exactly.  The inputs may be floats or
    arrays that broadcast together.  Raises :class:`ParameterError` unless
    E1, E3 > 0, gamma >= 0 and the dressed engine gap eps3 is positive, and
    :class:`ResonanceInfeasibleError` where gamma > E1/2.
    """
    delta_e, eps3 = _frame_gaps(e1, e3, gamma)
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


def resolve_resonance(params: ModelParams) -> Frame:
    """Frame for a full parameter set."""
    return resonant_frame(params.e1, params.e3, params.gamma)


def thermal_population(energy, temperature):
    """Excited-state population of a thermal qubit, 1/(1 + exp(E/T)), elementwise."""
    if np.any((energy <= 0) | (temperature <= 0)):
        raise ParameterError(f"need E > 0 and T > 0, got E={energy}, T={temperature}")
    return _population(energy, temperature)


def _population(energy, temperature):
    """:func:`thermal_population` without its check, for validated gaps and temperatures."""
    x = energy / temperature
    # past E/T = 700 exp would overflow; the population is numerically zero
    return (x <= 700.0) / (1.0 + np.exp(np.minimum(x, 700.0)))


@dataclass(frozen=True)
class ThermalPopulations:
    """Excited-state populations seen by the dressed machine qubits.

    ``r22 .. r33`` are the four bath populations r_{nu,mu} at gap eps_nu and
    bath temperature T_mu; ``rtilde`` are the mixed populations of the
    dressed qubits at the dressed gaps ``eps2``/``eps3``.  ``r1`` is the
    target population, only set when a target temperature was supplied.  The
    effective temperatures ``ttilde``, their inverses ``btilde``, the Bloch
    z components ``s*`` and the virtual qubit's log-odds are derived on
    read, so a caller that needs only the populations (the deviation
    kernel) never computes them.
    """

    eps2: float
    eps3: float
    r22: float
    r23: float
    r32: float
    r33: float
    rtilde2: float
    rtilde3: float
    r1: float | None = None

    def r(self, nu: int, mu: int) -> float:
        return {(2, 2): self.r22, (2, 3): self.r23, (3, 2): self.r32, (3, 3): self.r33}[(nu, mu)]

    @property
    def ttilde2(self) -> float:
        return self.eps2 / np.log((1.0 - self.rtilde2) / self.rtilde2)

    @property
    def ttilde3(self) -> float:
        return self.eps3 / np.log((1.0 - self.rtilde3) / self.rtilde3)

    @property
    def virtual_log_odds(self):
        """ln[(1 - r~2) r~3 / (r~2 (1 - r~3))], the virtual qubit's gap over its temperature."""
        r2, r3 = self.rtilde2, self.rtilde3
        return np.log(((1.0 - r2) * r3) / (r2 * (1.0 - r3)))

    @property
    def btilde2(self) -> float:
        return 1.0 / self.ttilde2

    @property
    def btilde3(self) -> float:
        return 1.0 / self.ttilde3

    @property
    def s1(self) -> float | None:
        return None if self.r1 is None else 2.0 * self.r1 - 1.0

    @property
    def s2(self) -> float:
        return 2.0 * self.rtilde2 - 1.0

    @property
    def s3(self) -> float:
        return 2.0 * self.rtilde3 - 1.0


def tilde_populations(frame: Frame, t2, t3, t1=None,
                      population=_population) -> ThermalPopulations:
    """Populations of the dressed machine qubits.

    Each dressed qubit is pushed by both baths; the combined fixed point is
    the mixture rtilde_nu = cos^2(theta/2) r_{nu,nu} + sin^2(theta/2) r_{nu,mu}
    and defines the effective temperature ttilde_nu through the Boltzmann
    ratio at gap eps_nu.  ``population(E, T)`` gives the machine-bath
    populations r_{nu,mu}.  The gaps come from a checked frame, so one check
    of the temperatures, the target's included, covers the population law.
    """
    _require((t2 > 0) & (t3 > 0) & (t1 is None or t1 > 0), ParameterError,
             "temperatures must be positive: T=({}, {}, {})", t1, t2, t3)
    c2 = frame.cos_half_sq
    s2 = frame.sin_half_sq
    r22 = population(frame.eps2, t2)
    r23 = population(frame.eps2, t3)
    r32 = population(frame.eps3, t2)
    r33 = population(frame.eps3, t3)
    return ThermalPopulations(
        eps2=frame.eps2, eps3=frame.eps3,
        r22=r22, r23=r23, r32=r32, r33=r33,
        rtilde2=c2 * r22 + s2 * r23, rtilde3=c2 * r33 + s2 * r32,
        r1=None if t1 is None else _population(frame.e1, t1),
    )


def thermal_populations(params: ModelParams, frame: Frame | None = None) -> ThermalPopulations:
    """Full population set (including the target) for a parameter point."""
    frame = frame if frame is not None else resolve_resonance(params)
    return tilde_populations(frame, params.t2, params.t3, t1=params.t1)


def virtual_temperature(frame: Frame, pops: ThermalPopulations, masked: bool = False):
    """Effective temperature of the virtual qubit from its population ratio.

    Raises :class:`VirtualTemperaturePoleError` at the pole where the two
    singly-excited machine eigenstates are equally populated; with
    ``masked`` the pole points are NaN instead.
    """
    log_ratio = pops.virtual_log_odds
    pole = log_ratio == 0.0
    if not np.any(pole):
        return (frame.eps2 - frame.eps3) / log_ratio
    if not masked:
        raise VirtualTemperaturePoleError("virtual-qubit populations are equal")
    return np.where(pole, np.nan, (frame.eps2 - frame.eps3) / np.where(pole, 1.0, log_ratio))


def virtual_coherence(frame: Frame, pops: ThermalPopulations):
    """l1 coherence of the virtual qubit in the machine steady state."""
    r2, r3 = pops.rtilde2, pops.rtilde3
    return np.abs(r2 - r3) / (r2 + r3 - 2.0 * r2 * r3) * np.sin(frame.theta)


@dataclass(frozen=True)
class Hamiltonians:
    """The 8x8 target, machine, interaction and total Hamiltonians."""

    h1: np.ndarray
    hfridge: np.ndarray
    hg: np.ndarray
    htot: np.ndarray


def build_hamiltonians(params: ModelParams, frame: Frame) -> Hamiltonians:
    """Assemble the three-qubit Hamiltonians in the lab frame.

    The tripartite term couples the target ladder operators to the virtual
    qubit raising/lowering operators |psi_01><psi_10| and its adjoint; at
    resonance it commutes with the free part.  Every term is a constant
    table times a model scalar; only the tripartite one needs the frame.
    """
    h1 = 0.5 * params.e1 * SIGMA_Z1
    hfridge = 0.5 * frame.e2 * SIGMA_Z2 + 0.5 * params.e3 * SIGMA_Z3 + params.gamma * _EXCHANGE
    hg = params.g * frame.to_lab(_TRIPARTITE)
    return Hamiltonians(h1=h1, hfridge=hfridge, hg=hg, htot=h1 + hfridge + hg)
