"""Heat currents, temperatures, COPs and their bounds.

Bath currents are evaluated two ways: as traces of the total Hamiltonian
against each dissipator at the dressed-frame steady state, dot products of
coordinates on the steady family, and through closed forms in the
deviation coefficient d.  The tripartite-interaction currents Q_i^g isolate
the part of the flow caused by the weak three-body coupling; the machine COP
eta_g = Q1^g / Q3^g depends only on the diagonalization frame.

:func:`closed_form_table` is the one closed-form chain from parameters to
observables (frame, populations, coefficients, currents, then the COPs, the
virtual temperature, the target temperature and the coherence), evaluated
on a batch of models; every sweep, figure and ensemble row reads it.  Its
performance columns come from :func:`_performance`, which the ``steady``
report also reads, on the frame, populations and closed-form a1 of the
point it has just solved, so each point is framed and evaluated once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dissipation import GeneratorParts, bath_actions, build_generator_parts, sector_tables
from .model import (
    Frame,
    ModelParams,
    ThermalPopulations,
    quotient,
    virtual_coherence,
    virtual_temperature,
)
from .steadystate import SteadyStateResult, reconstruct_state, steady_coefficients

# the currents' rounding noise in eps (p + g) eps2, every current check's bound: under six
# OpenBLAS kernels the current groups' errors reached 30 units (most where eps2/T is large and
# g << p) over the `validate --grid` box with p from 1e-9, times 2^k, and cold near-equal baths
_CURRENT_FLOOR = 512.0


@dataclass(frozen=True)
class CurrentReport:
    """Stationary heat currents (energy per unit time, raw model units).

    q1..q3 flow from the baths into the system (trace route), q23 is the
    machine-internal current, q1g..q3g the tripartite-interaction currents
    and qt2g/qt3g their dressed-frame counterparts.  q1_closed..q3_closed
    repeat the bath currents through the closed forms in d.  ``floor`` is
    the rounding floor ``_CURRENT_FLOOR`` eps (p + g) eps2 of the point.
    """

    q1: float
    q2: float
    q3: float
    q23: float
    q1g: float
    q2g: float
    q3g: float
    qt2g: float
    qt3g: float
    q1_closed: float
    q2_closed: float
    q3_closed: float
    floor: float

    @property
    def max_route_delta(self) -> float:
        return max(
            abs(self.q1 - self.q1_closed),
            abs(self.q2 - self.q2_closed),
            abs(self.q3 - self.q3_closed),
        )

    @property
    def noise(self) -> float:
        """The largest |q| that is rounding noise: the routes' disagreement or the floor."""
        return max(self.max_route_delta, self.floor)

    @property
    def eta_tot(self) -> float | None:
        """Total-current COP q1/q3, or None where q3 is rounding noise."""
        return self.q1 / self.q3 if abs(self.q3) > self.noise else None

    @property
    def cooling(self) -> bool | None:
        """Whether the machine cools, q1g > 0, or None where q1g is rounding noise."""
        return self.q1g > 0.0 if abs(self.q1g) > self.noise else None


def product_state(pops: ThermalPopulations) -> np.ndarray:
    """Family coordinates of the dressed product of the target's and the dressed qubits'
    thermal states: the closed-form steady state without the tripartite coupling."""
    return reconstruct_state(steady_coefficients(pops, 1.0, 0.0))


def heat_currents(parts: GeneratorParts, steady: SteadyStateResult) -> CurrentReport:
    """All stationary currents at the point of ``parts``, with the closed forms alongside the traces."""
    params, frame, pops, weights = parts.params, parts.frame, parts.pops, parts.weights
    tables = sector_tables()
    # the family coordinates of 0.5 E1 Z1, 0.5 eps2 Z2, 0.5 eps3 Z3 and g T (T's are 0), whose sum is H's
    hams = weights[:4, None] * tables.hamiltonians
    # tr(H A) for each bath's action A
    q1, q2, q3 = (bath_actions(weights, steady.coords) @ hams.sum(axis=0)).tolist()
    q23 = float(bath_actions(weights, product_state(pops))[2] @ (hams[1] + hams[2]))
    # the target's and the dressed qubits' energies against -i[g T, rho]
    q1g, qt2g, qt3g = (-weights[3] * hams[:3] @ (tables.generator[0] @ steady.coords)).tolist()

    closed = currents_closed(params, frame, pops, steady.decomposition.d)
    return CurrentReport(
        q1=q1, q2=q2, q3=q3, q23=q23,
        q1g=q1g, q2g=q2 + q23, q3g=q3 - q23,
        qt2g=qt2g, qt3g=qt3g,
        q1_closed=closed["q1"], q2_closed=closed["q2"], q3_closed=closed["q3"],
        floor=_CURRENT_FLOOR * np.finfo(float).eps * (params.p + params.g) * frame.eps2,
    )


def internal_current(frame: Frame, pops: ThermalPopulations, p: float) -> float:
    """Machine-internal current q23 as a scalar closed form.

    Equivalent to the trace of the machine Hamiltonian against the engine
    dissipator at the dressed product state, as :func:`heat_currents` reads it.
    """
    c2, s2 = frame.cos_half_sq, frame.sin_half_sq
    return (
        p * c2 * s2 * (
            frame.eps2 * (pops.r23 - pops.r22) + frame.eps3 * (pops.r33 - pops.r32)
        )
    )


def currents_closed(
    params: ModelParams, frame: Frame, pops: ThermalPopulations, d: float
) -> dict[str, float]:
    """Matrix-free current set used by sweeps; validated against the traces."""
    c2, s2 = frame.cos_half_sq, frame.sin_half_sq
    q23 = internal_current(frame, pops, params.p)
    q1 = -0.25 * params.g * d * params.e1
    q2 = -q23 + 0.25 * params.g * d * (frame.eps2 * c2 - frame.eps3 * s2)
    q3 = q23 - 0.25 * params.g * d * (frame.eps3 * c2 - frame.eps2 * s2)
    return {
        "q1": q1, "q2": q2, "q3": q3, "q23": q23,
        "q1g": q1, "q2g": q2 + q23, "q3g": q3 - q23,
        "qt2g": 0.25 * params.g * d * frame.eps2,
        "qt3g": -0.25 * params.g * d * frame.eps3,
    }


def critical_gamma(e1: float, e3: float) -> float:
    """Coupling at which the cooling condition turns off (closed form)."""
    return np.sqrt(0.5 * e3 * (np.sqrt(e3 * e3 + e1 * e1) - e3))


def cop_g(frame: Frame):
    """Machine COP E1 / (eps3 cos^2(theta/2) - eps2 sin^2(theta/2)).

    NaN where the denominator is not positive (the cooling condition fails).
    """
    denominator = frame.eps3 * frame.cos_half_sq - frame.eps2 * frame.sin_half_sq
    return quotient(frame.e1, denominator, denominator > 0.0)


def cop_carnot(t1, t2, t3):
    """Carnot COP (b2 - b3) / (b1 - b2) of the three-bath refrigerator.

    NaN where T1 >= T2, where no refrigerator has a Carnot COP.
    """
    b1, b2, b3 = 1.0 / t1, 1.0 / t2, 1.0 / t3
    return quotient(b2 - b3, b1 - b2, b1 > b2)


def cop_tilde(pops: ThermalPopulations, t1):
    """Current ratio of the dressed two-qubit picture, (bt2 - bt3)/(b1 - bt2).

    NaN where beta1 equals the dressed beta~2, at which the ratio is undefined.
    """
    bt2 = pops.btilde2
    denominator = 1.0 / t1 - bt2
    return quotient(bt2 - pops.btilde3, denominator, denominator != 0.0)


def eta_star_max(eta_c, gamma_over_e3):
    """Tight upper bound on the COP at maximum cooling power.

    NaN where gamma/E3 lies outside the cooling range, at which the
    denominator eta_c/2 - 2 (gamma/E3)^2 is not positive.
    """
    k = np.frexp(np.fmax(eta_c, gamma_over_e3))[1]  # the larger's square over 4^k cannot underflow
    eta, x = np.ldexp(eta_c, -k), np.ldexp(gamma_over_e3, -k)
    denominator = 0.5 * eta - 2.0 * np.ldexp(x * x, k)  # over 2^k, the numerator over 4^k
    return np.ldexp(quotient(0.25 * eta * eta + 4.0 * x * x, denominator, denominator > 0.0), k)


def eta_star_min(gamma_over_e3):
    """Tight lower bound: the minimum of the machine COP over the target gap.

    Minimizing E1^2 / (E3 * delta_e - 2 gamma^2) over delta_e gives an
    interior optimum at delta_e/E3 = 2x(x + sqrt(1 + x^2)), x = gamma/E3.
    The bound is 0 at x = 0 and NaN at x < 0.
    """
    x = gamma_over_e3
    k = np.frexp(x)[1]
    y = np.ldexp(x, -k)  # x over its power of two 2^k: its square over 4^k cannot underflow
    u = 2.0 * y * (x + np.sqrt(1.0 + x * x))  # over 2^k, the numerator over 4^k
    bound = quotient(u * u + 4.0 * y * y, u - 2.0 * np.ldexp(y * y, k), x > 0.0)
    return np.where(x == 0.0, 0.0, np.ldexp(bound, k))


def local_target_temperature(a1, e1):
    """Temperature of the reduced target state from its Bloch z component.

    a1 = 0 means equal populations (infinite temperature, returned as inf);
    the temperature is NaN where a1 > 0 (inversion) or |a1| >= 1.
    """
    invalid = (np.abs(a1) >= 1.0) | (a1 > 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        temperature = e1 / np.log((1.0 - a1) / (1.0 + a1))
    return np.where(invalid, np.nan, temperature) if np.any(invalid) else temperature


def _performance(parts: GeneratorParts, a1, eta_tot) -> dict:
    """The performance observables of the models of ``parts`` whose target's Bloch
    component is ``a1``, in report order, with ``eta_tot`` given: eta_g, eta_tot,
    eta_c, eta_tilde, tv, t1s and the coherence, each NaN where it is undefined."""
    params, frame, pops = parts.params, parts.frame, parts.pops
    return {
        "eta_g": cop_g(frame),
        "eta_tot": eta_tot,
        "eta_c": cop_carnot(params.t1, params.t2, params.t3),
        "eta_tilde": cop_tilde(pops, params.t1),
        "tv": virtual_temperature(frame, pops),
        "t1s": local_target_temperature(a1, params.e1),
        "coherence": virtual_coherence(frame, pops),
    }


def closed_form_table(params: ModelParams) -> dict[str, np.ndarray]:
    """The closed-form observables of each model of ``params`` (one model, or
    a batch whose fields broadcast), as 1-D columns over ``params.as_batch()``.

    Columns: the eight parameter fields; the deviation d, the bath currents
    q1 and q3, the cooling current q1g and the internal current q23; the
    machine COP eta_g, the total-current COP eta_tot = q1/q3, the Carnot COP
    eta_c, the dressed COP eta_tilde; the virtual temperature tv, the target
    temperature t1s and the virtual-qubit coherence.  An observable that is
    undefined at a point is NaN there: eta_g past the cooling condition,
    eta_tot at q3 = 0, eta_c at beta1 <= beta2, eta_tilde at beta1 =
    beta~2, tv at its pole and t1s where the target's Bloch component a1 is
    not in (-1, 0].  The chain runs on the fields' own shapes, so one model
    is evaluated on scalars, and the columns are broadcast and flattened at
    the end.
    """
    parts = build_generator_parts(params)
    decomp = steady_coefficients(parts.pops, params.p, params.g)
    currents = currents_closed(params, parts.frame, parts.pops, decomp.d)
    q1, q3 = currents["q1"], currents["q3"]
    columns = {**params.as_dict(), "d": decomp.d, "q1": q1, "q3": q3, "q1g": currents["q1g"],
               "q23": currents["q23"], **_performance(parts, decomp.a1, quotient(q1, q3, q3 != 0.0))}
    block = np.empty((len(columns),) + np.broadcast(*columns.values()).shape)
    for i, value in enumerate(columns.values()):
        block[i] = value
    return dict(zip(columns, block.reshape(len(columns), -1)))
