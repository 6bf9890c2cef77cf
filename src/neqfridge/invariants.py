"""The invariant suite: named checks of one parameter point.

Each group is ``{"passed": bool, "max_error": float}`` and names one
physical or algebraic law: the bath populations, the agreement of the two
steady-state routes, the state itself, the first law and the current
identities, the channel algebra, the equivalence of the delocalized machine
dissipators with local channels on the dressed qubits on the steady-state
family (Hofer et al., NJP 19, 123037 (2017)), the cooling sign chain and the
zero flow against a fictitious bath at the achieved temperature.  All
groups read one oracle solve (:func:`neqfridge.steadystate.solve_oracle`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dissipation import reset_channel, tilde_channel
from .errors import DegenerateSteadyStateError
from .linalg import density_matrix_defects, hermiticity_defect
from .model import ModelParams, resolve_resonance, thermal_population, tilde_populations
from .observables import heat_currents
from .steadystate import family_operators, solve_oracle


@dataclass(frozen=True)
class ValidationReport:
    """Named invariant groups at one point, with the oracle's headline figures.

    When the steady space is degenerate, ``oracle_equivalence`` fails with
    the solver's message, the later groups are absent and the figures are
    infinite.
    """

    groups: dict[str, dict]
    deltas: dict[str, float]
    residual_numeric: float
    off_family_max: float

    @property
    def max_delta(self) -> float:
        return max(self.deltas.values(), default=math.inf)

    @property
    def passed(self) -> bool:
        return all(group["passed"] for group in self.groups.values())


def _group(error: float, limit: float) -> dict:
    return {"passed": bool(error <= limit), "max_error": float(error)}


def validate(params: ModelParams, tol: float = 1e-8, rng: np.random.Generator | None = None,
             population=thermal_population) -> ValidationReport:
    """Run every invariant group at one point.

    ``tol`` bounds the coefficient deltas between the two routes.  ``rng``
    draws the Hermitian probe of the channel-algebra group (seed 0 when
    omitted).  ``population(E, T)`` gives the machine-bath populations, as
    in :func:`neqfridge.model.tilde_populations`; a wrong law fails the
    population groups.
    """
    frame = resolve_resonance(params)
    pops = tilde_populations(frame, params.t2, params.t3, t1=params.t1, population=population)
    pop_values = (pops.r1, pops.r22, pops.r23, pops.r32, pops.r33, pops.rtilde2, pops.rtilde3)
    groups = {
        "population_range": _group(max(max(0.0, r - 0.5, -r) for r in pop_values), 0.0),
        "detailed_balance": _group(max(
            abs(pops.r(nu, mu) - thermal_population(frame.eps2 if nu == 2 else frame.eps3,
                                                    params.t2 if mu == 2 else params.t3))
            for nu in (2, 3) for mu in (2, 3)), 1e-12),
    }
    try:
        oracle = solve_oracle(params, frame, pops)
    except DegenerateSteadyStateError as exc:
        groups["oracle_equivalence"] = {"passed": False, "max_error": math.inf, "error": str(exc)}
        return ValidationReport(groups=groups, deltas={}, residual_numeric=math.inf,
                                off_family_max=math.inf)
    parts, steady = oracle.parts, oracle.numeric
    off = max(oracle.analytic.off_family_max, steady.off_family_max)
    groups["oracle_equivalence"] = {
        "passed": bool(oracle.max_delta <= tol and steady.residual <= 1e-10 and off <= 1e-10),
        "max_error": float(oracle.max_delta),
    }
    herm, trace_dev, min_eig = density_matrix_defects(steady.rho)
    groups["steady_state_positivity"] = {
        "passed": herm <= 1e-12 and trace_dev <= 1e-12 and min_eig >= -1e-10,
        "max_error": max(herm, trace_dev, max(0.0, -min_eig)),
    }

    currents = heat_currents(params, frame, pops, steady)
    groups["first_law"] = _group(abs(currents.q1 + currents.q2 + currents.q3), 1e-10)
    groups["current_route_agreement"] = _group(currents.max_route_delta, 1e-9)
    c2, s2 = frame.cos_half_sq, frame.sin_half_sq
    groups["tilde_current_identities"] = _group(max(
        abs(currents.q1g - currents.q1),
        abs(currents.q1g + currents.qt2g + currents.qt3g),
        abs(currents.q2g - (currents.qt2g * c2 + currents.qt3g * s2)),
        abs(currents.q3g - (currents.qt3g * c2 + currents.qt2g * s2)),
    ), 1e-10)

    # trace-free, Hermiticity-preserving channels, on a random Hermitian probe
    rng = rng if rng is not None else np.random.default_rng(0)
    raw = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    probe = 0.5 * (raw + raw.conj().T)
    outs = [channel.apply(probe) for channel in (parts.d1, parts.d2, parts.d3)]
    groups["channel_algebra"] = _group(
        max(max(abs(np.trace(out)), hermiticity_defect(out)) for out in outs), 1e-10)

    t2c = tilde_channel(2, frame, pops, params.p)
    t3c = tilde_channel(3, frame, pops, params.p)
    groups["localization_identity"] = _group(max(
        np.max(np.abs((parts.d2.apply(op) + parts.d3.apply(op)) - (t2c.apply(op) + t3c.apply(op))))
        for op in family_operators(frame).values()), 1e-12)

    # d < 0 iff the machine cools iff the target ends below its bath
    # temperature; a |d| at SVD noise level carries no sign
    d, a1 = steady.decomposition.d, steady.decomposition.a1
    sign_ok = abs(d) <= 1e-13 or (d < 0.0) == (currents.q1g > 0.0) == (a1 < pops.s1)
    groups["sign_chain"] = _group(0.0 if sign_ok else 1.0, 0.0)

    fictitious = reset_channel(1, params.p, 0.5 * (1.0 + a1))
    groups["fictitious_bath"] = _group(
        abs(np.trace(parts.hams.htot @ fictitious.apply(steady.rho)).real), 1e-10)
    return ValidationReport(groups=groups, deltas=oracle.deltas,
                            residual_numeric=steady.residual, off_family_max=off)
