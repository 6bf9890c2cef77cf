"""The invariant suite: named checks of one parameter point.

Each group is ``{"passed": bool, "max_error": float}`` and names one
physical or algebraic law: the bath populations, the agreement of the two
steady-state routes, the charge symmetries (n2 + n3 and n1 + n2) and the
family's closure that the numeric route's family block relies on, the
state itself, the first law and the current
identities, the channel algebra, the equivalence of the delocalized machine
dissipators with local channels on the dressed qubits on the steady-state
family (Hofer et al., NJP 19, 123037 (2017)), the cooling sign chain and the
zero flow against a fictitious bath at the achieved temperature.  The charge
symmetries, the closure and the channel algebra are properties of the
generator's constant operators, checked once by
:func:`neqfridge.dissipation.sector_tables`; every other group reads one
oracle solve (:func:`neqfridge.steadystate.solve_oracle`) on the family
coordinates, and every bound is in the unit of what it bounds, so a model
passes in any units.  Resonance, which the family block relies on too, is
checked per point with the routes' agreement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .dissipation import bath_actions, build_generator_parts, localized_weights, sector_tables
from .errors import DegenerateSteadyStateError
from .linalg import density_matrix_defects
from .model import ModelParams, thermal_population
from .observables import heat_currents
from .steadystate import OracleSolve, solve_oracle


@dataclass(frozen=True)
class ValidationReport:
    """Named invariant groups at one point, with the oracle solve they read.

    When the steady space is degenerate, ``oracle_equivalence`` fails with
    the solver's message, the later groups are absent and ``oracle`` is None.
    """

    groups: dict[str, dict]
    oracle: OracleSolve | None

    @property
    def passed(self) -> bool:
        return all(group["passed"] for group in self.groups.values())


def _group(error: float, limit: float) -> dict:
    return {"passed": bool(error <= limit), "max_error": float(error)}


def validate(params: ModelParams, tol: float = 1e-8) -> ValidationReport:
    """Run every invariant group at one point.

    ``tol`` bounds the coefficient deltas between the two routes, above their
    rounding floor.  The point's generator parts are built once: the two
    population groups check the populations that the oracle then solves with.
    """
    parts = build_generator_parts(params)
    frame, pops = parts.frame, parts.pops
    pop_values = (pops.r1, pops.r22, pops.r23, pops.r32, pops.r33, pops.rtilde2, pops.rtilde3)
    groups = {
        "population_range": _group(max(max(0.0, r - 0.5, -r) for r in pop_values), 0.0),
        "detailed_balance": _group(max(
            abs(pops.r(nu, mu) - thermal_population(frame.eps2 if nu == 2 else frame.eps3,
                                                    params.t2 if mu == 2 else params.t3))
            for nu in (2, 3) for mu in (2, 3)), 1e-12),
    }
    try:
        oracle = solve_oracle(parts)
    except DegenerateSteadyStateError as exc:
        groups["oracle_equivalence"] = {"passed": False, "max_error": math.inf, "error": str(exc)}
        return ValidationReport(groups=groups, oracle=None)
    steady, eps, tables, weights = oracle.numeric, np.finfo(float).eps, sector_tables(), parts.weights
    # the family block has scale p + g and a kernel gap of order p, so the kernel state's
    # coefficients carry rounding of eps (p + g) / p (at most 8 such units measured over the
    # grid box and p from 1e-9), capped at eps eps2 / (p + g); its residual is a rate, in
    # eps (p + g).  The block leaves out the free Hamiltonian, whose weight there,
    # (E1 - eps2 + eps3)/2, resonance makes zero up to the frame's rounding
    rate = params.p + params.g
    floor = 64.0 * eps * min(rate / params.p, frame.eps2 / rate)
    groups["oracle_equivalence"] = {
        "passed": bool(oracle.max_delta <= max(tol, floor) and steady.residual <= 64.0 * eps * rate
                       and abs(weights[0] - weights[1] + weights[2]) <= 4.0 * eps * frame.eps2),
        "max_error": float(oracle.max_delta),
    }
    groups["charge_symmetry"] = _group(max(tables.leakage, tables.closure), 1e-12)
    herm, trace_dev, min_eig = density_matrix_defects(steady.rho)
    groups["steady_state_positivity"] = {
        "passed": herm <= 1e-12 and trace_dev <= 1e-12 and min_eig >= -1e-10,
        "max_error": max(herm, trace_dev, max(0.0, -min_eig)),
    }

    currents = heat_currents(parts, steady)
    # currents are bounded in their unit (p + g) eps2, above the trace route's rounding
    # floor eps eps2^2: the kernel state's error grows as eps2 / (p + g)
    unit, floor = (params.p + params.g) * frame.eps2, eps * frame.eps2 ** 2
    groups["first_law"] = _group(abs(currents.q1 + currents.q2 + currents.q3), 1e-10 * unit + floor)
    groups["current_route_agreement"] = _group(currents.max_route_delta, 1e-9 * unit + floor)
    c2, s2 = frame.cos_half_sq, frame.sin_half_sq
    groups["tilde_current_identities"] = _group(max(
        abs(currents.q1g - currents.q1),
        abs(currents.q1g + currents.qt2g + currents.qt3g),
        abs(currents.q2g - (currents.qt2g * c2 + currents.qt3g * s2)),
        abs(currents.q3g - (currents.qt3g * c2 + currents.qt2g * s2)),
    ), 1e-10 * unit + floor)

    # trace-free, Hermiticity-preserving channels, on every Pauli string
    groups["channel_algebra"] = _group(tables.channel_defect, 1e-12)

    # the machine channels against the dressed-local resets, on the family, in the unit p
    difference = np.tensordot((weights - localized_weights(parts))[3:], tables.generator, 1)
    groups["localization_identity"] = _group(np.max(np.abs(difference)), 1e-10 * params.p)

    # d < 0 iff the machine cools iff the target ends below its bath
    # temperature; a |d| at SVD noise level carries no sign
    d, a1 = steady.decomposition.d, steady.decomposition.a1
    sign_ok = abs(d) <= 1e-13 or (d < 0.0) == (currents.q1g > 0.0) == (a1 < pops.s1)
    groups["sign_chain"] = _group(0.0 if sign_ok else 1.0, 0.0)

    # the target bath moved to the temperature the target reaches
    achieved = replace(parts, pops=replace(pops, r1=0.5 * (1.0 + a1)))
    flow = bath_actions(achieved.weights, steady.coords)[0] @ (parts.weights[:4] @ tables.hamiltonians)
    groups["fictitious_bath"] = _group(abs(flow), 1e-10 * unit + floor)
    return ValidationReport(groups=groups, oracle=oracle)
