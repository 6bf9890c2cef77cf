"""Parameter sweeps, root finding and optimization pipelines.

These regenerate the data behind the package's standard figures, each
varying the reference refrigerator ``model.REFERENCE``: the cooling-current
sweeps over the engine-bath inverse temperature, the COP sweeps over the
target gap with cooling-window endpoints, the endpoint-COP ratio sweeps and
the random-refrigerator ensemble for the power-COP bounds.

All evaluations go through the matrix-free closed-form coefficients, which
are validated against the generator null space elsewhere.  The closed forms
take numpy arrays, so each step of a window search or power maximization
over a batch of models (one ``ModelParams`` whose fields broadcast) is one
kernel call in the caller's units, and each figure,
sweep or ensemble builds one batch and reads its observables from one
:func:`~neqfridge.observables.closed_form_table` call (fig3 and fig5 make a
second).  Tables hold one array per column, and every row carries the full
resolved parameter set.  A window search's stages hand on columns too, with
a reason code per model that has no window, and the ensemble root-finds
only the windows it keeps.  Sweeps and scans read which rule a point breaks
from the gate's verdicts (``model._verdicts``), never from a caught error.
Ensembles are driven by a seeded numpy PCG64 generator and are bit-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from typing import Callable

import numpy as np

from .errors import EmptyCoolingWindowError, NeqFridgeError, ParameterError
from .model import (PARAM_NAMES, REFERENCE, ModelParams, _delta_e, _frame_at, _gate_values,
                    _log_odds, _rule_error, _target_gap, _verdicts, resonant_frame,
                    tilde_populations)
from .observables import (
    closed_form_table,
    cop_carnot,
    critical_gamma,
    eta_star_max,
    eta_star_min,
)
from .steadystate import _deviation_terms, steady_coefficients

# f = E1/T1 - (L2 - L3) rounds to a few ulps of E1/T1 (inside ensemble scan
# ranges, at most 1.9 eps hi/T1 against mpmath over 600 draws at 12 points each),
# so a window needs f below this many eps of the range's largest E1/T1, hi/T1
_F_ROUNDING = 8.0 * np.finfo(float).eps
_CHUNK = 8  # the fewest draws random_ensemble screens in one round
# the most rounds a root search may take: fig6's window edges, searched in delta_e, take up
# to 18 (a barely cooling model's near-double root), its power maxima up to 19, bisection 53
_MAX_ROUNDS = 100
# why a window search finds no window, in the order it checks (0: it may find one)
_NOT_COLD, _EMPTY_RANGE, _UNFRAMED, _NO_COOLING, _BEYOND_RANGE = range(1, 6)
# the ensemble's fixed sampling box: E3 is uniform over _E3_RANGE, and gamma is
# k E3 eta_c/_GAMMA_STEPS with the integer k uniform over 1.._MAX_GAMMA_STEP
_E3_RANGE = (2.0, 8.0)
_GAMMA_STEPS = 200
_MAX_GAMMA_STEP = 40
BatchFunc = Callable[[np.ndarray, np.ndarray], np.ndarray]  # f(x, idx): x for models idx


@dataclass(frozen=True)
class SweepSpec:
    """A 1-D sweep over one parameter of a base model."""

    base: ModelParams
    axis: str  # "beta3" | "e1" | "gamma"
    lo: float
    hi: float
    points: int

    def __post_init__(self) -> None:
        if self.axis not in ("beta3", "e1", "gamma"):
            raise ParameterError(f"unknown sweep axis {self.axis!r}")
        if not self.lo < self.hi:
            raise ParameterError(f"need lo < hi, got [{self.lo}, {self.hi}]")
        _check_points(self.points)


def _check_points(points: int) -> None:
    if points < 2:
        raise ParameterError(f"need at least 2 points, got {points}")


@dataclass(frozen=True)
class EnsembleSpec:
    """Sampling plan for the random-refrigerator ensemble.

    E3 and the internal coupling are drawn from the fixed box of
    ``_E3_RANGE``, ``_GAMMA_STEPS`` and ``_MAX_GAMMA_STEP``, T2 from
    ``t2_range``, T3/T2 from ``t3_mult_range``, and the cold-bath temperature
    is fixed by the Carnot constraint b1 = b2 + (b2 - b3)/eta_c.  Draws whose
    window search finds no window, or raises, are rejected and redrawn.
    """

    n: int
    eta_c: float = 1.0
    seed: int = 7
    t2_range: tuple[float, float] = (1.0, 4.0)
    t3_mult_range: tuple[float, float] = (1.0, 5.0)

    def __post_init__(self) -> None:
        mult_lo, mult_hi = self.t3_mult_range
        rules = {
            "n": (">= 1", self.n >= 1),
            "eta_c": ("finite and positive", 0 < self.eta_c < math.inf),
            "seed": (">= 0", self.seed >= 0),
            "t2_range": ("0 < lo <= hi", 0 < self.t2_range[0] <= self.t2_range[1]),
            # at hi = 1 every draw has T1 = T2 = T3, and nothing can cool
            "t3_mult_range": ("1 <= lo <= hi, 1 < hi", 1 <= mult_lo <= mult_hi and 1 < mult_hi),
        }
        for name, (rule, holds) in rules.items():
            if not holds:
                raise ParameterError(f"{name} must be {rule}, got {getattr(self, name)}")


@dataclass(frozen=True)
class CoolingWindow:
    """Target-gap interval with positive extracted current.

    When the deviation is already negative at the lower scan limit (only
    possible as gamma -> 0) the left edge is the scan boundary, not a root.
    """

    left: float
    right: float
    left_is_boundary: bool


@dataclass(frozen=True)
class MaxPowerResult:
    e1_star: float
    q1g_max: float
    eta_g_star: float
    window: CoolingWindow


def deviation(e1, base: ModelParams):
    """Steady-state deviation coefficient d at target gap(s) e1 (base's own E1 is unused).

    Only the frame at e1 is checked; base, one model or a batch that
    broadcasts against e1, was validated when it was built."""
    frame = resonant_frame(e1, base.e3, base.gamma)
    pops = tilde_populations(frame, base.t2, base.t3, t1=base.t1)
    return steady_coefficients(pops, base.p, base.g).d


def log_odds_gap(e1, base: ModelParams):
    """f(E1) = E1/T1 - (L2 - L3) at target gap(s) e1, L = ln(q~/r~) the dressed qubits'
    log-odds (:func:`~neqfridge.model._log_odds`).

    d's numerator is r1 q~2 r~3 expm1(f) (q = 1 - r) and its denominator is positive,
    so f has the sign of d wherever g > 0: the cooling window is {f < 0}, and f depends
    on neither p nor g.  A search kernel: e1 must lie in a scan range whose frame holds
    (:func:`_scan_range`), since the frame is built without its checks.
    """
    return _log_odds_gap_at(e1, _delta_e(e1, base.gamma), base)


def _log_odds_gap_at(e1, delta_e, base: ModelParams):
    """f of :func:`log_odds_gap` at target gap(s) e1 whose delta_e is given."""
    return e1 / base.t1 - _log_odds(_frame_at(e1, base.e3, base.gamma, delta_e), base.t2, base.t3)[0][2]


def _e1_slopes(e1, base: ModelParams) -> tuple:
    """E1-derivatives at target gap(s) e1, from one frame and one log-odds pass: f' of
    :func:`log_odds_gap`, and h = H/P, H = -(N D + E1 (N' D - N D')) of the sign of
    dQ1^g/dE1 (Q1^g is a positive multiple of -E1 N/D, with N = P phi, P > 0 the larger
    of N's two products, and D > 0 from :func:`~neqfridge.steadystate._deviation_terms`).

    deps3/dE1 = E1/(2 delta_e) - 1/2 = deps2/dE1 - 1, ln cos^2(theta/2) and
    ln sin^2(theta/2) have E1-slopes tan^2(theta/2) kappa and -kappa, kappa = 1/delta_e +
    1/E1, (ln q~)' = -(r~/q~)(ln r~)' and phi' = (1 - |phi|) f': every slope is finite
    where r~ underflows.  With (p, g) scaled as in ``_deviation_terms``, h is u^2 H/P for
    a power of two u: the same sign and root.  A search kernel like :func:`log_odds_gap`.
    """
    frame = _frame_at(e1, base.e3, base.gamma, _delta_e(e1, base.gamma))
    pops = tilde_populations(frame, base.t2, base.t3, base.t1)
    kappa = 1.0 / frame.delta_e + 1.0 / e1
    own, other = frame.sin_half_sq / frame.cos_half_sq * kappa, -kappa  # of cos^2, sin^2
    deps3 = 0.5 * e1 / frame.delta_e - 0.5
    b1, b2, b3 = 1.0 / base.t1, 1.0 / base.t2, 1.0 / base.t3
    # (ln r~)': its baths' (ln r)' = -q deps/T, weighed by their shares w of r~
    slope = lambda w, r_own, r_other, dx_own, dx_other: (
        (1.0 - w) * (own - (1.0 - r_own) * dx_own) + w * (other - (1.0 - r_other) * dx_other))
    w2, w3 = (np.exp(share) for share in pops.log_shares)
    dr2 = slope(w2, pops.r22, pops.r23, (deps3 + 1.0) * b2, (deps3 + 1.0) * b3)
    dr3 = slope(w3, pops.r33, pops.r32, deps3 * b3, deps3 * b2)
    r1, rt2, rt3 = pops.r1, pops.rtilde2, pops.rtilde3
    odds2, odds3 = rt2 / (1.0 - rt2), rt3 / (1.0 - rt3)  # r~/q~
    f_slope = b1 + (dr2 * (1.0 + odds2) - dr3 * (1.0 + odds3))
    (f, _, phi), d, _, g = _deviation_terms(pops, base.p, base.g)
    # (ln P)': P = r1 q~2 r~3 where f < 0, else q1 r~2 q~3
    log_p = np.where(f < 0.0, dr3 - odds2 * dr2 - (1.0 - r1) * b1, dr2 - odds3 * dr3 + r1 * b1)
    dn = log_p * phi + (1.0 - np.abs(phi)) * f_slope  # N'/P
    dr1, drt2, drt3 = -r1 * (1.0 - r1) * b1, rt2 * dr2, rt3 * dr3
    dd = 8.0 * g * g * ((rt3 - rt2) * dr1 + (1.0 - r1 - rt3) * drt2 + (r1 - rt2) * drt3)
    return f_slope, -(phi * d + e1 * (dn * d - phi * dd))


def _chandrupatla(func: BatchFunc, a, b, fa, fb, floor) -> np.ndarray:
    """Find a sign change in many brackets [a, b] with end values fa, fb at once.

    Chandrupatla's method: each step interpolates the inverse function
    quadratically through the last three points where that is safe and
    bisects otherwise, always keeping a sign bracket.  Each bracket's
    tolerance is 4 eps times the larger of its current ends' magnitudes and
    its ``floor``, so the search is the same in any units: the initial ends'
    larger magnitude fixes it, and a smaller floor finds a root far inside a
    wide bracket to a few ulps of itself.  A step moves at least tol/2, so an
    iterate next to the root is followed by one across it, and a bracket at
    most 2 tol wide is bisected.  Per bracket, an exact zero ends the
    search, and a search stops once its bracket is at most tol wide and
    returns the bracket's midpoint.  On a simple root this takes far fewer
    evaluations than bisection; near a multiple root the interpolation
    converges only linearly and can take a few more.  End values of one
    sign, or a search still open after ``_MAX_ROUNDS`` evaluations, raise a
    :class:`NeqFridgeError` that names the brackets.
    """
    a, b, fa, fb, floor = (np.array(v, dtype=float) for v in (a, b, fa, fb, floor))
    open_ = (fa != 0.0) & (fb != 0.0)
    unbracketed = open_ & (np.sign(fa) == np.sign(fb))
    if unbracketed.any():
        raise NeqFridgeError("root not bracketed: " + _brackets(a[unbracketed], b[unbracketed]))
    root = np.where(fa == 0.0, a, b)
    idx = np.flatnonzero(open_)
    # (x1, f1) the newest point, (x2, f2) the bracket end across the root
    # from it, (x3, f3) the point they replaced
    x1, f1, x2, f2, floor = a[idx], fa[idx], b[idx], fb[idx], floor[idx]
    x3, f3, t, width = x2, f2, np.full(idx.size, 0.5), np.abs(x2 - x1)
    tol = 4.0 * np.finfo(float).eps * np.fmax(np.fmax(np.abs(x1), np.abs(x2)), floor)
    with np.errstate(divide="ignore", invalid="ignore"):
        for rounds in range(_MAX_ROUNDS + 1):
            wide = width > tol
            if not wide.all():
                root[idx[~wide]] = 0.5 * (x1[~wide] + x2[~wide])
                idx, x1, f1, x2, f2, x3, f3, t, floor = (
                    v[wide] for v in (idx, x1, f1, x2, f2, x3, f3, t, floor))
            if not idx.size:
                return root
            if rounds == _MAX_ROUNDS:
                raise NeqFridgeError(f"root search still open after {_MAX_ROUNDS} rounds: "
                                     + _brackets(x1, x2))
            x = x1 + t * (x2 - x1)
            fx = func(x, idx)
            same = np.sign(fx) == np.sign(f1)
            x2, f2, x3, f3 = (np.where(same, x2, x1), np.where(same, f2, f1),
                              np.where(same, x1, x2), np.where(same, f1, f2))
            x1, f1 = x, fx
            x2[f1 == 0.0] = x1[f1 == 0.0]  # an exact zero closes the bracket on itself
            xi, phi = (x1 - x2) / (x3 - x2), (f1 - f2) / (f3 - f2)
            t = np.where((phi * phi < xi) & ((1.0 - phi) ** 2 < 1.0 - xi),
                         f1 / (f2 - f1) * f3 / (f2 - f3)
                         + (x3 - x1) / (x2 - x1) * f1 / (f3 - f1) * f2 / (f3 - f2), 0.5)
            # step at least tol/2 from x1; within 2 tol, bisection ends the search
            tol = 4.0 * np.finfo(float).eps * np.fmax(np.fmax(np.abs(x1), np.abs(x2)), floor)
            width = np.abs(x2 - x1)
            least = 0.5 * tol / width
            t = np.where(width > 2.0 * tol, np.minimum(np.maximum(t, least), 1.0 - least), 0.5)


def _brackets(a, b) -> str:
    """Brackets between a and b, elementwise and in either order, as "[lo, hi], ..."."""
    return ", ".join(map(str, np.sort([a, b], axis=0).T.tolist()))


def _scan_range(models: ModelParams) -> tuple:
    """The scan ranges [lo, hi] of a batch, and per model 0 or the reason code of
    what rules its window search out: T1 >= T2, an empty range, or a frame that
    fails at lo, checked in that order.  The dressed gap eps3 only grows with
    E1, so a frame that holds at lo holds on the whole range.
    """
    e3, gamma = models.e3, models.gamma
    lo = np.where(gamma > 0, 2.0 * gamma * (1.0 + 1e-9), 1e-9 * e3)
    # the right root never exceeds E3 times the Carnot COP (NaN unless cold);
    # at gamma = 0 it sits exactly there, so pad the scan a little past it
    hi = e3 * cop_carnot(models.t1, models.t2, models.t3) * (1.0 + 1e-6)
    unframed = _verdicts(_gate_values(dict(e1=lo, e3=e3, gamma=gamma))) != 0
    return lo, hi, np.select([~(models.beta1 > models.beta2), ~(hi > lo), unframed],
                             [_NOT_COLD, _EMPTY_RANGE, _UNFRAMED])


def _screen_windows(models: ModelParams) -> tuple:
    """Find a point inside each batch model's cooling window, which brackets both edges.

    f (:func:`log_odds_gap`) is read at both ends and the midpoint of every
    scan range that :func:`_scan_range` accepts in one call.  Only f below
    its rounding bound, ``_F_ROUNDING * hi / T1``, is taken as cooling.
    Where none of the three is below it, f' (:func:`_e1_slopes`) is read at
    both ends in one call, and where it rises from negative to positive f is
    read once at its root, the minimum of f; a model without that sign
    change, or whose minimum is not below the bound, has no window.  Returns
    the columns x, f(x), f(lo), f(hi) (NaN where the range is not searched),
    lo, hi and the reason code, 0 where a window was found.
    """
    lo, hi, reason = _scan_range(models)
    index = np.flatnonzero(reason == 0)
    models, a, b = models.take(index), lo[index], hi[index]
    # the midpoint cools in about 95% of fig6's windows, which then need no search
    points = np.array([a, 0.5 * (a + b), b])
    values = log_odds_gap(points, models)
    bound = _F_ROUNDING * b / models.t1
    best = np.argmin(values, axis=0), np.arange(index.size)
    x, fx, (f_lo, _, f_hi) = points[best], values[best], values
    search = np.flatnonzero(fx >= -bound)
    if search.size:
        slope_lo, slope_hi = _e1_slopes(np.array([a[search], b[search]]), models.take(search))[0]
        dips = (slope_lo < 0.0) & (slope_hi > 0.0)
        dip = search[dips]
        x[dip] = _chandrupatla(lambda e1, j: _e1_slopes(e1, models.take(dip[j]))[0],
                               a[dip], b[dip], slope_lo[dips], slope_hi[dips], b[dip])
        fx[dip] = log_odds_gap(x[dip], models.take(dip))
    cools = (fx < -bound) & (models.g > 0.0)  # at g = 0 nothing cools
    reason[index] = np.select([~cools, f_hi < 0.0], [_NO_COOLING, _BEYOND_RANGE])
    columns = np.full((4, lo.size), np.nan)
    columns[:, index] = x, fx, f_lo, f_hi
    return (*columns, lo, hi, reason)


def _window_error(models: ModelParams, columns: tuple, i: int) -> NeqFridgeError:
    """The error of model i of a batch, whose reason code is not 0 in the columns of
    :func:`_scan_range` or :func:`_screen_windows`, which both end in lo, hi, reason."""
    lo, hi, reason = (column[i] for column in columns[-3:])
    if reason == _UNFRAMED:
        frame = _gate_values(dict(e1=lo, e3=models.e3[i], gamma=models.gamma[i]))
        return _rule_error(frame, _verdicts(frame), 0)
    scanned, gamma = f"[{float(lo)!r}, {float(hi)!r}]", float(models.gamma[i])
    message = {_NOT_COLD: "window scan needs T1 < T2",
               _EMPTY_RANGE: f"scan range empty: {scanned} for gamma={gamma}",
               _NO_COOLING: f"no cooling found in {scanned} for gamma={gamma}",
               _BEYOND_RANGE: f"cooling region extends beyond the scan range {scanned}"}[reason]
    return (ParameterError if reason == _NOT_COLD else EmptyCoolingWindowError)(message)


def _solve_windows(models: ModelParams, screen: tuple, index: np.ndarray) -> tuple:
    """Root-find the edge brackets of the models ``index`` of a 1-D batch, all
    searchable in its columns ``screen`` (:func:`_screen_windows`), at once.

    Each edge is searched in u = delta_e (:func:`~neqfridge.model._delta_e`), in which f is
    smooth at E1 = 2 gamma, where its E1-slope diverges: f is evaluated at delta_e = u and
    E1 = sqrt(u^2 + 4 gamma^2) (``_target_gap``), to 4 eps of its bracket's current ends in
    u or, if larger, for a left edge, of E1^2/delta_e at the point x inside the window.  As
    dE1/du = delta_e/E1, a right edge's error in E1 is at most 4 eps delta_e, and a left
    edge's 4 eps E1 where it shares x's scale.  A bracket end where f is zero is returned
    exactly, so a boundary left edge stays the scan's lower end; at gamma = 0, u is E1.
    Returns the arrays left, right and left_is_boundary.
    """
    x, fx, f_lo, f_hi, lo, hi = (column[index] for column in screen[:6])
    boundary, zero = f_lo < 0.0, np.zeros(index.size)
    # (a, b, f(a), f(b)) of each model's left-edge bracket, then of its right-edge one
    left = np.where(boundary, [lo, lo, zero, zero], [lo, x, f_lo, fx])
    right = np.where(boundary, [lo, hi, f_lo, f_hi], [x, hi, fx, f_hi])
    a, b, fa, fb = np.hstack([left, right])
    pairs = models.take(np.tile(index, 2))
    # near E1 = 2 gamma, delta_e is far below E1 and f's rounding in u is about eps E1
    floor = np.concatenate([x * (x / _delta_e(x, models.gamma[index])), zero])
    u = _chandrupatla(lambda x, j: _log_odds_gap_at(_target_gap(x, pairs.gamma[j]), x, pairs.take(j)),
                      _delta_e(a, pairs.gamma), _delta_e(b, pairs.gamma), fa, fb, floor)
    roots = np.where(fa == 0.0, a, np.where(fb == 0.0, b, _target_gap(u, pairs.gamma)))
    return (*roots.reshape(2, -1), boundary)


def _searched_windows(models: ModelParams) -> tuple:
    """The edges left and right, and the windows, of a 1-D batch; raises the first model's error."""
    screen = _screen_windows(models)
    failed = np.flatnonzero(screen[-1])
    if failed.size:
        raise _window_error(models, screen, failed[0])
    left, right, boundary = _solve_windows(models, screen, np.arange(screen[-1].size))
    return left, right, list(map(CoolingWindow, left.tolist(), right.tolist(), boundary.tolist()))


def cooling_windows(models: ModelParams) -> list:
    """Locate the d(E1) = 0 roots bounding the cooling region of each model
    of ``models``, one model or a batch whose fields broadcast.

    The E1 field is ignored.  The scan range is (2*gamma, E3 * Carnot COP),
    whose right end lies outside the window.  A window needs a point x where
    f (:func:`log_odds_gap`, which has d's sign) is below its rounding
    bound, f(x) < -8 eps hi/T1, and f >= 0 at the right end; Chandrupatla's
    method finds its edges in delta_e between x and the ends
    (:func:`_solve_windows`), and f < 0 at the left end makes that end the
    left edge.  At g = 0 every window is empty.  A model with T1 >= T2, an
    empty range or a frame that fails at the range's low end (eps3 <= 0
    there) is rejected before any search.  Returns per model its
    :class:`CoolingWindow`, or the error that :func:`cooling_window` raises
    for it, built from its reason code.
    """
    models = models.as_batch()
    screen = _screen_windows(models)
    index = np.flatnonzero(screen[-1] == 0)
    found = map(CoolingWindow, *(v.tolist() for v in _solve_windows(models, screen, index)))
    return [next(found) if code == 0 else _window_error(models, screen, i)
            for i, code in enumerate(screen[-1].tolist())]


def cooling_window(base: ModelParams) -> CoolingWindow:
    """The cooling window of one model; see :func:`cooling_windows`."""
    return _searched_windows(base.as_batch())[2][0]


def _power_maxima(models: ModelParams, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """E1* of each model of the batch ``models`` in its cooling window [left, right]: the
    root of H (:func:`_e1_slopes`), which has the sign of dQ1^g/dE1, between the window's
    edges.  H is positive at the left edge, a root of d's numerator N with N' < 0 or, where
    the window starts at the scan boundary, a point from which Q1^g (which carries a factor
    E1) rises, and negative at the right edge, where N' > 0.
    """
    h_left, h_right = _e1_slopes(np.array([left, right]), models)[1]
    return _chandrupatla(lambda x, j: _e1_slopes(x, models.take(j))[1], left, right, h_left, h_right,
                         right)


def maximize_cooling_powers(models: ModelParams) -> list[MaxPowerResult]:
    """Maximize Q1^g over the whole cooling window of each model of ``models`` (as
    in :func:`cooling_windows`) at E1* (:func:`_power_maxima`), and report the COP
    there, both read from the closed-form table at E1*."""
    models = models.as_batch()
    left, right, windows = _searched_windows(models)
    table = closed_form_table(replace(models, e1=_power_maxima(models, left, right)))
    return [MaxPowerResult(e1_star=e, q1g_max=q, eta_g_star=eta, window=w) for e, q, eta, w in
            zip(*(table[name].tolist() for name in ("e1", "q1g", "eta_g")), windows)]


def maximize_cooling_power(base: ModelParams) -> MaxPowerResult:
    """Maximize Q1^g over the cooling window of one model."""
    return maximize_cooling_powers(base)[0]


def sweep_fig3(points: int, gammas: tuple[float, ...] | None = None) -> dict[str, np.ndarray]:
    """Cooling current and coherence change versus engine-bath coldness.

    One curve per coupling value of the reference refrigerator with
    T1 = T2, over beta3 from 0.01 to beta2; the default couplings bracket
    its critical coupling.  The coherence change is relative to the
    degenerate-bath point T3 = T2.  All curves are one batch, coupling-major.
    """
    _check_points(points)
    ref = replace(REFERENCE, t1=REFERENCE.t2)
    if gammas is None:
        gammas = (0.48, 0.49, critical_gamma(ref.e1, ref.e3), 0.50)
    gamma = np.array(gammas, dtype=float)[:, None]
    beta3 = np.linspace(0.01, 1.0 / ref.t2, points)
    table = closed_form_table(replace(ref, gamma=gamma, t3=1.0 / beta3))
    degenerate = closed_form_table(replace(ref, gamma=gamma, t3=ref.t2))
    return {
        **table,
        "beta3": np.tile(beta3, gamma.size),
        "delta_c": table["coherence"] - np.repeat(degenerate["coherence"], points),
    }


def sweep_fig4(
    points: int, gammas: tuple[float, ...] | None = None
) -> tuple[dict[str, np.ndarray], dict[float, CoolingWindow]]:
    """COPs and coherence versus target gap inside each cooling window.

    One curve per coupling value (default 0.2, 0.4, 0.6) of the reference
    refrigerator; all windows are searched in one batch, and all curves are
    one batch, window-major.
    """
    _check_points(points)
    gammas = gammas if gammas is not None else (0.2, 0.4, 0.6)
    gamma = np.array(gammas, dtype=float)[:, None]
    # fmax is max(1.0, x) for every x, NaN included
    models = replace(REFERENCE, e1=np.fmax(1.0, 2.5 * gamma), gamma=gamma)
    lefts, rights, windows = _searched_windows(models.as_batch())
    table = closed_form_table(replace(models, e1=np.linspace(lefts, rights, points, axis=1)))
    return {
        **table,
        "window_left": np.repeat(lefts, points),
        "window_right": np.repeat(rights, points),
    }, dict(zip(gammas, windows))


def sweep_fig5(
    points: int, gammas: tuple[float, ...] | None = None
) -> tuple[dict[str, np.ndarray], list[dict]]:
    """Endpoint COP over Carnot, and coherence, versus engine-bath coldness.

    One curve per coupling value (default 0.1, 0.2, 0.3) of the reference
    refrigerator, whose cold-bath temperature is set to the virtual
    temperature at every point (the d = 0 surface).  A point needs
    0 < Tv < T2 to be a refrigerator with a Carnot COP; the others (Tv NaN
    at its pole among them) are skipped and reported separately with Tv.
    All curves are one batch, coupling-major.
    """
    _check_points(points)
    gammas = gammas if gammas is not None else (0.1, 0.2, 0.3)
    t2 = REFERENCE.t2
    beta3 = np.linspace(0.01, 1.0 / t2 - 1e-4, points)  # the Carnot ratio is 0/0 at beta3 = beta2
    grid = closed_form_table(replace(REFERENCE, gamma=np.array(gammas, dtype=float)[:, None],
                                     t3=1.0 / beta3))
    beta3, tv = np.tile(beta3, len(gammas)), grid["tv"]
    keep = (tv > 0.0) & (tv < t2)
    skipped = [{"gamma": g, "beta3": b, "tv": v} for g, b, v in
               zip(grid["gamma"][~keep].tolist(), beta3[~keep].tolist(), tv[~keep].tolist())]
    table = closed_form_table(replace(REFERENCE, gamma=grid["gamma"][keep], t1=tv[keep],
                                      t3=grid["t3"][keep]))
    return {**table, "beta3": beta3[keep], "eta_ratio": table["eta_g"] / table["eta_c"]}, skipped


def sweep(spec: SweepSpec) -> tuple[dict[str, np.ndarray], list[dict]]:
    """Generic 1-D sweep emitting the standard observable set per point.

    Points whose verdict is not 0 (eps3 <= 0 or beta3 = 0 among them) are
    skipped with their verdict's message; an observable undefined at a point
    (no cooling regime, virtual-temperature pole, inverted target) is NaN there.
    """
    field = {"beta3": "t3", "e1": "e1", "gamma": "gamma"}[spec.axis]
    values = np.linspace(spec.lo, spec.hi, spec.points)
    with np.errstate(divide="ignore", over="ignore"):
        axis = 1.0 / values if spec.axis == "beta3" else values
    points = _gate_values({**spec.base.as_dict(), field: axis})
    verdicts = _verdicts(points)
    keep = verdicts == 0
    skipped = [{"axis": spec.axis, "value": values[i].item(),
                "reason": str(_rule_error(points, verdicts, i))} for i in np.flatnonzero(~keep)]
    params = ModelParams._unchecked({**spec.base.as_dict(), field: axis[keep]})  # verdicts 0
    return {**closed_form_table(params), "axis_value": values[keep]}, skipped


def _draw(rng: np.random.Generator, spec: EnsembleSpec) -> tuple:
    """One random refrigerator's eight fields, in ``PARAM_NAMES`` order, not validated."""
    e3 = rng.uniform(*_E3_RANGE)
    t2 = rng.uniform(*spec.t2_range)
    mult_lo, mult_hi = spec.t3_mult_range
    t3 = t2 * (mult_lo + (mult_hi - mult_lo) * (1.0 - rng.random()))
    k = int(rng.integers(1, _MAX_GAMMA_STEP + 1))
    gamma = k * e3 * spec.eta_c / _GAMMA_STEPS
    beta1 = 1.0 / t2 + (1.0 / t2 - 1.0 / t3) / spec.eta_c
    t1 = 1.0 / beta1
    p = g = 0.01 * e3 / 4.0
    return max(1.0, 2.5 * gamma), e3, gamma, t1, t2, t3, p, g


def random_ensemble(spec: EnsembleSpec) -> tuple[dict[str, np.ndarray], dict]:
    """Max-power COPs of seeded random refrigerators at fixed Carnot COP.

    Each accepted model is optimized over the target gap; its row carries the
    COP-at-max-power ratio, the thermodynamic COP there, the virtual-qubit
    coherence at the optimum, and whether the model sits within 5% of the
    upper bound (relative to the bound gap).  Candidates are screened in
    rounds of half again as many draws as the acceptance ratio so far says
    the remaining models need, unchecked (the window scan rejects what
    ``ModelParams`` would); the first draws with a window are kept, up to n,
    and only their window edges are root-found.  Each draw takes the same
    random numbers whatever its outcome, so drawing ahead changes nothing.
    """
    rng = np.random.default_rng(spec.seed)
    kept_fields, edges = [], []  # per round: the kept draws, a row per field, and their windows
    found = resamples = 0
    while found < spec.n:
        ratio = (resamples + found) / found if found else 1.0
        size = max(_CHUNK, math.ceil(1.5 * (spec.n - found) * ratio))
        fields = np.array([_draw(rng, spec) for _ in range(size)]).T.copy()
        drawn = ModelParams._unchecked(dict(zip(PARAM_NAMES, fields)))
        screen = _screen_windows(drawn)
        kept = np.flatnonzero(screen[-1] == 0)[:spec.n - found]
        # the draws with no window before the last one needed are resamples; one past the cap stalls
        resamples += (kept[-1] + 1 if found + kept.size == spec.n else size) - kept.size
        if resamples > 200 * spec.n:
            raise ParameterError(f"ensemble sampling stalled after {200 * spec.n + 1} rejected draws")
        kept_fields.append(fields[:, kept])
        edges.append(_solve_windows(drawn, screen, kept)[:2])
        found += kept.size

    # replace checks the accepted models, at E1*
    models = ModelParams._unchecked(dict(zip(PARAM_NAMES, np.hstack(kept_fields))))
    table = closed_form_table(replace(models, e1=_power_maxima(models, *np.hstack(edges))))
    x, eta_star = table["gamma"] / table["e3"], table["eta_g"]
    upper, lower = eta_star_max(spec.eta_c, x), eta_star_min(x)
    # an undefined (NaN) upper bound is near nothing
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(upper <= lower, 0.0, (upper - eta_star) / (upper - lower))
    table.update(
        gamma_over_e3=x,
        eta_star=eta_star,
        eta_star_ratio=eta_star / spec.eta_c,
        eta_star_max=upper,
        eta_star_min=lower,
        eta_tot_star=table["eta_tot"],
        q1g_max=table["q1g"],
        near_bound=(ratio < 0.05).astype(int),
    )
    meta = {"rng": "numpy-PCG64", "resamples": resamples, **asdict(spec), "e3_range": _E3_RANGE,
            "gamma_steps": _GAMMA_STEPS, "max_gamma_step": _MAX_GAMMA_STEP}
    # the ranges as lists, which is how the CSV metadata prints them
    return table, {k: list(v) if isinstance(v, tuple) else v for k, v in meta.items()}

