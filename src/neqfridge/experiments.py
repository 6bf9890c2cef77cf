"""Parameter sweeps, root finding and optimization pipelines.

These regenerate the data behind the package's standard figures, each
varying the reference refrigerator ``model.REFERENCE``: the cooling-current
sweeps over the engine-bath inverse temperature, the COP sweeps over the
target gap with cooling-window endpoints, the endpoint-COP ratio sweeps, the
random-refrigerator ensemble for the power-COP bounds, and the
high-temperature saturation study.

All evaluations go through the matrix-free closed-form coefficients, which
are validated against the generator null space elsewhere.  The closed forms
take numpy arrays, so each curve of a sweep, and each step of a window
search or power maximization over a batch of models (one ``ModelParams``
whose fields broadcast), is one kernel call.  Every emitted row carries the
full resolved parameter set.  Ensembles are driven by a seeded numpy PCG64
generator and are bit-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .errors import EmptyCoolingWindowError, NeqFridgeError, ParameterError
from .model import (
    PARAM_NAMES,
    REFERENCE,
    ModelParams,
    _gaps,
    resonant_frame,
    tilde_populations,
    virtual_coherence,
    virtual_temperature,
)
from .observables import (
    cop_carnot,
    cop_g,
    critical_gamma,
    currents_closed,
    eta_star_max,
    eta_star_min,
    local_target_temperature,
)
from .steadystate import deviation_coefficient, steady_coefficients

_GOLDEN = (3.0 - math.sqrt(5.0)) / 2.0
_SQRT_EPS = math.sqrt(np.finfo(float).eps)
_ROOT_TOL = 1e-13  # window-endpoint root tolerance
_SEARCH_TOL = 1e-8  # tolerance of the window-screening and power searches
_CHUNK = 8  # the fewest draws random_ensemble screens in one round
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

    The internal coupling is an integer multiple of E3*eta_c/gamma_steps and
    the cold-bath temperature is fixed by the Carnot constraint
    b1 = b2 + (b2 - b3)/eta_c.  Draws whose window search finds no window,
    or raises, are rejected and redrawn.
    """

    n: int
    eta_c: float = 1.0
    seed: int = 7
    e3_range: tuple[float, float] = (2.0, 8.0)
    t2_range: tuple[float, float] = (1.0, 4.0)
    t3_mult_range: tuple[float, float] = (1.0, 5.0)
    gamma_steps: int = 200
    max_gamma_step: int = 40

    def __post_init__(self) -> None:
        mult_lo, mult_hi = self.t3_mult_range
        rules = {
            "n": (">= 1", self.n >= 1),
            "eta_c": ("positive", self.eta_c > 0),
            "e3_range": ("0 < lo <= hi", 0 < self.e3_range[0] <= self.e3_range[1]),
            "t2_range": ("0 < lo <= hi", 0 < self.t2_range[0] <= self.t2_range[1]),
            # at hi = 1 every draw has T1 = T2 = T3, and nothing can cool
            "t3_mult_range": ("1 <= lo <= hi, 1 < hi", 1 <= mult_lo <= mult_hi and 1 < mult_hi),
            "gamma_steps": (">= 1", self.gamma_steps >= 1),
            "max_gamma_step": (">= 1", self.max_gamma_step >= 1),
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
    left_is_boundary: bool = False


@dataclass(frozen=True)
class MaxPowerResult:
    e1_star: float
    q1g_max: float
    eta_g_star: float
    window: CoolingWindow


@dataclass(frozen=True)
class MinCopResult:
    e1_star: float
    eta_g_min: float
    window: CoolingWindow


def deviation(e1, base: ModelParams):
    """Steady-state deviation coefficient d at target gap(s) e1 (base's own E1 is unused).

    Only the frame at e1 is checked; base, one model or a batch that
    broadcasts against e1, was validated when it was built."""
    frame = resonant_frame(e1, base.e3, base.gamma)
    pops = tilde_populations(frame, base.t2, base.t3, t1=base.t1)
    return deviation_coefficient(pops, base.p, base.g)


def extracted_current(e1, base: ModelParams):
    """Tripartite cooling current Q1^g at target gap(s) e1."""
    return -0.25 * base.g * deviation(e1, base) * e1


def log_odds_gap(e1, base: ModelParams):
    """f(E1) = E1/T1 - ln[(1 - r~2) r~3 / (r~2 (1 - r~3))] at target gap(s) e1.

    d's numerator is q1 r~2 q~3 - r1 q~2 r~3 (q = 1 - r), its denominator is
    positive and ln(q1/r1) = E1/T1, so f has the sign of d wherever g > 0:
    the cooling window is {f < 0}, and f depends on neither p nor g.
    """
    frame = resonant_frame(e1, base.e3, base.gamma)
    pops = tilde_populations(frame, base.t2, base.t3)
    return e1 / base.t1 - pops.virtual_log_odds


def _chandrupatla(func: BatchFunc, a, b, fa, fb, tol: float) -> np.ndarray:
    """Find a sign change in many brackets [a, b] with end values fa, fb at once.

    Chandrupatla's method: each step interpolates the inverse function
    quadratically through the last three points where that is safe and
    bisects otherwise, always keeping a sign bracket; a step moves at least
    tol/2, so an iterate next to the root is followed by one across it, and
    a bracket at most 2 tol wide is bisected.  Per bracket, an exact zero
    ends the search, and a search stops once its bracket is at most tol wide
    and returns the bracket's midpoint.  On a simple root this takes far
    fewer evaluations than bisection; near a multiple root the interpolation
    converges only linearly and can take a few more.
    """
    a, b, fa, fb = (np.array(v, dtype=float) for v in (a, b, fa, fb))
    open_ = (fa != 0.0) & (fb != 0.0)
    if np.any(open_ & (np.sign(fa) == np.sign(fb))):
        raise ValueError("root not bracketed")
    root = np.where(fa == 0.0, a, b)
    idx = np.flatnonzero(open_)
    # (point, value) pairs: p1 the newest point, p2 the bracket end across
    # the root from it, p3 the point they replaced
    p1, p2 = np.array([a[idx], fa[idx]]), np.array([b[idx], fb[idx]])
    p3, t, width = p2, np.full(idx.size, 0.5), np.abs(b[idx] - a[idx])
    with np.errstate(divide="ignore", invalid="ignore"):
        while True:
            wide = width > tol
            if not wide.all():
                root[idx[~wide]] = 0.5 * (p1[0, ~wide] + p2[0, ~wide])
                idx, p1, p2, p3, t = idx[wide], p1[:, wide], p2[:, wide], p3[:, wide], t[wide]
            if not idx.size:
                return root
            x = p1[0] + t * (p2[0] - p1[0])
            new = np.array([x, func(x, idx)])
            same = np.sign(new[1]) == np.sign(p1[1])
            p1, p2, p3 = new, np.where(same, p2, p1), np.where(same, p1, p2)
            (x1, f1), (x2, f2), (x3, f3) = p1, p2, p3
            x2[f1 == 0.0] = x1[f1 == 0.0]  # an exact zero closes the bracket on itself
            xi, phi = (x1 - x2) / (x3 - x2), (f1 - f2) / (f3 - f2)
            t = np.where((phi * phi < xi) & ((1.0 - phi) ** 2 < 1.0 - xi),
                         f1 / (f2 - f1) * f3 / (f2 - f3)
                         + (x3 - x1) / (x2 - x1) * f1 / (f3 - f1) * f2 / (f3 - f2), 0.5)
            # step at least tol/2 from x1; within 2 tol, bisection ends the search
            width = np.abs(x2 - x1)
            least = 0.5 * tol / width
            t = np.where(width > 2.0 * tol, np.clip(t, least, 1.0 - least), 0.5)


def _brent_max(func: BatchFunc, a, b, tol: float, stop=np.inf) -> tuple[np.ndarray, np.ndarray]:
    """Maximize on many intervals [a, b] at once by Brent's bounded method.

    Golden-section steps with safeguarded parabolic ones, as in
    ``scipy.optimize.fminbound``: per interval, x is the best point so far,
    w the second best and v the one before; a search stops once both
    bracket ends lie within 2 (sqrt(eps) |x| + tol/3) of x, or as soon as
    func(x) exceeds ``stop``, and returns x and func(x).
    """
    a, b = np.array(a, dtype=float), np.array(b, dtype=float)
    best = np.empty((2, a.size))
    idx = np.arange(a.size)
    x = a + _GOLDEN * (b - a)
    # (point, value) pairs of x, w and v; the values are of -func, which is minimized
    px = pw = pv = np.array([x, -func(x, idx)])
    e = rat = np.zeros_like(a)
    with np.errstate(divide="ignore", invalid="ignore"):
        while True:
            xm = 0.5 * (a + b)
            tol1 = _SQRT_EPS * np.abs(px[0]) + tol / 3.0
            wide = (np.abs(px[0] - xm) > 2.0 * tol1 - 0.5 * (b - a)) & ~(px[1] < -stop)
            if not wide.all():
                best[:, idx[~wide]] = px[:, ~wide]
                idx, a, b, px, pw, pv, e, rat, xm, tol1 = (
                    z[..., wide] for z in (idx, a, b, px, pw, pv, e, rat, xm, tol1))
            if not idx.size:
                return best[0], -best[1]
            (x, fx), (w, fw), (v, fv) = px, pw, pv
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            p, q = np.where(q > 0.0, -p, p), np.abs(q)
            fit = ((np.abs(e) > tol1) & (np.abs(p) < np.abs(0.5 * q * e))
                   & (p > q * (a - x)) & (p < q * (b - x)))
            e = np.where(fit, rat, np.where(x >= xm, a - x, b - x))
            rat = np.where(fit, p / q, _GOLDEN * e)
            # a parabolic step must not land within 2 tol1 of a bracket end
            edge = fit & ((x + rat - a < 2.0 * tol1) | (b - x - rat < 2.0 * tol1))
            rat = np.where(edge, np.where(xm >= x, tol1, -tol1), rat)
            u = x + np.where(rat >= 0.0, 1.0, -1.0) * np.maximum(np.abs(rat), tol1)
            pu = np.array([u, -func(u, idx)])
            better = pu[1] <= fx
            won, lost = np.where(better, pu, px), np.where(better, px, pu)
            # the losing point becomes the bracket end on its side
            low = lost[0] < won[0]
            a, b = np.where(low, lost[0], a), np.where(low, b, lost[0])
            shift = better | (pu[1] <= fw) | (w == x)
            third = (pu[1] <= fv) | (v == x) | (v == w)
            pv = np.where(shift, pw, np.where(third, lost, pv))
            pw = np.where(shift, lost, pw)
            px = won


def find_root(func, a: float, b: float, tol: float = 1e-10) -> float:
    """Root of func in a sign-change bracket [a, b]; see :func:`_chandrupatla`."""
    batch = lambda x, _: np.array([func(v) for v in x.tolist()])
    return float(_chandrupatla(batch, [a], [b], [func(a)], [func(b)], tol)[0])


def golden_section_max(func, a: float, b: float, tol: float = 1e-8) -> tuple[float, float]:
    """Maximizer of a unimodal function on [a, b] and its value; see :func:`_brent_max`."""
    x, fx = _brent_max(lambda x, _: np.array([func(v) for v in x.tolist()]), [a], [b], tol)
    return float(x[0]), float(fx[0])


def _raise_first(outcomes: list) -> list:
    """The outcomes, unless one is an error: then the first error is raised."""
    for outcome in outcomes:
        if isinstance(outcome, NeqFridgeError):
            raise outcome
    return outcomes


def _outcome(func, *args):
    """func(*args), or the package error it raises."""
    try:
        return func(*args)
    except NeqFridgeError as exc:
        return exc


def _stack(models: list[ModelParams]) -> ModelParams:
    """One-model parameter sets as one batch, each field an array over them."""
    fields = {name: np.array([getattr(m, name) for m in models]) for name in PARAM_NAMES}
    return ModelParams(**fields, require_ordered_temps=all(m.require_ordered_temps for m in models))


def _scan_range(models: ModelParams) -> tuple:
    """The scan ranges [lo, hi] of a batch, and per model None or the error
    that rules its window search out: T1 >= T2, an empty range, or a frame
    that fails at lo.  The dressed gap eps3 only grows with E1, so a frame
    that holds at lo holds on the whole range.
    """
    e3, gamma, t1, t2, t3 = models.e3, models.gamma, models.t1, models.t2, models.t3
    cold = models.beta1 > models.beta2
    lo = np.where(gamma > 0, 2.0 * gamma * (1.0 + 1e-9), 1e-9 * e3)
    # the right root never exceeds E3 times the Carnot COP; at gamma = 0 it
    # sits exactly there, so pad the scan a little past it
    hi = np.full(e3.shape, np.nan)
    hi[cold] = e3[cold] * cop_carnot(t1[cold], t2[cold], t3[cold]) * (1.0 + 1e-6)
    framed = _gaps(lo, e3, gamma)[2]
    errors = [None] * e3.size
    for i in np.flatnonzero(~(cold & (hi > lo) & framed)).tolist():
        if not cold[i]:
            errors[i] = ParameterError("window scan needs T1 < T2")
        elif not hi[i] > lo[i]:
            errors[i] = EmptyCoolingWindowError(
                f"scan range empty: [{float(lo[i])!r}, {float(hi[i])!r}] for gamma={gamma[i]}")
        else:
            errors[i] = _outcome(resonant_frame, lo[i], e3[i], gamma[i])
    return lo, hi, errors


def _screen_windows(models: ModelParams) -> list:
    """Find a point inside each batch model's cooling window, which brackets both edges.

    f (:func:`log_odds_gap`) is read at both ends of every scan range that
    :func:`_scan_range` accepts in one call; where neither end has f < 0, a
    batched Brent minimization of f stops at its first point with f < 0.
    Per model the result is the error its window search raises, or the pair
    (left edge is the scan boundary, brackets (a, b, f(a), f(b)) of both edges).
    """
    lo, hi, out = _scan_range(models)
    index = np.flatnonzero([error is None for error in out])
    models, lo, hi = models.take(index), lo[index], hi[index]
    f_lo, f_hi = log_odds_gap(np.array([lo, hi]), models)
    # the lower end is the best point until a search finds a lower one
    low = f_hi < f_lo
    x, fx = np.where(low, hi, lo), np.where(low, f_hi, f_lo)
    search = np.flatnonzero((f_lo >= 0.0) & (f_hi >= 0.0))
    if search.size:
        x[search], negative = _brent_max(lambda e1, j: -log_odds_gap(e1, models.take(search[j])),
                                         lo[search], hi[search], _SEARCH_TOL, stop=0.0)
        fx[search] = -negative
    columns = (v.tolist() for v in (index, lo, hi, f_lo, f_hi, x, fx, models.gamma, models.g))
    for i, a, b, fa, fb, c, fc, gamma, g in zip(*columns):
        scanned = f"[{a!r}, {b!r}]"
        if not (fc < 0.0 and g > 0.0):  # at g = 0 nothing cools
            out[i] = EmptyCoolingWindowError(f"no cooling found in {scanned} for gamma={gamma}")
        elif fb < 0.0:
            out[i] = EmptyCoolingWindowError(
                f"cooling region extends beyond the scan range {scanned}")
        elif fa < 0.0:  # a zero end value makes the root finder return the boundary
            out[i] = (True, [(a, a, 0.0, 0.0), (a, b, fa, fb)])
        else:
            out[i] = (False, [(a, c, fa, fc), (c, b, fc, fb)])
    return out


def _solve_windows(models: ModelParams, screened: list) -> list:
    """Root-find the brackets of all screened models of a 1-D batch at once into windows."""
    found = [i for i, out in enumerate(screened) if not isinstance(out, NeqFridgeError)]
    # each model's left-edge bracket, then its right-edge one
    pairs = models.take(np.repeat(np.array(found, dtype=int), 2))
    roots = _chandrupatla(lambda x, j: log_odds_gap(x, pairs.take(j)),
                          *np.array([screened[i][1] for i in found]).reshape(-1, 4).T, _ROOT_TOL)
    windows = list(screened)
    for i, (left, right) in zip(found, roots.reshape(-1, 2).tolist()):
        windows[i] = CoolingWindow(left, right, left_is_boundary=screened[i][0])
    return windows


def cooling_windows(models: ModelParams) -> list:
    """Locate the d(E1) = 0 roots bounding the cooling region of each model
    of ``models``, one model or a batch whose fields broadcast.

    The E1 field is ignored.  The scan range is (2*gamma, E3 * Carnot COP),
    whose right end lies outside the window.  A window needs a point x with
    f(x) < 0 (f of :func:`log_odds_gap`, which has d's sign) and f >= 0 at
    the right end; Chandrupatla's method finds its edges between x and the
    ends, and f < 0 at the left end makes that end the left edge.  At g = 0
    every window is empty.  The root tolerance, 1e-13, is tight enough that
    the endpoint COP identity holds to better than 1e-10.  A model with
    T1 >= T2, an empty range or a frame that fails at the range's low end
    (eps3 <= 0 there) is rejected before any search.  Returns per model its
    :class:`CoolingWindow`, or the :class:`ParameterError` or
    :class:`EmptyCoolingWindowError` that :func:`cooling_window` raises for it.
    """
    models = models.as_batch()
    return _solve_windows(models, _screen_windows(models))


def cooling_window(base: ModelParams) -> CoolingWindow:
    """The cooling window of one model; see :func:`cooling_windows`."""
    return _raise_first(cooling_windows(base))[0]


def maximize_cooling_powers(
    models: ModelParams, windows: Sequence[CoolingWindow] | None = None
) -> list[MaxPowerResult]:
    """Maximize Q1^g over the whole cooling window of each model of
    ``models`` (as in :func:`cooling_windows`) and report the COP there."""
    models = models.as_batch()
    windows = windows if windows is not None else _raise_first(cooling_windows(models))
    e1_star, q1g_max = _brent_max(lambda x, j: extracted_current(x, models.take(j)),
                                  *np.array([(w.left, w.right) for w in windows]).T, _SEARCH_TOL)
    eta_g_star = cop_g(resonant_frame(e1_star, models.e3, models.gamma))
    return [
        MaxPowerResult(e1_star=e, q1g_max=q, eta_g_star=eta, window=w)
        for e, q, eta, w in zip(e1_star.tolist(), q1g_max.tolist(), eta_g_star.tolist(), windows)
    ]


def maximize_cooling_power(base: ModelParams) -> MaxPowerResult:
    """Maximize Q1^g over the cooling window of one model."""
    return maximize_cooling_powers(base)[0]


def minimize_cop(base: ModelParams, tol: float = _SEARCH_TOL) -> MinCopResult:
    """Minimize the machine COP over the cooling window of one model by Brent's method."""
    window = cooling_window(base)
    e1_star, negative_cop = _brent_max(lambda x, _: -cop_g(resonant_frame(x, base.e3, base.gamma)),
                                       [window.left], [window.right], tol)
    return MinCopResult(float(e1_star[0]), -float(negative_cop[0]), window)


def _rows(params: ModelParams, **extra) -> list[dict]:
    """One row per model of a parameter batch, validated when it was built,
    with extra columns (floats or arrays of the batch's size)."""
    columns = {**params.as_dict(), **extra}
    size = max(np.size(value) for value in columns.values())
    lists = [np.broadcast_to(value, size).tolist() for value in columns.values()]
    return [dict(zip(columns, values)) for values in zip(*lists)]


def sweep_fig3(points: int = 200, gammas: tuple[float, ...] | None = None) -> list[dict]:
    """Cooling current and coherence change versus engine-bath coldness.

    One curve per coupling value of the reference refrigerator with
    T1 = T2, over beta3 from 0.01 to beta2; the default couplings bracket
    its critical coupling.  The coherence change is relative to the
    degenerate-bath point T3 = T2.
    """
    _check_points(points)
    ref = replace(REFERENCE, t1=REFERENCE.t2)
    e1, e3, t2 = ref.e1, ref.e3, ref.t2
    if gammas is None:
        gammas = (0.48, 0.49, critical_gamma(e1, e3), 0.50)
    beta3 = np.linspace(0.01, 1.0 / t2, points)
    rows = []
    for gamma in gammas:
        frame = resonant_frame(e1, e3, gamma)
        base_coh = virtual_coherence(frame, tilde_populations(frame, t2, t2))
        params = replace(ref, gamma=gamma, t3=1.0 / beta3)
        pops = tilde_populations(frame, t2, params.t3, t1=params.t1)
        d = deviation_coefficient(pops, ref.p, ref.g)
        rows += _rows(
            params,
            beta3=beta3,
            q1g=-0.25 * ref.g * d * e1,
            delta_c=virtual_coherence(frame, pops) - base_coh,
        )
    return rows


def sweep_fig4(
    points: int = 200, gammas: tuple[float, ...] | None = None
) -> tuple[list[dict], dict[float, CoolingWindow]]:
    """COPs and coherence versus target gap inside each cooling window.

    One curve per coupling value (default 0.2, 0.4, 0.6) of the reference
    refrigerator; all windows are searched in one batch.
    """
    _check_points(points)
    gammas = gammas if gammas is not None else (0.2, 0.4, 0.6)
    # fmax is max(1.0, x) for every x, NaN included
    models = replace(REFERENCE, e1=np.fmax(1.0, 2.5 * np.array(gammas)),
                     gamma=np.array(gammas)).as_batch()
    windows = _raise_first(cooling_windows(models))
    rows = []
    for i, window in enumerate(windows):
        params = replace(models.take(i), e1=np.linspace(window.left, window.right, points))
        frame = resonant_frame(params.e1, params.e3, params.gamma)
        pops = tilde_populations(frame, params.t2, params.t3, t1=params.t1)
        currents = currents_closed(params, frame, pops,
                                   deviation_coefficient(pops, params.p, params.g))
        rows += _rows(
            params,
            eta_g=cop_g(frame),
            eta_tot=currents["q1"] / currents["q3"],
            coherence=virtual_coherence(frame, pops),
            window_left=window.left,
            window_right=window.right,
        )
    return rows, dict(zip(gammas, windows))


def sweep_fig5(
    points: int = 200,
    gammas: tuple[float, ...] | None = None,
    beta3_lo: float = 0.01,
    beta3_hi: float | None = None,
) -> tuple[list[dict], list[dict]]:
    """Endpoint COP over Carnot, and coherence, versus engine-bath coldness.

    One curve per coupling value (default 0.1, 0.2, 0.3) of the reference
    refrigerator, whose cold-bath temperature is set to the virtual
    temperature at every point (the d = 0 surface).  Points with a
    nonpositive virtual temperature are skipped and reported separately.
    """
    _check_points(points)
    gammas = gammas if gammas is not None else (0.1, 0.2, 0.3)
    e1, e3, t2 = REFERENCE.e1, REFERENCE.e3, REFERENCE.t2
    if beta3_hi is None:
        beta3_hi = 1.0 / t2 - 1e-4  # the Carnot ratio is 0/0 at beta3 = beta2
    beta3 = np.linspace(beta3_lo, beta3_hi, points)
    rows: list[dict] = []
    skipped: list[dict] = []
    for gamma in gammas:
        frame = resonant_frame(e1, e3, gamma)
        pops = tilde_populations(frame, t2, 1.0 / beta3)
        tv = virtual_temperature(frame, pops)
        keep = tv > 0.0
        skipped += [{"gamma": gamma, "beta3": b, "tv": v}
                    for b, v in zip(beta3[~keep].tolist(), tv[~keep].tolist())]
        params = replace(REFERENCE, gamma=gamma, t1=tv[keep], t3=1.0 / beta3[keep])
        rows += _rows(
            params,
            beta3=beta3[keep],
            eta_ratio=cop_g(frame) / cop_carnot(params.t1, t2, params.t3),
            coherence=virtual_coherence(frame, pops)[keep],
        )
    return rows, skipped


def sweep(spec: SweepSpec) -> tuple[list[dict], list[dict]]:
    """Generic 1-D sweep emitting the standard observable set per point.

    Points with invalid parameters, a nonpositive dressed gap included,
    are skipped with the reason; an observable undefined at a point (no
    cooling regime, virtual-temperature pole, inverted target) is NaN there.
    """
    points: list[tuple[float, ModelParams]] = []
    skipped: list[dict] = []
    field = {"beta3": "t3", "e1": "e1", "gamma": "gamma"}[spec.axis]
    for value in np.linspace(spec.lo, spec.hi, spec.points).tolist():
        try:
            points.append((value, replace(
                spec.base, **{field: 1.0 / value if spec.axis == "beta3" else value})))
        except ParameterError as exc:
            skipped.append({"axis": spec.axis, "value": value, "reason": str(exc)})
    params = _stack([point for _, point in points])
    frame = resonant_frame(params.e1, params.e3, params.gamma)
    pops = tilde_populations(frame, params.t2, params.t3, t1=params.t1)
    decomp = steady_coefficients(pops, params.p, params.g)
    currents = currents_closed(params, frame, pops, decomp.d)
    q3 = currents["q3"]
    return _rows(
        params,
        axis_value=[value for value, _ in points],
        d=decomp.d,
        q1g=currents["q1g"],
        q23=currents["q23"],
        eta_g=cop_g(frame, masked=True),
        eta_tot=currents["q1"] / np.where(q3 != 0.0, q3, np.nan),
        tv=virtual_temperature(frame, pops, masked=True),
        t1s=local_target_temperature(decomp.a1, params.e1, masked=True),
        coherence=virtual_coherence(frame, pops),
    ), skipped


def _draw_model(rng: np.random.Generator, spec: EnsembleSpec) -> ModelParams:
    e3 = rng.uniform(*spec.e3_range)
    t2 = rng.uniform(*spec.t2_range)
    mult_lo, mult_hi = spec.t3_mult_range
    t3 = t2 * (mult_lo + (mult_hi - mult_lo) * (1.0 - rng.random()))
    k = int(rng.integers(1, spec.max_gamma_step + 1))
    gamma = k * e3 * spec.eta_c / spec.gamma_steps
    beta1 = 1.0 / t2 + (1.0 / t2 - 1.0 / t3) / spec.eta_c
    t1 = 1.0 / beta1
    p = g = 0.01 * e3 / 4.0
    return ModelParams(
        e1=max(1.0, 2.5 * gamma), e3=e3, gamma=gamma, t1=t1, t2=t2, t3=t3, p=p, g=g
    )


def random_ensemble(spec: EnsembleSpec) -> tuple[list[dict], dict]:
    """Max-power COPs of seeded random refrigerators at fixed Carnot COP.

    Each accepted model is optimized over the target gap; rows carry the
    COP-at-max-power ratio, the thermodynamic COP there, the virtual-qubit
    coherence at the optimum, and whether the model sits within 5% of the
    upper bound (relative to the bound gap).  Candidates are screened in
    rounds of half again as many draws as the acceptance ratio so far says
    the remaining models need; each draw takes the same random numbers
    whatever its outcome, so drawing ahead leaves the accepted models unchanged.
    """
    rng = np.random.default_rng(spec.seed)
    accepted: list[tuple[ModelParams, tuple]] = []
    resamples = 0
    attempts_cap = 200 * spec.n
    while len(accepted) < spec.n:
        ratio = (resamples + len(accepted)) / len(accepted) if accepted else 1.0
        size = max(_CHUNK, math.ceil(1.5 * (spec.n - len(accepted)) * ratio))
        drawn = [_outcome(_draw_model, rng, spec) for _ in range(size)]
        screened = iter(_screen_windows(_stack([m for m in drawn if isinstance(m, ModelParams)])))
        for model in drawn:
            outcome = next(screened) if isinstance(model, ModelParams) else model
            if len(accepted) == spec.n:
                break
            if resamples > attempts_cap:
                raise ParameterError(f"ensemble sampling stalled after {resamples} rejected draws")
            if isinstance(outcome, NeqFridgeError):
                resamples += 1
            else:
                accepted.append((model, outcome))

    models = _stack([model for model, _ in accepted])
    windows = _solve_windows(models, [outcome for _, outcome in accepted])
    results = maximize_cooling_powers(models, windows)
    params = replace(models, e1=np.array([r.e1_star for r in results]))
    frame = resonant_frame(params.e1, params.e3, params.gamma)
    pops = tilde_populations(frame, params.t2, params.t3, t1=params.t1)
    currents = currents_closed(params, frame, pops, deviation_coefficient(pops, params.p, params.g))
    x = params.gamma / params.e3
    eta_star = np.array([r.eta_g_star for r in results])
    upper = [eta_star_max(spec.eta_c, v) for v in x.tolist()]
    lower = [eta_star_min(v) for v in x.tolist()]
    near_bound = [int(((hi - eta) / (hi - lo) if hi > lo else 0.0) < 0.05)
                  for hi, lo, eta in zip(upper, lower, eta_star.tolist())]
    rows = _rows(
        params,
        gamma_over_e3=x,
        eta_star=eta_star,
        eta_star_ratio=eta_star / spec.eta_c,
        eta_star_max=upper,
        eta_star_min=lower,
        eta_tot_star=currents["q1"] / currents["q3"],
        coherence=virtual_coherence(frame, pops),
        q1g_max=[r.q1g_max for r in results],
        near_bound=near_bound,
    )
    # every spec field, the ranges as lists, which is how the CSV metadata prints them
    spec_fields = {k: list(v) if isinstance(v, tuple) else v for k, v in asdict(spec).items()}
    return rows, {"rng": "numpy-PCG64", "resamples": resamples, **spec_fields}


def high_temperature_saturation(
    x_values: tuple[float, ...] = (0.0, 0.05, 0.1),
    kappas: tuple[float, ...] = (1.0, 2.0, 5.0, 10.0, 20.0),
) -> list[dict]:
    """Approach of the max-power COP to its upper bound as temperatures grow.

    The reference refrigerator at gamma = x E3, with all three bath
    temperatures scaled by kappa, which leaves the Carnot COP fixed; the
    relative gap to the bound should shrink toward zero.
    """
    ref = REFERENCE
    eta_c = cop_carnot(ref.t1, ref.t2, ref.t3)
    x, kappa = np.array([(x, kappa) for x in x_values for kappa in kappas]).T
    models = replace(ref, e1=np.fmax(1.0, 2.5 * x * ref.e3), gamma=x * ref.e3,
                     t1=ref.t1 * kappa, t2=ref.t2 * kappa, t3=ref.t3 * kappa)
    results = maximize_cooling_powers(models)
    e1_star, eta_star = np.array([(r.e1_star, r.eta_g_star) for r in results]).T
    bound = np.array([eta_star_max(eta_c, v) for v in x.tolist()])
    return _rows(
        replace(models, e1=e1_star),
        gamma_over_e3=x,
        kappa=kappa,
        eta_star=eta_star,
        eta_star_bound=bound,
        rel_gap=(bound - eta_star) / bound,
        e1_over_t1=e1_star / models.t1,
    )
