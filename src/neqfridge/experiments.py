"""Parameter sweeps, root finding and optimization pipelines.

These regenerate the data behind the package's standard figures: the
cooling-current sweeps over the engine-bath inverse temperature, the COP
sweeps over the target gap with cooling-window endpoints, the endpoint-COP
ratio sweeps, the random-refrigerator ensemble for the power-COP bounds,
and the high-temperature saturation study.

All evaluations go through the matrix-free closed-form coefficients, which
are validated against the generator null space elsewhere.  The closed forms
take numpy arrays, so each curve of a sweep, and each step of a window
search or power maximization over a batch of models, is one kernel call.
Every emitted row carries the full resolved parameter set.  Ensembles are
driven by a seeded numpy PCG64 generator and are bit-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .errors import EmptyCoolingWindowError, NeqFridgeError, ParameterError
from .model import (
    ModelParams,
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
from .steadystate import steady_coefficients

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_ROOT_TOL = 1e-13  # window-endpoint bisection tolerance
_CHUNK = 8  # models per grid scan: bounds the scan's memory, not the batch size
_PARAM_NAMES = ("e1", "e3", "gamma", "t1", "t2", "t3", "p", "g")
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
        if self.points < 2:
            raise ParameterError(f"need at least 2 points, got {self.points}")


@dataclass(frozen=True)
class EnsembleSpec:
    """Sampling plan for the random-refrigerator ensemble.

    The internal coupling is an integer multiple of E3*eta_c/gamma_steps and
    the cold-bath temperature is fixed by the Carnot constraint
    b1 = b2 + (b2 - b3)/eta_c.  Infeasible draws (empty cooling window) are
    rejected and redrawn.
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
        if self.n < 1:
            raise ParameterError(f"ensemble size must be >= 1, got {self.n}")
        if self.eta_c <= 0:
            raise ParameterError(f"eta_c must be positive, got {self.eta_c}")


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


@dataclass(frozen=True)
class _Batch:
    """Unvalidated :class:`ModelParams` fields as floats or broadcasting arrays."""

    e1: float | np.ndarray
    e3: float | np.ndarray
    gamma: float | np.ndarray
    t1: float | np.ndarray
    t2: float | np.ndarray
    t3: float | np.ndarray
    p: float | np.ndarray
    g: float | np.ndarray

    @classmethod
    def of(cls, bases: Sequence[ModelParams]) -> _Batch:
        return cls(**{k: np.array([getattr(b, k) for b in bases]) for k in _PARAM_NAMES})

    def take(self, idx: np.ndarray) -> _Batch:
        return _Batch(**{k: v[idx] for k, v in self.as_dict().items()})

    def as_dict(self) -> dict:
        return {k: getattr(self, k) for k in _PARAM_NAMES}


def deviation(e1, base: ModelParams | _Batch):
    """Steady-state deviation coefficient d at target gap(s) e1 (base's own E1 is unused)."""
    frame = resonant_frame(e1, base.e3, base.gamma)
    pops = tilde_populations(frame, base.t2, base.t3, t1=base.t1)
    return steady_coefficients(pops, base.p, base.g).d


def extracted_current(e1, base: ModelParams | _Batch):
    """Tripartite cooling current Q1^g at target gap(s) e1."""
    return -0.25 * base.g * deviation(e1, base) * e1


def _bisect(func: BatchFunc, a, b, fa, fb, tol: float) -> np.ndarray:
    """Bisect many brackets [a, b] with end values fa, fb at once, each by
    the scalar rule: an exact zero ends it, else it halves while b - a > tol."""
    a, b, fa, fb = (np.array(v, dtype=float) for v in (a, b, fa, fb))
    done = (fa == 0.0) | (fb == 0.0)
    root = np.where(fa == 0.0, a, b)
    if np.any(~done & (fa * fb > 0)):
        raise ValueError("root not bracketed")
    active = np.flatnonzero(~done)
    while (active := active[b[active] - a[active] > tol]).size:
        mid = 0.5 * (a[active] + b[active])
        fm = func(mid, active)
        hit = fm == 0.0
        root[active[hit]], done[active[hit]] = mid[hit], True
        lower = (fa[active] * fm < 0) & ~hit
        upper = ~lower & ~hit
        b[active[lower]], fb[active[lower]] = mid[lower], fm[lower]
        a[active[upper]], fa[active[upper]] = mid[upper], fm[upper]
        active = active[~hit]
    root[~done] = 0.5 * (a[~done] + b[~done])
    return root


def _golden(func: BatchFunc, a, b, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Golden-section maximization on many intervals [a, b] at once, each
    by the scalar update rule while b - a > tol."""
    a, b = np.array(a, dtype=float), np.array(b, dtype=float)
    every = np.arange(a.size)
    x1, x2 = b - _INVPHI * (b - a), a + _INVPHI * (b - a)
    f1, f2 = func(x1, every), func(x2, every)
    active = every
    while (active := active[b[active] - a[active] > tol]).size:
        rise = f1[active] < f2[active]
        up, down = active[rise], active[~rise]
        a[up], x1[up], f1[up] = x1[up], x2[up], f2[up]
        x2[up] = a[up] + _INVPHI * (b[up] - a[up])
        b[down], x2[down], f2[down] = x2[down], x1[down], f1[down]
        x1[down] = b[down] - _INVPHI * (b[down] - a[down])
        fresh = func(np.where(rise, x2[active], x1[active]), active)
        f2[up], f1[down] = fresh[rise], fresh[~rise]
    x = 0.5 * (a + b)
    return x, func(x, every)


def find_root(func, a: float, b: float, tol: float = 1e-10) -> float:
    """Bisection for a sign change of func on [a, b]."""
    batch = lambda x, _: np.array([func(v) for v in x.tolist()])
    return float(_bisect(batch, [a], [b], [func(a)], [func(b)], tol)[0])


def golden_section_max(func, a: float, b: float, tol: float = 1e-8) -> tuple[float, float]:
    """Golden-section maximizer of a unimodal function on [a, b]."""
    x, fx = _golden(lambda x, _: np.array([func(v) for v in x.tolist()]), [a], [b], tol)
    return float(x[0]), float(fx[0])


def _scan(func: BatchFunc, lo: np.ndarray, hi: np.ndarray, points: int):
    """Yield (idx, grid, func on grid) for _CHUNK models at a time, the grid
    being points wide over [lo[i], hi[i]] for model i."""
    for start in range(0, lo.size, _CHUNK):
        idx = np.arange(start, min(start + _CHUNK, lo.size))
        grid = np.linspace(lo[idx], hi[idx], points, axis=1)
        yield idx, grid, func(grid, idx[:, None])


def _maximize(func: BatchFunc, lo: np.ndarray, hi: np.ndarray, points: int, tol: float):
    """Per model: the grid maximum, refined by golden section between its neighbours."""
    a, b = np.empty_like(lo), np.empty_like(hi)
    for idx, grid, values in _scan(func, lo, hi, points):
        best, rows = np.argmax(values, axis=1), np.arange(idx.size)
        a[idx] = grid[rows, np.maximum(best - 1, 0)]
        b[idx] = grid[rows, np.minimum(best + 1, points - 1)]
    return _golden(func, a, b, tol)


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


def _scan_range(base: ModelParams, e1_lo: float | None, e1_hi: float | None):
    if e1_lo is None:
        e1_lo = 2.0 * base.gamma * (1.0 + 1e-9) if base.gamma > 0 else 1e-9 * base.e3
    if e1_hi is None:
        if base.t1 >= base.t2:
            raise ParameterError("window scan needs T1 < T2 or an explicit e1_hi")
        # the right root never exceeds E3 * eta_c; at gamma = 0 it sits
        # exactly there, so pad the scan a little past it
        e1_hi = base.e3 * cop_carnot(base.t1, base.t2, base.t3) * (1.0 + 1e-6)
    if e1_hi <= e1_lo:
        raise EmptyCoolingWindowError(
            f"scan range empty: [{e1_lo:.6g}, {e1_hi:.6g}] for gamma={base.gamma}")
    return e1_lo, e1_hi


def _screen_windows(bases: Sequence[ModelParams], e1_lo=None, e1_hi=None, points=400) -> list:
    """Scan each model's deviation for the sign changes bounding its window.

    Per model the result is the error its window search raises, or the pair
    (left edge is the scan boundary, brackets (a, b, d(a), d(b)) of both edges).
    """
    out = [_outcome(_scan_range, base, e1_lo, e1_hi) for base in bases]
    index = [i for i, outcome in enumerate(out) if not isinstance(outcome, NeqFridgeError)]
    lo, hi = np.array([out[i] for i in index]).reshape(-1, 2).T
    models = _Batch.of([bases[i] for i in index])
    failed: dict[int, NeqFridgeError] = {}

    def scan(x: np.ndarray, j: np.ndarray) -> np.ndarray:
        try:
            return deviation(x, models.take(j))
        except NeqFridgeError:  # find the models whose scan raises, one at a time
            rows = [_outcome(deviation, x[r], models.take(j[r])) for r in range(len(j))]
            failed.update((int(j[r, 0]), row) for r, row in enumerate(rows)
                          if isinstance(row, NeqFridgeError))
            return np.array([np.full(x.shape[1], np.nan) if isinstance(row, NeqFridgeError)
                             else row for row in rows])

    for idx, grid, v in _scan(scan, lo, hi, points):
        change = (v[:, :-1] == 0.0) | ((v[:, :-1] > 0.0) != (v[:, 1:] > 0.0))
        first, last = np.argmax(change, axis=1), points - 2 - np.argmax(change[:, ::-1], axis=1)
        for row, j in enumerate(idx):
            x, d, i, scanned = grid[row], v[row], index[j], f"[{lo[j]:.6g}, {hi[j]:.6g}]"
            brackets = [(x[k], x[k + 1], d[k], d[k + 1]) for k in (first[row], last[row])]
            if j in failed:
                out[i] = failed[j]
            elif d.min() >= 0.0:
                out[i] = EmptyCoolingWindowError(
                    f"no cooling found in {scanned} for gamma={bases[i].gamma}")
            elif not change[row].any():
                out[i] = EmptyCoolingWindowError(f"cooling region extends beyond the scan "
                                                 f"range {scanned}; pass an explicit e1_hi")
            elif d[0] < 0.0:  # a zero end value makes the bisection return the boundary
                out[i] = (True, [(x[0], x[0], 0.0, 0.0), brackets[0]])
            else:
                out[i] = (False, brackets)
    return out


def _solve_windows(bases: Sequence[ModelParams], screened: list, tol: float) -> list:
    """Bisect the brackets of all screened models at once into windows."""
    found = [(i, out) for i, out in enumerate(screened) if not isinstance(out, NeqFridgeError)]
    models = _Batch.of([bases[i] for i, _ in found for _ in range(2)])
    roots = _bisect(lambda x, j: deviation(x, models.take(j)),
                    *np.array([out[1] for _, out in found]).reshape(-1, 4).T, tol)
    windows = list(screened)
    for (i, (boundary, _)), (left, right) in zip(found, roots.reshape(-1, 2).tolist()):
        windows[i] = CoolingWindow(left, right, left_is_boundary=boundary)
    return windows


def cooling_windows(
    bases: Sequence[ModelParams],
    e1_lo: float | None = None,
    e1_hi: float | None = None,
    scan_points: int = 400,
    tol: float = _ROOT_TOL,
) -> list:
    """Locate the d(E1) = 0 roots bounding each model's cooling region.

    The E1 field of every base is ignored.  The default scan range is
    (2*gamma, E3 * Carnot COP); the right end always lies outside the
    window, so a 400-point scan brackets both sign changes.  The default
    root tolerance is tight enough that the endpoint COP identity holds to
    better than 1e-10.  Returns per model its :class:`CoolingWindow`, or the
    :class:`ParameterError` or :class:`EmptyCoolingWindowError` that
    :func:`cooling_window` raises for it.
    """
    return _solve_windows(bases, _screen_windows(bases, e1_lo, e1_hi, scan_points), tol)


def cooling_window(
    base: ModelParams,
    e1_lo: float | None = None,
    e1_hi: float | None = None,
    scan_points: int = 400,
    tol: float = _ROOT_TOL,
) -> CoolingWindow:
    """The cooling window of one model; see :func:`cooling_windows`."""
    return _raise_first(cooling_windows([base], e1_lo, e1_hi, scan_points, tol))[0]


def maximize_cooling_powers(
    bases: Sequence[ModelParams],
    windows: Sequence[CoolingWindow] | None = None,
    grid_points: int = 400,
    tol: float = 1e-8,
) -> list[MaxPowerResult]:
    """Maximize Q1^g over each model's cooling window and report the COP there."""
    windows = windows if windows is not None else _raise_first(cooling_windows(bases))
    models = _Batch.of(bases)
    e1_star, q1g_max = _maximize(lambda x, j: extracted_current(x, models.take(j)),
                                 np.array([w.left for w in windows]),
                                 np.array([w.right for w in windows]), grid_points, tol)
    eta_g_star = cop_g(resonant_frame(e1_star, models.e3, models.gamma))
    return [
        MaxPowerResult(e1_star=e, q1g_max=q, eta_g_star=eta, window=w)
        for e, q, eta, w in zip(e1_star.tolist(), q1g_max.tolist(), eta_g_star.tolist(), windows)
    ]


def maximize_cooling_power(
    base: ModelParams,
    window: CoolingWindow | None = None,
    grid_points: int = 400,
    tol: float = 1e-8,
) -> MaxPowerResult:
    """Maximize Q1^g over the cooling window of one model."""
    windows = [window] if window is not None else None
    return maximize_cooling_powers([base], windows, grid_points, tol)[0]


def minimize_cop(
    base: ModelParams,
    window: CoolingWindow | None = None,
    grid_points: int = 400,
    tol: float = 1e-8,
) -> MinCopResult:
    """Minimize the machine COP over the cooling window."""
    window = window if window is not None else cooling_window(base)
    e1_star, negative_cop = _maximize(
        lambda x, _: -cop_g(resonant_frame(x, base.e3, base.gamma)),
        np.array([window.left]), np.array([window.right]), grid_points, tol,
    )
    return MinCopResult(float(e1_star[0]), -float(negative_cop[0]), window)


def _rows(params: ModelParams | _Batch, require_ordered_temps: bool = True,
          **extra) -> list[dict]:
    """Rows from parameter and extra columns (floats or arrays), each row's
    parameter set validated as a :class:`ModelParams` with the given flag."""
    columns = {**params.as_dict(), **extra}
    size = max(np.size(value) for value in columns.values())
    lists = [np.broadcast_to(value, size).tolist() for value in columns.values()]
    rows = [dict(zip(columns, values)) for values in zip(*lists)]
    for row in rows:
        ModelParams(**{k: row[k] for k in _PARAM_NAMES},
                    require_ordered_temps=require_ordered_temps)
    return rows


def sweep_fig3(
    points: int = 200,
    gammas: tuple[float, ...] | None = None,
    beta3_lo: float = 0.01,
    e1: float = 1.0,
    e3: float = 4.0,
    t1: float = 2.0,
    t2: float = 2.0,
    p: float = 0.01,
    g: float = 0.01,
) -> list[dict]:
    """Cooling current and coherence change versus engine-bath coldness.

    One curve per coupling value; defaults bracket the critical coupling of
    the (E1=1, E3=4) machine.  The coherence change is relative to the
    degenerate-bath point T3 = T2.
    """
    if gammas is None:
        gammas = (0.48, 0.49, critical_gamma(e1, e3), 0.50)
    beta3 = np.linspace(beta3_lo, 1.0 / t2, points)
    rows = []
    for gamma in gammas:
        frame = resonant_frame(e1, e3, gamma)
        base_coh = virtual_coherence(frame, tilde_populations(frame, t2, t2))
        params = _Batch(e1=e1, e3=e3, gamma=gamma, t1=t1, t2=t2, t3=1.0 / beta3, p=p, g=g)
        pops = tilde_populations(frame, t2, params.t3, t1=t1)
        d = steady_coefficients(pops, p, g).d
        rows += _rows(
            params,
            beta3=beta3,
            q1g=-0.25 * g * d * e1,
            delta_c=virtual_coherence(frame, pops) - base_coh,
        )
    return rows


def sweep_fig4(
    points: int = 200,
    gammas: tuple[float, ...] = (0.2, 0.4, 0.6),
    e3: float = 4.0,
    t1: float = 4.0 / 3.0,
    t2: float = 2.0,
    t3: float = 4.0,
    p: float = 0.01,
    g: float = 0.01,
) -> tuple[list[dict], dict[float, CoolingWindow]]:
    """COPs and coherence versus target gap inside each cooling window."""
    bases = [
        ModelParams(
            e1=max(1.0, 2.5 * gamma) if gamma > 0 else 1.0,
            e3=e3, gamma=gamma, t1=t1, t2=t2, t3=t3, p=p, g=g,
        )
        for gamma in gammas
    ]
    windows = _raise_first(cooling_windows(bases))
    rows = []
    for base, window in zip(bases, windows):
        params = _Batch(**{**base.as_dict(), "e1": np.linspace(window.left, window.right, points)})
        frame = resonant_frame(params.e1, e3, base.gamma)
        pops = tilde_populations(frame, t2, t3, t1=t1)
        currents = currents_closed(params, frame, pops, steady_coefficients(pops, p, g).d)
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
    gammas: tuple[float, ...] = (0.1, 0.2, 0.3),
    beta3_lo: float = 0.01,
    beta3_hi: float | None = None,
    e1: float = 1.0,
    e3: float = 4.0,
    t2: float = 2.0,
    p: float = 0.01,
    g: float = 0.01,
) -> tuple[list[dict], list[dict]]:
    """Endpoint COP over Carnot, and coherence, versus engine-bath coldness.

    The cold-bath temperature is set to the virtual temperature at every
    point (the d = 0 surface).  Points with a nonpositive virtual
    temperature are skipped and reported separately.
    """
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
        params = _Batch(e1=e1, e3=e3, gamma=gamma, t1=tv[keep], t2=t2,
                        t3=1.0 / beta3[keep], p=p, g=g)
        rows += _rows(
            params,
            beta3=beta3[keep],
            eta_ratio=cop_g(frame) / cop_carnot(params.t1, t2, params.t3),
            coherence=virtual_coherence(frame, pops)[keep],
        )
    return rows, skipped


def _sweep_rows(points: list[tuple[float, ModelParams]],
                require_ordered_temps: bool) -> list[dict]:
    """The standard observable set at (axis value, parameters) points."""
    params = _Batch.of([point for _, point in points])
    frame = resonant_frame(params.e1, params.e3, params.gamma)
    pops = tilde_populations(frame, params.t2, params.t3, t1=params.t1)
    decomp = steady_coefficients(pops, params.p, params.g)
    currents = currents_closed(params, frame, pops, decomp.d)
    q3 = currents["q3"]
    return _rows(
        params,
        require_ordered_temps,
        axis_value=[value for value, _ in points],
        d=decomp.d,
        q1g=currents["q1g"],
        q23=currents["q23"],
        eta_g=cop_g(frame, masked=True),
        eta_tot=currents["q1"] / np.where(q3 != 0.0, q3, np.nan),
        tv=virtual_temperature(frame, pops, masked=True),
        t1s=local_target_temperature(decomp.a1, params.e1, masked=True),
        coherence=virtual_coherence(frame, pops),
    )


def sweep(spec: SweepSpec) -> tuple[list[dict], list[dict]]:
    """Generic 1-D sweep emitting the standard observable set per point.

    Points with invalid parameters are skipped; an observable undefined at
    a point (no cooling regime, virtual-temperature pole, inverted target)
    is NaN there.
    """
    points: list[tuple[float, ModelParams]] = []
    skipped: list[dict] = []
    field = {"beta3": "t3", "e1": "e1", "gamma": "gamma"}[spec.axis]
    ordered = spec.base.require_ordered_temps
    for value in np.linspace(spec.lo, spec.hi, spec.points).tolist():
        try:
            points.append((value, replace(
                spec.base, **{field: 1.0 / value if spec.axis == "beta3" else value})))
        except ParameterError as exc:
            skipped.append({"axis": spec.axis, "value": value, "reason": str(exc)})
    try:
        return (_sweep_rows(points, ordered) if points else []), skipped
    except ParameterError:
        pass  # a dressed gap the populations reject: find those points one by one
    rows = []
    for point in points:
        try:
            rows += _sweep_rows([point], ordered)
        except ParameterError as exc:
            skipped.append({"axis": spec.axis, "value": point[0], "reason": str(exc)})
    return rows, sorted(skipped, key=lambda s: s["value"])


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
    upper bound (relative to the bound gap).  Candidates are screened a
    chunk at a time; each draw takes the same random numbers whatever its
    outcome, so drawing ahead leaves the accepted models unchanged.
    """
    rng = np.random.default_rng(spec.seed)
    accepted: list[tuple[ModelParams, tuple]] = []
    resamples = 0
    attempts_cap = 200 * spec.n
    while len(accepted) < spec.n:
        drawn = [_outcome(_draw_model, rng, spec) for _ in range(_CHUNK)]
        screened = iter(_screen_windows([m for m in drawn if isinstance(m, ModelParams)]))
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

    bases = [model for model, _ in accepted]
    windows = _solve_windows(bases, [outcome for _, outcome in accepted], _ROOT_TOL)
    results = maximize_cooling_powers(bases, windows)
    params = replace(_Batch.of(bases), e1=np.array([r.e1_star for r in results]))
    frame = resonant_frame(params.e1, params.e3, params.gamma)
    pops = tilde_populations(frame, params.t2, params.t3, t1=params.t1)
    currents = currents_closed(params, frame, pops, steady_coefficients(pops, params.p, params.g).d)
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
    meta = {
        "rng": "numpy-PCG64",
        "seed": spec.seed,
        "n": spec.n,
        "eta_c": spec.eta_c,
        "resamples": resamples,
        "e3_range": list(spec.e3_range),
        "t2_range": list(spec.t2_range),
        "t3_mult_range": list(spec.t3_mult_range),
        "gamma_steps": spec.gamma_steps,
        "max_gamma_step": spec.max_gamma_step,
    }
    return rows, meta


def high_temperature_saturation(
    x_values: tuple[float, ...] = (0.0, 0.05, 0.1),
    kappas: tuple[float, ...] = (1.0, 2.0, 5.0, 10.0, 20.0),
    e3: float = 4.0,
    t1: float = 4.0 / 3.0,
    t2: float = 2.0,
    t3: float = 4.0,
    p: float = 0.01,
    g: float = 0.01,
) -> list[dict]:
    """Approach of the max-power COP to its upper bound as temperatures grow.

    All three bath temperatures are scaled by kappa, which leaves the Carnot
    COP fixed; the relative gap to the bound should shrink toward zero.
    """
    eta_c = cop_carnot(t1, t2, t3)
    cases = [(x, kappa) for x in x_values for kappa in kappas]
    bases = [
        ModelParams(
            e1=max(1.0, 2.5 * x * e3) if x > 0 else 1.0,
            e3=e3, gamma=x * e3,
            t1=t1 * kappa, t2=t2 * kappa, t3=t3 * kappa, p=p, g=g,
        )
        for x, kappa in cases
    ]
    rows = []
    for (x, kappa), base, result in zip(cases, bases, maximize_cooling_powers(bases)):
        bound = eta_star_max(eta_c, x)
        rows += _rows(
            replace(base, e1=result.e1_star),
            gamma_over_e3=x,
            kappa=kappa,
            eta_star=result.eta_g_star,
            eta_star_bound=bound,
            rel_gap=(bound - result.eta_g_star) / bound,
            e1_over_t1=result.e1_star / (t1 * kappa),
        )
    return rows
