import collections
import math
import warnings
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from neqfridge import (
    CoolingWindow,
    EmptyCoolingWindowError,
    EnsembleSpec,
    ModelParams,
    SweepSpec,
    cooling_window,
    cop_g,
    eta_star_min,
    maximize_cooling_power,
    random_ensemble,
    resonant_frame,
    sweep,
    sweep_fig3,
    sweep_fig4,
    sweep_fig5,
)
from neqfridge.experiments import (
    _E3_RANGE,
    _F_ROUNDING,
    _GAMMA_STEPS,
    _MAX_GAMMA_STEP,
    _certifies,
    _chandrupatla,
    _draw,
    _draws,
    _e1_slopes,
    _scan_range,
    _screen_windows,
    _window_error,
    cooling_windows,
    deviation,
    log_odds_gap,
    maximize_cooling_powers,
)
from neqfridge.errors import NeqFridgeError, ParameterError
from neqfridge.model import (
    PARAM_NAMES,
    REFERENCE,
    tilde_populations,
    virtual_coherence,
    virtual_temperature,
)
from neqfridge.observables import (
    cop_carnot,
    critical_gamma,
    currents_closed,
    eta_star_max,
)
from neqfridge.steadystate import steady_coefficients

from conftest import (
    bisect_root,
    cooling_condition,
    counting,
    find_root,
    golden_max,
    high_temperature_saturation,
    hot_spec,
    minimize_cop,
    mp_closed_forms,
    mp_coefficients,
    mp_power_stationary_point,
    mp_window_edge,
    stack,
)

FIG4_BASE = ModelParams(e1=1.0, e3=4.0, gamma=0.2, t1=4 / 3, t2=2.0, t3=4.0, p=0.01, g=0.01)


def _counted(func):
    """func, and the list of the points it has been called at."""
    calls = []

    def counted(x):
        calls.append(x)
        return func(x)

    return counted, calls


def _bisection_count(a: float, b: float, tol: float) -> int:
    """Evaluations bisection needs to shrink [a, b] to tol: both ends, then one per halving."""
    count, width = 2, b - a
    while width > tol:
        count, width = count + 1, 0.5 * width
    return count


# monotone functions with a simple root at r; s sets the width of the
# region where each one is close to linear
MONOTONE = {
    "cubic": lambda x, r, s: (x - r) ** 3 + s * s * (x - r),
    "tanh": lambda x, r, s: math.tanh((x - r) / s),
    "exp": lambda x, r, s: math.expm1((x - r) / s),
}


class TestRootAndSearchHelpers:
    def test_find_root(self):
        root = find_root(lambda x: x * x - 2.0, 0.0, 2.0)
        assert abs(root - np.sqrt(2.0)) <= 4.0 * np.finfo(float).eps * 2.0  # the search's tolerance

    def test_golden_section(self):
        x, fx = golden_max(lambda x: -(x - 0.3) ** 2, -1.0, 1.0, tol=1e-10)
        assert x == pytest.approx(0.3, abs=1e-8)
        assert fx == pytest.approx(0.0, abs=1e-15)

    def test_root_evaluation_count(self):
        # bisection makes 41 evaluations here
        func, calls = _counted(lambda x: x * x - 2.0)
        find_root(func, 0.0, 2.0)
        assert len(calls) <= 12


class TestRootFinderEdges:
    def test_zero_at_an_end_returns_that_end(self):
        assert find_root(lambda x: x - 1.0, 1.0, 3.0) == 1.0
        assert find_root(lambda x: x - 3.0, 1.0, 3.0) == 3.0

    def test_zero_at_an_iterate_ends_that_search(self):
        # both searches start at the midpoint 1.0, an exact zero of the first
        # function only; the second goes on alone
        batches = []

        def func(x, idx):
            batches.append(idx.tolist())
            return np.where(idx == 0, x - 1.0, x * x - 2.0)

        roots = _chandrupatla(func, [0.0, 0.0], [2.0, 2.0], [-1.0, -2.0], [1.0, 2.0], [2.0, 2.0])
        assert roots[0] == 1.0
        assert roots[1] == pytest.approx(np.sqrt(2.0), abs=1e-12)
        assert batches[0] == [0, 1] and len(batches) > 1
        assert all(batch == [1] for batch in batches[1:])

    def test_unbracketed_input_raises(self):
        with pytest.raises(NeqFridgeError, match=r"root not bracketed: \[-1\.0, 1\.0\]$"):
            find_root(lambda x: x * x + 1.0, -1.0, 1.0)

    def test_boundary_window_comes_back_unchanged(self):
        # at gamma = 0 the window starts at the scan's lower end, not at a root
        base = replace(FIG4_BASE, gamma=0.0)
        window = cooling_window(base)
        assert window.left_is_boundary
        assert window.left == _scan_range(stack([base]))[0][0]

    # Interpolation wins once the function is close to linear at the
    # tolerance scale and enough halvings remain to make up for the steps
    # it spends before that.  With a tolerance within ten halvings of the
    # bracket, a cubic whose root sits in a near-triple region (small s)
    # can take one evaluation more than bisection (a = 0, width = 1,
    # fraction = 0.5703125, s = 0.0234375, tol = 1e-3); the search's own
    # tolerance, 4 eps times the larger magnitude of the bracket's ends,
    # lies 35 to 52 halvings below the brackets drawn here.
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        family=st.sampled_from(sorted(MONOTONE)),
        a=st.floats(-10.0, 10.0),
        width=st.floats(1e-3, 10.0),
        fraction=st.floats(0.0, 1.0),
        scale=st.floats(0.02, 100.0),
    )
    def test_monotone_brackets(self, family, a, width, fraction, scale):
        b = a + width
        tol, r = 4.0 * np.finfo(float).eps * max(abs(a), abs(b)), a + fraction * width
        func, calls = _counted(lambda x: MONOTONE[family](x, r, scale * width))
        root = find_root(func, a, b)
        assert abs(root - r) <= tol
        assert len(calls) <= _bisection_count(a, b, tol)


def _kernel_cases() -> list:
    """(e1, parameters) pairs: an 8 x 400 window-scan grid over eight seeded
    ensemble models as one batch, then eight of its points per model as floats."""
    rng = np.random.default_rng(3)
    bases = [ModelParams(*_draw(rng, EnsembleSpec(n=8, seed=3))) for _ in range(8)]
    lo, hi, _ = _scan_range(stack(bases))
    grid = np.linspace(lo, hi, 400, axis=1)
    cases = [(grid, stack(bases).take(np.arange(8)[:, None]))]
    return cases + [(x, base) for base, row in zip(bases, grid) for x in row[::57].tolist()]


class TestDeviationKernel:
    def test_deviation_is_steady_d_bit_for_bit(self):
        cases = _kernel_cases()
        assert cases[0][0].shape == (8, 400) and isinstance(cases[1][0], float)
        for e1, params in cases:
            frame = resonant_frame(e1, params.e3, params.gamma)
            pops = tilde_populations(frame, params.t2, params.t3, t1=params.t1)
            np.testing.assert_array_equal(deviation(e1, params),
                                          steady_coefficients(pops, params.p, params.g).d)

    def test_derived_values_read_the_log_odds(self):
        # each derived value is its closed form in the stored log-odds, which agree
        # with the population formulas they replaced wherever those hold
        eps = np.finfo(float).eps
        for e1, params in _kernel_cases():
            frame = resonant_frame(e1, params.e3, params.gamma)
            pops = tilde_populations(frame, params.t2, params.t3, t1=params.t1)
            l2, l3 = pops.log_odds2, pops.log_odds3
            np.testing.assert_array_equal(pops.log_odds1, e1 / params.t1)
            np.testing.assert_array_equal(pops.ttilde2, frame.eps2 / l2)
            np.testing.assert_array_equal(pops.ttilde3, frame.eps3 / l3)
            np.testing.assert_array_equal(pops.btilde2, l2 / frame.eps2)
            np.testing.assert_array_equal(pops.btilde3, l3 / frame.eps3)
            for s, odds in ((pops.s1, pops.log_odds1), (pops.s2, l2), (pops.s3, l3)):
                np.testing.assert_array_equal(s, -np.tanh(0.5 * odds))
            rt2, rt3 = pops.rtilde2, pops.rtilde3
            np.testing.assert_allclose(l2, np.log((1.0 - rt2) / rt2), rtol=1e-13)
            np.testing.assert_allclose(l3, np.log((1.0 - rt3) / rt3), rtol=1e-13)
            for s, r in ((pops.s1, pops.r1), (pops.s2, rt2), (pops.s3, rt3)):
                np.testing.assert_allclose(s, 2.0 * r - 1.0, rtol=0.0, atol=4.0 * eps)

    def test_ensemble_kernel_calls(self, monkeypatch):
        # fig6 at n = 100 made 101 deviation and 102 steady_coefficients
        # calls with bisection and golden section, and its 400-point scans
        # evaluated about 900 kernel points per accepted model; its 150 draws
        # once cost 250 ModelParams checks, then one per draw and one per batch,
        # then one per screening round and one for the table; the kernels once
        # checked every population
        from neqfridge import experiments, model, steadystate

        kernels = (experiments.deviation, experiments.log_odds_gap, experiments._f_slope,
                   experiments._e1_slopes, experiments._edge_gap, experiments._bracket_gap)
        calls, points = counting(monkeypatch, *kernels, steadystate.steady_coefficients,
                                 model._gate, model._rule_error, model.resonant_frame)
        post_init = ModelParams.__post_init__

        def counted_post_init(self):
            calls["ModelParams"] += 1
            post_init(self)

        monkeypatch.setattr(ModelParams, "__post_init__", counted_post_init)
        random_ensemble(EnsembleSpec(n=100, seed=7))
        assert 0 < sum(calls[kernel.__name__] for kernel in kernels) <= 70
        assert sum(points[kernel.__name__] for kernel in kernels) <= 100 * 100
        assert calls["steady_coefficients"] <= 2
        # the draws go unchecked to the window scan, and only the table's models,
        # at their power maxima, are checked against the rule table, once, with no
        # error formatted; the kernels and the table build their frames unchecked
        assert calls["_gate"] == calls["ModelParams"] == 1
        assert calls["resonant_frame"] == 0
        assert calls["_rule_error"] == 0


    def test_virtual_quantities_read_the_virtual_log_odds(self):
        # log_odds_gap, the virtual temperature and the coherence read the L2 - L3 of the
        # populations' pass, which agrees with the dressed qubits' log-odds, and the
        # coherence equals its population form
        for e1, params in _kernel_cases():
            frame = resonant_frame(e1, params.e3, params.gamma)
            pops = tilde_populations(frame, params.t2, params.t3, t1=params.t1)
            log_odds = pops.virtual_log_odds
            np.testing.assert_allclose(log_odds, pops.log_odds2 - pops.log_odds3, rtol=1e-13)
            np.testing.assert_array_equal(log_odds_gap(e1, params), e1 / params.t1 - log_odds)
            np.testing.assert_array_equal(virtual_temperature(frame, pops),
                                          (frame.eps2 - frame.eps3) / log_odds)
            coherence = virtual_coherence(frame, pops)
            np.testing.assert_array_equal(coherence,
                                          np.sin(frame.theta) * np.tanh(0.5 * np.abs(log_odds)))
            rt2, rt3 = pops.rtilde2, pops.rtilde3
            np.testing.assert_allclose(coherence, np.abs(rt2 - rt3) / (rt2 + rt3 - 2.0 * rt2 * rt3)
                                       * np.sin(frame.theta), rtol=1e-13)

    def test_ensemble_stacks_draws_and_accepted_models_once(self, monkeypatch):
        # a round's draws reach the window search as one batch, and the accepted
        # draws are picked from the rounds' fields by index
        from neqfridge import experiments

        rounds = []

        def screen_windows(models):
            rounds.append(np.array([getattr(models, name) for name in PARAM_NAMES]))
            return screen(models)

        screen = experiments._screen_windows
        monkeypatch.setattr(experiments, "_screen_windows", screen_windows)
        table, meta = random_ensemble(EnsembleSpec(n=100, seed=7))
        assert [fields.shape for fields in rounds] == [(8, 150)]
        # the rows carry every field but E1, which is E1* there
        accepted = np.array([table[name] for name in PARAM_NAMES[1:]])
        drawn = rounds[0][1:, :100 + meta["resamples"]]
        remaining = iter(drawn.T.tolist())
        assert all(column in remaining for column in accepted.T.tolist())  # in draw order


class TestCoolingWindow:
    def test_benchmark_window(self):
        window = cooling_window(FIG4_BASE)
        assert not window.left_is_boundary
        assert window.left == pytest.approx(0.40653601327, abs=1e-9)
        assert window.right == pytest.approx(3.92413296025, abs=1e-9)
        # the deviation vanishes at both roots
        assert abs(deviation(window.left, FIG4_BASE)) < 1e-12
        assert abs(deviation(window.right, FIG4_BASE)) < 1e-12

    def test_no_coupling_left_edge_is_boundary(self):
        window = cooling_window(replace(FIG4_BASE, gamma=0.0))
        assert window.left_is_boundary
        assert window.right == pytest.approx(4.0, abs=1e-9)

    def test_empty_window(self):
        # a machine bath barely hotter than the cold bath cannot offset a
        # strong internal coupling
        base = ModelParams(e1=1.6, e3=4.0, gamma=0.8, t1=1.9, t2=2.0, t3=2.01, p=0.01, g=0.01)
        with pytest.raises(EmptyCoolingWindowError):
            cooling_window(base)

    def test_a_raising_model_leaves_its_batch_alone(self):
        # at eta_c = 6 a coupling above E3 makes the dressed gap
        # eps3 = E3 - gamma negative at the low end of the scan; that model's
        # search raises and the models batched with it keep their windows
        bad = ModelParams(e1=6.0, e3=2.0, gamma=2.4, t1=1.8, t2=2.0, t3=4.0, p=0.005, g=0.005)
        with pytest.raises(ParameterError, match="dressed engine gap must be positive"):
            deviation(_scan_range(stack([bad]))[0], bad)
        uncoupled = replace(FIG4_BASE, gamma=0.0)
        first, raised, last = cooling_windows(stack([FIG4_BASE, bad, uncoupled]))
        assert isinstance(raised, ParameterError)
        assert first.left == pytest.approx(0.40653601327, abs=1e-9)
        assert first.right == pytest.approx(3.92413296025, abs=1e-9)
        assert last.left_is_boundary and last.right == pytest.approx(4.0, abs=1e-9)
        for window, base in ((first, FIG4_BASE), (last, uncoupled)):
            alone = cooling_window(base)
            assert window.left == pytest.approx(alone.left, abs=1e-12)
            assert window.right == pytest.approx(alone.right, abs=1e-12)

    def test_batch_of_field_arrays_matches_one_model_calls(self):
        # FIG4_BASE, the dressed-gap rejection of the test above and an
        # uncoupled model, as field arrays; t2 and t3 are shared scalars
        batch = ModelParams(
            e1=np.array([1.0, 6.0, 1.0]), e3=np.array([4.0, 2.0, 4.0]),
            gamma=np.array([0.2, 2.4, 0.0]), t1=np.array([4 / 3, 1.8, 4 / 3]),
            t2=2.0, t3=4.0, p=np.array([0.01, 0.005, 0.01]), g=np.array([0.01, 0.005, 0.01]))
        bad = ModelParams(e1=6.0, e3=2.0, gamma=2.4, t1=1.8, t2=2.0, t3=4.0, p=0.005, g=0.005)
        models = [FIG4_BASE, bad, replace(FIG4_BASE, gamma=0.0)]
        assert all(batch.as_batch().take(i) == model for i, model in enumerate(models))
        windows = cooling_windows(batch)
        with pytest.raises(ParameterError) as alone:
            cooling_window(models[1])
        assert type(windows[1]) is type(alone.value) and str(windows[1]) == str(alone.value)
        with pytest.raises(ParameterError) as raised:
            maximize_cooling_powers(batch)
        assert type(raised.value) is type(alone.value) and str(raised.value) == str(alone.value)
        good = batch.as_batch().take(np.array([0, 2]))
        results = maximize_cooling_powers(good)
        for i, window, result in zip((0, 2), (windows[0], windows[2]), results):
            single = maximize_cooling_power(models[i])
            for got, want in ((window, single.window), (result.window, single.window)):
                assert got.left == pytest.approx(want.left, abs=1e-12)
                assert got.right == pytest.approx(want.right, abs=1e-12)
                assert got.left_is_boundary == want.left_is_boundary
            for key in ("e1_star", "q1g_max", "eta_g_star"):
                assert getattr(result, key) == pytest.approx(getattr(single, key), abs=1e-12)

    def test_one_model_is_a_batch_of_one(self):
        windows = cooling_windows(FIG4_BASE)
        assert len(windows) == 1 and windows[0] == cooling_window(FIG4_BASE)
        assert len(maximize_cooling_powers(FIG4_BASE)) == 1

    def test_empty_scan_range_message_prints_its_ends_exactly(self):
        base = ModelParams(e1=1.0, e3=4.0, gamma=0.3, t1=1.99, t2=2.0, t3=2.0000001, p=0.01, g=0.01)
        models = stack([base])
        lo, hi, _ = scan = _scan_range(models)
        error = _window_error(models, scan, 0)
        assert str(error).startswith("scan range empty: [")
        scanned = str(error).split("[", 1)[1].split("]", 1)[0]
        assert [float(v) for v in scanned.split(", ")] == [lo[0], hi[0]]

    def test_window_short_of_the_midpoint_is_found_from_the_minimum_of_f(self):
        # T1 near T2 stretches the scan range to E3 times a large Carnot COP, and
        # the window ends short of the range's midpoint, where f is positive
        base = replace(FIG4_BASE, t1=1.95)
        lo, hi, _ = _scan_range(stack([base]))
        assert log_odds_gap(0.5 * (lo[0] + hi[0]), base) > 0.0
        window = cooling_window(base)
        grid = np.linspace(lo[0], hi[0], 4000)
        cool = grid[deviation(grid, base) < 0.0]
        assert abs(window.left - cool[0]) <= grid[1] - grid[0]
        assert abs(window.right - cool[-1]) <= grid[1] - grid[0]

    def test_window_requires_cold_target(self):
        from neqfridge.errors import ParameterError

        base = ModelParams(e1=1.0, e3=4.0, gamma=0.2, t1=2.0, t2=2.0, t3=4.0, p=0.01, g=0.01)
        with pytest.raises(ParameterError):
            cooling_window(base)


@st.composite
def ensemble_draws(draw) -> ModelParams:
    """One model drawn like random_ensemble's, over its sampling box and the
    default EnsembleSpec ranges.  T3/T2 stays 1e-9 above one: at 1 + 2e-16
    the three temperatures agree to rounding, and d and f are rounding noise
    that can disagree in sign."""
    spec = EnsembleSpec(n=1, eta_c=draw(st.sampled_from([0.5, 1.0, 3.0, 6.0])))
    e3, t2 = draw(st.floats(*_E3_RANGE)), draw(st.floats(*spec.t2_range))
    t3 = t2 * draw(st.floats(1.0 + 1e-9, spec.t3_mult_range[1]))
    gamma = draw(st.integers(1, _MAX_GAMMA_STEP)) * e3 * spec.eta_c / _GAMMA_STEPS
    t1 = 1.0 / (1.0 / t2 + (1.0 / t2 - 1.0 / t3) / spec.eta_c)
    p = g = 0.01 * e3 / 4.0
    return ModelParams(e1=max(1.0, 2.5 * gamma), e3=e3, gamma=gamma, t1=t1, t2=t2, t3=t3, p=p, g=g)


class TestWindowsAgainstFineScan:
    # The search trusts f to dip below its rounding bound on one interval; a
    # 4000-point scan of d over the same range checks that on a batch of draws
    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(bases=st.lists(ensemble_draws(), min_size=1, max_size=6))
    # T1, T2 and T3 within 1e-9: f stays within 2 ulps of zero, yet d is
    # negative at one grid point and the search once returned a window there
    @example(bases=[ModelParams(e1=3.75, e3=2.0, gamma=1.5, t1=0.9999999998333333, t2=1.0,
                                t3=1.000000001, p=0.005, g=0.005)])
    def test_windows_match_a_fine_scan(self, bases):
        lo, hi, reason = _scan_range(stack(bases))
        for base, window, a, b, code in zip(bases, cooling_windows(stack(bases)), lo, hi, reason):
            grid = np.linspace(a, b, 4000)
            if code != 0:  # the scan rejects the model
                assert isinstance(window, NeqFridgeError)
                if b > a:  # a frame rejection: the grid itself must raise
                    with pytest.raises(type(window)):
                        deviation(grid, base)
                continue
            d = deviation(grid, base)  # the frame at a holds on the whole range
            cell, cool = grid[1] - grid[0], grid[d < 0.0]
            if np.min(log_odds_gap(grid, base)) >= -_F_ROUNDING * b / base.t1:
                # f never leaves its rounding bound: the sign of d is noise
                assert not isinstance(window, CoolingWindow)
            elif 0 < cool.size < grid.size:  # the scan sees a sign change
                assert isinstance(window, CoolingWindow)
                assert abs(window.left - cool[0]) <= cell
                assert abs(window.right - cool[-1]) <= cell
            else:
                assert not isinstance(window, CoolingWindow) or window.right - window.left < cell


def _edge_searches(monkeypatch, run) -> list[tuple[int, int]]:
    """The rounds (function calls) and the number of brackets of each search of window-edge
    brackets that run() makes: of the edges, or of fig6's bracket stage."""
    from neqfridge import experiments

    searches, solving = [], []
    solve, search = experiments._solve_windows, experiments._chandrupatla

    def solve_windows(*args):
        solving.append(True)
        try:
            return solve(*args)
        finally:
            solving.pop()

    def chandrupatla(func, *brackets):
        calls = []
        result = search(lambda x, idx: calls.append(x) or func(x, idx), *brackets)
        if solving:
            searches.append((len(calls), len(brackets[0])))
        return result

    monkeypatch.setattr(experiments, "_solve_windows", solve_windows)
    monkeypatch.setattr(experiments, "_chandrupatla", chandrupatla)
    run()
    return searches


def _edge_search_rounds(monkeypatch, run) -> list[int]:
    """The rounds of each search of window-edge brackets that run() makes."""
    return [rounds for rounds, _ in _edge_searches(monkeypatch, run)]


class TestEdgeSearchInDeltaE:
    # the edges are searched in delta_e, where f is smooth at E1 = 2 gamma; in E1,
    # fig6's edge searches took 21 rounds at every seed, maximize's 13 and fig4's 14
    def test_fig6_bracket_stage_rounds(self, monkeypatch):
        # fig6 searches its edge brackets only until H takes each side's sign there, in 2-4
        # rounds at these seeds; it once root-found the edges, in 12-15
        rounds = _edge_search_rounds(monkeypatch, lambda: [
            random_ensemble(EnsembleSpec(n=100, seed=seed)) for seed in range(51, 61)])
        assert len(rounds) == 10 and max(rounds) <= 6

    @pytest.mark.parametrize("seed", [7, 51, 52])
    def test_fig6_searches_only_the_edges_of_the_windows_it_keeps(self, monkeypatch, seed):
        # two edge brackets per accepted model, none for a rejected draw or one
        # drawn ahead and not needed
        searches = _edge_searches(monkeypatch, lambda: random_ensemble(EnsembleSpec(n=100, seed=seed)))
        assert sum(brackets for _, brackets in searches) == 200

    @pytest.mark.parametrize("seed", [7, 51])
    def test_fig6_brackets_and_maxima_against_the_exact_windows(self, monkeypatch, seed):
        # the bracket stage's points lie in the exact window, up to an edge's 4 eps; fig6's
        # power search starts from them, maximize's from the exact edges, and Q1^g agrees
        # within a few eps of the column's largest value, as the reference outputs are
        # compared (per model, Q1^g's own rounding moves it by up to about 200 eps of
        # itself per ulp of E1 here); E1* lies inside the window
        from neqfridge import experiments

        eps = np.finfo(float).eps
        stages, brackets = [], experiments._power_brackets
        monkeypatch.setattr(experiments, "_power_brackets",
                            lambda models, screen: stages.append(brackets(models, screen)) or stages[-1])
        table, _ = random_ensemble(EnsembleSpec(n=100, seed=seed))
        results = maximize_cooling_powers(ModelParams._unchecked({k: table[k] for k in PARAM_NAMES}))
        lefts, rights = np.hstack(stages)
        for left, right, result in zip(lefts.tolist(), rights.tolist(), results):
            window = result.window
            assert window.left * (1.0 - 4.0 * eps) <= left <= right <= window.right * (1.0 + 4.0 * eps)
        q1g_max = np.array([result.q1g_max for result in results])
        assert np.abs(table["q1g_max"] - q1g_max).max() <= 8.0 * eps * q1g_max.max()
        for e1_star, result in zip(table["e1"].tolist(), results):
            assert result.window.left < e1_star < result.window.right

    def test_only_a_finite_slope_certifies_a_side(self):
        h = np.array([1.0, -1.0, 0.0, np.inf, -np.inf, np.nan, 5e-324])
        np.testing.assert_array_equal(_certifies(h, 1.0), [True, False, False, False, False, False, True])
        np.testing.assert_array_equal(_certifies(h, -1.0), [False, True, False, False, False, False, False])

    def test_maximize_edge_rounds(self, monkeypatch):
        rounds = _edge_search_rounds(monkeypatch, lambda: maximize_cooling_power(REFERENCE))
        assert len(rounds) == 1 and rounds[0] <= 10

    def test_fig4_edge_rounds(self, monkeypatch):
        rounds = _edge_search_rounds(monkeypatch, lambda: sweep_fig4(points=200))
        assert len(rounds) == 1 and rounds[0] <= 11

    @pytest.mark.parametrize("seed", [51, 56])
    def test_near_2_gamma_left_edges_match_mpmath(self, seed):
        # left edges with delta_e/E1 below 0.05, where f's E1-slope is large; each
        # agrees with a 50-digit root within 4 eps of its bracket's larger end, the
        # point inside the window, and within the search's own error, delta_e/E1
        # times 4 eps of that point's delta_e, plus the map's rounding
        rng = np.random.default_rng(seed)
        spec = EnsembleSpec(n=100, seed=seed)
        models = stack([ModelParams(*_draw(rng, spec)) for _ in range(150)])
        checked = 0
        inside_points = _screen_windows(models)[0]  # each window's point inside it, its x column
        for i, (inside, window) in enumerate(zip(inside_points.tolist(), cooling_windows(models))):
            if not isinstance(window, CoolingWindow) or window.left_is_boundary:
                continue
            base = ModelParams(**{name: float(value[i]) for name, value in models.as_dict().items()})
            delta_e = lambda e1: math.sqrt((e1 - 2.0 * base.gamma) * (e1 + 2.0 * base.gamma))
            left = window.left
            if delta_e(left) >= 0.05 * left:
                continue
            with mpmath.workdps(50):
                four_gamma_sq = 4 * mpmath.mpf(base.gamma) ** 2
                f = lambda u: mp_closed_forms(mpmath.sqrt(u * u + four_gamma_sq), base)[0]
                u = mpmath.findroot(f, mpmath.mpf(delta_e(left)))
                exact = float(mpmath.sqrt(u * u + four_gamma_sq))
            eps = np.finfo(float).eps
            assert abs(left - exact) <= 4.0 * eps * inside
            assert abs(left - exact) <= (delta_e(left) / left * 4.0 * eps * delta_e(inside)
                                         + np.spacing(left))
            checked += 1
        assert checked >= 5


class TestOptimizers:
    def test_maximum_beats_fine_grid(self):
        result = maximize_cooling_power(FIG4_BASE)
        grid = np.linspace(result.window.left, result.window.right, 1000)
        best_on_grid = max(-0.25 * FIG4_BASE.g * deviation(e, FIG4_BASE) * e for e in grid)
        assert result.q1g_max >= best_on_grid - 1e-12
        assert result.window.left < result.e1_star < result.window.right

    def test_endpoints_have_no_power(self):
        result = maximize_cooling_power(FIG4_BASE)
        for edge in (result.window.left, result.window.right):
            assert abs(-0.25 * FIG4_BASE.g * deviation(edge, FIG4_BASE) * edge) < 1e-14
        assert result.q1g_max > 0

    @pytest.mark.parametrize("case", ["reference", "gamma-0.2", "uncoupled", "draws"])
    def test_max_power_observables_are_the_closed_forms_at_e1_star(self, case):
        # Q1^g = -g d E1 / 4 and the COP of the resonant frame at E1*, to the last bit
        if case == "draws":
            rng = np.random.default_rng(11)
            drawn = [ModelParams(*_draw(rng, EnsembleSpec(n=1))) for _ in range(60)]
            models = stack([m for m, w in zip(drawn, cooling_windows(stack(drawn)))
                            if isinstance(w, CoolingWindow)])
        else:
            base = {"reference": REFERENCE, "gamma-0.2": FIG4_BASE,
                    "uncoupled": replace(REFERENCE, gamma=0.0)}[case]
            models = base.as_batch()
        results = maximize_cooling_powers(models)
        e1 = np.array([r.e1_star for r in results])
        assert np.array_equal([r.q1g_max for r in results],
                              -0.25 * models.g * deviation(e1, models) * e1)
        assert np.array_equal([r.eta_g_star for r in results],
                              cop_g(resonant_frame(e1, models.e3, models.gamma)))

    def test_min_cop_beats_fine_grid(self):
        result = minimize_cop(FIG4_BASE)
        grid = np.linspace(result.window.left, result.window.right, 1000)
        best = min(cop_g(resonant_frame(e, FIG4_BASE.e3, FIG4_BASE.gamma)) for e in grid)
        assert result.eta_g_min <= best + 1e-12

    def test_min_cop_no_coupling_sits_at_left_edge(self):
        base = replace(FIG4_BASE, gamma=0.0)
        result = minimize_cop(base, tol=1e-10)
        # the COP E1/E3 is monotone in the gap, so the minimizer converges to
        # the left edge within the search tolerance
        assert result.e1_star == pytest.approx(result.window.left, abs=1e-9)
        assert result.eta_g_min == pytest.approx(result.e1_star / base.e3, rel=1e-10)


# target gaps and models for the slope checks: the reference on both sides of
# its power maximum and without coupling, hot (T ~ 1e3), cold (E/T ~ 30), and
# just above the resonance limit E1 = 2 gamma
SLOPE_POINTS = {
    "default-left": (1.0, REFERENCE),
    "default-right": (2.5, REFERENCE),
    "uncoupled": (1.0, replace(REFERENCE, gamma=0.0)),
    "hot": (1.0, replace(REFERENCE, t1=1000.0, t2=1500.0, t3=3000.0)),
    "cold": (1.0, replace(REFERENCE, t1=1.0 / 30.0, t2=0.15, t3=0.3)),
    "near-2-gamma": (0.6 * (1.0 + 1e-6), REFERENCE),
}


class TestSlopes:
    @pytest.mark.parametrize("name", sorted(SLOPE_POINTS))
    def test_slopes_match_mpmath_derivatives(self, name):
        e1, params = SLOPE_POINTS[name]
        f_slope, h = _e1_slopes(e1, params)
        with mpmath.workdps(50):
            # f' times E3's power of two 2^k, below which E3 falls
            scale = 2 ** math.frexp(params.e3)[1]
            exact_f = mpmath.diff(lambda x: mp_closed_forms(x, params)[0], e1) * scale
            exact_q = mpmath.diff(lambda x: mp_closed_forms(x, params)[1], e1)
            # Q1^g = -12 p g^2 E1 N / D, so H = dQ1^g/dE1 D^2 / (12 p g^2); _e1_slopes
            # returns it over the larger P of N's two products, at p and g times the power
            # of two u below which max(p, g) falls, which is u^2 H/P
            unit = math.ldexp(1.0, -math.frexp(max(params.p, params.g))[1])
            _, _, den, larger = mp_closed_forms(e1, params)
            exact_h = exact_q * den ** 2 / (12 * params.p * params.g ** 2) * unit ** 2 / larger
        assert abs(f_slope - exact_f) <= 1e-9 * abs(exact_f)
        assert abs(h - exact_h) <= 1e-9 * abs(exact_h)

    def test_power_maximum_is_the_stationary_point(self):
        # the reference, and the model nearest the upper COP bound in each of
        # three hot ensembles, where the largest of Q1^g's values misses its maximum by
        # up to 1e-6 relative
        models = [REFERENCE]
        for seed in (4, 5, 6):
            table, _ = random_ensemble(hot_spec(seed))
            i = int(np.argmax(table["eta_star"] - table["eta_star_max"]))
            models.append(ModelParams(**{name: float(table[name][i]) for name in PARAM_NAMES}))
        for model in models:
            e1_star = maximize_cooling_power(model).e1_star
            exact = mp_power_stationary_point(model, e1_star)
            assert abs(e1_star - exact) <= 1e-12 * exact

    @pytest.mark.parametrize("gamma", [0.0, 1e-12, 1e-6])
    def test_power_rises_from_a_boundary_left_edge(self, gamma):
        # the window starts at the scan's lower end, E1 = 2 gamma (1 + 1e-9) or 1e-9 E3
        # at gamma = 0, where Q1^g (which carries a factor E1) is near zero and rises
        base = replace(FIG4_BASE, gamma=gamma)
        window = cooling_window(base)
        assert window.left_is_boundary
        assert _e1_slopes(window.left, base)[1] > 0.0


# the reference; two models whose machine baths freeze inside the window scan: at
# gamma = 0 with T2 = T1 + 2^-8, where r~2 underflows at the scan's top and the right edge
# is E3 times the Carnot COP, and at E3 = 1e8, where every machine population underflows;
# machine baths at a thousand units; three temperatures within 2^-9 of each other; and a
# short window from the scan's lower end 2 gamma (1 + 1e-9), whose right edge is searched
# from that end, where delta_e is far below E1
MP_POINTS = {
    "default": REFERENCE,
    "boundary-left": replace(REFERENCE, e3=8.0, gamma=1e-4, t1=2.5, t2=2.525, t3=12.0),
    "frozen-spiral": replace(REFERENCE, gamma=0.0, e3=4.0, t1=1.0, t2=1.00390625, t3=4.00390625),
    "frozen-machine": replace(REFERENCE, e3=1e8),
    "hot": replace(REFERENCE, t1=1000.0, t2=1500.0, t3=3000.0),
    "near-equal": replace(REFERENCE, t1=2.0, t2=2.0 * (1.0 + 2.0 ** -10), t3=2.0 * (1.0 + 2.0 ** -9)),
}


class TestAgainstMpmath:
    def test_d_and_a1_across_the_reference_window(self):
        # 45 target gaps across [0.6, 5]; d = P expm1(f) carries f's own rounding, about
        # an eps of the O(1) terms whose difference f is, so its relative error grows as
        # 1/|f| near the window's edges (the largest, 8.8e-15, is at E1 = 3.8, f = -0.0063)
        for e1 in np.linspace(0.6, 5.0, 45).tolist():
            frame = resonant_frame(e1, REFERENCE.e3, REFERENCE.gamma)
            pops = tilde_populations(frame, REFERENCE.t2, REFERENCE.t3, t1=REFERENCE.t1)
            decomposition = steady_coefficients(pops, REFERENCE.p, REFERENCE.g)
            d, a1 = mp_coefficients(e1, REFERENCE)
            assert abs(decomposition.d - d) <= 1e-14 * abs(d)
            assert abs(decomposition.a1 - a1) <= 1e-14 * abs(a1)

    @pytest.mark.parametrize("name", sorted(MP_POINTS))
    def test_window_edges_and_power_maximum(self, name):
        params = MP_POINTS[name]
        result = maximize_cooling_power(params)
        window = result.window
        edges = [window.right] if window.left_is_boundary else [window.left, window.right]
        for edge in edges:
            exact = mp_window_edge(params, edge)
            assert abs(edge - exact) <= 1e-12 * exact
        exact = mp_power_stationary_point(params, result.e1_star)
        assert abs(result.e1_star - exact) <= 1e-10 * exact

    def test_boundary_left_point_has_a_short_boundary_window(self):
        # the screen reads f < 0 only at the scan's lower end, so the right edge's bracket
        # starts there: the point is inside the window, and delta_e is far below E1 there
        params = MP_POINTS["boundary-left"]
        x, _, _, _, lo, hi = (float(column[0]) for column in _screen_windows(stack([params]))[:6])
        window = cooling_window(params)
        assert window.left_is_boundary and x == lo
        assert window.right < 0.5 * (lo + hi)

    def test_frozen_spiral_window_ends_at_the_carnot_limit(self):
        # at gamma = 0 the right edge is E3 times the Carnot COP, (b2 - b3)/(b1 - b2)
        params = MP_POINTS["frozen-spiral"]
        with mpmath.workdps(50):
            b1, b2, b3 = (1 / mpmath.mpf(t) for t in (params.t1, params.t2, params.t3))
            carnot = params.e3 * (b2 - b3) / (b1 - b2)
        assert abs(cooling_window(params).right - carnot) <= 1e-12 * carnot


def _scaled(params: ModelParams, k: int) -> ModelParams:
    """Every field times 2^k, which is exact in floating point."""
    return ModelParams(**{name: value * 2.0 ** k for name, value in params.as_dict().items()})


def _max_power_outcome(params: ModelParams):
    try:
        return maximize_cooling_power(params)
    except NeqFridgeError as exc:
        return type(exc)


def _assert_scale_free(params: ModelParams, k: int) -> None:
    """The window edges and E1* scale by 2^k, q1g_max by 4^k and eta_g_star not at
    all, bit for bit, and a model without a window raises the same error class."""
    base, scaled = _max_power_outcome(params), _max_power_outcome(_scaled(params, k))
    if isinstance(base, type):
        assert scaled is base
        return
    unit = 2.0 ** k
    assert scaled.window == CoolingWindow(base.window.left * unit, base.window.right * unit,
                                          base.window.left_is_boundary)
    assert scaled.e1_star == base.e1_star * unit
    assert scaled.eta_g_star == base.eta_g_star
    assert scaled.q1g_max == base.q1g_max * unit * unit


class TestScaleFree:
    # beyond 2^-500 and 2^500 the window searches once underflowed or overflowed; they run
    # in the caller's units, and the formulas that square an energy (the frame's delta_e
    # and its inverse) take the square over the energy's power of two
    @pytest.mark.parametrize("k", [-600, -500, -300, -60, -30, -10, 10, 20, 30, 60, 300, 500])
    def test_reference_in_power_of_two_units(self, k):
        _assert_scale_free(REFERENCE, k)

    def test_huge_coupling_neither_overflows_nor_moves_the_maximum(self):
        # p and g enter d and H at the power of two that brings the larger below 1, so
        # g*g stays finite (a RuntimeWarning is an error here) and g = 1e300 acts as g = 1e10
        huge, large = (maximize_cooling_power(replace(REFERENCE, g=g)) for g in (1e300, 1e10))
        assert huge.window == large.window
        assert huge.e1_star == pytest.approx(large.e1_star, rel=4e-15, abs=0.0)
        assert huge.q1g_max == pytest.approx(large.q1g_max, rel=4e-15, abs=0.0)

    # the box of `validate --grid`; 71 of the 100 draws have a window, 34 of them at
    # gamma = 0, which the draws reach through st.just(0.0)
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(
        e1=st.floats(0.5, 2.0),
        e3=st.floats(2.0, 8.0),
        # no subnormal coupling: a subnormal gamma times 2^k is not exact
        coupling=st.one_of(st.just(0.0), st.floats(1e-12, 0.49)),
        t1=st.floats(0.5, 2.0),
        dt2=st.floats(0.0, 2.0),
        dt3=st.floats(0.0, 4.0),
        p=st.floats(0.002, 0.03),
        g=st.floats(0.002, 0.03),
        k=st.integers(-60, 60),
    )
    def test_grid_box_in_power_of_two_units(self, e1, e3, coupling, t1, dt2, dt3, p, g, k):
        params = ModelParams(e1=e1, e3=e3, gamma=coupling * e1, t1=t1, t2=t1 + dt2,
                             t3=t1 + dt2 + dt3, p=p, g=g)
        _assert_scale_free(params, k)


@pytest.fixture(scope="module")
def curves():
    """The fig3 table split by coupling, each curve in increasing beta3."""
    table = sweep_fig3(points=160)
    grouped = {}
    for gamma in np.unique(table["gamma"]).tolist():
        at = np.flatnonzero(table["gamma"] == gamma)
        at = at[np.argsort(table["beta3"][at], kind="stable")]
        grouped[gamma] = {name: column[at] for name, column in table.items()}
    return grouped


class TestFig3Sweep:
    def test_three_classes_in_order(self, curves):
        gammas = sorted(curves)
        assert gammas == sorted([0.48, 0.49, critical_gamma(1.0, 4.0), 0.50])
        # class 1: positive throughout, growing with the engine temperature
        q = curves[0.48]["q1g"][:-1].tolist()
        assert min(q) > 0
        assert all(a >= b for a, b in zip(q, q[1:]))  # decreasing in beta3
        # class 2: positive near degeneracy, negative when the bath is hot
        q = curves[0.49]["q1g"][:-1].tolist()
        assert q[0] < 0 < q[-1]
        # class 3: never positive at and beyond the critical coupling
        for gamma in (critical_gamma(1.0, 4.0), 0.50):
            q = curves[gamma]["q1g"][:-1].tolist()
            assert max(q) <= 0
        q = curves[0.50]["q1g"][:-1].tolist()
        assert all(abs(a) >= abs(b) for a, b in zip(q, q[1:]))

    def test_degenerate_endpoint_is_exactly_zero(self, curves):
        for gamma, curve in curves.items():
            assert curve["beta3"][-1] == 0.5
            assert abs(curve["q1g"][-1]) < 1e-18
            assert curve["delta_c"][-1] == 0.0

    def test_current_and_coherence_share_sign(self, curves):
        for curve in curves.values():
            q1g, delta_c = curve["q1g"][:-1], curve["delta_c"][:-1]
            away = np.abs(q1g) > 1e-12
            assert (np.sign(q1g[away]) == np.sign(delta_c[away])).all()

    def test_rows_carry_full_parameter_set(self, curves):
        curve = next(iter(curves.values()))
        for key in ("e1", "e3", "gamma", "t1", "t2", "t3", "p", "g"):
            assert curve[key].shape == curve["beta3"].shape


@pytest.fixture(scope="module")
def fig4_data():
    return sweep_fig4(points=120)


class TestFig4Sweep:
    def test_cop_ordering_within_window(self, fig4_data):
        table, _ = fig4_data
        assert (table["eta_g"] >= table["eta_tot"]).all()
        assert (table["eta_g"] <= 1.0 + 1e-12).all()  # eta_c = 1 for these baths

    def test_coupling_enhances_cop_and_reduces_total_cop(self):
        # at the shared interior point E1 = 1 the machine COP beats the bare
        # gap ratio while the thermodynamic COP falls below it
        from neqfridge.observables import currents_closed
        from neqfridge.steadystate import steady_coefficients

        base = replace(FIG4_BASE, gamma=0.4, e1=1.0)
        frame = resonant_frame(1.0, 4.0, 0.4)
        assert cop_g(frame) > 0.25
        pops = tilde_populations(frame, base.t2, base.t3, t1=base.t1)
        d = steady_coefficients(pops, base.p, base.g).d
        closed = currents_closed(base, frame, pops, d)
        assert closed["q1"] / closed["q3"] < 0.25

    def test_empty_window_reported_for_strong_coupling(self):
        with pytest.raises(EmptyCoolingWindowError):
            sweep_fig4(points=10, gammas=(1.8,))


@pytest.fixture(scope="module")
def fig5_data():
    return sweep_fig5(points=120)


class TestFig5Sweep:
    def test_ratio_approaches_one_at_degeneracy(self, fig5_data):
        table, _ = fig5_data
        for gamma in (0.1, 0.2, 0.3):
            at = np.flatnonzero(table["gamma"] == gamma)
            closest = at[np.argmax(table["beta3"][at])]
            assert table["beta3"][closest] == pytest.approx(0.5 - 1e-4, abs=1e-12)
            assert abs(table["eta_ratio"][closest] - 1.0) < 1e-3

    def test_coupling_ordering_at_every_point(self, fig5_data):
        table, _ = fig5_data
        eta_ratio, coherence = table["eta_ratio"], table["coherence"]
        by_beta = collections.defaultdict(dict)
        for i, (beta3, gamma) in enumerate(zip(table["beta3"].tolist(), table["gamma"].tolist())):
            by_beta[round(beta3, 12)][gamma] = i
        for group in by_beta.values():
            if len(group) != 3:
                continue
            assert eta_ratio[group[0.1]] > eta_ratio[group[0.2]] > eta_ratio[group[0.3]]
            assert coherence[group[0.1]] < coherence[group[0.2]] < coherence[group[0.3]]

    def test_regression_point(self):
        # pinned after the first verified run, at the middle point of the default range
        table, _ = sweep_fig5(points=3, gammas=(0.2,))
        assert table["beta3"][1] == 0.25495
        assert table["eta_ratio"][1] == pytest.approx(0.9762156960910487, abs=1e-12)
        assert table["coherence"][1] == pytest.approx(0.23632977278846484, abs=1e-12)
        assert table["t1"][1] == pytest.approx(0.736451133340393, abs=1e-12)

    def test_skipped_points_reported(self, fig5_data):
        table, skipped = fig5_data
        assert isinstance(skipped, list)
        assert table["beta3"].size + len(skipped) == 3 * 120


class TestGenericSweep:
    def test_beta3_axis(self):
        spec = SweepSpec(base=FIG4_BASE, axis="beta3", lo=0.05, hi=0.45, points=10)
        table, skipped = sweep(spec)
        assert table["axis_value"].size == 10 and not skipped
        assert {"d", "q1g", "eta_g", "eta_tot", "tv", "t1s", "coherence"} <= set(table)

    def test_gamma_axis_skips_infeasible(self):
        spec = SweepSpec(base=FIG4_BASE, axis="gamma", lo=0.0, hi=0.8, points=9)
        table, skipped = sweep(spec)
        assert skipped and all(s["value"] > 0.5 for s in skipped)
        assert table["axis_value"].size + len(skipped) == 9
        table, skipped = sweep(SweepSpec(base=FIG4_BASE, axis="gamma", lo=0.6, hi=0.8, points=3))
        assert all(column.size == 0 for column in table.values()) and len(skipped) == 3

    def test_non_cooling_points_are_nan(self):
        # past the critical coupling the machine COP is undefined; the sweep
        # marks exactly the points where the single-point call is NaN
        gamma_c = critical_gamma(1.0, 4.0)
        spec = SweepSpec(base=replace(FIG4_BASE, e1=1.0), axis="gamma",
                         lo=gamma_c - 0.02, hi=0.5, points=41)
        table, skipped = sweep(spec)
        assert table["axis_value"].size == 41 and not skipped
        flags = []
        for e1, e3, gamma, eta_g in zip(*(table[k].tolist() for k in ("e1", "e3", "gamma", "eta_g"))):
            undefined = bool(np.isnan(cop_g(resonant_frame(e1, e3, gamma))))
            assert np.isnan(eta_g) == undefined
            assert undefined == (not cooling_condition(e1, e3, gamma))
            flags.append(undefined)
        assert any(flags) and not all(flags)

    def test_negative_dressed_gap_points_are_skipped(self):
        # E1 < 1.8 breaks gamma <= E1/2; at E1 = 2 the dressed engine gap
        # eps3 = E3 + sqrt(E1^2 - 4 gamma^2)/2 - E1/2 is -0.064
        base = ModelParams(e1=3, e3=0.5, gamma=0.9, t1=1, t2=2, t3=4, p=.01, g=.01)
        table, skipped = sweep(SweepSpec(base=base, axis="e1", lo=1, hi=4, points=13))
        assert table["axis_value"].size == 8 and len(skipped) == 5
        assert [s["value"] for s in skipped] == [1.0, 1.25, 1.5, 1.75, 2.0]
        assert all(s["reason"].startswith("resonance infeasible") for s in skipped[:4])
        reason = skipped[4]["reason"]
        assert reason.startswith("dressed engine gap must be positive: eps3=-0.0641")
        assert reason.endswith("at E1=2.0, E3=0.5, gamma=0.9")

    def test_bad_spec(self):

        with pytest.raises(ParameterError):
            SweepSpec(base=FIG4_BASE, axis="nope", lo=0.0, hi=1.0, points=5)
        with pytest.raises(ParameterError):
            SweepSpec(base=FIG4_BASE, axis="e1", lo=1.0, hi=0.5, points=5)


@pytest.mark.parametrize("field, value", [
    ("t2_range", (0.0, 4.0)),
    ("t2_range", (4.0, 1.0)),
    ("t2_range", (1.0, math.inf)),
    ("t3_mult_range", (0.5, 5.0)),
    ("t3_mult_range", (3.0, 2.0)),
    ("t3_mult_range", (1.0, 1.0)),
])
def test_bad_ensemble_spec(field, value):
    # these once leaked a ZeroDivisionError or numpy's OverflowError, or stalled the sampler
    with pytest.raises(ParameterError, match=field):
        EnsembleSpec(n=2, **{field: value})


def _scalar_round(rng: np.random.Generator, spec: EnsembleSpec, size: int) -> np.ndarray:
    """The fields of ``size`` scalar draws, a row per field, as ``_draws`` returns them."""
    return np.array([_draw(rng, spec) for _ in range(size)]).T


def _same_round(rng, reference, spec, size) -> dict:
    """Draw one round from ``rng`` by ``_draws`` and from ``reference`` by ``_draw``, assert
    the fields and the generators' whole states equal, bit for bit, and return the state."""
    assert _draws(rng, spec, size).tobytes() == _scalar_round(reference, spec, size).tobytes()
    assert rng.bit_generator.state == reference.bit_generator.state
    return reference.bit_generator.state


def _generators(seed: int, **state) -> tuple:
    """Two generators at ``seed``, their states updated with ``state``."""
    pair = np.random.default_rng(seed), np.random.default_rng(seed)
    for rng in pair:
        rng.bit_generator.state = {**rng.bit_generator.state, **state}
    return pair


class TestArrayDraws:
    # _draws decodes numpy's PCG64 stream as _draw's scalar calls take it; numpy does not
    # promise that layout across versions, and a numpy that changes it fails here instead
    # of moving every ensemble.  Each draw's integer takes half of a 64-bit word, so a
    # round of odd size hands the next one the generator's buffered half (has_uint32 = 1)
    @pytest.mark.parametrize("eta_c", [0.3, 1.0, 10.0])
    @pytest.mark.parametrize("buffered", [0, 1])
    def test_rounds_are_the_scalar_draws(self, eta_c, buffered):
        spec = EnsembleSpec(n=1, eta_c=eta_c)
        rng, reference = _generators(3)
        if buffered:  # an integer leaves the high half of a word buffered
            for generator in (rng, reference):
                generator.integers(1, 41)
        starts = []
        for size in (1, 3, 150, 7, 10 ** 4, 2, 150):
            starts.append(rng.bit_generator.state["has_uint32"])
            _same_round(rng, reference, spec, size)
        assert starts == [buffered, 1 - buffered, buffered, buffered, 1 - buffered, 1 - buffered,
                          1 - buffered]

    def test_a_rejected_first_integer(self):
        # a buffered half of 0 makes Lemire's product 40 v = 0, whose low half is below
        # 2^32 mod 40 = 16, so numpy draws v again: one more 32-bit value than draws
        rng, reference = _generators(4, has_uint32=1, uinteger=0)
        assert _same_round(rng, reference, EnsembleSpec(n=1), 5)["has_uint32"] == 1

    @pytest.mark.parametrize("seed, word", [(1, 133644978), (2, 6405338)])
    def test_a_rejection_mid_round(self, seed, word):
        # word ``word`` of the seed's stream (found by a scan of its first 1.4e8 words)
        # has a half whose Lemire product has a low half below 16: the low half at seed 1
        # (product low half 8), the high half at seed 2 (0).  A round of 150 that starts
        # 38 words before it, with nothing buffered, reads it as draw 10's fresh word, so
        # draw 10's or draw 11's integer is redrawn
        rng, reference = _generators(seed)
        for generator in (rng, reference):
            generator.bit_generator.advance(word - 38)
        assert _same_round(rng, reference, EnsembleSpec(n=1), 150)["has_uint32"] == 1
        _same_round(rng, reference, EnsembleSpec(n=1), 151)


@pytest.fixture(scope="module")
def small():
    return random_ensemble(EnsembleSpec(n=60, seed=7))


class TestEnsemble:
    def test_deterministic(self, small):
        table, meta = small
        table2, meta2 = random_ensemble(EnsembleSpec(n=60, seed=7))
        assert table.keys() == table2.keys()
        assert all(np.array_equal(table[k], table2[k]) for k in table)
        assert meta == meta2
        table3, _ = random_ensemble(EnsembleSpec(n=60, seed=8))
        assert not all(np.array_equal(table[k], table3[k]) for k in table)

    def test_bounds_hold(self, small):
        table, _ = small
        assert (table["eta_star"] <= table["eta_star_max"] + 1e-9).all()
        assert (table["eta_star"] >= table["eta_star_min"] - 1e-9).all()
        for lower, x in zip(table["eta_star_min"].tolist(), table["gamma_over_e3"].tolist()):
            assert lower == pytest.approx(eta_star_min(x), abs=1e-12)

    def test_every_model_is_feasible(self, small):
        table, _ = small
        for e1, e3, gamma in zip(*(table[k].tolist() for k in ("e1", "e3", "gamma"))):
            assert cooling_condition(e1, e3, gamma)
        assert (table["q1g_max"] > 0).all()
        assert (table["gamma_over_e3"] <= 0.2 + 1e-12).all()

    def test_a_sliced_screen_is_the_whole_round(self, monkeypatch):
        # at 8 draws a slice, the 450 and 1601 draws of this ensemble's two rounds are
        # screened in 57 slices, the second round's stopped once n draws are kept; the
        # stream, the table, the resamples and a stall's error stay those of whole rounds
        from neqfridge import experiments

        def run(spec):
            try:
                return random_ensemble(spec)
            except ParameterError as exc:
                return str(exc)

        specs = [EnsembleSpec(n=300, eta_c=10.0, seed=3), EnsembleSpec(n=3, eta_c=5e-324)]
        whole = [run(spec) for spec in specs]
        screens, screen = [], experiments._screen_windows
        monkeypatch.setattr(experiments, "_SCREEN_SLICE", 8)
        monkeypatch.setattr(experiments, "_screen_windows",
                            lambda models: screens.append(models.e3.size) or screen(models))
        sliced = [run(spec) for spec in specs]
        assert max(screens) == 8 and 450 < sum(screens) < 450 + 1601
        (table, meta), (sliced_table, sliced_meta) = whole[0], sliced[0]
        assert sliced_meta == meta and sliced_table.keys() == table.keys()
        for name in table:
            np.testing.assert_array_equal(sliced_table[name], table[name])
        assert sliced[1] == whole[1] == "ensemble sampling stalled after 601 rejected draws"

    def test_near_bound_models_have_small_coherence(self):
        # hotter machine baths approach the bound; saturating models carry
        # little virtual-qubit coherence
        table, _ = random_ensemble(EnsembleSpec(n=300, seed=11, t2_range=(4.0, 12.0)))
        near = table["coherence"][table["near_bound"] != 0]
        assert near.size, "expected near-bound models in the hot ensemble"
        assert near.max() <= 0.12

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_batch_matches_scalar_reference(self, seed):
        # the batched screening, root finds and power maxima agree with a
        # point-by-point bisection and golden-section search replayed on the
        # same random stream
        _check_against_scalar(EnsembleSpec(n=20, seed=seed))

    def test_the_scan_rejects_what_the_gate_rejects(self, monkeypatch):
        # at eta_c = 10 some draws have eps3 <= 0 at their own E1, which
        # ModelParams rejects; unchecked, their window scan rejects them at its
        # low end, so every rejection and every accepted model is that of checking
        # and searching each draw on its own, and only a rejection's message,
        # which names the scan's low end in place of the draw's E1, differs
        from neqfridge import experiments

        outcomes = []  # per screened draw, None or the error of its window search

        def screen_windows(models):
            columns = screen(models)
            outcomes.extend(_window_error(models, columns, i) if code else None
                            for i, code in enumerate(columns[-1].tolist()))
            return columns

        screen = experiments._screen_windows
        monkeypatch.setattr(experiments, "_screen_windows", screen_windows)
        spec = EnsembleSpec(n=200, eta_c=10.0, seed=5)
        table, meta = random_ensemble(spec)
        rng, draws, drawn = np.random.default_rng(spec.seed), [], []
        for _ in outcomes:
            draws.append(_draw(rng, spec))
            try:
                drawn.append(ModelParams(*draws[-1]))
            except ParameterError as exc:
                drawn.append(exc)
        searched = iter(cooling_windows(stack([m for m in drawn if isinstance(m, ModelParams)])))
        reference = [next(searched) if isinstance(m, ModelParams) else m for m in drawn]
        rejected = [i for i, m in enumerate(drawn) if isinstance(m, ParameterError)]
        assert rejected
        for i in rejected:
            e1, e3, gamma = draws[i][:3]
            rule = "dressed engine gap must be positive: eps3="
            assert isinstance(outcomes[i], ParameterError)
            assert str(reference[i]).startswith(rule) and f"at E1={e1}, E3={e3}," in str(reference[i])
            assert str(outcomes[i]).startswith(rule)
            assert f"at E1={2.0 * gamma * (1.0 + 1e-9)}, E3={e3}," in str(outcomes[i])
        reason = lambda outcome: ((type(outcome), str(outcome))
                                  if isinstance(outcome, NeqFridgeError) else None)
        kept = [i for i, m in enumerate(drawn) if isinstance(m, ModelParams)]
        assert [reason(outcomes[i]) for i in kept] == [reason(reference[i]) for i in kept]
        accepted = [m for m, outcome in zip(drawn, reference)
                    if not isinstance(outcome, NeqFridgeError)][:spec.n]
        last = drawn.index(accepted[-1])
        assert meta["resamples"] == last + 1 - spec.n == 543
        for name in PARAM_NAMES[1:]:  # the rows' E1 is E1*
            np.testing.assert_array_equal(table[name], [getattr(m, name) for m in accepted])

    def test_the_gate_implies_the_scan(self):
        # random_ensemble checks no draw before its window scan: every draw that
        # ModelParams rejects must be rejected by the scan's range, without a
        # RuntimeWarning (the draw's E1 lies above the scan's low end, and eps3
        # only grows with E1)
        # at eta_c = 1e-310 most draws' beta1 overflows, and at 5e-324 every one's: T1 = 0
        specs = [EnsembleSpec(n=1, eta_c=eta_c, seed=seed) for seed in (1, 2)
                 for eta_c in (5e-324, 1e-310, 0.1, 1.0, 6.0, 10.0, 1e3, 1e300)]
        specs += [hot_spec(3), EnsembleSpec(n=1, seed=11, t2_range=(4.0, 12.0))]
        gated = 0
        for spec in specs:
            rng = np.random.default_rng(spec.seed)
            draws = np.array([_draw(rng, spec) for _ in range(1000)])
            models = ModelParams._unchecked(dict(zip(PARAM_NAMES, draws.T)))
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                scan = _scan_range(models)
                errors = [_window_error(models, scan, i) if code else None
                          for i, code in enumerate(scan[-1].tolist())]
            for draw, error in zip(draws.tolist(), errors):
                try:
                    ModelParams(*draw)
                except ParameterError:
                    gated += 1
                    assert isinstance(error, NeqFridgeError), (spec, draw)
        assert gated > 1000, "too few draws failed the gate to test the property"

    def test_scan_errors_are_resamples(self):
        # at eta_c = 6 large couplings push the dressed gap eps3 below zero
        # at the low end of the scan; such a draw is redrawn, as in the
        # point-by-point search, and does not abort the ensemble
        errors = _check_against_scalar(EnsembleSpec(n=20, seed=7, eta_c=6.0))
        assert errors > 0


def _check_against_scalar(spec: EnsembleSpec) -> int:
    """Compare random_ensemble with the scalar reference; returns how many
    draws the reference rejected because their scan raised."""
    table, meta = random_ensemble(spec)
    rng = np.random.default_rng(spec.seed)
    reference, resamples, errors = [], 0, 0
    while len(reference) < spec.n:
        try:
            base = ModelParams(*_draw(rng, spec))
            window = _scalar_window(base)
        except ParameterError:
            errors += 1
            window = None
        if window is None:
            resamples += 1
        else:
            reference.append((base, window, _scalar_max_power(base, window, spec.eta_c)))
    assert meta["resamples"] == resamples
    batch_windows = cooling_windows(stack([base for base, _, _ in reference]))
    assert table["e1"].size == len(reference)
    for i, (window, (base, ref_window, ref)) in enumerate(zip(batch_windows, reference)):
        assert [table[k][i] for k in ("e3", "t2", "t3", "gamma", "t1")] == \
            [getattr(base, k) for k in ("e3", "t2", "t3", "gamma", "t1")]
        assert window.left == pytest.approx(ref_window[0], abs=1e-11)
        assert window.right == pytest.approx(ref_window[1], abs=1e-11)
        assert table["near_bound"][i] == ref["near_bound"]
        for key in ("e1", "eta_star", "eta_tot_star", "coherence"):
            assert table[key][i] == pytest.approx(ref[key], rel=1e-6, abs=0.0)
        assert table["q1g_max"][i] == pytest.approx(ref["q1g_max"], rel=1e-12, abs=0.0)
    return errors


def _scalar_window(base: ModelParams):
    """The window from a 400-point scan (one array call) and point-by-point
    bisection in the scan cells of its sign changes; None where it finds no window."""
    f = lambda e1: deviation(e1, base)
    lo = 2.0 * base.gamma * (1.0 + 1e-9)
    hi = base.e3 * cop_carnot(base.t1, base.t2, base.t3) * (1.0 + 1e-6)
    grid = np.linspace(lo, hi, 400)
    values = f(grid).tolist()
    crossings = [i for i in range(399)
                 if values[i] == 0.0 or (values[i] > 0.0) != (values[i + 1] > 0.0)]
    if min(values) >= 0.0 or not crossings:
        return None
    root = lambda k: bisect_root(f, grid[k], grid[k + 1], tol=1e-13)
    if values[0] < 0.0:
        return grid[0], root(crossings[0])
    return root(crossings[0]), root(crossings[-1])


def _scalar_max_power(base: ModelParams, window, eta_c: float) -> dict:
    """Max-power observables from a 400-point scan (one array call) and a
    point-by-point golden-section search between the neighbours of its maximum."""
    power = lambda e1: -0.25 * base.g * deviation(e1, base) * e1
    grid = np.linspace(window[0], window[1], 400)
    i = int(np.argmax(power(grid)))
    e1, q1g_max = golden_max(power, grid[max(i - 1, 0)], grid[min(i + 1, 399)], tol=1e-8)
    params = replace(base, e1=e1)
    frame = resonant_frame(e1, base.e3, base.gamma)
    pops = tilde_populations(frame, params.t2, params.t3, t1=params.t1)
    currents = currents_closed(params, frame, pops, steady_coefficients(pops, base.p, base.g).d)
    eta_star = cop_g(frame)
    x = base.gamma / base.e3
    upper, lower = eta_star_max(eta_c, x), eta_star_min(x)
    return {
        "e1": e1, "q1g_max": q1g_max, "eta_star": eta_star,
        "eta_tot_star": currents["q1"] / currents["q3"],
        "coherence": virtual_coherence(frame, pops),
        "near_bound": int(((upper - eta_star) / (upper - lower) if upper > lower else 0.0) < 0.05),
    }


@pytest.fixture(scope="module")
def ht_table():
    return high_temperature_saturation()


class TestHighTemperatureSaturation:
    def test_gap_shrinks_with_temperature_scale(self, ht_table):
        by_x = collections.defaultdict(list)
        for x, kappa, rel_gap in zip(*(ht_table[k].tolist()
                                       for k in ("gamma_over_e3", "kappa", "rel_gap"))):
            by_x[x].append((kappa, rel_gap))
        for gaps in by_x.values():
            gaps.sort()
            values = [g for _, g in gaps]
            assert values == sorted(values, reverse=True)
            assert values[-1] < 0.02

    def test_uncoupled_limit_recovers_half_carnot(self, ht_table):
        at = np.flatnonzero(ht_table["gamma_over_e3"] == 0.0)
        hottest = at[np.argmax(ht_table["kappa"][at])]
        assert ht_table["eta_star_bound"][hottest] == pytest.approx(0.5, abs=1e-15)
        assert ht_table["eta_star"][hottest] == pytest.approx(0.5, rel=0.02)
