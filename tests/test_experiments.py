import collections
import math
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from neqfridge import (
    CoolingWindow,
    EmptyCoolingWindowError,
    EnsembleSpec,
    ModelParams,
    SweepSpec,
    cooling_window,
    cop_g,
    eta_star_min,
    high_temperature_saturation,
    maximize_cooling_power,
    minimize_cop,
    random_ensemble,
    resonant_frame,
    sweep,
    sweep_fig3,
    sweep_fig4,
    sweep_fig5,
)
from neqfridge.experiments import (
    _chandrupatla,
    _draw_model,
    _scan_range,
    _stack,
    cooling_windows,
    deviation,
    extracted_current,
    find_root,
    golden_section_max,
    log_odds_gap,
    maximize_cooling_powers,
)
from neqfridge.errors import ParameterError
from neqfridge.model import (
    thermal_populations,
    tilde_populations,
    virtual_coherence,
    virtual_temperature,
)
from neqfridge.observables import (
    cooling_condition,
    cop_carnot,
    critical_gamma,
    currents_closed,
    eta_star_max,
)
from neqfridge.steadystate import steady_coefficients

from conftest import bisect_root, golden_max

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
        root = find_root(lambda x: x * x - 2.0, 0.0, 2.0, tol=1e-12)
        assert root == pytest.approx(np.sqrt(2.0), abs=1e-11)

    def test_golden_section(self):
        x, fx = golden_section_max(lambda x: -(x - 0.3) ** 2, -1.0, 1.0, tol=1e-10)
        assert x == pytest.approx(0.3, abs=1e-8)
        assert fx == pytest.approx(0.0, abs=1e-15)

    def test_root_evaluation_count(self):
        # bisection makes 41 evaluations here
        func, calls = _counted(lambda x: x * x - 2.0)
        find_root(func, 0.0, 2.0, tol=1e-12)
        assert len(calls) <= 12

    def test_max_evaluation_count(self):
        # golden section makes 53 evaluations here
        func, calls = _counted(lambda x: -(x - 0.3) ** 2)
        golden_section_max(func, -1.0, 1.0, tol=1e-10)
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

        roots = _chandrupatla(func, [0.0, 0.0], [2.0, 2.0], [-1.0, -2.0], [1.0, 2.0], 1e-12)
        assert roots[0] == 1.0
        assert roots[1] == pytest.approx(np.sqrt(2.0), abs=1e-12)
        assert batches[0] == [0, 1] and len(batches) > 1
        assert all(batch == [1] for batch in batches[1:])

    def test_unbracketed_input_raises(self):
        with pytest.raises(ValueError, match="root not bracketed"):
            find_root(lambda x: x * x + 1.0, -1.0, 1.0)

    def test_boundary_window_comes_back_unchanged(self):
        # at gamma = 0 the window starts at the scan's lower end, not at a root
        base = replace(FIG4_BASE, gamma=0.0)
        window = cooling_window(base)
        assert window.left_is_boundary
        assert window.left == _scan_range(_stack([base]))[0][0]

    # Interpolation wins once the function is close to linear at the
    # tolerance scale and enough halvings remain to make up for the steps
    # it spends before that.  With a tolerance within ten halvings of the
    # bracket, a cubic whose root sits in a near-triple region (small s)
    # can take one evaluation more than bisection (a = 0, width = 1,
    # fraction = 0.5703125, s = 0.0234375, tol = 1e-3), so tolerances here
    # stay at or below 1e-4 of the bracket; the window search uses 1e-13 on
    # grid cells of about 1e-2.
    @settings(max_examples=200, deadline=None)
    @given(
        family=st.sampled_from(sorted(MONOTONE)),
        a=st.floats(-10.0, 10.0),
        width=st.floats(1e-3, 10.0),
        fraction=st.floats(0.0, 1.0),
        scale=st.floats(0.02, 100.0),
        digits=st.integers(4, 13),
    )
    def test_monotone_brackets(self, family, a, width, fraction, scale, digits):
        b, tol = a + width, width * 10.0 ** -digits
        r = a + fraction * width
        func, calls = _counted(lambda x: MONOTONE[family](x, r, scale * width))
        root = find_root(func, a, b, tol=tol)
        assert abs(root - r) <= tol
        assert len(calls) <= _bisection_count(a, b, tol)


def _kernel_cases() -> list:
    """(e1, parameters) pairs: an 8 x 400 window-scan grid over eight seeded
    ensemble models as one batch, then eight of its points per model as floats."""
    rng = np.random.default_rng(3)
    bases = [_draw_model(rng, EnsembleSpec(n=8, seed=3)) for _ in range(8)]
    lo, hi, _ = _scan_range(_stack(bases))
    grid = np.linspace(lo, hi, 400, axis=1)
    cases = [(grid, _stack(bases).take(np.arange(8)[:, None]))]
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

    def test_derived_values_match_the_stored_formulas(self):
        # the formulas tilde_populations evaluated and stored before these
        # values were derived on read
        for e1, params in _kernel_cases():
            frame = resonant_frame(e1, params.e3, params.gamma)
            pops = tilde_populations(frame, params.t2, params.t3, t1=params.t1)
            rt2, rt3 = pops.rtilde2, pops.rtilde3
            np.testing.assert_array_equal(pops.ttilde2, frame.eps2 / np.log((1.0 - rt2) / rt2))
            np.testing.assert_array_equal(pops.ttilde3, frame.eps3 / np.log((1.0 - rt3) / rt3))
            np.testing.assert_array_equal(pops.s1, 2.0 * pops.r1 - 1.0)
            np.testing.assert_array_equal(pops.s2, 2.0 * rt2 - 1.0)
            np.testing.assert_array_equal(pops.s3, 2.0 * rt3 - 1.0)

    def test_ensemble_kernel_calls(self, monkeypatch):
        # fig6 at n = 100 made 101 deviation and 102 steady_coefficients
        # calls with bisection and golden section, and its 400-point scans
        # evaluated about 900 kernel points per accepted model; its 150 draws
        # once cost 250 ModelParams checks, and the kernels checked every population
        from neqfridge import experiments, model, steadystate

        calls, points = collections.Counter(), collections.Counter()
        kernels = (experiments.deviation, experiments.log_odds_gap)
        watched = (experiments._draw_model, model.thermal_population)
        for function in (*kernels, steadystate.steady_coefficients, *watched):
            def counted(*args, _function=function, **kwargs):
                calls[_function.__name__] += 1
                points[_function.__name__] += np.size(args[0])
                return _function(*args, **kwargs)

            # every module that binds the name, so no caller goes around the counter
            for name, module in list(sys.modules.items()):
                if name.startswith("neqfridge") and getattr(module, function.__name__, None) is function:
                    monkeypatch.setattr(module, function.__name__, counted)
        post_init = ModelParams.__post_init__

        def counted_post_init(self):
            calls["ModelParams"] += 1
            post_init(self)

        monkeypatch.setattr(ModelParams, "__post_init__", counted_post_init)
        random_ensemble(EnsembleSpec(n=100, seed=7))
        assert 0 < sum(calls[kernel.__name__] for kernel in kernels) <= 70
        assert sum(points[kernel.__name__] for kernel in kernels) <= 100 * 100
        assert calls["steady_coefficients"] <= 2
        # validated once per draw and once per batch; the kernels check only their frames
        assert calls["thermal_population"] == 0
        assert 100 <= calls["_draw_model"] <= calls["ModelParams"] <= calls["_draw_model"] + 10


    def test_virtual_log_odds_is_the_stored_formula(self):
        # the expression log_odds_gap and virtual_temperature each wrote out
        # before they read the ThermalPopulations property
        for e1, params in _kernel_cases():
            frame = resonant_frame(e1, params.e3, params.gamma)
            pops = tilde_populations(frame, params.t2, params.t3)
            rt2, rt3 = pops.rtilde2, pops.rtilde3
            log_odds = np.log((1.0 - rt2) * rt3 / (rt2 * (1.0 - rt3)))
            np.testing.assert_array_equal(pops.virtual_log_odds, log_odds)
            np.testing.assert_array_equal(log_odds_gap(e1, params), e1 / params.t1 - log_odds)
            np.testing.assert_array_equal(virtual_temperature(frame, pops),
                                          (frame.eps2 - frame.eps3) / log_odds)

    def test_ensemble_stacks_draws_and_accepted_models_once(self, monkeypatch):
        from neqfridge import experiments

        sizes = []

        def counted(models):
            sizes.append(len(models))
            return stack(models)

        stack = experiments._stack
        monkeypatch.setattr(experiments, "_stack", counted)
        random_ensemble(EnsembleSpec(n=100, seed=7))
        assert sizes == [150, 100]


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
            deviation(_scan_range(_stack([bad]))[0], bad)
        uncoupled = replace(FIG4_BASE, gamma=0.0)
        first, raised, last = cooling_windows(_stack([FIG4_BASE, bad, uncoupled]))
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
        lo, hi, errors = _scan_range(_stack([base]))
        assert str(errors[0]).startswith("scan range empty: [")
        scanned = str(errors[0]).split("[", 1)[1].split("]", 1)[0]
        assert [float(v) for v in scanned.split(", ")] == [lo[0], hi[0]]

    def test_window_requires_cold_target(self):
        from neqfridge.errors import ParameterError

        base = ModelParams(e1=1.0, e3=4.0, gamma=0.2, t1=2.0, t2=2.0, t3=4.0, p=0.01, g=0.01)
        with pytest.raises(ParameterError):
            cooling_window(base)


@st.composite
def ensemble_draws(draw) -> ModelParams:
    """One model drawn like random_ensemble's, over the default EnsembleSpec
    ranges.  T3/T2 stays 1e-9 above one: at 1 + 2e-16 the three temperatures
    agree to rounding, and d and f are rounding noise that can disagree in sign."""
    spec = EnsembleSpec(n=1, eta_c=draw(st.sampled_from([0.5, 1.0, 3.0, 6.0])))
    e3, t2 = draw(st.floats(*spec.e3_range)), draw(st.floats(*spec.t2_range))
    t3 = t2 * draw(st.floats(1.0 + 1e-9, spec.t3_mult_range[1]))
    gamma = draw(st.integers(1, spec.max_gamma_step)) * e3 * spec.eta_c / spec.gamma_steps
    t1 = 1.0 / (1.0 / t2 + (1.0 / t2 - 1.0 / t3) / spec.eta_c)
    p = g = 0.01 * e3 / 4.0
    return ModelParams(e1=max(1.0, 2.5 * gamma), e3=e3, gamma=gamma, t1=t1, t2=t2, t3=t3, p=p, g=g)


class TestWindowsAgainstFineScan:
    # The search trusts f to dip below zero on one interval; a 4000-point
    # scan of d over the same range checks that on a batch of draws
    @settings(max_examples=120, deadline=None)
    @given(bases=st.lists(ensemble_draws(), min_size=1, max_size=6))
    def test_windows_match_a_fine_scan(self, bases):
        lo, hi, errors = _scan_range(_stack(bases))
        for base, window, a, b, error in zip(bases, cooling_windows(_stack(bases)), lo, hi, errors):
            grid = np.linspace(a, b, 4000)
            if error is not None:
                assert type(window) is type(error)
                if b > a:  # a frame rejection: the grid itself must raise
                    with pytest.raises(type(error)):
                        deviation(grid, base)
                continue
            d = deviation(grid, base)  # the frame at a holds on the whole range
            cell, cool = grid[1] - grid[0], grid[d < 0.0]
            if 0 < cool.size < grid.size:  # the scan sees a sign change
                assert isinstance(window, CoolingWindow)
                assert abs(window.left - cool[0]) <= cell
                assert abs(window.right - cool[-1]) <= cell
            else:
                assert not isinstance(window, CoolingWindow) or window.right - window.left < cell


class TestOptimizers:
    def test_maximum_beats_fine_grid(self):
        result = maximize_cooling_power(FIG4_BASE)
        grid = np.linspace(result.window.left, result.window.right, 1000)
        best_on_grid = max(extracted_current(e, FIG4_BASE) for e in grid)
        assert result.q1g_max >= best_on_grid - 1e-12
        assert result.window.left < result.e1_star < result.window.right

    def test_endpoints_have_no_power(self):
        result = maximize_cooling_power(FIG4_BASE)
        for edge in (result.window.left, result.window.right):
            assert abs(extracted_current(edge, FIG4_BASE)) < 1e-14
        assert result.q1g_max > 0

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


@pytest.fixture(scope="module")
def curves():
    rows = sweep_fig3(points=160)
    grouped = collections.defaultdict(list)
    for row in rows:
        grouped[row["gamma"]].append(row)
    for rows_of_gamma in grouped.values():
        rows_of_gamma.sort(key=lambda r: r["beta3"])
    return grouped


class TestFig3Sweep:
    def test_three_classes_in_order(self, curves):
        gammas = sorted(curves)
        assert gammas == sorted([0.48, 0.49, critical_gamma(1.0, 4.0), 0.50])
        # class 1: positive throughout, growing with the engine temperature
        q = [r["q1g"] for r in curves[0.48]][:-1]
        assert min(q) > 0
        assert all(a >= b for a, b in zip(q, q[1:]))  # decreasing in beta3
        # class 2: positive near degeneracy, negative when the bath is hot
        q = [r["q1g"] for r in curves[0.49]][:-1]
        assert q[0] < 0 < q[-1]
        # class 3: never positive at and beyond the critical coupling
        for gamma in (critical_gamma(1.0, 4.0), 0.50):
            q = [r["q1g"] for r in curves[gamma]][:-1]
            assert max(q) <= 0
        q = [r["q1g"] for r in curves[0.50]][:-1]
        assert all(abs(a) >= abs(b) for a, b in zip(q, q[1:]))

    def test_degenerate_endpoint_is_exactly_zero(self, curves):
        for gamma, rows in curves.items():
            last = rows[-1]
            assert last["beta3"] == 0.5
            assert abs(last["q1g"]) < 1e-18
            assert last["delta_c"] == 0.0

    def test_current_and_coherence_share_sign(self, curves):
        for rows in curves.values():
            for row in rows[:-1]:
                if abs(row["q1g"]) > 1e-12:
                    assert np.sign(row["q1g"]) == np.sign(row["delta_c"])

    def test_shared_root(self):
        # the current and the coherence change cross zero together
        from neqfridge.model import tilde_populations, virtual_coherence
        from neqfridge.steadystate import steady_coefficients

        frame = resonant_frame(1.0, 4.0, 0.49)
        base_c = virtual_coherence(frame, tilde_populations(frame, 2.0, 2.0))

        def q1g(beta3):
            pops = tilde_populations(frame, 2.0, 1.0 / beta3, t1=2.0)
            return -0.25 * 0.01 * steady_coefficients(pops, 0.01, 0.01).d

        def delta_c(beta3):
            return virtual_coherence(frame, tilde_populations(frame, 2.0, 1.0 / beta3)) - base_c

        root_q = find_root(q1g, 0.02, 0.49, tol=1e-12)
        root_c = find_root(delta_c, 0.02, 0.49, tol=1e-12)
        assert abs(root_q - root_c) < 1e-8

    def test_rows_carry_full_parameter_set(self, curves):
        row = next(iter(curves.values()))[0]
        for key in ("e1", "e3", "gamma", "t1", "t2", "t3", "p", "g"):
            assert key in row


@pytest.fixture(scope="module")
def fig4_data():
    return sweep_fig4(points=120)


class TestFig4Sweep:
    def test_endpoint_properties(self, fig4_data):
        from neqfridge.model import tilde_populations
        from neqfridge.observables import max_cop_identity

        rows, windows = fig4_data
        for gamma, window in windows.items():
            for edge in (window.left, window.right):
                frame = resonant_frame(edge, 4.0, gamma)
                pops = tilde_populations(frame, 2.0, 4.0)
                # thermodynamic COP vanishes where the extracted current does
                base = replace(FIG4_BASE, gamma=gamma, e1=edge)
                from neqfridge.model import thermal_populations
                from neqfridge.observables import currents_closed
                from neqfridge.steadystate import steady_coefficients

                d = steady_coefficients(thermal_populations(base), base.p, base.g).d
                closed = currents_closed(base, frame, thermal_populations(base), d)
                assert abs(closed["q1"] / closed["q3"]) < 1e-8
                # frame COP agrees with the dressed endpoint identity
                assert abs(cop_g(frame) - max_cop_identity(frame, pops, 4.0 / 3.0)) < 1e-10

    def test_cop_ordering_within_window(self, fig4_data):
        rows, _ = fig4_data
        for row in rows:
            assert row["eta_g"] >= row["eta_tot"]
            assert row["eta_g"] <= 1.0 + 1e-12  # eta_c = 1 for these baths

    def test_coupling_enhances_cop_and_reduces_total_cop(self):
        # at the shared interior point E1 = 1 the machine COP beats the bare
        # gap ratio while the thermodynamic COP falls below it
        from neqfridge.model import thermal_populations
        from neqfridge.observables import currents_closed
        from neqfridge.steadystate import steady_coefficients

        base = replace(FIG4_BASE, gamma=0.4, e1=1.0)
        frame = resonant_frame(1.0, 4.0, 0.4)
        assert cop_g(frame) > 0.25
        pops = thermal_populations(base)
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
        rows, _ = fig5_data
        for gamma in (0.1, 0.2, 0.3):
            closest = max(
                (r for r in rows if r["gamma"] == gamma), key=lambda r: r["beta3"]
            )
            assert closest["beta3"] == pytest.approx(0.5 - 1e-4, abs=1e-12)
            assert abs(closest["eta_ratio"] - 1.0) < 1e-3

    def test_coupling_ordering_at_every_point(self, fig5_data):
        rows, _ = fig5_data
        by_beta = collections.defaultdict(dict)
        for r in rows:
            by_beta[round(r["beta3"], 12)][r["gamma"]] = r
        for group in by_beta.values():
            if len(group) != 3:
                continue
            assert group[0.1]["eta_ratio"] > group[0.2]["eta_ratio"] > group[0.3]["eta_ratio"]
            assert group[0.1]["coherence"] < group[0.2]["coherence"] < group[0.3]["coherence"]

    def test_regression_point(self):
        # pinned after the first verified run
        rows, _ = sweep_fig5(points=2, gammas=(0.2,), beta3_lo=0.25, beta3_hi=0.26)
        row = rows[0]
        assert row["beta3"] == 0.25
        assert row["eta_ratio"] == pytest.approx(0.975555742882317, abs=1e-12)
        assert row["coherence"] == pytest.approx(0.23849793242945685, abs=1e-12)
        assert row["t1"] == pytest.approx(0.7274840984792199, abs=1e-12)

    def test_skipped_points_reported(self, fig5_data):
        rows, skipped = fig5_data
        assert isinstance(skipped, list)
        assert len(rows) + len(skipped) == 3 * 120


class TestGenericSweep:
    def test_beta3_axis(self):
        spec = SweepSpec(base=FIG4_BASE, axis="beta3", lo=0.05, hi=0.45, points=10)
        rows, skipped = sweep(spec)
        assert len(rows) == 10 and not skipped
        assert {"d", "q1g", "eta_g", "eta_tot", "tv", "t1s", "coherence"} <= set(rows[0])

    def test_gamma_axis_skips_infeasible(self):
        spec = SweepSpec(base=FIG4_BASE, axis="gamma", lo=0.0, hi=0.8, points=9)
        rows, skipped = sweep(spec)
        assert skipped and all(s["value"] > 0.5 for s in skipped)
        assert len(rows) + len(skipped) == 9
        rows, skipped = sweep(SweepSpec(base=FIG4_BASE, axis="gamma", lo=0.6, hi=0.8, points=3))
        assert rows == [] and len(skipped) == 3

    def test_non_cooling_points_are_nan(self):
        # past the critical coupling the machine COP is undefined; the sweep
        # marks exactly the points where the single-point call raises
        from neqfridge.errors import NonCoolingRegimeError

        gamma_c = critical_gamma(1.0, 4.0)
        spec = SweepSpec(base=replace(FIG4_BASE, e1=1.0), axis="gamma",
                         lo=gamma_c - 0.02, hi=0.5, points=41)
        rows, skipped = sweep(spec)
        assert len(rows) == 41 and not skipped
        flags = []
        for row in rows:
            try:
                cop_g(resonant_frame(row["e1"], row["e3"], row["gamma"]))
                raises = False
            except NonCoolingRegimeError:
                raises = True
            assert np.isnan(row["eta_g"]) == raises
            assert raises == (not cooling_condition(row["e1"], row["e3"], row["gamma"]))
            flags.append(raises)
        assert any(flags) and not all(flags)

    def test_negative_dressed_gap_points_are_skipped(self):
        # E1 < 1.8 breaks gamma <= E1/2; at E1 = 2 the dressed engine gap
        # eps3 = E3 + sqrt(E1^2 - 4 gamma^2)/2 - E1/2 is -0.064
        base = ModelParams(e1=3, e3=0.5, gamma=0.9, t1=1, t2=2, t3=4, p=.01, g=.01)
        rows, skipped = sweep(SweepSpec(base=base, axis="e1", lo=1, hi=4, points=13))
        assert len(rows) == 8 and len(skipped) == 5
        assert [s["value"] for s in skipped] == [1.0, 1.25, 1.5, 1.75, 2.0]
        assert all(s["reason"].startswith("resonance infeasible") for s in skipped[:4])
        reason = skipped[4]["reason"]
        assert reason.startswith("dressed engine gap must be positive: eps3=-0.0641")
        assert reason.endswith("at E1=2.0, E3=0.5, gamma=0.9")

    def test_unordered_temperatures_when_allowed(self):
        # a limit-study base with T1 > T2 keeps its flag through every point
        base = replace(FIG4_BASE, t1=3.0, require_ordered_temps=False)
        rows, skipped = sweep(SweepSpec(base=base, axis="e1", lo=0.5, hi=2.0, points=7))
        assert len(rows) == 7 and not skipped
        assert all(row["t1"] == 3.0 for row in rows)
        with pytest.raises(ParameterError):
            replace(base, require_ordered_temps=True)

    def test_bad_spec(self):

        with pytest.raises(ParameterError):
            SweepSpec(base=FIG4_BASE, axis="nope", lo=0.0, hi=1.0, points=5)
        with pytest.raises(ParameterError):
            SweepSpec(base=FIG4_BASE, axis="e1", lo=1.0, hi=0.5, points=5)


@pytest.mark.parametrize("field, value", [
    ("e3_range", (-1.0, -0.5)),
    ("e3_range", (0.0, 1.0)),
    ("e3_range", (3.0, 2.0)),
    ("t2_range", (0.0, 4.0)),
    ("t2_range", (4.0, 1.0)),
    ("t3_mult_range", (0.5, 5.0)),
    ("t3_mult_range", (3.0, 2.0)),
    ("t3_mult_range", (1.0, 1.0)),
    ("gamma_steps", 0),
    ("max_gamma_step", 0),
])
def test_bad_ensemble_spec(field, value):
    # these once leaked a ZeroDivisionError or stalled the sampler
    with pytest.raises(ParameterError, match=field):
        EnsembleSpec(n=2, **{field: value})


@pytest.fixture(scope="module")
def small():
    return random_ensemble(EnsembleSpec(n=60, seed=7))


class TestEnsemble:
    def test_deterministic(self, small):
        rows, meta = small
        rows2, meta2 = random_ensemble(EnsembleSpec(n=60, seed=7))
        assert rows == rows2
        assert meta == meta2
        rows3, _ = random_ensemble(EnsembleSpec(n=60, seed=8))
        assert rows != rows3

    def test_bounds_hold(self, small):
        rows, _ = small
        for row in rows:
            assert row["eta_star"] <= row["eta_star_max"] + 1e-9
            assert row["eta_star"] >= row["eta_star_min"] - 1e-9
            assert row["eta_star_min"] == pytest.approx(
                eta_star_min(row["gamma_over_e3"]), abs=1e-12)

    def test_every_model_is_feasible(self, small):
        from neqfridge.observables import cooling_condition

        rows, _ = small
        for row in rows:
            assert cooling_condition(row["e1"], row["e3"], row["gamma"])
            assert row["q1g_max"] > 0
            assert row["gamma_over_e3"] <= 0.2 + 1e-12

    def test_near_bound_models_have_small_coherence(self):
        # hotter machine baths approach the bound; saturating models carry
        # little virtual-qubit coherence
        rows, _ = random_ensemble(EnsembleSpec(n=300, seed=11, t2_range=(4.0, 12.0)))
        near = [r for r in rows if r["near_bound"]]
        assert near, "expected near-bound models in the hot ensemble"
        assert max(r["coherence"] for r in near) <= 0.12

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_batch_matches_scalar_reference(self, seed):
        # the batched screening, root finds and power maxima agree with a
        # point-by-point bisection and golden-section search replayed on the
        # same random stream
        _check_against_scalar(EnsembleSpec(n=20, seed=seed))

    def test_scan_errors_are_resamples(self):
        # at eta_c = 6 large couplings push the dressed gap eps3 below zero
        # at the low end of the scan; such a draw is redrawn, as in the
        # point-by-point search, and does not abort the ensemble
        errors = _check_against_scalar(EnsembleSpec(n=20, seed=7, eta_c=6.0))
        assert errors > 0


def _check_against_scalar(spec: EnsembleSpec) -> int:
    """Compare random_ensemble with the scalar reference; returns how many
    draws the reference rejected because their scan raised."""
    rows, meta = random_ensemble(spec)
    rng = np.random.default_rng(spec.seed)
    reference, resamples, errors = [], 0, 0
    while len(reference) < spec.n:
        try:
            base = _draw_model(rng, spec)
            window = _scalar_window(base)
        except ParameterError:
            errors += 1
            window = None
        if window is None:
            resamples += 1
        else:
            reference.append((base, window, _scalar_max_power(base, window, spec.eta_c)))
    assert meta["resamples"] == resamples
    batch_windows = cooling_windows(_stack([base for base, _, _ in reference]))
    for row, window, (base, ref_window, ref) in zip(rows, batch_windows, reference):
        assert [row[k] for k in ("e3", "t2", "t3", "gamma", "t1")] == \
            [getattr(base, k) for k in ("e3", "t2", "t3", "gamma", "t1")]
        assert window.left == pytest.approx(ref_window[0], abs=1e-11)
        assert window.right == pytest.approx(ref_window[1], abs=1e-11)
        assert row["near_bound"] == ref["near_bound"]
        for key in ("e1", "eta_star", "eta_tot_star", "coherence"):
            assert row[key] == pytest.approx(ref[key], rel=1e-6, abs=0.0)
        assert row["q1g_max"] == pytest.approx(ref["q1g_max"], rel=1e-12, abs=0.0)
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
    power = lambda e1: extracted_current(e1, base)
    grid = np.linspace(window[0], window[1], 400)
    i = int(np.argmax(power(grid)))
    e1, q1g_max = golden_max(power, grid[max(i - 1, 0)], grid[min(i + 1, 399)], tol=1e-8)
    params = replace(base, e1=e1)
    frame = resonant_frame(e1, base.e3, base.gamma)
    pops = thermal_populations(params, frame)
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
        for row in ht_table:
            by_x[row["gamma_over_e3"]].append((row["kappa"], row["rel_gap"]))
        for gaps in by_x.values():
            gaps.sort()
            values = [g for _, g in gaps]
            assert values == sorted(values, reverse=True)
            assert values[-1] < 0.02

    def test_uncoupled_limit_recovers_half_carnot(self, ht_table):
        row = max(
            (r for r in ht_table if r["gamma_over_e3"] == 0.0), key=lambda r: r["kappa"]
        )
        assert row["eta_star_bound"] == pytest.approx(0.5, abs=1e-15)
        assert row["eta_star"] == pytest.approx(0.5, rel=0.02)
