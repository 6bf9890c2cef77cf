import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from neqfridge import (
    ModelParams,
    build_generator_parts,
    cop_carnot,
    cop_g,
    cop_tilde,
    critical_gamma,
    eta_star_max,
    eta_star_min,
    heat_currents,
    local_target_temperature,
    resonant_frame,
    solve_oracle,
    tilde_populations,
    virtual_temperature,
)
from neqfridge import observables
from neqfridge.model import PARAM_NAMES
from neqfridge.observables import closed_form_table, currents_closed, internal_current
from neqfridge.steadystate import steady_coefficients

from conftest import (
    P0,
    benchmark_workloads,
    cooling_condition,
    find_root,
    max_cop_identity,
    minimize_cop,
    random_feasible,
)


@pytest.fixture(scope="module")
def benchmark_currents():
    parts = build_generator_parts(P0)
    steady = solve_oracle(parts).numeric
    return parts.frame, parts.pops, steady, heat_currents(parts, steady)


class TestHeatCurrents:
    def test_benchmark_cooling_current(self, benchmark_currents):
        *_, currents = benchmark_currents
        assert currents.q1g == pytest.approx(1.1939345042561063e-4, abs=1e-12)
        assert currents.q1g > 0  # cooling at the benchmark point

    def test_first_law_and_route_agreement(self, benchmark_currents):
        *_, currents = benchmark_currents
        assert abs(currents.q1 + currents.q2 + currents.q3) < 1e-12
        assert currents.max_route_delta < 1e-9
        assert abs(currents.q1g - currents.q1) < 1e-10

    def test_tilde_current_identities(self, benchmark_currents):
        frame, _, _, currents = benchmark_currents
        c2, s2 = frame.cos_half_sq, frame.sin_half_sq
        assert abs(currents.q1g + currents.qt2g + currents.qt3g) < 1e-10
        assert abs(currents.q2g - (currents.qt2g * c2 + currents.qt3g * s2)) < 1e-10
        assert abs(currents.q3g - (currents.qt3g * c2 + currents.qt2g * s2)) < 1e-10

    def test_no_interaction_currents(self):
        params = replace(P0, g=0.0)
        parts = build_generator_parts(params)
        currents = heat_currents(parts, solve_oracle(parts).numeric)
        assert abs(currents.q1) < 1e-15
        assert abs(currents.q1g) < 1e-15
        assert currents.q2 == pytest.approx(-currents.q23, abs=1e-14)
        assert currents.q3 == pytest.approx(currents.q23, abs=1e-14)

    def test_equal_machine_baths_kill_internal_current(self):
        params = ModelParams(e1=1.0, e3=4.0, gamma=0.3, t1=2.0, t2=2.0, t3=2.0, p=0.01, g=0.01)
        parts = build_generator_parts(params)
        currents = heat_currents(parts, solve_oracle(parts).numeric)
        assert abs(currents.q23) < 1e-15

    def test_scalar_route_matches_trace_route(self):
        rng = np.random.default_rng(22)
        for _ in range(10):
            params = random_feasible(rng)
            parts = build_generator_parts(params)
            frame, pops = parts.frame, parts.pops
            steady = solve_oracle(parts).numeric
            trace_route = heat_currents(parts, steady)
            scalar = currents_closed(params, frame, pops, steady.decomposition.d)
            assert scalar["q23"] == pytest.approx(trace_route.q23, abs=1e-12)
            assert scalar["q1"] == pytest.approx(trace_route.q1, abs=1e-12)
            assert scalar["q2"] == pytest.approx(trace_route.q2, abs=1e-12)
            assert scalar["q3"] == pytest.approx(trace_route.q3, abs=1e-12)
            assert scalar["qt2g"] == pytest.approx(trace_route.qt2g, abs=1e-12)
            assert scalar["qt3g"] == pytest.approx(trace_route.qt3g, abs=1e-12)
            assert internal_current(frame, pops, params.p) == pytest.approx(
                trace_route.q23, abs=1e-12)

    def test_second_law_guard(self):
        # extracting heat from the target always draws engine-bath heat
        rng = np.random.default_rng(23)
        for _ in range(50):
            params = random_feasible(rng)
            frame = resonant_frame(params.e1, params.e3, params.gamma)
            pops = tilde_populations(frame, params.t2, params.t3, t1=params.t1)
            d = steady_coefficients(pops, params.p, params.g).d
            scalar = currents_closed(params, frame, pops, d)
            if scalar["q1g"] > 0:
                assert scalar["q3g"] > 0


class TestCoolingCondition:
    def test_no_coupling_is_always_admissible(self):
        assert cooling_condition(1.0, 4.0, 0.0)

    def test_boundary_values(self):
        assert cooling_condition(1.0, 4.0, 0.49)
        assert not cooling_condition(1.0, 4.0, 0.50)
        assert not cooling_condition(1.0, 4.0, 0.5)  # delta_e = 0

    def test_critical_gamma_closed_form(self):
        assert abs(critical_gamma(1.0, 4.0) - math.sqrt(2.0 * math.sqrt(17.0) - 8.0)) < 1e-15

    def test_critical_gamma_from_finite_differences(self):
        def slope(gamma, h=1e-6):
            frame = resonant_frame(1.0, 4.0, gamma)

            def tv(t3):
                return virtual_temperature(frame, tilde_populations(frame, 2.0, t3, t1=2.0))

            return (tv(2.0 + h) - tv(2.0 - h)) / (2 * h)

        root = find_root(slope, 0.45, 0.4999)
        assert abs(root - critical_gamma(1.0, 4.0)) < 1e-6


class TestCops:
    def test_uncoupled_cop_is_gap_ratio(self):
        assert cop_g(resonant_frame(1.0, 4.0, 0.0)) == pytest.approx(0.25, abs=1e-14)

    def test_benchmark_value(self):
        assert cop_g(resonant_frame(1.0, 4.0, 0.3)) == pytest.approx(
            0.33112582781456956, abs=1e-15)

    def test_non_cooling_is_nan(self):
        assert math.isnan(cop_g(resonant_frame(1.0, 4.0, 0.4999999)))
        eta = cop_g(resonant_frame(1.0, 4.0, np.array([0.3, 0.4999999])))
        assert eta[0] == cop_g(resonant_frame(1.0, 4.0, 0.3)) and math.isnan(eta[1])

    def test_diverges_at_condition_boundary(self):
        gamma_c = critical_gamma(1.0, 4.0)
        assert cop_g(resonant_frame(1.0, 4.0, gamma_c * (1 - 1e-8))) > 1e4

    def test_scale_invariance(self):
        eta = cop_g(resonant_frame(1.0, 4.0, 0.3))
        assert cop_g(resonant_frame(2.5, 10.0, 0.75)) == pytest.approx(eta, rel=1e-12)

    def test_carnot_for_standard_temperatures(self):
        assert cop_carnot(4.0 / 3.0, 2.0, 4.0) == pytest.approx(1.0, abs=1e-14)
        assert math.isnan(cop_carnot(2.0, 2.0, 4.0))
        eta_c = cop_carnot(np.array([4.0 / 3.0, 2.0, 3.0]), 2.0, 4.0)
        assert eta_c[0] == cop_carnot(4.0 / 3.0, 2.0, 4.0) and np.isnan(eta_c[1:]).all()


class TestEndpointIdentity:
    def test_matches_frame_cop_on_matched_surface(self):
        # setting T1 = Tv makes the dressed-inverse-temperature expression
        # coincide with the frame COP; this is an algebraic identity at
        # resonance (checked, not assumed)
        rng = np.random.default_rng(24)
        checked = 0
        while checked < 30:
            params = random_feasible(rng)
            if not cooling_condition(params.e1, params.e3, params.gamma):
                continue
            frame = resonant_frame(params.e1, params.e3, params.gamma)
            pops = tilde_populations(frame, params.t2, params.t3, t1=params.t1)
            tv = virtual_temperature(frame, pops)
            if tv <= 0:
                continue
            assert max_cop_identity(frame, pops, tv) == pytest.approx(
                cop_g(frame), abs=1e-10)
            checked += 1

    def test_minus_sign_variant_fails(self):
        # the same expression with the dressed beta3 term subtracted does
        # not reproduce the frame COP at any finite mixing angle
        frame = resonant_frame(1.0, 4.0, 0.3)
        pops = tilde_populations(frame, 2.0, 4.0, t1=2.0)
        tv = virtual_temperature(frame, pops)
        b1 = 1.0 / tv
        minus_variant = (pops.btilde2 - pops.btilde3) / (
            b1 * math.cos(frame.theta)
            - pops.btilde2 * frame.cos_half_sq
            - pops.btilde3 * frame.sin_half_sq
        )
        assert abs(minus_variant - cop_g(frame)) > 1e-3

    def test_tilde_cop_reaches_carnot_on_matched_surface(self):
        frame = resonant_frame(1.0, 4.0, 0.2)
        pops = tilde_populations(frame, 2.0, 4.0, t1=2.0)
        tv = virtual_temperature(frame, pops)
        dressed = cop_tilde(pops, tv)
        # dressed-picture Carnot value between the two effective baths
        carnot = (pops.btilde2 - pops.btilde3) / (1.0 / tv - pops.btilde2)
        assert dressed == pytest.approx(carnot, abs=1e-15)
        assert dressed == pytest.approx(frame.e1 / frame.eps3, abs=1e-12)


class TestPowerCopBounds:
    def test_upper_bound_reference_points(self):
        assert eta_star_max(1.0, 0.0) == pytest.approx(0.5, abs=1e-15)
        assert eta_star_max(1.0, 0.1) == pytest.approx(0.29 / 0.48, abs=1e-15)
        assert eta_star_max(1.0, 1.0 / math.sqrt(24.0)) == pytest.approx(1.0, abs=1e-12)

    def test_upper_bound_out_of_range(self):
        assert math.isnan(eta_star_max(1.0, 0.6))
        bounds = eta_star_max(1.0, np.array([0.1, 0.5, 0.6]))
        assert bounds[0] == eta_star_max(1.0, 0.1) and np.isnan(bounds[1:]).all()

    def test_lower_bound_properties(self):
        assert eta_star_min(0.0) == 0.0
        assert math.isnan(eta_star_min(-0.1))
        xs = [0.0, 0.01, 0.05, 0.1, 0.15, 0.2]
        values = eta_star_min(np.array(xs))
        assert values.tolist() == [eta_star_min(x) for x in xs]
        assert values[0] == 0.0 and (np.diff(values) > 0).all()

    def test_lower_bound_matches_window_minimum(self):
        base = ModelParams(e1=1.0, e3=4.0, gamma=0.2, t1=4 / 3, t2=2.0, t3=4.0, p=0.01, g=0.01)
        result = minimize_cop(base)
        assert result.eta_g_min == pytest.approx(eta_star_min(0.05), abs=1e-9)


class TestLocalTemperature:
    def test_thermal_state_returns_bath_temperature(self, p0):
        pops = tilde_populations(resonant_frame(p0.e1, p0.e3, p0.gamma), p0.t2, p0.t3, t1=p0.t1)
        assert local_target_temperature(pops.s1, p0.e1) == pytest.approx(p0.t1, abs=1e-12)

    def test_infinite_temperature_reported(self):
        assert local_target_temperature(0.0, 1.0) == math.inf

    def test_inversion_is_nan(self):
        assert math.isnan(local_target_temperature(0.2, 1.0))
        assert np.isnan(local_target_temperature(np.array([0.2, 1.0, -1.0]), 1.0)).all()

    def test_benchmark_cooling(self, p0):
        steady = solve_oracle(build_generator_parts(p0)).analytic
        t1s = local_target_temperature(steady.decomposition.a1, p0.e1)
        assert t1s == pytest.approx(1.2416939114838779, abs=1e-10)
        assert t1s < p0.t1


class TestPerformanceReport:
    def test_benchmark_report(self, benchmark_currents):
        # the `steady` performance block: the closed-form table for one
        # point, with eta_tot and cooling from the trace-route currents
        *_, currents = benchmark_currents
        report = {name: column[0] for name, column in closed_form_table(P0).items()}
        assert currents.q1g > 0.0  # cooling
        assert report["eta_g"] == pytest.approx(0.33112582781456956, abs=1e-12)
        assert report["eta_c"] == pytest.approx(1.0, abs=1e-12)
        assert 0.0 < currents.eta_tot < report["eta_g"]
        assert report["tv"] == pytest.approx(0.8251033339169167, abs=1e-10)
        assert report["t1s"] < P0.t1
        assert report["coherence"] == pytest.approx(0.324776673327092, abs=1e-12)


@st.composite
def equal_temperature_models(draw) -> ModelParams:
    """Models with T1 = T2 = T3 log-uniform over [0.05, 50], the other fields
    over the box of `validate --grid`."""
    e1 = draw(st.floats(0.5, 2.0))
    t = math.exp(draw(st.floats(math.log(0.05), math.log(50.0))))
    return ModelParams(e1=e1, e3=draw(st.floats(2.0, 8.0)), gamma=draw(st.floats(0.0, 0.49)) * e1,
                       t1=t, t2=t, t3=t, p=draw(st.floats(0.002, 0.03)), g=draw(st.floats(0.002, 0.03)))


class TestRoundingNoise:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(params=equal_temperature_models())
    def test_equal_temperatures_leave_eta_tot_and_cooling_null(self, params):
        # at one temperature every current vanishes: q3 and q1g are rounding noise
        parts = build_generator_parts(params)
        currents = heat_currents(parts, solve_oracle(parts).numeric)
        assert currents.eta_tot is None
        assert currents.cooling is None


def _oracle_points() -> list[ModelParams]:
    """The benchmark's 100 seeded oracle points of seed 1."""
    workloads = benchmark_workloads()
    return [ModelParams(**point) for point in workloads.oracle_points(1, workloads.ORACLE_POINTS)]


def _reference_point(**fields) -> dict[str, float]:
    """The table of one reference model with ``fields`` replaced, as floats."""
    table = closed_form_table(replace(P0, **fields))
    return {name: float(column[0]) for name, column in table.items()}


class TestClosedFormTable:
    COLUMNS = PARAM_NAMES + ("d", "q1", "q3", "q1g", "q23", "eta_g", "eta_tot", "eta_c",
                             "eta_tilde", "tv", "t1s", "coherence")

    def test_columns(self):
        table = closed_form_table(replace(P0, t3=np.array([[3.0], [4.0]]), g=np.array([0.01, 0.02])))
        assert tuple(table) == self.COLUMNS
        assert all(column.shape == (4,) for column in table.values())
        assert table["t3"].tolist() == [3.0, 3.0, 4.0, 4.0]

    def test_batch_equals_batches_of_one(self):
        points = _oracle_points()
        batch = ModelParams(**{name: np.array([getattr(m, name) for m in points])
                               for name in PARAM_NAMES})
        table = closed_form_table(batch)
        for i, params in enumerate(points):
            single = closed_form_table(batch.take(slice(i, i + 1)))
            for name in self.COLUMNS:
                assert table[name][i:i + 1].tobytes() == single[name].tobytes(), (name, params)

    def test_matches_the_oracle_within_benchmark_bounds(self):
        # the benchmark's bounds on the oracle points: 1e-8 on a coefficient
        # delta, 1e-9 on a current route delta
        for params in _oracle_points():
            parts = build_generator_parts(params)
            oracle = solve_oracle(parts)
            currents = heat_currents(parts, oracle.numeric)
            table = closed_form_table(params)
            assert abs(table["d"][0] - oracle.numeric.decomposition.d) <= 1e-8
            assert abs(table["q1g"][0] - currents.q1g) <= 1e-9
            assert abs(table["q23"][0] - currents.q23) <= 1e-9

    def test_eta_g_is_nan_past_the_cooling_condition(self):
        assert math.isnan(_reference_point(gamma=0.4999999)["eta_g"])
        assert _reference_point()["eta_g"] == pytest.approx(0.33112582781456956, abs=1e-15)

    def test_tv_is_nan_at_its_pole(self, monkeypatch):
        # no model here levels the virtual qubit's populations, so L2 - L3 is set to 0
        from neqfridge import model

        frame = resonant_frame(P0.e1, P0.e3, P0.gamma)
        pops = tilde_populations(frame, P0.t2, P0.t3, t1=P0.t1)
        assert math.isnan(virtual_temperature(frame, replace(pops, virtual_log_odds=0.0)))
        log_odds = model._log_odds

        def level(*args):
            (l2, l3, _), u, shares = log_odds(*args)
            return (l2, l3, 0.0), u, shares

        monkeypatch.setattr(model, "_log_odds", level)
        assert math.isnan(_reference_point()["tv"])

    def test_tv_is_the_common_temperature_of_hot_baths(self):
        # at T = 1e300 every population rounds to 1/2, but the log-odds eps/T do not,
        # so the virtual qubit sits at the baths' temperature
        assert _reference_point(t1=1e300, t2=1e300, t3=1e300)["tv"] == pytest.approx(1e300, rel=1e-12)

    def test_t1s_is_nan_where_the_target_is_inverted(self, monkeypatch):
        # no valid model inverts the target, so the coefficients are shifted
        # to a1 > 0 here
        exact = observables.steady_coefficients
        monkeypatch.setattr(observables, "steady_coefficients",
                            lambda pops, p, g: replace(exact(pops, p, g), a1=np.array([0.2])))
        assert math.isnan(_reference_point()["t1s"])

    def test_t1s_is_nan_where_the_closed_form_a1_is_minus_one(self):
        # at T1 = 0.01 the closed-form a1 rounds to -1.0 exactly
        point = _reference_point(t1=0.01, t2=0.02, t3=0.03)
        assert math.isnan(point["t1s"])
        assert point["tv"] > 0.0

    def test_eta_c_is_nan_at_equal_target_and_spiral_temperatures(self):
        assert math.isnan(_reference_point(t1=2.0)["eta_c"])
        assert _reference_point()["eta_c"] == pytest.approx(1.0, abs=1e-12)

    def test_eta_tot_is_nan_where_q3_vanishes(self):
        # without the three-body coupling and with equal machine baths, q3 = 0 exactly
        point = _reference_point(t3=2.0, g=0.0)
        assert point["q3"] == 0.0
        assert math.isnan(point["eta_tot"])
        reference = _reference_point()
        assert reference["eta_tot"] == reference["q1"] / reference["q3"]

    def test_eta_tilde_is_nan_where_beta1_equals_dressed_beta2(self):
        frame = resonant_frame(P0.e1, P0.e3, P0.gamma)
        pops = tilde_populations(frame, P0.t2, P0.t3, t1=P0.t1)
        # L2 set so that beta~2 = L2/eps2 is 1/T1 exactly; no float T1 has 1/T1 equal to
        # this model's own beta~2
        level = replace(pops, log_odds2=frame.eps2 * (1.0 / P0.t1))
        assert level.btilde2 == 1.0 / P0.t1
        assert math.isnan(cop_tilde(level, P0.t1))
