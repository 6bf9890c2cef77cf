import csv
import json
import math
import os
import re
import subprocess
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import neqfridge
from neqfridge import build_generator_parts, cooling_window, solve_oracle, validate
from neqfridge.cli import _cells, main, write_csv
from neqfridge.model import REFERENCE

from conftest import (P0, counting, grid_box_points, mp_window_edge, per_cell_cells, per_cell_csv,
                      stack)

# group names of `validate`, in report order
GROUPS = [
    "population_range", "detailed_balance", "oracle_equivalence", "charge_symmetry",
    "steady_state_positivity",
    "first_law", "current_route_agreement", "tilde_current_identities", "channel_algebra",
    "localization_identity", "sign_chain", "fictitious_bath",
]


# a weak-dissipation model, (p + g)/eps2 = 5.5e-10, g/p = 0.41: its kernel state's coefficients
# are rounding in the family block's unit eps (p + g) / p = 3.1e-16
WEAK = neqfridge.ModelParams(e1=1.2938167584919433, e3=6.3931021989017545, gamma=0.26229708328171003,
                             t1=0.12119826512930106, t2=3.0987947179764683, t3=4.44159607255517,
                             p=2.9793734576578587e-09, g=1.2179233573701866e-09)


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


@pytest.fixture
def fresh_tables(monkeypatch):
    """A monkeypatch for the operators of ``dissipation`` or its ``_act``; the tables built
    from them are cleared before and after, so no other test reads the patched ones."""
    from neqfridge import dissipation

    dissipation.sector_tables.cache_clear()
    yield monkeypatch
    dissipation.sector_tables.cache_clear()


class TestSteadyCommand:
    def test_defaults_are_the_reference_model(self, tmp_path):
        from neqfridge.model import REFERENCE

        out = tmp_path / "steady.json"
        assert main(["steady", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["params"] == REFERENCE.as_dict()

    def test_benchmark_report(self, tmp_path):
        out = tmp_path / "steady.json"
        code = main([
            "steady", "--e1", "1", "--e3", "4", "--gamma", "0.3",
            "--t1", "1.3333333333333333", "--t2", "2", "--t3", "4",
            "--p", "0.01", "--g", "0.01", "--out", str(out),
        ])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["decomposition"]["d"] == pytest.approx(-4.775738017024425e-2, abs=1e-10)
        assert report["performance"]["cooling"] is True
        assert report["residuals"]["max_coefficient_delta"] < 1e-10
        assert report["frame"]["e2"] == pytest.approx(4.8)

    def test_performance_block_is_the_closed_form_row(self, tmp_path):
        # steady reads its performance block from the frame, populations and closed-form
        # a1 of the point it solved; each value but eta_tot and cooling is the point's
        # closed_form_table row bit for bit, a NaN or inf there a null in the report
        edges = [dict(gamma=0.0), dict(gamma=0.5), dict(t1=2.0, t2=2.0, t3=2.0), dict(t1=1e-300),
                 dict(g=0.0), dict(p=1e-9)]
        out = tmp_path / "steady.json"
        for params in grid_box_points(33, 200) + [replace(REFERENCE, **edge) for edge in edges]:
            flags = [item for name, value in params.as_dict().items() for item in (f"--{name}", repr(value))]
            assert main(["steady", *flags, "--out", str(out)]) == 0
            performance = json.loads(out.read_text())["performance"]
            table = neqfridge.closed_form_table(params)
            row = {name: float(table[name][0]) for name in performance if name not in ("eta_tot", "cooling")}
            expected = {name: value if math.isfinite(value) else None for name, value in row.items()}
            assert json.dumps({name: performance[name] for name in row}) == json.dumps(expected), params

    def test_infeasible_coupling_exits_2(self, capsys):
        code = main(["steady", "--gamma", "0.6", "--e1", "1"])
        assert code == 2
        assert "resonance infeasible" in capsys.readouterr().err

    def test_negative_dressed_gap_exits_2(self, capsys):
        # a valid-looking point whose dressed engine gap eps3 is -0.4
        assert main(["steady", "--e1", "4.8", "--e3", "2", "--gamma", "2.4"]) == 2
        assert "dressed engine gap must be positive: eps3=" in capsys.readouterr().err

    @pytest.mark.parametrize("gamma", [0.1, 0.3, 0.45, 0.5])
    def test_no_interaction_point(self, tmp_path, gamma):
        # the lab-frame kernel leaves d at about 1e-14 here; the dressed-frame one does not
        out = tmp_path / "steady.json"
        code = main(["steady", "--g", "0", "--gamma", str(gamma), "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert abs(report["decomposition"]["d"]) < 1e-14
        assert abs(report["currents"]["q1g"]) < 1e-15
        assert report["performance"]["t1s"] == pytest.approx(report["params"]["t1"], abs=1e-10)

    @pytest.mark.parametrize("gamma", [0.1, 0.3, 0.45, 0.5])
    def test_no_interaction_point_keeps_d_at_zero(self, tmp_path, gamma):
        # the charge-0 block's kernel carries no coherence noise at g = 0
        out = tmp_path / "steady.json"
        assert main(["steady", "--g", "0", "--gamma", str(gamma), "--out", str(out)]) == 0
        assert abs(json.loads(out.read_text())["decomposition"]["d"]) <= 1e-20

    @pytest.mark.parametrize("command, flag", [
        ("steady", "--e1"), ("steady", "--e3"), ("steady", "--gamma"), ("steady", "--t3"),
        ("steady", "--p"), ("steady", "--g"), ("maximize", "--p"),
    ])
    def test_infinite_field_exits_2(self, capsys, command, flag):
        assert main([command, flag, "inf"]) == 2
        assert capsys.readouterr().err == f"error: {flag[2:]} must be finite, got inf\n"

    def test_negative_infinite_gap_is_a_value(self, capsys):
        # argparse alone reads "-inf" after a flag as another flag, and exits 2 with
        # its usage text; the gate reports the value instead
        assert main(["steady", "--e1", "-inf"]) == 2
        assert capsys.readouterr().err == "error: qubit gaps must be positive: E1=-inf, E3=4.0\n"

    @pytest.mark.parametrize("command", ["steady", "maximize"])
    def test_overflowing_dressed_gap_exits_2(self, capsys, command):
        # a finite E3 whose dressed gap eps3 = E3 + delta_e/2 - E1/2 overflows;
        # the suite turns the overflow RuntimeWarning into an error
        assert main([command, "--e3", "1e308"]) == 2
        assert capsys.readouterr().err == (
            "error: dressed engine gap overflows: eps3=inf at E1=1.0, E3=1e+308, gamma=0.3\n")

    def test_config_file_with_flag_override(self, tmp_path):
        config = tmp_path / "fridge.cfg"
        config.write_text(
            "# benchmark point\n"
            "e1 = 1.0\ne3 = 4.0\ngamma = 0.2\nt1 = 1.3333333333333333\n"
            "t2 = 2.0\nt3 = 4.0\np = 0.01\ng = 0.01\n"
        )
        out = tmp_path / "a.json"
        assert main(["steady", "--config", str(config), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["params"]["gamma"] == 0.2
        out2 = tmp_path / "b.json"
        assert main(["steady", "--config", str(config), "--gamma", "0.3", "--out", str(out2)]) == 0
        assert json.loads(out2.read_text())["params"]["gamma"] == 0.3

    def test_bad_config_line_exits_2(self, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_text("gamma 0.3\n")
        assert main(["steady", "--config", str(config)]) == 2

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        config = tmp_path / "typo.cfg"
        config.write_text("gama = 0.45\n")
        assert main(["steady", "--config", str(config)]) == 2
        assert "unknown config key 'gama'" in capsys.readouterr().err

    def test_non_numeric_config_value_exits_2(self, tmp_path, capsys):
        config = tmp_path / "word.cfg"
        config.write_text("e1 = abc\n")
        assert main(["steady", "--config", str(config)]) == 2
        assert capsys.readouterr().err == "error: config value for e1 is not a number: 'abc'\n"

    def test_undecodable_config_exits_2(self, tmp_path, capsys):
        config = tmp_path / "binary.cfg"
        config.write_bytes(b"e1 = 1.0\n\xff\xfe\x00\x81\n")
        assert main(["steady", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: config file {config} is not UTF-8 text") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["steady", "maximize"])
    def test_report_without_out_goes_to_stdout(self, tmp_path, capsys, command):
        out = tmp_path / "report.json"
        assert main([command, "--out", str(out)]) == 0
        capsys.readouterr()
        assert main([command]) == 0
        assert capsys.readouterr().out.encode() == out.read_bytes()

    @pytest.mark.parametrize("temps, resolved", [
        (("2", "2", "2"), False), (("1", "1", "1"), False), (("1.99", "2", "2.01"), True),
        (("0.5", "0.5", "0.5"), False), (("1.999999", "2", "2.000001"), True),
    ])
    def test_eta_tot_needs_resolved_currents(self, tmp_path, temps, resolved):
        # with all baths at one temperature q1 and q3 are rounding noise, no
        # larger than the disagreement of the two current routes or the
        # rounding floor
        out = tmp_path / "steady.json"
        t1, t2, t3 = temps
        assert main(["steady", "--t1", t1, "--t2", t2, "--t3", t3, "--out", str(out)]) == 0
        report = json.loads(out.read_text(), parse_constant=_reject_constant)
        assert (report["performance"]["eta_tot"] is not None) == resolved
        assert (report["performance"]["cooling"] is not None) == resolved

    def test_cold_point_reports_t1s_as_null(self, tmp_path):
        # the closed-form a1 is -1.0 exactly here, outside the range of a
        # temperature; the report masks it instead of exiting 2
        out = tmp_path / "steady.json"
        assert main(["steady", "--t1", "0.01", "--t2", "0.02", "--t3", "0.03",
                     "--out", str(out)]) == 0
        performance = json.loads(out.read_text(), parse_constant=_reject_constant)["performance"]
        assert performance["t1s"] is None
        assert performance["tv"] == pytest.approx(0.028144787439425716, rel=1e-12)

    def test_cooling_is_null_where_q1g_is_rounding_noise(self, tmp_path):
        # q1g is 1.4e-18 here, below the 9.4e-18 disagreement of the two current
        # routes and the floor 1.1e-14, so its sign says nothing about cooling
        out = tmp_path / "steady.json"
        assert main(["steady", "--t1", "0.01", "--t2", "0.02", "--t3", "0.03",
                     "--out", str(out)]) == 0
        report = json.loads(out.read_text(), parse_constant=_reject_constant)
        assert abs(report["currents"]["q1g"]) <= report["currents"]["route_delta"]
        assert report["performance"]["cooling"] is None

    def test_equal_temperatures_write_strict_json(self, tmp_path):
        # eta_c is infinite at T1 = T2; strict JSON has no Infinity
        out = tmp_path / "steady.json"
        assert main(["steady", "--t1", "2", "--t2", "2", "--t3", "2", "--out", str(out)]) == 0
        report = json.loads(out.read_text(), parse_constant=_reject_constant)
        assert report["performance"]["eta_c"] is None
        assert report["residuals"]["numeric"] <= 1e-10

    @pytest.mark.parametrize("flag", ["--tol", "--points", "--seed"])
    def test_unread_flags_are_rejected(self, flag):
        with pytest.raises(SystemExit):
            main(["steady", flag, "0"])


# frozen target baths: past E1/T1 of about 745, exp(-E1/T1) underflows and the
# target population is 0, which the target's reset channel takes as a valid population
COLD_TARGETS = [["--t1", "0.001", "--t2", "0.002"], ["--t1", "1e-300"]]


class TestColdTargetBath:
    @pytest.mark.parametrize("flags", COLD_TARGETS)
    def test_steady_exits_0_with_both_routes_agreeing(self, tmp_path, flags):
        out = tmp_path / "steady.json"
        assert main(["steady", *flags, "--out", str(out)]) == 0
        report = json.loads(out.read_text(), parse_constant=_reject_constant)
        assert report["populations"]["r1"] == 0.0
        assert report["residuals"]["numeric"] <= 1e-10
        assert report["residuals"]["max_coefficient_delta"] <= 1e-8

    @pytest.mark.parametrize("flags", COLD_TARGETS)
    def test_validate_passes_every_group(self, tmp_path, flags):
        out = tmp_path / "validate.json"
        assert main(["validate", *flags, "--out", str(out)]) == 0
        report = json.loads(out.read_text(), parse_constant=_reject_constant)
        groups = report["results"][0]["groups"]
        assert list(groups) == GROUPS
        assert all(group["passed"] for group in groups.values())


# frozen machine baths: at gamma = 0 with T2 = T1 + 2^-8, r~2 underflows at the window
# scan's top, where the right edge is E3 times the Carnot COP; at E3 = 1e6 and 1e8, and at
# E1 = E3 = 1e160, every machine population underflows while the log-odds stay finite
FROZEN_MAXIMIZE = {
    "spiral": ["--gamma", "0", "--e3", "4", "--t1", "1", "--t2", "1.00390625", "--t3", "4.00390625"],
    "machine": ["--e3", "1e8"],
}
FROZEN_STEADY = [["--e3", "1e6"], ["--e1", "1e160", "--e3", "1e160", "--gamma", "0"]]


class TestFrozenMachineBaths:
    # a RuntimeWarning is an error in this suite, and every float must parse as finite
    @pytest.mark.parametrize("name", sorted(FROZEN_MAXIMIZE))
    def test_maximize_finds_the_window(self, tmp_path, name):
        out = tmp_path / "max.json"
        assert main(["maximize", *FROZEN_MAXIMIZE[name], "--out", str(out)]) == 0
        report = json.loads(out.read_text(), parse_constant=_reject_constant)
        window, params = report["window"], neqfridge.ModelParams(**report["params"])
        assert window["left"] < report["e1_star"] < window["right"]
        edges = [window["right"]] if window["left_is_boundary"] else [window["left"], window["right"]]
        for edge in edges:
            exact = mp_window_edge(params, edge)
            assert abs(edge - exact) <= 1e-12 * exact
            # the machine channels act as the dressed-local resets at the edge
            assert validate(replace(params, e1=edge)).groups["localization_identity"]["passed"]

    @pytest.mark.parametrize("flags", FROZEN_STEADY)
    def test_steady_reports_finite_values(self, tmp_path, flags):
        out = tmp_path / "steady.json"
        assert main(["steady", *flags, "--out", str(out)]) == 0
        populations = json.loads(out.read_text(), parse_constant=_reject_constant)["populations"]
        assert populations["rtilde2"] == populations["rtilde3"] == 0.0
        assert populations["ttilde2"] > 0.0 and populations["ttilde3"] > 0.0


class TestFigureCommand:
    def test_fig3_files(self, tmp_path):
        code = main(["figure", "fig3", "--points", "30", "--out", str(tmp_path)])
        assert code == 0
        a = (tmp_path / "fig3a.csv").read_text().splitlines()
        b = (tmp_path / "fig3b.csv").read_text().splitlines()
        header_idx = next(i for i, line in enumerate(a) if not line.startswith("#"))
        assert a[header_idx].split(",")[0] == "beta3"
        assert a[header_idx].split(",")[-1] == "q1g"
        assert b[header_idx].split(",")[-1] == "delta_c"
        assert len(a) - header_idx - 1 == 4 * 30  # four couplings

    def test_fig4_single_coupling_override(self, tmp_path):
        code = main(["figure", "fig4", "--points", "20", "--gamma", "0.2", "--out", str(tmp_path)])
        assert code == 0
        lines = (tmp_path / "fig4a.csv").read_text().splitlines()
        data = [l for l in lines if not l.startswith("#")][1:]
        assert len(data) == 20

    def test_fig4_window_metadata_is_plain_floats(self, tmp_path):
        assert main(["figure", "fig4", "--points", "5", "--gamma", "0.2",
                     "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "fig4a.csv").read_text().splitlines()
        line = next(l for l in lines if l.startswith("# window_gamma_0.2: "))
        left, right = (float(v) for v in line.split(": ", 1)[1].strip("[]").split(", "))
        assert left == pytest.approx(0.40653601327, abs=1e-9)
        assert right == pytest.approx(3.92413296025, abs=1e-9)

    def test_fig4_empty_window_prints_the_scanned_range(self, tmp_path, capsys):
        # E1 = 5 at gamma = 2: the scan runs from 4 (1 + 1e-9) to 4 (1 + 1e-6)
        from neqfridge.experiments import _scan_range
        from neqfridge.model import REFERENCE

        assert main(["figure", "fig4", "--gamma", "2.0", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: no cooling found in [")
        lo, hi, _ = _scan_range(stack([replace(REFERENCE, e1=5.0, gamma=2.0)]))
        scanned = err.split("[", 1)[1].split("]", 1)[0]
        assert [float(v) for v in scanned.split(", ")] == [lo[0], hi[0]]
        assert lo[0] < hi[0]

    @pytest.mark.parametrize("flag", ["--e1", "--config", "--tol"])
    def test_rejects_unread_flags(self, flag):
        with pytest.raises(SystemExit):
            main(["figure", "fig3", flag, "1"])

    @pytest.mark.parametrize("name, flag, value", [
        ("fig6", "--gamma", "0.5"), ("fig3", "--n", "5"), ("fig4", "--n", "5"), ("fig5", "--n", "5"),
        ("fig3", "--seed", "3"), ("fig4", "--seed", "7"), ("fig5", "--seed", "3"),
        ("fig6", "--points", "200"),
    ])
    def test_flags_the_figure_does_not_read_exit_2(self, tmp_path, capsys, name, flag, value):
        out = tmp_path / "out"
        assert main(["figure", name, flag, value, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: figure {name} does not read {flag}\n"
        assert not out.exists()

    def test_fig6_default_size_is_1000(self, tmp_path):
        default, explicit = tmp_path / "default", tmp_path / "explicit"
        assert main(["figure", "fig6", "--out", str(default)]) == 0
        assert main(["figure", "fig6", "--n", "1000", "--out", str(explicit)]) == 0
        for name in ("fig6a.csv", "fig6b.csv"):
            assert (default / name).read_bytes() == (explicit / name).read_bytes()

    def test_infinite_coupling_exits_2_without_a_warning(self, tmp_path, capsys):
        # E1 = 2.5 gamma is infinite too; the suite turns a RuntimeWarning into an error
        out = tmp_path / "out"
        assert main(["figure", "fig4", "--gamma", "inf", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: e1 must be finite, got inf\n"
        assert not out.exists()

    @pytest.mark.parametrize("name, points", [("fig3", "-1"), ("fig4", "0"), ("fig5", "1")])
    def test_too_few_points_exit_2(self, tmp_path, capsys, name, points):
        assert main(["figure", name, "--points", points, "--out", str(tmp_path)]) == 2
        assert f"need at least 2 points, got {points}" in capsys.readouterr().err

    def test_fig5_files(self, tmp_path):
        assert main(["figure", "fig5", "--points", "15", "--out", str(tmp_path)]) == 0
        assert (tmp_path / "fig5a.csv").exists()
        assert (tmp_path / "fig5b.csv").exists()

    @pytest.mark.parametrize("gamma, skipped", [("0.49", 49), ("0.5", 200)])
    def test_fig5_skips_points_without_a_cold_virtual_temperature(self, tmp_path, gamma, skipped):
        # a point with Tv >= T2 (2.07 at beta3 = 0.01 for gamma = 0.49) is skipped,
        # not built as a model with T1 > T2; with every point skipped the files hold headers only
        assert main(["figure", "fig5", "--gamma", gamma, "--out", str(tmp_path)]) == 0
        for suffix, own in (("a", "eta_ratio"), ("b", "coherence")):
            lines = (tmp_path / f"fig5{suffix}.csv").read_text().splitlines()
            assert f"# skipped_points: {skipped}" in lines
            data = [l for l in lines if not l.startswith("#")]
            assert data[0] == f"beta3,gamma,e1,e3,t1,t2,t3,p,g,{own}"
            assert len(data) == 1 + 200 - skipped
            assert all(0.0 < float(row.split(",")[4]) < 2.0 for row in data[1:])

    def test_fig6_deterministic(self, tmp_path):
        d1, d2 = tmp_path / "one", tmp_path / "two"
        assert main(["figure", "fig6", "--n", "30", "--seed", "7", "--out", str(d1)]) == 0
        assert main(["figure", "fig6", "--n", "30", "--seed", "7", "--out", str(d2)]) == 0
        assert (d1 / "fig6a.csv").read_bytes() == (d2 / "fig6a.csv").read_bytes()
        assert (d1 / "fig6b.csv").read_bytes() == (d2 / "fig6b.csv").read_bytes()
        lines = (d1 / "fig6a.csv").read_text().splitlines()
        assert any("near_bound" in line for line in lines if not line.startswith("#"))
        assert any(line.startswith("# rng: numpy-PCG64") for line in lines)

    def test_fig6_metadata(self, tmp_path):
        # the fixed E3 range and coupling steps are printed too, so the CSV records
        # the whole sampling box
        assert main(["figure", "fig6", "--n", "5", "--seed", "7", "--out", str(tmp_path)]) == 0
        expected = [
            f"# neqfridge {neqfridge.__version__}",
            "# e3_range: [2.0, 8.0]",
            "# eta_c: 1.0",
            "# figure: fig6",
            "# gamma_steps: 200",
            "# max_gamma_step: 40",
            "# n: 5",
            "# points: 200",
            "# resamples: 0",
            "# rng: numpy-PCG64",
            "# seed: 7",
            "# t2_range: [1.0, 4.0]",
            "# t3_mult_range: [1.0, 5.0]",
        ]
        for name in ("fig6a.csv", "fig6b.csv"):
            lines = (tmp_path / name).read_text().splitlines()
            assert lines[:len(expected)] == expected
            assert lines[len(expected)].startswith("# columns: ")


class TestSweepCommand:
    def test_writes_csv(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main([
            "sweep", "--axis", "beta3", "--lo", "0.05", "--hi", "0.45",
            "--points", "12", "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        data = [l for l in lines if not l.startswith("#")]
        assert data[0].split(",")[0] == "axis_value"
        assert len(data) == 13

    @pytest.mark.parametrize("lo", ["0", "1e-310"])  # 1/1e-310 overflows
    def test_zero_beta3_is_a_skipped_point(self, tmp_path, lo):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--axis", "beta3", "--lo", lo, "--hi", "0.4",
                     "--points", "5", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert "# skipped_points: 1" in lines
        data = [l for l in lines if not l.startswith("#")]
        assert [row.split(",")[0] for row in data[1:]] == [
            "0.10000000000000001", "0.20000000000000001", "0.30000000000000004",
            "0.40000000000000002"]

    def test_negative_exponent_literal_is_a_value(self, tmp_path):
        # argparse alone reads "-1e-3" after a flag as another flag, but "-0.001" as a number
        outs = [tmp_path / "exponent.csv", tmp_path / "decimal.csv"]
        for lo, out in zip(["-1e-3", "-0.001"], outs):
            assert main(["sweep", "--axis", "gamma", "--lo", lo, "--hi", "0.1",
                         "--out", str(out)]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_all_points_skipped_writes_the_header_only(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--axis", "e1", "--lo", "0.1", "--hi", "0.5", "--points", "3",
                     "--gamma", "0.3", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert "# skipped_points: 3" in lines
        assert [l for l in lines if not l.startswith("#")] == [
            "axis_value,e1,e3,gamma,t1,t2,t3,p,g,d,q1g,q23,eta_g,eta_tot,tv,t1s,coherence"]

    def test_directory_as_output_exits_2(self, tmp_path, capsys):
        assert main(["sweep", "--axis", "e1", "--lo", "1", "--hi", "2", "--points", "3",
                     "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Is a directory" in err


class TestCsvWriter:
    """write_csv over formatted columns against a cell-by-cell writer over row dicts."""

    SPECIAL = [-0.0, math.nan, math.inf, -math.inf, 5e-324, 1.7976931348623157e308, 0.1]

    def _same_bytes(self, tmp_path, table: dict, columns: list[str]) -> None:
        meta = {"figure": "test", "points": 3}
        out = tmp_path / "table.csv"
        write_csv(out, meta, columns, _cells(table, columns))
        rows = [dict(zip(table, values)) for values in zip(*(c.tolist() for c in table.values()))]
        assert out.read_text() == per_cell_csv(meta, columns, rows, neqfridge.__version__)

    def test_special_floats_and_an_integer_column(self, tmp_path):
        x = np.array(self.SPECIAL)
        table = {"x": x, "neg": -x, "near_bound": np.arange(x.size) % 2,
                 "count": np.array([0, -3, 7, 2**53 + 1, 10**17, -(10**18), 2**63 - 1])}
        self._same_bytes(tmp_path, table, ["x", "neg", "near_bound", "count"])
        self._same_bytes(tmp_path, table, ["near_bound", "x"])

    def test_random_bit_patterns(self, tmp_path):
        bits = np.random.default_rng(5).integers(0, 2**64, size=2000, dtype=np.uint64)
        self._same_bytes(tmp_path, {"x": bits.view(np.float64)}, ["x"])

    def test_zero_rows(self, tmp_path):
        table = {"x": np.array([]), "near_bound": np.array([], dtype=int)}
        self._same_bytes(tmp_path, table, ["x", "near_bound"])


# one command per kind of output file, with the files it writes under --out
WRITERS = {
    "steady": (["steady", "--gamma", "0.3"], ["out.json"]),
    "validate": (["validate", "--gamma", "0.3"], ["out.json"]),
    "maximize": (["maximize", "--gamma", "0.2"], ["out.json"]),
    "fig3": (["figure", "fig3", "--points", "5"], ["fig3a.csv", "fig3b.csv"]),
    "sweep": (["sweep", "--axis", "e1", "--lo", "0.7", "--hi", "3", "--points", "5"], ["out.csv"]),
    "ensemble": (["ensemble", "--n", "3"], ["out.csv"]),
}


def _run_writer(name, outdir):
    """Run a ``WRITERS`` command into ``outdir``; the bytes of each file it writes."""
    argv, files = WRITERS[name]
    out = outdir if argv[0] == "figure" else outdir / files[0]
    assert main([*argv, "--out", str(out)]) == 0
    return {file: (outdir / file).read_bytes() for file in files}


class TestOutputFiles:
    """Outputs are overwritten in place: the bytes of a fresh write, whatever was there."""

    @pytest.mark.parametrize("name", ["steady", "validate", "fig3", "sweep"])
    @pytest.mark.parametrize("old", [b"x" * 100_000, b"#\n"], ids=["longer", "shorter"])
    def test_overwrite_leaves_the_bytes_of_a_fresh_write(self, tmp_path, name, old):
        (fresh := tmp_path / "fresh").mkdir()
        (over := tmp_path / "over").mkdir()
        expected = _run_writer(name, fresh)
        for file in expected:
            (over / file).write_bytes(old)
        assert _run_writer(name, over) == expected

    def test_no_output_opens_with_truncation(self, monkeypatch, tmp_path):
        flags = []
        real_open = neqfridge.cli.os.open

        def recording(path, flag, *args, **kwargs):
            flags.append(flag)
            return real_open(path, flag, *args, **kwargs)

        monkeypatch.setattr(neqfridge.cli.os, "open", recording)
        for name in WRITERS:
            (tmp_path / name).mkdir()
            _run_writer(name, tmp_path / name)
        # one open per output file (`write_text` opens through `io`, not `os`), none truncating
        assert len(flags) == sum(len(files) for _, files in WRITERS.values())
        assert not any(flag & os.O_TRUNC for flag in flags)

    def test_dev_null_exits_0(self):
        assert main(["steady", "--out", os.devnull]) == 0

    def test_pipe_and_fifo_receive_the_whole_report(self, tmp_path):
        expected = _run_writer("steady", tmp_path)["out.json"]
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)  # lets the writer open without blocking
        read_end, write_end = os.pipe()
        try:
            for target in (fifo, f"/dev/fd/{write_end}"):
                assert main([*WRITERS["steady"][0], "--out", str(target)]) == 0
            os.close(write_end)
            # the report is far below the pipe buffer, so both are whole before the reads
            assert os.read(reader, 1 << 20) == expected
            assert os.read(read_end, 1 << 20) == expected
        finally:
            os.close(reader)
            os.close(read_end)

    def test_directory_as_json_output_exits_2(self, tmp_path, capsys):
        assert main(["steady", "--out", str(tmp_path)]) == 2
        assert "Is a directory" in capsys.readouterr().err

    def test_existing_file_keeps_its_mode_and_inode(self, tmp_path):
        out = tmp_path / "out.json"
        out.write_text("old\n")
        out.chmod(0o600)
        before = out.stat()
        _run_writer("steady", tmp_path)
        after = out.stat()
        assert (after.st_ino, after.st_mode) == (before.st_ino, before.st_mode)

    def test_new_file_mode_follows_the_umask(self, tmp_path):
        umask = os.umask(0o027)
        try:
            _run_writer("steady", tmp_path)
        finally:
            os.umask(umask)
        assert (tmp_path / "out.json").stat().st_mode & 0o777 == 0o640

    def test_symlinked_output_writes_through_to_its_target(self, tmp_path):
        expected = _run_writer("steady", tmp_path)["out.json"]
        target, link = tmp_path / "target.json", tmp_path / "link.json"
        target.write_bytes(b"x" * 10_000)
        link.symlink_to(target)
        assert main([*WRITERS["steady"][0], "--out", str(link)]) == 0
        assert link.is_symlink() and target.read_bytes() == expected


# values that a per-value cache must keep apart or may confuse: both zeros,
# NaNs with other payloads and signs, infinities, subnormals and huge values
EDGE_FLOATS = np.concatenate([
    [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 2.5e-310, 1e308, -1e308, 0.1],
    np.array([0x7FF8000000000001, 0xFFF8000000000000, 0x7FF4000000000000],
             dtype=np.uint64).view(np.float64),
])


@st.composite
def repetitive_tables(draw):
    """Columns of few distinct values: drawn from a small pool, the pool's head
    tiled (like a figure's beta3 grid under each coupling) and held in runs."""
    rows = draw(st.integers(0, 40))
    pool = np.concatenate([EDGE_FLOATS, draw(st.lists(st.floats(), min_size=1, max_size=6))])
    index = st.integers(0, pool.size - 1)
    head = pool[draw(st.lists(index, min_size=1, max_size=5))]
    integers = st.sampled_from([0, -3, 7, 2**63 - 1, -(2**63)]) | st.integers(-(2**63), 2**63 - 1)
    return {
        "repeated": pool[draw(st.lists(index, min_size=rows, max_size=rows))],
        "tiled": np.resize(head, rows),
        "runs": np.repeat(head, rows)[:rows],
        "count": np.array(draw(st.lists(integers, min_size=rows, max_size=rows)), dtype=np.int64),
    }


class TestDistinctValueCells:
    """``_cells`` formats each distinct value once; its cells are the per-cell formatter's."""

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(table=repetitive_tables())
    @example(table={"x": np.array([]), "count": np.array([], dtype=np.int64)})
    @example(table={"x": EDGE_FLOATS[1:2], "count": np.array([2**63 - 1])})
    def test_cells_match_the_per_cell_formatter(self, table):
        assert _cells(table, list(table)) == per_cell_cells(table, list(table))

    @pytest.mark.parametrize("command", [
        ["figure", "fig3"], ["figure", "fig4"], ["figure", "fig5"],
        ["figure", "fig3", "--gamma", "0.3"], ["figure", "fig4", "--gamma", "0.3"],
        ["figure", "fig5", "--gamma", "0.3"], ["figure", "fig6", "--n", "20"],
        ["sweep", "--axis", "beta3", "--lo", "0", "--hi", "0.45"],
        ["sweep", "--axis", "gamma", "--lo", "0", "--hi", "0.45"],
        ["sweep", "--axis", "e1", "--lo", "0.7", "--hi", "3"],
        ["ensemble", "--n", "10"],
    ], ids=" ".join)
    def test_table_commands_write_the_per_cell_bytes(self, monkeypatch, tmp_path, command):
        def written(out):
            out.mkdir()
            assert main([*command, "--out", str(out if command[0] == "figure" else out / "t.csv")]) == 0
            return {path.name: path.read_bytes() for path in out.iterdir()}

        distinct = written(tmp_path / "distinct")
        monkeypatch.setattr(neqfridge.cli, "_cells", per_cell_cells)
        assert written(tmp_path / "per_cell") == distinct

    def test_fig3_formats_each_distinct_value_once(self, monkeypatch, tmp_path):
        formatted = []
        float_cells = neqfridge.cli._float_cells

        def counted(values):
            formatted.extend(values)
            return float_cells(values)

        monkeypatch.setattr(neqfridge.cli, "_float_cells", counted)
        assert main(["figure", "fig3", "--points", "200", "--out", str(tmp_path)]) == 0
        # 11 columns of 800 rows, 8,800 cells: beta3 and t3 hold 200 values each,
        # gamma 4, the six fixed fields 1 each, q1g 797 (every gamma gives -0.0 at
        # beta3 = beta2, where T1 = T2 = T3 and the log-odds gap is exactly 0) and
        # delta_c 797
        assert len(formatted) == 2004


class TestMaximizeCommand:
    def test_reports_window_and_optimum(self, tmp_path):
        out = tmp_path / "max.json"
        code = main(["maximize", "--gamma", "0.2", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["window"]["left"] < report["e1_star"] < report["window"]["right"]
        assert report["q1g_max"] > 0
        assert report["eta_g_star"] == pytest.approx(0.37229568257394136, abs=1e-6)

    def test_empty_window_exits_2(self, tmp_path, capsys):
        code = main([
            "maximize", "--e1", "1.6", "--gamma", "0.8",
            "--t1", "1.9", "--t2", "2.0", "--t3", "2.01",
        ])
        assert code == 2

    @pytest.mark.parametrize("scale", [300.0, 1000.0, 1024.0])
    def test_scaled_reference_returns(self, tmp_path, scale):
        # the right window edge sits near 3826 scale, where one ulp is wider than
        # the 1e-13 root tolerance: each bracket's tolerance is floored at its
        # ends' float spacing, else the root search never stops
        out = tmp_path / "max.json"
        flags = [item for name, value in REFERENCE.as_dict().items()
                 for item in (f"--{name}", repr(scale * value))]
        src = os.path.dirname(os.path.dirname(neqfridge.__file__))
        done = subprocess.run([sys.executable, "-m", "neqfridge.cli", "maximize", *flags, "--out", str(out)],
                              env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
                              timeout=60)
        assert done.returncode == 0, done.stderr
        window, unit = json.loads(out.read_text())["window"], cooling_window(REFERENCE)
        assert window["left"] == pytest.approx(scale * unit.left, rel=4e-14, abs=0.0)
        assert window["right"] == pytest.approx(scale * unit.right, rel=4e-14, abs=0.0)


# the power of the unit in each validate group's max_error: dimensionless, a rate (p),
# or a current (rate times energy)
GROUP_POWERS = {name: 0 for name in GROUPS} | {"localization_identity": 1, "first_law": 2,
                                               "current_route_agreement": 2,
                                               "tilde_current_identities": 2, "fictitious_bath": 2}
# the power of the unit in each closed_form_table column
COLUMN_POWERS = ({name: 1 for name in REFERENCE.as_dict()} | {name: 2 for name in ("q1", "q3", "q1g", "q23")}
                 | {name: 0 for name in ("d", "eta_g", "eta_tot", "eta_c", "eta_tilde", "coherence")}
                 | {"tv": 1, "t1s": 1})


class TestPowerOfTwoUnits:
    # every field times lam = 2^k is exact, and so is every result times its power of lam
    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(
        e1=st.floats(0.5, 2.0),
        e3=st.floats(2.0, 8.0),
        coupling=st.one_of(st.just(0.0), st.floats(1e-12, 0.49)),  # gamma stays normal at 2^-60
        t1=st.floats(0.5, 2.0),
        dt2=st.floats(0.0, 2.0),
        dt3=st.floats(0.0, 4.0),
        p=st.floats(0.002, 0.03),
        g=st.floats(0.002, 0.03),
        k=st.integers(-60, 60),
    )
    def test_validate_and_closed_forms_scale_exactly(self, e1, e3, coupling, t1, dt2, dt3, p, g, k):
        params = neqfridge.ModelParams(e1=e1, e3=e3, gamma=coupling * e1, t1=t1, t2=t1 + dt2,
                                       t3=t1 + dt2 + dt3, p=p, g=g)
        lam = 2.0 ** k
        scaled = neqfridge.ModelParams(**{name: lam * value for name, value in params.as_dict().items()})
        base, report = validate(params), validate(scaled)
        assert report.passed == base.passed
        for name, group in base.groups.items():
            assert report.groups[name]["passed"] == group["passed"], name
            assert report.groups[name]["max_error"] == group["max_error"] * lam ** GROUP_POWERS[name], name
        table, scaled_table = neqfridge.closed_form_table(params), neqfridge.closed_form_table(scaled)
        assert set(table) == set(COLUMN_POWERS)
        for name, column in table.items():
            np.testing.assert_array_equal(scaled_table[name], column * lam ** COLUMN_POWERS[name], err_msg=name)


# energies and temperatures times 2^k with p and g unchanged, as the reference's 2^k commands
# scale them: the power of 2^k in each closed_form_table column (the currents are rates
# times energies) and in each key of a steady report's blocks
ENERGIES = ("e1", "e3", "gamma", "t1", "t2", "t3")
ENERGY_POWERS = COLUMN_POWERS | {"p": 0, "g": 0, "q1": 1, "q3": 1, "q1g": 1, "q23": 1}
STEADY_POWERS = {"params": ENERGY_POWERS, "performance": ENERGY_POWERS,
                 "frame": {name: 1 for name in ("e2", "delta_e", "lambda", "eps2", "eps3")},
                 "populations": {"ttilde2": 1, "ttilde3": 1},
                 "currents": {name: 1 for name in ("q1", "q2", "q3", "q23", "q1g", "q2g", "q3g",
                                                    "qt2g", "qt3g", "route_delta")}}
# from 2^-600 to 2^500: below about 2^-540 the frame's (E1 - 2 gamma)(E1 + 2 gamma)
# underflows unless it is taken over E1's power of two
ENERGY_SCALES = [-600, -540, -500, -300, -60, 60, 300, 500]


def _energy_scaled(params, k: int):
    """``params`` with its energies and temperatures times 2^k, exactly; p and g unchanged."""
    return replace(params, **{name: np.ldexp(getattr(params, name), k) for name in ENERGIES})


class TestEnergyScale:
    # every result is the unscaled one times its power of 2^k, bit for bit, compared through
    # np.ldexp: a power of 2^k itself underflows past 2^-1074
    @pytest.mark.parametrize("k", ENERGY_SCALES)
    def test_closed_form_table(self, k):
        models = stack(grid_box_points(seed=34, count=199))
        table, scaled = (neqfridge.closed_form_table(m) for m in (models, _energy_scaled(models, k)))
        assert set(table) == set(ENERGY_POWERS)
        for name, column in table.items():
            np.testing.assert_array_equal(scaled[name], np.ldexp(column, k * ENERGY_POWERS[name]),
                                          err_msg=name)

    @pytest.mark.parametrize("k", ENERGY_SCALES)
    @pytest.mark.parametrize("axis, lo, hi, power", [("e1", 0.5, 4.0, 1), ("gamma", -1e-3, 0.6, 1),
                                                      ("beta3", 0.0, 0.5, -1)])
    def test_sweep(self, k, axis, lo, hi, power):
        (table, skipped), (scaled, scaled_skipped) = (
            neqfridge.sweep(neqfridge.SweepSpec(base=base, axis=axis, lo=math.ldexp(lo, j),
                                                hi=math.ldexp(hi, j), points=40))
            for base, j in ((REFERENCE, 0), (_energy_scaled(REFERENCE, k), power * k)))
        assert [s["value"] for s in scaled_skipped] == [math.ldexp(s["value"], power * k) for s in skipped]
        for name, column in table.items():
            exponent = power * k if name == "axis_value" else k * ENERGY_POWERS[name]
            np.testing.assert_array_equal(scaled[name], np.ldexp(column, exponent), err_msg=name)

    @pytest.mark.parametrize("k", ENERGY_SCALES)
    def test_steady_report(self, tmp_path, k):
        # the frame, the populations, the decomposition, the currents and the performance
        # block; the family block, and so its kernel, does not depend on the energies' unit
        for i, params in enumerate(grid_box_points(seed=34, count=4)):
            reports = []
            for j, model in enumerate((params, _energy_scaled(params, k))):
                flags = [item for name, value in model.as_dict().items()
                         for item in (f"--{name}", repr(float(value)))]
                assert main(["steady", *flags, "--out", str(tmp_path / f"{i}_{j}.json")]) == 0
                reports.append(json.loads((tmp_path / f"{i}_{j}.json").read_text()))
            base, scaled = reports
            for block, values in base.items():
                if not isinstance(values, dict):
                    assert scaled[block] == values
                    continue
                powers = STEADY_POWERS.get(block, {})
                for key, value in values.items():
                    expected = (math.ldexp(value, k * powers.get(key, 0)) if type(value) is float
                                else value)  # null, a bool, or currents.normalized (over E1 p)
                    assert scaled[block][key] == expected, (i, block, key)

    @pytest.mark.parametrize("eta_c", ["1e-200", "1e-300"])
    def test_ensemble_at_a_tiny_carnot_cop(self, tmp_path, eta_c):
        # gamma/E3 is about eta_c here, so its square and eta_c's underflow unless the COP
        # bounds and the window scan's slopes take them over their power of two
        out = tmp_path / "e.csv"
        assert main(["ensemble", "--n", "40", "--seed", "3", "--eta-c", eta_c, "--out", str(out)]) == 0
        rows = [row for row in csv.DictReader(line for line in out.read_text().splitlines()
                                              if not line.startswith("#"))]
        assert len(rows) == 40
        for row in rows:
            lower, eta_star, upper = (float(row[name]) for name in ("eta_star_min", "eta_star", "eta_star_max"))
            assert 0.0 < lower <= eta_star <= upper < float(eta_c), row


class TestValidateCommand:
    def test_single_point_passes(self, tmp_path):
        out = tmp_path / "validate.json"
        code = main(["validate", "--gamma", "0.3", "--tol", "1e-7", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["passed"] is True
        groups = report["results"][0]["groups"]
        assert groups["oracle_equivalence"]["passed"] is True
        assert groups["oracle_equivalence"]["max_error"] < 1e-7

    @pytest.mark.parametrize("k", [-60, -30, 20, 30, 40, 60])
    def test_reference_scaled_by_a_power_of_two_passes(self, k):
        # every field times 2^k: each bound is in the unit of what it bounds (the
        # localization identity's in p, the kernel residual's in eps2 + p + g), or is a
        # property of the constant tables
        report = validate(neqfridge.ModelParams(**{name: 2.0 ** k * value
                                                   for name, value in REFERENCE.as_dict().items()}))
        assert report.passed, {name: g for name, g in report.groups.items() if not g["passed"]}

    def test_weak_dissipation_deltas_pass_at_their_rounding_floor(self):
        # tol = 0 leaves only the floor, 64 eps (p + g) / p = 2.0e-14 here
        report = validate(WEAK, tol=0.0)
        assert report.oracle.max_delta <= 2.0e-14
        assert report.groups["oracle_equivalence"]["passed"] is True

    def test_coefficient_off_by_100_rounding_units_fails_oracle_equivalence(self, monkeypatch):
        from neqfridge import steadystate

        unit = 64 * np.finfo(float).eps * (WEAK.p + WEAK.g) / WEAK.p
        solve = steadystate.numeric_steady_state

        def shifted(block):
            steady = solve(block)
            return replace(steady, decomposition=replace(steady.decomposition, d=steady.decomposition.d + 100 * unit))

        monkeypatch.setattr(steadystate, "numeric_steady_state", shifted)
        group = validate(WEAK, tol=0.0).groups["oracle_equivalence"]
        assert group["passed"] is False
        assert group["max_error"] > 99 * unit

    def test_trace_route_q1_off_by_1e_3_fails_the_current_groups(self, monkeypatch):
        # at p = 1e-9, q1 is 1.8e-11 and the currents' floor 512 eps (p + g) eps2 is 5.6e-15,
        # so a trace-route q1 off by a relative 1e-3 is three floors from the closed form's
        from neqfridge import observables

        act = observables.bath_actions

        def skewed(weights, coords):
            actions = act(weights, coords)
            actions[0] *= 1.0 + 1e-3  # the target bath's action, which only q1 reads
            return actions

        params = replace(REFERENCE, p=1e-9)
        assert validate(params).passed
        monkeypatch.setattr(observables, "bath_actions", skewed)
        groups = validate(params).groups
        assert groups["current_route_agreement"]["passed"] is False
        assert groups["first_law"]["passed"] is False

    @pytest.mark.parametrize("lam", [1e-4, 1e4])
    def test_reference_in_other_units_passes(self, lam, tmp_path):
        # energies, temperatures, p and g all times lam: the current bounds scale with (p + g) eps2
        params = {name: lam * value for name, value in P0.as_dict().items()}
        report = validate(neqfridge.ModelParams(**params))
        assert report.passed, {name: g for name, g in report.groups.items() if not g["passed"]}
        flags = [item for name, value in params.items() for item in (f"--{name}", repr(value))]
        assert main(["validate", *flags, "--out", str(tmp_path / "validate.json")]) == 0

    def test_weak_coupling_currents_pass_above_their_rounding_floor(self):
        # at p = g = 2e-8 the current groups' errors are 0.2-0.95 eps (p + g) eps2 under
        # six OpenBLAS kernels, far under their bound, the floor of 512 such units
        report = validate(replace(P0, t1=0.05, p=2e-8, g=2e-8))
        for name in ("first_law", "current_route_agreement", "tilde_current_identities", "fictitious_bath"):
            assert report.groups[name]["passed"], (name, report.groups[name])

    def test_weak_dissipation_passes(self, tmp_path):
        # at p = g = 1e-8 the family block's kernel is as well posed as at the reference
        assert main(["validate", "--p", "1e-8", "--g", "1e-8", "--out", str(tmp_path / "v.json")]) == 0

    @pytest.mark.parametrize("detune", [1e-9, -1e-6])
    def test_non_resonant_frame_fails_oracle_equivalence(self, monkeypatch, detune):
        # the family block leaves out the free Hamiltonian, whose weight there is the detuning
        # (E1 - eps2 + eps3)/2; a frame off resonance by a relative 1e-9 fails the group.
        # The routes part too, since the closed forms' log-odds take eps2 - eps3 = E1, so
        # the group is run again with its tolerance at the routes' difference: the
        # resonance check alone must still fail it
        from neqfridge import dissipation

        frame = dissipation._frame_at

        def detuned(*args):
            resonant = frame(*args)
            return replace(resonant, eps2=resonant.eps2 * (1.0 + detune))

        assert validate(P0).groups["oracle_equivalence"]["passed"] is True
        monkeypatch.setattr(dissipation, "_frame_at", detuned)
        report = validate(P0)
        assert report.groups["oracle_equivalence"]["passed"] is False
        rate = P0.p + P0.g
        report = validate(P0, tol=report.oracle.max_delta)
        assert report.oracle.numeric.residual <= 64.0 * np.finfo(float).eps * rate
        assert report.groups["oracle_equivalence"]["passed"] is False

    def test_perturbed_free_table_fails_charge_symmetry(self, fresh_tables):
        # Z3 of the free Hamiltonian with a 1e-6 admixture of Z1 Z2 Z3 (still diagonal, so
        # both charges are kept) no longer acts as Z1 = -Z2 on the neutral operators
        from neqfridge import dissipation
        from neqfridge.linalg import pauli_string

        hamiltonians = dissipation._HAMILTONIANS.copy()
        hamiltonians[2] += 1e-6 * pauli_string("zzz")
        fresh_tables.setattr(dissipation, "_HAMILTONIANS", hamiltonians)
        group = validate(P0).groups["charge_symmetry"]
        assert group["passed"] is False
        assert group["max_error"] > 1e-7

    def test_family_table_leaking_into_x_fails_charge_symmetry(self, fresh_tables):
        # T's action with a 1e-6 leak from the coherence Y into its quadrature X: the family
        # no longer closes under the 11 terms the block keeps
        from neqfridge import dissipation

        act, y = dissipation._act, dissipation.FAMILY[8]
        x = dissipation._TRIPARTITE / np.sqrt(2.0)

        def leaking(ops):
            acted = act(ops)
            acted[3] += 1e-6 * np.einsum("nij,ji->n", ops, y)[:, None, None] * x
            return acted

        fresh_tables.setattr(dissipation, "_act", leaking)
        group = validate(P0).groups["charge_symmetry"]
        assert group["passed"] is False
        assert group["max_error"] > 1e-7

    def test_small_grid_passes(self, tmp_path):
        out = tmp_path / "validate.json"
        assert main(["validate", "--grid", "3", "--seed", "5", "--out", str(out)]) == 0

    def test_charge_breaking_term_fails_charge_symmetry(self, fresh_tables, tmp_path):
        from neqfridge import dissipation
        from neqfridge.linalg import pauli_string

        # sigma_x on the dressed spiral changes the machine charge n2 + n3 by one; it
        # joins the tripartite term, and the sector stack is rebuilt from the terms.
        # The solve on the charge-0 sector cannot see such a term, so this group must
        hamiltonians = dissipation._HAMILTONIANS.copy()
        hamiltonians[3] += 0.01 * pauli_string("ixi")
        fresh_tables.setattr(dissipation, "_HAMILTONIANS", hamiltonians)
        group = validate(P0).groups["charge_symmetry"]
        out = tmp_path / "steady.json"
        assert main(["steady", "--out", str(out)]) == 0
        assert group["passed"] is False
        assert group["max_error"] > 1e-4
        assert json.loads(out.read_text())["residuals"]["charge_leakage"] == group["max_error"]

    def test_broken_dissipator_fails_channel_algebra(self, fresh_tables):
        from neqfridge import dissipation
        from neqfridge.linalg import pauli_string

        # the target reset's raising jump with its anticommutator half scaled by 1.01 no
        # longer preserves the trace: its dissipator of the identity has a trace
        anti, act = pauli_string("-ii") @ pauli_string("+ii"), dissipation._act

        def broken(ops):
            acted = act(ops)
            acted[4] -= 0.5 * 0.01 * (anti @ ops + ops @ anti)
            return acted

        fresh_tables.setattr(dissipation, "_act", broken)
        group = validate(P0).groups["channel_algebra"]
        assert group["passed"] is False
        assert group["max_error"] > 1e-3

    def test_swapped_population_fails_localization_identity(self, monkeypatch):
        # r23 in place of r32 on the (nu=3, mu=2) machine jump: the machine
        # channels no longer act as the dressed-local resets on the family
        from neqfridge import invariants

        def swapped(params):
            parts = build_generator_parts(params)
            return replace(parts, pops=replace(parts.pops, r32=parts.pops.r23))

        monkeypatch.setattr(invariants, "build_generator_parts", swapped)
        group = validate(P0).groups["localization_identity"]
        assert group["passed"] is False
        assert group["max_error"] > 1e-6

    def test_flipped_exponent_fails_named_invariants(self, monkeypatch):
        # the wrong Boltzmann-exponent sign for the machine populations the oracle solves
        # with, exp(+eps/T) and minus their log-odds; the suite's own detailed-balance
        # reference, thermal_population, keeps the true law
        log_odds = neqfridge.model._log_odds

        def flipped(*args):
            odds, u, shares = log_odds(*args)
            return tuple(-v for v in odds), tuple(1.0 / v for v in u), shares

        monkeypatch.setattr(neqfridge.model, "_log_odds", flipped)
        report = validate(P0)
        assert not report.passed
        assert report.groups["population_range"]["passed"] is False
        assert report.groups["detailed_balance"]["passed"] is False

    @pytest.mark.parametrize("flags", [["--g", "0"], ["--t1", "2", "--t2", "2", "--t3", "2"]])
    def test_non_cooling_points_pass(self, tmp_path, flags):
        # d is SVD noise at these points, so the sign chain has no sign to check
        out = tmp_path / "validate.json"
        assert main(["validate", *flags, "--out", str(out)]) == 0
        groups = json.loads(out.read_text())["results"][0]["groups"]
        assert list(groups) == GROUPS
        assert groups["sign_chain"]["passed"] is True

    def test_degenerate_point_fails_oracle_group(self, tmp_path):
        # p = 1e-12 leaves a second singular value below the degeneracy threshold
        out = tmp_path / "validate.json"
        assert main(["validate", "--p", "1e-12", "--out", str(out)]) == 4
        groups = json.loads(out.read_text(), parse_constant=_reject_constant)["results"][0]["groups"]
        assert list(groups) == ["population_range", "detailed_balance", "oracle_equivalence"]
        assert groups["population_range"]["passed"] and groups["detailed_balance"]["passed"]
        oracle = groups["oracle_equivalence"]
        assert oracle["passed"] is False
        assert oracle["max_error"] is None
        assert "degenerate" in oracle["error"]

    @pytest.mark.parametrize("flag, value, rule", [
        ("--grid", "0", "must be at least 1, got 0"), ("--grid", "-3", "must be at least 1, got -3"),
        ("--tol", "nan", "must be finite and nonnegative, got nan"),
        ("--tol", "-1", "must be finite and nonnegative, got -1.0"),
        ("--seed", "-1", "must be nonnegative, got -1"),
    ])
    def test_values_validate_cannot_use_exit_2(self, tmp_path, capsys, flag, value, rule):
        out = tmp_path / "validate.json"
        assert main(["validate", flag, value, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: validate {flag} {rule}\n"
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--gamma", "--config"])
    def test_grid_at_a_single_point_exits_2(self, tmp_path, capsys, flag):
        config = tmp_path / "model.cfg"
        config.write_text("gamma = 0.3\n")
        value = str(config) if flag == "--config" else "0.3"
        out = tmp_path / "validate.json"
        assert main(["validate", flag, value, "--grid", "7", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: validate with parameter flags or --config does not read --grid\n")
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--gamma", "--config"])
    def test_seed_at_a_single_point_exits_2(self, tmp_path, capsys, flag):
        # a single point reads no random numbers
        config = tmp_path / "model.cfg"
        config.write_text("gamma = 0.3\n")
        value = str(config) if flag == "--config" else "0.3"
        out = tmp_path / "validate.json"
        assert main(["validate", flag, value, "--seed", "3", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: validate with parameter flags or --config does not read --seed\n")
        assert not out.exists()

    def test_single_point_draws_no_generator(self, monkeypatch, tmp_path):
        def drawn(seed):
            raise AssertionError(f"a generator was drawn from seed {seed}")

        monkeypatch.setattr(neqfridge.cli.np.random, "default_rng", drawn)
        assert main(["validate", "--gamma", "0.3", "--out", str(tmp_path / "v.json")]) == 0
        with pytest.raises(AssertionError, match="seed 7"):
            main(["validate", "--grid", "2", "--out", str(tmp_path / "v.json")])

    def test_default_seed_is_7(self, tmp_path):
        default, explicit = tmp_path / "default.json", tmp_path / "explicit.json"
        assert main(["validate", "--grid", "3", "--out", str(default)]) == 0
        assert main(["validate", "--grid", "3", "--seed", "7", "--out", str(explicit)]) == 0
        assert default.read_bytes() == explicit.read_bytes()

    def test_default_grid_is_5(self, tmp_path):
        default, explicit = tmp_path / "default.json", tmp_path / "explicit.json"
        assert main(["validate", "--out", str(default)]) == 0
        assert main(["validate", "--grid", "5", "--out", str(explicit)]) == 0
        assert default.read_bytes() == explicit.read_bytes()
        assert json.loads(default.read_text())["points"] == 5

    def test_seeded_grid_groups_unchanged(self, tmp_path):
        # every group passes at every point of the seed-7 grid
        out = tmp_path / "validate.json"
        assert main(["validate", "--grid", "20", "--seed", "7", "--out", str(out)]) == 0
        results = json.loads(out.read_text())["results"]
        assert len(results) == 20
        assert [[(name, g["passed"]) for name, g in r["groups"].items()] for r in results] \
            == [[(name, True) for name in GROUPS]] * 20


class TestEnsembleCommand:
    def test_writes_csv(self, tmp_path):
        out = tmp_path / "ens.csv"
        code = main(["ensemble", "--n", "20", "--seed", "3", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        data = [l for l in lines if not l.startswith("#")]
        assert len(data) == 21
        assert "eta_star_ratio" in data[0]

    def test_metadata(self, tmp_path):
        # at eta_c = 10 the window scan rejects some draws that ModelParams would
        # reject too; the fixed E3 range and coupling steps are printed with the
        # spec's fields
        out = tmp_path / "ens.csv"
        assert main(["ensemble", "--n", "20", "--eta-c", "10", "--seed", "5", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        expected = [
            f"# neqfridge {neqfridge.__version__}",
            "# e3_range: [2.0, 8.0]",
            "# eta_c: 10.0",
            "# gamma_steps: 200",
            "# max_gamma_step: 40",
            "# n: 20",
            "# resamples: 52",
            "# rng: numpy-PCG64",
            "# seed: 5",
            "# t2_range: [1.0, 4.0]",
            "# t3_mult_range: [1.0, 5.0]",
        ]
        assert lines[:len(expected)] == expected
        assert lines[len(expected)].startswith("# columns: ")

    @pytest.mark.parametrize("argv, message", [
        (["ensemble", "--n", "5", "--seed", "-1"], "seed must be >= 0, got -1"),
        (["figure", "fig6", "--n", "5", "--seed", "-1"], "seed must be >= 0, got -1"),
        (["ensemble", "--n", "5", "--eta-c", "inf"], "eta_c must be finite and positive, got inf"),
        (["ensemble", "--n", "1", "--eta-c", "1000"], "ensemble sampling stalled after 201 rejected draws"),
    ])
    def test_unusable_spec_exits_2(self, tmp_path, capsys, argv, message):
        # numpy rejects a negative seed, an infinite Carnot COP is not a spec, and at
        # eta_c = 1000 every draw's coupling makes its dressed gap negative
        out = tmp_path / "out"
        assert main([*argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


class TestGeneratorBuilds:
    @pytest.fixture
    def build_count(self, monkeypatch):
        from neqfridge import dissipation, model, observables

        return counting(monkeypatch, dissipation.build_generator_parts, model._frame_at,
                        model.tilde_populations, dissipation.assemble_liouvillian, model._gate,
                        observables.closed_form_table)[0]

    def test_one_build_per_steady_call(self, build_count, tmp_path):
        # the flags' model is checked once; its frame, populations and closed forms are
        # built once, and the performance block reads them instead of a table of its own
        assert main(["steady", "--out", str(tmp_path / "steady.json")]) == 0
        assert build_count["build_generator_parts"] == 1
        assert build_count["assemble_liouvillian"] == 1  # both routes' residuals read it
        assert build_count["_gate"] == build_count["tilde_populations"] == 1
        assert build_count["closed_form_table"] == 0

    def test_one_build_per_single_point_validate(self, build_count, tmp_path):
        # a parameter flag makes validate check that one point instead of a grid
        assert main(["validate", "--gamma", "0.3", "--out", str(tmp_path / "validate.json")]) == 0
        assert build_count["build_generator_parts"] == 1
        assert build_count["assemble_liouvillian"] == 1
        assert build_count["_gate"] == 1

    def test_no_point_acts_on_operators(self, monkeypatch, tmp_path):
        # after one solve has built the sector tables, steady and validate read only them
        from neqfridge import dissipation

        def unread(ops):
            raise AssertionError("the generator's terms were applied to operators")

        solve_oracle(build_generator_parts(P0))
        monkeypatch.setattr(dissipation, "_act", unread)
        assert main(["steady", "--g", "0.02", "--out", str(tmp_path / "steady.json")]) == 0
        assert main(["validate", "--g", "0.02", "--out", str(tmp_path / "validate.json")]) == 0

    def test_validate_checks_the_populations_it_solves_with(self, build_count):
        # one frame and one population build, which the population groups and the oracle share
        assert validate(P0).passed
        assert build_count == {"build_generator_parts": 1, "_frame_at": 1, "tilde_populations": 1,
                               "assemble_liouvillian": 1}


class TestDegeneracyPerBlock:
    # the family block is judged on its own scale, p + g, so neither a hot engine
    # nor weak dissipation reads as degenerate; p = 1e-12 at g = 0.01 still does
    # (see TestValidateCommand)
    def test_weak_dissipation_exits_0(self, tmp_path):
        out = tmp_path / "steady.json"
        assert main(["steady", "--p", "1e-8", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["residuals"]["max_coefficient_delta"] <= 1e-8

    @pytest.mark.parametrize("flags", [["--p", "1e-9"], ["--p", "1e-10"], ["--p", "1e-10", "--g", "1e-10"]])
    def test_weaker_dissipation_exits_0_with_finite_numbers(self, tmp_path, flags):
        # on a block of scale eps2 these read as degenerate: s[-2], of order p, fell to 1e-9 of
        # s[0]; on the family block s[-2]/s[0] is 4.5e-8, 4.5e-9 and 0.26
        out = tmp_path / "steady.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["steady", *flags, "--out", str(out)]) == 0
        report = json.loads(out.read_text(), parse_constant=_reject_constant)

        def leaves(node):
            return [x for value in node.values() for x in leaves(value)] if isinstance(node, dict) else [node]

        # no null either: every current is above its noise and the machine cools
        values = leaves({key: report[key] for key in ("frame", "decomposition", "residuals", "currents",
                                                      "performance")})
        assert all(isinstance(value, bool) or (isinstance(value, (int, float)) and math.isfinite(value))
                   for value in values)
        assert report["performance"]["cooling"] is True
        assert report["residuals"]["max_coefficient_delta"] <= 1e-8

    def test_hot_engine_exits_0(self, tmp_path):
        out = tmp_path / "steady.json"
        # the frozen engine bath leaves the log-odds finite: nothing warns
        assert main(["steady", "--e3", "1e7", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["residuals"]["max_coefficient_delta"] <= 1e-8

    @pytest.mark.parametrize("e3", [1e7, 1e10, 1e300])
    def test_hot_engine_oracle_is_well_posed(self, e3):
        parts = build_generator_parts(replace(P0, e3=e3))
        oracle = solve_oracle(parts)
        assert oracle.max_delta <= 1e-8
        assert oracle.numeric.residual <= 1e-10

    def test_huge_coupling_is_degenerate_without_an_overflow(self, tmp_path, capsys):
        # at g = 1e300 the block is degenerate on its own scale; the residual's squares
        # overflowed (a RuntimeWarning) before its vector was scaled by a power of two
        self._assert_degenerate(tmp_path, capsys, "1e300", "3.026e-303, 0.000e+00 at or below "
                                "threshold 1e-09 * 1.493e+00, in units of 2^997")

    def test_largest_coupling_is_degenerate_without_an_infinite_singular_value(self, tmp_path, capsys):
        # at g = 1e308 the block's largest singular value overflows to inf, below which any
        # other compares, unless the SVD is taken over the block's power of two
        self._assert_degenerate(tmp_path, capsys, "1e308", "1.976e-311, 0.000e+00 at or below "
                                "threshold 1e-09 * 1.113e+00, in units of 2^1024")

    @staticmethod
    def _assert_degenerate(tmp_path, capsys, g: str, values: str) -> None:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["steady", "--g", g, "--out", str(tmp_path / "x.json")]) == 3
        err = capsys.readouterr().err
        assert err == f"error: steady space is degenerate: singular values {values}\n"

    @pytest.mark.parametrize("flags", [["--p", "5e-324"], ["--p", "1e-12"], ["--g", "0", "--p", "5e-324"]])
    def test_degenerate_message_prints_finite_unsigned_values(self, tmp_path, capsys, flags):
        # at p = 5e-324 the SVD can return a singular value of -0.0; at g = 0 too, (p, g)
        # is scaled by p's power of two, which would overflow as a factor of its own
        assert main(["steady", *flags, "--out", str(tmp_path / "x.json")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: steady space is degenerate: singular values ")
        assert not re.search(r"inf|nan|-0\.000e", err), err


class TestExitCodes:
    def test_open_root_search_maps_to_4(self, monkeypatch, tmp_path, capsys):
        from neqfridge import experiments

        # the reference's searches take up to about ten rounds
        monkeypatch.setattr(experiments, "_MAX_ROUNDS", 3)
        assert main(["maximize", "--out", str(tmp_path / "x.json")]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: root search still open after 3 rounds: [")
        lo, hi = map(float, err[err.index("[") + 1:err.index("]")].split(", "))
        assert 0.0 < lo < hi

    def test_unbracketed_root_search_maps_to_4(self, monkeypatch, tmp_path, capsys):
        from neqfridge import experiments

        # dQ1^g/dE1's sign H made positive at every E1, so the power search's bracket
        # holds no sign change
        slopes = experiments._e1_slopes
        monkeypatch.setattr(experiments, "_e1_slopes",
                            lambda e1, base: (slopes(e1, base)[0], np.ones_like(e1)))
        assert main(["maximize", "--out", str(tmp_path / "x.json")]) == 4
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: root not bracketed: [")

    def test_degenerate_solver_maps_to_3(self, monkeypatch, tmp_path):
        from neqfridge import cli
        from neqfridge.errors import DegenerateSteadyStateError

        def boom(*args, **kwargs):
            raise DegenerateSteadyStateError("synthetic degeneracy")

        monkeypatch.setattr(cli, "solve_oracle", boom)
        assert main(["steady", "--out", str(tmp_path / "x.json")]) == 3

    def test_missing_config_maps_to_2(self):
        assert main(["steady", "--config", "/nonexistent/path.cfg"]) == 2

    def test_other_package_error_maps_to_4(self, monkeypatch, tmp_path, capsys):
        from neqfridge import cli
        from neqfridge.errors import NeqFridgeError

        def boom(*args, **kwargs):
            raise NeqFridgeError("synthetic package error")

        monkeypatch.setattr(cli, "solve_oracle", boom)
        assert main(["steady", "--out", str(tmp_path / "x.json")]) == 4
        assert capsys.readouterr().err == "error: synthetic package error\n"


class TestParserReuse:
    def test_earlier_calls_leave_no_trace(self, tmp_path):
        first, last = tmp_path / "first.json", tmp_path / "last.json"
        assert main(["steady", "--out", str(first)]) == 0
        assert main(["steady", "--g", "0.02", "--out", str(tmp_path / "g.json")]) == 0
        assert main(["validate", "--grid", "2", "--out", str(tmp_path / "v.json")]) == 0
        assert main(["steady", "--out", str(last)]) == 0
        assert last.read_bytes() == first.read_bytes()

    def test_import_does_not_build_the_parser(self):
        code = ("import neqfridge.cli as cli; "
                "assert cli.build_parser.cache_info().currsize == 0; "
                "cli.main(['--version'])")
        src = os.path.dirname(os.path.dirname(neqfridge.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("neqfridge ")

    def test_import_does_not_build_the_tables(self):
        code = ("import neqfridge.cli, neqfridge.dissipation as d, neqfridge.steadystate as s, "
                "neqfridge.linalg as l; "
                "assert d.sector_tables.cache_info().currsize == 0; "
                "assert l.pauli_basis.cache_info().currsize == 0")
        src = os.path.dirname(os.path.dirname(neqfridge.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
