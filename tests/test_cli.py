import json
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import neqfridge
from neqfridge import validate
from neqfridge.cli import main
from neqfridge.model import thermal_population

from conftest import P0

# group names of `validate`, in report order
GROUPS = [
    "population_range", "detailed_balance", "oracle_equivalence", "steady_state_positivity",
    "first_law", "current_route_agreement", "tilde_current_identities", "channel_algebra",
    "localization_identity", "sign_chain", "fictitious_bath",
]


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


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

    @pytest.mark.parametrize("temps, resolved", [
        (("2", "2", "2"), False), (("1", "1", "1"), False), (("1.99", "2", "2.01"), True),
    ])
    def test_eta_tot_needs_resolved_currents(self, tmp_path, temps, resolved):
        # with all baths at one temperature q1 and q3 are rounding noise, no
        # larger than the disagreement of the two current routes
        out = tmp_path / "steady.json"
        t1, t2, t3 = temps
        assert main(["steady", "--t1", t1, "--t2", t2, "--t3", t3, "--out", str(out)]) == 0
        report = json.loads(out.read_text(), parse_constant=_reject_constant)
        assert (report["performance"]["eta_tot"] is not None) == resolved

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
        from neqfridge.experiments import _scan_range, _stack
        from neqfridge.model import REFERENCE

        assert main(["figure", "fig4", "--gamma", "2.0", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: no cooling found in [")
        lo, hi, _ = _scan_range(_stack([replace(REFERENCE, e1=5.0, gamma=2.0)]))
        scanned = err.split("[", 1)[1].split("]", 1)[0]
        assert [float(v) for v in scanned.split(", ")] == [lo[0], hi[0]]
        assert lo[0] < hi[0]

    @pytest.mark.parametrize("flag", ["--e1", "--config", "--tol"])
    def test_rejects_unread_flags(self, flag):
        with pytest.raises(SystemExit):
            main(["figure", "fig3", flag, "1"])

    @pytest.mark.parametrize("name, points", [("fig3", "-1"), ("fig4", "0"), ("fig5", "1")])
    def test_too_few_points_exit_2(self, tmp_path, capsys, name, points):
        assert main(["figure", name, "--points", points, "--out", str(tmp_path)]) == 2
        assert f"need at least 2 points, got {points}" in capsys.readouterr().err

    def test_fig5_files(self, tmp_path):
        assert main(["figure", "fig5", "--points", "15", "--out", str(tmp_path)]) == 0
        assert (tmp_path / "fig5a.csv").exists()
        assert (tmp_path / "fig5b.csv").exists()

    def test_fig6_deterministic(self, tmp_path):
        d1, d2 = tmp_path / "one", tmp_path / "two"
        assert main(["figure", "fig6", "--n", "30", "--seed", "7", "--out", str(d1)]) == 0
        assert main(["figure", "fig6", "--n", "30", "--seed", "7", "--out", str(d2)]) == 0
        assert (d1 / "fig6a.csv").read_bytes() == (d2 / "fig6a.csv").read_bytes()
        assert (d1 / "fig6b.csv").read_bytes() == (d2 / "fig6b.csv").read_bytes()
        lines = (d1 / "fig6a.csv").read_text().splitlines()
        assert any("near_bound" in line for line in lines if not line.startswith("#"))
        assert any(line.startswith("# rng: numpy-PCG64") for line in lines)


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

    def test_small_grid_passes(self, tmp_path):
        out = tmp_path / "validate.json"
        assert main(["validate", "--grid", "3", "--seed", "5", "--out", str(out)]) == 0

    def test_flipped_exponent_fails_named_invariants(self):
        # the wrong Boltzmann-exponent sign for the machine-bath populations
        report = validate(P0, population=lambda e, t: 1.0 - thermal_population(e, t))
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


class TestGeneratorBuilds:
    @pytest.fixture
    def build_count(self, monkeypatch):
        import sys

        from neqfridge import dissipation

        calls = []
        original = dissipation.build_generator_parts

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        # every module that binds the name, so no caller goes around the counter
        for name, module in list(sys.modules.items()):
            if name.startswith("neqfridge") and hasattr(module, "build_generator_parts"):
                monkeypatch.setattr(module, "build_generator_parts", counted)
        return calls

    def test_one_build_per_steady_call(self, build_count, tmp_path):
        assert main(["steady", "--out", str(tmp_path / "steady.json")]) == 0
        assert len(build_count) == 1

    def test_one_build_per_single_point_validate(self, build_count, tmp_path):
        # a parameter flag makes validate check that one point instead of a grid
        assert main(["validate", "--gamma", "0.3", "--out", str(tmp_path / "validate.json")]) == 0
        assert len(build_count) == 1


class TestExitCodes:
    def test_degenerate_solver_maps_to_3(self, monkeypatch, tmp_path):
        from neqfridge import cli
        from neqfridge.errors import DegenerateSteadyStateError

        def boom(*args, **kwargs):
            raise DegenerateSteadyStateError("synthetic degeneracy")

        monkeypatch.setattr(cli, "solve_oracle", boom)
        assert main(["steady", "--out", str(tmp_path / "x.json")]) == 3

    def test_missing_config_maps_to_2(self):
        assert main(["steady", "--config", "/nonexistent/path.cfg"]) == 2

    def test_non_hermitian_generator_maps_to_4(self, monkeypatch, tmp_path, capsys):
        from neqfridge import steadystate
        from neqfridge.linalg import commutator_superop

        # a generator that does not preserve Hermiticity reaches the kernel solve
        monkeypatch.setattr(steadystate, "rotate_superop",
                            lambda *args: commutator_superop(1j * np.diag(np.arange(8.0))))
        assert main(["steady", "--out", str(tmp_path / "x.json")]) == 4
        assert "does not preserve Hermiticity" in capsys.readouterr().err


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
