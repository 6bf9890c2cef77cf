"""The one parameter gate: a constructed ModelParams is the only validation.

Past the gate every closed form and the oracle are total on the model: an
observable undefined at a point is NaN there, never a ParameterError.  The
property test draws valid models down to a frozen target bath; the verdict
tests pin each rule's message and which element's error a batch raises; the
source walks keep new re-checks from creeping back into the package, and new
knobs (defaulted parameters and dataclass fields) from appearing unnamed.
"""

import ast
import math
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from neqfridge import ModelParams, SweepSpec, closed_form_table, sweep, validate
from neqfridge.errors import ParameterError, ResonanceInfeasibleError
from neqfridge.model import REFERENCE, _gate_values, _verdicts, resonant_frame

SRC = Path(__file__).resolve().parents[1] / "src" / "neqfridge"
LOG_T1_MIN = math.log(1e-300)


@st.composite
def gated_models(draw) -> ModelParams:
    """Models in the ``validate --grid`` box, except that T1 is log-uniform
    from 1e-300 up to T2, with the edges T1 = T2 = T3, T3 = T2, gamma in
    {0, E1/2} and g = 0.  The machine baths stay in the box, so they never
    freeze."""
    unit = st.floats(0.0, 1.0)
    e1 = 0.5 + 1.5 * draw(unit)
    gamma = draw(st.sampled_from([0.0, 0.5 * e1, 0.49 * e1 * draw(unit)]))
    t2 = 0.5 + 3.5 * draw(unit)
    t3 = draw(st.sampled_from([t2, t2 + 4.0 * draw(unit)]))
    log_t1 = LOG_T1_MIN + draw(unit) * (math.log(t2) - LOG_T1_MIN)
    t1 = draw(st.sampled_from([t2, min(math.exp(log_t1), t2)]))
    g = draw(st.sampled_from([0.0, 0.002 + 0.028 * draw(unit)]))
    return ModelParams(e1=e1, e3=2.0 + 6.0 * draw(unit), gamma=gamma, t1=t1, t2=t2, t3=t3,
                       p=0.002 + 0.028 * draw(unit), g=g)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(params=gated_models())
@example(params=ModelParams(e1=1.0, e3=4.0, gamma=0.5, t1=2.0, t2=2.0, t3=2.0, p=0.01, g=0.0))
@example(params=ModelParams(e1=1.0, e3=4.0, gamma=0.3, t1=1e-300, t2=2.0, t3=4.0, p=0.01, g=0.01))
def test_every_valid_model_passes_without_an_error_or_a_warning(params):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table = closed_form_table(params)
        report = validate(params)
    assert np.isfinite([table["d"], table["q1g"], table["q23"]]).all()
    assert report.passed, {name: g for name, g in report.groups.items() if not g["passed"]}
    assert report.oracle.numeric.residual <= 1e-10


# one model per rule of the table, in its order, each breaking that rule first (the
# reference's other fields hold), with its verdict, error class and message
RULE_CASES = [
    (dict(e1=math.inf), 1, ParameterError, "e1 must be finite, got inf"),
    (dict(e3=math.nan), 2, ParameterError, "e3 must be finite, got nan"),
    (dict(gamma=math.inf), 3, ParameterError, "gamma must be finite, got inf"),
    (dict(t1=math.nan), 4, ParameterError, "t1 must be finite, got nan"),
    (dict(t2=math.nan), 5, ParameterError, "t2 must be finite, got nan"),
    (dict(t3=math.inf), 6, ParameterError, "t3 must be finite, got inf"),
    (dict(p=math.inf), 7, ParameterError, "p must be finite, got inf"),
    (dict(g=math.nan), 8, ParameterError, "g must be finite, got nan"),
    (dict(e1=-0.0, gamma=0.0), 9, ParameterError, "qubit gaps must be positive: E1=-0.0, E3=4.0"),
    # -inf alone passes the finiteness rules and breaks its sign rule
    (dict(e1=-math.inf), 9, ParameterError, "qubit gaps must be positive: E1=-inf, E3=4.0"),
    (dict(gamma=-5e-324), 10, ParameterError, "internal coupling must be nonnegative: gamma=-5e-324"),
    (dict(gamma=0.6), 11, ResonanceInfeasibleError,
     "resonance infeasible: gamma > E1/2 (gamma=0.6, E1=1.0)"),
    (dict(t1=-0.0), 12, ParameterError, "temperatures must be positive: T=(-0.0, 2.0, 4.0)"),
    (dict(t1=3.0), 13, ParameterError, "fridge regime requires T1 <= T2 <= T3, got (3.0, 2.0, 4.0)"),
    (dict(p=0.0), 14, ParameterError, "dissipation rate must be positive: p=0.0"),
    (dict(g=-1e308), 15, ParameterError, "tripartite coupling must be nonnegative: g=-1e+308"),
    (dict(g=-math.inf), 15, ParameterError, "tripartite coupling must be nonnegative: g=-inf"),
    (dict(e3=0.05), 16, ParameterError, "dressed engine gap must be positive: "
     "eps3=-0.04999999999999993 at E1=1.0, E3=0.05, gamma=0.3"),
    (dict(e3=0.1), 16, ParameterError,
     "dressed engine gap must be positive: eps3=0.0 at E1=1.0, E3=0.1, gamma=0.3"),
    (dict(e3=1e308), 17, ParameterError,
     "dressed engine gap overflows: eps3=inf at E1=1.0, E3=1e+308, gamma=0.3"),
]


@pytest.mark.parametrize("changes, verdict, error, message", RULE_CASES)
def test_each_rule_has_its_verdict_and_message(changes, verdict, error, message):
    assert _verdicts(_gate_values({**REFERENCE.as_dict(), **changes})) == verdict
    with pytest.raises(error) as caught:
        replace(REFERENCE, **changes)
    assert type(caught.value) is error and str(caught.value) == message


@pytest.mark.parametrize("args, message", [
    ((1.0, 4.0, 0.6), "resonance infeasible: gamma > E1/2 (gamma=0.6, E1=1.0)"),
    ((-0.0, 4.0, 0.0), "qubit gaps must be positive: E1=-0.0, E3=4.0"),
    ((1.0, 4.0, math.nan), "internal coupling must be nonnegative: gamma=nan"),
    # the frame reads no finiteness rule: an infinite E1 leaves eps3 nan
    ((math.inf, 4.0, 0.3), "dressed engine gap must be positive: eps3=nan at E1=inf, E3=4.0, gamma=0.3"),
    ((1.0, 1e308, 0.3), "dressed engine gap overflows: eps3=inf at E1=1.0, E3=1e+308, gamma=0.3"),
])
def test_frame_rules_have_their_messages(args, message):
    with pytest.raises(ParameterError) as caught:
        resonant_frame(*args)
    assert str(caught.value) == message


def test_a_valid_model_and_frame_pass_subnormal_and_overflowing_fields():
    # the smallest positive p, -0.0 couplings, and finite temperatures whose sum overflows
    ModelParams(e1=1.0, e3=4.0, gamma=-0.0, t1=1.0, t2=1e308, t3=1.7e308, p=5e-324, g=-0.0)
    assert _verdicts(_gate_values(dict(e1=5e-324, e3=4.0, gamma=0.0))) == 0
    resonant_frame(5e-324, 4.0, 0.0)


def test_a_batch_raises_the_first_rule_broken_anywhere():
    # elements 0, 1 and 2 break the p, ordering and temperature rules, so element 2,
    # which breaks the earliest rule, is raised although it comes last
    t1, p = np.array([4.0 / 3.0, 3.0, -1.0]), np.array([0.0, 0.01, 0.01])
    np.testing.assert_array_equal(_verdicts(_gate_values({**REFERENCE.as_dict(), "t1": t1,
                                                          "p": p})), [14, 13, 12])
    with pytest.raises(ParameterError, match=r"^temperatures must be positive: T=\(-1\.0, 2\.0, 4\.0\)$"):
        replace(REFERENCE, t1=t1, p=p)
    # -inf at element 0 breaks only the sign rule there; nan at element 1 its finiteness
    with pytest.raises(ParameterError, match=r"^e1 must be finite, got nan$"):
        replace(REFERENCE, e1=np.array([-math.inf, math.nan]))
    # the frame rules of a batch: element 0 breaks resonance, element 1 the coupling's
    # sign, and element 2 the gaps' sign, the first frame rule
    with pytest.raises(ParameterError, match=r"^qubit gaps must be positive: E1=-1\.0, E3=4\.0$"):
        resonant_frame(np.array([1.0, 1.0, -1.0]), 4.0, np.array([0.6, -1e-300, 0.1]))


def test_sweep_skips_each_point_with_its_own_scalar_error():
    # seeded sweeps over signed ranges around 0 and bases with extreme fields, among them
    # p = 5e-324 and g = 1e308, whose g/p overflows: every skipped point's reason is the
    # error of building that point alone, and no kept point warns
    rng = np.random.default_rng(32)
    specials = [0.0, -0.0, -1.0, 0.05, 0.6, 3.0, 1e308, 5e-324, -5e-324, math.inf, -math.inf, math.nan]
    field = {"beta3": "t3", "e1": "e1", "gamma": "gamma"}
    skipped_total = 0
    for _ in range(150):
        axis = str(rng.choice(list(field)))
        changes = {str(name): float(rng.choice(specials))
                   for name in rng.choice(["e1", "e3", "gamma", "t1", "t2", "p", "g"], 1)}
        try:
            base = replace(REFERENCE, **changes)
        except ParameterError:
            base = replace(REFERENCE, e3=float(rng.choice([0.5, 4.0])))
        lo = float(rng.uniform(-2.0, 1.0))
        spec = SweepSpec(base, axis, lo, lo + float(rng.uniform(0.1, 4.0)), int(rng.integers(2, 30)))
        table, skipped = sweep(spec)
        values = np.linspace(spec.lo, spec.hi, spec.points)
        with np.errstate(divide="ignore"):
            points = (1.0 / values if axis == "beta3" else values).tolist()
        reasons = {}
        for value, x in zip(values.tolist(), points):
            try:
                replace(base, **{field[axis]: x})
            except ParameterError as exc:
                reasons[value] = str(exc)
        assert {row["value"]: row["reason"] for row in skipped} == reasons
        assert len(table["axis_value"]) + len(skipped) == spec.points
        skipped_total += len(skipped)
    assert skipped_total > 1000


# the functions that may name ParameterError (or its subclass) outside an
# except clause: the gate's error of a rule of its table (``model._RULES``), the
# search and run specs, the window search's errors, the ensemble's stall, the
# CLI's config and flag checks, and argument guards a model does not cover
ALLOWED = {
    "model._rule_error",
    "experiments.SweepSpec.__post_init__", "experiments.EnsembleSpec.__post_init__",
    "experiments._check_points", "experiments._window_error", "experiments.random_ensemble",
    "cli._load_config", "cli.cmd_figure", "cli.cmd_validate",
}
PARAMETER_ERRORS = {"ParameterError", "ResonanceInfeasibleError"}


def parameter_error_sites() -> set[str]:
    """module.qualname of every function that raises, builds, returns or passes
    a ParameterError."""
    sites = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        caught = {id(node) for handler in ast.walk(tree)
                  if isinstance(handler, ast.ExceptHandler) and handler.type
                  for node in ast.walk(handler.type)}

        def visit(node, scope, in_function):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                    visit(child, scope + [child.name],
                          in_function or isinstance(child, ast.FunctionDef))
                    continue
                if (in_function and isinstance(child, ast.Name) and child.id in PARAMETER_ERRORS
                        and id(child) not in caught):
                    sites.add(".".join([path.stem, *scope]))
                visit(child, scope, in_function)

        visit(tree, [], False)
    return sites


def test_parameter_errors_come_only_from_the_gate():
    assert parameter_error_sites() == ALLOWED


# every defaulted parameter and dataclass field default in the package, as
# module.qualname.name: a new knob fails here until it is named
DEFAULTED = {
    "cli.main.argv",
    "experiments.EnsembleSpec.eta_c", "experiments.EnsembleSpec.seed",
    "experiments.EnsembleSpec.t2_range",
    "experiments.EnsembleSpec.t3_mult_range",
    "experiments.sweep_fig3.gammas", "experiments.sweep_fig4.gammas",
    "experiments.sweep_fig5.gammas",
    "invariants.validate.tol",
}


def _is_dataclass(node: ast.ClassDef) -> bool:
    targets = (d.func if isinstance(d, ast.Call) else d for d in node.decorator_list)
    return any(isinstance(t, ast.Name) and t.id == "dataclass" for t in targets)


def defaulted_names() -> set[str]:
    """module.qualname.name of every parameter with a default (functions and
    lambdas, nested ones too) and every dataclass field with a default."""
    names = set()
    for path in sorted(SRC.glob("*.py")):

        def visit(node, scope):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.Lambda)):
                    args, qual = child.args, scope + [getattr(child, "name", "<lambda>")]
                    positional = args.posonlyargs + args.args
                    defaulted = positional[len(positional) - len(args.defaults):]
                    defaulted += [a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
                    names.update(".".join([path.stem, *qual, a.arg]) for a in defaulted)
                elif isinstance(child, ast.ClassDef):
                    qual = scope + [child.name]
                    if _is_dataclass(child):
                        names.update(".".join([path.stem, *qual, stmt.target.id]) for stmt in child.body
                                     if isinstance(stmt, ast.AnnAssign) and stmt.value is not None)
                else:
                    qual = scope
                visit(child, qual)

        visit(ast.parse(path.read_text()), [])
    return names


def test_every_default_is_named():
    assert defaulted_names() == DEFAULTED
