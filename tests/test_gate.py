"""The one parameter gate: a constructed ModelParams is the only validation.

Past the gate every closed form and the oracle are total on the model: an
observable undefined at a point is NaN there, never a ParameterError.  The
property test draws valid models down to a frozen target bath; the source
walks keep new re-checks from creeping back into the package, and new
knobs (defaulted parameters and dataclass fields) from appearing unnamed.
"""

import ast
import math
import warnings
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings, strategies as st

from neqfridge import ModelParams, closed_form_table, validate

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


# the functions that may name ParameterError (or its subclass) outside an
# except clause: the ModelParams gate and the frame rules it shares, the
# search and run specs, the window search's errors, the ensemble's stall, the
# CLI's config and flag checks, and argument guards a model does not cover
ALLOWED = {
    "model.ModelParams.__post_init__", "model._frame_gaps",
    "experiments.SweepSpec.__post_init__", "experiments.EnsembleSpec.__post_init__",
    "experiments._check_points", "experiments._window_error", "experiments.random_ensemble",
    "cli._load_config", "cli.cmd_figure", "cli.cmd_validate",
}
PARAMETER_ERRORS = {"ParameterError", "ResonanceInfeasibleError"}


def parameter_error_sites() -> set[str]:
    """module.qualname of every function that raises, builds or passes (to
    ``_require`` or a rule tuple) a ParameterError."""
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
