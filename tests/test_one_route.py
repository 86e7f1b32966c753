"""The covariance and trace suites reach their residual functions by one
route: src/ defines none of the report builders, one-point modes and
wrappers that only tests called, and covariance_errors_at,
b_covariance_errors_at and trace_residual_at each take a block of points
and nothing else.  No argument restates what another one fixes: a check's
verdict, an ODE's cone or a march's node count."""

import ast
import dataclasses
import inspect
from pathlib import Path

import pytest

import conformal2d
import conformal2d.invariance as invariance
from conformal2d import CheckReport, boundary_solve, ode_solve
from conformal2d.spheres import ms_value

SRC = Path(conformal2d.__file__).parent
DELETED = {"check_a_covariance", "check_b_covariance", "check_trace_conformal",
           "_lambda1_section_min", "_solve_lambda1", "tabulate", "radial_value"}


def bound_names(tree):
    """Every name a module defines, assigns or imports."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.alias):
            yield node.asname or node.name


def test_src_defines_none_of_the_deleted_routes():
    found = sorted((path.name, name) for path in SRC.glob("*.py")
                   for name in bound_names(ast.parse(path.read_text())) if name in DELETED)
    assert not found


def is_none_test(node):
    return (isinstance(node, ast.Compare)
            and any(isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops)
            and any(isinstance(side, ast.Constant) and side.value is None
                    for side in [node.left, *node.comparators]))


PARAMETERS = {
    "covariance_errors_at": ["m", "jets"],
    "b_covariance_errors_at": ["m", "jets"],
    "trace_residual_at": ["u", "psi", "pts"],
}


@pytest.mark.parametrize("name", sorted(PARAMETERS))
def test_each_residual_function_has_one_signature(name):
    tree = ast.parse(Path(invariance.__file__).read_text())
    [fn] = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == name]
    assert [a.arg for a in fn.args.args] == PARAMETERS[name]
    assert not (fn.args.vararg or fn.args.kwarg or fn.args.kwonlyargs or fn.args.posonlyargs)
    assert not fn.args.defaults and not fn.args.kw_defaults
    isinstance_calls = [node for node in ast.walk(fn) if isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Name) and node.func.id == "isinstance"]
    assert not isinstance_calls
    assert not [node for node in ast.walk(fn) if is_none_test(node)]


def test_ms_value_takes_coordinate_arrays_only():
    tree = ast.parse(inspect.getsource(ms_value))
    assert not [node for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                and node.attr == "ndim"]


def test_the_radial_solvers_read_the_cone_and_node_count_they_are_given():
    # ode_solve solves on f.cone; boundary_solve marches onto cfg.n_out nodes
    assert "cone" not in inspect.signature(ode_solve).parameters
    assert "n_out" not in inspect.signature(boundary_solve).parameters


def test_check_report_stores_no_verdict():
    fields = {f.name: f for f in dataclasses.fields(CheckReport)}
    assert "passed" not in fields
    assert fields["witnesses"].kw_only and fields["extras"].kw_only
    assert not any(f.kw_only for name, f in fields.items() if name not in ("witnesses", "extras"))
