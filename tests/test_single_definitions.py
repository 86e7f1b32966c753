"""Each formula the covariance block and the radial solver share with the
one-point routes has one definition: the block calls the scalar routes'
helpers, ode_solve ends on a cone exit in one place, radial writes CSV
through one writer, every handler that catches a numerical error names
one tuple, and a jet has one format, its Wirtinger channels."""

import ast
import dataclasses
from pathlib import Path

import conformal2d
import conformal2d.fields as fields
import conformal2d.invariance as invariance
import conformal2d.radial as radial
import conformal2d.suites as suites
from conformal2d import Jet2

SRC = Path(conformal2d.__file__).parent


def functions(module):
    tree = ast.parse(Path(module.__file__).read_text())
    return {node.name: node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}


def source():
    return "".join(p.read_text() for p in sorted(SRC.glob("*.py")))


def test_invariance_defines_no_matrix_formula_of_its_own():
    defined = functions(invariance)
    assert "_eig_columns" not in defined
    assert not [name for name in defined
                if any(word in name for word in ("eig", "jacobian", "defect", "conj", "orth"))]
    # the block's helpers are the ones the one-point routes call
    from conformal2d import geometry, mobius
    assert invariance._jacobians is mobius._jacobians
    assert invariance._eig_pair is geometry._eig_pair
    assert invariance._conj_entries is geometry._conj_entries
    assert invariance._orth_defect is geometry._orth_defect


def test_shared_formulas_are_written_once():
    text = source()
    assert text.count("np.eye(2)") == 1
    assert text.count("hypot(0.5 * (") == 1


def test_covariance_block_has_two_failure_checks():
    block = functions(invariance)["_covariance_block"]
    loops = [node for node in ast.walk(block) if isinstance(node, ast.For)]
    assert len(loops) == 2
    assert all("flatnonzero" in ast.unparse(loop.iter) for loop in loops)


def test_ode_solve_has_one_cone_exit_handler():
    solve = functions(radial)["ode_solve"]
    handlers = [node for node in ast.walk(solve) if isinstance(node, ast.ExceptHandler)
                and ast.unparse(node.type) == "_ConeExitSignal"]
    assert len(handlers) == 1
    assert not [node for node in ast.walk(solve) if isinstance(node, ast.Break)]


def test_radial_opens_one_csv_writer():
    assert Path(radial.__file__).read_text().count("csv.writer(") == 1


def test_numerical_errors_are_one_tuple():
    handlers = [ast.unparse(node.type) for path in sorted(SRC.glob("*.py"))
                for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, ast.ExceptHandler) and node.type is not None]
    assert not [h for h in handlers if "ArithmeticError" in h]
    # the CLI's two handlers, the covariance block's replay and the probe's fallback
    assert handlers.count("NUMERICAL_ERRORS") == 4


def test_a_jet_is_its_wirtinger_channels():
    assert [f.name for f in dataclasses.fields(Jet2)] == ["value", "u_z", "u_zz", "u_zzbar"]
    defined = {node.name for path in sorted(SRC.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.FunctionDef)}
    assert "from_wirtinger" not in defined


def from_real_calls(node):
    return [call for call in ast.walk(node) if isinstance(call, ast.Call)
            and ast.unparse(call.func).endswith("from_real")]


def test_from_real_is_called_only_by_fd_jet_and_cross_suite():
    everywhere = [call for path in sorted(SRC.glob("*.py"))
                  for call in from_real_calls(ast.parse(path.read_text()))]
    fd = from_real_calls(functions(fields)["fd_jet"])
    cross = from_real_calls(functions(suites)["cross_suite"])
    assert fd and cross and len(fd) + len(cross) == len(everywhere)
