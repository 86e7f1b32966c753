"""The moving-spheres search has one certificate, the package writes every CSV
through one writer, and the CLI spells non-finite numbers from one table."""

import ast
from pathlib import Path

import conformal2d
import conformal2d.cli as cli
import conformal2d.spheres as spheres

SRC = Path(conformal2d.__file__).parent


def tree(module):
    return ast.parse(Path(module.__file__).read_text())


def functions(module):
    return {node.name: node for node in ast.walk(tree(module))
            if isinstance(node, ast.FunctionDef)}


def test_search_certifies_only_the_probe_root():
    defined = functions(spheres)
    assert "certify" not in defined
    search = defined["critical_lambda"]
    # the probe's sample is the argmin of lam_max's grid, and no other grid's
    reads = {ast.unparse(node.value) for node in ast.walk(search)
             if isinstance(node, ast.Attribute) and node.attr == "argmin"}
    assert reads == {"top"}
    assigned = [ast.unparse(node.value) for node in ast.walk(search)
                if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "top"]
    assert assigned == ["stats(lam_max)"]


def open_mode(call: ast.Call):
    if len(call.args) > 1:
        return call.args[1]
    return next((k.value for k in call.keywords if k.arg == "mode"), None)


def test_one_csv_writer_and_one_json_writer():
    text = "".join(p.read_text() for p in sorted(SRC.glob("*.py")))
    assert text.count("csv.writer(") == 1
    writers = set()
    for fn in ast.walk(tree(cli)):
        if not isinstance(fn, ast.FunctionDef):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.Call) and ast.unparse(node.func) == "open":
                mode = open_mode(node)
                if mode is not None and not (isinstance(mode, ast.Constant)
                                             and mode.value.startswith("r")):
                    writers.add(fn.name)
    assert writers == {"_emit_json"}


def test_one_spelling_table():
    tables = [node for path in sorted(SRC.glob("*.py"))
              for node in ast.walk(ast.parse(path.read_text()))
              if isinstance(node, ast.Dict) and any(
                  isinstance(v, ast.Constant) and v.value == "-Infinity"
                  for v in [*node.keys, *node.values])]
    assert len(tables) == 1


def test_src_stays_below_4107_lines():
    # 4,161 was src/'s size with the second certificate and the hand-written
    # CSVs; the block jets of the covariance, trace and Liouville sweeps took
    # it to 4,202, and deleting the excluded() predicates brought it to 4,170;
    # deleting the report builders, one-point modes and test-only wrappers,
    # with the report loader's new refusals, brought it to 4,128; jets in
    # Wirtinger channels, with no from_wirtinger round trip, brought it to
    # 4,114; deleting the arguments that another argument fixes (a stored
    # verdict, an ODE's cone, a node count, ms_value's point mode and the
    # Hermitian check's one-point form) brings it to 4,106
    lines = sum(len(p.read_text().splitlines()) for p in SRC.glob("*.py"))
    assert lines < 4107
