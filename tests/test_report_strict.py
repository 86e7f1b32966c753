"""`report` rebuilds each row's verdict from its numbers and refuses, with
exit 2 and one line naming the file and the row, what it cannot trust."""

import contextlib
import copy
import io
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conformal2d.cli import main


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    out = tmp_path_factory.mktemp("verify") / "counterexample.json"
    assert main(["verify", "--suite", "counterexample", "--out", str(out)]) == 0
    return json.loads(out.read_text())


def run_report(tmp_path, capsys, doc):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    code = main(["report", str(path)])
    return code, str(path), capsys.readouterr().err


def with_row(doc, i, **fields):
    doc = copy.deepcopy(doc)
    doc["checks"][i].update(fields)
    return doc


REFUSED = {
    "flipped verdict": ({"passed": False}, "disagrees"),
    "NaN that passes": ({"max_error": "NaN", "passed": True}, "disagrees"),
    "error above tolerance that passes": ({"max_error": 1.0, "passed": True}, "disagrees"),
    "string verdict": ({"passed": "true"}, "not a JSON bool"),
    "integer verdict": ({"passed": 1}, "not a JSON bool"),
    "no points": ({"points_tested": 0}, "not an int >= 1"),
    "fractional points": ({"points_tested": 1.5}, "not an int >= 1"),
    "string points": ({"points_tested": "2"}, "not an int >= 1"),
    "boolean points": ({"points_tested": True}, "not an int >= 1"),
    "string error": ({"max_error": "small"}, "not a number"),
    "boolean tolerance": ({"tolerance": True}, "not a number"),
    "infinite tolerance": ({"tolerance": "Infinity", "max_error": 5.0, "passed": True},
                           "is vacuous"),
    "minus-infinite error": ({"max_error": "-Infinity", "passed": True},
                             "is vacuous"),
    "string witnesses": ({"witnesses": "ab"}, "not [label, error] pairs"),
    "witness triple": ({"witnesses": [[1, "x", 3]]}, "not [label, error] pairs"),
    "witness with a string error": ({"witnesses": [["p", "x"]]}, "not a number"),
    "list extras": ({"extras": [1, 2]}, "not a JSON object"),
}


@pytest.mark.parametrize("case", sorted(REFUSED))
def test_report_refuses_a_row_it_cannot_trust(tmp_path, capsys, written, case):
    fields, reason = REFUSED[case]
    code, path, err = run_report(tmp_path, capsys, with_row(written, 1, **fields))
    assert code == 2
    assert len(err.splitlines()) == 1
    name = written["checks"][1]["name"]
    assert err.startswith(f"config error: {path}: check 1 ({name!r}): ")
    assert reason in err


def test_report_refuses_a_row_whose_name_is_not_a_string(tmp_path, capsys, written):
    code, path, err = run_report(tmp_path, capsys, with_row(written, 0, name=5))
    assert (code, err) == (2, f"config error: {path}: check 0 (5): name 5 is not a string\n")


def test_report_refuses_a_row_with_a_missing_key(tmp_path, capsys, written):
    doc = copy.deepcopy(written)
    del doc["checks"][0]["tolerance"]
    code, path, err = run_report(tmp_path, capsys, doc)
    assert code == 2
    assert err.strip().endswith("check 0 ('counterexample-matrices'): missing tolerance")


@pytest.mark.parametrize("top", [{"checks": []}, {}, {"checks": [], "passed": None}])
def test_report_refuses_a_payload_with_no_rows_and_no_verdict(tmp_path, capsys, top):
    doc = {"schema": "conformal2d/1", **top}
    code, path, err = run_report(tmp_path, capsys, doc)
    assert code == 2
    assert err == f"config error: {path}: no check rows and no passed verdict\n"


def test_report_refuses_a_non_boolean_payload_verdict(tmp_path, capsys, written):
    doc = dict(written, passed="yes")
    code, path, err = run_report(tmp_path, capsys, doc)
    assert (code, err) == (2, f"config error: {path}: passed 'yes' is not a JSON bool\n")


def test_report_keeps_every_row_of_a_report_merged_with_itself(tmp_path, capsys, written):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(written))
    merged = tmp_path / "merged.json"
    assert main(["report", str(path), str(path), "--out", str(merged)]) == 0
    rows = json.loads(merged.read_text())["checks"]
    assert rows == written["checks"] + written["checks"]


def test_report_accepts_a_checkless_payload_with_a_verdict(tmp_path, capsys):
    doc = {"schema": "conformal2d/1", "command": "moving-spheres", "checks": [],
           "passed": True}
    assert run_report(tmp_path, capsys, doc)[0] == 0


@pytest.mark.parametrize("command", ["verify", "envelope", "solve-radial"])
def test_report_refuses_a_row_writing_payload_with_no_rows(tmp_path, capsys, written, command):
    doc = dict(written, command=command, checks=[])
    code, path, err = run_report(tmp_path, capsys, doc)
    assert (code, err) == (2, f"config error: {path}: {command} payload with no check rows\n")


@pytest.mark.parametrize("command", [None, "solve-bubble", 5])
def test_report_refuses_a_rowless_payload_of_any_other_command(tmp_path, capsys, written,
                                                             command):
    """Only moving-spheres and report payloads may hold no rows; None deletes the key."""
    doc = dict(written, command=command, checks=[])
    if command is None:
        del doc["command"]
    code, path, err = run_report(tmp_path, capsys, doc)
    name = "command-less" if command is None else command
    assert (code, err) == (2, f"config error: {path}: {name} payload with no check rows\n")


@pytest.mark.parametrize("passed, code", [(True, 0), (False, 1)])
def test_report_counts_a_moving_spheres_payload_through_its_verdict(tmp_path, capsys,
                                                                    passed, code):
    doc = {"schema": "conformal2d/1", "command": "moving-spheres", "checks": [],
           "passed": passed}
    assert run_report(tmp_path, capsys, doc)[0] == code


# -- no mutation of a real report passes -------------------------------------------

REQUIRED = ("name", "points_tested", "max_error", "tolerance", "passed")
NOT_FINITE = ["NaN", "Infinity", "-Infinity", math.nan, math.inf, -math.inf]
NOT_NUMBERS = NOT_FINITE + ["small", True, False, None]
BAD_WITNESSES = ["ab", 5, None, {"p": 1.0}, ["ab"], [[1, 2.0]], [["p"]],
                 [["p", 1.0, 2.0]], [["p", "x"]], [["p", None]], [["p", True]],
                 [["p", 1.0], "q"]]
BAD_EXTRAS = [[1, 2], [], "x", 3, 1.5, None, True]


@st.composite
def mutations(draw, n_rows):
    """(row index or None, description, mutate(doc)) for one untrustworthy field."""
    i = draw(st.integers(0, n_rows - 1))
    kind = draw(st.sampled_from(["flip", "number", "missing", "points", "witnesses",
                                 "extras", "empty"]))
    if kind == "empty":
        return None, kind, lambda doc: doc.update(checks=[])
    if kind == "flip":
        key, value = "passed", None
    elif kind == "number":
        key = draw(st.sampled_from(["max_error", "tolerance", "points_tested"]))
        value = draw(st.sampled_from(NOT_NUMBERS))
    elif kind == "points":
        key, value = "points_tested", draw(st.integers(max_value=0))
    elif kind == "witnesses":
        key, value = kind, draw(st.sampled_from(BAD_WITNESSES))
    elif kind == "extras":
        key, value = kind, draw(st.sampled_from(BAD_EXTRAS))
    else:
        key, value = draw(st.sampled_from(REQUIRED)), None

    def mutate(doc):
        row = doc["checks"][i]
        if kind == "missing":
            del row[key]
        elif kind == "flip":
            row[key] = not row[key]
        else:
            row[key] = value

    return i, f"{kind} {key}={value!r}", mutate


@pytest.fixture(scope="module")
def two_suites(tmp_path_factory):
    out = tmp_path_factory.mktemp("verify") / "two.json"
    assert main(["verify", "--suite", "counterexample,bubble", "--out", str(out)]) == 0
    return json.loads(out.read_text()), out.parent


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_no_mutation_of_a_real_report_exits_0(two_suites, data):
    written, folder = two_suites
    i, what, mutate = data.draw(mutations(len(written["checks"])))
    doc = copy.deepcopy(written)
    mutate(doc)
    path, out = folder / "mutated.json", folder / "merged.json"
    path.write_text(json.dumps(doc))
    out.unlink(missing_ok=True)
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(["report", str(path), "--out", str(out)])
    if code == 2:
        assert len(err.getvalue().splitlines()) == 1, what
        assert err.getvalue().startswith("config error: "), what
    else:
        assert code == 1 and i is not None, what
        assert json.loads(out.read_text())["checks"][i]["passed"] is False, what
