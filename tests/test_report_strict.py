"""`report` rebuilds each row's verdict from its numbers and refuses, with
exit 2 and one line naming the file and the row, what it cannot trust."""

import copy
import json

import pytest

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
    doc = {"schema": "conformal2d/1", "checks": [], "passed": True}
    assert run_report(tmp_path, capsys, doc)[0] == 0
