"""The CLI's numeric domain: every value of every numeric flag ends in one
stderr line and exit 2, or in a JSON report whose exit code is 1 exactly when
a row fails.  Also the bounded radial march, the grid and point parsers'
messages, the inputs report refuses, and the CSV dialect of --csv-dir."""

import contextlib
import csv
import io
import json
import time
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conformal2d.cli import main

VALUES = ["nan", "inf", "-inf", "0", "-1", "1e300", "5e-324"]
SEEDS = ["-1", "0", str(2**64)]
NODES = ["1", "2", "1000000000"]


def run(argv):
    """(exit code, stdout, stderr lines); each warning counts as the stderr
    line it prints outside a test run."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as e:  # argparse's usage errors
                code = e.code
    return code, out.getvalue(), err.getvalue().splitlines() + [str(w.message) for w in caught]


def flags(**strategies):
    """argv of the given flags, each left out (its default) or given a value."""
    return st.fixed_dictionaries({k: st.none() | s for k, s in strategies.items()}).map(
        lambda d: [a for k, v in d.items() if v is not None
                   for a in ("--" + k.replace("_", "-"), v)])


value = st.sampled_from(VALUES)
grid = st.builds("{}:{}:{}".format, value, value, st.sampled_from(NODES))
point = st.builds("{},{}".format, value, value)
COMMANDS = st.one_of(
    flags(tol=value, seed=st.sampled_from(SEEDS)).map(
        lambda a: ["verify", "--suite", "counterexample,bubble", *a]),
    flags(eps=value, tol=value, grid=grid).map(lambda a: ["envelope", *a]),
    flags(v0=value, cone=value, tol=value, grid=grid).map(lambda a: ["solve-radial", *a]),
    flags(lam_max=value, tol=value, x=point).map(lambda a: ["moving-spheres", *a]),
)


@settings(max_examples=150, deadline=None)
@given(argv=COMMANDS)
def test_every_numeric_flag_value_ends_in_one_line_or_a_report(argv):
    code, out, err = run(argv)
    if code == 2:
        assert len(err) == 1, err
        return
    assert code in (0, 1), (code, err)
    payload = json.loads(out)
    failed = [row["name"] for row in payload["checks"] if not row["passed"]]
    assert (code == 1) == bool(failed) == (payload["passed"] is False)


def test_negative_grid_start_reaches_the_grid_parser():
    code, _, err = run(["envelope", "--grid", "-1:1:2"])
    assert code == 2 and err == ["error: radii must be nonnegative"]
    code, _, err = run(["solve-radial", "--grid", "-1:1:2"])
    assert code == 2 and err == [
        "config error: radial solve starts at r = 0; use a grid 0:r1:n"]


@pytest.mark.parametrize("r1", ["1e300", "250001"])
def test_radial_march_beyond_the_node_cap_is_refused(r1):
    start = time.perf_counter()
    code, _, err = run(["solve-radial", "--grid", f"0:{r1}:2"])
    assert time.perf_counter() - start < 1.0
    assert code == 2 and len(err) == 1
    assert err[0].startswith("config error: radial solve reaches at most r1 = 250000 ")


def test_radial_march_below_the_cap_runs():
    code, out, _ = run(["solve-radial", "--grid", "0:1000:2"])
    assert code == 0 and json.loads(out)["passed"] is True


@pytest.mark.parametrize("argv, message", [
    (["envelope", "--grid", "0:1"], "grid must be r0:r1:n, got '0:1'"),
    (["envelope", "--grid", "0:a:3"], "grid must be r0:r1:n with numeric parts, got '0:a:3'"),
    (["envelope", "--grid", "0:1:1"], "grid requires finite r1 > r0 and n >= 2"),
    (["moving-spheres", "--x", "a,0"], "point must be numeric, got 'a,0'"),
])
def test_parser_messages(argv, message):
    code, _, err = run(argv)
    assert code == 2 and err == [f"config error: {message}"]


def test_report_refuses_a_file_that_is_not_json(tmp_path):
    path = tmp_path / "r.json"
    path.write_text("not json\n")
    code, _, err = run(["report", str(path)])
    assert code == 2 and len(err) == 1
    assert err[0].startswith(f"config error: {path}: not a JSON report: ")


def test_report_refuses_checks_that_are_not_a_list(tmp_path):
    path = tmp_path / "r.json"
    path.write_text(json.dumps({"schema": "conformal2d/1", "checks": {}, "passed": True}))
    code, _, err = run(["report", str(path)])
    assert code == 2 and err == [f"config error: {path}: checks is not a list"]


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_csv_dialect(tmp_path):
    assert run(["verify", "--suite", "trace", "--csv-dir", str(tmp_path)])[0] == 0
    witness = tmp_path / "check-trace-z2.csv"
    raw = witness.read_bytes().decode()
    # CRLF line ends; a label is quoted only because it holds a comma
    assert raw.startswith("label,error\r\n\"") and raw.endswith("\r\n")
    rows = read_csv(witness)
    assert rows[0] == ["label", "error"] and len(rows) > 1
    assert all("," in label and float(err) >= 0.0 for label, err in rows[1:])

    assert run(["moving-spheres", "--x", "0.1,0", "--csv-dir", str(tmp_path)])[0] == 0
    trace = read_csv(tmp_path / "search-trace.csv")
    assert trace[0] == ["lambda", "admissible", "min_slack", "max_abs_slack"]
    assert len(trace) == 4 and {r[1] for r in trace[1:]} == {"0", "1"}
    assert len(read_csv(tmp_path / "slack-curve.csv")) == 18
