"""End-to-end command line runs, in process via main(argv)."""

import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest

from conformal2d import (
    Bubble,
    CheckReport,
    DomainError,
    RadialField,
    RadialProfile,
    Vec2,
    minimize_on_circles,
)
from conformal2d import cli, suites
from conformal2d.cli import main

SCHEMA_KEYS = {"schema", "command", "seed", "config", "checks", "passed",
               "environment", "metadata"}


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_verify_single_suite_stdout(capsys):
    code, payload = run_json(capsys, ["verify", "--suite", "counterexample"])
    assert code == 0
    assert SCHEMA_KEYS <= set(payload)
    assert payload["schema"] == "conformal2d/1"
    assert payload["command"] == "verify"
    assert payload["passed"] is True
    assert payload["checks"]
    for row in payload["checks"]:
        assert row["passed"], row["name"]
    env = payload["environment"]
    assert {"package", "python", "numpy", "scipy"} <= set(env)


def test_verify_out_file_and_witness_csvs(tmp_path, capsys):
    out = tmp_path / "trace.json"
    csvdir = tmp_path / "witness"
    code = main(["verify", "--suite", "trace", "--out", str(out),
                 "--csv-dir", str(csvdir)])
    text = capsys.readouterr().out
    assert code == 0
    # with --out the JSON goes to the file and stdout gets the summary
    assert "passed" in text and "[PASS]" in text
    payload = json.loads(out.read_text())
    assert payload["passed"] is True
    written = list(csvdir.glob("check-*.csv"))
    assert written, "expected witness csv files"
    header = written[0].read_text().splitlines()[0]
    assert header == "label,error"


def test_verify_is_deterministic_modulo_timestamp(capsys):
    runs = []
    for _ in range(2):
        code, payload = run_json(capsys, ["verify", "--suite", "liouville",
                                          "--seed", "11"])
        assert code == 0
        payload.pop("metadata")
        runs.append(json.dumps(payload, sort_keys=True))
    assert runs[0] == runs[1]


def test_verify_unknown_suite_is_config_error(capsys):
    assert main(["verify", "--suite", "nonsense"]) == 2


def test_verify_comma_separated_suites(capsys):
    code, payload = run_json(capsys, ["verify", "--suite", "counterexample,cross"])
    assert code == 0
    names = {row["name"] for row in payload["checks"]}
    assert any(n.startswith("counterexample") for n in names)
    assert any("spectrum" in n or "cross" in n for n in names)


def test_envelope_demo_grid(capsys):
    code, payload = run_json(capsys, ["envelope", "--eps", "0.5", "--eps", "1.0"])
    assert code == 0
    names = [row["name"] for row in payload["checks"]]
    assert "envelope-semiconcavity[eps=0.5]" in names
    assert "envelope-below-input[eps=1]" in names
    assert payload["passed"] is True


def test_envelope_profile_csv_and_outputs(tmp_path, capsys):
    grid = np.linspace(0.0, 6.0, 601)
    RadialProfile(grid, np.abs(grid - 2.0)).to_csv(tmp_path / "kink.csv")
    csvdir = tmp_path / "env"
    code, payload = run_json(capsys, [
        "envelope", "--profile", str(tmp_path / "kink.csv"),
        "--eps", "0.8", "--csv-dir", str(csvdir)])
    assert code == 0
    env_csv = csvdir / "envelope-eps0.8.csv"
    assert env_csv.exists()
    q = RadialProfile.from_csv(env_csv)
    x = np.abs(q.r - 2.0)
    huber = np.where(x <= 0.4, x * x / 0.8, x - 0.2)
    inner = (q.r > 0.5) & (q.r < 5.5)
    step = grid[1] - grid[0]
    assert np.abs(q.v - huber)[inner].max() < 4.0 * step * step


def test_envelope_rejects_bad_eps(capsys):
    assert main(["envelope", "--eps", "-1"]) == 2


@pytest.mark.parametrize("text", ["r,x\n0,1\n1,2\n", "", "r,v\n0,1\n1,two\n",
                                  "r,v\n0,1\n1\n", "r,v\n"],
                         ids=["header", "empty", "non-numeric", "short-row", "no-rows"])
def test_envelope_malformed_profile_is_config_error(tmp_path, capsys, text):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    assert main(["envelope", "--profile", str(path)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("config error:")


def test_envelope_large_grid_memory_is_linear(capsys):
    # an n x n cost matrix would take 8 n^2 bytes, 3.2 GB at n = 20000
    tracemalloc.start()
    try:
        code = main(["envelope", "--grid", "0:6:20000"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    payload = json.loads(capsys.readouterr().out)
    # the run completes with a verdict (the semiconcavity row is judged by
    # second differences over steps of 3e-4, not by this test)
    assert code in (0, 1)
    below = [c for c in payload["checks"] if c["name"].startswith("envelope-below-input")]
    assert below and all(c["passed"] for c in below)
    assert peak < 50 * 2**20


def test_solve_radial_sigma2_csv_round_trip(tmp_path, capsys):
    csvdir = tmp_path / "solve"
    code, payload = run_json(capsys, [
        "solve-radial", "--f", "sigma2", "--grid", "0:5:1000",
        "--csv-dir", str(csvdir)])
    assert code == 0
    assert payload["passed"] is True
    check = payload["checks"][0]
    assert check["name"] == "solve-residual[sigma2]"
    assert check["extras"]["mu"] == pytest.approx(1.0, abs=1e-12)
    assert check["extras"]["cone_exit"] is None

    path = csvdir / "solve-sigma2.csv"
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "r,v,dv,lambda1,lambda2,residual"
    assert len(lines) == 1001

    # rebuild a field from the csv columns and close the loop through the
    # circle-minimum reduction: it must reproduce the solved profile
    rows = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])
    field = RadialField(RadialProfile(rows[:, 0], rows[:, 1], dv=rows[:, 2]))
    prof = minimize_on_circles(field, (0.0, 0.0), rows[::100, 0])
    bubble = Bubble(4.0, 32.0)
    for r, v in zip(prof.r, prof.v):
        assert v == pytest.approx(float(bubble.values(r, 0.0)), abs=1e-6)


def test_solve_radial_grid_must_start_at_zero(capsys):
    assert main(["solve-radial", "--grid", "1:5:100"]) == 2


def test_solve_radial_rejects_sigma2_on_wide_cone(capsys):
    assert main(["solve-radial", "--f", "sigma2", "--cone", "1.2"]) == 2


def test_solve_radial_overflowing_center_value_is_an_error(capsys):
    assert main(["solve-radial", "--v0", "800"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "v0" in err


@pytest.mark.parametrize("argv, error", [
    (["--v0", "12"], 2.4e-2),
    (["--v0", "12", "--f", "sigma1"], 6.4e-3),  # after a spurious cone exit
    (["--v0", "8"], 1.5e-5),
])
def test_solve_radial_fails_off_the_exact_bubble(capsys, argv, error):
    code, payload = run_json(capsys, ["solve-radial", *argv])
    assert code == 1
    residual, bubble = payload["checks"]
    assert residual["name"].startswith("solve-residual[") and residual["passed"]
    assert bubble["name"].startswith("solve-bubble[") and not bubble["passed"]
    assert bubble["max_error"] == pytest.approx(error, rel=0.05)
    assert bubble["tolerance"] == 1e-5


@pytest.mark.parametrize("mu", [math.nan, math.inf])
def test_solve_radial_bubble_row_fails_on_a_non_finite_exact_value(capsys, monkeypatch, mu):
    solve = cli.ode_solve
    monkeypatch.setattr(cli, "ode_solve",
                        lambda *a, **k: dataclasses.replace(solve(*a, **k), mu=mu))
    code, payload = run_json(capsys, ["solve-radial"])
    bubble = payload["checks"][1]
    assert code == 1 and bubble["passed"] is False
    assert bubble["max_error"] in ("NaN", "Infinity")


def test_moving_spheres_default_field(tmp_path, capsys):
    csvdir = tmp_path / "ms"
    code, payload = run_json(capsys, [
        "moving-spheres", "--x", "0,0", "--csv-dir", str(csvdir)])
    assert code == 0
    rep = payload["report"]
    assert rep["unbounded"] is False
    assert rep["lambda_bar"] == pytest.approx(1.0, abs=2e-3)
    assert rep["equality_residual"] < 1e-8
    curve = (csvdir / "slack-curve.csv").read_text().strip().splitlines()
    assert curve[0] == "lambda,min_slack,max_abs_slack"
    assert len(curve) == 18


def test_moving_spheres_inline_field_json(capsys):
    spec = json.dumps({"family": "bubble", "a": 1.0, "b": 2.0})
    code, payload = run_json(capsys, ["moving-spheres", "--field", spec])
    assert code == 0
    assert payload["report"]["lambda_bar"] == pytest.approx(0.5, abs=2e-3)


def test_moving_spheres_missing_field_file(capsys):
    assert main(["moving-spheres", "--field", "/nonexistent/f.json"]) == 3


def test_moving_spheres_bad_point(capsys):
    assert main(["moving-spheres", "--x", "1;2"]) == 2


def test_report_merges_runs(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["verify", "--suite", "counterexample", "--out", str(a)]) == 0
    assert main(["envelope", "--eps", "1.0", "--out", str(b)]) == 0
    capsys.readouterr()
    code = main(["report", str(a), str(b), "--out", str(tmp_path / "m.json")])
    assert code == 0
    merged = json.loads((tmp_path / "m.json").read_text())
    n_a = len(json.loads(a.read_text())["checks"])
    n_b = len(json.loads(b.read_text())["checks"])
    assert len(merged["checks"]) == n_a + n_b


def test_report_propagates_failures(tmp_path, capsys):
    doc = {
        "schema": "conformal2d/1",
        "checks": [{"name": "broken", "points_tested": 1, "max_error": 1.0,
                    "tolerance": 1e-9, "passed": False}],
    }
    path = tmp_path / "fail.json"
    path.write_text(json.dumps(doc))
    assert main(["report", str(path)]) == 1


def test_report_respects_checkless_verdict(tmp_path, capsys):
    # experiment payloads carry passed but no check rows; the merge
    # must not launder their failure into a clean report
    doc = {"schema": "conformal2d/1", "command": "moving-spheres", "checks": [],
           "passed": False}
    path = tmp_path / "experiment.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "m.json"
    assert main(["report", str(path), "--out", str(out)]) == 1
    assert json.loads(out.read_text())["passed"] is False


def test_report_rejects_wrong_schema(tmp_path, capsys):
    path = tmp_path / "alien.json"
    path.write_text(json.dumps({"schema": "other/9", "checks": []}))
    assert main(["report", str(path)]) == 2
    assert main(["report"]) == 2


def _reject_constant(token):
    raise ValueError(f"bare {token} in report JSON")


def _strict_json(text):
    return json.loads(text, parse_constant=_reject_constant)


@pytest.mark.parametrize("exc", [ValueError("bad input"),
                                 OverflowError("math range error"),
                                 DomainError("outside the domain")])
def test_verify_survives_a_raising_suite(tmp_path, capsys, monkeypatch, exc):
    def boom(seed=None, tol=None):
        raise exc

    monkeypatch.setitem(suites.SUITES, "cross", boom)
    out = tmp_path / "v.json"
    code = main(["verify", "--suite", "counterexample,cross,liouville",
                 "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert [line[:6] for line in err.splitlines()] == ["error:"]
    assert type(exc).__name__ in err and "cross" in err
    payload = _strict_json(out.read_text())
    assert payload["passed"] is False
    names = [row["name"] for row in payload["checks"]]
    assert any(n.startswith("counterexample-") for n in names)
    assert any(n.startswith("liouville-pde-") for n in names)
    row = next(r for r in payload["checks"] if r["name"] == "suite-error[cross]")
    assert (row["max_error"], row["tolerance"], row["passed"]) == (1.0, 0.0, False)
    assert row["extras"] == {"exception": type(exc).__name__, "message": str(exc)}
    # the failing row sits where the suite's own rows would have been
    i = names.index("suite-error[cross]")
    assert names[i - 1].startswith("counterexample-")
    assert names[i + 1].startswith("liouville-pde-")


def test_report_json_spells_nan_and_round_trips(tmp_path, capsys, monkeypatch):
    def nan_suite(seed=None, tol=None):
        return [CheckReport.from_errors("nan-row", [0.0, float("nan")], 1.0,
                                        witnesses=[("p", float("nan"))],
                                        extras={"hi": float("inf"),
                                                "lo": np.float64(-np.inf)})]

    monkeypatch.setitem(suites.SUITES, "counterexample", nan_suite)
    first, merged = tmp_path / "v.json", tmp_path / "m.json"
    assert main(["verify", "--suite", "counterexample", "--out", str(first)]) == 1
    row = _strict_json(first.read_text())["checks"][0]
    assert row["max_error"] == "NaN" and row["passed"] is False
    assert row["witnesses"] == [["p", "NaN"]]
    assert row["extras"] == {"hi": "Infinity", "lo": "-Infinity"}
    capsys.readouterr()
    assert main(["report", str(first), "--out", str(merged)]) == 1
    again = _strict_json(merged.read_text())
    assert again["passed"] is False
    assert again["checks"][0]["max_error"] == "NaN"
    assert math.isnan(float(again["checks"][0]["max_error"]))
    assert again["checks"][0]["extras"] == row["extras"]
    assert "[FAIL] nan-row: max_error=nan" in capsys.readouterr().out


def test_finite_reports_keep_numbers(tmp_path, capsys):
    out = tmp_path / "c.json"
    assert main(["verify", "--suite", "counterexample", "--out", str(out)]) == 0
    for row in _strict_json(out.read_text())["checks"]:
        assert isinstance(row["max_error"], float)
