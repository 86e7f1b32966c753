"""Solver configurations and CLI grids fail closed: a non-finite or
non-positive tolerance or step size, too few output nodes, and a grid above
the node cap are rejected before any work, with exit code 2 and one stderr
line from the CLI."""

import math

import numpy as np
import pytest

from conformal2d import SolveConfig, ode_solve, sigma2
from conformal2d.cli import GRID_MAX_NODES, main

BAD_POSITIVE = [math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0]


@pytest.mark.parametrize("value", BAD_POSITIVE, ids=repr)
@pytest.mark.parametrize("name", ["rtol", "atol", "h_init", "h_max"])
def test_tolerances_and_steps_must_be_finite_and_positive(name, value):
    with pytest.raises(ValueError, match=f"^{name} must be finite and > 0, got "):
        SolveConfig(**{name: value})


@pytest.mark.parametrize("n_out", [1, 0, -3])
def test_n_out_must_be_at_least_two(n_out):
    with pytest.raises(ValueError, match="^n_out must be at least 2"):
        SolveConfig(n_out=n_out)


def test_smallest_valid_config_solves():
    cfg = SolveConfig(rtol=5e-324, atol=5e-324, h_init=5e-324, h_max=5e-324, n_out=2)
    assert cfg.n_out == 2
    res = ode_solve(sigma2(), r_max=1e-3, cfg=cfg)  # both nodes inside the series
    assert res.profile.r.tolist() == [0.0, 1e-3]


@pytest.mark.parametrize("tol, shown", [("nan", "nan"), ("inf", "inf"), ("-inf", "-inf"),
                                        ("0", "0.0"), ("-1", "-1.0")])
def test_solve_radial_bad_tol_exits_2(capsys, tol, shown):
    # the parent exited 2 on nan (step size underflow), 0 on inf and 0, and
    # 1 with a TypeError traceback on -1
    assert main(["solve-radial", f"--tol={tol}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: rtol must be finite and > 0, got {shown}"]


@pytest.fixture
def no_linspace(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("np.linspace called for an oversized grid")

    monkeypatch.setattr(np, "linspace", refuse)


@pytest.mark.parametrize("argv", [["envelope", "--grid", "0:6:1000000000"],
                                  ["solve-radial", "--grid", "0:5:1000000000"],
                                  ["envelope", "--grid", f"0:6:{GRID_MAX_NODES + 1}"],
                                  ["solve-radial", "--grid", f"0:5:{GRID_MAX_NODES + 1}"]],
                         ids=lambda a: f"{a[0]}-{a[2]}")
def test_oversized_grid_is_rejected_before_allocation(capsys, no_linspace, argv):
    n = int(argv[2].rsplit(":", 1)[1])
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"config error: grid n = {n} exceeds the cap of {GRID_MAX_NODES} nodes"]


def test_node_cap_is_far_above_documented_grids():
    # the README's largest grid is 20000 nodes
    assert GRID_MAX_NODES >= 50 * 20000


@pytest.mark.parametrize("value", BAD_POSITIVE, ids=repr)
def test_r_series_must_be_finite_and_positive(value):
    # r_series = nan raised a misleading StepFailure, and -1.0 a ZeroDivisionError
    with pytest.raises(ValueError, match="^r_series must be finite and > 0, got "):
        SolveConfig(r_series=value)
