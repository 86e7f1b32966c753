"""ode_solve's cone exit, forced at chosen radii, against a reference copy of
the solve that records an exit in each place it can happen; and the radial
Liouville theorem: from regular centre data the solve is the bubble
v0 - 2 ln(1 + mu e^{v0} r^2 / 4), with no exit."""

import math

import numpy as np
import pytest

from conformal2d import SolveConfig, StepFailure, ode_solve, sigma1, sigma2, weighted
from conformal2d import radial
from conformal2d.ops import cone_margin
from conformal2d.radial import (RadialProfile, RadialSolveResult, StepCounts, _ConeExitSignal,
                                _diagonal_seed, _integrate_to_nodes)


def reference_solve(f, v0, r_max, cfg):
    """ode_solve with the exit kept where it shows: record returns False,
    the series loop breaks, the march's collect re-raises, and the first
    radius recorded wins."""
    mu = _diagonal_seed(f)
    c2 = -mu * math.exp(v0)
    solve = radial._lambda1_solver(f, f.cone, cfg)
    r_out = np.linspace(0.0, r_max, cfg.n_out)
    rows, steps, exit_radius = [], StepCounts(), None

    def record(rt, v, w):
        nonlocal exit_radius
        try:
            if rt == 0.0:
                lam1, lam2, res = mu, mu, abs(f.fn(mu, mu) - 1.0)
            else:
                lam2 = math.exp(-v) * (-w / rt - 0.25 * w * w)
                lam1, res = solve(lam2, rt)
        except _ConeExitSignal as sig:
            exit_radius = sig.radius
            return False
        if rt > 0.0 and cone_margin(lam1, lam2, f.cone) <= 0.0:
            exit_radius = rt
            return False
        rows.append((rt, v, w, lam1, lam2, res))
        return True

    def rhs(r, v, w):
        lam1, _ = solve(math.exp(-v) * (-w / r - 0.25 * w * w), r)
        return w, 0.25 * w * w - lam1 * math.exp(v)

    def collect(rt, v, w):
        if not record(rt, v, w):
            raise _ConeExitSignal(rt)

    rs = cfg.r_series
    if all(record(rt, v0 + 0.5 * c2 * rt * rt, c2 * rt) for rt in r_out[r_out <= rs]):
        try:
            _integrate_to_nodes(rhs, rs, v0 + 0.5 * c2 * rs * rs, c2 * rs,
                                r_out[r_out > rs].tolist(), cfg, collect, steps)
        except _ConeExitSignal as sig:
            if exit_radius is None:
                exit_radius = sig.radius
    if len(rows) < 2:
        raise StepFailure("trajectory left the cone before two output nodes")
    data = np.array(rows)
    return RadialSolveResult(RadialProfile(data[:, 0], data[:, 1], dv=data[:, 2]),
                             data[:, 3], data[:, 4], data[:, 5], mu, exit_radius, steps)


def forcing(monkeypatch, mode, thr, at=None):
    """From radius thr on (only at the radii in ``at``, if given), the
    lambda1 solver raises the exit signal (mode "raise") or returns an
    out-of-cone lambda1 ("outcone").  Returns the radii it forced."""
    original, forced = radial._lambda1_solver, []

    def factory(f, cone, cfg):
        solve = original(f, cone, cfg)

        def patched(lam2, r):
            if r >= thr and (at is None or r in at):
                forced.append(r)
                if mode == "raise":
                    raise _ConeExitSignal(r)
                return -abs(lam2) - 1.0, solve(lam2, r)[1]
            return solve(lam2, r)
        return patched

    monkeypatch.setattr(radial, "_lambda1_solver", factory)
    return forced


def outcome(call):
    try:
        res = call()
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return type(exc), str(exc)
    arrays = [res.profile.r, res.profile.v, res.profile.dv, res.lambda1, res.lambda2,
              res.residual]
    return ([a.tobytes() for a in arrays], res.mu, res.cone_exit, type(res.cone_exit),
            res.steps)


def assert_prefix(res, full):
    """res holds full's rows below its exit radius, bit for bit."""
    n = res.profile.r.size
    assert n >= 2 and np.all(res.profile.r < res.cone_exit)
    assert n == full.profile.r.size or full.profile.r[n] >= res.cone_exit
    for got, want in ((res.profile.r, full.profile.r), (res.profile.v, full.profile.v),
                      (res.profile.dv, full.profile.dv), (res.lambda1, full.lambda1),
                      (res.lambda2, full.lambda2), (res.residual, full.residual)):
        assert got.tobytes() == want[:n].tobytes()


FUNCTIONS = [sigma1(), sigma1(1.5), sigma2(), weighted(0.5)]
SERIES_CFG = SolveConfig(n_out=101, r_series=0.2)
MARCH_CFG = SolveConfig(n_out=101)


@pytest.mark.parametrize("mode", ["raise", "outcone"])
@pytest.mark.parametrize("f", FUNCTIONS, ids=lambda f: f"{f.name}-{f.cone.p}")
def test_exit_at_a_series_node(monkeypatch, f, mode):
    full = ode_solve(f, v0=0.3, r_max=5.0, cfg=SERIES_CFG)
    forced = forcing(monkeypatch, mode, 0.12)
    call = lambda: ode_solve(f, v0=0.3, r_max=5.0, cfg=SERIES_CFG)  # noqa: E731
    res = call()
    assert res.cone_exit == forced[0] == full.profile.r[3]
    assert isinstance(res.cone_exit, np.float64)
    assert res.profile.r.size == 3
    assert_prefix(res, full)
    assert res.steps == StepCounts()  # the march never starts
    assert outcome(call) == outcome(lambda: reference_solve(f, 0.3, 5.0, SERIES_CFG))


@pytest.mark.parametrize("mode", ["raise", "outcone"])
@pytest.mark.parametrize("f", FUNCTIONS, ids=lambda f: f"{f.name}-{f.cone.p}")
def test_exit_at_an_output_node(monkeypatch, f, mode):
    full = ode_solve(f, v0=0.3, r_max=5.0, cfg=MARCH_CFG)
    nodes = full.profile.r
    forcing(monkeypatch, mode, 2.52, at=set(nodes.tolist()))
    call = lambda: ode_solve(f, v0=0.3, r_max=5.0, cfg=MARCH_CFG)  # noqa: E731
    res = call()
    assert res.cone_exit == nodes[51] and isinstance(res.cone_exit, float)
    assert_prefix(res, full)
    assert 0 < res.steps.accepted < full.steps.accepted
    assert outcome(call) == outcome(lambda: reference_solve(f, 0.3, 5.0, MARCH_CFG))


@pytest.mark.parametrize("mode", ["raise", "outcone"])
@pytest.mark.parametrize("f", FUNCTIONS, ids=lambda f: f"{f.name}-{f.cone.p}")
def test_exit_at_a_stage_radius_between_nodes(monkeypatch, f, mode):
    full = ode_solve(f, v0=0.3, r_max=5.0, cfg=MARCH_CFG)
    forced = forcing(monkeypatch, mode, 2.513)
    call = lambda: ode_solve(f, v0=0.3, r_max=5.0, cfg=MARCH_CFG)  # noqa: E731
    res = call()
    if mode == "raise":
        # the first stage at or past 2.513 ends the march mid-step
        assert res.cone_exit == forced[0] and 2.513 <= res.cone_exit < full.profile.r[51]
        counts = res.steps
        assert counts.rhs_evals > 1 + 6 * (counts.accepted + counts.rejected)
    else:
        # an out-of-cone lambda1 in a stage only bends the step; the next
        # node's own eigenvalues end the solve
        assert res.cone_exit == full.profile.r[51]
    assert_prefix(res, full)
    assert outcome(call) == outcome(lambda: reference_solve(f, 0.3, 5.0, MARCH_CFG))


@pytest.mark.parametrize("cfg,thr", [(SolveConfig(), 0.005), (SERIES_CFG, 0.01)],
                         ids=["march", "series"])
@pytest.mark.parametrize("mode", ["raise", "outcone"])
def test_exit_before_two_nodes_fails(monkeypatch, mode, cfg, thr):
    forcing(monkeypatch, mode, thr)
    f = sigma2()
    want = (StepFailure, "trajectory left the cone before two output nodes")
    assert outcome(lambda: ode_solve(f, v0=0.3, r_max=5.0, cfg=cfg)) == want
    assert outcome(lambda: reference_solve(f, 0.3, 5.0, cfg)) == want


def test_unforced_solves_match_the_reference():
    for f in FUNCTIONS:
        for cfg in (MARCH_CFG, SERIES_CFG):
            got = outcome(lambda: ode_solve(f, v0=0.3, r_max=5.0, cfg=cfg))
            assert got[2] is None
            assert got == outcome(lambda: reference_solve(f, 0.3, 5.0, cfg))


# -- the radial Liouville theorem --------------------------------------------------


@pytest.mark.parametrize("r_max", [5.0, 12.0])
@pytest.mark.parametrize("v0", [-5.0, -1.5, 0.0, 2.5, 5.0])
@pytest.mark.parametrize("f", [sigma1(), sigma2(), weighted(0.0), weighted(0.4), weighted(1.0)],
                         ids=lambda f: f.name)
def test_regular_solutions_are_the_bubble(f, v0, r_max):
    res = ode_solve(f, v0=v0, r_max=r_max)
    assert res.cone_exit is None
    assert res.profile.r[-1] == r_max
    r = res.profile.r
    bubble = v0 - 2.0 * np.log1p(res.mu * math.exp(v0) * r * r / 4.0)
    assert np.abs(res.profile.v - bubble).max() < 1e-6
