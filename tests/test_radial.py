"""Radial reductions: circle minima, lower envelopes, monotonicity of
v + 4 ln r, the shooting solver, and boundary-ray trajectories."""

import dataclasses
import math

import numpy as np
import pytest

from conformal2d import (
    Bubble,
    ChenLiBubble,
    ConeIndex,
    RadialLambda,
    RadialProfile,
    ScalarField,
    SeedError,
    SolveConfig,
    StepFailure,
    Vec2,
    boundary_solve,
    check_monotone_4log,
    e_tilde_mask,
    exp_example,
    g_k_diagnostics,
    inf_envelope,
    lambda_a,
    minimize_on_circles,
    ode_solve,
    radial_lambda,
    sigma1,
    sigma2,
    weighted,
)
from conformal2d.radial import _ConeExitSignal, _lambda1_solver, _section_rule


# -- profiles and eigenvalues ------------------------------------------------


def test_radial_lambda_matches_operator_on_bubble():
    u = Bubble(1.7, 5.0)
    for r in (0.3, 1.0, 2.6):
        s = 8.0 * r * r + u.b
        v = float(u.values(r, 0.0))
        dv = -32.0 * r / s
        ddv = -32.0 / s + 512.0 * r * r / (s * s)
        got = radial_lambda(v, dv, ddv, r).as_sorted()
        want = lambda_a(u, Vec2(r, 0.0))
        assert got[0] == pytest.approx(want.lambda1, abs=1e-10)
        assert got[1] == pytest.approx(want.lambda2, abs=1e-10)


def test_radial_lambda_origin():
    lam = radial_lambda(0.5, 0.0, -2.0, 0.0)
    assert lam.lambda1 == pytest.approx(lam.lambda2)
    assert lam.lambda1 == pytest.approx(2.0 * math.exp(-0.5), abs=1e-14)
    with pytest.raises(ValueError):
        radial_lambda(0.0, 1.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        radial_lambda(0.0, 1.0, 0.0, -1.0)
    with pytest.raises(ValueError):
        RadialLambda(math.nan, 0.0)


def test_profile_csv_round_trip(tmp_path):
    r = np.linspace(0.1, 2.0, 37)
    p = RadialProfile(r, np.sin(r) / r, np.cos(r), -np.sin(r))
    path = tmp_path / "profile.csv"
    p.to_csv(path)
    q = RadialProfile.from_csv(path)
    assert q.columns() == ["r", "v", "dv", "ddv"]
    # %.17g formatting makes the round trip bit-exact
    assert np.array_equal(p.r, q.r) and np.array_equal(p.v, q.v)
    assert np.array_equal(p.dv, q.dv) and np.array_equal(p.ddv, q.ddv)


def test_profile_csv_header_validation(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("rho,value\n0.0,1.0\n1.0,2.0\n")
    with pytest.raises(ValueError, match="header"):
        RadialProfile.from_csv(bad)


# -- circle minima ------------------------------------------------------------


def test_minimize_on_circles_bubble_centered():
    u = Bubble(1.0, 8.0)
    radii = np.linspace(0.0, 3.0, 31)
    p = minimize_on_circles(u, (0.0, 0.0), radii)
    for r, v in zip(p.r, p.v):
        assert v == pytest.approx(float(u.values(r, 0.0)), abs=1e-12)


def test_minimize_on_circles_exp_example():
    # u depends on x1 alone and is even in x1, decreasing in |x1|, so the
    # circle minimum sits at angle 0: ln 8 + 2r - 2 ln(1 + e^{2r})
    u = exp_example()
    radii = np.linspace(0.0, 2.5, 11)
    p = minimize_on_circles(u, (0.0, 0.0), radii, m=96)
    for r, v in zip(p.r, p.v):
        want = math.log(8.0) + 2.0 * r - 2.0 * math.log(1.0 + math.exp(2.0 * r))
        assert v == pytest.approx(want, abs=1e-10)


def test_minimize_on_circles_off_center_bubble():
    # off-center circles meet the bubble farthest point at angle toward -x0
    u = Bubble(1.0, 8.0, Vec2(0.5, 0.0))
    p = minimize_on_circles(u, (0.0, 0.0), [1.0, 2.0])
    assert p.v[0] == pytest.approx(u.value(Vec2(-1.0, 0.0)), abs=1e-12)
    assert p.v[1] == pytest.approx(u.value(Vec2(-2.0, 0.0)), abs=1e-12)


def test_minimize_on_circles_reads_values_only(monkeypatch):
    # the circle about the origin of radius r meets the bubble's lowest
    # point at distance r + |x0| from x0, the point at r = 0 included
    u = Bubble(1.0, 8.0, Vec2(0.5, -0.3))
    radii = np.array([0.0, 0.2, 0.5, 1.0, 2.0, 7.5])
    t = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)
    coarse = np.array([u.values(r * np.cos(t), r * np.sin(t)).min() for r in radii])
    want = Bubble(1.0, 8.0).values(radii + math.hypot(0.5, 0.3), 0.0)

    def boom(self, x):
        raise AssertionError("scalar evaluator called")

    monkeypatch.setattr(Bubble, "jet", boom)
    monkeypatch.setattr(ScalarField, "value", boom)
    p = minimize_on_circles(u, (0.0, 0.0), radii)
    assert np.abs(p.v - want).max() <= 1e-12
    assert np.all(p.v <= coarse)
    with pytest.raises(ValueError):
        minimize_on_circles(u, (0.0, 0.0), radii, m=3)


# -- lower envelope -----------------------------------------------------------


GRID = np.linspace(0.0, 6.0, 1201)


def test_envelope_quadratic_closed_form():
    p = RadialProfile(GRID, GRID**2)
    for eps in (0.5, 1.0, 2.0):
        res = inf_envelope(p, eps)
        r_in, v_in = res.interior_slice()
        want = r_in**2 / (1.0 + eps)
        step = GRID[1] - GRID[0]
        assert np.abs(v_in - want).max() < 4.0 * step * step
        assert res.semiconcavity_defect <= 1e-9


def test_envelope_kink_is_huber():
    p = RadialProfile(GRID, np.abs(GRID - 2.0))
    eps = 0.8
    res = inf_envelope(p, eps)
    r_in, v_in = res.interior_slice()
    x = np.abs(r_in - 2.0)
    want = np.where(x <= eps / 2.0, x * x / eps, x - eps / 4.0)
    step = GRID[1] - GRID[0]
    assert np.abs(v_in - want).max() < 4.0 * step * step


def test_envelope_sits_below_and_is_monotone_in_eps():
    v = np.cos(GRID) + 0.2 * GRID
    p = RadialProfile(GRID, v)
    res1 = inf_envelope(p, 0.3)
    res2 = inf_envelope(p, 0.9)
    assert np.all(res1.profile.v <= v + 1e-15)
    # larger eps reaches farther, so the envelope can only drop
    assert np.all(res2.profile.v <= res1.profile.v + 1e-15)


def test_envelope_distance_bound_for_lipschitz_input():
    ell = 1.5
    v = ell * np.abs(np.sin(GRID))  # Lipschitz constant ell
    res = inf_envelope(RadialProfile(GRID, v), 0.4)
    # inf-convolution with quadratic cost moves an L-Lipschitz function
    # by at most L^2 eps / 4
    assert res.sup_distance_to_input <= ell * ell * 0.4 / 4.0 + 1e-12


def test_envelope_rejects_bad_eps():
    p = RadialProfile(GRID, GRID)
    with pytest.raises(ValueError):
        inf_envelope(p, 0.0)


@pytest.mark.parametrize("eps", [math.inf, math.nan, -math.inf, -1.0, -0.0], ids=repr)
def test_envelope_rejects_non_finite_eps(eps):
    # eps = inf used to report a semiconcavity defect of 0.0, and eps = nan
    # raised "profile contains non-finite entries"
    with pytest.raises(ValueError, match=r"^eps must be finite and > 0, got "):
        inf_envelope(RadialProfile(GRID, GRID), eps)


def brute_force_envelope(r, v, eps):
    """O(n^2) oracle: the cheapest parabola over every node, at every node."""
    return (v[None, :] + (r[:, None] - r[None, :]) ** 2 / eps).min(axis=1)


def test_envelope_matches_brute_force_oracle():
    # the linear-time envelope evaluates the oracle's own formula at the
    # oracle's argmin, so the two agree bit for bit (exact ties between
    # parabolas, as with quantised values on a uniform grid, may pick
    # another minimiser and differ in the last place)
    rng = np.random.default_rng(2012)
    for i in range(300):
        n = int(rng.integers(2, 400))
        r = rng.uniform(0.0, 2.0) + np.cumsum(rng.exponential(1.0, n) ** 2 + 1e-9)
        r *= rng.uniform(0.01, 3.0)
        shape = i % 3
        if shape == 0:
            v = rng.normal(0.0, 1.0, n)
        elif shape == 1:
            v = rng.uniform(0.1, 10.0) * np.sin(rng.uniform(0.1, 5.0) * r)
        else:
            v = np.abs(r - r.mean()) + rng.normal(0.0, 1e-3, n)
        eps = float(10.0 ** rng.uniform(-4.0, 2.0))
        env = inf_envelope(RadialProfile(r, v), eps).profile.v
        assert np.array_equal(env, brute_force_envelope(r, v, eps)), (i, n, eps)


def test_envelope_defect_is_nan_when_it_overflows():
    # r^2 / eps overflows, so the second differences are NaN; the defect
    # must carry the NaN instead of reading 0
    r = np.linspace(0.0, 0.2, 5)
    v = np.array([1e308, -1e308, 1e308, -1e308, 1e308])
    with np.errstate(over="ignore", invalid="ignore"):
        res = inf_envelope(RadialProfile(r, v), 1e-310)
    assert math.isnan(res.semiconcavity_defect)


def test_envelope_interior_fallback_on_short_grids():
    r = np.linspace(0.0, 0.2, 5)
    res = inf_envelope(RadialProfile(r, r * r), 1.0)
    # margin sqrt(eps osc) exceeds the grid, so the interior mask falls
    # back to everything
    assert res.interior.all()


# -- monotonicity of v + 4 ln r ----------------------------------------------


def test_monotone_bubbles_pass_with_zero_k0():
    r = np.linspace(0.05, 40.0, 2000)
    for u in (Bubble(1.0, 8.0), Bubble(0.3, 11.0), ChenLiBubble(0.55).as_bubble()):
        p = RadialProfile(r, u.values(r, 0.0))
        rep = check_monotone_4log(p, k0=0.0)
        assert rep.passed, rep.summary_line()
        assert rep.extras["empirical_k0"] == 0.0


def test_monotone_exact_for_critical_log():
    r = np.linspace(0.5, 20.0, 500)
    p = RadialProfile(r, -4.0 * np.log(r))
    rep = check_monotone_4log(p, k0=0.0, slack=0.0)
    assert rep.passed
    assert rep.max_error == 0.0


def test_monotone_rejects_faster_log_decay():
    r = np.linspace(0.5, 20.0, 500)
    p = RadialProfile(r, -5.0 * np.log(r))
    rep = check_monotone_4log(p, k0=0.0)
    assert not rep.passed
    # the same decay rate violates cone membership pointwise
    lam = radial_lambda(-5.0 * math.log(2.0), -5.0 / 2.0, 5.0 / 4.0, 2.0)
    assert lam.lambda2 < 0.0


def test_monotone_empirical_k0_detects_dip():
    r = np.linspace(0.05, 5.0, 2000)
    w = np.where(r < 1.0, (1.0 - r) ** 2, 0.0)
    p = RadialProfile(r, w - 4.0 * np.log(r))
    rep0 = check_monotone_4log(p, k0=0.0)
    assert not rep0.passed
    assert rep0.extras["empirical_k0"] == pytest.approx(1.0, abs=0.02)
    rep1 = check_monotone_4log(p, k0=1.05)
    assert rep1.passed
    with pytest.raises(ValueError):
        check_monotone_4log(p, k0=10.0)


def test_monotone_reports_overflowing_drops():
    r = np.linspace(0.5, 2.5, 5)
    v = np.array([1.7e308, -1.7e308, 1.7e308, -1.7e308, 1.7e308])
    with np.errstate(over="ignore"):
        rep = check_monotone_4log(RadialProfile(r, v))
    assert rep.max_error == math.inf
    assert not rep.passed


# -- shooting solver -----------------------------------------------------------


def closed_form_gap(result, bubble):
    return float(np.abs(result.profile.v - bubble.values(result.profile.r, 0.0)).max())


def test_ode_solve_sigma2_is_unit_bubble():
    res = ode_solve(sigma2(), r_max=5.0)
    assert res.mu == pytest.approx(1.0, abs=1e-12)
    assert res.cone_exit is None
    assert res.max_residual <= 1e-9
    assert closed_form_gap(res, Bubble(4.0, 32.0)) < 1e-8


def test_ode_solve_sigma1_matches_chen_li():
    res = ode_solve(sigma1(), r_max=5.0)
    assert res.mu == pytest.approx(0.5, abs=1e-12)
    assert res.cone_exit is None
    assert closed_form_gap(res, ChenLiBubble(1.0).as_bubble()) < 1e-8


def test_ode_solve_shifted_center_value():
    # v0 shifts select another member of the same two-parameter family
    v0 = 0.5
    a = 4.0 * math.exp(-0.25)
    res = ode_solve(sigma2(), v0=v0, r_max=4.0)
    assert res.cone_exit is None
    assert closed_form_gap(res, Bubble(a, 2.0 * a * a)) < 1e-8


def test_ode_solve_weighted_stays_in_cone():
    res = ode_solve(weighted(0.4), r_max=5.0)
    assert res.cone_exit is None
    assert res.max_residual <= 1e-9
    assert np.all(res.lambda1 > 0.0) and np.all(res.lambda2 > 0.0)


def test_ode_solve_csv(tmp_path):
    res = ode_solve(sigma2(), r_max=2.0, cfg=SolveConfig(n_out=51))
    path = tmp_path / "solve.csv"
    res.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "r,v,dv,lambda1,lambda2,residual"
    assert len(lines) == 52


def test_solver_completion_xor_exit():
    # for these data the solve must either run to r_max inside the cone
    # with tiny residuals or report a cone exit, never both or neither
    for f, v0 in ((sigma2(), 0.0), (sigma1(), -0.3), (weighted(0.7), 0.2)):
        res = ode_solve(f, v0=v0, r_max=5.0)
        completed = res.profile.r[-1] == pytest.approx(5.0) and res.max_residual <= 1e-9
        fired = res.cone_exit is not None
        assert fired != completed


# -- cone-exit internals -------------------------------------------------------


def test_lambda1_section_min_frozen():
    g2, g15 = ConeIndex(2.0), ConeIndex(1.5)
    assert _section_rule(g2)(-0.1) is None
    assert _section_rule(g2)(2.0) == 0.0
    assert _section_rule(g15)(3.0) == pytest.approx(-1.5)


def test_solve_lambda1_signals_exit():
    cfg = SolveConfig()
    # sigma1 on Gamma_1.5 already exceeds 1 at the section's lower edge
    with pytest.raises(_ConeExitSignal):
        _lambda1_solver(sigma1(ConeIndex(1.5)), ConeIndex(1.5), cfg)(3.0, 1.0)
    # empty section at negative lambda2 on Gamma_2
    with pytest.raises(_ConeExitSignal):
        _lambda1_solver(sigma2(), ConeIndex(2.0), cfg)(-0.5, 1.0)


@pytest.mark.parametrize("v0", [800.0, -701.0, math.inf, math.nan])
def test_ode_solve_rejects_overflowing_center_value(v0):
    with pytest.raises(SeedError, match="v0"):
        ode_solve(sigma2(), v0=v0)


LAM2_GRID = (-2.0, -0.5, -1e-3, 0.0, 1e-3, 0.05, 0.3, 0.5, 0.9, 0.99, 1.0,
             1.2, 2.0, 2.4, 3.0, 20.0, math.nan)


def lambda1_outcome(f, lam2):
    try:
        return _lambda1_solver(f, f.cone, SolveConfig())(lam2, 1.0)[0]
    except (_ConeExitSignal, StepFailure) as exc:
        return type(exc)


@pytest.mark.parametrize("f", [sigma1(2.0), sigma1(1.8), sigma1(1.5), sigma2(),
                               weighted(0.0), weighted(0.4), weighted(1.0)],
                         ids=lambda f: f"{f.name}-p{f.cone.p:g}")
def test_closed_form_lambda1_matches_brentq(f):
    assert f.lambda1 is not None
    bracketed = dataclasses.replace(f, lambda1=None)
    exits = 0
    for lam2 in LAM2_GRID:
        want = lambda1_outcome(bracketed, lam2)
        got = lambda1_outcome(f, lam2)
        if isinstance(want, type):
            assert got is want, lam2
            exits += 1
        else:
            assert got == pytest.approx(want, rel=1e-14, abs=0.0), lam2
    # the grid reaches both sides of the cone exit; NaN is a StepFailure
    assert 1 < exits < len(LAM2_GRID)
    assert lambda1_outcome(f, math.nan) is StepFailure


def test_solve_lambda1_interior_root():
    cfg = SolveConfig()
    lam1, residual = _lambda1_solver(sigma2(), ConeIndex(2.0), cfg)(0.25, 1.0)
    assert lam1 == pytest.approx(4.0, abs=1e-12)
    assert residual <= cfg.root_residual_max


# -- boundary-ray trajectories -------------------------------------------------


class TestBoundarySolve:
    """Start data (r0=1, v0=0, w0=-6) on Gamma_1.5 has the closed form
    v = 4 ln((3-r)/(2r)), v' = 12/(r(r-3)), blowing up at r = 3."""

    def run(self, r_max=2.8):
        # v' steepens toward the pole at 3, so ask for tight steps
        cfg = SolveConfig(rtol=1e-10, atol=1e-13, n_out=181)
        return boundary_solve(ConeIndex(1.5), 1.0, 0.0, -6.0, r_max, cfg=cfg)

    def test_matches_riccati_solution(self):
        res = self.run()
        r = res.profile.r
        want_v = 4.0 * np.log((3.0 - r) / (2.0 * r))
        want_w = 12.0 / (r * (r - 3.0))
        assert np.abs(res.profile.v - want_v).max() < 1e-9
        assert np.abs(res.profile.dv - want_w).max() < 1e-9

    def test_eigenvalues_on_boundary_ray(self):
        res = self.run()
        # lambda2 = (p-2) lambda1 with lambda1 > 0 > lambda2
        assert np.all(res.lambda1 > 0.0)
        assert np.abs(res.lambda2 + 0.5 * res.lambda1).max() < 1e-12

    def test_g_k_diagnostics(self):
        res = self.run()
        r, dv = res.profile.r, res.profile.dv
        assert e_tilde_mask(r, dv).all()
        g, k = g_k_diagnostics(r, dv, ConeIndex(1.5))
        assert np.abs(g - r * r / 12.0).max() < 1e-10
        assert np.abs(k - 1.0 / 12.0).max() < 1e-11
        # under a wider cone index the same trajectory has increasing k
        _, k13 = g_k_diagnostics(r, dv, ConeIndex(1.3))
        assert np.all(np.diff(k13) > 0.0)

    def test_blow_up_is_a_clean_failure(self):
        with pytest.raises(StepFailure, match="blow-up"):
            self.run(r_max=3.2)

    def test_validation(self):
        with pytest.raises(ValueError):
            boundary_solve(ConeIndex(2.0), 1.0, 0.0, -6.0, 2.0)
        with pytest.raises(ValueError):
            boundary_solve(ConeIndex(1.5), 0.0, 0.0, -6.0, 2.0)
