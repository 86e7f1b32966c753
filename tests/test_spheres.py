"""Sphere-reflection transform, critical radius search, bubble detection."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conformal2d import (
    Bubble,
    ChenLiBubble,
    ConstantField,
    DomainError,
    LiouvilleField,
    MobiusMap,
    PolynomialMap,
    ScalarField,
    Vec2,
    bubble_fit,
    critical_lambda,
    estimate_alpha,
    exp_example,
    lambda_a,
    ms_transform,
    ms_value,
    pullback,
    slack_stats,
)
import conformal2d.suites as suites
from conformal2d.invariance import annulus_points
from conformal2d.spheres import RHO_MIN_FACTOR, SLACK_TOL_SCALE

B = Bubble(1.0, 8.0)  # critical radius at the center is sqrt(b/8) = 1


def ring(center, radii, n=6):
    pts = []
    for r in radii:
        for k in range(n):
            t = 2.0 * math.pi * k / n + 0.1
            pts.append(Vec2(center[0] + r * math.cos(t), center[1] + r * math.sin(t)))
    return pts


def test_transform_fixes_its_sphere():
    lam = 1.3
    for t in (0.0, 1.1, 2.7):
        y = Vec2(0.2 + lam * math.cos(t), -0.4 + lam * math.sin(t))
        got = ms_value(B, Vec2(0.2, -0.4), lam, y)
        assert got == pytest.approx(B.value(y), abs=1e-12)


def test_transform_is_an_involution():
    x, lam = Vec2(0.3, 0.1), 0.9
    v = ms_transform(B, x, lam)
    for y in (Vec2(1.5, 0.4), Vec2(0.35, 0.12), Vec2(-2.0, 3.0)):
        assert ms_value(v, x, lam, y) == pytest.approx(B.value(y), abs=1e-12)


def test_transform_value_routes_agree():
    x, lam = Vec2(0.0, 0.0), 1.7
    v = ms_transform(B, x, lam)
    for y in (Vec2(2.0, 0.5), Vec2(0.3, -0.2)):
        assert v.value(y) == pytest.approx(ms_value(B, x, lam, y), abs=1e-12)


def test_transform_guards():
    with pytest.raises(ValueError):
        ms_transform(B, Vec2(0.0, 0.0), 0.0)
    with pytest.raises(DomainError):
        ms_value(B, Vec2(0.1, 0.1), 1.0, Vec2(0.1, 0.1))


def test_transform_of_bubble_is_a_bubble():
    # the operator of any bubble is kappa I; sphere reflections keep the
    # family, so eigenvalues of the transform stay pinned at kappa
    kappa = B.b / (2.0 * B.a * B.a)
    v = ms_transform(B, Vec2(0.4, 0.0), 1.2)
    for y in (Vec2(1.4, 0.3), Vec2(-0.8, 0.9), Vec2(0.5, 0.2)):
        lam = lambda_a(v, y)
        assert lam.lambda1 == pytest.approx(kappa, abs=1e-9)
        assert lam.lambda2 == pytest.approx(kappa, abs=1e-9)


def test_equality_at_exact_critical_radius():
    st = slack_stats(B, Vec2(0.0, 0.0), 1.0, n_radii=40, n_angles=8)
    assert st.admissible
    assert st.max_abs_slack < 1e-12


def test_strict_slack_below_critical_radius():
    st = slack_stats(B, Vec2(0.0, 0.0), 0.8, n_radii=40, n_angles=8)
    assert st.admissible
    assert st.min_slack > 1e-4


def test_critical_lambda_at_center():
    rep = critical_lambda(B, Vec2(0.0, 0.0), lam_max=64.0)
    assert not rep.unbounded
    assert rep.lambda_bar == pytest.approx(1.0, abs=1e-3)
    assert rep.equality_residual < 1e-8
    lo, hi = rep.bracket
    assert lo <= rep.lambda_bar <= hi


def test_critical_lambda_off_center():
    x = Vec2(1.0, 0.0)
    rep = critical_lambda(B, x, lam_max=64.0)
    # the family's closed form: lambda_bar^2 = |x - x0|^2 + b/8
    assert rep.lambda_bar == pytest.approx(math.sqrt(2.0), abs=2e-3)
    assert rep.equality_residual < 1e-6


def test_critical_lambda_unbounded_for_constant():
    rep = critical_lambda(ConstantField(0.3), Vec2(0.0, 0.0), lam_max=64.0)
    assert rep.unbounded
    assert rep.lambda_bar is None and rep.equality_residual is None
    with pytest.raises(ValueError):
        critical_lambda(B, Vec2(0.0, 0.0), lam_max=0.0)


def test_report_serializes():
    rep = critical_lambda(B, Vec2(0.0, 0.0), lam_max=64.0)
    text = json.dumps(rep.to_dict(), sort_keys=True)
    assert "lambda_bar" in text and "bracket" in text


def test_bubble_fit_recovers_exact_parameters():
    u = Bubble(1.3, 6.0, Vec2(0.2, -0.1))
    fit = bubble_fit(u, ring((0.2, -0.1), (0.5, 1.0, 2.0)))
    assert fit.is_bubble
    assert fit.residual < 1e-10
    assert fit.a == pytest.approx(1.3, abs=1e-8)
    assert fit.b == pytest.approx(6.0, abs=1e-8)
    assert fit.center.x1 == pytest.approx(0.2, abs=1e-8)
    assert fit.center.x2 == pytest.approx(-0.1, abs=1e-8)
    assert fit.field().value(Vec2(1.0, 1.0)) == pytest.approx(
        u.value(Vec2(1.0, 1.0)), abs=1e-8)
    payload = fit.to_dict()
    assert payload["is_bubble"] is True


class WobblyBubble(ScalarField):
    """Bubble plus a small smooth deterministic perturbation."""

    def __init__(self, base: Bubble, amp: float):
        self.base = base
        self.amp = amp

    def value(self, x) -> float:
        p = Vec2.of(x)
        return self.base.value(p) + self.amp * math.sin(7.0 * p.x1 + 3.0 * p.x2)


def test_bubble_fit_tolerates_small_perturbation():
    u = WobblyBubble(Bubble(1.3, 6.0, Vec2(0.2, -0.1)), 1e-6)
    fit = bubble_fit(u, ring((0.2, -0.1), (0.5, 1.0, 2.0)), threshold=1e-4)
    assert fit.is_bubble
    assert fit.residual < 1e-5
    assert fit.a == pytest.approx(1.3, abs=1e-4)


def test_bubble_fit_rejects_non_bubble():
    fit = bubble_fit(exp_example(), ring((0.0, 0.0), (0.5, 1.0, 2.0)))
    assert not fit.is_bubble
    assert fit.residual > 1e-2


def test_bubble_fit_validation_set_and_min_samples():
    u = Bubble(1.0, 8.0)
    fit = bubble_fit(u, ring((0.0, 0.0), (0.5, 1.5)),
                     validation=ring((0.0, 0.0), (3.0,)))
    assert fit.is_bubble and fit.residual < 1e-6
    with pytest.raises(ValueError):
        bubble_fit(u, [(0.0, 1.0), (1.0, 0.0), (0.5, 0.5)])


class NanOutside(ScalarField):
    """Unit bubble for |x| <= 2.5, NaN beyond."""

    def value(self, x) -> float:
        p = Vec2.of(x)
        return math.nan if p.norm() > 2.5 else B.value(p)


def test_bubble_fit_nan_validation_is_not_a_bubble():
    # the NaN samples come after finite ones, where a Python max() drops them
    fit = bubble_fit(NanOutside(), ring((0.0, 0.0), (0.5, 1.0, 2.0)),
                     validation=ring((0.0, 0.0), (1.0, 3.0)))
    assert math.isnan(fit.residual)
    assert not fit.is_bubble


@given(st.floats(0.2, 5.0), st.floats(0.5, 50.0), st.floats(-1.0, 1.0),
       st.floats(-1.0, 1.0), st.integers(0, 2**32 - 1), st.integers(6, 40),
       st.floats(0.1, 1.0), st.floats(0.5, 3.0))
@settings(max_examples=200, deadline=None)
def test_bubble_fit_recovers_bubbles_on_annulus_clouds(a, b, c1, c2, seed, n, r_in, width):
    pts = annulus_points(np.random.default_rng(seed), n, r_in, r_in + width)
    fit = bubble_fit(Bubble(a, b, Vec2(c1, c2)), pts)
    assert fit.is_bubble
    assert fit.a == pytest.approx(a, rel=1e-9)
    assert fit.b == pytest.approx(b, rel=1e-9)
    scale = max(1.0, math.hypot(c1, c2))
    assert abs(fit.center.x1 - c1) <= 1e-9 * scale
    assert abs(fit.center.x2 - c2) <= 1e-9 * scale


def test_bubble_fit_rejects_samples_on_one_circle_or_line():
    with pytest.raises(ValueError):
        bubble_fit(B, ring((0.3, -0.2), (1.5,), n=12))
    with pytest.raises(ValueError):
        bubble_fit(B, [(0.1 * k, 0.2 * k - 0.5) for k in range(8)])
    with pytest.raises(ValueError):
        bubble_fit(B, [(0.5, 0.5)] * 6)


class NanAt(ScalarField):
    """Unit bubble with the value ``bad`` at one point."""

    def __init__(self, at: Vec2, bad: float):
        self.at, self.bad = at, bad

    def value(self, x) -> float:
        p = Vec2.of(x)
        return self.bad if p == self.at else B.value(p)


RINGS = ring((0.0, 0.0), (0.5, 1.0, 2.0))


# a non-finite value at one sample; a q = e^{-u/2} that underflows or overflows
@pytest.mark.parametrize("u", [NanAt(RINGS[-1], math.nan), NanAt(RINGS[-1], math.inf),
                               NanAt(RINGS[-1], -math.inf), ConstantField(2000.0),
                               ConstantField(-2000.0)])
def test_bubble_fit_unusable_fit_sample_is_not_a_bubble(u):
    fit = bubble_fit(u, RINGS)
    assert math.isnan(fit.residual) and math.isnan(fit.a) and math.isnan(fit.b)
    assert fit.center is None and not fit.is_bubble
    assert json.loads(json.dumps(fit.to_dict()))["center"] is None


class InvertedBowl(ScalarField):
    """u = -2 ln(10 - |x|^2): q = e^{-u/2} is a quadratic with alpha = -1."""

    def values(self, x1, x2):
        return -2.0 * np.log(10.0 - x1 * x1 - x2 * x2)


def test_bubble_fit_needs_positive_alpha_and_b():
    # q is fitted exactly, but it opens downward: no bubble
    fit = bubble_fit(InvertedBowl(), RINGS)
    assert fit.residual < 1e-12
    assert fit.a < 0.0 and not fit.is_bubble
    # an upward q with a negative minimum: b < 0
    nfit = bubble_fit(exp_example(), annulus_points(np.random.default_rng(3), 24, 0.2, 2.5))
    assert nfit.a > 0.0 and nfit.b < 0.0
    assert math.isfinite(nfit.residual) and not nfit.is_bubble


class OneUlpUp(ScalarField):
    """A field's values with the k-th of a 24-point batch raised by one ulp."""

    def __init__(self, base: ScalarField, k: int):
        self.base, self.k = base, k

    def values(self, x1, x2):
        v = np.array(self.base.values(x1, x2), dtype=float)
        if v.size == 24:
            v[self.k] = np.nextafter(v[self.k], math.inf)
        return v


def test_nonbubble_residual_is_well_conditioned(monkeypatch):
    # the samples of the spheres suite's spheres-fit-rejects-nonbubble row
    fitted = []
    monkeypatch.setattr(suites, "bubble_fit",
                        lambda u, pts, **kw: fitted.append(pts) or bubble_fit(u, pts, **kw))
    suites.spheres_suite(seed=1234)
    pts = fitted[-1]
    assert len(pts) == 24
    base = bubble_fit(exp_example(), pts).residual
    for k in range(24):
        moved = bubble_fit(OneUlpUp(exp_example(), k), pts).residual
        assert abs(moved - base) < 1e-12 * base


def test_estimate_alpha_on_bubbles():
    # inf over circles of u + 4 ln r tends to 2 ln a for this family
    est = estimate_alpha(Bubble(2.0, 8.0))
    assert est.alpha == pytest.approx(2.0 * math.log(2.0), abs=1e-4)
    assert est.drift < 1e-4
    assert len(est.radii) == 16
    est2 = estimate_alpha(Bubble(0.5, 3.0), r_lo=20.0, r_hi=2e4)
    assert est2.alpha == pytest.approx(2.0 * math.log(0.5), abs=1e-4)


def slack_reference(u, x, lam, n_radii, n_angles):
    """slack_stats as a point-by-point loop over the same grid."""
    radii = np.geomspace(RHO_MIN_FACTOR * lam, max(100.0, 10.0 * lam), n_radii)
    thetas = np.linspace(0.0, 2.0 * math.pi, n_angles, endpoint=False)
    slacks, admissible = [], True
    for rho in radii:
        for t in thetas:
            y = Vec2(x.x1 + rho * math.cos(t), x.x2 + rho * math.sin(t))
            uy = u.value(y)
            slack = uy - ms_value(u, x, lam, y)
            slacks.append(slack)
            if not slack >= -SLACK_TOL_SCALE * (1.0 + abs(uy)):
                admissible = False
    return min(slacks), max(abs(s) for s in slacks), admissible


SLACK_CASES = {
    # field, base point, lambda_bar (None: found by critical_lambda)
    "bubble": (Bubble(1.3, 12.0, Vec2(0.2, -0.1)), Vec2(0.23, -0.08),
               math.sqrt(0.03**2 + 0.02**2 + 1.5)),
    "chen_li": (ChenLiBubble(0.6, Vec2(-0.1, 0.1)), Vec2(-0.1, 0.12),
                math.sqrt(0.02**2 + 8.0 * 0.36)),
    "pullback_mobius": (pullback(Bubble(1.0, 10.0), MobiusMap(1.05 + 0.1j, 0.1, 0.05j, 1.0)),
                        Vec2(-0.1, 0.05), None),
    "liouville_poly": (LiouvilleField(PolynomialMap([0.0, 1.5, 0.1 + 0.05j, 0.03])),
                       Vec2(0.05, 0.02), None),
}


@pytest.mark.parametrize("name", sorted(SLACK_CASES))
def test_batched_slack_matches_scalar_loop(name):
    u, x, lam_bar = SLACK_CASES[name]
    if lam_bar is None:
        lam_bar = critical_lambda(u, x, lam_max=64.0).lambda_bar
    for lam in (0.5 * lam_bar, lam_bar, 2.0 * lam_bar):
        st = slack_stats(u, x, lam, n_radii=24, n_angles=32)
        min_slack, max_abs, admissible = slack_reference(u, x, lam, 24, 32)
        assert st.admissible == admissible
        assert st.min_slack == pytest.approx(min_slack, abs=1e-12)
        assert st.max_abs_slack == pytest.approx(max_abs, abs=1e-12)
    # below the critical radius the sphere is admissible, above it is not
    assert slack_stats(u, x, 0.5 * lam_bar).admissible
    assert not slack_stats(u, x, 2.0 * lam_bar).admissible


class FarNonFiniteField(ScalarField):
    """Unit bubble near the origin, a non-finite constant for |x| > 5."""

    def __init__(self, far: float):
        self.far = far

    def value(self, x) -> float:
        p = Vec2.of(x)
        return self.far if p.norm() > 5.0 else B.value(p)


@pytest.mark.parametrize("far", [math.nan, math.inf, -math.inf])
def test_non_finite_slack_fails_closed(far):
    u = FarNonFiniteField(far)
    st = slack_stats(u, Vec2(0.0, 0.0), 0.8, n_radii=12, n_angles=8)
    assert not st.admissible
    assert not math.isfinite(st.min_slack)
    try:
        rep = critical_lambda(u, Vec2(0.0, 0.0), lam_max=4.0, n_radii=12, n_angles=8)
    except DomainError:
        return
    assert not rep.unbounded
