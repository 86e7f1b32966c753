"""The moving-spheres search against an unfused, memo-free reference copy;
the certified root and its fallback; each radius evaluated once; the search
trace; bounded, validated input; fail-closed handling of the image half of
the slack grid."""

import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import conformal2d.cli as cli
import conformal2d.spheres as spheres
from conformal2d import (
    Bubble,
    ChenLiBubble,
    ConstantField,
    DomainError,
    MobiusMap,
    PullbackField,
    ScalarField,
    Vec2,
    critical_lambda,
    pullback,
    slack_stats,
)
from conformal2d.cli import main
from conformal2d.spheres import (
    LAM_MAX_LIMIT,
    RHO_MIN_FACTOR,
    SLACK_TOL_SCALE,
    MovingSphereReport,
    SlackStats,
)
from conformal2d.suites import spheres_suite
from scipy.optimize import brentq
from test_spheres import B, SLACK_CASES

# -- reference: the search as written before the grid was fused ---------------


def ref_ms_values(u, x, lam, y1, y2):
    d1, d2 = y1 - x.x1, y2 - x.x2
    rho2 = d1 * d1 + d2 * d2
    if (rho2 == 0.0).any():
        raise DomainError("transform undefined at its own center")
    scale = lam * lam / rho2
    base = u.values(x.x1 + scale * d1, x.x2 + scale * d2)
    return base - 2.0 * np.log(rho2 / (lam * lam))


def ref_slack_stats(u, x, lam, n_radii=48, n_angles=64):
    """Two values calls (samples, then images), no cached stencil."""
    radii = np.geomspace(RHO_MIN_FACTOR * lam, max(100.0, 10.0 * lam), n_radii)[:, None]
    th = np.linspace(0.0, 2.0 * math.pi, n_angles, endpoint=False)
    dirs = np.stack([np.cos(th), np.sin(th)], axis=1)
    y1 = x.x1 + radii * dirs[:, 0]
    y2 = x.x2 + radii * dirs[:, 1]
    uy = u.values(y1, y2)
    slack = uy - ref_ms_values(u, x, lam, y1, y2)
    finite = bool(np.isfinite(slack).all())
    admissible = finite and bool((slack >= -SLACK_TOL_SCALE * (1.0 + np.abs(uy))).all())
    min_slack = float(slack.min()) if finite else math.nan
    return SlackStats(min_slack, float(np.abs(slack).max()), admissible)


def ref_critical_lambda(u, x, lam_max, tol=1e-3, n_radii=48, n_angles=64):
    """Halving, bisection and brentq polish, every radius evaluated afresh."""

    def stats(lam):
        return ref_slack_stats(u, x, lam, n_radii, n_angles)

    top = stats(lam_max)
    if top.admissible:
        return MovingSphereReport(x, None, True, top.min_slack, None, None)
    lo, lo_stats = lam_max, top
    for _ in range(60):
        hi, hi_stats = lo, lo_stats
        lo *= 0.5
        lo_stats = stats(lo)
        if lo_stats.admissible:
            break
    while hi - lo > tol * lo:
        mid = 0.5 * (lo + hi)
        st = stats(mid)
        if st.admissible:
            lo, lo_stats = mid, st
        else:
            hi, hi_stats = mid, st
    lam_bar = lo
    if lo_stats.min_slack > 0.0 > hi_stats.min_slack:
        lam_bar = float(brentq(lambda lam: stats(lam).min_slack, lo, hi, xtol=1e-14 * lo))
    return MovingSphereReport(x, lam_bar, False, lo_stats.min_slack,
                              stats(lam_bar).max_abs_slack, (lo, hi))


def hexed(v):
    if v is None:
        return None
    if isinstance(v, tuple):
        return tuple(hexed(t) for t in v)
    return float(v).hex()


def report_bits(rep):
    return (hexed(rep.lambda_bar), rep.unbounded, hexed(rep.min_slack),
            hexed(rep.equality_residual), hexed(rep.bracket))


def stats_bits(st):
    return (hexed(st.min_slack), hexed(st.max_abs_slack), st.admissible)


def as_bubble(u):
    """u as a Bubble, for a bubble, a Chen-Li bubble or a Moebius pullback of
    a bubble; None for any other field.

    A bubble's e^{-u/2} is (8 |x - c|^2 + b) / (8a).  Through the normalized
    psi = (alpha z + beta) / (gamma z + delta), e^{-u_psi/2} = Q(z) / (8a)
    with Q = 8 |p z + q|^2 + b |gamma z + delta|^2, p = alpha - c gamma and
    q = beta - c delta.  Q is A |z - z0|^2 + Q(z0) with A = 8 |p|^2 +
    b |gamma|^2, so u_psi = Bubble(8a / A, 8 Q(z0) / A, z0)."""
    if isinstance(u, ChenLiBubble):
        return u.as_bubble()
    if isinstance(u, Bubble):
        return u
    if not (isinstance(u, PullbackField) and isinstance(u.base, Bubble)
            and isinstance(u.map, MobiusMap)):
        return None
    bub, m = u.base, u.map
    c = complex(bub.x0.x1, bub.x0.x2)
    p, q = m.a - c * m.c, m.b - c * m.d
    big_a = 8.0 * abs(p) ** 2 + bub.b * abs(m.c) ** 2
    z0 = -(8.0 * p.conjugate() * q + bub.b * m.c.conjugate() * m.d) / big_a
    q0 = 8.0 * abs(p * z0 + q) ** 2 + bub.b * abs(m.c * z0 + m.d) ** 2
    if m.conjugating:  # u_psi(z) is the pullback through the plain map at conj(z)
        z0 = z0.conjugate()
    return Bubble(8.0 * bub.a / big_a, 8.0 * q0 / big_a, Vec2(z0.real, z0.imag))


def closed_form(u, x):
    """lambda_bar(x) = sqrt(|x - c|^2 + b/8) when u is a bubble (as_bubble)."""
    bub = as_bubble(u)
    if bub is None:
        return None
    return math.hypot(x.x1 - bub.x0.x1, x.x2 - bub.x0.x2, math.sqrt(bub.b / 8.0))


def assert_certified_bracket(u, x, rep, tol, n_radii=48, n_angles=64):
    """The reference grid finds bracket[0] admissible and bracket[1] not, the
    bracket is no wider than tol and holds lambda_bar, and min_slack is the
    trace entry of bracket[0]."""
    lo, hi = rep.bracket
    assert lo <= rep.lambda_bar <= hi
    assert hi - lo <= tol * lo
    assert ref_slack_stats(u, x, lo, n_radii, n_angles).admissible
    assert not ref_slack_stats(u, x, hi, n_radii, n_angles).admissible
    assert hexed(rep.min_slack) == hexed(dict((t[0], t[2]) for t in rep.trace)[lo])


def assert_matches_reference(u, x, rep, lam_max, tol=1e-3, n_radii=48, n_angles=64):
    """lambda_bar within 1e-12 of the reference search's and 1e-11 of the
    closed form, a certified bracket, and min_slack and equality_residual
    bit for bit those of the reference grid at bracket[0] and lambda_bar."""
    ref = ref_critical_lambda(u, x, lam_max, tol, n_radii, n_angles)
    assert not rep.unbounded and not ref.unbounded
    assert rep.lambda_bar == pytest.approx(ref.lambda_bar, rel=1e-12, abs=0.0)
    want = closed_form(u, x)
    if want is not None:
        assert rep.lambda_bar == pytest.approx(want, rel=1e-11, abs=0.0)
    assert_certified_bracket(u, x, rep, tol, n_radii, n_angles)
    assert hexed(rep.min_slack) == hexed(
        ref_slack_stats(u, x, rep.bracket[0], n_radii, n_angles).min_slack)
    assert hexed(rep.equality_residual) == hexed(
        ref_slack_stats(u, x, rep.lambda_bar, n_radii, n_angles).max_abs_slack)


def halvings(rep) -> int:
    """Halvings of lam_max before the first admissible radius of the trace."""
    return [admissible for _, admissible, _, _ in rep.trace].index(True)


# cases with a bounded search: the SLACK_CASES families, and base points 0.1
# to 0.3 off the bubble center
SEARCH_CASES = {name: (u, x) for name, (u, x, _) in SLACK_CASES.items()}
SEARCH_CASES.update({
    "bubble_off_0.1": (B, Vec2(0.1, 0.0)),
    "bubble_off_0.2": (B, Vec2(-0.12, 0.16)),
    "bubble_off_0.3": (B, Vec2(0.0, -0.3)),
    "bubble_off_0.25": (Bubble(1.3, 12.0, Vec2(0.2, -0.1)), Vec2(0.35, 0.1)),
})


@pytest.fixture
def lam_calls(monkeypatch):
    """Record the radius of every slack_stats call the search makes."""
    calls = []
    original = spheres.slack_stats

    def counting(u, x, lam, *args, **kwargs):
        calls.append(lam)
        return original(u, x, lam, *args, **kwargs)

    monkeypatch.setattr(spheres, "slack_stats", counting)
    return calls


@pytest.mark.parametrize("name", sorted(SEARCH_CASES))
def test_search_matches_reference_bit_for_bit(name, lam_calls):
    u, x = SEARCH_CASES[name]
    rep = critical_lambda(u, x, lam_max=64.0)
    assert_matches_reference(u, x, rep, 64.0)
    # no radius is evaluated twice, and the trace lists each one in order
    assert len(lam_calls) == len(set(lam_calls)) == len(rep.trace)
    assert [t[0] for t in rep.trace] == lam_calls
    assert rep.to_dict()["slack_evaluations"] == len(lam_calls)


def test_search_with_non_default_grid_matches_reference(lam_calls):
    u, x = SEARCH_CASES["bubble_off_0.2"]
    rep = critical_lambda(u, x, 64.0, tol=1e-4, n_radii=20, n_angles=13)
    assert_matches_reference(u, x, rep, 64.0, 1e-4, 20, 13)
    assert len(lam_calls) == len(set(lam_calls))
    for lam, admissible, min_slack, max_abs in rep.trace:
        st = ref_slack_stats(u, x, lam, 20, 13)
        assert stats_bits(st) == (hexed(min_slack), hexed(max_abs), admissible)


@st.composite
def bubble_searches(draw):
    """A Bubble(a, b, c), or its pullback through a Moebius map near the
    identity, and a base point 0 to 0.3 off the bubble's center."""
    unit = st.floats(-1.0, 1.0)
    u = Bubble(draw(st.floats(0.5, 2.0)), draw(st.floats(2.0, 24.0)),
               Vec2(0.3 * draw(unit), 0.3 * draw(unit)))
    if draw(st.booleans()):
        coeffs = [complex(1.0 + 0.1 * draw(unit), 0.1 * draw(unit)),
                  complex(0.1 * draw(unit), 0.1 * draw(unit)),
                  complex(0.05 * draw(unit), 0.05 * draw(unit)), 1.0]
        u = pullback(u, MobiusMap(*coeffs, conjugating=draw(st.booleans())))
    center = as_bubble(u).x0
    r, t = draw(st.floats(0.0, 0.3)), draw(st.floats(0.0, 2.0 * math.pi))
    return u, Vec2(center.x1 + r * math.cos(t), center.x2 + r * math.sin(t))


@settings(max_examples=60, deadline=None)
@given(search=bubble_searches(), tol=st.sampled_from([1e-3, 1e-4, 1e-6]))
def test_certified_root_on_random_bubbles(search, tol):
    u, x = search
    bub = as_bubble(u)
    assert bub.value(x) == pytest.approx(u.value(x), rel=1e-12, abs=1e-12)
    rep = critical_lambda(u, x, 64.0, tol)
    assert rep.lambda_bar == pytest.approx(closed_form(u, x), rel=1e-11, abs=0.0)
    assert_certified_bracket(u, x, rep, tol)
    # the halving grids, then lam* and lam* (1 + tol/2): no fallback
    assert len(rep.trace) <= halvings(rep) + 3


@pytest.mark.parametrize("name", sorted(SEARCH_CASES))
@pytest.mark.parametrize("tol", [1e-3, 1e-4, 1e-6])
# the one-sample root lands where the sample's slack is -1e-3, an inadmissible
# radius, or 1e-8, just below lambda_bar, where min_slack is about 1e-11
@pytest.mark.parametrize("shift", [1e-3, -1e-8])
def test_failed_certificate_falls_back_to_bisection(name, tol, shift, monkeypatch):
    original = spheres._sample_slack
    monkeypatch.setattr(spheres, "_sample_slack", lambda *args: original(*args) + shift)
    u, x = SEARCH_CASES[name]
    rep = critical_lambda(u, x, 64.0, tol)
    assert len(rep.trace) > halvings(rep) + 3
    assert_matches_reference(u, x, rep, 64.0, tol)


def test_constant_field_search_matches_reference(lam_calls):
    u, x = ConstantField(0.7), Vec2(0.3, -0.2)
    rep = critical_lambda(u, x, lam_max=50.0)
    assert report_bits(rep) == report_bits(ref_critical_lambda(u, x, 50.0))
    assert rep.unbounded and lam_calls == [50.0]
    assert len(rep.trace) == 1 and rep.trace[0][:3] == (50.0, True, rep.min_slack)


@pytest.mark.parametrize("name", sorted(SLACK_CASES))
@pytest.mark.parametrize("grid", [(48, 64), (7, 5)])
def test_fused_slack_stats_matches_reference(name, grid):
    u, x, lam_bar = SLACK_CASES[name]
    for lam in (0.3, 0.9, 1.0, 1.7, 3.1) if lam_bar is None else (
            0.5 * lam_bar, lam_bar, 1.001 * lam_bar, 2.0 * lam_bar):
        assert stats_bits(slack_stats(u, x, lam, *grid)) == \
            stats_bits(ref_slack_stats(u, x, lam, *grid))


# -- the search trace ------------------------------------------------------------


def test_suite_rows_gain_slack_evaluations_only_on_search_rows():
    rows = spheres_suite()
    with_key = [r.name for r in rows if "slack_evaluations" in r.extras]
    assert with_key == ["spheres-lambda-bar-center", "spheres-constant-unbounded"]
    center = rows[0].extras
    assert center["slack_evaluations"] > 1
    assert set(center) == {"x", "lambda_bar", "unbounded", "min_slack",
                           "equality_residual", "bracket", "slack_evaluations"}


def test_cli_writes_search_trace_without_new_searches(tmp_path, capsys, monkeypatch):
    search_calls, curve_calls = [], []
    original = spheres.slack_stats
    monkeypatch.setattr(spheres, "slack_stats",
                        lambda u, x, lam, *a, **k: search_calls.append(lam) or original(
                            u, x, lam, *a, **k))
    monkeypatch.setattr(cli, "slack_stats",
                        lambda u, x, lam, *a, **k: curve_calls.append(lam) or original(
                            u, x, lam, *a, **k))
    csvdir = tmp_path / "ms"
    assert main(["moving-spheres", "--x", "0.1,0", "--csv-dir", str(csvdir)]) == 0
    rep = json.loads(capsys.readouterr().out)["report"]
    lines = (csvdir / "search-trace.csv").read_text().strip().splitlines()
    assert lines[0] == "lambda,admissible,min_slack,max_abs_slack"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == rep["slack_evaluations"] == len(search_calls)
    assert [float(r[0]) for r in rows] == search_calls
    assert {r[1] for r in rows} == {"0", "1"}
    # the polished radius is read back for the equality residual
    polished = [r for r in rows if float(r[0]) == rep["lambda_bar"]]
    assert len(polished) == 1 and float(polished[0][3]) == rep["equality_residual"]
    assert len(curve_calls) == 17


# -- bounded, validated search --------------------------------------------------------


@pytest.mark.parametrize("argv", [
    ["--tol", "0"], ["--tol", "-1"], ["--tol", "nan"], ["--tol", "inf"],
    ["--lam-max", "inf"], ["--lam-max", "nan"], ["--lam-max", "0"],
])
def test_out_of_domain_search_arguments_exit_2(argv, capsys):
    assert main(["moving-spheres", *argv]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    name = "tol" if argv[0] == "--tol" else "lam_max"
    assert err == [f"error: {name} must be finite and positive"]


@pytest.mark.parametrize("kwargs", [{"tol": 0.0}, {"tol": -1.0}, {"tol": math.nan},
                                    {"lam_max": math.inf}, {"lam_max": -2.0}])
def test_out_of_domain_search_arguments_raise(kwargs):
    args = {"lam_max": 64.0, **kwargs}
    with pytest.raises(ValueError):
        critical_lambda(B, Vec2(0.0, 0.0), **args)


def test_tiny_tol_stops_at_adjacent_doubles(lam_calls, capsys):
    rep = critical_lambda(B, Vec2(0.1, 0.0), lam_max=64.0, tol=1e-300)
    lo, hi = rep.bracket
    assert hi == np.nextafter(lo, math.inf)
    # 7 halvings, 52 bisection steps inside one octave, a brentq polish
    assert len(lam_calls) == len(set(lam_calls)) <= 7 + 53 + 10
    # lo is admissible within the 1e-9 (1 + |u|) slack allowance
    assert rep.lambda_bar == pytest.approx(math.sqrt(0.01 + 1.0), rel=1e-8)
    assert main(["moving-spheres", "--x", "0.1,0", "--tol", "1e-300"]) == 0
    assert json.loads(capsys.readouterr().out)["report"]["lambda_bar"] == rep.lambda_bar


CONSISTENCY_CASES = {"center_0.1": (B, Vec2(0.1, 0.0), 64.0),
                     # halving lands on lambda_bar = 1 exactly
                     "center_lam_max_8": (B, Vec2(0.0, 0.0), 8.0),
                     **{k: (u, x, 64.0) for k, (u, x) in SEARCH_CASES.items()}}


@pytest.mark.parametrize("name", sorted(CONSISTENCY_CASES))
@pytest.mark.parametrize("tol", [10.0, 1e-3, 1e-9, 1e-12, 1e-300])
def test_every_report_describes_its_own_radius(name, tol):
    u, x, lam_max = CONSISTENCY_CASES[name]
    rep = critical_lambda(u, x, lam_max, tol)
    lo, hi = rep.bracket
    assert lo <= rep.lambda_bar <= hi
    assert hi - lo <= tol * lo or hi == np.nextafter(lo, math.inf)
    trace = {lam: (admissible, ms, mx) for lam, admissible, ms, mx in rep.trace}
    assert trace[lo][0] and hexed(trace[lo][1]) == hexed(rep.min_slack)
    assert hexed(trace[rep.lambda_bar][2]) == hexed(rep.equality_residual)
    # hi is inadmissible, or, only where the search fell back to bisection,
    # inside the slack allowance with min_slack below -SLACK_ROUNDOFF
    if trace[hi][0]:
        assert trace[hi][1] < -spheres.SLACK_ROUNDOFF
        assert len(rep.trace) > halvings(rep) + 3


def test_lam_max_beyond_the_finite_grid_is_refused(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["moving-spheres", "--lam-max", "1e200"]) == 2
        # up to the limit the grid stays finite: the search just halves
        with pytest.raises(DomainError, match=r"lam_max / 2\^60$"):
            critical_lambda(B, Vec2(0.3, -0.2), LAM_MAX_LIMIT)
    assert capsys.readouterr().err.splitlines() == [
        f"error: lam_max must be at most {LAM_MAX_LIMIT:.6g}, "
        "where |y - x|^2 on the sample grid stays finite"]
    with pytest.raises(ValueError, match="at most"):
        critical_lambda(B, Vec2(0.0, 0.0), np.nextafter(LAM_MAX_LIMIT, math.inf))


@pytest.mark.parametrize("x, lam_max", [((0.0, 0.0), 1e-300), ((1e300, 0.0), 64.0)])
def test_lam_max_whose_samples_round_onto_x_is_refused(x, lam_max):
    # both raised DomainError("transform undefined at its own center")
    with pytest.raises(ValueError, match="below which the nearest samples round onto x"):
        critical_lambda(B, x, lam_max)


# -- fail closed on the image half of the grid -----------------------------------------


class NearBaseField(ScalarField):
    """Unit bubble, but `near` (a value, or an exception to raise) within
    0.3 of the base point: only Kelvin images of a radius-0.8 grid go there."""

    def __init__(self, near, base=Vec2(0.05, 0.0)):
        self.near, self.base = near, base

    def value(self, x) -> float:
        p = Vec2.of(x)
        if (p - self.base).norm() >= 0.3:
            return B.value(p)
        if isinstance(self.near, Exception):
            raise self.near
        return self.near


# at small radii both halves reach the infinite region, and inf - inf in the
# slack is the NaN this test expects
@pytest.mark.filterwarnings("ignore:invalid value encountered in subtract:RuntimeWarning")
@pytest.mark.parametrize("near", [math.nan, math.inf, -math.inf])
def test_non_finite_image_half_fails_closed(near):
    u = NearBaseField(near)
    x = u.base
    st = slack_stats(u, x, 0.8, n_radii=12, n_angles=8)
    assert not st.admissible
    assert math.isnan(st.min_slack)
    assert stats_bits(st) == stats_bits(ref_slack_stats(u, x, 0.8, 12, 8))
    try:
        rep = critical_lambda(u, x, lam_max=4.0, n_radii=12, n_angles=8)
    except DomainError:
        return
    assert not rep.unbounded


class ImageOnlyError(RuntimeError):
    pass


def test_exception_on_image_points_propagates():
    u = NearBaseField(ImageOnlyError("image point"))
    with pytest.raises(ImageOnlyError, match="image point"):
        slack_stats(u, u.base, 0.8, n_radii=12, n_angles=8)
    with pytest.raises(ImageOnlyError, match="image point"):
        critical_lambda(u, u.base, lam_max=4.0, n_radii=12, n_angles=8)


# -- a tighter tol never gives a worse radius ------------------------------------------


@pytest.mark.parametrize("name", ["center_0.1"] + sorted(
    k for k in SEARCH_CASES if k.startswith("bubble_off")))
@pytest.mark.parametrize("tol", [1e-3, 1e-6, 1e-9, 1e-12, 1e-300])
def test_lambda_bar_is_the_closed_form_at_every_tol(name, tol):
    u, x = (B, Vec2(0.1, 0.0)) if name == "center_0.1" else SEARCH_CASES[name]
    rep = critical_lambda(u, x, lam_max=64.0, tol=tol)
    want = math.hypot(x.x1 - u.x0.x1, x.x2 - u.x0.x2, math.sqrt(u.b / 8.0))
    assert abs(rep.lambda_bar - want) <= 1e-11 * rep.lambda_bar
