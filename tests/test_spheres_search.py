"""The moving-spheres search against an unfused, memo-free reference copy;
each radius evaluated once; the search trace; bounded, validated input;
fail-closed handling of the image half of the slack grid."""

import json
import math

import numpy as np
import pytest

import conformal2d.cli as cli
import conformal2d.spheres as spheres
from conformal2d import (
    Bubble,
    ConstantField,
    DomainError,
    ScalarField,
    Vec2,
    critical_lambda,
    slack_stats,
)
from conformal2d.cli import main
from conformal2d.spheres import (
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


# cases with a bounded search: the SLACK_CASES families, base points 0.1 to
# 0.3 off the bubble center (where brentq falls back to bisection steps)
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
    assert report_bits(rep) == report_bits(ref_critical_lambda(u, x, 64.0))
    assert not rep.unbounded
    # no radius is evaluated twice, and the trace lists each one in order
    assert len(lam_calls) == len(set(lam_calls)) == len(rep.trace)
    assert [t[0] for t in rep.trace] == lam_calls
    assert rep.to_dict()["slack_evaluations"] == len(lam_calls)


def test_search_with_non_default_grid_matches_reference(lam_calls):
    u, x = SEARCH_CASES["bubble_off_0.2"]
    rep = critical_lambda(u, x, 64.0, tol=1e-4, n_radii=20, n_angles=13)
    assert report_bits(rep) == report_bits(ref_critical_lambda(u, x, 64.0, 1e-4, 20, 13))
    assert len(lam_calls) == len(set(lam_calls))
    for lam, admissible, min_slack, max_abs in rep.trace:
        st = ref_slack_stats(u, x, lam, 20, 13)
        assert stats_bits(st) == (hexed(min_slack), hexed(max_abs), admissible)


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
