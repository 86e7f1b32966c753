"""The batched one-sample probe that brackets the critical sphere radius:
each row is the one-sample slack bit for bit, a certified search costs three
grids, and a probe that fails leaves the full-grid search's report or error."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import conformal2d.spheres as spheres
from conformal2d import DomainError, ScalarField, Vec2, critical_lambda, slack_stats
from conformal2d.spheres import RHO_MIN_FACTOR
from test_spheres import B
from test_spheres_search import (
    SEARCH_CASES,
    as_bubble,
    assert_matches_reference,
    bubble_searches,
    closed_form,
    hexed,
    report_bits,
)


def full_grid_search(monkeypatch, *args, **kwargs):
    """critical_lambda with the probe switched off: the search as it was
    before the probe, halving, certificate, bisection and polish."""
    with monkeypatch.context() as mp:
        mp.setattr(spheres, "_probe_bracket", lambda *a: None)
        return critical_lambda(*args, **kwargs)


def outcome(search):
    """A report's bits and its trace, or the type and message it raised."""
    try:
        rep = search()
    except DomainError as e:
        return type(e).__name__, str(e)
    return report_bits(rep), tuple(tuple(hexed(v) if isinstance(v, float) else v for v in t)
                                   for t in rep.trace)


# -- (a) each batched row is the one-sample slack ------------------------------------


@settings(max_examples=40, deadline=None)
@given(search=bubble_searches(), lam_max=st.floats(0.5, 100.0),
       grid=st.sampled_from([(48, 64), (7, 5), (20, 13)]), data=st.data())
def test_probe_rows_equal_one_sample_slack_bit_for_bit(search, lam_max, grid, data):
    u, x = search
    n_radii, n_angles = grid
    index = data.draw(st.integers(0, n_radii * n_angles - 1))
    # the radii a search probes: lam_max and its halvings whose nearest
    # samples stay off x
    rho_floor = max(math.ulp(x.x1), math.ulp(x.x2), spheres._SQRT_TINY)
    lams = lam_max * 0.5 ** np.arange(61.0)
    lams = lams[RHO_MIN_FACTOR * lams > rho_floor]
    rows = spheres._sample_slack(u, x, lams, n_radii, n_angles, index)
    assert rows.shape == lams.shape
    assert [r.hex() for r in rows.tolist()] == [
        spheres._sample_slack(u, x, lam, n_radii, n_angles, index).hex() for lam in lams.tolist()]
    # row 0 is the grid's slack at that sample, as the certificate assumes
    st_ = slack_stats(u, x, lam_max, n_radii, n_angles)
    assert spheres._sample_slack(u, x, lam_max, n_radii, n_angles, st_.argmin) == st_.min_slack


# -- (b) a certified search costs three grids ------------------------------------------

# every search case whose field is a bubble up to a Moebius map; the touching
# of liouville_poly, a polynomial pullback, is at a sample other than the one
# where lam_max's slack is least, and that search falls back
BUBBLE_CASES = sorted(k for k, (u, _) in SEARCH_CASES.items() if as_bubble(u) is not None)


def test_bubble_cases_are_all_but_the_polynomial_pullback():
    assert set(SEARCH_CASES) - set(BUBBLE_CASES) == {"liouville_poly"}


@pytest.mark.parametrize("name", BUBBLE_CASES)
@pytest.mark.parametrize("tol", [1e-3, 1e-4, 1e-6])
def test_certified_search_costs_three_grids(name, tol):
    u, x = SEARCH_CASES[name]
    rep = critical_lambda(u, x, 64.0, tol)
    lams = [t[0] for t in rep.trace]
    assert lams == [64.0, rep.lambda_bar, rep.bracket[1]]
    assert rep.bracket[0] == rep.lambda_bar
    assert rep.lambda_bar == pytest.approx(closed_form(u, x), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("tol", [1e-3, 1e-4, 1e-6])
def test_search_the_probe_misses_matches_the_full_grid_search(tol, monkeypatch):
    u, x = SEARCH_CASES["liouville_poly"]
    rep = critical_lambda(u, x, 64.0, tol)
    full = full_grid_search(monkeypatch, u, x, 64.0, tol)
    assert report_bits(rep) == report_bits(full)
    # the probe's root grid, then the full-grid search's own
    assert [t[0] for t in rep.trace] == [64.0, rep.trace[1][0]] + [t[0] for t in full.trace[1:]]
    assert not rep.trace[1][1]


@pytest.mark.parametrize("lam_max", [8.0, 2.0])
def test_probe_that_lands_on_lambda_bar_certifies_it(lam_max):
    # lambda_bar = 1 is a probe radius; its slack reads zero to roundoff
    rep = critical_lambda(B, Vec2(0.0, 0.0), lam_max)
    assert rep.lambda_bar == 1.0 and rep.bracket == (1.0, 1.0005)
    assert [t[0] for t in rep.trace] == [lam_max, 1.0, 1.0005]


# -- (c) a probe that fails leaves the full-grid search's outcome ---------------------


class GuardedBubble(ScalarField):
    """The unit bubble B, except within `radius` of `base`, where values()
    raises DomainError (mode "raise"), reads NaN ("nan") or overflows to inf
    with a numpy RuntimeWarning ("overflow").  Only a sphere radius below
    about 10 sqrt(radius) reaches that disk, with its samples' images."""

    def __init__(self, radius, mode, base=Vec2(0.1, 0.0)):
        self.radius, self.mode, self.base = radius, mode, base

    def value(self, x):
        return float(self.values(np.array([Vec2.of(x).x1]), np.array([Vec2.of(x).x2]))[0])

    def values(self, x1, x2):
        out = B.values(x1, x2)
        inside = np.hypot(np.asarray(x1) - self.base.x1, np.asarray(x2) - self.base.x2) \
            < self.radius
        if inside.any():
            if self.mode == "raise":
                raise DomainError("inside the guarded disk")
            if self.mode == "nan":
                out = np.where(inside, math.nan, out)
            else:  # numpy's default errstate warns on the overflow
                out = np.where(inside, np.exp(np.where(inside, 1e4, 0.0)), out)
        return out


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("mode", ["raise", "nan"])
@pytest.mark.parametrize("radius", [1e-3, 0.5])
def test_probe_that_fails_gives_the_full_grid_outcome(mode, radius, monkeypatch):
    u = GuardedBubble(radius, mode)
    probe_calls = []
    original = spheres._probe_bracket

    def recording(*args):
        probe_calls.append(original(*args))
        return probe_calls[-1]

    monkeypatch.setattr(spheres, "_probe_bracket", recording)
    got = outcome(lambda: critical_lambda(u, u.base, 64.0))
    assert probe_calls == [None]
    assert got == outcome(lambda: full_grid_search(monkeypatch, u, u.base, 64.0))
    if radius == 1e-3:  # the grids never reach the disk: B's radius, certified
        rep = critical_lambda(u, u.base, 64.0)
        assert_matches_reference(u, u.base, rep, 64.0)
        assert rep.lambda_bar == pytest.approx(math.hypot(0.1, 1.0), rel=1e-12)
    elif mode == "raise":
        assert got == ("DomainError", "inside the guarded disk")
    else:
        assert got[0] == "DomainError" and got[1].startswith("no admissible sphere radius")


def test_probe_warnings_are_silenced(monkeypatch):
    # only the probe reaches the disk, where values() overflows with a warning
    u = GuardedBubble(1e-3, "overflow")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert spheres._probe_bracket(u, u.base, 64.0, 1e-300, 48, 64, 0) is None
        got = outcome(lambda: critical_lambda(u, u.base, 64.0))
        assert got == outcome(lambda: full_grid_search(monkeypatch, u, u.base, 64.0))
    with pytest.warns(RuntimeWarning, match="overflow"):
        u.values(np.array([0.1]), np.array([0.0]))


def test_probe_without_a_non_negative_slack_falls_back(monkeypatch):
    original = spheres._sample_slack
    monkeypatch.setattr(spheres, "_sample_slack", lambda *args: original(*args) - 1e6)
    u, x = SEARCH_CASES["bubble_off_0.1"]
    index = slack_stats(u, x, 64.0).argmin
    assert spheres._probe_bracket(u, x, 64.0, 1e-300, 48, 64, index) is None
    assert outcome(lambda: critical_lambda(u, x, 64.0)) == \
        outcome(lambda: full_grid_search(monkeypatch, u, x, 64.0))


def test_probe_stays_at_radii_halving_reaches(monkeypatch):
    # the nearest samples of every probe radius stay above rho_floor, and
    # there are at most 61 radii: lam_max and 60 halvings
    seen = []
    original = spheres._sample_slack

    def recording(u, xv, lam, *args):
        seen.append(np.array(lam, ndmin=1))
        return original(u, xv, lam, *args)

    monkeypatch.setattr(spheres, "_sample_slack", recording)
    rho_floor = 1e-3
    spheres._probe_bracket(B, Vec2(0.1, 0.0), 64.0, rho_floor, 48, 64, 0)
    (lams,) = seen
    assert lams.tolist() == [64.0 * 0.5**k for k in range(len(lams))]
    assert (RHO_MIN_FACTOR * lams > rho_floor).all()
    assert not RHO_MIN_FACTOR * lams[-1] * 0.5 > rho_floor
    seen.clear()
    spheres._probe_bracket(B, Vec2(0.1, 0.0), 64.0, 1e-300, 48, 64, 0)
    assert seen[0].size == 61
