"""The in-place slack and value kernels: bit for bit the arithmetic of the
temporaries-making versions they replace, and safe with the caller's arrays
(never written into, read-only accepted, non-finite rejected, broadcast)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import conformal2d.spheres as spheres
from conformal2d import (
    Bubble,
    ChenLiBubble,
    ComposedMap,
    ConstantField,
    DomainError,
    ExpMap,
    LiouvilleField,
    MobiusMap,
    PolynomialMap,
    ScalarField,
    Vec2,
    bubble_fit,
    exp_example,
    ms_value,
    pullback,
    slack_stats,
)
from conformal2d.spheres import RHO_MIN_FACTOR, SLACK_TOL_SCALE, SlackStats
from test_spheres import SLACK_CASES

# -- the kernels as written with temporaries, kept as the reference ------------


def ref_bubble_values(u, x1, x2):
    x1, x2 = np.broadcast_arrays(np.asarray(x1, dtype=float), np.asarray(x2, dtype=float))
    d1, d2 = x1 - u.x0.x1, x2 - u.x0.x2
    s = 8.0 * (d1 * d1 + d2 * d2) + u.b
    return 2.0 * math.log(8.0 * u.a) - 2.0 * np.log(s)


def ref_mobius_values_d1(m, z):
    zz = np.asarray(z, dtype=complex)
    if m.conjugating:
        zz = zz.conjugate()
    den = m.c * zz + m.d
    return (m.a * zz + m.b) / den, 1.0 / (den * den)


def ref_pullback_values(u, x1, x2):
    x1, x2 = np.broadcast_arrays(np.asarray(x1, dtype=float), np.asarray(x2, dtype=float))
    w, d1 = u.map.values_d1(x1 + 1j * x2)
    return u.base.values(w.real, w.imag) + 2.0 * np.log(np.abs(d1))


def ref_slack_stats(u, x, lam, n_radii=48, n_angles=64, r_out=None):
    """slack_stats as written with np.geomspace and a temporary per step."""
    xv = Vec2.of(x)
    if r_out is None:
        r_out = max(100.0, 10.0 * lam)
    radii = np.geomspace(RHO_MIN_FACTOR * lam, r_out, n_radii)[:, None]
    th = np.linspace(0.0, 2.0 * math.pi, n_angles, endpoint=False)
    cos, sin = np.cos(th), np.sin(th)
    p1, p2 = np.empty((2, 2, n_radii, n_angles))
    np.add(xv.x1, radii * cos, out=p1[0])
    np.add(xv.x2, radii * sin, out=p2[0])
    d1, d2 = p1[0] - xv.x1, p2[0] - xv.x2
    rho2 = d1 * d1 + d2 * d2
    if (rho2 == 0.0).any():
        raise DomainError("transform undefined at its own center")
    scale = lam * lam / rho2
    np.add(xv.x1, scale * d1, out=p1[1])
    np.add(xv.x2, scale * d2, out=p2[1])
    jac = 2.0 * np.log(rho2 / (lam * lam))
    uy, u_img = u.values(p1, p2)
    slack = uy - (u_img - jac)
    max_abs = float(np.abs(slack).max())
    finite = math.isfinite(max_abs)
    admissible = finite and bool((slack >= -SLACK_TOL_SCALE * (1.0 + np.abs(uy))).all())
    min_slack = float(slack.min()) if finite else math.nan
    return SlackStats(min_slack, max_abs, admissible)


def bits(a):
    """Raw bytes, so that -0.0 and 0.0, and NaN payloads, count as different."""
    return np.ascontiguousarray(a, dtype=float).tobytes()


def stats_bits(s):
    return (float(s.min_slack).hex(), float(s.max_abs_slack).hex(), s.admissible)


MOBIUS = MobiusMap(1.05 + 0.1j, 0.1, 0.05j, 1.0)
FAMILIES = {
    "bubble": Bubble(1.3, 12.0, Vec2(0.2, -0.1)),
    "chen_li": ChenLiBubble(0.6, Vec2(-0.1, 0.1)),
    "liouville_poly": LiouvilleField(PolynomialMap([0.0, 1.5, 0.1 + 0.05j, 0.03])),
    "liouville_exp": exp_example(),
    "pullback_mobius": pullback(Bubble(1.0, 10.0), MOBIUS),
    "pullback_reflection": pullback(Bubble(1.0, 10.0), MobiusMap.inversion()),
    "pullback_composed": pullback(Bubble(0.7, 5.0), ComposedMap(MOBIUS, ExpMap())),
    "constant": ConstantField(0.4),
}


def grid(rng, shape=(5, 7)):
    return rng.uniform(-2.0, 2.0, shape), rng.uniform(-2.0, 2.0, shape)


# -- bit identity ------------------------------------------------------------


def test_value_kernels_match_temporaries_bit_for_bit():
    rng = np.random.default_rng(11)
    x1, x2 = grid(rng, (3, 40, 9))
    x1[0, 0, :3] = [-0.0, 0.0, -0.0]  # signed zeros go through unchanged
    for u in (FAMILIES["bubble"], FAMILIES["chen_li"].as_bubble(), Bubble(2.0, 1e-3)):
        assert bits(u.values(x1, x2)) == bits(ref_bubble_values(u, x1, x2))
    for name in ("pullback_mobius", "pullback_reflection", "pullback_composed"):
        u = FAMILIES[name]
        assert bits(u.values(x1, x2)) == bits(ref_pullback_values(u, x1, x2))
    z = x1 + 1j * x2
    for m in (MOBIUS, MobiusMap.inversion(), MobiusMap.sphere_inversion(Vec2(0.3, 0.1), 1.7)):
        for got, want in zip(m.values_d1(z), ref_mobius_values_d1(m, z)):
            assert bits(got.view(float)) == bits(want.view(float))


@pytest.mark.parametrize("name", sorted(SLACK_CASES))
@settings(max_examples=25, deadline=None)
@given(lam=st.floats(1e-3, 1e3), n_radii=st.integers(2, 64), n_angles=st.integers(1, 80),
       r_out=st.one_of(st.none(), st.floats(1e-2, 1e4)))
def test_slack_stats_matches_temporaries_bit_for_bit(name, lam, n_radii, n_angles, r_out):
    u, x, _ = SLACK_CASES[name]
    try:
        want = ref_slack_stats(u, x, lam, n_radii, n_angles, r_out)
    except DomainError as exc:
        with pytest.raises(type(exc)):
            slack_stats(u, x, lam, n_radii, n_angles, r_out)
        return
    assert stats_bits(slack_stats(u, x, lam, n_radii, n_angles, r_out)) == stats_bits(want)


def test_radii_ramp_matches_geomspace_bit_for_bit():
    rng = np.random.default_rng(3)
    start = RHO_MIN_FACTOR * 10.0 ** rng.uniform(-3.0, 3.0, 10_000)
    stop = 10.0 ** rng.uniform(-2.0, 4.0, 10_000)
    counts = rng.integers(1, 65, 10_000)
    for a, b, n in zip(start.tolist(), stop.tolist(), counts.tolist()):
        assert bits(spheres._log_radii(a, b, n)) == bits(np.geomspace(a, b, n)[:, None])


def test_ms_value_matches_temporaries_bit_for_bit():
    u, x, lam = FAMILIES["bubble"], Vec2(0.23, -0.08), 1.4
    y = Vec2(x.x1 + 2.0, x.x2 - 0.5)
    d1, d2 = y.x1 - x.x1, y.x2 - x.x2
    rho2 = d1 * d1 + d2 * d2
    img = (x.x1 + lam * lam / rho2 * d1, x.x2 + lam * lam / rho2 * d2)
    want = u.values(np.array([img[0]]), np.array([img[1]]))[0] - 2.0 * np.log(
        np.array([rho2]) / (lam * lam))[0]
    assert ms_value(u, x, lam, y) == want


# -- ownership and input handling -----------------------------------------------


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_values_leave_inputs_alone_and_take_read_only_arrays(name):
    u = FAMILIES[name]
    x1, x2 = grid(np.random.default_rng(5))
    c1, c2 = x1.copy(), x2.copy()
    want = u.values(x1, x2)
    assert bits(x1) == bits(c1) and bits(x2) == bits(c2)
    x1.flags.writeable = x2.flags.writeable = False
    assert bits(u.values(x1, x2)) == bits(want)


def test_slack_stats_ms_value_and_fit_leave_inputs_alone():
    u = FAMILIES["pullback_mobius"]
    x, y = np.array([0.1, -0.05]), np.array([1.7, 0.4])
    samples = np.random.default_rng(2).uniform(0.2, 2.0, (24, 2))
    saved = [a.copy() for a in (x, y, samples)]
    for a in (x, y, samples):
        a.flags.writeable = False
    st_ = slack_stats(u, x, 0.8, n_radii=12, n_angles=9)
    ms = ms_value(u, x, 0.8, y)
    fit = bubble_fit(u, samples)
    for a, b in zip((x, y, samples), saved):
        assert bits(a) == bits(b)
    assert stats_bits(st_) == stats_bits(slack_stats(u, saved[0], 0.8, 12, 9))
    assert ms == ms_value(u, saved[0], 0.8, saved[1])
    assert fit.is_bubble
    # the cached stencil and radii ramp stay read-only
    assert not spheres._stencil(9)[0].flags.writeable
    assert not spheres._ramp(12).flags.writeable


class ReadOnlyValues(ScalarField):
    """A bubble whose values() hands back a read-only array."""

    def values(self, x1, x2):
        out = FAMILIES["bubble"].values(x1, x2)
        out.flags.writeable = False
        return out


def test_user_field_with_read_only_values_works_in_slack_stats():
    x = Vec2(0.23, -0.08)
    for lam in (0.6, 1.2, 2.5):
        assert stats_bits(slack_stats(ReadOnlyValues(), x, lam)) == \
            stats_bits(slack_stats(FAMILIES["bubble"], x, lam))


@pytest.mark.parametrize("name", sorted(FAMILIES))
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_coordinates_raise(name, bad):
    x1, x2 = grid(np.random.default_rng(7))
    x2[1, 2] = bad
    with pytest.raises(ValueError, match="non-finite coordinate"):
        FAMILIES[name].values(x1, x2)


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_mismatched_shapes_still_broadcast(name):
    u = FAMILIES[name]
    x1 = grid(np.random.default_rng(9))[0]
    assert bits(u.values(x1, 0.3)) == bits(u.values(x1, np.full_like(x1, 0.3)))
    assert bits(u.values(0.3, x1[:, :1])) == bits(u.values(np.full((5, 1), 0.3), x1[:, :1]))
    assert bits(Bubble(1.0, 8.0).values(x1, 0.0)) == bits(ref_bubble_values(Bubble(1.0, 8.0), x1, 0.0))


@pytest.mark.parametrize("lam", [0.0, -1.0, math.nan])
def test_slack_stats_rejects_a_radius_that_is_not_positive(lam):
    with pytest.raises(ValueError):
        slack_stats(FAMILIES["bubble"], Vec2(0.0, 0.0), lam)
