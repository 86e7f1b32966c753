"""Block jets: PolynomialMap.jets, LiouvilleField.jets, the looping defaults
of ScalarField.jets and AnalyticMap.jets, and pullback_jets and
trace_residual_at on a list of points.  Each block gives its points'
one-point results bit for bit and raises what one of its failing points
raises alone; valid_points with a block-capable usable draws, accepts and
raises as one candidate at a time does; and a block builds a polynomial's
derivative coefficients once."""

import cmath
import math

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly
from hypothesis import given, settings
from hypothesis import strategies as st

import conformal2d.mobius as mobius
import conformal2d.suites as suites
from conformal2d import (
    Bubble,
    ComposedMap,
    ExpMap,
    LiouvilleField,
    MobiusMap,
    PolynomialMap,
    Vec2,
    covariance_errors_at,
    pullback,
    standard_fields,
    trace_residual_at,
)
from conformal2d.errors import Conformal2dError
from conformal2d.fields import RadialField, pullback_jets
from conformal2d.invariance import valid_points
from conformal2d.radial import RadialProfile

from test_block_draws import ACTIONS, BIT_GENERATORS, frozen, one_at_a_time, run, scripted

FIELDS = [u for _, u in standard_fields(np.random.default_rng(0))]
POLYNOMIALS = [
    PolynomialMap([0.1, 1.0, 0.3j]),
    PolynomialMap([0.1, 1.0, 0.05]),
    PolynomialMap([0.0, 2.0, 0.0, 0.02]),
    PolynomialMap([0.2j, 1.5, 0.1 - 0.2j, 0.05]),
]
MOBIUS = [
    MobiusMap(1.1, 0.2, 0.1, 1.0),
    MobiusMap(1.0, -1.0j, 1.0, 1.0j),
    MobiusMap.sphere_inversion(Vec2(0.25, 0.1), 1.2),
]
MAPS = MOBIUS + POLYNOMIALS[:2] + [
    ExpMap(),
    ComposedMap(PolynomialMap([0.0, 1.0, 0.2]), MobiusMap(1.0, 0.3, 0.2j, 1.0)),
]


# -- helpers ------------------------------------------------------------------------


def bits(obj):
    """The float.hex of every number in a map jet, field jet or nest of them."""
    if isinstance(obj, complex):
        return (float.hex(obj.real), float.hex(obj.imag))
    if isinstance(obj, float):
        return float.hex(obj)
    if hasattr(obj, "hess"):
        h = obj.hess
        return bits((obj.value, obj.grad.x1, obj.grad.x2, h.a11, h.a12, h.a22))
    return tuple(bits(v) for v in obj)


def outcome(fn, *args):
    """The bits of the result, or the type and message of what fn raised."""
    try:
        return ("ok", bits(fn(*args)))
    except Exception as e:  # noqa: BLE001 - compared, not swallowed
        return ("raised", type(e), str(e))


def assert_block_matches_points(block, one, pts):
    """block(pts) is [one(p) for p in pts] bit for bit, or raises what one of
    its failing points raises on its own."""
    singles = [outcome(one, p) for p in pts]
    got = outcome(block, pts)
    failed = [s for s in singles if s[0] == "raised"]
    if failed:
        assert got in failed
    else:
        assert got == ("ok", tuple(s[1] for s in singles))
    return got, failed


def critical_points(f):
    if not isinstance(f, PolynomialMap):
        return []
    return list(npoly.polyroots(npoly.polyder(np.array(f.coeffs, dtype=complex))))


def anchors(u=None, psi=None):
    """Points near which u, psi or the pullback of u by psi fails: the pole
    of a Moebius psi, the critical points of a polynomial psi or of the
    polynomial of a Liouville u, pulled back through a Moebius psi."""
    out = [0j]
    if isinstance(psi, MobiusMap) and psi.pole is not None:
        out.append(psi.pole)
    out += critical_points(psi)
    base = critical_points(getattr(u, "f", None))
    if isinstance(getattr(u, "map", None), MobiusMap):
        out.append(u.map.pole)
    if psi is None:
        out += base
    elif isinstance(psi, MobiusMap):
        inv = psi.inverse()
        # leave out a critical point on the inverse's pole, which has no image
        out += [inv.apply_complex(c) for c in base
                if inv.pole is None or abs(c - inv.pole) >= mobius.POLE_GUARD]
    return [complex(a) for a in out if a is not None]


@st.composite
def points_near(draw, centers, max_size=6):
    """Points within 3e-6 of the given centers (the guard radii are 1e-6 and
    1e-14), mixed with points of a [-2.5, 2.5] box."""
    def one():
        if draw(st.booleans()):
            return complex(draw(st.floats(-2.5, 2.5)), draw(st.floats(-2.5, 2.5)))
        r = draw(st.one_of(st.floats(0.0, 3e-6), st.floats(0.0, 1e-13)))
        return draw(st.sampled_from(centers)) + r * cmath.exp(1j * draw(st.floats(0.0, 2 * math.pi)))

    return [one() for _ in range(draw(st.integers(1, max_size)))]


def vecs(zs):
    return [Vec2(z.real, z.imag) for z in zs]


# -- block forms against one-point forms ----------------------------------------------


@settings(max_examples=150, deadline=None)
@given(data=st.data(), f=st.sampled_from(POLYNOMIALS + [ExpMap(), MOBIUS[1], MAPS[-1]]))
def test_map_jets_match_jet(data, f):
    zs = data.draw(points_near(anchors(psi=f)))
    assert_block_matches_points(f.jets, f.jet, zs)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), u=st.sampled_from(
    FIELDS + [LiouvilleField(f) for f in POLYNOMIALS] + [LiouvilleField(MOBIUS[1])]))
def test_field_jets_match_jet(data, u):
    pts = vecs(data.draw(points_near(anchors(u))))
    assert_block_matches_points(u.jets, u.jet, pts)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), u=st.sampled_from(FIELDS), psi=st.sampled_from(MAPS))
def test_pullback_jets_and_trace_residuals_on_a_list(data, u, psi):
    pts = vecs(data.draw(points_near(anchors(u, psi))))
    assert_block_matches_points(lambda x: pullback_jets(u, psi, x),
                                lambda p: pullback_jets(u, psi, p), pts)
    assert_block_matches_points(lambda x: trace_residual_at(u, psi, x),
                                lambda p: trace_residual_at(u, psi, p), pts)


def failing_blocks():
    """(block, one-point form, points) with one point inside a guard radius."""
    f, m = POLYNOMIALS[0], MOBIUS[0]
    crit, pole = critical_points(f)[0], m.pole
    zs = [0.3 + 0.2j, -0.5 + 1.1j, None, 1.2 - 0.4j]
    near = lambda bad: [bad if z is None else z for z in zs]  # noqa: E731
    liouville, rational = LiouvilleField(f), LiouvilleField(MOBIUS[1])
    pulled = pullback(Bubble(1.0, 8.0), m)
    u = FIELDS[6]
    return {
        "polynomial map": (f.jets, f.jet, near(crit)),
        "liouville polynomial": (liouville.jets, liouville.jet, vecs(near(crit))),
        "liouville rational": (rational.jets, rational.jet, vecs(near(MOBIUS[1].pole))),
        "default field": (pulled.jets, pulled.jet, vecs(near(pole))),
        "pullback_jets": (lambda x: pullback_jets(u, m, x), lambda p: pullback_jets(u, m, p),
                          vecs(near(pole))),
        "trace_residual_at": (lambda x: trace_residual_at(u, f, x),
                              lambda p: trace_residual_at(u, f, p), vecs(near(crit))),
        # |psi'| = e^-800 is below the 1e-300 a pullback needs
        "vanishing derivative": (lambda x: pullback_jets(u, ExpMap(), x),
                                 lambda p: pullback_jets(u, ExpMap(), p), vecs(near(-800.0))),
    }


@pytest.mark.parametrize("name", sorted(failing_blocks()))
def test_a_block_raises_what_its_failing_point_raises(name):
    block, one, pts = failing_blocks()[name]
    got, failed = assert_block_matches_points(block, one, pts)
    assert len(failed) == 1 and got == failed[0]


def test_a_block_whose_base_point_fails_raises_the_base_error():
    u, m = FIELDS[6], MOBIUS[0]  # a Liouville field on quadratic data
    x = m.inverse().apply_complex(critical_points(u.f)[0])
    pts = vecs([0.7 - 0.4j, x, 1.0 + 0.5j])
    got, failed = assert_block_matches_points(lambda b: pullback_jets(u, m, b),
                                              lambda p: pullback_jets(u, m, p), pts)
    assert got == failed[0] and "critical point" in got[2]
    with pytest.raises(Conformal2dError):
        trace_residual_at(u, m, pts)


# -- valid_points with a block-capable usable -------------------------------------------


def scripted_block(actions):
    """scripted's usable with a block form that asks the points in order and,
    where one raises, forgets them and raises what it raised."""
    usable, seen = scripted(actions)

    def block(pts):
        asked = len(seen)
        try:
            return [usable(p) for p in pts]
        except Exception:
            del seen[asked:]
            raise

    usable.block = block
    return usable, seen


def drawn(make, draw, rng, n, actions, **kwargs):
    """As test_block_draws.run, with the usable that make(actions) builds."""
    usable, seen = make(actions)
    try:
        got = ("ok", [(float.hex(p.x1), float.hex(p.x2)) for p in draw(rng, n, usable, **kwargs)])
    except Exception as e:  # noqa: BLE001 - compared, not swallowed
        got = ("raised", type(e), str(e))
    return got, seen, frozen(rng.bit_generator.state)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       bits_=st.sampled_from(BIT_GENERATORS),
       n=st.integers(0, 7),
       actions=st.lists(st.sampled_from(sorted(ACTIONS)), max_size=25),
       max_tries=st.integers(0, 3),
       radii=st.sampled_from([(0.5, 3.0), (0.0, 1.0), (2.0, 2.0), (3.0, 0.5)]))
def test_block_usable_matches_one_candidate_at_a_time(seed, bits_, n, actions, max_tries, radii):
    kwargs = dict(r_in=radii[0], r_out=radii[1], max_tries=max_tries)
    want = run(one_at_a_time, np.random.Generator(bits_(seed)), n, actions, **kwargs)
    got = drawn(scripted_block, valid_points, np.random.Generator(bits_(seed)), n, actions,
                **kwargs)
    assert got == want


def test_the_suite_usable_falls_back_where_a_block_raises():
    # an annulus field on [0.5, 1.5]: candidates beyond it raise DomainError,
    # so most rounds' blocks raise and run point by point
    r = np.linspace(0.5, 1.5, 201)
    u = RadialField(RadialProfile(r, np.sin(r)))
    m = MobiusMap(1.0, 0.1, 0.05j, 1.0)
    rng_a, rng_b = np.random.default_rng(2), np.random.default_rng(2)
    for _ in range(3):
        jets_a, jets_b = [], []
        a = valid_points(rng_a, 20, suites._usable_for(u, m, jets_a))
        b = one_at_a_time(rng_b, 20, suites._usable_for(u, m, jets_b))
        assert a == b and jets_a == jets_b
        assert rng_a.bit_generator.state == rng_b.bit_generator.state


# -- derivative coefficients ------------------------------------------------------------


@pytest.fixture
def polyder_calls(monkeypatch):
    calls = []
    original = mobius.npoly.polyder

    def counting(*args, **kwargs):
        calls.append(args[1:])
        return original(*args, **kwargs)

    monkeypatch.setattr(mobius.npoly, "polyder", counting)
    return calls


def test_a_covariance_block_builds_the_derivatives_once(polyder_calls):
    u, m = FIELDS[6], MOBIUS[0]  # a Liouville field on quadratic data
    jets = []
    pts = valid_points(np.random.default_rng(3), 50, suites._usable_for(u, m, jets))
    errs = covariance_errors_at(u, m, pts, jets)
    assert len(pts) == len(errs) == 50
    assert sorted(polyder_calls) == [(1,), (2,), (3,)]


def test_a_one_point_jet_still_builds_them_per_call(polyder_calls):
    f = POLYNOMIALS[2]
    for z in (0.1j, 0.5, -0.3 + 0.2j, 1.0):
        f.jet(z)
    assert len(polyder_calls) == 12
