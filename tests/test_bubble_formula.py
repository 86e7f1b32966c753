"""One bubble formula: Chen-Li fields evaluate as their Bubble, Liouville
values as the pullback of the standard bubble ln 8 - 2 ln(1 + |w|^2)."""

import math

import numpy as np
import pytest

from conformal2d import (
    AnalyticMap,
    Bubble,
    ChenLiBubble,
    DomainError,
    ExpMap,
    LiouvilleField,
    MobiusMap,
    PolynomialMap,
    PullbackField,
    Vec2,
    exp_example,
    pullback,
)
from conformal2d.cli import main

STANDARD = Bubble(math.sqrt(8.0), 8.0)
MAPS = {
    "polynomial": PolynomialMap([0.3, 1.0, 0.1 - 0.2j, 0.04j]),
    "exp": ExpMap(),
    "mobius": MobiusMap(1.1 + 0.1j, 0.1 - 0.2j, 0.05 + 0.1j, 1.0),
}


def bits(j) -> tuple:
    return tuple(float(v).hex() for v in (j.value, j.grad.x1, j.grad.x2,
                                          j.hess.a11, j.hess.a12, j.hess.a22))


def grid(seed: int, shape=(6, 9), scale: float = 1.5):
    rng = np.random.default_rng(seed)
    return rng.uniform(-scale, scale, shape), rng.uniform(-scale, scale, shape)


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


@pytest.mark.parametrize("a, x0", [(0.8, (-0.2, 0.3)), (0.55, (0.0, 0.0)), (1.7, (2.0, -1.0))])
def test_chen_li_evaluates_as_its_bubble(a, x0):
    u = ChenLiBubble(a, Vec2(*x0))
    fresh = Bubble(8.0 * a, 64.0 * a * a, Vec2(*x0))
    assert u.as_bubble() == fresh
    x1, x2 = grid(1)
    for p1, p2 in zip(x1.flat, x2.flat):
        p = Vec2(p1, p2)
        assert bits(u.jet(p)) == bits(fresh.jet(p))
        assert u.value(p).hex() == fresh.value(p).hex()
    assert same_bits(u.values(x1, x2), fresh.values(x1, x2))


@pytest.mark.parametrize("name", sorted(MAPS))
def test_liouville_values_are_the_standard_bubble_pullback(name):
    f = MAPS[name]
    x1, x2 = grid(2, scale=1.2)
    got = LiouvilleField(f).values(x1, x2)
    assert same_bits(got, PullbackField(STANDARD, f).values(x1, x2))
    # the closed-form jet is the independent route to the same numbers
    want = np.array([LiouvilleField(f).value(Vec2(a, b))
                     for a, b in zip(x1.flat, x2.flat)]).reshape(x1.shape)
    assert np.all(np.abs(got - want) <= 1e-13 * (1.0 + np.abs(want)))


def test_standard_bubble_is_the_liouville_solution():
    x1, x2 = grid(3, shape=(200,), scale=4.0)
    for p1, p2 in zip(x1, x2):
        j = STANDARD.jet(Vec2(p1, p2))
        want = math.log(8.0) - 2.0 * math.log1p(p1 * p1 + p2 * p2)
        scale = max(math.log(8.0), 2.0 * math.log1p(p1 * p1 + p2 * p2))
        assert abs(j.value - want) <= 4.0 * math.ulp(scale)
        assert -j.laplacian == pytest.approx(math.exp(j.value), rel=1e-12)


def test_exp_example_is_finite_far_left():
    u, p = exp_example(), Vec2(-20.0, 0.3)
    j = u.jet(p)  # Vec2 and Sym2 refuse non-finite gradient and Hessian entries
    assert math.isfinite(j.value)
    assert np.isfinite(u.values([-20.0, -30.0], 0.3)).all()
    assert -j.laplacian == pytest.approx(math.exp(j.value), rel=1e-11)
    # ln(8 e^{2 x1} / (1 + e^{2 x1})^2), with e^{2 x1} negligible beside 1
    assert j.value == pytest.approx(math.log(8.0) - 40.0, abs=1e-12)


@pytest.mark.parametrize("x1, refused", [(-650.0, False), (-695.0, True), (-800.0, True)])
def test_liouville_routes_refuse_what_the_pullback_refuses(x1, refused):
    """|e^z| falls below 1e-300 near x1 = -690.8; both routes and the pullback
    agree on each side of it."""
    u, v, p = exp_example(), PullbackField(STANDARD, ExpMap()), Vec2(x1, 0.3)
    routes = (lambda: u.jet(p), lambda: u.values([x1], 0.3),
              lambda: v.jet(p), lambda: v.values([x1], 0.3))
    for route in routes:
        if refused:
            with pytest.raises(DomainError, match="vanishing derivative"):
                route()
        else:
            route()


def test_liouville_keeps_polynomial_critical_point_guard():
    u = LiouvilleField(PolynomialMap([0.0, 0.0, 1.0]))  # f' = 2 z
    for route in (lambda: u.jet(Vec2(3e-7, 0.0)), lambda: u.values([0.5, 3e-7], 0.0)):
        with pytest.raises(DomainError, match="critical point"):
            route()
    assert np.isfinite(u.values([0.5, 2e-6], 0.0)).all()


# far samples at lam 64 overflow |e^z|^2; that slack is non-finite and fails closed
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_moving_spheres_runs_on_the_liouville_field_of_exp(capsys):
    assert main(["moving-spheres", "--field", '{"family":"exp_example"}',
                 "--x", "0,0"]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert not any("critical point" in line for line in err)
    assert err[-1] == "error: no admissible sphere radius found above lam_max / 2^60"


# -- evaluation paths with no other test --------------------------------------------


class JetOnlyMap(AnalyticMap):
    """A map that defines jet() alone: exercises the values_d1() fallback."""

    def __init__(self, inner: AnalyticMap):
        self.inner = inner

    def jet(self, z):
        return self.inner.jet(z)


@pytest.mark.parametrize("name", ["polynomial", "mobius"])
def test_values_d1_fallback_loops_jet(name):
    m = JetOnlyMap(MAPS[name])
    x1, x2 = grid(4, shape=(3, 5), scale=1.0)
    z = x1 + 1j * x2
    w, d1 = m.values_d1(z)
    assert w.shape == d1.shape == (3, 5)
    for i in np.ndindex(z.shape):
        mj = m.jet(complex(z[i]))
        assert (w[i], d1[i]) == (mj.value, mj.d1)
    base = Bubble(1.4, 6.0, Vec2(0.2, -0.3))
    for u in (pullback(base, m), LiouvilleField(m)):
        got = u.values(x1, x2)
        want = np.array([u.value(Vec2(a, b)) for a, b in zip(x1.flat, x2.flat)])
        assert np.all(np.abs(got.ravel() - want) <= 1e-13 * (1.0 + np.abs(want)))


POINTS = [0.3 + 0.7j, -1.2 + 0.4j, 2.0 - 0.5j, 0.01 - 0.02j]


def test_mobius_identity():
    m = MobiusMap.identity()
    assert not m.conjugating and m.pole is None
    for z in POINTS:
        assert m.jet(z) == (z, 1.0, 0.0, 0.0)


@pytest.mark.parametrize("lam", [2.5, 0.3, -1.7])
def test_mobius_dilation(lam):
    m = MobiusMap.dilation(lam)
    for z in POINTS:
        w, d1, d2, d3 = m.jet(z)
        assert w == pytest.approx(lam * z, rel=1e-15)
        assert d1 == pytest.approx(lam, rel=1e-15)
        assert (d2, d3) == (0.0, 0.0)
    assert m.apply(Vec2(1.0, -2.0)).as_array() == pytest.approx([lam, -2.0 * lam])
    with pytest.raises(ValueError):
        MobiusMap.dilation(0.0)


def test_mobius_reflection():
    m = MobiusMap.reflection()
    assert m.conjugating
    for z in POINTS:
        assert m.jet(z) == (z.conjugate(), 1.0, 0.0, 0.0)
        assert m.apply(Vec2(z.real, z.imag)) == Vec2(z.real, -z.imag)
    jac = m.jacobian(Vec2(0.4, 0.9))
    assert jac.det == -1.0 and jac.conformal_factor == 1.0
    assert np.array_equal(jac.matrix, [[1.0, 0.0], [0.0, -1.0]])
