"""Field families: closed-form jets vs symbolic and finite-difference oracles."""

import ast
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
import sympy as sp
from scipy.integrate import quad

import conformal2d.fields as fields
from conformal2d import (
    Bubble,
    ChenLiBubble,
    ConjugatingUnsupported,
    ConstantField,
    DomainError,
    ExpMap,
    LiouvilleField,
    MobiusMap,
    PoleError,
    PolynomialMap,
    PullbackField,
    QuadraticField,
    RadialField,
    RadialProfile,
    ScalarField,
    Vec2,
    compose,
    exp_example,
    fd_jet,
    field_from_dict,
    field_to_dict,
    pullback,
)

POINTS = [Vec2(0.3, 0.7), Vec2(-1.2, 0.4), Vec2(2.0, -0.5), Vec2(0.01, -0.02)]


def jet_arrays(j):
    return j.value, np.array([j.grad.x1, j.grad.x2]), j.hess.as_array()


class TestBubbleSymbolicOracle:
    """Gradient and Hessian of the bubble against sympy differentiation."""

    a, b = 1.7, 5.2
    x0 = (0.4, -0.3)

    @classmethod
    def setup_class(cls):
        x1, x2 = sp.symbols("x1 x2", real=True)
        s = 8 * ((x1 - cls.x0[0]) ** 2 + (x2 - cls.x0[1]) ** 2) + cls.b
        u = 2 * sp.log(8 * cls.a) - 2 * sp.log(s)
        grad = [sp.diff(u, v) for v in (x1, x2)]
        hess = [[sp.diff(g, v) for v in (x1, x2)] for g in grad]
        # staticmethod keeps lambdified callables from binding self
        cls.u_fn = staticmethod(sp.lambdify((x1, x2), u, "math"))
        cls.grad_fn = staticmethod(sp.lambdify((x1, x2), grad, "math"))
        cls.hess_fn = staticmethod(sp.lambdify((x1, x2), hess, "math"))

    def test_jet_matches_symbolic(self):
        u = Bubble(self.a, self.b, Vec2(*self.x0))
        for p in POINTS:
            val, grad, hess = jet_arrays(u.jet(p))
            assert val == pytest.approx(self.u_fn(p.x1, p.x2), abs=1e-13)
            assert grad == pytest.approx(np.array(self.grad_fn(p.x1, p.x2)), abs=1e-12)
            assert hess == pytest.approx(np.array(self.hess_fn(p.x1, p.x2)), abs=1e-12)


def test_chen_li_is_a_bubble():
    u = ChenLiBubble(0.7, Vec2(0.2, 0.1))
    v = u.as_bubble()
    for p in POINTS:
        ju, jv = u.jet(p), v.jet(p)
        assert ju.value == pytest.approx(jv.value, abs=1e-13)
        assert ju.hess.as_array() == pytest.approx(jv.hess.as_array(), abs=1e-13)


def test_chen_li_tail_mass_against_quadrature():
    u = ChenLiBubble(0.55)
    # e^u is radial, so the tail integral reduces to one dimension
    density = lambda r: 2.0 * math.pi * r * math.exp(u.value(Vec2(r, 0.0)))
    for radius in (0.0, 1.0, 7.5):
        got = u.tail_mass(radius)
        want, err = quad(density, radius, np.inf, epsabs=1e-12, epsrel=1e-12)
        assert err < 1e-8
        assert got == pytest.approx(want, rel=1e-9)
    assert u.tail_mass(0.0) == pytest.approx(8.0 * math.pi, rel=1e-15)


def test_liouville_pde_holds_exactly():
    fields = [
        LiouvilleField(PolynomialMap([0.0, 1.0])),
        exp_example(),
        LiouvilleField(PolynomialMap([0.3, 1.0, 0.1, 0.04])),
    ]
    rng = np.random.default_rng(5)
    for u in fields:
        for _ in range(40):
            p = Vec2(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
            j = u.jet(p)
            assert -j.laplacian == pytest.approx(math.exp(j.value), rel=1e-11)


def test_liouville_guards():
    with pytest.raises(DomainError):
        LiouvilleField(PolynomialMap([0.0, 0.0, 1.0])).jet(Vec2(0.0, 0.0))
    with pytest.raises(ConjugatingUnsupported):
        LiouvilleField(MobiusMap.sphere_inversion(Vec2(0.0, 0.0), 1.0))


def test_schwarzian_of_mobius_vanishes():
    u = LiouvilleField(MobiusMap(1.0, 0.5, 0.2, 1.0))
    for p in POINTS:
        assert abs(u.schwarzian(p)) < 1e-12
    # a genuinely curved f has nonzero schwarzian
    v = LiouvilleField(ExpMap())
    assert abs(v.schwarzian(Vec2(0.0, 0.0))) > 0.1


def test_exp_example_closed_form():
    u = exp_example()
    for p in POINTS:
        e2 = math.exp(2.0 * p.x1)
        want = math.log(8.0 * e2 / (1.0 + e2) ** 2)
        assert u.value(p) == pytest.approx(want, abs=1e-13)


def test_fd_jet_on_quadratic():
    u = QuadraticField(1.3)
    p = Vec2(0.8, -0.4)
    exact = u.jet(p)
    fd = fd_jet(u, p)
    assert fd.grad.x1 == pytest.approx(exact.grad.x1, abs=1e-8)
    assert fd.hess.as_array() == pytest.approx(exact.hess.as_array(), abs=1e-6)


def test_pullback_value_identity():
    base = Bubble(1.0, 8.0)
    psi = MobiusMap(1.0, 0.3 - 0.1j, 0.05j, 1.0)
    v = pullback(base, psi)
    p = Vec2(0.6, -0.2)
    z = complex(p.x1, p.x2)
    w = psi.apply_complex(z)
    want = base.value(Vec2(w.real, w.imag)) + 2.0 * math.log(abs(psi.jet(z).d1))
    assert v.value(p) == pytest.approx(want, abs=1e-13)


def test_pullback_jet_against_finite_differences():
    """Dual route: Wirtinger chain rule vs central differences of the value."""
    base = Bubble(1.5, 4.0, Vec2(0.3, 0.0))
    for psi in (
        MobiusMap(1.0, 0.3 - 0.1j, 0.05j, 1.0),
        MobiusMap.sphere_inversion(Vec2(0.1, -0.2), 1.1),
        PolynomialMap([0.2, 1.0, 0.15]),
    ):
        v = pullback(base, psi)
        for p in (Vec2(0.7, 0.5), Vec2(-0.8, 0.9)):
            got = v.jet(p)
            ref = fd_jet(v, p, richardson=True)
            assert got.value == pytest.approx(ref.value, abs=1e-14)
            assert got.grad.x1 == pytest.approx(ref.grad.x1, abs=1e-7)
            assert got.grad.x2 == pytest.approx(ref.grad.x2, abs=1e-7)
            assert got.hess.as_array() == pytest.approx(ref.hess.as_array(), abs=1e-5)


class TestRadialField:
    def make(self, n=3001, derivatives=True):
        u = Bubble(1.0, 8.0)
        r = np.linspace(0.0, 5.0, n)
        v = np.array([u.radial_value(t) for t in r])
        if not derivatives:
            return RadialField(RadialProfile(r, v))
        s = 8.0 * r * r + 8.0
        dv = -32.0 * r / s
        ddv = -32.0 / s + 512.0 * r * r / (s * s)
        return RadialField(RadialProfile(r, v, dv, ddv))

    def test_jet_matches_closed_form(self):
        u = Bubble(1.0, 8.0)
        v = self.make()
        for p in (Vec2(0.5, 0.0), Vec2(1.0, 1.7), Vec2(-2.4, 0.3), Vec2(0.0, 0.0)):
            ju, jv = u.jet(p), v.jet(p)
            assert jv.value == pytest.approx(ju.value, abs=1e-10)
            assert jv.grad.x1 == pytest.approx(ju.grad.x1, abs=1e-9)
            assert jv.hess.as_array() == pytest.approx(ju.hess.as_array(), abs=1e-8)

    def test_value_only_profile_still_interpolates(self):
        u = Bubble(1.0, 8.0)
        v = self.make(derivatives=False)
        p = Vec2(1.2, -0.4)
        assert v.value(p) == pytest.approx(u.value(p), abs=1e-12)
        # hessian now comes from differentiating the value spline twice
        assert v.jet(p).hess.a11 == pytest.approx(u.jet(p).hess.a11, abs=1e-4)

    def test_center_isotropy(self):
        v = RadialField(self.make().profile, center=Vec2(0.4, -0.1))
        r = 1.3
        vals = [
            v.value(Vec2(0.4 + r * math.cos(t), -0.1 + r * math.sin(t)))
            for t in np.linspace(0.0, 2.0 * math.pi, 9)
        ]
        assert max(vals) - min(vals) < 1e-14

    def test_annulus_exclusion(self):
        v = self.make()
        v.jet(Vec2(3.0, 0.0))
        with pytest.raises(DomainError, match="outside profile range"):
            v.jet(Vec2(5.1, 0.0))
        inner = RadialField(RadialProfile(np.linspace(1.0, 2.0, 11),
                                          np.zeros(11)))
        with pytest.raises(DomainError, match="outside profile range"):
            inner.jet(Vec2(0.5, 0.0))
        inner.jet(Vec2(1.5, 0.0))


def test_profile_validation():
    with pytest.raises(ValueError):
        RadialProfile(np.array([1.0, 0.5]), np.array([0.0, 0.0]))
    with pytest.raises(ValueError):
        RadialProfile(np.array([-1.0, 0.5]), np.array([0.0, 0.0]))
    with pytest.raises(ValueError):
        RadialProfile(np.array([0.0, 1.0]), np.array([0.0]))


def test_serialization_round_trips():
    fields = [
        ConstantField(0.7),
        QuadraticField(-0.4),
        Bubble(1.3, 6.0, Vec2(0.2, -0.1)),
        ChenLiBubble(0.8, Vec2(-0.5, 0.0)),
        LiouvilleField(PolynomialMap([0.3, 1.0, 0.1])),
        exp_example(),
        pullback(Bubble(1.0, 8.0), MobiusMap(1.1, 0.2, 0.1, 1.0)),
    ]
    p = Vec2(0.45, 0.85)
    for u in fields:
        v = field_from_dict(field_to_dict(u))
        assert v.value(p) == pytest.approx(u.value(p), abs=1e-14)
        assert v.jet(p).hess.a12 == pytest.approx(u.jet(p).hess.a12, abs=1e-14)
    with pytest.raises(ValueError):
        field_from_dict({"family": "nonsense"})


def test_radial_serialization_round_trip():
    r = np.linspace(0.0, 3.0, 61)
    u = RadialField(RadialProfile(r, np.cos(r), -np.sin(r), -np.cos(r)),
                    center=Vec2(0.1, 0.2))
    v = field_from_dict(field_to_dict(u))
    p = Vec2(1.0, 1.5)
    assert v.value(p) == pytest.approx(u.value(p), abs=1e-15)
    assert v.jet(p).grad.x2 == pytest.approx(u.jet(p).grad.x2, abs=1e-15)


def _value_families() -> dict:
    base = Bubble(1.4, 6.0, Vec2(0.2, -0.3))
    mob = MobiusMap(1.1 + 0.1j, 0.1 - 0.2j, 0.05 + 0.1j, 1.0)
    poly = PolynomialMap([0.0, 1.5 + 0.2j, 0.1 - 0.05j, 0.03j])
    r = np.linspace(0.0, 3.0, 61)
    return {
        "bubble": Bubble(1.7, 5.2, Vec2(0.4, -0.3)),
        "chen_li": ChenLiBubble(0.8, Vec2(-0.2, 0.3)),
        "liouville_poly": LiouvilleField(poly),
        "liouville_exp": exp_example(),
        "pullback_mobius": pullback(base, mob),
        "pullback_poly": pullback(base, poly),
        "pullback_composed": pullback(base, compose(mob, poly)),
        "constant": ConstantField(0.7),
        "radial": RadialField(RadialProfile(r, np.cos(r), -np.sin(r), -np.cos(r)),
                              center=Vec2(0.1, 0.2)),
        "quadratic": QuadraticField(-0.4),
    }


VALUE_FAMILIES = _value_families()


@pytest.mark.parametrize("name", sorted(VALUE_FAMILIES))
def test_values_match_scalar_value(name):
    """Dual route: the array kernel against value() point by point."""
    u = VALUE_FAMILIES[name]
    rng = np.random.default_rng(11)
    r, t = rng.uniform(0.2, 1.2, (5, 7)), rng.uniform(0.0, 2.0 * math.pi, (5, 7))
    x1, x2 = r * np.cos(t), r * np.sin(t)
    got = u.values(x1, x2)
    assert got.shape == (5, 7)
    want = np.array([[u.value(Vec2(a, b)) for a, b in zip(row1, row2)]
                     for row1, row2 in zip(x1, x2)])
    assert np.all(np.abs(got - want) <= 1e-13 * (1.0 + np.abs(want)))
    # coordinates broadcast against each other
    row = u.values(x1[0], 0.25)
    assert row.shape == (7,)
    assert row[3] == pytest.approx(u.value(Vec2(x1[0, 3], 0.25)), abs=1e-13)


def test_values_raise_what_value_raises():
    # pole of the Moebius map at z = 0.5, which the grid hits exactly
    v = pullback(Bubble(1.0, 8.0), MobiusMap(1.0, 0.0, 1.0, -0.5))
    x1 = np.linspace(0.0, 1.0, 11)
    with pytest.raises(PoleError):
        v.value(Vec2(0.5, 0.0))
    with pytest.raises(PoleError):
        v.values(x1, np.zeros_like(x1))
    assert np.isfinite(v.values(x1[:5], 0.0)).all()
    # critical point of f at the origin
    u = LiouvilleField(PolynomialMap([0.0, 0.0, 1.0]))
    with pytest.raises(DomainError):
        u.value(Vec2(0.0, 0.0))
    with pytest.raises(DomainError):
        u.values(x1 - 0.5, 0.0)
    # e^z overflows
    with pytest.raises(OverflowError):
        exp_example().value(Vec2(800.0, 0.0))
    with pytest.raises(OverflowError):
        exp_example().values([0.0, 800.0], 0.0)
    # non-finite coordinates, with and without an array kernel
    for w in (Bubble(1.0, 8.0), QuadraticField(1.0), v):
        with pytest.raises(ValueError):
            w.value((math.nan, 0.0))
    for w in (Bubble(1.0, 8.0), ConstantField(0.2), QuadraticField(1.0), v):
        with pytest.raises(ValueError):
            w.values([0.1, math.nan], 0.0)


class JetOnly(ScalarField):
    """A field that defines jet() alone: exercises the values() fallback."""

    def jet(self, x):
        return QuadraticField(-0.4).jet(x)


def test_values_fallback_loops_value():
    x1 = np.linspace(-1.0, 1.0, 7)
    got = JetOnly().values(x1, 0.3)
    assert np.array_equal(got, [JetOnly().value(Vec2(a, 0.3)) for a in x1])


@pytest.mark.parametrize("name", sorted(VALUE_FAMILIES))
def test_fd_jet_never_runs_jet_code(name, monkeypatch):
    """The oracle reads values() alone, so it stays independent of jet()."""
    u = VALUE_FAMILIES[name]
    p = Vec2(0.45, -0.35)
    exact = u.jet(p)

    def boom(self, x):
        raise AssertionError("jet called")

    for cls in (ScalarField, ConstantField, QuadraticField, Bubble, ChenLiBubble,
                LiouvilleField, RadialField, PullbackField):
        monkeypatch.setattr(cls, "jet", boom)
    fd = fd_jet(u, p, richardson=True)
    # the radial jet reads its dv/ddv spline columns, fd the value spline
    scale = 1e3 if name == "radial" else 1.0
    assert fd.value == pytest.approx(exact.value, abs=1e-13)
    assert fd.grad.as_array() == pytest.approx(exact.grad.as_array(), abs=1e-7 * scale)
    assert fd.hess.as_array() == pytest.approx(exact.hess.as_array(), abs=1e-5 * scale)


def test_radial_values_raise_what_value_raises():
    r = np.linspace(0.5, 2.0, 31)
    u = RadialField(RadialProfile(r, np.cos(r)), center=Vec2(0.1, 0.2))
    inside = Vec2(1.1, 0.2)
    for p in (Vec2(0.1, 0.2), Vec2(0.35, 0.2), Vec2(2.2, 0.2)):
        with pytest.raises(DomainError):
            u.jet(p)
        with pytest.raises(DomainError):
            u.value(p)
        with pytest.raises(DomainError):
            u.values([inside.x1, p.x1], [inside.x2, p.x2])
    # radii within 1e-12 of the profile ends are inside
    edge = Vec2(2.1 + 5e-13, 0.2)
    u.jet(edge)
    got = u.values([inside.x1, edge.x1], [inside.x2, edge.x2])
    assert got == pytest.approx([u.value(inside), u.value(edge)], abs=1e-15)
    with pytest.raises(ValueError):
        u.value((math.nan, 0.2))
    with pytest.raises(ValueError):
        u.values([1.0, math.nan], 0.2)


def test_scalar_field_is_the_only_value_definition():
    """value() is jet().value in one place; no family keeps a second copy."""
    tree = ast.parse(Path(fields.__file__).read_text())
    owners = [node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
              and any(isinstance(f, ast.FunctionDef) and f.name == "value"
                      for f in node.body)]
    assert owners == ["ScalarField"]


# -- Bubble.values where 8 |x - x0|^2 overflows ----------------------------------


@pytest.mark.parametrize("x1", [356.0, 500.0, 700.0])
def test_liouville_exp_values_stay_finite_where_the_square_overflows(x1):
    # ln(8 e^{2 x1} / (1 + e^{2 x1})^2), written so that nothing overflows
    want = math.log(8.0) - 2.0 * x1 - 2.0 * math.log1p(math.exp(-2.0 * x1))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = exp_example().values(np.array([x1, 0.0]), np.array([0.0, 0.0]))
    assert got[0] == pytest.approx(want, rel=1e-12)
    # the sample that does not overflow keeps its bits
    assert got[1] == exp_example().values(np.array([0.0]), np.array([0.0]))[0]


def test_bubble_values_far_branch_leaves_other_samples_bit_for_bit():
    u = Bubble(1.3, 12.0, Vec2(0.2, -0.1))
    near = np.array([0.3, -4.0, 1e150])
    far = np.array([0.3, -4.0, 1e160])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got_far = u.values(far, np.zeros(3))
    got_near = u.values(near, np.zeros(3))
    assert got_far[:2].tobytes() == got_near[:2].tobytes()
    d = 1e160 - 0.2
    want = 2.0 * math.log(8.0 * 1.3) - 2.0 * (math.log(8.0) + 2.0 * math.log(math.hypot(d, 0.1)))
    assert got_far[2] == pytest.approx(want, rel=1e-15)


@pytest.mark.parametrize("x2", [0.3, -1.2])
@pytest.mark.parametrize("x1", [354.8, 354.95, 355.0, 356.0, 500.0, 700.0])
def test_liouville_exp_jet_stays_finite_where_the_square_overflows(x1, x2):
    # for w = e^z, 2 conj(w) w' overflows from x1 = 354.55 on and 1 + |w|^2
    # from 354.9; the jet then forms its logarithm and quotients from |w|^-2
    u = exp_example()
    j = u.jet((x1, x2))
    assert j.value == pytest.approx(u.values(np.array([x1]), np.array([x2]))[0], rel=1e-14)
    # u = ln 8 + 2 x1 - 2 ln(1 + e^{2 x1}) -> ln 8 - 2 x1: gradient (-2, 0), Hessian 0
    assert [j.grad.x1, j.grad.x2] == pytest.approx([-2.0, 0.0], abs=1e-12)
    assert [j.hess.a11, j.hess.a12, j.hess.a22] == pytest.approx([0.0, 0.0, 0.0], abs=1e-12)
    fd = fd_jet(u, (x1, x2))
    assert [j.grad.x1, j.grad.x2] == pytest.approx([fd.grad.x1, fd.grad.x2], abs=1e-8)
    assert [j.hess.a11, j.hess.a12, j.hess.a22] == pytest.approx(
        [fd.hess.a11, fd.hess.a12, fd.hess.a22], abs=1e-6)
