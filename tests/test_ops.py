"""Pointwise operator, Hermitian form, cones, and curvature functions."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conformal2d import (
    ConeError,
    ConeIndex,
    Herm2,
    Jet2,
    Orthogonal2,
    Sym2,
    SymmetricFunction,
    Vec2,
    a_from_jet,
    b_from_jet,
    cone_margin,
    eig2,
    f_eval,
    in_cone,
    resolve_symmetric_function,
    sigma1,
    sigma2,
    weighted,
)

finite = st.floats(-8.0, 8.0, allow_nan=False, allow_infinity=False)


def make_jet(value, gx, gy, h11, h12, h22):
    return Jet2.from_real(value, Vec2(gx, gy), Sym2(h11, h12, h22))


def test_a_frozen_identity_jet():
    a = a_from_jet(make_jet(0.0, 0.0, 0.0, 1.0, 0.0, 1.0))
    assert a.as_array() == pytest.approx(-np.eye(2), abs=1e-15)


def test_a_frozen_mixed_jet():
    # u = ln 2, grad (2, 0), hess diag(1, 3):
    # A = -1/2 diag(1,3) + 1/4 diag(4,0) - 1/2 I = diag(0, -2)
    a = a_from_jet(make_jet(math.log(2.0), 2.0, 0.0, 1.0, 0.0, 3.0))
    assert a.as_array() == pytest.approx(np.diag([0.0, -2.0]), abs=1e-15)


def test_constant_shift_scales_operator():
    j0 = make_jet(0.3, 1.0, -0.5, 0.7, 0.2, -0.4)
    a0 = a_from_jet(j0)
    for s in (1.0, -2.5, 10.0):
        js = make_jet(0.3 + 2.0 * s, 1.0, -0.5, 0.7, 0.2, -0.4)
        want = math.exp(-2.0 * s) * a0.as_array()
        assert a_from_jet(js).as_array() == pytest.approx(want, rel=1e-13)


def test_orthogonal_equivariance():
    rng = np.random.default_rng(11)
    for _ in range(25):
        theta = rng.uniform(0.0, 2.0 * math.pi)
        o = Orthogonal2.rotation(theta)
        om = o.as_array()
        val = rng.uniform(-2.0, 2.0)
        g = rng.normal(size=2)
        h = rng.normal(size=(2, 2))
        h = h + h.T
        j = make_jet(val, g[0], g[1], h[0, 0], h[0, 1], h[1, 1])
        # rotated jet: grad -> O g, hess -> O H O^T
        g2 = om @ g
        h2 = om @ h @ om.T
        j2 = make_jet(val, g2[0], g2[1], h2[0, 0], h2[0, 1], h2[1, 1])
        want = om @ a_from_jet(j).as_array() @ om.T
        assert a_from_jet(j2).as_array() == pytest.approx(want, abs=1e-12)


def test_trace_is_minus_weighted_laplacian():
    j = make_jet(0.4, 1.2, -0.3, 0.9, 0.1, -1.1)
    a = a_from_jet(j)
    want = -math.exp(-0.4) * (0.9 - 1.1)
    assert a.a11 + a.a22 == pytest.approx(want, abs=1e-14)


@given(finite, finite, finite, finite, finite, finite)
@settings(max_examples=300, deadline=None)
def test_real_and_complex_spectra_agree(value, gx, gy, h11, h12, h22):
    j = make_jet(value, gx, gy, h11, h12, h22)
    la = eig2(a_from_jet(j))
    lb = b_from_jet(j).eigs()
    scale = 1.0 + abs(la.lambda1) + abs(la.lambda2)
    assert abs(la.lambda1 - 2.0 * lb.lambda1) < 1e-10 * scale
    assert abs(la.lambda2 - 2.0 * lb.lambda2) < 1e-10 * scale


def test_value_overflow_guard():
    j = make_jet(701.0, 0.0, 0.0, 1.0, 0.0, 1.0)
    with pytest.raises(OverflowError):
        a_from_jet(j)
    with pytest.raises(OverflowError):
        b_from_jet(j)


def test_herm2_eigs():
    e = Herm2(1.0, 3.0 + 4.0j).eigs()
    assert (e.lambda1, e.lambda2) == pytest.approx((6.0, -4.0), abs=1e-15)


def test_cone_membership_frozen():
    g2 = ConeIndex(2.0)
    assert in_cone((1.0, 1.0), g2) == (True, 1.0)
    assert in_cone((1.0, -1.0), g2) == (False, -1.0)
    g14 = ConeIndex(1.4)
    chk = in_cone((1.0, -0.5), g14)
    assert chk.inside and chk.margin == pytest.approx(0.1, abs=1e-15)
    # boundary ray (1, -(2-p)) is excluded from the open cone
    assert not in_cone((1.0, -g14.boundary_slope), g14).inside


def test_cones_nest_as_p_decreases():
    pairs = [(1.0, 0.5), (2.0, 0.01), (0.3, 0.3)]
    for l1, l2 in pairs:
        assert in_cone((l1, l2), ConeIndex(2.0)).inside
        for p in (1.8, 1.5, 1.2, 1.01):
            assert in_cone((l1, l2), ConeIndex(p)).inside
    # a pair outside Gamma_2 but inside wider cones
    assert not in_cone((1.0, -0.1), ConeIndex(2.0)).inside
    assert in_cone((1.0, -0.1), ConeIndex(1.5)).inside


def test_cone_index_validation():
    for bad in (1.0, 0.5, 2.5, 3.0):
        with pytest.raises(ValueError):
            ConeIndex(bad)
    assert ConeIndex(1.5).boundary_slope == pytest.approx(0.5)
    assert cone_margin(2.0, 1.0, ConeIndex(2.0)) == pytest.approx(1.0)


def test_f_eval_sigma_values():
    r1 = f_eval(sigma1(), (3.0, 1.0))
    assert r1.value == pytest.approx(4.0) and r1.elliptic
    assert (r1.grad.x1, r1.grad.x2) == pytest.approx((1.0, 1.0))
    r2 = f_eval(sigma2(), (3.0, 1.0))
    assert r2.value == pytest.approx(3.0)
    assert (r2.grad.x1, r2.grad.x2) == pytest.approx((1.0, 3.0))


def test_f_eval_enforces_cone():
    with pytest.raises(ConeError):
        f_eval(sigma2(), (1.0, -1.0))
    with pytest.raises(ConeError):
        f_eval(sigma1(ConeIndex(1.5)), (1.0, -0.5 - 1e-9))


def test_symmetric_function_sanity_checks():
    g2 = ConeIndex(2.0)
    with pytest.raises(ValueError, match="not symmetric"):
        SymmetricFunction("asym", lambda a, b: a + 2.0 * b,
                          lambda a, b: (1.0, 2.0), g2)
    with pytest.raises(ValueError, match="not elliptic"):
        SymmetricFunction("difference", lambda a, b: a - b if a >= b else b - a,
                          lambda a, b: (1.0, -1.0), g2)


def test_sigma2_needs_gamma2():
    # on wider cones one eigenvalue may be negative, killing ellipticity
    with pytest.raises(ValueError, match="not elliptic"):
        sigma2(ConeIndex(1.2))


def test_weighted_combination():
    f = weighted(0.3)
    r = f_eval(f, (4.0, 1.0))
    assert r.value == pytest.approx(0.3 * 5.0 + 0.7 * 2.0, abs=1e-14)
    assert r.grad.x1 == pytest.approx(0.3 + 0.35 * 1.0 / 2.0, abs=1e-14)
    assert r.grad.x2 == pytest.approx(0.3 + 0.35 * 4.0 / 2.0, abs=1e-14)
    with pytest.raises(ValueError):
        weighted(1.2)
    with pytest.raises(ValueError):
        weighted(0.5, ConeIndex(1.5))


def test_resolve_symmetric_function():
    assert resolve_symmetric_function("sigma1").name == "sigma1"
    assert resolve_symmetric_function("sigma2").cone.p == 2.0
    assert resolve_symmetric_function("weighted:0.25").name == "weighted:0.25"
    assert resolve_symmetric_function("sigma1", cone=1.4).cone.p == pytest.approx(1.4)
    with pytest.raises(ValueError):
        resolve_symmetric_function("sigma3")
    with pytest.raises(ValueError):
        resolve_symmetric_function("sigma2", cone=1.2)
