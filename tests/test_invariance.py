"""Covariance laws of the operator under fractional linear maps, the
all-conformal trace law, and the quadratic-map counterexample."""

import math

import numpy as np
import pytest

from conformal2d import (
    Bubble,
    ConjugatingUnsupported,
    ConstantField,
    ExpMap,
    LiouvilleField,
    MobiusMap,
    PolynomialMap,
    QuadraticField,
    Vec2,
    b_covariance_errors_at,
    check_a_covariance,
    check_b_covariance,
    check_trace_conformal,
    counterexample_iz2,
    covariance_errors_at,
    exp_example,
    pullback,
    random_mobius,
    trace_residual_at,
    valid_points,
)


def test_counterexample_frozen_matrices():
    res = counterexample_iz2(1.0, 1.0)
    assert res.lhs.as_array() == pytest.approx(np.diag([-2.75, 0.75]), abs=1e-10)
    assert res.rhs.as_array() == pytest.approx(np.diag([-2.0, 0.0]), abs=1e-10)
    assert res.trace_match
    assert res.eigen_gap == pytest.approx(0.75, abs=1e-10)
    assert res.covariance_error > 0.5
    payload = res.to_dict()
    assert payload["trace_match"] is True
    assert payload["eigen_gap"] == pytest.approx(0.75, abs=1e-10)


def test_counterexample_gap_scales_as_y4():
    # the closed form says the gap is 3/(4 y^4) independent of a
    assert counterexample_iz2(0.3, 2.0).eigen_gap == pytest.approx(
        3.0 / (4.0 * 16.0), abs=1e-10)
    with pytest.raises(ValueError):
        counterexample_iz2(1.0, 0.0)


def test_identity_map_covariance_is_exact():
    u = Bubble(1.0, 8.0)
    ident = MobiusMap(1.0, 0.0, 0.0, 1.0)
    e = covariance_errors_at(u, ident, Vec2(0.7, -0.3))
    assert e.matrix == 0.0 and e.tensor == 0.0 and e.eigen == 0.0


def test_check_a_covariance_rejects_non_mobius():
    with pytest.raises(TypeError):
        check_a_covariance(Bubble(1.0, 8.0), PolynomialMap([0.0, 0.0, 1j]),
                           [Vec2(0.0, 1.0)], 1e-8)


def test_bubble_under_unit_inversion():
    u = Bubble(1.0, 8.0)
    m = MobiusMap.sphere_inversion(Vec2(0.0, 0.0), 1.0)
    for p in (Vec2(0.8, 0.3), Vec2(-1.4, 0.6), Vec2(0.2, -1.9)):
        e = covariance_errors_at(u, m, p)
        assert e.matrix < 1e-8
        assert e.eigen < 1e-8
        assert e.tensor < 1e-8


def test_liouville_under_cayley_type_map():
    u = LiouvilleField(PolynomialMap([0.0, 1.0]))
    m = MobiusMap(1.0, -1.0j, 1.0, 1.0j)  # (z - i)/(z + i)
    for p in (Vec2(0.6, 0.8), Vec2(-0.9, 1.4)):
        e = covariance_errors_at(u, m, p)
        assert max(e.matrix, e.tensor, e.eigen) < 1e-9


def test_trace_law_beyond_mobius():
    cases = [
        (ConstantField(0.2), PolynomialMap([0.0, 0.0, 1.0])),
        (QuadraticField(1.0), PolynomialMap([0.0, 0.0, 1j])),
        (Bubble(1.0, 8.0), ExpMap()),
    ]
    pts = [Vec2(0.4, 0.9), Vec2(1.1, 0.35), Vec2(0.75, 1.2)]
    for u, psi in cases:
        for p in pts:
            assert trace_residual_at(u, psi, p) < 1e-10
        rep = check_trace_conformal(u, psi, pts, 1e-8)
        assert rep.passed


def test_full_matrix_law_fails_where_trace_holds():
    u = QuadraticField(1.0)
    psi = PolynomialMap([0.0, 0.0, 1j])
    p = Vec2(0.0, 1.0)
    assert trace_residual_at(u, psi, p) < 1e-12
    assert counterexample_iz2(1.0, 1.0).covariance_error > 0.5


def test_b_covariance_translation_exact():
    u = Bubble(1.3, 6.0)
    m = MobiusMap.translation(Vec2(0.4, -0.2))
    e_entry, e_eig = b_covariance_errors_at(u, m, Vec2(0.5, 0.1))
    assert e_entry < 1e-15
    assert e_eig < 1e-15


def test_b_covariance_rotation_and_generic():
    u = exp_example()
    for m in (MobiusMap.rotation(0.7), MobiusMap(1.0, 0.2, -0.1j, 1.0)):
        for p in (Vec2(0.3, 0.4), Vec2(-0.6, 0.9)):
            e_entry, e_eig = b_covariance_errors_at(u, m, p)
            assert e_entry < 1e-10
            assert e_eig < 1e-10


def test_b_covariance_rejects_conjugating():
    m = MobiusMap.sphere_inversion(Vec2(0.0, 0.0), 1.0)
    with pytest.raises(ConjugatingUnsupported):
        b_covariance_errors_at(Bubble(1.0, 8.0), m, Vec2(0.5, 0.5))


def test_random_sweep_all_three_forms():
    rng = np.random.default_rng(99)
    u = Bubble(1.5, 4.0, Vec2(0.3, 0.0))
    for _ in range(6):
        m = random_mobius(rng)
        v = pullback(u, m)
        pts = valid_points(rng, 12, lambda p: math.isfinite(v.jet(p).value))
        reports = check_a_covariance(u, m, pts, 1e-8)
        for rep in reports.values():
            assert rep.passed, rep.summary_line()


def test_check_b_covariance_reports():
    rng = np.random.default_rng(3)
    u = LiouvilleField(PolynomialMap([0.1, 1.0, 0.05]))
    m = random_mobius(rng, conjugating=False)
    v = pullback(u, m)
    pts = valid_points(rng, 10, lambda p: math.isfinite(v.jet(p).value))
    reports = check_b_covariance(u, m, pts, 1e-8)
    assert set(reports) == {"entries", "eigen"}
    for rep in reports.values():
        assert rep.passed, rep.summary_line()
        assert rep.points_tested == 10
