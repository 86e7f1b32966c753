"""The one pullback chain rule, pullback_jets, against in-test copies of the
formulas the invariance checks used before they shared it, and counts of
the jets each check evaluates."""

import ast
import inspect
import math
import textwrap

import numpy as np
import pytest

import conformal2d.invariance as invariance
import conformal2d.suites as suites
from conformal2d import (
    AnalyticMap,
    ComposedMap,
    ConjugatingUnsupported,
    DomainError,
    ExpMap,
    Jet2,
    MobiusMap,
    PolynomialMap,
    ScalarField,
    Vec2,
    a_from_jet,
    b_covariance_errors_at,
    b_from_jet,
    conj_orth,
    covariance_errors_at,
    eig2,
    pullback,
    random_mobius,
    standard_fields,
    trace_residual_at,
)
from conformal2d.fields import pullback_jets
from conformal2d.invariance import CovarianceErrors


# -- reference copies of the formulas -------------------------------------------


def ref_pullback_jet(u, psi, x):
    """The Wirtinger chain rule, written out independently of the package."""
    z = Vec2.of(x).to_complex()
    mj = psi.jet(z)
    if abs(mj.d1) < 1e-300:
        raise DomainError("vanishing derivative in pullback")
    bj = u.jet(Vec2.from_complex(mj.value))
    uw, uww, uwwbar = bj.u_z, bj.u_zz, bj.u_zzbar
    q2 = mj.d2 / mj.d1
    q3 = mj.d3 / mj.d1
    v_z = uw * mj.d1 + q2
    v_zz = uww * mj.d1 * mj.d1 + uw * mj.d2 + (q3 - q2 * q2)
    if psi.conjugating:
        v_z = v_z.conjugate()
        v_zz = v_zz.conjugate()
    v_zzbar = uwwbar * (mj.d1 * mj.d1.conjugate()).real
    value = bj.value + 2.0 * math.log(abs(mj.d1))
    return Jet2(value, v_z, v_zz, v_zzbar)


def ref_covariance_errors_at(u, m, x):
    a_v = a_from_jet(ref_pullback_jet(u, m, x))
    jd = m.jacobian(x)
    base_jet = u.jet(m.apply(x))
    a_u = a_from_jet(base_jet)
    matrix_err = (a_v - conj_orth(a_u, jd.orthogonal)).max_abs()
    lhs_t = math.exp(ref_pullback_jet(u, m, x).value) * a_v.as_array()
    rhs_t = math.exp(base_jet.value) * (jd.matrix.T @ a_u.as_array() @ jd.matrix)
    tensor_err = float(np.abs(lhs_t - rhs_t).max())
    ev, eu = eig2(a_v), eig2(a_u)
    eigen_err = max(abs(ev.lambda1 - eu.lambda1), abs(ev.lambda2 - eu.lambda2))
    return CovarianceErrors(matrix_err, tensor_err, eigen_err)


def ref_trace_residual_at(u, psi, x):
    jv = ref_pullback_jet(u, psi, x)
    ju = u.jet(psi.apply(x))
    lhs = -math.exp(-jv.value) * jv.laplacian
    rhs = -math.exp(-ju.value) * ju.laplacian
    return abs(lhs - rhs)


def ref_b_covariance_errors_at(u, m, x):
    v_jet = ref_pullback_jet(u, m, x)
    if m.conjugating:
        raise ConjugatingUnsupported("B-covariance stated for holomorphic maps")
    b_v = b_from_jet(v_jet)
    b_u = b_from_jet(u.jet(m.apply(x)))
    d1 = m.jet(x.to_complex()).d1
    phase = d1 / d1.conjugate()
    entry_err = max(abs(b_v.zzbar - b_u.zzbar), abs(b_v.zz - phase * b_u.zz))
    ev, eu = b_v.eigs(), b_u.eigs()
    eig_err = max(abs(ev.lambda1 - eu.lambda1), abs(ev.lambda2 - eu.lambda2))
    return entry_err, eig_err


def outcome(fn, *args):
    """The result, or the type and message of what fn raised."""
    try:
        return ("ok", fn(*args))
    except Exception as e:  # noqa: BLE001 - compared, not swallowed
        return ("raised", type(e), str(e))


def pulled(o):
    """An outcome of pullback_jets cut down to its pulled-back jet."""
    return ("ok", o[1][2]) if o[0] == "ok" else o


def covariance_at(u, m, p):
    """covariance_errors_at on the block of one [p]."""
    [e] = covariance_errors_at(m, [pullback_jets(u, m, p)])
    return e


def b_covariance_at(u, m, p):
    """b_covariance_errors_at on the block of one [p]."""
    [e] = b_covariance_errors_at(m, [pullback_jets(u, m, p)])
    return e


def trace_at(u, psi, p):
    """trace_residual_at on the block of one [p]."""
    [res] = trace_residual_at(u, psi, [p])
    return res


# -- fixtures -------------------------------------------------------------------


FIELDS = standard_fields(np.random.default_rng(0))

MOBIUS = [
    MobiusMap(1.1, 0.2, 0.1, 1.0),
    MobiusMap(1.0, -1.0j, 1.0, 1.0j),
    MobiusMap.sphere_inversion(Vec2(0.25, 0.1), 1.2),
    random_mobius(np.random.default_rng(4), conjugating=True),
    random_mobius(np.random.default_rng(5), conjugating=False),
]
MAPS = MOBIUS + [
    PolynomialMap([0.1, 1.0, 0.3j]),
    ExpMap(),
    ComposedMap(PolynomialMap([0.0, 1.0, 0.2]), MobiusMap(1.0, 0.3, 0.2j, 1.0)),
    ComposedMap(ExpMap(), MobiusMap.sphere_inversion(Vec2(0.0, 0.0), 1.0)),
]


def seeded_points(seed, n=8):
    rng = np.random.default_rng(seed)
    r = rng.uniform(0.3, 2.5, n)
    t = rng.uniform(0.0, 2.0 * math.pi, n)
    return [Vec2(float(a * math.cos(b)), float(a * math.sin(b))) for a, b in zip(r, t)]


# -- oracles ----------------------------------------------------------------------


@pytest.mark.parametrize("mi", range(len(MAPS)))
def test_pullback_jets_match_the_field_and_the_reference(mi):
    psi = MAPS[mi]
    ok = 0
    for fname, u in FIELDS:
        for p in seeded_points(mi):
            got = outcome(pullback_jets, u, psi, p)
            assert outcome(pullback(u, psi).jet, p) == pulled(got), fname
            assert outcome(ref_pullback_jet, u, psi, p) == pulled(got), fname
            if got[0] == "ok":
                ok += 1
                mj, bj, _ = got[1]
                assert mj == psi.jet(p.to_complex())
                assert bj == u.jet(psi.apply(p))
    assert ok > 0


@pytest.mark.parametrize("mi", range(len(MOBIUS)))
def test_covariance_errors_are_bit_identical_to_the_reference(mi):
    m = MOBIUS[mi]
    for fname, u in FIELDS:
        for p in seeded_points(10 + mi):
            assert outcome(covariance_at, u, m, p) == outcome(
                ref_covariance_errors_at, u, m, p), fname
            assert outcome(trace_at, u, m, p) == outcome(
                ref_trace_residual_at, u, m, p), fname
            assert outcome(b_covariance_at, u, m, p) == outcome(
                ref_b_covariance_errors_at, u, m, p), fname


@pytest.mark.parametrize("mi", range(len(MOBIUS), len(MAPS)))
def test_trace_residual_is_bit_identical_beyond_mobius(mi):
    psi = MAPS[mi]
    for fname, u in FIELDS:
        for p in seeded_points(20 + mi):
            assert outcome(trace_at, u, psi, p) == outcome(
                ref_trace_residual_at, u, psi, p), fname


def test_vanishing_derivative_guard_is_where_it_was():
    u = FIELDS[0][1]
    inv = MobiusMap(0.0, 1.0, 1.0, 0.0)
    cases = [(ExpMap(), Vec2(float(x1), 0.3)) for x1 in np.linspace(-760.0, -640.0, 49)]
    cases += [(inv, Vec2(10.0 ** k, 0.0)) for k in range(130, 170, 3)]
    raised = 0
    for psi, p in cases:
        got = outcome(pullback_jets, u, psi, p)
        assert outcome(ref_pullback_jet, u, psi, p) == pulled(got)
        if got[0] == "raised":
            raised += 1
            assert got[1:] == (DomainError, "vanishing derivative in pullback")
        assert outcome(trace_at, u, psi, p) == outcome(
            ref_trace_residual_at, u, psi, p)
        if isinstance(psi, MobiusMap):
            assert outcome(covariance_at, u, psi, p) == outcome(
                ref_covariance_errors_at, u, psi, p)
            assert outcome(b_covariance_at, u, psi, p) == outcome(
                ref_b_covariance_errors_at, u, psi, p)
    # both sides of the 1e-300 threshold are exercised
    assert 0 < raised < len(cases)
    with pytest.raises(DomainError, match="vanishing derivative"):
        pullback_jets(u, ExpMap(), Vec2(-800.0, 0.0))
    assert pullback_jets(u, ExpMap(), Vec2(-600.0, 0.0))[2].value < -1000.0


# -- jet counts -----------------------------------------------------------------


class CountingField(ScalarField):
    def __init__(self, base):
        self.base, self.calls = base, 0

    def jet(self, x):
        self.calls += 1
        return self.base.jet(x)


class CountingMap(AnalyticMap):
    def __init__(self, inner):
        self.inner, self.calls = inner, 0

    @property
    def conjugating(self):
        return self.inner.conjugating

    def jet(self, z):
        self.calls += 1
        return self.inner.jet(z)


@pytest.mark.parametrize("check", [
    pytest.param(covariance_at, id="covariance_errors_at"),
    pytest.param(b_covariance_at, id="b_covariance_errors_at"),
    pytest.param(trace_at, id="trace_residual_at"), "usable"])
def test_each_check_evaluates_each_jet_once(check):
    u = CountingField(FIELDS[6][1])  # a Liouville field on polynomial data
    m = CountingMap(MobiusMap(1.1, 0.2, 0.1, 1.0))
    p = Vec2(0.7, -0.4)
    if check == "usable":
        assert suites._usable_for(u, m)(p) is True
    else:
        check(u, m, p)
    assert (u.calls, m.calls) == (1, 1)


@pytest.mark.parametrize("suite, name", [
    (suites.covariance_suite, "covariance_errors_at"),
    (suites.trace_suite, "trace_residual_at"),
])
def test_suites_call_checks_through_module_globals(suite, name):
    # the traced benchmark wraps these names in the suites module
    tree = ast.parse(textwrap.dedent(inspect.getsource(suite)))
    calls = [n for n in ast.walk(tree)
             if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
             and n.func.id == name]
    assert calls, f"{suite.__name__} does not call {name}"
    rebound = [n for n in ast.walk(tree)
               if isinstance(n, ast.Name) and n.id == name
               and not isinstance(n.ctx, ast.Load)]
    assert not rebound
    assert getattr(suites, name) is getattr(invariance, name)
