"""The covariance suite checks each (map, field) block of points at once,
reusing the jets its sampling evaluated.  These tests hold it to the
one-point-at-a-time sweep it replaced: the same rows bit for bit, one base
jet per sampled candidate, and the same first error when a point raises."""

import math

import numpy as np
import pytest

import conformal2d.invariance as invariance
import conformal2d.suites as suites
from conformal2d import MobiusMap, ScalarField, eig2, pullback, random_mobius
from conformal2d.fields import pullback_jets
from conformal2d.geometry import Sym2, conj_orth
from conformal2d.invariance import CovarianceErrors, valid_points
from conformal2d.report import CheckReport


# -- the per-point sweep, as it was ------------------------------------------------


def ref_usable_for(u, m):
    um = pullback(u, m)

    def ok(p):
        um.jet(p)
        return True

    return ok


def ref_covariance_errors_at(u, m, x):
    mj, base_jet, v_jet = pullback_jets(u, m, x)
    a_v = invariance.a_from_jet(v_jet)
    jd = m.jacobian_of(mj)
    a_u = invariance.a_from_jet(base_jet)
    matrix_err = (a_v - conj_orth(a_u, jd.orthogonal)).max_abs()
    lhs_t = math.exp(v_jet.value) * a_v.as_array()
    rhs_t = math.exp(base_jet.value) * (jd.matrix.T @ a_u.as_array() @ jd.matrix)
    tensor_err = float(np.abs(lhs_t - rhs_t).max())
    ev, eu = eig2(a_v), eig2(a_u)
    eigen_err = max(abs(ev.lambda1 - eu.lambda1), abs(ev.lambda2 - eu.lambda2))
    return CovarianceErrors(matrix_err, tensor_err, eigen_err)


def ref_covariance_suite(seed=None, tol=1e-8):
    rng = np.random.default_rng(7 if seed is None else seed)
    fields = suites.standard_fields(rng)
    maps = [random_mobius(rng) for _ in range(20)]
    rows = {"matrix": [], "tensor": [], "eigen": []}
    for mi, m in enumerate(maps):
        for fname, u in fields:
            for p in valid_points(rng, 50, ref_usable_for(u, m)):
                e = ref_covariance_errors_at(u, m, p)
                label = f"map{mi}/{fname}@({p.x1:.3g},{p.x2:.3g})"
                for key in rows:
                    rows[key].append((label, getattr(e, key)))
    out = [CheckReport.from_labeled(f"a-covariance-{key}", labeled, tol)
           for key, labeled in rows.items()]
    herm_rows = []
    herm_fields = [fields[0], fields[3], fields[5]]
    for mi in range(10):
        m = random_mobius(rng, conjugating=False)
        for fname, u in herm_fields:
            for p in valid_points(rng, 30, ref_usable_for(u, m)):
                [(e_diag, e_off)] = invariance.b_covariance_errors_at(
                    m, [pullback_jets(u, m, p)])
                label = f"hmap{mi}/{fname}@({p.x1:.3g},{p.x2:.3g})"
                herm_rows.append((label, max(e_diag, e_off)))
    out.append(CheckReport.from_labeled("b-covariance", herm_rows, tol))
    return out


def fingerprint(row):
    return (row.name, row.points_tested, float.hex(row.max_error),
            tuple((label, float.hex(err)) for label, err in row.witnesses))


# -- rows --------------------------------------------------------------------------


@pytest.mark.parametrize("seed", [None, 4, 9])
def test_rows_match_the_per_point_sweep(seed):
    # seeds 4 and 9 hold the rows nearest their tolerance, so compare the
    # numbers, not the verdicts
    got = suites.covariance_suite(seed)
    want = ref_covariance_suite(seed)
    assert [fingerprint(r) for r in got] == [fingerprint(r) for r in want]
    assert len(got) == 4


# -- jets per candidate --------------------------------------------------------------


class CountingField(ScalarField):
    def __init__(self, base):
        self.base, self.calls = base, 0

    def jet(self, x):
        self.calls += 1
        return self.base.jet(x)


def test_suite_evaluates_each_candidate_jet_once(monkeypatch):
    standard_fields = suites.standard_fields
    counted = []
    candidates = [0]

    def counting_fields(rng):
        out = [(name, CountingField(u)) for name, u in standard_fields(rng)]
        counted.extend(u for _, u in out)
        return out

    def counting_points(rng, n, usable, *args, **kwargs):
        def tallied(p):
            candidates[0] += 1
            return usable(p)

        return valid_points(rng, n, tallied, *args, **kwargs)

    monkeypatch.setattr(suites, "standard_fields", counting_fields)
    monkeypatch.setattr(suites, "valid_points", counting_points)
    rows = suites.covariance_suite()
    accepted = rows[0].points_tested + rows[3].points_tested
    assert accepted == 20 * 10 * 50 + 10 * 3 * 30
    assert candidates[0] >= accepted
    assert sum(u.calls for u in counted) == candidates[0]


# -- errors ------------------------------------------------------------------------


def sampled_block(n=12):
    rng = np.random.default_rng(11)
    u = suites.standard_fields(rng)[6][1]
    m = MobiusMap(1.1, 0.2, 0.1, 1.0)
    jets = []
    pts = valid_points(rng, n, suites._usable_for(u, m, jets))
    return u, m, pts, jets


def outcome(fn):
    try:
        return ("ok", fn())
    except Exception as e:  # noqa: BLE001 - compared, not swallowed
        return ("raised", type(e), str(e))


@pytest.mark.parametrize("failing", [
    # (point, jet: 1 base, 2 pulled back, exception type)
    [(3, 2, OverflowError)],
    [(3, 1, OverflowError), (4, 2, OverflowError)],
    [(5, 1, ValueError), (2, 1, OverflowError), (7, 2, ValueError)],
    [(0, 1, OverflowError)],
    [(11, 2, ValueError)],
])
def test_a_raising_block_raises_what_the_first_failing_point_raises(monkeypatch, failing):
    u, m, pts, jets = sampled_block()
    original = invariance.a_from_jet
    # the reference evaluates its own jets, equal to the sampled ones
    bad = [(jets[k][which], exc, f"point {k} jet {which}") for k, which, exc in failing]

    def a_from_jet(j):
        for target, exc, msg in bad:
            if j == target:
                raise exc(msg)
        return original(j)

    monkeypatch.setattr(invariance, "a_from_jet", a_from_jet)
    want = outcome(lambda: [ref_covariance_errors_at(u, m, p) for p in pts])
    assert want[0] == "raised"
    assert outcome(lambda: invariance.covariance_errors_at(m, jets)) == want
    k = min(k for k, _, _ in failing)
    assert outcome(lambda: invariance.covariance_errors_at(m, jets[:k])) == (
        "ok", [ref_covariance_errors_at(u, m, p) for p in pts[:k]])


def test_a_clean_block_is_its_points_one_at_a_time():
    u, m, pts, jets = sampled_block()
    block = invariance.covariance_errors_at(m, jets)
    assert block == [e for p, j in zip(pts, jets)
                     for e in invariance.covariance_errors_at(m, [j])]
    assert block == [ref_covariance_errors_at(u, m, p) for p in pts]


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("d1", [
    complex(1e-170, 0.0),  # |d1|^2 underflows: no conformal factor
    complex(1e-160, 1e-161),  # subnormal |d1|^2: orthogonality defect
    complex(math.inf, 0.0),  # non-finite orthogonal part
])
def test_a_raising_jacobian_is_reported_for_its_point(d1):
    u, m, pts, jets = sampled_block(4)
    bad = jets[2][0]._replace(d1=d1)
    jets[2] = (bad, *jets[2][1:])
    want = outcome(lambda: m.jacobian_of(bad))
    assert want[0] == "raised"
    assert outcome(lambda: invariance.covariance_errors_at(m, jets)) == want


# -- the operator step's failures: huge finite A at chosen points --------------------

HUGE = 1.7976931348623157e308
KINDS = ("conjugated", "difference", "eigen")


def huge_pair(kind, m, mj):
    """(A(u_psi), A(u o psi)) that fail the one-point route at the step
    kind names; None keeps a_from_jet's own value."""
    if kind == "conjugated":
        # O^T A(u) O overflows, so conj_orth's Sym2 raises
        return None, Sym2(HUGE, HUGE, HUGE)
    if kind == "eigen":
        # the matrices agree, but a11 + a22 overflows in eig2
        return Sym2(1e308, 0.0, 1e308), Sym2(1e308, 0.0, 1e308)
    # A(u_psi) - O^T A(u) O overflows in its largest entry, while both
    # eigenpairs stay finite; rebuilding the conjugated entries from the
    # difference would give that entry the other sign
    a_u = Sym2(0.0, 0.8e308, 0.0)
    r = conj_orth(a_u, m.jacobian_of(mj).orthogonal)
    entries = [r.a11, r.a12, r.a22]
    j = max(range(3), key=lambda i: abs(entries[i]))
    a_v = [0.0, 0.0, 0.0]
    a_v[j] = -math.copysign(1.3e308, entries[j])
    return Sym2(*a_v), a_u


def patch_huge(monkeypatch, m, jets, failing):
    original = invariance.a_from_jet
    table = []
    for k, kind in failing:
        for which, a in zip((2, 1), huge_pair(kind, m, jets[k][0])):
            if a is not None:
                table.append((jets[k][which], a))

    def a_from_jet(j):
        for target, a in table:
            if j == target:
                return a
        return original(j)

    monkeypatch.setattr(invariance, "a_from_jet", a_from_jet)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("kind", KINDS)
def test_each_operator_failure_raises_as_the_point_does(monkeypatch, kind):
    u, m, pts, jets = sampled_block(4)
    patch_huge(monkeypatch, m, jets, [(2, kind)])
    want = outcome(lambda: ref_covariance_errors_at(u, m, pts[2]))
    assert want[0] == "raised" and want[1] is ValueError
    # each pair fails where its name says
    mj, base_jet, v_jet = jets[2]
    a_v, a_u = invariance.a_from_jet(v_jet), invariance.a_from_jet(base_jet)
    conjugated = outcome(lambda: conj_orth(a_u, m.jacobian_of(mj).orthogonal))
    assert (conjugated == want) is (kind == "conjugated")
    assert (outcome(lambda: a_v - conjugated[1]) == want) is (kind == "difference")
    assert (outcome(lambda: eig2(a_v)) == want) is (kind == "eigen")
    if kind == "difference":
        assert outcome(lambda: (eig2(a_v), eig2(a_u)))[0] == "ok"
    assert outcome(lambda: invariance.covariance_errors_at(m, jets[2:3])) == want
    assert outcome(lambda: invariance.covariance_errors_at(m, jets)) == want


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("failing", [
    # (point, kind); the first listed is not the first to fail
    [(7, "eigen"), (4, "conjugated")],
    [(6, "conjugated"), (3, "eigen")],
    [(9, "conjugated"), (5, "difference"), (8, "eigen")],
    [(10, "difference"), (1, "eigen"), (2, "conjugated")],
])
def test_a_block_with_operator_failures_raises_the_first(monkeypatch, failing):
    u, m, pts, jets = sampled_block()
    patch_huge(monkeypatch, m, jets, failing)
    want = outcome(lambda: [ref_covariance_errors_at(u, m, p) for p in pts])
    first = min(k for k, _ in failing)
    assert want == outcome(lambda: ref_covariance_errors_at(u, m, pts[first]))
    assert outcome(lambda: invariance.covariance_errors_at(m, jets)) == want
    assert outcome(lambda: invariance.covariance_errors_at(m, jets[:first])) == (
        "ok", [ref_covariance_errors_at(u, m, p) for p in pts[:first]])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_an_earlier_step_failing_later_in_the_block_is_replayed(monkeypatch):
    # point 8's a_from_jet raises before the operator step reaches point 5
    u, m, pts, jets = sampled_block()
    patch_huge(monkeypatch, m, jets, [(5, "eigen")])
    patched = invariance.a_from_jet

    def a_from_jet(j):
        if j == jets[8][2]:
            raise OverflowError("point 8")
        return patched(j)

    monkeypatch.setattr(invariance, "a_from_jet", a_from_jet)
    want = outcome(lambda: [ref_covariance_errors_at(u, m, p) for p in pts])
    assert want == outcome(lambda: ref_covariance_errors_at(u, m, pts[5]))
    assert outcome(lambda: invariance.covariance_errors_at(m, jets)) == want
