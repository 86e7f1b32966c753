"""Registry-level behavior of the named verification suites."""

import dataclasses
import math

import numpy as np
import pytest

import conformal2d.suites as suites
from conformal2d import SUITES, Vec2, run_suites, standard_fields


def test_registry_names_and_order():
    assert list(SUITES) == [
        "counterexample", "covariance", "trace", "liouville", "mass",
        "bubble", "cross", "monotone", "envelope", "spheres", "solver",
    ]


def test_run_suites_concatenates_in_order():
    reports = run_suites(["counterexample", "cross"])
    names = [r.name for r in reports]
    assert names[:3] == ["counterexample-matrices", "counterexample-trace-match",
                         "counterexample-eigen-gap"]
    assert names[-1] == "cross-representation"
    assert all(r.passed for r in reports)


def test_tol_override_reaches_reports():
    rep = run_suites(["cross"], tol=1e-3)[0]
    assert rep.tolerance == 1e-3
    with pytest.raises(KeyError):
        run_suites(["no-such-suite"])


def test_standard_fields_are_usable():
    fields = standard_fields(np.random.default_rng(7))
    assert len(fields) == 10
    assert len({name for name, _ in fields}) == 10
    p = Vec2(0.9, 0.4)
    for name, u in fields:
        assert np.isfinite(u.jet(p).value), name


def test_seed_changes_sampled_suites_deterministically():
    a = run_suites(["liouville"], seed=1)
    b = run_suites(["liouville"], seed=1)
    c = run_suites(["liouville"], seed=2)
    errs = lambda rs: [r.max_error for r in rs]
    assert errs(a) == errs(b)
    # a different seed draws different points; the errors move at roundoff
    # scale but the checks still pass
    assert all(r.passed for r in c)


def test_shortfall_report_fails_on_nan():
    rep = suites._shortfall_report("x", math.nan, 0.5)
    assert not rep.passed
    assert math.isnan(rep.max_error)
    assert suites._shortfall_report("x", 0.7, 0.5).passed


def test_envelope_distance_bound_fails_on_nan(monkeypatch):
    real = suites.inf_envelope

    def nan_distance(prof, eps):
        return dataclasses.replace(real(prof, eps), sup_distance_to_input=math.nan)

    monkeypatch.setattr(suites, "inf_envelope", nan_distance)
    rows = {r.name: r for r in suites.envelope_suite()}
    row = rows["envelope-distance-bound"]
    assert not row.passed
    assert math.isnan(row.max_error)
