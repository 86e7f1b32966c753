"""The per-solve lambda1 solver and the stepper's comparison lines against
reference copies of the code they replaced.

``ref_solve_lambda1`` and ``ref_section_min`` are the one-call-per-evaluation
solver and section rule as they were before the solver was built once per
solve.  The solver must give the same bits, or raise the same exception
with the same message, for every lambda2 (tiny, huge, signed zeros, NaN);
the stepper must collect the same states with the same step counts as
``test_stepper.reference_integrate`` on random right-hand sides."""

import dataclasses
import math
import struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conformal2d import SolveConfig, StepFailure
from conformal2d import radial
from conformal2d.ops import sigma1, sigma2, weighted
from conformal2d.radial import (StepCounts, _integrate_to_nodes, _lambda1_solver,
                                _section_rule)
from test_stepper import reference_integrate

# -- reference: the solver as it was, one call per evaluation ---------------------


def ref_section_min(lam2, cone):
    s = cone.p - 2.0
    if cone.p == 2.0:
        if lam2 <= 0.0:
            return None
        return 0.0
    return max(s * lam2, lam2 / s)


def ref_solve_lambda1(f, cone, lam2, r, cfg):
    if lam2 != lam2:
        raise StepFailure(f"lambda2 is NaN at r = {r:.6g}")
    lo = ref_section_min(lam2, cone)
    if lo is None:
        raise radial._ConeExitSignal(r)

    fn = f.fn
    if fn(lo, lam2) - 1.0 >= 0.0:
        raise radial._ConeExitSignal(r)
    if f.lambda1 is not None:
        lam1 = f.lambda1(lam2)
    else:

        def fun(t):
            return fn(t, lam2) - 1.0

        hi = max(lam2 + 2.0 * max(1.0, abs(lam2)), lo + 1.0)
        tries = 0
        while fun(hi) <= 0.0:
            hi = lo + 2.0 * (hi - lo)
            tries += 1
            if tries > 200:
                raise StepFailure(f"lambda1 bracket expansion failed at r = {r:.6g}")
        lam1 = float(radial.brentq(fun, lo, hi, xtol=1e-15))
    residual = abs(fn(lam1, lam2) - 1.0)
    if not residual <= cfg.root_residual_max:
        raise StepFailure(f"lambda1 residual {residual:.3e} at r = {r:.6g}")
    return lam1, residual


def bits(x):
    return struct.pack("<d", x)


def outcome(call):
    """The result's bits, or the exception's type and message."""
    try:
        out = call()
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return type(exc), str(exc)
    if isinstance(out, tuple):
        return tuple(bits(x) for x in out)
    return out if out is None else bits(out)


# sigma2 and weighted are elliptic on Gamma_2 only; sigma1 on every cone
FUNCTIONS = (
    [sigma1(p) for p in (2.0, 1.9, 1.8, 1.5, 1.2, 1.01)]
    + [sigma2(2.0)]
    + [weighted(t) for t in (0.0, 0.4, 1.0)]
    # brentq on the section's lower edge at 0 and, for p < 2, below it
    + [dataclasses.replace(f, lambda1=None) for f in (sigma2(2.0), sigma1(1.5))]
)
MAGNITUDES = st.floats(1e-300, 1e300)
LAM2 = st.one_of(MAGNITUDES, MAGNITUDES.map(lambda x: -x),
                 st.sampled_from([0.0, -0.0, math.nan]))


@settings(max_examples=400, deadline=None)
@given(f=st.sampled_from(FUNCTIONS), lam2=LAM2, r=st.sampled_from([1e-3, 0.5, 1.0, 4.75]))
@example(f=FUNCTIONS[0], lam2=0.25, r=1.0)
def test_per_solve_solver_matches_reference(f, lam2, r):
    cfg = SolveConfig()
    want = outcome(lambda: ref_solve_lambda1(f, f.cone, lam2, r, cfg))
    assert outcome(lambda: _lambda1_solver(f, f.cone, cfg)(lam2, r)) == want
    assert outcome(lambda: _section_rule(f.cone)(lam2)) == outcome(
        lambda: ref_section_min(lam2, f.cone))


def test_reference_grid_reaches_every_outcome():
    # the grid above must see roots, cone exits, NaN failures and brentq roots
    cfg = SolveConfig()
    kinds = set()
    for f in FUNCTIONS:
        for lam2 in (0.25, -0.5, 3.0, math.nan):
            out = outcome(lambda: ref_solve_lambda1(f, f.cone, lam2, 1.0, cfg))
            kinds.add(out[0] if isinstance(out[0], type) else (f.lambda1 is None))
    assert {radial._ConeExitSignal, StepFailure, True, False} <= kinds


def test_one_solver_serves_many_calls():
    # the solver holds no state between calls
    cfg = SolveConfig()
    for f in FUNCTIONS:
        solve = _lambda1_solver(f, f.cone, cfg)
        for lam2 in (0.25, 0.5, -1.0, 0.25):
            assert outcome(lambda: solve(lam2, 1.0)) == outcome(
                lambda: ref_solve_lambda1(f, f.cone, lam2, 1.0, cfg))


# -- stepper: random right-hand sides against the reference loop ------------------


class Rhs:
    """v' = w, w' = b w + c sin(omega r) + a v (no v term when a = 0), with
    component ``nan_in`` NaN beyond r_nan; records the radius of every call."""

    def __init__(self, a, b, c, omega, r_nan, nan_in):
        self.a, self.b, self.c, self.omega = a, b, c, omega
        self.r_nan, self.nan_in = r_nan, nan_in
        self.radii = []

    def __call__(self, r, v, w):
        self.radii.append(r)
        dw = self.b * w + self.c * math.sin(self.omega * r)
        if self.a:
            dw += self.a * v
        out = [w, dw]
        if r > self.r_nan:
            out[self.nan_in] = math.nan
        return tuple(out)


def run(integrate, problem, cfg, nodes):
    rhs, seen, counts = Rhs(*problem), [], StepCounts()
    try:
        integrate(rhs, 0.0, 1.0, 0.0, nodes, cfg, lambda r, v, w: seen.append((r, v, w)),
                  counts)
        error = None
    except StepFailure as exc:
        error = str(exc)
    return rhs.radii, seen, counts, error


def reference_counts(radii, error):
    """StepCounts of the six-evaluation stepper, read from the reference's
    calls: seven per attempt, and an attempt that follows an accepted step
    starts at a new radius."""
    starts = radii[::7]
    attempts = len(starts)
    accepted = sum(a != b for a, b in zip(starts, starts[1:]))
    if attempts and error is None:
        accepted += 1  # the march ended on an accepted step
    return StepCounts(accepted, attempts - accepted, 1 + 6 * attempts if attempts else 0)


PROBLEMS = st.tuples(st.floats(-30.0, 5.0), st.floats(-5.0, 5.0), st.floats(-10.0, 10.0),
                     st.floats(0.0, 40.0),
                     st.one_of(st.just(math.inf), st.floats(0.0, 6.0)), st.sampled_from([0, 1]))
CONFIGS = st.builds(SolveConfig, rtol=st.floats(1e-12, 1e-2), atol=st.floats(1e-14, 1e-4),
                    h_init=st.floats(1e-4, 3.0), h_max=st.floats(1e-2, 2.0))
NODES = st.lists(st.floats(-1.0, 6.0), min_size=1, max_size=6).map(sorted)

REJECTING = ((-20.0, -1.0, 5.0, 30.0, math.inf, 1), SolveConfig(h_init=2.0), [0.5, 3.0, 5.0])
CAPPED = ((0.0, 0.0, 0.0, 0.0, math.inf, 1), SolveConfig(rtol=1e-2, h_max=0.05), [2.0, 5.0])
# NaN in v' alone: the error norm of v is NaN and that of w is finite
FAILING = ((0.0, 0.0, 1.0, 2.0, 1.5, 0), SolveConfig(), [1.0, 2.0, 4.0])
FAILING_W = ((-1.0, 0.0, 1.0, 2.0, 1.5, 1), SolveConfig(), [1.0, 2.0, 4.0])


@settings(max_examples=150, deadline=None)
@given(problem=PROBLEMS, cfg=CONFIGS, nodes=NODES)
@example(*REJECTING)
@example(*CAPPED)
@example(*FAILING)
@example(*FAILING_W)
def test_stepper_matches_reference_on_random_problems(problem, cfg, nodes):
    radii, seen, counts, error = run(_integrate_to_nodes, problem, cfg, nodes)
    ref_radii, ref_seen, _, ref_error = run(reference_integrate, problem, cfg, nodes)
    assert (seen, error) == (ref_seen, ref_error)
    assert counts == reference_counts(ref_radii, ref_error)
    assert len(radii) == counts.rhs_evals


@pytest.mark.parametrize("case, what", [(REJECTING, "rejected"), (CAPPED, "capped"),
                                        (FAILING, "failed")])
def test_stepper_examples_reach_their_branch(case, what):
    problem, cfg, nodes = case
    radii, _, counts, error = run(_integrate_to_nodes, problem, cfg, nodes)
    if what == "rejected":
        assert counts.rejected > 0 and error is None
    elif what == "capped":
        # without the cap, loose tolerances on a line take steps of 5 h_prev
        assert counts.accepted >= 5.0 / cfg.h_max and counts.rejected == 0
    else:
        assert error == "step size underflow at r = 1.5" and counts.rejected > 0
