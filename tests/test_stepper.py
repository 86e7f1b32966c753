"""The radial stepper against a reference copy of the plain Dormand-Prince
loop that sums its stages with sum(): trajectories must agree bit for bit,
an attempt must cost six right-hand-side evaluations, and the step counts
must be exact."""

import json
import math

import pytest

from conformal2d import ConeIndex, SolveConfig, StepFailure, boundary_solve, ode_solve
from conformal2d import radial
from conformal2d.cli import main
from conformal2d.ops import resolve_symmetric_function
from conformal2d.radial import StepCounts, _integrate_to_nodes

# -- reference: the generator-sum loop with stage 1 evaluated on every attempt --

_DP_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_DP_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
_DP_B4 = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40)


def reference_integrate(rhs, r0, v0, w0, nodes, cfg, collect, counts=None):
    r, v, w = r0, v0, w0
    h = cfg.h_init
    for rt in nodes:
        while r < rt - 1e-14 * max(1.0, rt):
            h_try = min(h, cfg.h_max, rt - r)
            while True:
                k = [rhs(r, v, w)]
                for i in range(1, 7):
                    k.append(rhs(r + _DP_C[i] * h_try,
                                 v + h_try * sum(a * kj[0] for a, kj in zip(_DP_A[i], k)),
                                 w + h_try * sum(a * kj[1] for a, kj in zip(_DP_A[i], k))))
                v5 = v + h_try * sum(b * ki[0] for b, ki in zip(_DP_B5, k))
                w5 = w + h_try * sum(b * ki[1] for b, ki in zip(_DP_B5, k))
                v4 = v + h_try * sum(b * ki[0] for b, ki in zip(_DP_B4, k))
                w4 = w + h_try * sum(b * ki[1] for b, ki in zip(_DP_B4, k))
                ev = abs(v5 - v4) / (cfg.atol + cfg.rtol * max(abs(v), abs(v5)))
                ew = abs(w5 - w4) / (cfg.atol + cfg.rtol * max(abs(w), abs(w5)))
                err = max(ev, ew) if ew == ew else ew
                if err <= 1.0:
                    r += h_try
                    v, w = v5, w5
                    h = h_try * min(5.0, max(0.2, 0.9 * (err + 1e-300) ** -0.2))
                    break
                h_try *= max(0.2, 0.9 * err**-0.2)
                if h_try < 1e-13:
                    raise StepFailure(f"step size underflow at r = {r:.6g}")
        collect(rt, v, w)


def outcome(call):
    """Bytes of every output array plus the scalars, or the exception."""
    try:
        res = call()
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return type(exc), str(exc)
    arrays = [res.profile.r, res.profile.v, res.profile.dv, res.lambda1, res.lambda2]
    scalars = ()
    if hasattr(res, "residual"):
        arrays.append(res.residual)
        scalars = (res.mu, res.cone_exit)
    return [a.tobytes() for a in arrays], scalars


def with_reference(monkeypatch, call):
    with monkeypatch.context() as m:
        m.setattr(radial, "_integrate_to_nodes", reference_integrate)
        return outcome(call)


ODE_FUNCTIONS = [("sigma1", 2.0), ("sigma1", 1.8), ("sigma1", 1.5), ("sigma2", 2.0),
                 ("weighted:0", 2.0), ("weighted:0.4", 2.0), ("weighted:1", 2.0)]


@pytest.mark.parametrize("r_max", [5.0, 12.0])
@pytest.mark.parametrize("v0", [0.0, 0.35, -1.0, 2.0])
@pytest.mark.parametrize("spec,cone", ODE_FUNCTIONS, ids=lambda x: str(x))
def test_ode_solve_is_bit_identical_to_reference(monkeypatch, spec, cone, v0, r_max):
    f = resolve_symmetric_function(spec, cone=cone)
    call = lambda: ode_solve(f, v0=v0, r_max=r_max)  # noqa: E731
    assert outcome(call) == with_reference(monkeypatch, call)


BOUNDARY_STARTS = [(1.0, 0.0, -6.0, 2.5), (0.5, 1.0, -10.0, 4.0), (1.0, 0.0, -1.0, 30.0)]


@pytest.mark.parametrize("start", BOUNDARY_STARTS, ids=str)
@pytest.mark.parametrize("p", [1.2, 1.5, 1.8])
def test_boundary_solve_is_bit_identical_to_reference(monkeypatch, p, start):
    r0, v0, w0, r_max = start
    call = lambda: boundary_solve(ConeIndex(p), r0, v0, w0, r_max)  # noqa: E731
    assert outcome(call) == with_reference(monkeypatch, call)


def test_boundary_grid_reaches_completion_and_blow_up():
    # the bit-identity grid must compare failures as well as trajectories
    raised = [outcome(lambda: boundary_solve(ConeIndex(p), *start))[0] is StepFailure
              for p in (1.2, 1.5, 1.8) for start in BOUNDARY_STARTS]
    assert any(raised) and not all(raised)


# -- evaluation counts ---------------------------------------------------------


class CountingRhs:
    """v'' = -v written as a first-order system, counting its calls."""

    def __init__(self):
        self.calls = []

    def __call__(self, r, v, w):
        self.calls.append((r, v, w))
        return w, -v


def run_stepper(integrate, rhs, cfg=SolveConfig(), nodes=(0.5, 1.0, 3.0, 7.5), counts=None):
    counts = StepCounts() if counts is None else counts
    seen = []
    integrate(rhs, 0.0, 1.0, 0.0, list(nodes), cfg,
              lambda r, v, w: seen.append((r, v, w)), counts)
    return seen, counts


@pytest.mark.parametrize("cfg", [SolveConfig(), SolveConfig(rtol=1e-12, atol=1e-14, h_init=0.25)],
                         ids=["default", "tight"])
def test_six_evaluations_per_attempt(cfg):
    rhs = CountingRhs()
    seen, counts = run_stepper(_integrate_to_nodes, rhs, cfg)
    attempts = counts.accepted + counts.rejected
    assert counts.accepted > 0
    assert len(rhs.calls) == counts.rhs_evals == 1 + 6 * attempts
    ref_rhs = CountingRhs()
    ref_seen, _ = run_stepper(reference_integrate, ref_rhs, cfg)
    assert len(ref_rhs.calls) == 7 * attempts
    assert seen == ref_seen
    # the first same as last reuse skips exactly the repeated stage 1 calls
    assert set(rhs.calls) == set(ref_rhs.calls)


def test_rejections_are_counted():
    cfg = SolveConfig(rtol=1e-12, atol=1e-14, h_init=0.25)
    _, counts = run_stepper(_integrate_to_nodes, CountingRhs(), cfg)
    assert counts.rejected > 0


def test_no_evaluation_without_a_step():
    rhs = CountingRhs()
    seen, counts = run_stepper(_integrate_to_nodes, rhs, nodes=(0.0, -1.0))
    assert rhs.calls == [] and counts == StepCounts()
    assert [r for r, _, _ in seen] == [0.0, -1.0]


class PoisonedRhs(CountingRhs):
    """Returns NaN in one component, or raises, at one stage of each attempt.

    Stage numbers follow the call order: the new stepper makes one stage 1
    call and then six calls (stages 2-7) per attempt; the reference makes
    seven calls per attempt."""

    def __init__(self, per_attempt, stage, component=None, raise_on_attempt=None):
        super().__init__()
        self.per_attempt, self.stage = per_attempt, stage
        self.component, self.raise_on_attempt = component, raise_on_attempt

    def stage_of(self, i):
        if self.per_attempt == 7:
            return i % 7 + 1, i // 7
        return (1, 0) if i == 0 else ((i - 1) % 6 + 2, (i - 1) // 6)

    def __call__(self, r, v, w):
        stage, attempt = self.stage_of(len(self.calls))
        out = list(super().__call__(r, v, w))
        if stage != self.stage:
            return tuple(out)
        if self.raise_on_attempt is not None:
            if attempt == self.raise_on_attempt:
                raise ArithmeticError(f"stage {stage} raised at r = {r!r}")
            return tuple(out)
        out[self.component] = math.nan
        return tuple(out)


@pytest.mark.parametrize("component", [0, 1])
@pytest.mark.parametrize("stage", range(1, 8))
def test_nan_at_any_stage_rejects_and_fails(stage, component):
    rhs = PoisonedRhs(6, stage, component)
    with pytest.raises(StepFailure, match="step size underflow") as new:
        run_stepper(_integrate_to_nodes, rhs)
    with pytest.raises(StepFailure) as ref:
        run_stepper(reference_integrate, PoisonedRhs(7, stage, component))
    assert str(new.value) == str(ref.value)


def test_nan_attempts_are_counted_as_rejections():
    counts = StepCounts()
    with pytest.raises(StepFailure):
        run_stepper(_integrate_to_nodes, PoisonedRhs(6, 4, 1), counts=counts)
    assert counts.accepted == 0 and counts.rejected > 0
    assert counts.rhs_evals == 1 + 6 * counts.rejected


@pytest.mark.parametrize("attempt", [0, 3, 40])
def test_exception_in_stage_7_propagates_like_reference(attempt):
    rhs, counts = PoisonedRhs(6, 7, raise_on_attempt=attempt), StepCounts()
    with pytest.raises(ArithmeticError) as new:
        run_stepper(_integrate_to_nodes, rhs, counts=counts)
    with pytest.raises(ArithmeticError) as ref:
        run_stepper(reference_integrate, PoisonedRhs(7, 7, raise_on_attempt=attempt))
    assert str(new.value) == str(ref.value)
    # every call made is counted, the raising one included
    assert counts.rhs_evals == len(rhs.calls) == 1 + 6 * (attempt + 1)
    assert counts.accepted + counts.rejected == attempt


# -- counts on the solver result and in the report -------------------------------


@pytest.mark.parametrize("spec,v0", [("sigma1", 0.0), ("sigma2", 0.35), ("weighted:0.4", -1.0),
                                     ("sigma1", 2.0)])
def test_solve_counts_repeat_and_add_up(spec, v0):
    f = resolve_symmetric_function(spec)
    first, second = (ode_solve(f, v0=v0, r_max=12.0).steps for _ in range(2))
    assert first == second
    assert first.accepted > 0
    assert first.rhs_evals == 1 + 6 * (first.accepted + first.rejected)


def test_default_sigma1_solve_makes_3013_evaluations():
    # 502 attempts at six evaluations plus the first stage 1; the loop that
    # evaluated stage 1 on every attempt made 7 * 502 = 3514
    steps = ode_solve(resolve_symmetric_function("sigma1")).steps
    assert steps == StepCounts(accepted=502, rejected=0, rhs_evals=3013)


def test_series_only_solve_takes_no_steps():
    res = ode_solve(resolve_symmetric_function("sigma1"), r_max=1e-3,
                    cfg=SolveConfig(n_out=3))
    assert res.steps == StepCounts()


def test_solve_radial_report_carries_counts(tmp_path):
    out = tmp_path / "solve.json"
    assert main(["solve-radial", "--f", "sigma2", "--out", str(out)]) == 0
    rows = json.loads(out.read_text())["checks"]
    assert [row["name"] for row in rows] == ["solve-residual[sigma2]", "solve-bubble[sigma2]"]
    extras = rows[0]["extras"]
    steps = ode_solve(resolve_symmetric_function("sigma2")).steps
    assert (extras["accepted_steps"], extras["rejected_steps"], extras["rhs_evals"]) == (
        steps.accepted, steps.rejected, steps.rhs_evals)
