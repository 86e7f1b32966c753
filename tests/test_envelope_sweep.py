"""The lower-envelope sweep against a copy of its previous form.

`reference_argmin` is the stack sweep as it stood before the top of the
stack moved into locals and the breakpoints into an array("d").  Both must
give the same argmin, envelope, defect and distance bits on any profile,
including exact ties between parabolas and breakpoints that overflow to
inf or NaN."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conformal2d import RadialProfile, inf_envelope
from conformal2d import radial


def reference_argmin(r: list[float], v: list[float], eps: float) -> np.ndarray:
    hull: list[int] = []
    left: list[float] = []
    for q, (rq, vq) in enumerate(zip(r, v)):
        while hull:
            j = hull[-1]
            s = 0.5 * (r[j] + rq) + 0.5 * eps * (vq - v[j]) / (rq - r[j])
            if s > left[-1]:
                break
            hull.pop()
            left.pop()
        else:
            s = -math.inf
        hull.append(q)
        left.append(s)
    return np.asarray(hull)[np.searchsorted(left[1:], r, side="left")]


def grid_and_values(seed: int, n: int, kind: str, scale: float):
    rng = np.random.default_rng(seed)
    if kind == "quantized":
        # small integer multiples on a uniform grid: many exact ties
        r = np.linspace(0.0, rng.uniform(0.5, 10.0), n)
        return r, scale * rng.integers(-3, 4, n).astype(float)
    if kind == "overflow":
        # rj + rq overflows and vq - vj reaches +-inf: inf and NaN breakpoints
        r = np.linspace(0.0, 1.7e308, n)
        return r, rng.choice([-1.0, 1.0], n) * rng.uniform(1e307, 1.7e308, n)
    r = rng.uniform(0.0, 2.0) + np.cumsum(rng.exponential(1.0, n) ** 2 + 1e-9)
    r *= rng.uniform(0.01, 3.0)
    if kind == "noise":
        return r, scale * rng.normal(0.0, 1.0, n)
    return r, scale * np.sin(rng.uniform(0.1, 5.0) * r) + 0.1 * scale * np.abs(r - r.mean())


def assert_same_envelope(r, v, eps):
    p = RadialProfile(r, v)
    with np.errstate(all="ignore"):
        k = radial._envelope_argmin(p.r.tolist(), p.v.tolist(), eps)
        got = inf_envelope(p, eps)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(radial, "_envelope_argmin", reference_argmin)
            want = inf_envelope(p, eps)
    assert np.array_equal(k, reference_argmin(p.r.tolist(), p.v.tolist(), eps))
    assert np.array_equal(got.profile.v, want.profile.v, equal_nan=True)
    assert np.array_equal(got.interior, want.interior)
    assert got.semiconcavity_defect.hex() == want.semiconcavity_defect.hex()
    assert got.sup_distance_to_input.hex() == want.sup_distance_to_input.hex()


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 500),
       kind=st.sampled_from(["smooth", "noise", "quantized", "overflow"]),
       scale_exp=st.floats(-3.0, 3.0), eps_exp=st.floats(-3.0, 3.0))
@example(seed=0, n=500, kind="overflow", scale_exp=0.0, eps_exp=0.0)
@example(seed=1, n=500, kind="quantized", scale_exp=0.0, eps_exp=-3.0)
def test_sweep_matches_reference_bit_for_bit(seed, n, kind, scale_exp, eps_exp):
    r, v = grid_and_values(seed, n, kind, 10.0 ** scale_exp)
    assert_same_envelope(r, v, 10.0 ** eps_exp)


def test_nan_breakpoint_pops_the_top():
    # q = 2 meets parabola 1 at inf - inf = NaN; the NaN pops parabola 1,
    # so nodes 1 and 2 both take parabola 2
    r = np.array([0.0, 1e308, 1.5e308])
    v = np.array([0.0, 1e308, -1e308])
    with np.errstate(all="ignore"):
        assert math.isnan(0.5 * (r[1] + r[2]) + 0.5 * (v[2] - v[1]) / (r[2] - r[1]))
    assert radial._envelope_argmin(r.tolist(), v.tolist(), 1.0).tolist() == [0, 2, 2]
    assert_same_envelope(r, v, 1.0)
