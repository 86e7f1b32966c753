"""Radial-profile machinery: circle infima, lower envelopes, radial
eigenvalues, monotonicity diagnostics, and the shooting solver for
f(lambda(A)) = 1.

For a radial field v(r) the operator eigenvalues are

    lambda1 = e^{-v} ( -v'' + v'^2 / 4 )        (radial direction)
    lambda2 = e^{-v} ( -v'/r - v'^2 / 4 )       (tangential direction)

so prescribing f(lambda1, lambda2) = 1 and solving for lambda1 turns the
equation into a second-order ODE for v.
"""
from __future__ import annotations

import csv
import math
from array import array
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ._scipy import brentq
from .errors import SeedError, StepFailure
from .geometry import Vec2
from .ops import VALUE_OVERFLOW, ConeIndex, SymmetricFunction, cone_margin
from .report import CheckReport, worst_witnesses


def _write_csv(path, header: list[str], columns) -> None:
    """One header row, then one row per index of columns: strings as they
    are, numbers as %.17g."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in zip(*columns):
            w.writerow([x if isinstance(x, str) else "%.17g" % x for x in row])


@dataclass(frozen=True)
class RadialProfile:
    """Values v on a strictly increasing radius grid, optionally with
    sampled first/second derivatives."""

    r: np.ndarray
    v: np.ndarray
    dv: Optional[np.ndarray] = None
    ddv: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        r = np.asarray(self.r, dtype=float)
        v = np.asarray(self.v, dtype=float)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "v", v)
        if r.ndim != 1 or r.shape != v.shape:
            raise ValueError("r and v must be 1D arrays of equal length")
        if r.size < 2:
            raise ValueError("profile needs at least two nodes")
        if r[0] < 0.0:
            raise ValueError("radii must be nonnegative")
        if not np.all(np.diff(r) > 0.0):
            raise ValueError("radius grid must be strictly increasing")
        if not (np.all(np.isfinite(r)) and np.all(np.isfinite(v))):
            raise ValueError("profile contains non-finite entries")
        for name in ("dv", "ddv"):
            arr = getattr(self, name)
            if arr is not None:
                arr = np.asarray(arr, dtype=float)
                if arr.shape != r.shape or not np.all(np.isfinite(arr)):
                    raise ValueError(f"bad {name} column")
                object.__setattr__(self, name, arr)

    @classmethod
    def tabulate(cls, grid, fn: Callable[[float], float],
                 dfn: Callable[[float], float] | None = None,
                 ddfn: Callable[[float], float] | None = None) -> "RadialProfile":
        r = np.asarray(grid, dtype=float)
        v = np.array([fn(t) for t in r])
        dv = np.array([dfn(t) for t in r]) if dfn else None
        ddv = np.array([ddfn(t) for t in r]) if ddfn else None
        return cls(r, v, dv, ddv)

    def columns(self) -> list[str]:
        cols = ["r", "v"]
        if self.dv is not None:
            cols.append("dv")
        if self.ddv is not None:
            cols.append("ddv")
        return cols

    def to_csv(self, path) -> None:
        cols = self.columns()
        _write_csv(path, cols, [getattr(self, c) for c in cols])

    @classmethod
    def from_csv(cls, path) -> "RadialProfile":
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        header, body = (rows or [[]])[0], rows[1:]
        if header[:2] != ["r", "v"]:
            raise ValueError(f"unexpected profile header {header!r}")
        data = np.array([[float(x) for x in row] for row in body])
        data = data.reshape(len(body), len(header))  # fails on a row of the wrong length
        kwargs = {}
        for j, name in enumerate(header):
            if name in ("dv", "ddv"):
                kwargs[name] = data[:, j]
        return cls(data[:, 0], data[:, 1], **kwargs)


def minimize_on_circles(u, center, radii, m: int = 64) -> RadialProfile:
    """v(r) = inf over the circle of radius r about center of u.

    All circles are sampled together through u.values: a coarse pass over
    m equispaced angles, then rounds of m angles spanning one spacing on
    either side of each circle's best angle so far, until the spacing is
    below 1e-12.  The minimum over all rounds is kept.
    """
    if m < 4:
        raise ValueError("need at least 4 angles per circle")
    c = Vec2.of(center)
    r = np.asarray(radii, dtype=float)
    rr = r[:, None]
    thetas = np.tile(np.linspace(0.0, 2.0 * math.pi, m, endpoint=False), (r.size, 1))
    offsets = np.linspace(-1.0, 1.0, m)
    best_v = np.full(r.size, np.inf)
    best_t = np.zeros(r.size)
    spacing = 2.0 * math.pi / m
    rows = np.arange(r.size)
    while True:
        vals = u.values(c.x1 + rr * np.cos(thetas), c.x2 + rr * np.sin(thetas))
        j = np.argmin(vals, axis=1)
        v = vals[rows, j]
        best_t = np.where(v < best_v, thetas[rows, j], best_t)
        best_v = np.minimum(best_v, v)  # a NaN sample stays NaN
        if spacing < 1e-12:
            return RadialProfile(r, best_v)
        thetas = best_t[:, None] + spacing * offsets
        spacing *= 2.0 / (m - 1)


@dataclass(frozen=True)
class EnvelopeResult:
    """Lower envelope u_eps(r) = inf_rho { v(rho) + (rho - r)^2 / eps }.

    The envelope profile covers the full input grid; defect and distance
    statistics are taken on the interior subgrid (boundary strip of width
    sqrt(eps * osc v) trimmed) where the envelope is unaffected by the
    missing data outside the grid.
    """

    profile: RadialProfile
    epsilon: float
    semiconcavity_defect: float
    sup_distance_to_input: float
    interior: np.ndarray

    def interior_slice(self) -> tuple[np.ndarray, np.ndarray]:
        return self.profile.r[self.interior], self.profile.v[self.interior]


def _envelope_argmin(r: list[float], v: list[float], eps: float) -> np.ndarray:
    """Index of the lowest parabola v[j] + (x - r[j])^2 / eps at each x = r[i].

    Felzenszwalb-Huttenlocher lower envelope on a non-uniform grid: a stack
    of the parabolas that are lowest somewhere, each with the left end of
    its interval, built in one sweep.  O(n) time and memory.  The top of
    the stack (index j, its r and v, and its left end) lives in locals.
    A breakpoint that is not above the top's left end, NaN included, pops
    the top.
    """
    half_eps = 0.5 * eps  # 0.5 * eps * x is (0.5 * eps) * x: same bits
    hull: list[int] = []  # the stack below its top
    left = array("d")  # and the left ends of their intervals
    j, rj, vj, lj = 0, r[0], v[0], -math.inf
    for q in range(1, len(r)):
        rq = r[q]
        vq = v[q]
        s = 0.5 * (rj + rq) + half_eps * (vq - vj) / (rq - rj)
        while not s > lj:
            if not hull:
                s = -math.inf  # parabola q is the lowest one to its left
                break
            j = hull.pop()
            lj = left.pop()
            rj = r[j]
            vj = v[j]
            s = 0.5 * (rj + rq) + half_eps * (vq - vj) / (rq - rj)
        else:
            hull.append(j)
            left.append(lj)
        j = q
        rj = rq
        vj = vq
        lj = s
    hull.append(j)
    left.append(lj)
    return np.asarray(hull)[np.searchsorted(np.frombuffer(left)[1:], r, side="left")]


def inf_envelope(p: RadialProfile, eps: float) -> EnvelopeResult:
    """Inf-convolution of a radial profile in O(n) time and memory.

    The 2D envelope of a radial function reduces to one dimension because
    min over the angle of |y - x|^2 is (rho - r)^2.  Each node's value is
    the cost of its lowest parabola, capped by its own value v (the k = i
    candidate), so env <= v holds exactly.
    """
    if not (math.isfinite(eps) and eps > 0.0):
        raise ValueError(f"eps must be finite and > 0, got {eps!r}")
    r, v = p.r, p.v
    k = _envelope_argmin(r.tolist(), v.tolist(), eps)
    env = np.minimum(v[k] + (r - r[k]) ** 2 / eps, v)

    osc = float(v.max() - v.min())
    margin = math.sqrt(eps * osc)
    interior = (r >= r[0] + margin) & (r <= r[-1] - margin)
    if interior.sum() < 3:
        interior = np.ones_like(r, dtype=bool)

    # env - r^2/eps is a pointwise min of functions affine in r, hence
    # concave; any positive discrete second difference is defect.
    y = env - r * r / eps
    slope = np.diff(y) / np.diff(r)
    d2 = 2.0 * np.diff(slope) / (r[2:] - r[:-2])
    centers = interior[1:-1]
    defect = float(np.maximum(0.0, d2[centers].max())) if centers.any() else 0.0
    sup_dist = float((v - env)[interior].max())
    return EnvelopeResult(RadialProfile(r, env), float(eps), defect, sup_dist, interior)


@dataclass(frozen=True)
class RadialLambda:
    """Operator eigenvalues of a radial profile at one radius; lambda1 is
    the radial direction, lambda2 the tangential one (unsorted)."""

    lambda1: float
    lambda2: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lambda1) and math.isfinite(self.lambda2)):
            raise ValueError("non-finite eigenvalue")

    def as_sorted(self) -> tuple[float, float]:
        return (max(self.lambda1, self.lambda2), min(self.lambda1, self.lambda2))


def radial_lambda(v: float, v1: float, v2: float, r: float) -> RadialLambda:
    """Eigenvalues from the value and first two radial derivatives at r.

    At r = 0 the tangential expression degenerates; regularity forces
    v1 = 0 there and both eigenvalues coincide.
    """
    if r < 0.0:
        raise ValueError("negative radius")
    e = math.exp(-v)
    if r == 0.0:
        if abs(v1) > 1e-12:
            raise ValueError("r = 0 requires v'(0) = 0")
        lam = e * (-v2)
        return RadialLambda(lam, lam)
    lam1 = e * (-v2 + 0.25 * v1 * v1)
    lam2 = e * (-v1 / r - 0.25 * v1 * v1)
    return RadialLambda(lam1, lam2)


def check_monotone_4log(p: RadialProfile, k0: float = 0.0,
                        slack: float = 1e-10) -> CheckReport:
    """Discrete nondecreasing check of w(r) = v(r) + 4 ln r for r > k0.

    The largest drop between consecutive grid points is the reported error;
    extras carry the empirical minimal K0 (smallest grid radius after which
    no drop exceeds the slack).
    """
    mask = p.r > max(k0, 0.0)
    r, v = p.r[mask], p.v[mask]
    if r.size < 2:
        raise ValueError("grid does not cover (k0, r_max)")
    w = v + 4.0 * np.log(r)
    drops = -np.diff(w)
    worst = float(np.maximum(0.0, drops.max()))
    violating = np.nonzero(drops > slack)[0]
    empirical_k0 = float(r[violating[-1]]) if violating.size else 0.0
    labels = [f"r={r[i]:.6g}" for i in violating[-3:]]
    return CheckReport.from_errors(
        "monotone-4log",
        [worst],
        slack,
        witnesses=worst_witnesses(zip(labels, drops[violating[-3:]])) if violating.size else (),
        extras={"empirical_k0": empirical_k0, "k0": float(k0)},
    )


# -- shooting solver ---------------------------------------------------------


@dataclass(frozen=True)
class SolveConfig:
    """Solver settings.  rtol, atol, r_series, h_init, h_max and
    root_residual_max must be finite and positive (a NaN tolerance rejects
    every step, an infinite one accepts every step), and n_out at least 2."""

    rtol: float = 1e-8
    atol: float = 1e-11
    n_out: int = 501
    r_series: float = 1e-3
    h_init: float = 1e-3
    h_max: float = 0.25
    root_residual_max: float = 1e-11

    def __post_init__(self) -> None:
        for name in ("rtol", "atol", "r_series", "h_init", "h_max", "root_residual_max"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be finite and > 0, got {value!r}")
        if not self.n_out >= 2:
            raise ValueError(f"n_out must be at least 2, got {self.n_out!r}")


@dataclass
class StepCounts:
    """Work done by one adaptive integration: accepted and rejected step
    attempts and right-hand-side evaluations."""

    accepted: int = 0
    rejected: int = 0
    rhs_evals: int = 0


@dataclass(frozen=True)
class RadialSolveResult:
    """Solver output: profile with derivative column, eigenvalues, per-node
    equation residual, the diagonal seed mu, the first cone-exit radius
    (None when the trajectory stays in the cone) and the stepper's work."""

    profile: RadialProfile
    lambda1: np.ndarray
    lambda2: np.ndarray
    residual: np.ndarray
    mu: float
    cone_exit: Optional[float]
    steps: StepCounts

    def to_csv(self, path) -> None:
        p = self.profile
        _write_csv(path, ["r", "v", "dv", "lambda1", "lambda2", "residual"],
                   [p.r, p.v, p.dv, self.lambda1, self.lambda2, self.residual])

    @property
    def max_residual(self) -> float:
        return float(self.residual.max()) if self.residual.size else 0.0


class _ConeExitSignal(Exception):
    def __init__(self, radius: float):
        super().__init__(f"cone exit at r = {radius:.6g}")
        self.radius = radius


def _diagonal_seed(f: SymmetricFunction) -> float:
    """Solve f(mu, mu) = 1 on the diagonal; ellipticity makes it monotone."""

    def fun(t: float) -> float:
        return f.fn(t, t) - 1.0

    lo = 1e-12
    if fun(lo) >= 0.0:
        raise SeedError("f exceeds 1 already at the diagonal origin")
    hi = 1.0
    while fun(hi) < 0.0:
        hi *= 2.0
        if hi > 1e12:
            raise SeedError("no diagonal root below 1e12")
    return float(brentq(fun, lo, hi, xtol=1e-15))


def _section_rule(cone: ConeIndex) -> Callable[[float], Optional[float]]:
    """lambda2 -> infimum of lambda1 over the cone section at fixed lambda2,
    or None when the section is empty."""
    s = cone.p - 2.0
    if cone.p == 2.0:
        return lambda lam2: None if lam2 <= 0.0 else 0.0
    return lambda lam2: max(s * lam2, lam2 / s)


def _lambda1_section_min(lam2: float, cone: ConeIndex) -> Optional[float]:
    """Infimum of lambda1 over the cone section at fixed lambda2, or None
    when the section is empty."""
    return _section_rule(cone)(lam2)


def _lambda1_solver(f: SymmetricFunction, cone: ConeIndex,
                    cfg: SolveConfig) -> Callable[[float, float], tuple[float, float]]:
    """``solve(lam2, r)``: f(lambda1, lam2) = 1 solved for lambda1 within the
    cone section, returning (lambda1, residual).

    Uses f's closed form when it has one and brentq otherwise.  Raises
    _ConeExitSignal when no in-cone root exists (section empty or f already
    >= 1 on its lower edge) and StepFailure when the bracket cannot be
    expanded to a sign change, lam2 is NaN or the root misses the residual
    bound.  Built once per solve, so that a right-hand side evaluation
    reads f, the section rule and the bound from closure cells.
    """
    fn, closed, section_min = f.fn, f.lambda1, _section_rule(cone)
    residual_max = cfg.root_residual_max

    def solve(lam2: float, r: float) -> tuple[float, float]:
        if lam2 != lam2:
            raise StepFailure(f"lambda2 is NaN at r = {r:.6g}")
        lo = section_min(lam2)
        if lo is None:
            raise _ConeExitSignal(r)
        if fn(lo, lam2) - 1.0 >= 0.0:
            raise _ConeExitSignal(r)
        if closed is not None:
            lam1 = closed(lam2)
        else:

            def fun(t: float) -> float:
                return fn(t, lam2) - 1.0

            hi = max(lam2 + 2.0 * max(1.0, abs(lam2)), lo + 1.0)
            tries = 0
            while fun(hi) <= 0.0:
                hi = lo + 2.0 * (hi - lo)
                tries += 1
                if tries > 200:
                    raise StepFailure(f"lambda1 bracket expansion failed at r = {r:.6g}")
            lam1 = float(brentq(fun, lo, hi, xtol=1e-15))
        residual = abs(fn(lam1, lam2) - 1.0)
        if not residual <= residual_max:
            raise StepFailure(f"lambda1 residual {residual:.3e} at r = {r:.6g}")
        return lam1, residual

    return solve


def _solve_lambda1(f: SymmetricFunction, cone: ConeIndex, lam2: float,
                   r: float, cfg: SolveConfig) -> tuple[float, float]:
    """One call of a fresh ``_lambda1_solver(f, cone, cfg)``."""
    return _lambda1_solver(f, cone, cfg)(lam2, r)


def _integrate_to_nodes(rhs, r0: float, v0: float, w0: float, nodes,
                        cfg: SolveConfig, collect, counts: StepCounts) -> None:
    """Adaptive Dormand-Prince 5(4) march of (v, w) hitting each node exactly.

    ``rhs(r, v, w)`` returns (v', w') and ``collect(r, v, w)`` is called at
    every node; exceptions from ``rhs`` propagate so the caller can truncate.
    The pair is first same as last (Hairer-Norsett-Wanner, Solving ODEs I,
    section II.5): stage 7 of an accepted step is evaluated at the new state
    and becomes stage 1 of the next step, and a rejected step keeps its
    stage 1, so an attempt costs six evaluations.  Every stage and weight sum
    is written out as sum() rounds it: left to right, zero weights kept,
    from 0.0 rather than sum()'s int 0 (the same double, -0.0 included,
    without the slower int-plus-float path).  The step-size and error-norm
    lines compare instead of calling min() and max(), and each comparison
    returns the operand min() or max() would, NaN included.  ``counts`` is
    filled in even when an exception ends the march.
    """
    r, v, w = r0, v0, w0
    h_next = cfg.h_init
    atol, rtol, h_max = cfg.atol, cfg.rtol, cfg.h_max
    have_k1 = False
    accepted = rejected = nfev = 0
    try:
        for rt in nodes:
            stop = rt - 1e-14 * max(1.0, rt)
            while r < stop:
                if not have_k1:
                    nfev += 1
                    k1v, k1w = rhs(r, v, w)
                    have_k1 = True
                # min(h_next, h_max, rt - r)
                h = h_max if h_max < h_next else h_next
                if rt - r < h:
                    h = rt - r
                while True:
                    nfev += 1
                    k2v, k2w = rhs(r + 1 / 5 * h,
                                   v + h * (0.0 + 1 / 5 * k1v),
                                   w + h * (0.0 + 1 / 5 * k1w))
                    nfev += 1
                    k3v, k3w = rhs(r + 3 / 10 * h,
                                   v + h * (0.0 + 3 / 40 * k1v + 9 / 40 * k2v),
                                   w + h * (0.0 + 3 / 40 * k1w + 9 / 40 * k2w))
                    nfev += 1
                    k4v, k4w = rhs(r + 4 / 5 * h,
                                   v + h * (0.0 + 44 / 45 * k1v - 56 / 15 * k2v + 32 / 9 * k3v),
                                   w + h * (0.0 + 44 / 45 * k1w - 56 / 15 * k2w + 32 / 9 * k3w))
                    nfev += 1
                    k5v, k5w = rhs(r + 8 / 9 * h,
                                   v + h * (0.0 + 19372 / 6561 * k1v - 25360 / 2187 * k2v
                                            + 64448 / 6561 * k3v - 212 / 729 * k4v),
                                   w + h * (0.0 + 19372 / 6561 * k1w - 25360 / 2187 * k2w
                                            + 64448 / 6561 * k3w - 212 / 729 * k4w))
                    nfev += 1
                    k6v, k6w = rhs(r + h,
                                   v + h * (0.0 + 9017 / 3168 * k1v - 355 / 33 * k2v
                                            + 46732 / 5247 * k3v + 49 / 176 * k4v
                                            - 5103 / 18656 * k5v),
                                   w + h * (0.0 + 9017 / 3168 * k1w - 355 / 33 * k2w
                                            + 46732 / 5247 * k3w + 49 / 176 * k4w
                                            - 5103 / 18656 * k5w))
                    # stage 7 sits at the fifth-order solution, less its zero-weight k7 term
                    sv = (0.0 + 35 / 384 * k1v + 0.0 * k2v + 500 / 1113 * k3v
                          + 125 / 192 * k4v - 2187 / 6784 * k5v + 11 / 84 * k6v)
                    sw = (0.0 + 35 / 384 * k1w + 0.0 * k2w + 500 / 1113 * k3w
                          + 125 / 192 * k4w - 2187 / 6784 * k5w + 11 / 84 * k6w)
                    nfev += 1
                    k7v, k7w = rhs(r + h, v + h * sv, w + h * sw)
                    v5 = v + h * (sv + 0.0 * k7v)
                    w5 = w + h * (sw + 0.0 * k7w)
                    v4 = v + h * (0.0 + 5179 / 57600 * k1v + 0.0 * k2v + 7571 / 16695 * k3v
                                  + 393 / 640 * k4v - 92097 / 339200 * k5v
                                  + 187 / 2100 * k6v + 1 / 40 * k7v)
                    w4 = w + h * (0.0 + 5179 / 57600 * k1w + 0.0 * k2w + 7571 / 16695 * k3w
                                  + 393 / 640 * k4w - 92097 / 339200 * k5w
                                  + 187 / 2100 * k6w + 1 / 40 * k7w)
                    # max(|y|, |y5|) for y = v, w
                    a0, a5 = abs(v), abs(v5)
                    ev = abs(v5 - v4) / (atol + rtol * (a5 if a5 > a0 else a0))
                    a0, a5 = abs(w), abs(w5)
                    ew = abs(w5 - w4) / (atol + rtol * (a5 if a5 > a0 else a0))
                    # max(ev, ew), except that a NaN ew is kept: a NaN in
                    # either component must reject the step
                    err = ew if ew > ev or ew != ew else ev
                    if err <= 1.0:
                        # err <= 1 makes k7 finite, so (v5, w5) is exactly where k7 was taken
                        accepted += 1
                        r += h
                        v, w = v5, w5
                        k1v, k1w = k7v, k7w
                        # min(5.0, max(0.2, fac))
                        fac = 0.9 * (err + 1e-300) ** -0.2
                        if not fac > 0.2:
                            fac = 0.2
                        h_next = h * (fac if fac < 5.0 else 5.0)
                        break
                    rejected += 1
                    fac = 0.9 * err**-0.2
                    h *= fac if fac > 0.2 else 0.2  # max(0.2, fac)
                    if h < 1e-13:
                        raise StepFailure(f"step size underflow at r = {r:.6g}")
            collect(rt, v, w)
    finally:
        counts.accepted, counts.rejected, counts.rhs_evals = accepted, rejected, nfev


def ode_solve(f: SymmetricFunction, cone: ConeIndex | None = None, v0: float = 0.0,
              r_max: float = 5.0, cfg: SolveConfig | None = None) -> RadialSolveResult:
    """Shoot the radial equation f(lambda1, lambda2) = 1 from v(0) = v0.

    The center value fixes everything: v'(0) = 0 and v''(0) = -mu e^{v0}
    with the diagonal seed f(mu, mu) = 1, so that lambda(0) = (mu, mu).  A
    quadratic series carries the solution over r < r_series, after which
    each right-hand side evaluation solves for lambda1 inside the cone
    section.  Integration stops at the first node whose eigenvalues leave
    the open cone; that radius is reported as cone_exit.
    """
    if not abs(v0) <= VALUE_OVERFLOW:
        raise SeedError(f"|v0| = {abs(v0):g} exceeds {VALUE_OVERFLOW:g}")
    cfg = cfg or SolveConfig()
    cone = cone or f.cone
    mu = _diagonal_seed(f)
    c2 = -mu * math.exp(v0)
    solve = _lambda1_solver(f, cone, cfg)

    r_out = np.linspace(0.0, r_max, cfg.n_out)
    rows: list[tuple[float, float, float, float, float, float]] = []
    exit_radius: Optional[float] = None
    steps = StepCounts()
    exp = math.exp

    def record(rt: float, v: float, w: float) -> None:
        if rt == 0.0:
            lam1, lam2, residual = mu, mu, abs(f.fn(mu, mu) - 1.0)
        else:
            lam2 = exp(-v) * (-w / rt - 0.25 * w * w)
            lam1, residual = solve(lam2, rt)
            if cone_margin(lam1, lam2, cone) <= 0.0:
                raise _ConeExitSignal(rt)
        rows.append((rt, v, w, lam1, lam2, residual))

    def rhs(r: float, v: float, w: float) -> tuple[float, float]:
        if abs(v) > VALUE_OVERFLOW:
            raise StepFailure(f"v overflow at r = {r:.6g}")
        lam1, _ = solve(exp(-v) * (-w / r - 0.25 * w * w), r)
        return w, 0.25 * w * w - lam1 * exp(v)

    # the first node or stage radius whose eigenvalues leave the cone ends the solve
    rs = cfg.r_series
    main_nodes = r_out[r_out > rs]
    try:
        for rt in r_out[r_out <= rs]:
            record(rt, v0 + 0.5 * c2 * rt * rt, c2 * rt)
        if main_nodes.size:
            _integrate_to_nodes(rhs, rs, v0 + 0.5 * c2 * rs * rs, c2 * rs,
                                main_nodes.tolist(), cfg, record, steps)
    except _ConeExitSignal as sig:
        exit_radius = sig.radius

    data = np.array(rows) if rows else np.empty((0, 6))
    if data.shape[0] < 2:
        raise StepFailure("trajectory left the cone before two output nodes")
    profile = RadialProfile(data[:, 0], data[:, 1], dv=data[:, 2])
    return RadialSolveResult(profile, data[:, 3], data[:, 4], data[:, 5], mu, exit_radius,
                             steps)


# -- boundary-cone trajectories (supersolution sampling) ---------------------


@dataclass(frozen=True)
class BoundaryResult:
    profile: RadialProfile
    lambda1: np.ndarray
    lambda2: np.ndarray


def boundary_solve(cone: ConeIndex, r0: float, v0: float, w0: float,
                   r_max: float, n_out: int = 201,
                   cfg: SolveConfig | None = None) -> BoundaryResult:
    """Integrate the cone-boundary equation lambda2 = (p-2) lambda1.

    This samples radial supersolutions sitting exactly on the boundary ray
    through (1, -(2-p)); it needs p < 2 so the ray determines lambda1 from
    lambda2.  Starting data (r0 > 0, v0, w0) is free.
    """
    if cone.p >= 2.0:
        raise ValueError("boundary equation needs p < 2")
    if r0 <= 0.0:
        raise ValueError("r0 must be positive")
    s = cone.p - 2.0
    cfg = cfg or SolveConfig()

    def rhs(r: float, v: float, w: float) -> tuple[float, float]:
        # lambda1 e^v = (lambda2 / s) e^v loses its exponential exactly,
        # so the trajectory of (v, v') closes over (r, v') alone
        if not math.isfinite(w) or abs(w) > 1e12:
            raise StepFailure(f"boundary trajectory blow-up near r = {r:.6g}")
        return w, 0.25 * w * w - (-w / r - 0.25 * w * w) / s

    nodes = np.linspace(r0, r_max, n_out)
    rows = [(r0, float(v0), float(w0))]

    def collect(rt: float, v: float, w: float) -> None:
        rows.append((rt, v, w))

    _integrate_to_nodes(rhs, r0, float(v0), float(w0), nodes[1:].tolist(), cfg, collect,
                        StepCounts())
    data = np.array(rows)
    # eigenvalues directly from the boundary relation
    lam2 = np.exp(-data[:, 1]) * (-data[:, 2] / data[:, 0] - 0.25 * data[:, 2] ** 2)
    lam1 = lam2 / s
    profile = RadialProfile(data[:, 0], data[:, 1], dv=data[:, 2])
    return BoundaryResult(profile, lam1, lam2)


def g_k_diagnostics(r: np.ndarray, dv: np.ndarray, cone: ConeIndex) -> tuple[np.ndarray, np.ndarray]:
    """g = 1/v' + r/4 and k = r^{-1/(2-p)} g on the set E~ = { v' < -4/r }.

    Outside E~ the returned values are mathematically meaningless; callers
    mask with e_tilde_mask first.
    """
    g = 1.0 / dv + r / 4.0
    k = r ** (-1.0 / cone.boundary_slope) * g
    return g, k


def e_tilde_mask(r: np.ndarray, dv: np.ndarray) -> np.ndarray:
    return dv < -4.0 / r
