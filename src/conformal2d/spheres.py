"""Moving-spheres machinery: the Kelvin-type transform u_{x,lam}, the
critical radius lambda_bar(x), and bubble detection by one linear solve.

u_{x,lam}(y) = u(x + lam^2 (y-x)/|y-x|^2) - 4 ln(|y-x|/lam) coincides with
the conformal pullback through the sphere inversion, since that map's
log-Jacobian is exactly -4 ln(|y-x|/lam).
"""
from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from ._scipy import brentq
from .errors import DomainError
from .fields import Bubble, PullbackField, ScalarField, pullback
from .geometry import Vec2
from .mobius import MobiusMap
from .radial import minimize_on_circles

SLACK_TOL_SCALE = 1e-9
RHO_MIN_FACTOR = 1.0 + 1e-3
# |min_slack| up to this is zero to roundoff: a bubble's slack at its
# critical radius reads about 1e-15.  Below lambda_bar, min_slack is small
# (about 1e-3 of its slope above), so a polish bracket end this close to
# zero would steer brentq's interpolation by roundoff alone.
SLACK_ROUNDOFF = 1e-12
_SQRT_TINY = math.sqrt(sys.float_info.min)


def ms_transform(u: ScalarField, x, lam: float) -> PullbackField:
    """The transform as a field with exact jets; excluded point {x}."""
    if lam <= 0.0:
        raise ValueError("lam must be positive")
    return pullback(u, MobiusMap.sphere_inversion(Vec2.of(x), lam))


def _kelvin(x: Vec2, lam: float, y1: np.ndarray, y2: np.ndarray,
            out: Sequence[np.ndarray]) -> None:
    """Write the images x + lam^2 (y-x)/|y-x|^2 into out[0], out[1] and the
    log-Jacobian term 2 ln(|y-x|^2 / lam^2) of u_{x,lam} into out[2].

    The intermediates are temporaries: on a 48 x 64 grid, forming them in
    place in the output rows measured no faster, and on one point slower."""
    d1, d2 = y1 - x.x1, y2 - x.x2
    rho2 = d1 * d1 + d2 * d2
    if (rho2 == 0.0).any():
        raise DomainError("transform undefined at its own center")
    scale = lam * lam / rho2
    np.add(x.x1, scale * d1, out=out[0])
    np.add(x.x2, scale * d2, out=out[1])
    np.multiply(2.0, np.log(rho2 / (lam * lam)), out=out[2])


def ms_value(u: ScalarField, x, lam: float, y) -> float:
    """Value-only evaluation of u_{x,lam}(y), cheaper than a jet."""
    yv, buf = Vec2.of(y), np.empty((3, 1))
    _kelvin(Vec2.of(x), lam, np.array([yv.x1]), np.array([yv.x2]), buf)
    return float(u.values(buf[0], buf[1])[0] - buf[2, 0])


class SlackStats(NamedTuple):
    min_slack: float
    max_abs_slack: float
    admissible: bool


@functools.lru_cache(maxsize=8)
def _stencil(n_angles: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only cos and sin of n_angles equally spaced directions."""
    th = np.linspace(0.0, 2.0 * math.pi, n_angles, endpoint=False)
    cos, sin = np.cos(th), np.sin(th)
    cos.flags.writeable = sin.flags.writeable = False
    return cos, sin


@functools.lru_cache(maxsize=8)
def _ramp(n: int) -> np.ndarray:
    """Read-only 0.0, 1.0, ..., n - 1 as an (n, 1) column."""
    ramp = np.arange(float(n))[:, None]
    ramp.flags.writeable = False
    return ramp


def _log_radii(start: float, stop: float, n: int) -> np.ndarray:
    """np.geomspace(start, stop, n)[:, None] for positive start and stop,
    bit for bit: the same log10 endpoints, step and power of ten."""
    lo, hi = np.log10(start), np.log10(stop)
    radii = np.multiply(_ramp(n), (hi - lo) / max(n - 1, 1))
    np.add(radii, lo, out=radii)
    # slices keep n = 0 and n = 1 as geomspace has them: empty, and [start]
    radii[-1:] = hi
    np.power(10.0, radii, out=radii)
    radii[-1:] = stop
    radii[:1] = start
    return radii


def slack_stats(u: ScalarField, x, lam: float, n_radii: int = 48,
                n_angles: int = 64, r_out: float | None = None) -> SlackStats:
    """Statistics of slack(y) = u(y) - u_{x,lam}(y) over |y - x| >= lam.

    Radii are log-spaced from just outside the fixed sphere to
    R_out = max(100, 10 lam); the predicate tolerance absorbs jet roundoff
    through a 1e-9 (1 + |u|) allowance.  The n_radii x n_angles samples y
    and their images x + lam^2 (y-x)/|y-x|^2 go to u in one values() call,
    so an exception from either half propagates.  Non-finite slack anywhere,
    in either half, fails closed: the radius is inadmissible and min_slack
    is NaN.

    Buffers and ownership: the samples, the images, the log-Jacobian term
    and one scratch grid share one array that this call allocates, and the
    slack and its bounds are formed in place in it.  u.values is handed
    views of that array and must not keep them; its result is read and never
    written, so a read-only or shared result is fine.
    """
    if not lam > 0.0:
        raise ValueError("lam must be positive")
    xv = Vec2.of(x)
    if r_out is None:
        r_out = max(100.0, 10.0 * lam)
    radii = _log_radii(RHO_MIN_FACTOR * lam, r_out, n_radii)
    cos, sin = _stencil(n_angles)
    # rows: sample x1, image x1, sample x2, image x2, log-Jacobian, scratch
    buf = np.empty((6, n_radii, n_angles))
    y1, img1, y2, img2, slack, scratch = buf
    np.multiply(radii, cos, out=y1)
    np.add(y1, xv.x1, out=y1)
    np.multiply(radii, sin, out=y2)
    np.add(y2, xv.x2, out=y2)
    _kelvin(xv, lam, y1, y2, (img1, img2, slack))
    uy, u_img = u.values(buf[0:2], buf[2:4])
    # slack = uy - (u_img - jac), formed in the log-Jacobian row
    np.subtract(u_img, slack, out=slack)
    np.subtract(uy, slack, out=slack)
    max_abs = float(np.abs(slack, out=scratch).max())
    finite = math.isfinite(max_abs)  # NaN and +-inf in slack both reach it
    if finite:
        # the allowance -1e-9 (1 + |uy|)
        np.abs(uy, out=scratch)
        np.add(scratch, 1.0, out=scratch)
        np.multiply(scratch, -SLACK_TOL_SCALE, out=scratch)
    admissible = finite and bool((slack >= scratch).all())
    min_slack = float(slack.min()) if finite else math.nan
    return SlackStats(min_slack, max_abs, admissible)


@dataclass(frozen=True)
class MovingSphereReport:
    """Result of the critical-radius search at a base point.

    lambda_bar is None exactly when unbounded is set (the admissibility
    predicate holds at lam_max).  equality_residual is the sup of |slack|
    at the refined touching radius; bracket records the certified bisection
    interval.  trace holds (lam, admissible, min_slack, max_abs_slack) for
    each distinct radius the search evaluated, in evaluation order.
    """

    x: Vec2
    lambda_bar: Optional[float]
    unbounded: bool
    min_slack: float
    equality_residual: Optional[float]
    bracket: Optional[tuple[float, float]]
    trace: tuple = ()

    def to_dict(self) -> dict:
        return {
            "x": [self.x.x1, self.x.x2],
            "lambda_bar": self.lambda_bar,
            "unbounded": self.unbounded,
            "min_slack": self.min_slack,
            "equality_residual": self.equality_residual,
            "bracket": list(self.bracket) if self.bracket else None,
            "slack_evaluations": len(self.trace),
        }


def _polish_bracket(memo: dict) -> Optional[tuple[float, float]]:
    """The tightest neighbouring radii a < b with min_slack(a) > 0 >
    min_slack(b), among the radii evaluated whose min_slack is clear of
    roundoff (beyond SLACK_ROUNDOFF); None if there is none.

    When lo's min_slack is positive this is the bisection bracket (lo, hi).
    A bracket narrower than the 1e-9 (1 + |u|) allowance leaves lo admissible
    with a negative min_slack, and the sign change then lies below lo.
    """
    lams = [lam for lam in sorted(memo) if not abs(memo[lam].min_slack) <= SLACK_ROUNDOFF]
    pairs = [(a, b) for a, b in zip(lams, lams[1:])
             if memo[a].min_slack > 0.0 > memo[b].min_slack]
    return min(pairs, key=lambda ab: ab[1] - ab[0], default=None)


def critical_lambda(u: ScalarField, x, lam_max: float, tol: float = 1e-3,
                    n_radii: int = 48, n_angles: int = 64) -> MovingSphereReport:
    """Bisection for lambda_bar(x) = sup of admissible sphere radii.

    A radius lam is admissible when u_{x,lam} <= u outside the sphere at
    every sample.  If lam_max itself is admissible the report carries the
    unbounded flag.  Otherwise the bisection bracket is tightened to
    relative width tol, then the touching radius is polished by root-finding
    the (signed, smooth-through-zero) minimum slack across the tightest sign
    change among the radii evaluated (the bisection bracket, unless that is
    narrower than the slack allowance); the equality residual is the
    sup-norm of the slack at the polished radius and lands far below the
    bisection tolerance when u is a bubble.

    Each distinct radius costs one slack_stats call per search: brentq's
    bracket ends and the polished radius are read back, and the bisection
    also stops when lo and hi are adjacent doubles.  The search for an
    admissible radius halves lam_max at most 60 times, and stops sooner
    where the nearest samples would round onto x; then it raises
    DomainError.  lam_max and tol must be finite and positive (ValueError
    otherwise).
    """
    if not (math.isfinite(lam_max) and lam_max > 0.0):
        raise ValueError("lam_max must be finite and positive")
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError("tol must be finite and positive")
    xv = Vec2.of(x)
    memo: dict[float, SlackStats] = {}

    def stats(lam: float) -> SlackStats:
        if lam not in memo:
            memo[lam] = slack_stats(u, xv, lam, n_radii=n_radii, n_angles=n_angles)
        return memo[lam]

    def report(*fields) -> MovingSphereReport:
        trace = tuple((float(lam), st.admissible, st.min_slack, st.max_abs_slack)
                      for lam, st in memo.items())
        return MovingSphereReport(xv, *fields, trace=trace)

    top = stats(lam_max)
    if top.admissible:
        return report(None, True, top.min_slack, None, None)

    lo, lo_stats, halvings = lam_max, top, 0
    # a sample radius above rho_floor moves each sample off x, and |y - x|^2
    # stays normal
    rho_floor = max(math.ulp(xv.x1), math.ulp(xv.x2), _SQRT_TINY)
    while not lo_stats.admissible:
        if halvings == 60 or RHO_MIN_FACTOR * 0.5 * lo <= rho_floor:
            raise DomainError("no admissible sphere radius found above "
                              f"lam_max / 2^{halvings}")
        hi = lo
        lo *= 0.5
        lo_stats = stats(lo)
        halvings += 1

    while hi - lo > tol * lo:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break  # lo and hi are adjacent doubles
        st = stats(mid)
        if st.admissible:
            lo, lo_stats = mid, st
        else:
            hi = mid

    lam_bar = lo
    # a min_slack at lo that is zero to roundoff, or below zero by no more,
    # makes lo the touching radius already
    polish = None if -SLACK_ROUNDOFF <= lo_stats.min_slack <= 0.0 else _polish_bracket(memo)
    if polish is not None:
        a, b = polish
        lam_bar = float(brentq(lambda lam: stats(lam).min_slack, a, b, xtol=1e-14 * a))
    equality_residual = stats(lam_bar).max_abs_slack
    return report(lam_bar, False, lo_stats.min_slack, equality_residual, (lo, hi))


@dataclass(frozen=True)
class BubbleFit:
    """Bubble fitted to field samples; center is None where none is fitted."""

    a: float
    b: float
    center: Optional[Vec2]
    residual: float
    is_bubble: bool

    def field(self) -> Bubble:
        return Bubble(self.a, self.b, self.center)

    def to_dict(self) -> dict:
        return {
            "a": self.a,
            "b": self.b,
            "center": None if self.center is None else [self.center.x1, self.center.x2],
            "residual": self.residual,
            "is_bubble": self.is_bubble,
        }


def _q_design(u: ScalarField, samples: Sequence, mean=None) -> tuple:
    """q = e^{-u/2} at the samples (NaN unless a finite normal float), the
    columns |d|^2, d1, d2, 1 in d = x - mean, and mean (default: theirs)."""
    x1, x2 = np.array([(p.x1, p.x2) for p in map(Vec2.of, samples)]).T
    with np.errstate(over="ignore", under="ignore"):
        q = np.exp(-0.5 * u.values(x1, x2))
    q[~((q >= sys.float_info.min) & (q < math.inf))] = math.nan
    mean = np.array([x1.mean(), x2.mean()]) if mean is None else mean
    d1, d2 = x1 - mean[0], x2 - mean[1]
    return q, np.stack([d1 * d1 + d2 * d2, d1, d2, np.ones_like(d1)], axis=1), mean


def bubble_fit(u: ScalarField, samples: Sequence, validation: Sequence | None = None,
               threshold: float = 1e-6) -> BubbleFit:
    """Fit u(x) = 2 ln(8a) - 2 ln(8|x - c|^2 + b) by one linear solve.

    A bubble's q = e^{-u/2} = (8|x - c|^2 + b) / (8a) is the quadratic
    alpha |d|^2 + beta . d + gamma in d = x - mean(samples).  Rows scaled by
    1/q make the least-squares misfit ((q_hat - q) / q)^2, half the misfit in
    u to first order.  Then a = 1/alpha, c - mean = -beta / (2 alpha) and
    b = 8 a gamma - 8 |c - mean|^2, which the centring keeps well conditioned.
    residual is the largest 2 |q_hat / q - 1| over the validation set (the
    fit samples by default), |u - u_hat| to first order; is_bubble needs
    alpha > 0, b > 0 and residual <= threshold.  Fewer than 4 samples, or
    samples on one circle or line, raise ValueError.  A non-finite u, or a q
    that over- or underflows, gives a NaN residual; in the fit samples, NaN a, b.
    """
    if len(samples) < 4:
        raise ValueError("need at least 4 samples")
    q, design, mean = _q_design(u, samples)
    if np.linalg.matrix_rank(design) < 4:
        raise ValueError("samples on one circle or line do not determine a bubble")
    if np.isnan(q).any():
        return BubbleFit(math.nan, math.nan, None, math.nan, False)
    # QR, then one refinement step, which takes the solve's roundoff out of a, b, c
    weighted, ones = design / q[:, None], np.ones_like(q)
    qmat, rmat = np.linalg.qr(weighted)
    coef = np.linalg.solve(rmat, qmat.T @ ones)
    coef += np.linalg.solve(rmat, qmat.T @ (ones - weighted @ coef))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a = 1.0 / coef[0]
        offset = -0.5 * coef[1:3] / coef[0]  # c - mean
        b = 8.0 * a * coef[3] - 8.0 * (offset @ offset)
        c = mean + offset
    if validation is not None:
        q, design, _ = _q_design(u, validation, mean)
    residual = float(np.max(2.0 * np.abs(design @ coef / q - 1.0)))
    return BubbleFit(float(a), float(b), Vec2.of(c) if np.isfinite(c).all() else None,
                     residual, bool(coef[0] > 0.0 and b > 0.0 and residual <= threshold))


class AlphaEstimate(NamedTuple):
    alpha: float
    drift: float
    radii: tuple


def estimate_alpha(u: ScalarField, center=(0.0, 0.0), r_lo: float = 10.0,
                   r_hi: float = 1e4, n: int = 16) -> AlphaEstimate:
    """Extrapolated diagnostic for alpha = liminf of (inf_circle u + 4 ln r).

    Fits w(r) = alpha - c / r^2 on log-spaced large radii.  This is a
    finite-grid estimate only; it cannot certify alpha = +infinity, and
    drift (the change of w over the last decade) is reported so callers can
    judge convergence.
    """
    radii = np.geomspace(r_lo, r_hi, n)
    prof = minimize_on_circles(u, Vec2.of(center), radii)
    w = prof.v + 4.0 * np.log(prof.r)
    basis = np.stack([np.ones_like(radii), radii**-2.0], axis=1)
    coef, *_ = np.linalg.lstsq(basis, w, rcond=None)
    alpha = float(coef[0])
    tail = radii >= radii[-1] / 10.0
    drift = float(w[tail].max() - w[tail].min())
    return AlphaEstimate(alpha, drift, tuple(float(t) for t in radii))
