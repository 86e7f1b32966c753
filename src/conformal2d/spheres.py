"""Moving-spheres machinery: the Kelvin-type transform u_{x,lam}, the
critical radius lambda_bar(x), and bubble detection by least squares.

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

from ._scipy import brentq, least_squares
from .errors import DomainError, FitDiverged
from .fields import Bubble, PullbackField, ScalarField, pullback
from .geometry import Vec2
from .mobius import MobiusMap
from .radial import minimize_on_circles

SLACK_TOL_SCALE = 1e-9
RHO_MIN_FACTOR = 1.0 + 1e-3
_SQRT_TINY = math.sqrt(sys.float_info.min)


def ms_transform(u: ScalarField, x, lam: float) -> PullbackField:
    """The transform as a field with exact jets; excluded point {x}."""
    if lam <= 0.0:
        raise ValueError("lam must be positive")
    return pullback(u, MobiusMap.sphere_inversion(Vec2.of(x), lam))


def _kelvin(x: Vec2, lam: float, y1: np.ndarray, y2: np.ndarray,
            out: Sequence[np.ndarray]) -> np.ndarray:
    """Write the images x + lam^2 (y-x)/|y-x|^2 into out[0], out[1] and
    return the log-Jacobian term 2 ln(|y-x|^2 / lam^2) of u_{x,lam}."""
    d1, d2 = y1 - x.x1, y2 - x.x2
    rho2 = d1 * d1 + d2 * d2
    if (rho2 == 0.0).any():
        raise DomainError("transform undefined at its own center")
    scale = lam * lam / rho2
    np.add(x.x1, scale * d1, out=out[0])
    np.add(x.x2, scale * d2, out=out[1])
    return 2.0 * np.log(rho2 / (lam * lam))


def ms_value(u: ScalarField, x, lam: float, y) -> float:
    """Value-only evaluation of u_{x,lam}(y), cheaper than a jet."""
    yv, img = Vec2.of(y), np.empty((2, 1))
    jac = _kelvin(Vec2.of(x), lam, np.array([yv.x1]), np.array([yv.x2]), img)
    return float(u.values(img[0], img[1])[0] - jac[0])


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
    """
    xv = Vec2.of(x)
    if r_out is None:
        r_out = max(100.0, 10.0 * lam)
    radii = np.geomspace(RHO_MIN_FACTOR * lam, r_out, n_radii)[:, None]
    cos, sin = _stencil(n_angles)
    # p1[0], p2[0]: the samples y; p1[1], p2[1]: their images
    p1, p2 = np.empty((2, 2, n_radii, n_angles))
    np.add(xv.x1, radii * cos, out=p1[0])
    np.add(xv.x2, radii * sin, out=p2[0])
    jac = _kelvin(xv, lam, p1[0], p2[0], (p1[1], p2[1]))
    uy, u_img = u.values(p1, p2)
    slack = uy - (u_img - jac)
    max_abs = float(np.abs(slack).max())
    finite = math.isfinite(max_abs)  # NaN and +-inf in slack both reach it
    admissible = finite and bool((slack >= -SLACK_TOL_SCALE * (1.0 + np.abs(uy))).all())
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


def critical_lambda(u: ScalarField, x, lam_max: float, tol: float = 1e-3,
                    n_radii: int = 48, n_angles: int = 64) -> MovingSphereReport:
    """Bisection for lambda_bar(x) = sup of admissible sphere radii.

    A radius lam is admissible when u_{x,lam} <= u outside the sphere at
    every sample.  If lam_max itself is admissible the report carries the
    unbounded flag.  Otherwise the bisection bracket is tightened to
    relative width tol, then the touching radius is polished by root-finding
    the (signed, smooth-through-zero) minimum slack across the bracket; the
    equality residual is the sup-norm of the slack at the polished radius
    and lands far below the bisection tolerance when u is a bubble.

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
        hi, hi_stats = lo, lo_stats
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
            hi, hi_stats = mid, st

    lam_bar = lo
    if lo_stats.min_slack > 0.0 > hi_stats.min_slack:
        lam_bar = float(brentq(lambda lam: stats(lam).min_slack, lo, hi,
                               xtol=1e-14 * lo))
    equality_residual = stats(lam_bar).max_abs_slack
    return report(lam_bar, False, lo_stats.min_slack, equality_residual, (lo, hi))


@dataclass(frozen=True)
class BubbleFit:
    """Least-squares fit of the two-parameter bubble family to field samples."""

    a: float
    b: float
    center: Vec2
    residual: float
    is_bubble: bool

    def field(self) -> Bubble:
        return Bubble(self.a, self.b, self.center)

    def to_dict(self) -> dict:
        return {
            "a": self.a,
            "b": self.b,
            "center": [self.center.x1, self.center.x2],
            "residual": self.residual,
            "is_bubble": self.is_bubble,
        }


def _coords(samples: Sequence) -> tuple[np.ndarray, np.ndarray]:
    pts = [Vec2.of(s) for s in samples]
    return np.array([p.x1 for p in pts]), np.array([p.x2 for p in pts])


def bubble_fit(u: ScalarField, samples: Sequence, validation: Sequence | None = None,
               threshold: float = 1e-6) -> BubbleFit:
    """Fit u(x) = 2 ln(8a) - 2 ln(8|x - c|^2 + b) over (ln a, ln b, c).

    Positivity of a and b is enforced by the log parametrization; the
    Levenberg-Marquardt driver supplies the damping.  The residual is the
    sup-norm over the validation set (the fit samples by default).
    """
    px, py = _coords(samples)
    if px.size < 4:
        raise ValueError("need at least 4 samples")
    vals = u.values(px, py)

    jmax = int(np.argmax(vals))
    theta0 = np.array([0.5 * vals[jmax], math.log(8.0), px[jmax], py[jmax]])

    def model(theta: np.ndarray) -> np.ndarray:
        ln_a, ln_b, cx, cy = theta
        s = 8.0 * ((px - cx) ** 2 + (py - cy) ** 2) + math.exp(ln_b)
        return 2.0 * (math.log(8.0) + ln_a) - 2.0 * np.log(s)

    def resid(theta: np.ndarray) -> np.ndarray:
        return model(theta) - vals

    initial_sup = float(np.abs(resid(theta0)).max())
    sol = least_squares(resid, theta0, method="lm", xtol=1e-15, ftol=1e-15, gtol=1e-15)
    a, b = math.exp(sol.x[0]), math.exp(sol.x[1])
    center = Vec2(float(sol.x[2]), float(sol.x[3]))

    fit = Bubble(a, b, center)
    qx, qy = (px, py) if validation is None else _coords(validation)
    residual = float(np.abs(u.values(qx, qy) - fit.values(qx, qy)).max())
    if residual > 1e3 * max(initial_sup, 1e-12):
        raise FitDiverged(f"fit residual {residual:.3e} vs initial {initial_sup:.3e}")
    return BubbleFit(a, b, center, residual, residual <= threshold)


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
