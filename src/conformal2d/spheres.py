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
from .errors import NUMERICAL_ERRORS, DomainError
from .fields import Bubble, PullbackField, ScalarField, pullback
from .geometry import Vec2
from .mobius import MobiusMap
from .radial import minimize_on_circles

SLACK_TOL_SCALE = 1e-9
RHO_MIN_FACTOR = 1.0 + 1e-3
# |min_slack| up to this is zero to roundoff: a bubble's slack at its
# critical radius reads about 1e-15.  A radius the search certifies as the
# touching radius reads no more, and bisection counts a radius that reads
# more than -SLACK_ROUNDOFF as below the touching radius.
SLACK_ROUNDOFF = 1e-12
_SQRT_TINY = math.sqrt(sys.float_info.min)
# the largest lam_max critical_lambda accepts: its grid reaches out to
# 10 lam_max, and there |y - x|^2 is half the largest double, which leaves
# room for the rounding of y - x
LAM_MAX_LIMIT = 0.1 * math.sqrt(0.5 * sys.float_info.max)


def ms_transform(u: ScalarField, x, lam: float) -> PullbackField:
    """The transform as a field with exact jets; its jet raises PoleError
    where |y - x| < 1e-14 lam, the sphere inversion's pole guard."""
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


def ms_value(u: ScalarField, x, lam: float, y) -> float | np.ndarray:
    """Value-only evaluation of u_{x,lam}(y), cheaper than a jet: a float at a
    point y, or an array of values at coordinate arrays y = (y1, y2)."""
    if np.ndim(y) < 2:  # a point
        yv = Vec2.of(y)
        return float(ms_value(u, x, lam, ([yv.x1], [yv.x2]))[0])
    y1, y2 = np.asarray(y, dtype=float)
    buf = np.empty((3,) + y1.shape)
    _kelvin(Vec2.of(x), lam, y1, y2, buf)
    return u.values(buf[0], buf[1]) - buf[2]


class SlackStats(NamedTuple):
    min_slack: float
    max_abs_slack: float
    admissible: bool
    # flat index i * n_angles + j of the sample (radius i, angle j) where
    # min_slack is attained; None where the slack is not finite
    argmin: Optional[int] = None


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
    bit for bit: the same log10 endpoints, step and power of ten.  Rows
    (1, k) of starts and stops give an (n, k) array, one such column each."""
    lo, hi = np.log10(start), np.log10(stop)
    radii = np.multiply(_ramp(n), (hi - lo) / max(n - 1, 1))
    np.add(radii, lo, out=radii)
    # slices keep n = 0 and n = 1 as geomspace has them: empty, and [start]
    radii[-1:] = hi
    np.power(10.0, radii, out=radii)
    radii[-1:] = stop
    radii[:1] = start
    return radii


def _slack(u: ScalarField, xv: Vec2, lam: float, radii: np.ndarray,
           cos: np.ndarray, sin: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """slack(y) = u(y) - u_{x,lam}(y) at y = x + radii (cos, sin), u(y), and a
    scratch grid of the same shape.

    The samples, their images, the log-Jacobian term and the scratch grid
    share one array that this call allocates, and the slack is formed in
    place in it.  u.values is handed views of that array and must not keep
    them; its result is read and never written, so a read-only or shared
    result is fine.
    """
    # rows: sample x1, image x1, sample x2, image x2, log-Jacobian, scratch
    buf = np.empty((6, radii.shape[0], cos.shape[0]))
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
    return slack, uy, scratch


def slack_stats(u: ScalarField, x, lam: float, n_radii: int = 48,
                n_angles: int = 64, r_out: float | None = None) -> SlackStats:
    """Statistics of slack(y) = u(y) - u_{x,lam}(y) over |y - x| >= lam.

    Radii are log-spaced from just outside the fixed sphere to
    R_out = max(100, 10 lam); the predicate tolerance absorbs jet roundoff
    through a 1e-9 (1 + |u|) allowance.  The n_radii x n_angles samples y
    and their images x + lam^2 (y-x)/|y-x|^2 go to u in one values() call,
    so an exception from either half propagates.  Non-finite slack anywhere,
    in either half, fails closed: the radius is inadmissible and min_slack
    is NaN.  The slack and its bounds are formed in place in one buffer
    (see _slack).
    """
    if not lam > 0.0:
        raise ValueError("lam must be positive")
    xv = Vec2.of(x)
    if r_out is None:
        r_out = max(100.0, 10.0 * lam)
    slack, uy, scratch = _slack(u, xv, lam, _log_radii(RHO_MIN_FACTOR * lam, r_out, n_radii),
                                *_stencil(n_angles))
    max_abs = float(np.abs(slack, out=scratch).max())
    if not math.isfinite(max_abs):  # NaN and +-inf in slack both reach it
        return SlackStats(math.nan, max_abs, False)
    # the allowance -1e-9 (1 + |uy|)
    np.abs(uy, out=scratch)
    np.add(scratch, 1.0, out=scratch)
    np.multiply(scratch, -SLACK_TOL_SCALE, out=scratch)
    argmin = int(slack.argmin())
    return SlackStats(float(slack.flat[argmin]), max_abs, bool((slack >= scratch).all()),
                      argmin)


def _sample_slack(u: ScalarField, xv: Vec2, lam: float | np.ndarray, n_radii: int,
                  n_angles: int, index: int) -> float | np.ndarray:
    """The slack that slack_stats(u, xv, lam, n_radii, n_angles) finds at flat
    index `index`, by the same radii, stencil and operations on one sample.

    lam may be a 1-d array of radii: then the result is the array of those
    slacks, each entry bit for bit the float that its radius alone gives."""
    i, j = divmod(index, n_angles)
    batch = np.ndim(lam) > 0
    # a batch takes its grid ends as a row, and its radii to _slack as a column
    ends = np.reshape(lam, (1, -1)) if batch else lam
    radii = _log_radii(RHO_MIN_FACTOR * ends, np.maximum(100.0, 10.0 * ends), n_radii)
    cos, sin = _stencil(n_angles)
    slack = _slack(u, xv, ends.T if batch else lam, radii[i, :, None],
                   cos[j:j + 1], sin[j:j + 1])[0][:, 0]
    return slack if batch else float(slack[0])


def _probe_bracket(u: ScalarField, xv: Vec2, lam_max: float, rho_floor: float,
                   n_radii: int, n_angles: int, index: int) -> Optional[tuple]:
    """(lo, hi, slacks): the sample at flat index `index` evaluated, in one
    batch, at the radii lam_max / 2^k that halving can reach (k <= 60, the
    nearest samples above rho_floor); lo is the first radius where its slack
    is at least -SLACK_ROUNDOFF, zero to roundoff as in bisection, and
    hi = 2 lo.  slacks maps each radius to its slack.
    None where the batch raises one of NUMERICAL_ERRORS or holds a
    non-finite slack, or where no slack after lam_max's reaches
    -SLACK_ROUNDOFF."""
    lams = lam_max * 0.5 ** np.arange(61.0)
    lams = lams[RHO_MIN_FACTOR * lams > rho_floor]
    try:
        # only the grids decide, so the probe's own warnings are noise
        with np.errstate(all="ignore"):
            slacks = _sample_slack(u, xv, lams, n_radii, n_angles, index)
    except NUMERICAL_ERRORS:
        return None  # the fallback's grids raise what they reach
    stops = np.flatnonzero(slacks >= -SLACK_ROUNDOFF)
    if not np.isfinite(slacks).all() or not stops.size or stops[0] == 0:
        return None
    k = stops[0]
    return float(lams[k]), float(lams[k - 1]), dict(zip(lams.tolist(), slacks.tolist()))


@dataclass(frozen=True)
class MovingSphereReport:
    """Result of the critical-radius search at a base point.

    lambda_bar is None exactly when unbounded is set (the admissibility
    predicate holds at lam_max; min_slack is then lam_max's).  Otherwise
    bracket = (lo, hi) has lo <= lambda_bar <= hi and hi - lo <= tol lo, or
    adjacent doubles.  lo is admissible and min_slack is its trace entry;
    a certified search has lo = lambda_bar.  hi is inadmissible, or, once
    tol is below the 1e-9 (1 + |u|) slack allowance, reads min_slack below
    -SLACK_ROUNDOFF.  equality_residual is the sup of |slack| at lambda_bar.
    trace holds (lam, admissible, min_slack, max_abs_slack) for each
    distinct radius the search evaluated, in evaluation order.
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
    """lambda_bar(x) = sup of admissible sphere radii, and its touching radius.

    A radius lam is admissible when u_{x,lam} <= u outside the sphere at
    every sample.  If lam_max itself is admissible the report carries the
    unbounded flag.

    For a bubble every sample's slack vanishes at lambda_bar.  So the search
    takes the sample where lam_max's slack is least and evaluates it, in one
    batch, at the radii lam_max / 2^k that halving can reach (_probe_bracket).
    The first radius lo where that slack is at least -SLACK_ROUNDOFF, and
    hi = 2 lo, bracket a root: brentq finds lam* of that one sample's slack
    on [lo, hi] (lam* = lo where the slack is not positive at lo: lo can be
    lambda_bar).  Two full grids certify it: lam* must be admissible with
    |min_slack| <= SLACK_ROUNDOFF, and lam* (1 + tol/2), or hi if that is
    less, inadmissible.  Then lambda_bar = lam* and the bracket is lam* and
    that radius: three grids in all, with lam_max's.

    Otherwise (a failed certificate, as for a non-bubble touching at another
    sample or a tol below about 1e-8, where the 1e-9 (1 + |u|) allowance
    leaves lam* (1 + tol/2) admissible; or a probe that raises a numerical
    error, reads a non-finite slack or no root) the search is the full-grid
    one.  lam_max is halved until a radius lo is admissible, at most 60
    times, and stops sooner where the nearest samples would round onto x;
    then it raises DomainError.  It bisects [lo, 2 lo]: an admissible radius
    with min_slack >= -SLACK_ROUNDOFF moves lo, any other moves hi, down to
    relative width tol or adjacent doubles.  Then brentq on min_slack across
    (lo, hi) polishes the touching radius where min_slack changes sign
    there; else lambda_bar = lo.  The probe decides nothing here: the
    fallback's report, or its error, is that of the full-grid search alone.

    Each distinct radius costs one slack_stats call per search: brentq's
    bracket ends and the polished radius are read back.  lam_max must be
    finite, at most LAM_MAX_LIMIT and large enough that the nearest samples
    stay off x, and tol finite and positive (ValueError otherwise).
    """
    if not (math.isfinite(lam_max) and lam_max > 0.0):
        raise ValueError("lam_max must be finite and positive")
    if lam_max > LAM_MAX_LIMIT:
        raise ValueError(f"lam_max must be at most {LAM_MAX_LIMIT:.6g}, where |y - x|^2 "
                         "on the sample grid stays finite")
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError("tol must be finite and positive")
    xv = Vec2.of(x)
    # a sample radius above rho_floor moves each sample off x, and |y - x|^2
    # stays normal
    rho_floor = max(math.ulp(xv.x1), math.ulp(xv.x2), _SQRT_TINY)
    if RHO_MIN_FACTOR * lam_max <= rho_floor:
        raise ValueError(f"lam_max must exceed {rho_floor / RHO_MIN_FACTOR:.6g}, below "
                         "which the nearest samples round onto x")
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

    # the sample where lam_max's slack is least, probed at every halving
    # radius in one batch, brackets the root for three grids in all
    probe = None if top.argmin is None else _probe_bracket(
        u, xv, lam_max, rho_floor, n_radii, n_angles, top.argmin)
    if probe:
        lo, hi, slacks = probe

        def sample(lam: float) -> float:
            if lam not in slacks:
                slacks[lam] = _sample_slack(u, xv, lam, n_radii, n_angles, top.argmin)
            return slacks[lam]

        root = lo
        if slacks[lo] > 0.0 > slacks[hi]:
            root = float(brentq(sample, lo, hi, xtol=1e-14 * lo))
        above = min(root * (1.0 + 0.5 * tol), hi)
        at = stats(root)
        if at.admissible and abs(at.min_slack) <= SLACK_ROUNDOFF \
                and not stats(above).admissible:
            return report(root, False, at.min_slack, at.max_abs_slack, (root, above))

    lo, halvings = lam_max, 0
    while not stats(lo).admissible:
        if halvings == 60 or RHO_MIN_FACTOR * 0.5 * lo <= rho_floor:
            raise DomainError("no admissible sphere radius found above "
                              f"lam_max / 2^{halvings}")
        hi = lo
        lo *= 0.5
        halvings += 1

    while hi - lo > tol * lo:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break  # lo and hi are adjacent doubles
        st = stats(mid)
        if st.admissible and st.min_slack >= -SLACK_ROUNDOFF:
            lo = mid
        else:
            hi = mid
    lam_bar = lo
    if stats(lo).min_slack > 0.0 > stats(hi).min_slack:
        lam_bar = float(brentq(lambda lam: stats(lam).min_slack, lo, hi, xtol=1e-14 * lo))
    return report(lam_bar, False, stats(lo).min_slack, stats(lam_bar).max_abs_slack, (lo, hi))


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
