"""Covariance and invariance checks for the conformal operator.

Under a fractional linear map psi the operator transforms by orthogonal
conjugation, A(u_psi)(x) = O^T A(u)(psi(x)) O with O the orthogonal part of
the Jacobian; equivalently e^{u_psi} A(u_psi) = e^{u o psi} J^T (A(u) o psi) J.
The trace -e^{-u} Lap u is covariant under every conformal map, Moebius or
not, while the full matrix law fails beyond Moebius maps; the quadratic map
counterexample quantifies the failure.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import Conformal2dError, ConjugatingUnsupported
from .fields import QuadraticField, ScalarField, pullback_jets
from .geometry import Vec2, Sym2, conj_orth, eig2
from .mobius import AnalyticMap, MobiusMap, PolynomialMap
from .ops import a_from_jet, b_from_jet
from .report import CheckReport


def annulus_points(rng: np.random.Generator, n: int, r_in: float = 0.5,
                   r_out: float = 3.0) -> list[Vec2]:
    radii = rng.uniform(r_in, r_out, n)
    angles = rng.uniform(0.0, 2.0 * math.pi, n)
    return [Vec2(r * math.cos(t), r * math.sin(t)) for r, t in zip(radii, angles)]


def valid_points(rng: np.random.Generator, n: int, usable, r_in: float = 0.5,
                 r_out: float = 3.0, max_tries: int = 200) -> list[Vec2]:
    """Draw n seeded annulus points for which ``usable(p)`` holds.

    Sampling failures (excluded points, poles, overflow) are absorbed by
    resampling; determinism for a fixed generator state is preserved since
    the rejection sequence is itself a pure function of the stream.
    """
    out: list[Vec2] = []
    tries = 0
    while len(out) < n:
        tries += 1
        if tries > max_tries * n:
            raise Conformal2dError("could not sample enough admissible points")
        p = annulus_points(rng, 1, r_in, r_out)[0]
        try:
            if usable(p):
                out.append(p)
        except (Conformal2dError, OverflowError):
            continue
    return out


def random_mobius(rng: np.random.Generator, conjugating: bool | None = None,
                  pole_margin: float = 0.1) -> MobiusMap:
    """Seeded random fractional linear map with a well-conditioned matrix.

    pole_margin only rejects maps whose pole sits inside the disc of that
    radius about the origin, keeping the common sampling annulus usable.
    """
    while True:
        a, b, c, d = (complex(rng.normal(), rng.normal()) for _ in range(4))
        if abs(a * d - b * c) < 0.1:
            continue
        flag = bool(rng.integers(0, 2)) if conjugating is None else conjugating
        m = MobiusMap(a, b, c, d, flag)
        if m.pole is not None and abs(m.pole) < pole_margin:
            continue
        return m


@dataclass(frozen=True)
class CovarianceErrors:
    """Per-point errors of the three equivalent covariance statements."""

    matrix: float
    tensor: float
    eigen: float


def covariance_errors_at(u: ScalarField, m: MobiusMap, x: Vec2) -> CovarianceErrors:
    mj, base_jet, v_jet = pullback_jets(u, m, x)
    a_v = a_from_jet(v_jet)
    jd = m.jacobian_of(mj)
    a_u = a_from_jet(base_jet)

    matrix_err = (a_v - conj_orth(a_u, jd.orthogonal)).max_abs()

    lhs_t = math.exp(v_jet.value) * a_v.as_array()
    rhs_t = math.exp(base_jet.value) * (jd.matrix.T @ a_u.as_array() @ jd.matrix)
    tensor_err = float(np.abs(lhs_t - rhs_t).max())

    ev, eu = eig2(a_v), eig2(a_u)
    eigen_err = max(abs(ev.lambda1 - eu.lambda1), abs(ev.lambda2 - eu.lambda2))
    return CovarianceErrors(matrix_err, tensor_err, eigen_err)


def check_a_covariance(u: ScalarField, m: MobiusMap, pts, tol: float) -> dict[str, CheckReport]:
    """Matrix, tensor, and spectral forms of the covariance law on pts."""
    if not isinstance(m, MobiusMap):
        raise TypeError("covariance law holds for fractional linear maps only")
    rows = [(p, covariance_errors_at(u, m, p)) for p in pts]
    out = {}
    for name in ("matrix", "tensor", "eigen"):
        labeled = [(f"({p.x1:.3g},{p.x2:.3g})", getattr(e, name)) for p, e in rows]
        out[name] = CheckReport.from_labeled(f"a-covariance-{name}", labeled, tol)
    return out


def trace_residual_at(u: ScalarField, psi: AnalyticMap, x: Vec2) -> float:
    """|tr A(u_psi)(x) - tr A(u)(psi(x))|; holds for all conformal psi."""
    _, ju, jv = pullback_jets(u, psi, x)
    lhs = -math.exp(-jv.value) * jv.laplacian
    rhs = -math.exp(-ju.value) * ju.laplacian
    return abs(lhs - rhs)


def check_trace_conformal(u: ScalarField, psi: AnalyticMap, pts, tol: float) -> CheckReport:
    labeled = [(f"({p.x1:.3g},{p.x2:.3g})", trace_residual_at(u, psi, p)) for p in pts]
    return CheckReport.from_labeled("trace-conformal", labeled, tol)


def b_covariance_errors_at(u: ScalarField, m: MobiusMap, x: Vec2) -> tuple[float, float]:
    """Entry law and spectral invariance of the Hermitian form.

    B(u_psi)_zzbar(x) = B(u)_zzbar(psi(x)) and the off-diagonal entry picks
    up the unit phase psi'/conj(psi'): B(u_psi)_zz = phase * B(u)_zz o psi.
    """
    if m.conjugating:
        raise ConjugatingUnsupported("B-covariance stated for holomorphic maps")
    mj, base_jet, v_jet = pullback_jets(u, m, x)
    b_v, b_u = b_from_jet(v_jet), b_from_jet(base_jet)
    phase = mj.d1 / mj.d1.conjugate()
    entry_err = max(abs(b_v.zzbar - b_u.zzbar), abs(b_v.zz - phase * b_u.zz))
    ev, eu = b_v.eigs(), b_u.eigs()
    eig_err = max(abs(ev.lambda1 - eu.lambda1), abs(ev.lambda2 - eu.lambda2))
    return entry_err, eig_err


def check_b_covariance(u: ScalarField, m: MobiusMap, pts, tol: float) -> dict[str, CheckReport]:
    rows = [(p, b_covariance_errors_at(u, m, p)) for p in pts]
    out = {}
    for idx, name in enumerate(("entries", "eigen")):
        labeled = [(f"({p.x1:.3g},{p.x2:.3g})", e[idx]) for p, e in rows]
        out[name] = CheckReport.from_labeled(f"b-covariance-{name}", labeled, tol)
    return out


@dataclass(frozen=True)
class QuadraticMapResult:
    """Operator matrices on either side of the would-be covariance law for
    psi(z) = i z^2 against u = a x1^2, evaluated on the x2 axis."""

    point: Vec2
    lhs: Sym2
    rhs: Sym2
    trace_match: bool
    eigen_gap: float
    covariance_error: float

    def to_dict(self) -> dict:
        return {
            "point": [self.point.x1, self.point.x2],
            "lhs": [self.lhs.a11, self.lhs.a12, self.lhs.a22],
            "rhs": [self.rhs.a11, self.rhs.a12, self.rhs.a22],
            "trace_match": self.trace_match,
            "eigen_gap": self.eigen_gap,
            "covariance_error": self.covariance_error,
        }


def counterexample_iz2(a: float = 1.0, y: float = 1.0) -> QuadraticMapResult:
    """The conformal-but-not-Moebius failure case, in closed form:

    lhs = A(u_psi)(0, y) = diag(-2a - 3/(4 y^4), 3/(4 y^4)),
    rhs = A(u)(psi(0, y)) = diag(-2a, 0),

    so traces agree while the matrices differ by 3/(4 y^4) in each
    eigenvalue; at a = 1, y = 1 the gap is exactly 0.75.
    """
    if y == 0.0:
        raise ValueError("the map is critical at the origin")
    u = QuadraticField(a)
    psi = PolynomialMap([0.0, 0.0, 1j])
    x = Vec2(0.0, y)
    mj, base_jet, v_jet = pullback_jets(u, psi, x)
    lhs, rhs = a_from_jet(v_jet), a_from_jet(base_jet)

    trace_match = abs(lhs.trace - rhs.trace) <= 1e-10 * (1.0 + abs(rhs.trace))
    el, er = eig2(lhs), eig2(rhs)
    eigen_gap = max(abs(el.lambda1 - er.lambda1), abs(el.lambda2 - er.lambda2))
    jd = psi.jacobian_of(mj)
    covariance_error = (lhs - conj_orth(rhs, jd.orthogonal)).max_abs()
    return QuadraticMapResult(x, lhs, rhs, trace_match, eigen_gap, covariance_error)
