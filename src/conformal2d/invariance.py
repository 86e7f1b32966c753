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

from .errors import NUMERICAL_ERRORS, Conformal2dError, ConjugatingUnsupported
from .fields import QuadraticField, ScalarField, pullback_jets
from .geometry import (ORTH_DEFECT_TOL, Vec2, Sym2, _conj_entries, _eig_pair, _hypot_each,
                       _orth_defect, conj_orth, eig2)
from .mobius import (AnalyticMap, MobiusMap, PolynomialMap, _conformal_factors, _jacobians,
                     _orthogonal_parts)
from .ops import a_from_jet, b_from_jet


def annulus_points(rng: np.random.Generator, n: int, r_in: float = 0.5,
                   r_out: float = 3.0) -> list[Vec2]:
    radii = rng.uniform(r_in, r_out, n)
    angles = rng.uniform(0.0, 2.0 * math.pi, n)
    return [Vec2(r * math.cos(t), r * math.sin(t)) for r, t in zip(radii, angles)]


def valid_points(rng: np.random.Generator, n: int, usable, r_in: float = 0.5,
                 r_out: float = 3.0, max_tries: int = 200) -> list[Vec2]:
    """Draw n seeded annulus points for which ``usable(p)`` holds.

    A Conformal2dError or OverflowError that usable raises is absorbed by
    resampling; determinism for a fixed generator state is preserved since
    the rejection sequence is itself a pure function of the stream.

    Candidates are drawn one (r, t) row per candidate, each round as one
    block of the candidates still needed: the numbers, in the order, that
    one draw per candidate gives.  At most max_tries * n are drawn.  If
    usable raises, the generator is rewound to just past the candidate it
    raised on, so it ends where drawing one candidate at a time leaves it;
    usable must not draw from rng itself.  A usable.block(points), if any,
    gets each round first and returns usable(p) for each point; where it
    raises, it must have changed nothing, and the round runs point by point.
    """
    out: list[Vec2] = []
    left = max_tries * n
    low, high = (r_in, 0.0), (r_out, 2.0 * math.pi)
    block = getattr(usable, "block", None)
    while len(out) < n:
        k = min(n - len(out), left)
        if k <= 0:
            raise Conformal2dError("could not sample enough admissible points")
        left -= k
        state = rng.bit_generator.state
        pts = [Vec2(r * math.cos(t), r * math.sin(t))
               for r, t in rng.uniform(low, high, (k, 2)).tolist()]
        if block is not None:
            try:
                out.extend(p for p, ok in zip(pts, block(pts)) if ok)
                continue
            except Exception:  # noqa: BLE001 - raised or absorbed point by point below
                pass
        for i, p in enumerate(pts):
            try:
                if usable(p):
                    out.append(p)
            except (Conformal2dError, OverflowError):
                continue
            except BaseException:
                rng.bit_generator.state = state
                rng.uniform(low, high, (i + 1, 2))
                raise
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


def _entries(syms: list[Sym2]) -> np.ndarray:
    """Columns a11, a12, a22 of a list of Sym2, shape (n, 3)."""
    return np.array([(s.a11, s.a12, s.a22) for s in syms])


def _covariance_block(m: MobiusMap, jets) -> list[CovarianceErrors]:
    """The errors at a block of points from their pullback_jets triples.

    Each step runs block-wide on the one-point route's formulas: the
    Jacobian, orthogonal part and defect of jacobian_of and Orthogonal2,
    conj_orth's symmetrized O^T A O and eig2's eigenpair, with math.exp and
    math.hypot mapped over Python floats (numpy's may round differently).
    a_from_jet runs per point, so that its errors are the block's.  Two
    checks raise the one-point route's errors: after the Jacobian step,
    jacobian_of at each flagged point, and after the operator step, conj_orth's
    Sym2, the difference and eig2 at each flagged point.  A later point may
    raise first; covariance_errors_at then replays the points one by one.
    """
    if not jets:
        return []
    mjs, bjs, vjs = zip(*jets)
    a_v = [a_from_jet(vj) for vj in vjs]
    d1 = np.array([mj.d1 for mj in mjs], dtype=complex)
    with np.errstate(all="ignore"):
        conf = _conformal_factors(d1)
        jac = _jacobians(d1, m.conjugating)
        orth = _orthogonal_parts(jac, conf)
        # NaN or inf wherever d1 is not finite or conf not positive
        defect = _orth_defect(orth)
    for k in np.flatnonzero(~(defect <= ORTH_DEFECT_TOL)):
        m.jacobian_of(mjs[k])  # raises
    a_u = [a_from_jet(bj) for bj in bjs]
    sv, su = _entries(a_v), _entries(a_u)
    av, au = sv[:, [0, 1, 1, 2]].reshape(-1, 2, 2), su[:, [0, 1, 1, 2]].reshape(-1, 2, 2)
    with np.errstate(all="ignore"):
        # A(u_psi) - O^T A(u) O, and the eigenpairs of both sides
        r = _conj_entries(au, orth)
        diff = sv - np.stack(r, axis=1)
        (v1, v2), (u1, u2) = (_eig_pair(*s.T, hypot=_hypot_each) for s in (sv, su))
        eigen = np.maximum(np.abs(v1 - u1), np.abs(v2 - u2))
    for k in np.flatnonzero(~np.isfinite(np.column_stack([diff, v1, v2, u1, u2])).all(axis=1)):
        a_v[k] - Sym2(r[0][k], r[1][k], r[2][k])  # raises, or else eig2 does
        eig2(a_v[k]), eig2(a_u[k])
    matrix = np.abs(diff).max(axis=1)
    # e^{u_psi} A(u_psi) - e^{u o psi} J^T A(u) J
    exp_v = np.array(list(map(math.exp, [vj.value for vj in vjs])))[:, None, None]
    exp_u = np.array(list(map(math.exp, [bj.value for bj in bjs])))[:, None, None]
    tensor = np.abs(exp_v * av - exp_u * (jac.transpose(0, 2, 1) @ au @ jac)).max(axis=(1, 2))
    return list(map(CovarianceErrors, matrix.tolist(), tensor.tolist(), eigen.tolist()))


def covariance_errors_at(m: MobiusMap, jets) -> list[CovarianceErrors]:
    """CovarianceErrors at each point of a block, from its pullback_jets
    triples through m, in order.

    The law is pointwise, so a block computes what its points would one at
    a time, bit for bit, and raises what the first failing point raises.
    """
    try:
        return _covariance_block(m, jets)
    except NUMERICAL_ERRORS:
        # steps run block-wide: replay the points one by one to raise
        # what the first failing point raises on its own
        for j in jets:
            _covariance_block(m, [j])
        raise


def trace_residual_at(u: ScalarField, psi: AnalyticMap, pts: list) -> list[float]:
    """|tr A(u_psi)(x) - tr A(u)(psi(x))| at each point x of the list pts,
    from one pullback_jets call; the law holds for all conformal psi."""
    out = []
    for _, ju, jv in pullback_jets(u, psi, pts):
        lhs = -math.exp(-jv.value) * jv.laplacian
        rhs = -math.exp(-ju.value) * ju.laplacian
        out.append(abs(lhs - rhs))
    return out


def b_covariance_errors_at(m: MobiusMap, jets) -> list[tuple[float, float]]:
    """Entry law and spectral invariance of the Hermitian form: one
    (entry_err, eig_err) pair per pullback_jets triple through m, in order.

    B(u_psi)_zzbar(x) = B(u)_zzbar(psi(x)) and the off-diagonal entry picks
    up the unit phase psi'/conj(psi'): B(u_psi)_zz = phase * B(u)_zz o psi.
    """
    if m.conjugating:
        raise ConjugatingUnsupported("B-covariance stated for holomorphic maps")
    out = []
    for mj, base_jet, v_jet in jets:
        b_v, b_u = b_from_jet(v_jet), b_from_jet(base_jet)
        phase = mj.d1 / mj.d1.conjugate()
        ev, eu = b_v.eigs(), b_u.eigs()
        out.append((max(abs(b_v.zzbar - b_u.zzbar), abs(b_v.zz - phase * b_u.zz)),
                    max(abs(ev.lambda1 - eu.lambda1), abs(ev.lambda2 - eu.lambda2))))
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
