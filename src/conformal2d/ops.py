"""The conformal second-order operator, its complex form, and cone algebra.

For a field u the operator is

    A(u) = e^{-u} ( -Hess u + (1/2) du x du - (1/4) |du|^2 I ),

a symmetric 2x2 matrix.  Its complex counterpart is the Hermitian pair

    B_zzbar = -e^{-u} u_zzbar,      B_zz = e^{-u} ( -u_zz + (1/2) u_z^2 ),

whose eigenvalues are B_zzbar +/- |B_zz|; the spectra are linked by
lambda(A) = 2 lambda(B).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, TYPE_CHECKING

import numpy as np

from .errors import ConeError
from .geometry import EigenPair, Sym2, Vec2, eig2

if TYPE_CHECKING:
    from .fields import Jet2, ScalarField

VALUE_OVERFLOW = 700.0


@dataclass(frozen=True)
class ConeIndex:
    """Index p of the cone Gamma_p = { lambda2 > (p-2) lambda1, lambda1 > (p-2) lambda2 }.

    Only 1 < p <= 2 is admissible; the boundary slope is 2 - p, so the ray
    through (1, -(2-p)) lies on the cone boundary.
    """

    p: float

    def __post_init__(self) -> None:
        if not (1.0 < self.p <= 2.0):
            raise ValueError(f"cone index must satisfy 1 < p <= 2, got {self.p}")

    @property
    def boundary_slope(self) -> float:
        return 2.0 - self.p


class ConeCheck(NamedTuple):
    inside: bool
    margin: float


def cone_margin(lambda1: float, lambda2: float, cone: ConeIndex) -> float:
    s = cone.p - 2.0
    return min(lambda2 - s * lambda1, lambda1 - s * lambda2)


def in_cone(lams, cone: ConeIndex) -> ConeCheck:
    """Membership of an eigenvalue pair in the open cone, with signed margin."""
    if isinstance(lams, EigenPair):
        l1, l2 = lams.lambda1, lams.lambda2
    else:
        l1, l2 = float(lams[0]), float(lams[1])
    m = cone_margin(l1, l2, cone)
    return ConeCheck(m > 0.0, m)


@dataclass(frozen=True)
class Herm2:
    """Hermitian form with diagonal zzbar (real) and off-diagonal zz entry."""

    zzbar: float
    zz: complex

    def eigs(self) -> EigenPair:
        r = abs(self.zz)
        return EigenPair(self.zzbar + r, self.zzbar - r)


def a_from_jet(j: "Jet2") -> Sym2:
    """Conformal operator matrix from an exact jet."""
    if abs(j.value) > VALUE_OVERFLOW:
        raise OverflowError(f"|u| = {abs(j.value):.3g} too large for e^(-u)")
    e = math.exp(-j.value)
    # the gradient and Hessian entries of the jet's channels, as Jet2's views
    gx, gy = 2.0 * j.u_z.real, -2.0 * j.u_z.imag
    r, zz = 2.0 * j.u_zzbar, j.u_zz
    h11, h12, h22 = r + 2.0 * zz.real, -2.0 * zz.imag, r - 2.0 * zz.real
    q = gx * gx + gy * gy
    return Sym2(
        e * (-h11 + 0.5 * gx * gx - 0.25 * q),
        e * (-h12 + 0.5 * gx * gy),
        e * (-h22 + 0.5 * gy * gy - 0.25 * q),
    )


def b_from_jet(j: "Jet2") -> Herm2:
    """Complex Hermitian form of the operator; lambda(A) = 2 lambda(B)."""
    if abs(j.value) > VALUE_OVERFLOW:
        raise OverflowError(f"|u| = {abs(j.value):.3g} too large for e^(-u)")
    e = math.exp(-j.value)
    uz = j.u_z
    return Herm2(-e * j.u_zzbar, e * (-j.u_zz + 0.5 * uz * uz))


def lambda_a(u: "ScalarField", x) -> EigenPair:
    """Ordered eigenvalues of A(u) at a point."""
    return eig2(a_from_jet(u.jet(x)))


def lambda_b(u: "ScalarField", x) -> EigenPair:
    return b_from_jet(u.jet(x)).eigs()


class FEvalResult(NamedTuple):
    value: float
    grad: Vec2
    elliptic: bool


@dataclass(frozen=True)
class SymmetricFunction:
    """Symmetric, elliptic curvature function on a cone.

    ``fn`` and ``grad_fn`` take the two eigenvalues directly.  The optional
    ``lambda1(l2)`` is a closed-form solution of fn(lambda1, l2) = 1 for
    the radial solver, which otherwise brackets the root numerically.
    Construction runs a sampled sanity check: symmetry under swapping the
    arguments and positivity of both gradient components at 100 cone points.
    """

    name: str
    fn: Callable[[float, float], float]
    grad_fn: Callable[[float, float], tuple[float, float]]
    cone: ConeIndex
    lambda1: Callable[[float], float] | None = None

    def __post_init__(self) -> None:
        rng = np.random.default_rng(1234)
        s = self.cone.p - 2.0
        checked = 0
        while checked < 100:
            l1 = float(np.exp(rng.normal(0.0, 1.0)))
            l2 = float(rng.uniform(s * l1, l1))
            if cone_margin(l1, l2, self.cone) <= 0.0:
                continue
            checked += 1
            v12 = self.fn(l1, l2)
            v21 = self.fn(l2, l1)
            scale = 1.0 + abs(v12)
            if abs(v12 - v21) > 1e-10 * scale:
                raise ValueError(f"{self.name}: not symmetric at ({l1:.4g}, {l2:.4g})")
            g = self.grad_fn(l1, l2)
            if not (g[0] > 0.0 and g[1] > 0.0):
                raise ValueError(f"{self.name}: not elliptic at ({l1:.4g}, {l2:.4g})")


def f_eval(f: SymmetricFunction, lams) -> FEvalResult:
    """Evaluate f with cone enforcement; ConeError outside the open cone."""
    if isinstance(lams, EigenPair):
        l1, l2 = lams.lambda1, lams.lambda2
    else:
        l1, l2 = float(lams[0]), float(lams[1])
    inside, margin = in_cone((l1, l2), f.cone)
    if not inside:
        raise ConeError(f"({l1:.6g}, {l2:.6g}) outside cone p={f.cone.p} (margin {margin:.3g})")
    g1, g2 = f.grad_fn(l1, l2)
    return FEvalResult(f.fn(l1, l2), Vec2(g1, g2), g1 > 0.0 and g2 > 0.0)


def sigma1(cone: ConeIndex | float = 2.0) -> SymmetricFunction:
    cone = cone if isinstance(cone, ConeIndex) else ConeIndex(cone)
    return SymmetricFunction("sigma1", lambda l1, l2: l1 + l2,
                             lambda l1, l2: (1.0, 1.0), cone, lambda l2: 1.0 - l2)


def sigma2(cone: ConeIndex | float = 2.0) -> SymmetricFunction:
    cone = cone if isinstance(cone, ConeIndex) else ConeIndex(cone)
    return SymmetricFunction("sigma2", lambda l1, l2: l1 * l2,
                             lambda l1, l2: (l2, l1), cone, lambda l2: 1.0 / l2)


def weighted(t: float, cone: ConeIndex | float = 2.0) -> SymmetricFunction:
    """t sigma1 + (1 - t) sqrt(sigma2), elliptic on Gamma_2 for 0 <= t <= 1."""
    if not 0.0 <= t <= 1.0:
        raise ValueError("weight must lie in [0, 1]")
    cone = cone if isinstance(cone, ConeIndex) else ConeIndex(cone)
    if cone.p != 2.0:
        raise ValueError("weighted combination is defined on Gamma_2")

    def fn(l1: float, l2: float) -> float:
        return t * (l1 + l2) + (1.0 - t) * math.sqrt(l1 * l2)

    def grad_fn(l1: float, l2: float) -> tuple[float, float]:
        root = math.sqrt(l1 * l2)
        return (t + (1.0 - t) * 0.5 * l2 / root, t + (1.0 - t) * 0.5 * l1 / root)

    def lambda1(l2: float) -> float:
        # sqrt(lambda1) is the positive root of t s^2 + (1-t) sqrt(l2) s - c,
        # written without cancellation so that t = 0 needs no special case
        c = 1.0 - t * l2
        b = (1.0 - t) * math.sqrt(l2)
        s = 2.0 * c / (b + math.sqrt(b * b + 4.0 * t * c))
        return s * s

    return SymmetricFunction(f"weighted:{t:g}", fn, grad_fn, cone, lambda1)


def resolve_symmetric_function(spec: str, cone: float | None = None) -> SymmetricFunction:
    """Parse 'sigma1', 'sigma2', or 'weighted:<t>' into a SymmetricFunction."""
    cone_arg = ConeIndex(cone) if cone is not None else ConeIndex(2.0)
    if spec == "sigma1":
        return sigma1(cone_arg)
    if spec == "sigma2":
        return sigma2(cone_arg)
    if spec.startswith("weighted:"):
        return weighted(float(spec.split(":", 1)[1]), cone_arg)
    raise ValueError(f"unknown symmetric function {spec!r}")
