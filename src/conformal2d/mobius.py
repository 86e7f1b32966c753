"""Fractional linear maps of the plane and other conformal jet maps.

A map is represented by its complex third-order jet z -> (w, d1, d2, d3).
For an orientation-preserving map these are the derivatives of a holomorphic
function of z; for an orientation-reversing one (``conjugating=True``) they
are the derivatives of the generating holomorphic function evaluated at
conj(z), so that w = g(conj(z)).  Third derivatives are carried because exact
Hessians of log-Jacobian terms need them.
"""
from __future__ import annotations

import cmath
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import PoleError, DomainError
from .geometry import Vec2, Orthogonal2, _require_finite

POLE_GUARD = 1e-14
CRITICAL_GUARD = 1e-6
# normalized coefficients leave |ad - bc - 1| below about 3.2 eps (|ad| + |bc|)
# (160,000 random, composed, inverted and badly scaled maps); this allows 16
NORMALIZED_DET_TOL = 16.0 * sys.float_info.epsilon


class MapJet(NamedTuple):
    value: complex
    d1: complex
    d2: complex
    d3: complex


class JacobianData(NamedTuple):
    matrix: np.ndarray
    det: float
    conformal_factor: float
    orthogonal: Orthogonal2


class AnalyticMap:
    """Base class for conformal maps with third-order jets."""

    conjugating: bool = False

    def jet(self, z: complex) -> MapJet:
        raise NotImplementedError

    def values_d1(self, z) -> tuple[np.ndarray, np.ndarray]:
        """Value and first derivative on a complex array of any shape.

        Agrees with jet() point by point.  This fallback loops jet();
        closed-form maps override it with an array kernel that raises what
        jet() raises when any sample does.
        """
        z = np.asarray(z, dtype=complex)
        w, d1 = np.empty(z.shape, dtype=complex), np.empty(z.shape, dtype=complex)
        for i in np.ndindex(z.shape):
            w[i], d1[i] = self.jet(complex(z[i]))[:2]
        return w, d1

    def excluded(self, z: complex) -> bool:
        """Best-effort predicate for statically known excluded points."""
        return False

    def apply_complex(self, z: complex) -> complex:
        return self.jet(z).value

    def apply(self, p) -> Vec2:
        return Vec2.from_complex(self.jet(Vec2.of(p).to_complex()).value)

    def jacobian(self, p) -> JacobianData:
        """Real 2x2 Jacobian, its determinant, conformal factor |det|, and
        the orthogonal part o = conf^{-1/2} J."""
        return self.jacobian_of(self.jet(Vec2.of(p).to_complex()))

    def jacobian_of(self, j: MapJet) -> JacobianData:
        """jacobian() from a jet of this map that is already at hand."""
        # before dividing by sqrt(conf), which turns an infinite d1 into NaN
        _require_finite(j.d1.real, j.d1.imag)
        conf = _conformal_factors(j.d1)
        if conf <= 0.0:
            raise DomainError("vanishing derivative: no conformal factor")
        mat = _jacobians(j.d1, self.conjugating)
        orth = Orthogonal2.from_array(_orthogonal_parts(mat, conf))
        return JacobianData(mat, -conf if self.conjugating else conf, conf, orth)


def _conformal_factors(d1):
    """|d1|^2, the conformal factor, of one map derivative or of an array."""
    return d1.real * d1.real + d1.imag * d1.imag


def _jacobians(d1, conjugating: bool) -> np.ndarray:
    """Real Jacobians at one map derivative d1, shape (2, 2), or at a 1-D array, (n, 2, 2)."""
    a, b = np.real(d1), np.imag(d1)
    rows = np.array([a, b, b, -a] if conjugating else [a, -b, b, a])
    return rows.T.reshape(np.shape(d1) + (2, 2))


def _orthogonal_parts(jac: np.ndarray, conf) -> np.ndarray:
    """O = conf^{-1/2} J of a Jacobian or of each of a stack, rounded as math's
    sqrt and division round."""
    return jac / np.sqrt(conf)[..., None, None]


@dataclass(frozen=True)
class MobiusMap(AnalyticMap):
    """z -> (a z + b)/(c z + d), applied to conj(z) instead if conjugating.

    Coefficients are normalized to a d - b c = 1 at construction, so the
    pole guard |c z + d| < 1e-14 is scale free.
    """

    a: complex
    b: complex
    c: complex
    d: complex
    conjugating: bool = False

    def __post_init__(self) -> None:
        coeffs = (self.a, self.b, self.c, self.d)
        if not all(cmath.isfinite(w) for w in coeffs):
            raise ValueError("non-finite coefficient")
        det = self.a * self.d - self.b * self.c
        if abs(det) < 1e-30:
            raise ValueError("singular coefficient matrix")
        s = cmath.sqrt(det)
        for name, w in zip(("a", "b", "c", "d"), coeffs):
            object.__setattr__(self, name, complex(w) / s)

    # -- constructors -------------------------------------------------

    @classmethod
    def restored(cls, a, b, c, d, conjugating: bool = False) -> "MobiusMap":
        """The map with stored coefficients, as a decoder rebuilds it.

        Coefficients that are normalized already (ad - bc is 1 to within
        the rounding normalization leaves) are kept bit for bit, where the
        constructor would divide them by sqrt(ad - bc) again and move them
        by an ulp; others are normalized as by the constructor.
        """
        m = cls(a, b, c, d, conjugating)
        a, b, c, d = coeffs = tuple(map(complex, (a, b, c, d)))
        if abs(a * d - b * c - 1.0) <= NORMALIZED_DET_TOL * (abs(a * d) + abs(b * c)):
            for name, w in zip(("a", "b", "c", "d"), coeffs):
                object.__setattr__(m, name, w)
        return m

    @classmethod
    def identity(cls) -> "MobiusMap":
        return cls(1, 0, 0, 1)

    @classmethod
    def translation(cls, t) -> "MobiusMap":
        return cls(1, Vec2.of(t).to_complex(), 0, 1)

    @classmethod
    def dilation(cls, lam: float) -> "MobiusMap":
        if lam == 0:
            raise ValueError("zero dilation")
        return cls(lam, 0, 0, 1)

    @classmethod
    def rotation(cls, theta: float) -> "MobiusMap":
        return cls(cmath.exp(1j * theta), 0, 0, 1)

    @classmethod
    def reflection(cls) -> "MobiusMap":
        """z -> conj(z)."""
        return cls(1, 0, 0, 1, conjugating=True)

    @classmethod
    def inversion(cls) -> "MobiusMap":
        """x -> x/|x|^2, i.e. z -> 1/conj(z)."""
        return cls(0, 1, 1, 0, conjugating=True)

    @classmethod
    def sphere_inversion(cls, center, radius: float) -> "MobiusMap":
        """Inversion in the circle of given center and radius.

        w -> x0 + radius^2 (w - x0)/|w - x0|^2; fixes the circle pointwise.
        """
        if radius <= 0:
            raise ValueError("radius must be positive")
        x0 = Vec2.of(center).to_complex()
        return cls(x0, radius**2 - abs(x0) ** 2, 1, -x0.conjugate(), conjugating=True)

    # -- evaluation ----------------------------------------------------

    @property
    def pole(self) -> complex | None:
        """Excluded point in the source plane, if any."""
        if self.c == 0:
            return None
        p = -self.d / self.c
        return p.conjugate() if self.conjugating else p

    def excluded(self, z: complex) -> bool:
        p = self.pole
        return p is not None and abs(z - p) < POLE_GUARD

    def jet(self, z: complex) -> MapJet:
        zz = z.conjugate() if self.conjugating else z
        den = self.c * zz + self.d
        if abs(den) < POLE_GUARD:
            raise PoleError(f"evaluation within {POLE_GUARD} of pole")
        value = (self.a * zz + self.b) / den
        d1 = 1.0 / (den * den)
        d2 = -2.0 * self.c * d1 / den
        d3 = 6.0 * self.c * self.c * d1 / (den * den)
        return MapJet(value, d1, d2, d3)

    def values_d1(self, z) -> tuple[np.ndarray, np.ndarray]:
        zz = np.asarray(z, dtype=complex)
        if self.conjugating:
            zz = zz.conjugate()
        # in place, in the order of (a zz + b) / den and 1 / (den den)
        den = np.multiply(self.c, zz)
        np.add(den, self.d, out=den)
        if (np.abs(den) < POLE_GUARD).any():
            raise PoleError(f"evaluation within {POLE_GUARD} of pole")
        w = np.multiply(self.a, zz)
        np.add(w, self.b, out=w)
        np.divide(w, den, out=w)
        np.multiply(den, den, out=den)
        return w, np.divide(1.0, den, out=den)

    # -- group structure -------------------------------------------------

    def inverse(self) -> "MobiusMap":
        a, b, c, d = self.d, -self.b, -self.c, self.a
        if self.conjugating:
            a, b, c, d = a.conjugate(), b.conjugate(), c.conjugate(), d.conjugate()
        return MobiusMap(a, b, c, d, self.conjugating)


def compose(m1: AnalyticMap, m2: AnalyticMap) -> AnalyticMap:
    """Map acting as m1 after m2: apply(compose(m1, m2), p) = apply(m1, apply(m2, p)).

    Two fractional linear maps compose exactly through their coefficient
    matrices; anything else returns a lazy jet composition.
    """
    if isinstance(m1, MobiusMap) and isinstance(m2, MobiusMap):
        a2, b2, c2, d2 = m2.a, m2.b, m2.c, m2.d
        if m1.conjugating:
            a2, b2, c2, d2 = (w.conjugate() for w in (a2, b2, c2, d2))
        a = m1.a * a2 + m1.b * c2
        b = m1.a * b2 + m1.b * d2
        c = m1.c * a2 + m1.d * c2
        d = m1.c * b2 + m1.d * d2
        return MobiusMap(a, b, c, d, m1.conjugating != m2.conjugating)
    return ComposedMap(m1, m2)


@dataclass(frozen=True)
class ComposedMap(AnalyticMap):
    """Jet-level composition outer(inner(z)) via the chain rule to order 3."""

    outer: AnalyticMap
    inner: AnalyticMap

    @property
    def conjugating(self) -> bool:  # type: ignore[override]
        return self.outer.conjugating != self.inner.conjugating

    def excluded(self, z: complex) -> bool:
        if self.inner.excluded(z):
            return True
        try:
            w = self.inner.jet(z).value
        except DomainError:
            return True
        return self.outer.excluded(w)

    def jet(self, z: complex) -> MapJet:
        ji = self.inner.jet(z)
        jo = self.outer.jet(ji.value)
        b1, b2, b3 = ji.d1, ji.d2, ji.d3
        if self.outer.conjugating:
            # outer differentiates in conj(w); inner jet enters conjugated
            b1, b2, b3 = b1.conjugate(), b2.conjugate(), b3.conjugate()
        d1 = jo.d1 * b1
        d2 = jo.d2 * b1 * b1 + jo.d1 * b2
        d3 = jo.d3 * b1**3 + 3.0 * jo.d2 * b1 * b2 + jo.d1 * b3
        return MapJet(jo.value, d1, d2, d3)

    def values_d1(self, z) -> tuple[np.ndarray, np.ndarray]:
        wi, b1 = self.inner.values_d1(z)
        wo, d1 = self.outer.values_d1(wi)
        if self.outer.conjugating:
            b1 = b1.conjugate()
        return wo, d1 * b1


@dataclass(frozen=True)
class PolynomialMap(AnalyticMap):
    """Polynomial map sum_k coeffs[k] z^k; critical points are excluded
    with a guard radius of 1e-6."""

    coeffs: tuple[complex, ...]

    def __init__(self, coeffs) -> None:
        object.__setattr__(self, "coeffs", tuple(complex(c) for c in coeffs))
        if len(self.coeffs) < 2 or all(c == 0 for c in self.coeffs[1:]):
            raise ValueError("constant polynomial has no conformal structure")

    def _critical_points(self) -> np.ndarray:
        dcoeffs = npoly.polyder(np.array(self.coeffs, dtype=complex))
        if len(dcoeffs) <= 1:
            return np.empty(0, dtype=complex)
        return npoly.polyroots(dcoeffs)

    def excluded(self, z: complex) -> bool:
        crit = self._critical_points()
        return bool(crit.size and np.abs(crit - z).min() < CRITICAL_GUARD)

    def jet(self, z: complex) -> MapJet:
        c = np.array(self.coeffs, dtype=complex)
        value = npoly.polyval(z, c)
        d1 = npoly.polyval(z, npoly.polyder(c, 1))
        d2 = npoly.polyval(z, npoly.polyder(c, 2))
        d3 = npoly.polyval(z, npoly.polyder(c, 3))
        if abs(d1) < CRITICAL_GUARD:
            raise DomainError("within guard radius of a critical point")
        return MapJet(complex(value), complex(d1), complex(d2), complex(d3))

    def values_d1(self, z) -> tuple[np.ndarray, np.ndarray]:
        z = np.asarray(z, dtype=complex)
        c = np.array(self.coeffs, dtype=complex)
        d1 = npoly.polyval(z, npoly.polyder(c, 1))
        if (np.abs(d1) < CRITICAL_GUARD).any():
            raise DomainError("within guard radius of a critical point")
        return npoly.polyval(z, c), d1


@dataclass(frozen=True)
class ExpMap(AnalyticMap):
    """Entire map z -> e^z; every derivative equals the value."""

    def jet(self, z: complex) -> MapJet:
        w = cmath.exp(z)
        return MapJet(w, w, w, w)

    def values_d1(self, z) -> tuple[np.ndarray, np.ndarray]:
        with np.errstate(over="ignore", invalid="ignore"):
            w = np.exp(np.asarray(z, dtype=complex))
        if not np.isfinite(w).all():
            raise OverflowError("math range error")  # as cmath.exp raises
        return w, w
