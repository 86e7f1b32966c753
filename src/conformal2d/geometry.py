"""Small exact-arithmetic-friendly types for 2x2 symmetric linear algebra.

Everything here is closed form: eigenvalues of a symmetric 2x2 matrix come
from the quadratic formula, so no iterative solver noise enters downstream
tolerance checks.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

ORTH_DEFECT_TOL = 1e-9
_EYE2 = np.eye(2)

# the value types below are frozen dataclasses with hand-written __init__s:
# one inline finiteness test, fields set as the generated frozen __init__
# sets them, and _require_finite only to raise
_isfinite = math.isfinite
_setattr = object.__setattr__


def _require_finite(*values: complex) -> None:
    for v in values:
        if not cmath.isfinite(v):
            raise ValueError(f"non-finite entry {v!r}")


def finite_coords(x1, x2) -> tuple[np.ndarray, np.ndarray]:
    """Coordinate arrays broadcast to one float shape; like Vec2, rejects
    non-finite entries.  The results may be the caller's arrays: read them,
    never write into them."""
    x1, x2 = np.asarray(x1, dtype=float), np.asarray(x2, dtype=float)
    if x1.shape != x2.shape:
        x1, x2 = np.broadcast_arrays(x1, x2)
    if not (np.isfinite(x1).all() and np.isfinite(x2).all()):
        raise ValueError("non-finite coordinate entry")
    return x1, x2


@dataclass(frozen=True, init=False)
class Vec2:
    """Point or vector in the plane."""

    x1: float
    x2: float

    def __init__(self, x1: float, x2: float) -> None:
        if not (_isfinite(x1) and _isfinite(x2)):
            _require_finite(x1, x2)
        _setattr(self, "x1", x1)
        _setattr(self, "x2", x2)

    @classmethod
    def from_complex(cls, z: complex) -> "Vec2":
        return cls(z.real, z.imag)

    @classmethod
    def of(cls, p) -> "Vec2":
        """Coerce a Vec2, complex number, or length-2 sequence."""
        if isinstance(p, Vec2):
            return p
        if isinstance(p, complex):
            return cls(p.real, p.imag)
        x1, x2 = p
        return cls(float(x1), float(x2))

    def to_complex(self) -> complex:
        return complex(self.x1, self.x2)

    def as_array(self) -> np.ndarray:
        return np.array([self.x1, self.x2], dtype=float)

    def norm(self) -> float:
        return math.hypot(self.x1, self.x2)

    def __add__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x1 + other.x1, self.x2 + other.x2)

    def __sub__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x1 - other.x1, self.x2 - other.x2)

    def __mul__(self, s: float) -> "Vec2":
        return Vec2(self.x1 * s, self.x2 * s)

    __rmul__ = __mul__


@dataclass(frozen=True, init=False)
class Sym2:
    """Symmetric 2x2 matrix stored by its three independent entries."""

    a11: float
    a12: float
    a22: float

    def __init__(self, a11: float, a12: float, a22: float) -> None:
        if not (_isfinite(a11) and _isfinite(a12) and _isfinite(a22)):
            _require_finite(a11, a12, a22)
        _setattr(self, "a11", a11)
        _setattr(self, "a12", a12)
        _setattr(self, "a22", a22)

    def as_array(self) -> np.ndarray:
        return np.array([[self.a11, self.a12], [self.a12, self.a22]])

    @property
    def trace(self) -> float:
        return self.a11 + self.a22

    @property
    def det(self) -> float:
        return self.a11 * self.a22 - self.a12 * self.a12

    def __add__(self, other: "Sym2") -> "Sym2":
        return Sym2(self.a11 + other.a11, self.a12 + other.a12, self.a22 + other.a22)

    def __sub__(self, other: "Sym2") -> "Sym2":
        return Sym2(self.a11 - other.a11, self.a12 - other.a12, self.a22 - other.a22)

    def __mul__(self, s: float) -> "Sym2":
        return Sym2(self.a11 * s, self.a12 * s, self.a22 * s)

    __rmul__ = __mul__

    def max_abs(self) -> float:
        return max(abs(self.a11), abs(self.a12), abs(self.a22))


@dataclass(frozen=True, init=False)
class EigenPair:
    """Ordered eigenvalues lambda1 >= lambda2 of a symmetric 2x2 matrix."""

    lambda1: float
    lambda2: float

    def __init__(self, lambda1: float, lambda2: float) -> None:
        if not (_isfinite(lambda1) and _isfinite(lambda2)):
            _require_finite(lambda1, lambda2)
        if lambda1 < lambda2:
            raise ValueError("eigenvalues must be ordered lambda1 >= lambda2")
        # eig2 builds one per call: plain __dict__ stores, as object.__setattr__ makes
        d = self.__dict__
        d["lambda1"] = lambda1
        d["lambda2"] = lambda2

    @classmethod
    def sorted(cls, a: float, b: float) -> "EigenPair":
        return cls(max(a, b), min(a, b))

    @property
    def trace(self) -> float:
        return self.lambda1 + self.lambda2

    @property
    def det(self) -> float:
        return self.lambda1 * self.lambda2


@dataclass(frozen=True)
class Orthogonal2:
    """2x2 orthogonal matrix; construction rejects defect above 1e-9."""

    o11: float
    o12: float
    o21: float
    o22: float

    def __post_init__(self) -> None:
        _require_finite(self.o11, self.o12, self.o21, self.o22)
        if self.defect() > ORTH_DEFECT_TOL:
            raise ValueError(f"orthogonality defect {self.defect():.3e} exceeds {ORTH_DEFECT_TOL}")

    @classmethod
    def rotation(cls, theta: float) -> "Orthogonal2":
        c, s = math.cos(theta), math.sin(theta)
        return cls(c, -s, s, c)

    @classmethod
    def from_array(cls, m) -> "Orthogonal2":
        m = np.asarray(m, dtype=float)
        if m.shape != (2, 2):
            raise ValueError("expected a 2x2 array")
        return cls(m[0, 0], m[0, 1], m[1, 0], m[1, 1])

    def as_array(self) -> np.ndarray:
        return np.array([[self.o11, self.o12], [self.o21, self.o22]])

    def defect(self) -> float:
        return float(_orth_defect(self.as_array()))

    @property
    def det(self) -> float:
        return self.o11 * self.o22 - self.o12 * self.o21


def _orth_defect(o: np.ndarray):
    """max |O^T O - I| of a 2x2 array, or of each 2x2 of a stack."""
    return np.abs(o.swapaxes(-1, -2) @ o - _EYE2).max(axis=(-2, -1))


def _hypot_each(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """math.hypot elementwise on Python floats; numpy's may round differently."""
    return np.array(list(map(math.hypot, x.tolist(), y.tolist())))


def _eig_pair(a11, a12, a22, hypot=math.hypot):
    """(lambda1, lambda2) = mean +/- hypot((a11 - a22)/2, a12) of one
    symmetric 2x2, or, with hypot=_hypot_each, of entry arrays."""
    mean = 0.5 * (a11 + a22)
    half_gap = hypot(0.5 * (a11 - a22), a12)
    return mean + half_gap, mean - half_gap


def eig2(m: Sym2) -> EigenPair:
    """Eigenvalues of a symmetric 2x2 matrix in closed form.

    The pair is mean +/- half-gap with half-gap hypot((a11-a22)/2, a12),
    which is exact to roundoff and never produces complex output.
    """
    return EigenPair(*_eig_pair(m.a11, m.a12, m.a22))


def _conj_entries(a: np.ndarray, o: np.ndarray):
    """Arrays of the entries a11, a12, a22 of O^T A O, symmetrized against
    roundoff, one per 2x2 pair of the stacks a and o, or of the one pair."""
    r = (o.swapaxes(-1, -2) @ a @ o).reshape(-1, 4).T
    return r[0], 0.5 * (r[1] + r[2]), r[3]


def conj_orth(m: Sym2, o: Orthogonal2) -> Sym2:
    """Orthogonal conjugation O^T M O, symmetrized against roundoff."""
    return Sym2(*(x[0] for x in _conj_entries(m.as_array(), o.as_array())))
