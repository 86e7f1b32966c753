"""Scalar conformal-factor fields and their exact second-order jets.

Jets are produced in closed form for every built-in family.  The complex
(Wirtinger) view of a jet is the working representation for pullbacks:
with u_z = (u_x - i u_y)/2,

    u_zz    = (u_xx - u_yy - 2 i u_xy)/4,
    u_zzbar = (u_xx + u_yy)/4 = (Laplacian u)/4,

and conversely u_xx = 2 u_zzbar + 2 Re u_zz, u_yy = 2 u_zzbar - 2 Re u_zz,
u_xy = -2 Im u_zz.
"""
from __future__ import annotations

import dataclasses
import functools
import math
import typing
from dataclasses import dataclass

import numpy as np

from ._scipy import CubicSpline
from .errors import DomainError, ConjugatingUnsupported
from .geometry import Vec2, Sym2, finite_coords
from .mobius import AnalyticMap, ComposedMap, ExpMap, MapJet, MobiusMap, PolynomialMap
from .radial import RadialProfile

_setattr = object.__setattr__

# |psi'| below this has no usable log-Jacobian: pullbacks refuse the point
VANISHING_DERIVATIVE = 1e-300


@dataclass(frozen=True, init=False)
class Jet2:
    """Value, gradient, and Hessian of a scalar field at a point.

    Vec2 and Sym2 check the derivatives; the value is not checked here, and
    a_from_jet and b_from_jet refuse an infinite one with OverflowError.
    """

    value: float
    grad: Vec2
    hess: Sym2

    def __init__(self, value: float, grad: Vec2, hess: Sym2) -> None:
        # as the generated frozen __init__, without its per-call overhead
        _setattr(self, "value", value)
        _setattr(self, "grad", grad)
        _setattr(self, "hess", hess)

    @property
    def u_z(self) -> complex:
        return complex(0.5 * self.grad.x1, -0.5 * self.grad.x2)

    @property
    def u_zz(self) -> complex:
        h = self.hess
        return complex(0.25 * (h.a11 - h.a22), -0.5 * h.a12)

    @property
    def u_zzbar(self) -> float:
        return 0.25 * (self.hess.a11 + self.hess.a22)

    @property
    def laplacian(self) -> float:
        return self.hess.a11 + self.hess.a22

    @classmethod
    def from_wirtinger(cls, value: float, u_z: complex, u_zz: complex,
                       u_zzbar: float) -> "Jet2":
        grad = Vec2(2.0 * u_z.real, -2.0 * u_z.imag)
        hess = Sym2(
            2.0 * u_zzbar + 2.0 * u_zz.real,
            -2.0 * u_zz.imag,
            2.0 * u_zzbar - 2.0 * u_zz.real,
        )
        return cls(float(value), grad, hess)


class ScalarField:
    """Base class: a scalar field with an exact jet evaluator.

    Each family has one scalar evaluator, jet(), with value() its value
    channel, and one batch evaluator, values().  A family that is another
    family in disguise evaluates through it: a ChenLiBubble is a Bubble, and
    a LiouvilleField's values are those of a pullback of the standard bubble.
    """

    def jet(self, x) -> Jet2:
        raise NotImplementedError

    def value(self, x) -> float:
        return self.jet(x).value

    def values(self, x1, x2) -> np.ndarray:
        """Values on coordinate arrays of any (broadcast) shape.

        Agrees with value() point by point.  This fallback loops value();
        every built-in family overrides it with an array kernel that raises
        what value() raises when any sample does.
        """
        x1, x2 = finite_coords(x1, x2)
        out = np.empty(x1.shape)
        for i in np.ndindex(x1.shape):
            out[i] = self.value(Vec2(float(x1[i]), float(x2[i])))
        return out

    def excluded(self, x) -> bool:
        return False

    def __call__(self, x) -> float:
        return self.value(x)


@dataclass(frozen=True)
class ConstantField(ScalarField):
    c: float

    def jet(self, x) -> Jet2:
        Vec2.of(x)
        return Jet2(self.c, Vec2(0.0, 0.0), Sym2(0.0, 0.0, 0.0))

    def values(self, x1, x2) -> np.ndarray:
        return np.full(finite_coords(x1, x2)[0].shape, float(self.c))


@dataclass(frozen=True)
class QuadraticField(ScalarField):
    """u(x) = a x1^2."""

    a: float

    def jet(self, x) -> Jet2:
        p = Vec2.of(x)
        return Jet2(
            self.a * p.x1 * p.x1,
            Vec2(2.0 * self.a * p.x1, 0.0),
            Sym2(2.0 * self.a, 0.0, 0.0),
        )

    def values(self, x1, x2) -> np.ndarray:
        x1 = finite_coords(x1, x2)[0]
        return self.a * x1 * x1


@dataclass(frozen=True)
class Bubble(ScalarField):
    """u(x) = 2 ln(8 a) - 2 ln(8 |x - x0|^2 + b), a, b > 0.

    The conformal operator of any member of this family is a constant
    multiple kappa(a, b) of the identity; kappa scales as b / a^2.
    """

    a: float
    b: float
    x0: Vec2 = Vec2(0.0, 0.0)

    def __post_init__(self) -> None:
        if not (self.a > 0.0 and self.b > 0.0):
            raise ValueError("bubble parameters must be positive")
        object.__setattr__(self, "x0", Vec2.of(self.x0))

    def jet(self, x) -> Jet2:
        p = Vec2.of(x)
        dx = p - self.x0
        s = 8.0 * (dx.x1 * dx.x1 + dx.x2 * dx.x2) + self.b
        value = 2.0 * math.log(8.0 * self.a) - 2.0 * math.log(s)
        g = dx * (-32.0 / s)
        c = 512.0 / (s * s)
        hess = Sym2(
            -32.0 / s + c * dx.x1 * dx.x1,
            c * dx.x1 * dx.x2,
            -32.0 / s + c * dx.x2 * dx.x2,
        )
        return Jet2(value, g, hess)

    def values(self, x1, x2) -> np.ndarray:
        x1, x2 = finite_coords(x1, x2)
        # in place, in the order of 2 ln(8 a) - 2 ln(8 (d1 d1 + d2 d2) + b)
        d = np.empty((2,) + x1.shape)
        s, t = d[0, ...], d[1, ...]
        np.subtract(x1, self.x0.x1, out=s)
        np.subtract(x2, self.x0.x2, out=t)
        with np.errstate(over="ignore"):
            np.multiply(d, d, out=d)
            np.add(s, t, out=s)
            np.multiply(s, 8.0, out=s)
            np.add(s, self.b, out=s)
        overflowed = s.max(initial=0.0) == math.inf  # one reduction per call
        np.log(s, out=s)
        if overflowed:
            # where 8 |d|^2 overflows: ln 8 + 2 ln |d| + log1p(b / (8 |d|^2))
            far = np.isinf(s)
            h = np.hypot(x1[far] - self.x0.x1, x2[far] - self.x0.x2)
            s[far] = math.log(8.0) + 2.0 * np.log(h) + np.log1p(self.b / 8.0 / h / h)
        np.multiply(s, 2.0, out=s)
        return np.subtract(2.0 * math.log(8.0 * self.a), s, out=s)

    def radial_value(self, r: float) -> float:
        return 2.0 * math.log(8.0 * self.a) - 2.0 * math.log(8.0 * r * r + self.b)


# ln 8 - 2 ln(1 + |w|^2): the solution of -Laplacian u = e^u that every
# Liouville field pulls back
_STANDARD_BUBBLE = Bubble(math.sqrt(8.0), 8.0)


@dataclass(frozen=True)
class ChenLiBubble(ScalarField):
    """u(x) = 2 ln(8 a) - 2 ln(|x - x0|^2 + 8 a^2); total mass of e^u is 8 pi.

    This is Bubble(8 a, 64 a^2, x0), built once at construction; jet() and
    values() are that bubble's.
    """

    a: float
    x0: Vec2 = Vec2(0.0, 0.0)

    def __post_init__(self) -> None:
        if not self.a > 0.0:
            raise ValueError("scale must be positive")
        object.__setattr__(self, "x0", Vec2.of(self.x0))
        object.__setattr__(self, "_bubble",
                           Bubble(8.0 * self.a, 64.0 * self.a * self.a, self.x0))

    def as_bubble(self) -> Bubble:
        return self._bubble

    def jet(self, x) -> Jet2:
        return self._bubble.jet(x)

    def values(self, x1, x2) -> np.ndarray:
        return self._bubble.values(x1, x2)

    def tail_mass(self, radius: float) -> float:
        """Exact integral of e^u outside the disc of given radius about x0."""
        a2 = self.a * self.a
        return 64.0 * math.pi * a2 / (8.0 * a2 + radius * radius)


@dataclass(frozen=True)
class LiouvilleField(ScalarField):
    """u = ln( 8 |f'|^2 / (1 + |f|^2)^2 ) for a holomorphic f.

    This is the pullback through f of the standard bubble ln 8 - 2 ln(1 + |w|^2),
    so -Laplacian(u) = e^u identically.  values() is that pullback's; jet()
    is the closed form, an independent route to the same numbers.  Both
    raise DomainError where f does (a pole, a polynomial critical point
    within 1e-6) and where |f'| < VANISHING_DERIVATIVE.
    """

    f: AnalyticMap

    def __post_init__(self) -> None:
        if self.f.conjugating:
            raise ConjugatingUnsupported("Liouville fields need a holomorphic f")

    def excluded(self, x) -> bool:
        return self.f.excluded(Vec2.of(x).to_complex())

    def jet(self, x) -> Jet2:
        w, d1, d2, d3 = self.f.jet(Vec2.of(x).to_complex())
        if abs(d1) < VANISHING_DERIVATIVE:
            raise DomainError("vanishing derivative in pullback")
        m = 1.0 + (w * w.conjugate()).real
        wc = w.conjugate()
        q = d2 / d1
        if 2.0 * m == math.inf:
            # 2 m overflows, and with it 2 conj(w) f' for f = e^z, before m does:
            # with e = |w|^-2, ln m = 2 ln|w| + log1p(e), conj(w) / m = (1 / w) / (1 + e)
            e = abs(1.0 / w) ** 2
            wc, m, log_m = 1.0 / w, 1.0 + e, 2.0 * math.log(abs(w)) + math.log1p(e)
            u_zzbar = -2.0 * e * abs(wc * d1 / m) ** 2
        else:
            log_m = math.log(m)
            u_zzbar = -2.0 * (d1 * d1.conjugate()).real / (m * m)
        value = math.log(8.0) + 2.0 * math.log(abs(d1)) - 2.0 * log_m
        u_z = q - 2.0 * wc * d1 / m
        u_zz = (d3 / d1 - q * q) - 2.0 * wc * d2 / m + 2.0 * (wc * d1 / m) ** 2
        return Jet2.from_wirtinger(value, u_z, u_zz, u_zzbar)

    def values(self, x1, x2) -> np.ndarray:
        return PullbackField(_STANDARD_BUBBLE, self.f).values(x1, x2)

    def schwarzian(self, x) -> complex:
        """S(f) = f'''/f' - (3/2)(f''/f')^2; controls the traceless part."""
        fj = self.f.jet(Vec2.of(x).to_complex())
        q = fj.d2 / fj.d1
        return fj.d3 / fj.d1 - 1.5 * q * q


def exp_example() -> LiouvilleField:
    """Liouville field of f = e^z: u = ln(8 e^{2 x1} / (1 + e^{2 x1})^2)."""
    return LiouvilleField(ExpMap())


@dataclass(frozen=True)
class RadialField(ScalarField):
    """Field built from sampled radial data by cubic spline interpolation.

    A profile starting at r = 0 is extended evenly across the origin, which
    pins S'(0) = 0; a profile starting at r > 0 is an annulus field and
    points outside [r_min, r_max] are excluded.
    """

    profile: RadialProfile
    center: Vec2 = Vec2(0.0, 0.0)

    def __post_init__(self) -> None:
        object.__setattr__(self, "center", Vec2.of(self.center))
        p = self.profile
        mirror = p.r[0] == 0.0

        def extend(col: np.ndarray, parity: float) -> np.ndarray:
            return np.concatenate([parity * col[:0:-1], col]) if mirror else col

        r = extend(p.r, -1.0)
        # each sampled column gets its own spline: differentiating a single
        # value spline would amplify sample roundoff by 1/h^2 in the Hessian
        sv = CubicSpline(r, extend(p.v, 1.0))
        sdv = None if p.dv is None else CubicSpline(r, extend(p.dv, -1.0))
        sddv = None if p.ddv is None else CubicSpline(r, extend(p.ddv, 1.0))
        object.__setattr__(self, "_sv", sv)
        object.__setattr__(self, "_sdv", sdv)
        object.__setattr__(self, "_sddv", sddv)

    @property
    def r_min(self) -> float:
        return float(self.profile.r[0])

    @property
    def r_max(self) -> float:
        return float(self.profile.r[-1])

    def _outside(self, r):
        """Radii, scalar or array, beyond the profile range by over 1e-12."""
        return (r < self.r_min - 1e-12) | (r > self.r_max + 1e-12)

    def excluded(self, x) -> bool:
        return self._outside((Vec2.of(x) - self.center).norm())

    def jet(self, x) -> Jet2:
        dx = Vec2.of(x) - self.center
        r = dx.norm()
        if self._outside(r):
            raise DomainError(f"radius {r:.6g} outside profile range")
        sv, sdv, sddv = self._sv, self._sdv, self._sddv
        v = float(sv(r))
        dv = float(sv(r, 1)) if sdv is None else float(sdv(r))
        if sddv is not None:
            ddv = float(sddv(r))
        elif sdv is not None:
            ddv = float(sdv(r, 1))
        else:
            ddv = float(sv(r, 2))
        if r < 1e-7:
            # radial/tangential split degenerates; both curvatures -> S''(0)
            return Jet2(v, Vec2(0.0, 0.0), Sym2(ddv, 0.0, ddv))
        cx, cy = dx.x1 / r, dx.x2 / r
        tang = dv / r
        hess = Sym2(
            ddv * cx * cx + tang * cy * cy,
            (ddv - tang) * cx * cy,
            ddv * cy * cy + tang * cx * cx,
        )
        return Jet2(v, Vec2(dv * cx, dv * cy), hess)

    def values(self, x1, x2) -> np.ndarray:
        x1, x2 = finite_coords(x1, x2)
        r = np.hypot(x1 - self.center.x1, x2 - self.center.x2)
        bad = self._outside(r)
        if bad.any():
            raise DomainError(f"radius {r[bad].flat[0]:.6g} outside profile range")
        return self._sv(r)


@dataclass(frozen=True)
class PullbackField(ScalarField):
    """u_psi = u(psi(x)) + ln |J_psi(x)|; its jet comes from pullback_jets."""

    base: ScalarField
    map: AnalyticMap

    def excluded(self, x) -> bool:
        z = Vec2.of(x).to_complex()
        if self.map.excluded(z):
            return True
        try:
            w = self.map.jet(z).value
        except DomainError:
            return True
        return self.base.excluded(Vec2.from_complex(w))

    def jet(self, x) -> Jet2:
        return pullback_jets(self.base, self.map, x)[2]

    def values(self, x1, x2) -> np.ndarray:
        x1, x2 = finite_coords(x1, x2)
        z = np.multiply(1j, x2)
        np.add(z, x1, out=z)
        # d1 may be w itself (e^z), and base may be a user field: neither
        # is written into
        w, d1 = self.map.values_d1(z)
        log_jac = np.abs(d1)
        if (log_jac < VANISHING_DERIVATIVE).any():
            raise DomainError("vanishing derivative in pullback")
        np.log(log_jac, out=log_jac)
        np.multiply(log_jac, 2.0, out=log_jac)
        return np.add(self.base.values(w.real, w.imag), log_jac, out=log_jac)


def pullback(u: ScalarField, psi: AnalyticMap) -> PullbackField:
    """Field x -> u(psi(x)) + ln |J_psi(x)|."""
    return PullbackField(u, psi)


def pullback_jets(u: ScalarField, psi: AnalyticMap, x) -> tuple[MapJet, Jet2, Jet2]:
    """The jets of psi at x, of u at psi(x) and of u_psi at x, each once.

    The chain rule runs in Wirtinger form.  With q2 = psi''/psi' and
    q3 = psi'''/psi', for holomorphic psi

        v_z     = (u_w o psi) psi' + q2,
        v_zz    = (u_ww o psi) psi'^2 + (u_w o psi) psi'' + (q3 - q2^2),
        v_zzbar = (u_wwbar o psi) |psi'|^2,

    and for orientation-reversing psi the first two lines are conjugated
    (with the generating-function jet in place of psi derivatives).
    """
    mj = psi.jet(Vec2.of(x).to_complex())
    if abs(mj.d1) < VANISHING_DERIVATIVE:
        raise DomainError("vanishing derivative in pullback")
    bj = u.jet(Vec2.from_complex(mj.value))
    uw, uww, uwwbar = bj.u_z, bj.u_zz, bj.u_zzbar
    q2 = mj.d2 / mj.d1
    q3 = mj.d3 / mj.d1
    v_z = uw * mj.d1 + q2
    v_zz = uww * mj.d1 * mj.d1 + uw * mj.d2 + (q3 - q2 * q2)
    if psi.conjugating:
        v_z = v_z.conjugate()
        v_zz = v_zz.conjugate()
    v_zzbar = uwwbar * (mj.d1 * mj.d1.conjugate()).real
    value = bj.value + 2.0 * math.log(abs(mj.d1))
    return mj, bj, Jet2.from_wirtinger(value, v_z, v_zz, v_zzbar)


def fd_jet(u: ScalarField, x, h: float | None = None, richardson: bool = False) -> Jet2:
    """Second-order central-difference jet of the value channel.

    Used as the independent oracle for analytic jets: each stencil is one
    u.values call, so no jet code runs.  With richardson=True the h and h/2
    stencils are combined, lifting accuracy to fourth order.  The stencil
    spans a disc of radius 2h around x and raises DomainError where the
    field does.
    """
    p = Vec2.of(x)
    if h is None:
        h = 1e-4 * (1.0 + p.norm())
    # centre, E, W, N, S, NE, SE, NW, SW in units of the step
    o1 = np.array([0.0, 1.0, -1.0, 0.0, 0.0, 1.0, 1.0, -1.0, -1.0])
    o2 = np.array([0.0, 0.0, 0.0, 1.0, -1.0, 1.0, -1.0, 1.0, -1.0])

    def stencil(step: float) -> tuple[float, Vec2, Sym2]:
        f00, fe, fw, fn, fs, fne, fse, fnw, fsw = u.values(
            p.x1 + step * o1, p.x2 + step * o2).tolist()
        gx = (fe - fw) / (2.0 * step)
        gy = (fn - fs) / (2.0 * step)
        hxx = (fe - 2.0 * f00 + fw) / (step * step)
        hyy = (fn - 2.0 * f00 + fs) / (step * step)
        hxy = (fne - fse - fnw + fsw) / (4.0 * step * step)
        return f00, Vec2(gx, gy), Sym2(hxx, hxy, hyy)

    f00, g1, h1 = stencil(h)
    if not richardson:
        return Jet2(f00, g1, h1)
    _, g2, h2 = stencil(0.5 * h)
    grad = Vec2((4.0 * g2.x1 - g1.x1) / 3.0, (4.0 * g2.x2 - g1.x2) / 3.0)
    hess = Sym2(
        (4.0 * h2.a11 - h1.a11) / 3.0,
        (4.0 * h2.a12 - h1.a12) / 3.0,
        (4.0 * h2.a22 - h1.a22) / 3.0,
    )
    return Jet2(f00, grad, hess)


# -- serialization -----------------------------------------------------------
#
# A field is written as {"family": name} and a map as {"kind": name}, plus one
# entry per dataclass field, coded by the field's declared type: nested fields
# and maps the same way, Vec2 and complex values as [x, y] pairs, tuples as
# lists.  A missing key falls back to the dataclass default.  A RadialField
# writes its profile columns r, v[, dv, ddv] flat beside "center".  A MobiusMap
# loads through MobiusMap.restored, so saved (normalized) coefficients come
# back bit for bit.

FIELD_FAMILIES: dict[str, type] = {
    "constant": ConstantField,
    "quadratic": QuadraticField,
    "bubble": Bubble,
    "chen_li": ChenLiBubble,
    "liouville": LiouvilleField,
    "radial": RadialField,
    "pullback": PullbackField,
}
MAP_KINDS: dict[str, type] = {
    "mobius": MobiusMap,
    "polynomial": PolynomialMap,
    "exp": ExpMap,
    "composed": ComposedMap,
}
_NOUN = {"family": "field", "kind": "map"}


def _pair(w: complex) -> list[float]:
    return [w.real, w.imag]


def _complex(v) -> complex:
    if isinstance(v, (list, tuple)):
        re, im = v
        return complex(re, im)
    return complex(v)


@functools.cache
def _entries(cls: type) -> tuple[tuple[str, object], ...]:
    hints = typing.get_type_hints(cls)
    return tuple((f.name, hints[f.name]) for f in dataclasses.fields(cls))


def _encode(obj, registry: dict, tag: str) -> dict:
    name = next((n for k in type(obj).__mro__
                 for n, cls in registry.items() if cls is k), None)
    if name is None:
        raise ValueError(f"cannot serialize {_NOUN[tag]} of type {type(obj).__name__}")
    out = {tag: name}
    for key, tp in _entries(type(obj)):
        v = getattr(obj, key)
        if tp is RadialProfile:
            # derivative columns carry accuracy the value spline alone cannot
            out.update((col, getattr(v, col).tolist()) for col in v.columns())
        else:
            out[key] = _CODECS[tp][0](v)
    return out


def _decode(payload, registry: dict, tag: str):
    if not isinstance(payload, dict):
        raise ValueError(f"{_NOUN[tag]} spec must be a JSON object, "
                         f"not {type(payload).__name__}")
    cls = registry.get(payload.get(tag))
    if cls is None:
        raise ValueError(f"unknown {_NOUN[tag]} {tag} {payload.get(tag)!r}")
    kwargs = {}
    for key, tp in _entries(cls):
        if tp is RadialProfile:
            kwargs[key] = RadialProfile(payload["r"], payload["v"],
                                        payload.get("dv"), payload.get("ddv"))
        elif key in payload:
            kwargs[key] = _CODECS[tp][1](payload[key])
    return (MobiusMap.restored if cls is MobiusMap else cls)(**kwargs)


def field_to_dict(u: ScalarField) -> dict:
    return _encode(u, FIELD_FAMILIES, "family")


def field_from_dict(payload: dict) -> ScalarField:
    if isinstance(payload, dict) and payload.get("family") == "exp_example":
        return exp_example()  # legacy name of {"family": "liouville", "f": {"kind": "exp"}}
    return _decode(payload, FIELD_FAMILIES, "family")


def map_to_dict(m: AnalyticMap) -> dict:
    return _encode(m, MAP_KINDS, "kind")


def map_from_dict(payload: dict) -> AnalyticMap:
    return _decode(payload, MAP_KINDS, "kind")


# declared type -> (encode, decode) of one entry
_CODECS = {
    float: (lambda v: v, float),
    bool: (lambda v: v, bool),
    complex: (_pair, _complex),
    tuple[complex, ...]: (lambda t: [_pair(w) for w in t], lambda v: tuple(map(_complex, v))),
    Vec2: (lambda p: [p.x1, p.x2], Vec2.of),
    ScalarField: (field_to_dict, field_from_dict),
    AnalyticMap: (map_to_dict, map_from_dict),
}
