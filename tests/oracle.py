"""A 50-digit oracle for field jets and the operators A(u) and B(u).

Each family's u is written again in mpmath, from the parameters the float
object stores, and its partial derivatives come from mp.diff: no
closed-form derivative and no chain rule of the package is on this route.
The Wirtinger channels, A(u) = e^{-u}(-Hess u + du (x) du / 2 - |du|^2 I / 4)
and B(u) = (-e^{-u} u_zzbar, e^{-u}(-u_zz + u_z^2 / 2)) are formed from
those derivatives at 50 digits.  ``PYTHONPATH=src python tests/oracle.py``
prints each family's channel and operator entry errors, in units of eps
times the entry's scale max(1, |entry|), over 200 seeded points.
"""

from mpmath import mp, mpc, mpf

from conformal2d import (
    Bubble,
    ChenLiBubble,
    ComposedMap,
    ConstantField,
    ExpMap,
    LiouvilleField,
    MobiusMap,
    PolynomialMap,
    PullbackField,
    QuadraticField,
    a_from_jet,
    b_from_jet,
)

DIGITS = 50
EPS = 2.0 ** -52
CHANNELS = ("value", "u_z", "u_zz", "u_zzbar")
OPERATORS = ("a11", "a12", "a22", "b_zzbar", "b_zz")


# -- maps: z -> (psi(z), |psi'(z)|) -----------------------------------------------


def _mobius(m):
    a, b, c, d = (mpc(w.real, w.imag) for w in (m.a, m.b, m.c, m.d))

    def psi(z):
        w = mp.conj(z) if m.conjugating else z
        q = c * w + d
        return (a * w + b) / q, abs(a * d - b * c) / abs(q) ** 2
    return psi


def _polynomial(m):
    coeffs = [mpc(w.real, w.imag) for w in reversed(m.coeffs)]
    slopes = [k * w for k, w in zip(range(len(coeffs) - 1, 0, -1), coeffs)]
    return lambda z: (mp.polyval(coeffs, z), abs(mp.polyval(slopes, z)))


def _exp(m):
    return lambda z: (mp.exp(z), abs(mp.exp(z)))


def _composed(m):
    outer, inner = map_(m.outer), map_(m.inner)

    def psi(z):
        w, dw = inner(z)
        v, dv = outer(w)
        return v, dv * dw
    return psi


MAPS = {MobiusMap: _mobius, PolynomialMap: _polynomial, ExpMap: _exp, ComposedMap: _composed}


def map_(m):
    """m as a function of one mpc point, returning (psi(z), |psi'(z)|)."""
    return MAPS[type(m)](m)


# -- fields: z -> u(z) --------------------------------------------------------------


def _bubble(u):
    a, b, x0 = mpf(u.a), mpf(u.b), mpc(u.x0.x1, u.x0.x2)
    return lambda z: 2 * mp.log(8 * a) - 2 * mp.log(8 * abs(z - x0) ** 2 + b)


def _chen_li(u):
    a, x0 = mpf(u.a), mpc(u.x0.x1, u.x0.x2)
    return lambda z: 2 * mp.log(8 * a) - 2 * mp.log(abs(z - x0) ** 2 + 8 * a ** 2)


def _constant(u):
    c = mpf(u.c)
    return lambda z: c


def _quadratic(u):
    a = mpf(u.a)
    return lambda z: a * z.real ** 2


def _liouville(u):
    f = map_(u.f)

    def value(z):
        w, dw = f(z)
        return mp.log(8 * dw ** 2 / (1 + abs(w) ** 2) ** 2)
    return value


def _pullback(u):
    base, psi = field(u.base), map_(u.map)

    def value(z):
        w, dw = psi(z)
        return base(w) + 2 * mp.log(dw)
    return value


FIELDS = {Bubble: _bubble, ChenLiBubble: _chen_li, ConstantField: _constant,
          QuadraticField: _quadratic, LiouvilleField: _liouville, PullbackField: _pullback}


def field(u):
    """u as a function of one mpc point."""
    return FIELDS[type(u)](u)


def _partials(u, x1: float, x2: float) -> tuple:
    """(u, u_x, u_y, u_xx, u_xy, u_yy) at (x1, x2); call under mp.workdps(DIGITS)."""
    fn = field(u)  # the polynomial's derivative coefficients round at DIGITS too
    g = lambda s, t: fn(mpc(s, t))  # noqa: E731
    p = (mpf(x1), mpf(x2))
    return (g(*p), *(mp.diff(g, p, order)
                     for order in ((1, 0), (0, 1), (2, 0), (1, 1), (0, 2))))


def _channels(v, ux, uy, uxx, uxy, uyy) -> tuple:
    """(value, u_z, u_zz, u_zzbar) from the partials."""
    return v, (ux - 1j * uy) / 2, (uxx - uyy - 2j * uxy) / 4, (uxx + uyy) / 4


def _operators(v, ux, uy, uxx, uxy, uyy) -> tuple:
    """A(u)'s entries a11, a12, a22 from the real partials, and B(u)'s
    entries zzbar, zz from the channels."""
    e, q = mp.exp(-v), (ux ** 2 + uy ** 2) / 4
    _, u_z, u_zz, u_zzbar = _channels(v, ux, uy, uxx, uxy, uyy)
    return (e * (-uxx + ux * ux / 2 - q), e * (-uxy + ux * uy / 2), e * (-uyy + uy * uy / 2 - q),
            -e * u_zzbar, e * (-u_zz + u_z ** 2 / 2))


def errors(u, x1: float, x2: float) -> dict:
    """The error of each jet channel and of each entry of a_from_jet and
    b_from_jet of that jet, in units of EPS * max(1, |entry|)."""
    jet = u.jet((x1, x2))
    a, b = a_from_jet(jet), b_from_jet(jet)
    got = (jet.value, jet.u_z, jet.u_zz, jet.u_zzbar, a.a11, a.a12, a.a22, b.zzbar, b.zz)
    with mp.workdps(DIGITS):
        d = _partials(u, x1, x2)
        want = _channels(*d) + _operators(*d)
        return {name: float(abs(g - w) / (EPS * max(1, abs(w))))
                for name, g, w in zip(CHANNELS + OPERATORS, got, want)}


# -- the families the oracle test covers ----------------------------------------------

CASES = {
    "bubble": Bubble(0.7, 3.0, (0.2, -0.1)),
    "quadratic": QuadraticField(1.3),
    "liouville-cubic": LiouvilleField(PolynomialMap([0.1, 1.0, 0.3, 0.05])),
    "liouville-exp": LiouvilleField(ExpMap()),
    "pullback-mobius": PullbackField(Bubble(1.0, 8.0), MobiusMap(1.1, 0.2, 0.1, 1.0)),
    "pullback-mobius-conjugating": PullbackField(
        Bubble(1.0, 8.0), MobiusMap(0.9 + 0.3j, -0.2, 0.15j, 1.1, True)),
    "chen-li": ChenLiBubble(0.6, (-0.1, 0.1)),
    "constant": ConstantField(0.7),
    # no critical point or pole near the box: 1 + 0.6i z vanishes at 5i/3 and
    # 1 + 0.4 z at -2.5, and the Moebius pole 5i is far from the inner image
    "pullback-polynomial": PullbackField(Bubble(1.0, 8.0), PolynomialMap([0.1, 1.0, 0.3j])),
    "pullback-composed": PullbackField(Bubble(1.0, 8.0), ComposedMap(
        MobiusMap(1.0, 0.3, 0.2j, 1.0), PolynomialMap([0.0, 1.0, 0.2]))),
}
BOX = 1.2  # points lie in [-BOX, BOX]^2


if __name__ == "__main__":
    import numpy as np

    rng = np.random.default_rng(0)
    pts = rng.uniform(-BOX, BOX, (200, 2)).tolist()
    for name, u in CASES.items():
        errs = np.array([[e[c] for c in CHANNELS + OPERATORS]
                         for e in (errors(u, *p) for p in pts)])
        cells = ", ".join(f"{c} median {np.median(col):.2g} p99 {np.quantile(col, 0.99):.2g} "
                          f"max {col.max():.2g}" for c, col in zip(CHANNELS + OPERATORS, errs.T))
        print(f"{name}: {cells}")
