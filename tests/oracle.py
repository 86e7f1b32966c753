"""A 50-digit oracle for field jets.

Each family's u is written again in mpmath, from the parameters the float
object stores, and its Wirtinger channels come from mp.diff: no closed-form
derivative and no chain rule of the package is on this route.
``PYTHONPATH=src python tests/oracle.py`` prints each family's channel
errors, in units of eps times the channel's scale max(1, |channel|), over
200 seeded points.
"""

from mpmath import mp, mpc, mpf

from conformal2d import (
    Bubble,
    ExpMap,
    LiouvilleField,
    MobiusMap,
    PolynomialMap,
    PullbackField,
    QuadraticField,
)

DIGITS = 50
EPS = 2.0 ** -52
CHANNELS = ("value", "u_z", "u_zz", "u_zzbar")


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


MAPS = {MobiusMap: _mobius, PolynomialMap: _polynomial, ExpMap: _exp}


# -- fields: z -> u(z) --------------------------------------------------------------


def _bubble(u):
    a, b, x0 = mpf(u.a), mpf(u.b), mpc(u.x0.x1, u.x0.x2)
    return lambda z: 2 * mp.log(8 * a) - 2 * mp.log(8 * abs(z - x0) ** 2 + b)


def _quadratic(u):
    a = mpf(u.a)
    return lambda z: a * z.real ** 2


def _liouville(u):
    f = MAPS[type(u.f)](u.f)

    def value(z):
        w, dw = f(z)
        return mp.log(8 * dw ** 2 / (1 + abs(w) ** 2) ** 2)
    return value


def _pullback(u):
    base, psi = field(u.base), MAPS[type(u.map)](u.map)

    def value(z):
        w, dw = psi(z)
        return base(w) + 2 * mp.log(dw)
    return value


FIELDS = {Bubble: _bubble, QuadraticField: _quadratic, LiouvilleField: _liouville,
          PullbackField: _pullback}


def field(u):
    """u as a function of one mpc point."""
    return FIELDS[type(u)](u)


def channels(u, x1: float, x2: float) -> tuple:
    """(value, u_z, u_zz, u_zzbar) of u at (x1, x2), to DIGITS digits."""
    with mp.workdps(DIGITS):
        fn = field(u)  # the polynomial's derivative coefficients round at DIGITS too
        g = lambda s, t: fn(mpc(s, t))  # noqa: E731
        p = (mpf(x1), mpf(x2))
        ux, uy, uxx, uxy, uyy = (mp.diff(g, p, order)
                                 for order in ((1, 0), (0, 1), (2, 0), (1, 1), (0, 2)))
        return (g(*p), (ux - 1j * uy) / 2, (uxx - uyy - 2j * uxy) / 4, (uxx + uyy) / 4)


def errors(u, x1: float, x2: float) -> dict:
    """Each channel's error in units of EPS * max(1, |channel|)."""
    jet = u.jet((x1, x2))
    with mp.workdps(DIGITS):
        return {name: float(abs(getattr(jet, name) - want) / (EPS * max(1, abs(want))))
                for name, want in zip(CHANNELS, channels(u, x1, x2))}


# -- the families the oracle test covers ----------------------------------------------

CASES = {
    "bubble": Bubble(0.7, 3.0, (0.2, -0.1)),
    "quadratic": QuadraticField(1.3),
    "liouville-cubic": LiouvilleField(PolynomialMap([0.1, 1.0, 0.3, 0.05])),
    "liouville-exp": LiouvilleField(ExpMap()),
    "pullback-mobius": PullbackField(Bubble(1.0, 8.0), MobiusMap(1.1, 0.2, 0.1, 1.0)),
    "pullback-mobius-conjugating": PullbackField(
        Bubble(1.0, 8.0), MobiusMap(0.9 + 0.3j, -0.2, 0.15j, 1.1, True)),
}
BOX = 1.2  # points lie in [-BOX, BOX]^2


if __name__ == "__main__":
    import numpy as np

    rng = np.random.default_rng(0)
    pts = rng.uniform(-BOX, BOX, (200, 2)).tolist()
    for name, u in CASES.items():
        errs = np.array([[e[c] for c in CHANNELS] for e in (errors(u, *p) for p in pts)])
        cells = ", ".join(f"{c} median {np.median(col):.2g} p99 {np.quantile(col, 0.99):.2g} "
                          f"max {col.max():.2g}" for c, col in zip(CHANNELS, errs.T))
        print(f"{name}: {cells}")
