"""The scipy routines the package calls, imported on first call.

Loading scipy.optimize and scipy.interpolate would take most of the time of
``import conformal2d``, and most entry points never call them.  Each wrapper
forwards its arguments unchanged, so results are those of scipy itself.
"""


def brentq(*args, **kwargs):
    from scipy.optimize import brentq

    return brentq(*args, **kwargs)


def CubicSpline(*args, **kwargs):
    from scipy.interpolate import CubicSpline

    return CubicSpline(*args, **kwargs)
