"""Excluded-point predicates of composed maps and pullbacks, the radial
solver's diagonal seed for a user function, and SolveConfig's residual
bound."""

import math

import pytest

from conformal2d import Bubble, Vec2
from conformal2d.errors import SeedError
from conformal2d.fields import PullbackField
from conformal2d.mobius import ComposedMap, MobiusMap, PolynomialMap
from conformal2d.ops import ConeIndex, SymmetricFunction
from conformal2d.radial import SolveConfig, _diagonal_seed, ode_solve

# pole at -2; |c| < 1, so its jet refuses points the pole guard still admits
MOBIUS = MobiusMap(1.0, 0.0, 0.5, 1.0)
# critical point 0; f' = 0.2 z is below the 1e-6 guard at z = 2e-6, which is
# outside the guard radius about the critical point
FLAT = PolynomialMap([0.0, 0.0, 0.1])


def test_composed_map_excluded_points():
    composed = ComposedMap(MOBIUS, FLAT)
    assert composed.excluded(0j)  # the inner map's critical point
    assert not FLAT.excluded(2e-6 + 0j)
    assert composed.excluded(2e-6 + 0j)  # the inner jet raises there
    assert not composed.excluded(1 + 0j)
    # the inner map sends 1 onto the outer map's pole
    assert ComposedMap(MOBIUS, PolynomialMap([-3.0, 1.0])).excluded(1 + 0j)


def test_pullback_excluded_points():
    assert PullbackField(Bubble(1.0, 8.0), MOBIUS).excluded(Vec2(-2.0, 0.0))
    assert not PullbackField(Bubble(1.0, 8.0), MOBIUS).excluded(Vec2(0.0, 0.0))
    assert PullbackField(Bubble(1.0, 8.0), FLAT).excluded(Vec2(2e-6, 0.0))


def scaled_sigma1(k: float, shift: float = 0.0) -> SymmetricFunction:
    """shift + k (lambda1 + lambda2), with no closed-form lambda1."""
    return SymmetricFunction(f"{shift}+{k}sigma1", lambda l1, l2: shift + k * (l1 + l2),
                             lambda l1, l2: (k, k), ConeIndex(2.0))


def test_diagonal_seed_doubles_its_bracket():
    # f(mu, mu) = mu / 2 = 1 lies beyond the first bracket end 1
    assert _diagonal_seed(scaled_sigma1(0.25)) == 2.0


@pytest.mark.parametrize("f, message", [
    (scaled_sigma1(1.0, shift=1.0), "f exceeds 1 already at the diagonal origin"),
    (scaled_sigma1(1e-13), "no diagonal root below 1e12"),
])
def test_diagonal_seed_refuses_functions_without_a_root(f, message):
    with pytest.raises(SeedError, match=message):
        ode_solve(f, r_max=1.0)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_root_residual_bound_must_be_finite_and_positive(value):
    with pytest.raises(ValueError, match=f"root_residual_max must be finite and > 0, "
                                         f"got {value!r}"):
        SolveConfig(root_residual_max=value)
