"""The domain of composed maps and pullbacks, as their jets' guards state
it, the radial solver's diagonal seed for a user function, and
SolveConfig's residual bound."""

import math

import pytest

from conformal2d import Bubble, Vec2
from conformal2d.errors import DomainError, PoleError, SeedError
from conformal2d.fields import PullbackField
from conformal2d.mobius import ComposedMap, MobiusMap, PolynomialMap
from conformal2d.ops import ConeIndex, SymmetricFunction
from conformal2d.radial import SolveConfig, _diagonal_seed, ode_solve

# pole at -2; |c| < 1, so its jet refuses points within 1e-14 / |c| of it
MOBIUS = MobiusMap(1.0, 0.0, 0.5, 1.0)
# critical point 0; f' = 0.2 z is below the 1e-6 guard at z = 2e-6
FLAT = PolynomialMap([0.0, 0.0, 0.1])


def test_composed_map_jet_raises_where_its_inner_map_does():
    composed = ComposedMap(MOBIUS, FLAT)
    for z in (0j, 2e-6 + 0j):  # the inner map's critical point, and 2e-6 from it
        with pytest.raises(DomainError, match="critical point"):
            FLAT.jet(z)
        with pytest.raises(DomainError, match="critical point"):
            composed.jet(z)
    composed.jet(1 + 0j)
    # the inner map sends 1 onto the outer map's pole
    with pytest.raises(PoleError):
        ComposedMap(MOBIUS, PolynomialMap([-3.0, 1.0])).jet(1 + 0j)


def test_pullback_jet_raises_at_a_mobius_pole():
    with pytest.raises(PoleError):
        PullbackField(Bubble(1.0, 8.0), MOBIUS).jet(Vec2(-2.0, 0.0))
    PullbackField(Bubble(1.0, 8.0), MOBIUS).jet(Vec2(0.0, 0.0))
    with pytest.raises(DomainError, match="critical point"):
        PullbackField(Bubble(1.0, 8.0), FLAT).jet(Vec2(2e-6, 0.0))


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
