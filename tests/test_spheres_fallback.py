"""A moving-spheres search that the one-sample probe does not certify is the
plain full-grid search: halving, bisection and a brentq polish, as the
reference search in test_spheres_search states it."""

import pytest

from conformal2d import (
    Bubble,
    LiouvilleField,
    PolynomialMap,
    Vec2,
    critical_lambda,
    pullback,
    slack_stats,
)
from test_spheres import SLACK_CASES
from test_spheres_search import ref_critical_lambda, report_bits

# fields that touch their moving sphere away from the probe's sample
NON_BUBBLES = {
    "liouville_poly": SLACK_CASES["liouville_poly"][:2],
    "liouville_quadratic": (LiouvilleField(PolynomialMap([0.1, 1.0, 0.05])), Vec2(0.1, -0.2)),
    "liouville_cubic": (LiouvilleField(PolynomialMap([0.0, 1.0, 0.1, 0.05])), Vec2(0.1, 0.0)),
    # psi' = 1 + 0.2 z vanishes at -5, inside the sample range
    "pullback_quadratic": (pullback(Bubble(1.0, 8.0), PolynomialMap([0.0, 1.0, 0.1])),
                           Vec2(0.1, 0.0)),
}


@pytest.mark.parametrize("name", sorted(NON_BUBBLES))
def test_uncertified_search_is_the_reference_search(name):
    u, x = NON_BUBBLES[name]
    rep = critical_lambda(u, x, 64.0)
    assert report_bits(rep) == report_bits(ref_critical_lambda(u, x, 64.0))
    # the probe's root grid, or the grid above it, refused the certificate
    assert len(rep.trace) > 3


def test_search_follows_the_reference_where_admissibility_is_not_monotone():
    u, x = NON_BUBBLES["pullback_quadratic"]
    admissible = {lam: slack_stats(u, x, lam).admissible
                  for lam in (0.25, 0.30, 0.33, 0.35, 0.38, 0.41)}
    assert admissible == {0.25: True, 0.30: False, 0.33: True, 0.35: False,
                          0.38: False, 0.41: True}
    rep = critical_lambda(u, x, 64.0)
    assert rep.lambda_bar == ref_critical_lambda(u, x, 64.0).lambda_bar
    assert rep.lambda_bar == pytest.approx(0.346895, rel=1e-6)
