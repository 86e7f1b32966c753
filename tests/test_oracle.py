"""Each family's float jet, and A(u) and B(u) from it, against the 50-digit
oracle in oracle.py, entry by entry: the closed forms, the pullback chain
rule, a_from_jet and b_from_jet against mp.diff of u written again in
mpmath."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import BOX, CASES, CHANNELS, OPERATORS, errors

# in units of eps * max(1, |entry|).  Jet channels: the largest error seen
# is 12.6 over 1,581 seeded points per family (1,500 uniform in the box and
# a 9 x 9 grid on it) and 10.8 over 1,500 hypothesis points per family, both
# in the composed pullback's value.
BOUND = 16.0
# A(u) and B(u): their entries cancel terms of size e^{-u} (|Hess u| + |du|^2),
# which can be well above max(1, |entry|).  The largest error seen is 69.8
# over the same seeded points (a22 of the polynomial pullback) and 64.1 over
# 1,500 hypothesis points (a12 of the composed pullback).
OPERATOR_BOUND = 8 * BOUND

coords = st.floats(-BOX, BOX, allow_nan=False)


# one test per family for both, so that each point's mp.diff runs once
@pytest.mark.parametrize("name", sorted(CASES))
@settings(max_examples=30, deadline=None, derandomize=True)
@given(x1=coords, x2=coords)
def test_jet_channels_and_operators_match_the_oracle(name, x1, x2):
    errs = errors(CASES[name], x1, x2)
    assert max(errs[c] for c in CHANNELS) <= BOUND, errs
    assert max(errs[c] for c in OPERATORS) <= OPERATOR_BOUND, errs
