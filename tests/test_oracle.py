"""Each family's float jet against the 50-digit oracle in oracle.py, channel
by channel: the closed forms and the pullback chain rule against mp.diff of
u written again in mpmath."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import BOX, CASES, errors

# in units of eps * max(1, |channel|): the largest error seen is 5.3 over 200
# seeded points per family (python tests/oracle.py) and 6.8 over 1,500
# hypothesis points per family, in the conjugating pullback's value
BOUND = 16.0

coords = st.floats(-BOX, BOX, allow_nan=False)


@pytest.mark.parametrize("name", sorted(CASES))
@settings(max_examples=30, deadline=None, derandomize=True)
@given(x1=coords, x2=coords)
def test_jet_channels_match_the_oracle(name, x1, x2):
    errs = errors(CASES[name], x1, x2)
    assert max(errs.values()) <= BOUND, errs
