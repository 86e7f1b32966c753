"""valid_points draws its candidates in blocks; it must return the points,
and leave the generator in the state, that drawing one candidate at a time
does, whether the call returns or raises.  The Jacobian checks of the
covariance law test finiteness before they divide."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import conformal2d.invariance as invariance
import conformal2d.suites as suites
from conformal2d import MobiusMap
from conformal2d.errors import Conformal2dError, PoleError
from conformal2d.invariance import annulus_points, valid_points


def one_at_a_time(rng, n, usable, r_in=0.5, r_out=3.0, max_tries=200):
    """valid_points as it drew one candidate per annulus_points call."""
    out = []
    tries = 0
    while len(out) < n:
        tries += 1
        if tries > max_tries * n:
            raise Conformal2dError("could not sample enough admissible points")
        p = annulus_points(rng, 1, r_in, r_out)[0]
        try:
            if usable(p):
                out.append(p)
        except (Conformal2dError, OverflowError):
            continue
    return out


class Propagated(Exception):
    pass


ACTIONS = {
    "accept": lambda: True,
    "reject": lambda: False,
    "pole": PoleError("pole"),
    "conformal": Conformal2dError("absorbed"),
    "overflow": OverflowError("absorbed"),
    "raise": Propagated("propagated"),
    "key": KeyError("propagated"),
}


def scripted(actions):
    """A usable callback acting by call index (accepting past the script),
    which records the points it is asked about."""
    seen = []

    def usable(p):
        seen.append((float.hex(float(p.x1)), float.hex(float(p.x2))))
        act = ACTIONS[actions[len(seen) - 1]] if len(seen) <= len(actions) else ACTIONS["accept"]
        if isinstance(act, Exception):
            raise act
        return act()

    return usable, seen


def run(draw, rng, n, actions, **kwargs):
    usable, seen = scripted(actions)
    try:
        got = ("ok", [(float.hex(float(p.x1)), float.hex(float(p.x2)))
                      for p in draw(rng, n, usable, **kwargs)])
    except Exception as e:  # noqa: BLE001 - compared, not swallowed
        got = ("raised", type(e), str(e))
    return got, seen, frozen(rng.bit_generator.state)


def frozen(state):
    """A generator state with its arrays as lists, comparable with ==."""
    if isinstance(state, dict):
        return {k: frozen(v) for k, v in state.items()}
    return state.tolist() if isinstance(state, np.ndarray) else state


BIT_GENERATORS = [np.random.PCG64, np.random.MT19937, np.random.Philox, np.random.SFC64]


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       bits=st.sampled_from(BIT_GENERATORS),
       n=st.integers(0, 7),
       actions=st.lists(st.sampled_from(sorted(ACTIONS)), max_size=25),
       max_tries=st.integers(0, 3),
       radii=st.sampled_from([(0.5, 3.0), (0.0, 1.0), (2.0, 2.0), (3.0, 0.5)]))
def test_block_draws_match_one_draw_per_candidate(seed, bits, n, actions, max_tries, radii):
    kwargs = dict(r_in=radii[0], r_out=radii[1], max_tries=max_tries)
    want = run(one_at_a_time, np.random.Generator(bits(seed)), n, actions, **kwargs)
    got = run(valid_points, np.random.Generator(bits(seed)), n, actions, **kwargs)
    assert got == want


@pytest.mark.parametrize("actions, n, max_tries, outcome", [
    (["reject"] * 6, 2, 3, Conformal2dError),  # exhausted on the last try
    (["reject"] * 4, 2, 3, None),
    (["accept", "overflow", "raise"], 3, 200, Propagated),
    (["conformal"] * 4 + ["key"], 2, 200, KeyError),
])
def test_returns_and_raises_where_one_draw_per_candidate_does(actions, n, max_tries, outcome):
    want = run(one_at_a_time, np.random.default_rng(5), n, actions, max_tries=max_tries)
    got = run(valid_points, np.random.default_rng(5), n, actions, max_tries=max_tries)
    assert got == want
    if outcome is None:
        assert got[0][0] == "ok"
    else:
        assert got[0][:2] == ("raised", outcome)


def test_the_suite_candidates_match_one_draw_per_candidate():
    rng_a, rng_b = np.random.default_rng(7), np.random.default_rng(7)
    u = suites.standard_fields(np.random.default_rng(3))[7][1]
    m = MobiusMap(1.1, 0.2, 0.1, 1.0)
    for _ in range(3):
        jets_a, jets_b = [], []
        a = valid_points(rng_a, 20, suites._usable_for(u, m, jets_a))
        b = one_at_a_time(rng_b, 20, suites._usable_for(u, m, jets_b))
        assert a == b and jets_a == jets_b
        assert frozen(rng_a.bit_generator.state) == frozen(rng_b.bit_generator.state)


# -- an infinite map derivative ------------------------------------------------------


def sampled_block(n=4):
    rng = np.random.default_rng(11)
    u = suites.standard_fields(rng)[6][1]
    m = MobiusMap(1.1, 0.2, 0.1, 1.0)
    jets = []
    pts = valid_points(rng, n, suites._usable_for(u, m, jets))
    return u, m, pts, jets


@pytest.mark.parametrize("d1", [complex(math.inf, 0.0), complex(0.0, -math.inf),
                                complex(math.nan, 1.0)])
def test_an_infinite_derivative_raises_before_any_warning(d1):
    u, m, pts, jets = sampled_block()
    bad = jets[2][0]._replace(d1=d1)
    jets[2] = (bad, *jets[2][1:])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="non-finite entry") as direct:
            m.jacobian_of(bad)
        with pytest.raises(ValueError, match="non-finite entry") as block:
            invariance.covariance_errors_at(u, m, pts, jets)
    assert str(block.value) == str(direct.value)
