"""The 2D value types keep the frozen-dataclass contract with their
hand-written constructors: equality, hashing, repr, pickling, copying,
immutability, their dataclass fields and their error messages.  A
CheckReport refuses a verdict that is not max_error <= tolerance."""

import copy
import dataclasses
import json
import math
import pickle

import numpy as np
import pytest

from conformal2d import (
    Bubble,
    CheckReport,
    EigenPair,
    Jet2,
    Sym2,
    Vec2,
    field_from_dict,
    field_to_dict,
)

CASES = [
    (Vec2, (1.5, -0.25), "Vec2(x1=1.5, x2=-0.25)"),
    (Sym2, (2.0, -0.5, 3.25), "Sym2(a11=2.0, a12=-0.5, a22=3.25)"),
    (EigenPair, (3.0, -1.0), "EigenPair(lambda1=3.0, lambda2=-1.0)"),
    (Jet2, (0.5, complex(0.5, -1.0), complex(0.0, -0.5), 0.25),
     "Jet2(value=0.5, u_z=(0.5-1j), u_zz=-0.5j, u_zzbar=0.25)"),
]
IDS = [cls.__name__ for cls, _, _ in CASES]
FIELDS = {Vec2: ("x1", "x2"), Sym2: ("a11", "a12", "a22"),
          EigenPair: ("lambda1", "lambda2"), Jet2: ("value", "u_z", "u_zz", "u_zzbar")}


@pytest.mark.parametrize("cls, args, text", CASES, ids=IDS)
def test_eq_hash_repr(cls, args, text):
    a, b = cls(*args), cls(*args)
    assert a == b and hash(a) == hash(b)
    assert a != cls(*((args[0] + 1.0,) + args[1:]))
    assert a != args
    assert repr(a) == text
    assert cls(**dict(zip(FIELDS[cls], args))) == a


@pytest.mark.parametrize("cls, args, text", CASES, ids=IDS)
def test_pickle_and_copy_round_trips(cls, args, text):
    a = cls(*args)
    for b in (pickle.loads(pickle.dumps(a)), copy.copy(a), copy.deepcopy(a)):
        assert type(b) is cls and b == a and hash(b) == hash(a) and repr(b) == text


@pytest.mark.parametrize("cls, args, text", CASES, ids=IDS)
def test_frozen_and_dataclass_fields(cls, args, text):
    a = cls(*args)
    name = FIELDS[cls][0]
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(a, name, 0.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        delattr(a, name)
    assert dataclasses.is_dataclass(a)
    assert tuple(f.name for f in dataclasses.fields(cls)) == FIELDS[cls]
    assert dataclasses.astuple(a)[0] == args[0]
    assert dataclasses.replace(a) == a


@pytest.mark.parametrize("build, message", [
    (lambda: Vec2(math.nan, 0.0), "non-finite entry nan"),
    (lambda: Vec2(0.0, -math.inf), "non-finite entry -inf"),
    (lambda: Vec2(math.inf, math.nan), "non-finite entry inf"),
    (lambda: Vec2(np.float64("nan"), 0.0), "non-finite entry np.float64(nan)"),
    (lambda: Sym2(1.0, math.inf, 0.0), "non-finite entry inf"),
    (lambda: Sym2(1.0, 2.0, math.nan), "non-finite entry nan"),
    (lambda: EigenPair(math.nan, 0.0), "non-finite entry nan"),
    (lambda: EigenPair(1.0, math.inf), "non-finite entry inf"),
    (lambda: EigenPair(0.0, 1.0), "eigenvalues must be ordered lambda1 >= lambda2"),
    (lambda: EigenPair(-math.inf, 1.0), "non-finite entry -inf"),
    (lambda: Jet2(0.0, complex(math.inf, 0.0), 0j, 0.0), "non-finite entry (inf+0j)"),
    (lambda: Jet2(0.0, 0j, complex(0.0, math.nan), 0.0), "non-finite entry nanj"),
    (lambda: Jet2(0.0, 0j, 0j, -math.inf), "non-finite entry -inf"),
])
def test_error_messages(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


def test_large_finite_entries_are_accepted():
    # entries whose sum overflows are finite
    s = Sym2(1e308, 1e308, 1e308)
    assert (s.a11, s.a12, s.a22) == (1e308, 1e308, 1e308)
    assert Vec2(-1e308, -1e308).x1 == -1e308


def test_entries_are_stored_as_given():
    p = Vec2(np.float64(0.5), 2)
    assert type(p.x1) is np.float64 and type(p.x2) is int


def test_jet_value_is_not_checked():
    # a_from_jet refuses an infinite value with OverflowError
    assert Jet2(-math.inf, 0j, 0j, 0.0).value == -math.inf


def test_bubble_with_its_default_center_codes_bit_for_bit():
    u = Bubble(1.25, 3.0)
    assert u.x0 == Vec2(0.0, 0.0)
    payload = field_to_dict(u)
    v = field_from_dict(json.loads(json.dumps(payload)))
    assert v == u and field_to_dict(v) == payload
    p = Vec2(0.3, -0.7)
    got, want = v.jet(p), u.jet(p)
    assert [float.hex(x) for x in (got.value, got.grad.x1, got.grad.x2, got.hess.a11,
                                   got.hess.a12, got.hess.a22)] == [
        float.hex(x) for x in (want.value, want.grad.x1, want.grad.x2, want.hess.a11,
                               want.hess.a12, want.hess.a22)]
    assert field_from_dict({"family": "bubble", "a": 1.25, "b": 3.0}) == u


@pytest.mark.parametrize("max_error, tolerance", [
    (0.5, 1.0), (2.0, 1.0), (math.nan, 1.0), (1.0, 1.0),
])
def test_check_report_derives_its_verdict_and_takes_none(max_error, tolerance):
    assert CheckReport("row", 1, max_error, tolerance).passed is (max_error <= tolerance)
    # no verdict argument, positional or by name, so none can disagree
    with pytest.raises(TypeError):
        CheckReport("row", 1, max_error, tolerance, max_error <= tolerance)
    with pytest.raises(TypeError):
        CheckReport("row", 1, max_error, tolerance, passed=max_error <= tolerance)


def test_check_report_keeps_an_agreeing_verdict():
    assert CheckReport("row", 1, 1.0, 1.0).passed is True
    assert CheckReport("row", 1, math.nan, 1.0).passed is False
    assert CheckReport("row", 1, np.float64(0.5), np.float64(1.0)).passed is True
