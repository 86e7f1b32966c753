"""Field and map serialization: one codec over the FIELD_FAMILIES and
MAP_KINDS registries.

Round trips must reproduce jets bit for bit (up to the re-normalization a
MobiusMap constructor applies), the JSON of each family is pinned, and every
field or map class the package defines is registered.
"""

import dataclasses
import json

import numpy as np
import pytest

from conformal2d import (
    FIELD_FAMILIES,
    MAP_KINDS,
    AnalyticMap,
    Bubble,
    ChenLiBubble,
    ComposedMap,
    ConstantField,
    ExpMap,
    LiouvilleField,
    MobiusMap,
    PolynomialMap,
    QuadraticField,
    RadialField,
    RadialProfile,
    ScalarField,
    Vec2,
    compose,
    exp_example,
    field_from_dict,
    field_to_dict,
    map_from_dict,
    map_to_dict,
    pullback,
    standard_fields,
)

POINTS = [Vec2(0.3, 0.7), Vec2(-1.2, 0.4), Vec2(0.45, 0.85), Vec2(1.1, -0.6)]
R = np.linspace(0.0, 3.0, 61)

# classes that deliberately have no JSON form; a new field or map class
# belongs in a registry or here
NOT_SERIALIZABLE: set = set()


def _through_json(d: dict) -> dict:
    return json.loads(json.dumps(d))


def _round_trip_fields() -> list[ScalarField]:
    return [u for _, u in standard_fields(np.random.default_rng(0))] + [
        ConstantField(0.7),
        QuadraticField(-0.4),
        exp_example(),
        RadialField(RadialProfile(R, np.cos(R), -np.sin(R), -np.cos(R)),
                    center=Vec2(0.1, 0.2)),
        RadialField(RadialProfile(R + 0.5, np.cos(R))),
        pullback(Bubble(1.2, 5.0, Vec2(0.1, 0.0)),
                 compose(ExpMap(), PolynomialMap([0.0, 0.5, 0.1j]))),
    ]


def _round_trip_maps() -> list[AnalyticMap]:
    return [
        MobiusMap(1.0 + 0.5j, 0.3, -0.2j, 1.0, conjugating=True),
        MobiusMap(1.1, 0.2, 0.1, 1.0),
        MobiusMap.inversion(),
        PolynomialMap([0.1, 1.0, 0.0, 0.25j]),
        ExpMap(),
        compose(ExpMap(), PolynomialMap([0.0, 0.5, 0.1j])),
    ]


def _jets(u: ScalarField) -> list:
    out = []
    for p in POINTS:
        try:
            out.append(u.jet(p))
        except Exception as e:  # the same error on both sides is agreement
            out.append((type(e), str(e)))
    return out


def _renormalized(obj):
    """obj rebuilt through its constructors, as loading rebuilds it.

    This is obj itself except in MobiusMap, whose constructor normalizes
    ad - bc = 1 again; on coefficients normalized already that can move each
    by an ulp, as it always has."""
    if isinstance(obj, (ScalarField, AnalyticMap)):
        return dataclasses.replace(obj, **{f.name: _renormalized(getattr(obj, f.name))
                                           for f in dataclasses.fields(obj)})
    return obj


def test_field_round_trip_is_bit_identical():
    fields = _round_trip_fields()
    assert {type(u) for u in fields} == set(FIELD_FAMILIES.values())
    for u in fields:
        d = field_to_dict(u)
        v = field_from_dict(_through_json(d))
        assert type(v) is type(u)
        assert _jets(v) == _jets(_renormalized(u)), d["family"]
        assert _jets(v) == _jets(u) or "mobius" in json.dumps(d), d["family"]


def test_composed_pullback_round_trips():
    u = _round_trip_fields()[-1]
    d = field_to_dict(u)
    assert d["map"]["kind"] == "composed"
    v = field_from_dict(_through_json(d))
    assert isinstance(v.map, ComposedMap)
    assert field_to_dict(v) == d
    assert [v.jet(p) for p in POINTS] == [u.jet(p) for p in POINTS]


def test_map_round_trip_is_bit_identical():
    maps = _round_trip_maps()
    assert {type(m) for m in maps} == set(MAP_KINDS.values())
    zs = [p.to_complex() for p in POINTS]
    for m in maps:
        d = map_to_dict(m)
        m2 = map_from_dict(_through_json(d))
        assert type(m2) is type(m) and m2.conjugating == m.conjugating
        got, want = [m2.jet(z) for z in zs], [m.jet(z) for z in zs]
        assert got == [_renormalized(m).jet(z) for z in zs], d["kind"]
        assert got == want or d["kind"] == "mobius", d["kind"]
        np.testing.assert_allclose(np.array(got), np.array(want), rtol=1e-15, atol=0)


MOBIUS_SHIFT = {"kind": "mobius", "a": [1.0, 0.0], "b": [0.5, 0.0],
                "c": [0.0, 0.0], "d": [1.0, 0.0], "conjugating": False}

PINNED = [
    (Bubble(1.5, 4.0, Vec2(0.25, -0.5)),
     {"family": "bubble", "a": 1.5, "b": 4.0, "x0": [0.25, -0.5]}),
    (LiouvilleField(PolynomialMap([0, 1, 0.5j])),
     {"family": "liouville",
      "f": {"kind": "polynomial", "coeffs": [[0.0, 0.0], [1.0, 0.0], [0.0, 0.5]]}}),
    (pullback(ChenLiBubble(2.0), MobiusMap(1, 0.5, 0, 1)),
     {"family": "pullback", "base": {"family": "chen_li", "a": 2.0, "x0": [0.0, 0.0]},
      "map": MOBIUS_SHIFT}),
    (RadialField(RadialProfile([0.0, 1.0, 2.0], [1.0, 0.5, 0.25],
                               dv=[0.0, -0.5, -0.25]), center=Vec2(0.5, 0.0)),
     {"family": "radial", "r": [0.0, 1.0, 2.0], "v": [1.0, 0.5, 0.25],
      "dv": [0.0, -0.5, -0.25], "center": [0.5, 0.0]}),
    (RadialField(RadialProfile([1.0, 2.0, 3.0], [1.0, 0.5, 0.25])),
     {"family": "radial", "r": [1.0, 2.0, 3.0], "v": [1.0, 0.5, 0.25],
      "center": [0.0, 0.0]}),
    (ConstantField(0.75), {"family": "constant", "c": 0.75}),
]

PINNED_MAPS = [
    (MobiusMap(1, 0.5, 0, 1), MOBIUS_SHIFT),
    (MobiusMap(2, 0, 0, 0.5, conjugating=True),
     {"kind": "mobius", "a": [2.0, 0.0], "b": [0.0, 0.0], "c": [0.0, 0.0],
      "d": [0.5, 0.0], "conjugating": True}),
    (PolynomialMap([1, 2j]),
     {"kind": "polynomial", "coeffs": [[1.0, 0.0], [0.0, 2.0]]}),
    (ExpMap(), {"kind": "exp"}),
    (ComposedMap(ExpMap(), MobiusMap(1, 0.5, 0, 1)),
     {"kind": "composed", "outer": {"kind": "exp"}, "inner": MOBIUS_SHIFT}),
]


@pytest.mark.parametrize("u, want", PINNED, ids=["bubble", "liouville", "pullback", "radial",
                                                 "radial-values-only", "constant"])
def test_field_format_is_pinned(u, want):
    assert (json.dumps(field_to_dict(u), sort_keys=True)
            == json.dumps(want, sort_keys=True))


@pytest.mark.parametrize("m, want", PINNED_MAPS, ids=["mobius", "mobius-conjugating",
                                                      "polynomial", "exp", "composed"])
def test_map_format_is_pinned(m, want):
    assert json.dumps(map_to_dict(m), sort_keys=True) == json.dumps(want, sort_keys=True)


def test_old_specs_without_optional_keys_load():
    assert field_from_dict({"family": "bubble", "a": 1, "b": 8}) == Bubble(1.0, 8.0)
    assert field_from_dict({"family": "chen_li", "a": 0.5}) == ChenLiBubble(0.5)
    assert field_from_dict({"family": "exp_example"}) == exp_example()
    m = map_from_dict({"kind": "mobius", "a": 1.1, "b": 0.2, "c": 0.1, "d": 1})
    assert m == MobiusMap(1.1, 0.2, 0.1, 1.0) and m.conjugating is False
    p = map_from_dict({"kind": "polynomial", "coeffs": [0, 1, [0.0, 0.5]]})
    assert p == PolynomialMap([0, 1, 0.5j])
    r = field_from_dict({"family": "radial", "r": list(R), "v": list(np.cos(R))})
    want = RadialField(RadialProfile(R, np.cos(R)))
    assert r.center == Vec2(0.0, 0.0) and r.profile.dv is None
    assert _jets(r) == _jets(want)


@pytest.mark.parametrize("spec", [
    [1],
    {"family": "liouville", "f": [1]},
    {"family": "pullback", "base": "bubble", "map": {"kind": "exp"}},
    {"family": "pullback", "base": {"family": "bubble", "a": 1, "b": 8},
     "map": {"kind": "composed", "outer": {"kind": "exp"}, "inner": 3}},
])
def test_non_object_spec_is_value_error_at_any_depth(spec):
    with pytest.raises(ValueError, match="must be a JSON object"):
        field_from_dict(spec)


def test_unknown_names_are_value_errors():
    with pytest.raises(ValueError, match="unknown field family"):
        field_from_dict({"family": "nonsense"})
    with pytest.raises(ValueError, match="unknown map kind"):
        map_from_dict({"kind": "nonsense"})
    with pytest.raises(ValueError, match="cannot serialize map"):
        map_to_dict(AnalyticMap())


def _package_subclasses(base: type) -> set:
    found, todo = set(), [base]
    while todo:
        for sub in todo.pop().__subclasses__():
            todo.append(sub)
            if sub.__module__.startswith("conformal2d."):
                found.add(sub)
    return found


def test_every_field_and_map_class_is_registered():
    registered = set(FIELD_FAMILIES.values()) | set(MAP_KINDS.values())
    defined = _package_subclasses(ScalarField) | _package_subclasses(AnalyticMap)
    missing = {c.__name__ for c in defined - registered - NOT_SERIALIZABLE}
    assert not missing, f"register these classes or list them as not serializable: {missing}"
    assert registered <= defined
