"""A field's or map's domain has one definition: the guards that raise in
its jet, jets and values.  No separate predicate restates it, and jet and
the array kernels raise or return together at points where a distance-based
predicate would have disagreed with them."""

import ast
from pathlib import Path

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

import conformal2d
from conformal2d import LiouvilleField, MobiusMap, PolynomialMap, Vec2
from conformal2d.errors import DomainError, PoleError

SRC = Path(conformal2d.__file__).parent


def test_src_defines_and_calls_no_domain_predicate():
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        defined = {node.name for node in ast.walk(tree)
                   if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}
        assert not defined & {"excluded", "_critical_points"}, path.name
        called = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute) and node.func.attr == "excluded"]
        assert not called, path.name


def critical_point(f: PolynomialMap) -> complex:
    return complex(npoly.polyroots(npoly.polyder(np.array(f.coeffs, dtype=complex)))[0])


def outcome(fn, *args):
    try:
        fn(*args)
    except DomainError as e:
        return type(e)
    return None


# (map, point, what jet raises or None): within 1e-14 of a pole but with
# |c z + d| above the guard; beyond 1e-14 of a pole but with |c z + d| below
# it; within 1e-6 of a critical point but with |f'| above the guard; beyond
# 1e-6 of a critical point but with |f'| below it
M1, M2 = MobiusMap(10, 0, 10, 0.2), MobiusMap(1, 0, 0.01, 1)
P1, P2 = PolynomialMap([0, 1, 0, 10]), PolynomialMap([0, 1, 0.01])
CASES = [
    (M1, M1.pole + 3e-15, None),
    (M2, M2.pole + 2e-13, PoleError),
    (P1, critical_point(P1) + 5e-7, None),
    (P2, -50 + 2e-5, DomainError),
]


@pytest.mark.parametrize("f, z, raised", CASES)
def test_jet_and_array_kernels_agree_where_a_distance_predicate_did_not(f, z, raised):
    assert outcome(f.jet, z) is raised
    assert outcome(f.jets, [0.5 + 0.5j, z]) is raised
    assert outcome(f.values_d1, np.array([0.5 + 0.5j, z])) is raised
    u, p = LiouvilleField(f), Vec2(z.real, z.imag)
    assert outcome(u.jet, p) is raised
    assert outcome(u.values, [0.5, p.x1], [0.5, p.x2]) is raised
