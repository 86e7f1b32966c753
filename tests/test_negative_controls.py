"""Negative controls: each mutant perturbs one formula a suite is meant to
check, by well over that suite's tolerance, and the suite must fail on the
rows that check it.

spheres: +1e-6 on _kelvin's log-Jacobian term 2 ln(|y - x|^2 / lam^2).
    row                              tolerance  observed
    spheres-equality-residual        1e-8       1.98e-6
    spheres-transform-consistency    1e-12      1.00e-6
    spheres-offcenter-residual       1e-6       9.996e-7 (passes: the shift
                                                is just below its tolerance)

solver: +1e-4 on the v that the radial stepper hands to each node.
    row                              tolerance  observed
    solver-sigma2-bubble             1e-5       1.000e-4
    solver-sigma1-bubble             1e-5       1.000e-4
    solver-cross-2d                  1e-8       1.0001e-4
    solver-sigma2-residual           1e-9       1.1e-16 (passes: each node's
                                                lambda1 is solved from the
                                                shifted v)
    boundary-ktilde-constant         1e-9       8.2e-15 (passes: it reads v'
                                                alone)

covariance: the 1/2 of the du x du term in a_from_jet raised by 1e-6.
    row                              tolerance  observed
    a-covariance-matrix              1e-8       0.2845
    a-covariance-tensor              1e-8       6.064e-3
    a-covariance-eigen               1e-8       0.3865
    b-covariance                     1e-8       2.6e-12 (passes: B has its
                                                own formula)

covariance: conjugating maps given the holomorphic Jacobian in the stacked
products, a rotation where the map reflects.
    row                              tolerance  observed
    a-covariance-matrix              1e-8       6.037e4
    a-covariance-tensor              1e-8       1534
    a-covariance-eigen               1e-8       1.5e-11 (passes: the
                                                spectra need no Jacobian)

covariance: the 1/2 of the u_z^2 term in b_from_jet raised by 1e-6.
    row                              tolerance  observed
    b-covariance                     1e-8       3.206e-3
    a-covariance-*                   1e-8       3.3e-11 at most (pass)

trace: +1e-6 on _pulled_back's log-Jacobian term 2 ln|psi'|.  The trace rows
read only the value and u_zzbar channels, so a mutant of q2 or q3 (v_z and
v_zz each scaled by 1 + 1e-6 and shifted by 1e-6) reads 5.3e-15 at most and
passes them.
    row                              tolerance  observed
    trace-z2, trace-iz2, trace-exp   1e-8       8.0e-6 each
    a-covariance-fails-under-iz2     0          0 (passes: 0.75 stays > 0.5)

liouville: +1e-6 on the ln 8 of LiouvilleField._jet_of.
    row                              tolerance  observed
    liouville-pde-z                  1e-7       7.947e-6
    liouville-pde-exp                1e-7       2.0e-6
    liouville-pde-cubic              1e-7       4.328e-5

mass: ChenLiBubble.tail_mass off by 0.01 * 8 pi.
    row                              tolerance  observed
    mass-total[a=1], [a=0.55]        1e-3       0.01 each
    mass-quadrature-oracle[*]        1e-8       6.4e-15 at most (pass: no
                                                tail in the disc)

bubble: the 512 / s^2 of Bubble.jet's Hessian raised by a relative 1e-6.
    row                              tolerance  observed
    bubble-constancy                 1e-10      1.743e-4
    bubble-scaling                   1e-10      8.09e-6
    bubble-kappa-fd-oracle           1e-5       2.094e-5

cross: the 1/2 of the u_z^2 term in b_from_jet raised by 1e-6, as above.
    row                              tolerance  observed
    cross-representation             1e-10      5.055e-5

monotone: the 4 of check_monotone_4log's v + 4 ln r lowered by 1e-6.
    row                              tolerance  observed
    monotone-4log-zero-slack         0          1.822e-7
    monotone-bubbles                 1e-10      0 (passes: a bubble's rise
                                                outruns 1e-6 ln r)
    monotone-5log-rejected           0          0 (passes: -5 ln r still
                                                falls)

Across all eleven suites, the trace mutant also fails counterexample,
covariance and spheres; each of the other five fails only its own suite.
The envelope suite has no mutant yet: the one it needs, +1e-6 on one node,
passes today's check.
"""

import json
import math

import numpy as np
import pytest

import conformal2d.fields as fields
import conformal2d.invariance as invariance
import conformal2d.radial as radial
import conformal2d.spheres as spheres
import conformal2d.suites as suites
from conformal2d.cli import main
from conformal2d.fields import Bubble, ChenLiBubble, Jet2, LiouvilleField
from conformal2d.geometry import Sym2, Vec2
from conformal2d.ops import Herm2
from conformal2d.radial import RadialProfile
from conformal2d.suites import solver_suite, spheres_suite

KELVIN_SHIFT = 1e-6


@pytest.fixture
def kelvin_mutant(monkeypatch):
    original = spheres._kelvin

    def shifted(x, lam, y1, y2, out):
        original(x, lam, y1, y2, out)
        jac = out[2]
        jac += KELVIN_SHIFT

    monkeypatch.setattr(spheres, "_kelvin", shifted)


def test_spheres_suite_fails_a_shifted_log_jacobian(kelvin_mutant, capsys):
    rows = {r.name: r for r in spheres_suite()}
    failed = {name for name, r in rows.items() if not r.passed}
    assert {"spheres-equality-residual", "spheres-transform-consistency"} <= failed
    # observed errors against the tolerances in the table above
    assert rows["spheres-equality-residual"].tolerance == 1e-8
    assert rows["spheres-equality-residual"].max_error == pytest.approx(1.98e-6, rel=0.01)
    assert rows["spheres-transform-consistency"].tolerance == 1e-12
    assert rows["spheres-transform-consistency"].max_error == pytest.approx(KELVIN_SHIFT, rel=1e-6)
    # the suite's verdict: verify reports FAIL, with exit code 1
    assert main(["verify", "--suite", "spheres"]) == 1
    assert json.loads(capsys.readouterr().out)["passed"] is False


def test_spheres_suite_passes_without_the_mutant(capsys):
    assert all(r.passed for r in spheres_suite())
    assert main(["verify", "--suite", "spheres"]) == 0


NODE_SHIFT = 1e-4


@pytest.fixture
def node_shift_mutant(monkeypatch):
    original = radial._integrate_to_nodes

    def shifted(rhs, r0, v0, w0, nodes, cfg, collect, counts):
        original(rhs, r0, v0, w0, nodes, cfg,
                 lambda r, v, w: collect(r, v + NODE_SHIFT, w), counts)

    monkeypatch.setattr(radial, "_integrate_to_nodes", shifted)


def test_solver_suite_fails_a_shifted_node_value(node_shift_mutant, capsys):
    rows = {r.name: r for r in solver_suite()}
    failed = {name for name, r in rows.items() if not r.passed}
    assert {"solver-sigma2-bubble", "solver-sigma1-bubble", "solver-cross-2d"} <= failed
    # observed errors against the tolerances in the table above
    for name in ("solver-sigma2-bubble", "solver-sigma1-bubble"):
        assert rows[name].tolerance == 1e-5
        assert rows[name].max_error == pytest.approx(NODE_SHIFT, rel=1e-6)
    assert rows["solver-cross-2d"].tolerance == 1e-8
    assert rows["solver-cross-2d"].max_error == pytest.approx(1.0001e-4, rel=1e-4)
    assert main(["verify", "--suite", "solver"]) == 1
    assert json.loads(capsys.readouterr().out)["passed"] is False


def test_solver_suite_passes_without_the_mutant(capsys):
    assert all(r.passed for r in solver_suite())
    assert main(["verify", "--suite", "solver"]) == 0


HALF_SHIFT = 1e-6
A_FROM_JET, B_FROM_JET, JACOBIANS = (invariance.a_from_jet, invariance.b_from_jet,
                                     invariance._jacobians)


def a_half_mutant(j):
    """a_from_jet with (1/2 + HALF_SHIFT) du x du in place of (1/2) du x du."""
    a = A_FROM_JET(j)
    e, gx, gy = HALF_SHIFT * math.exp(-j.value), j.grad.x1, j.grad.x2
    return a + Sym2(e * gx * gx, e * gx * gy, e * gy * gy)


def b_half_mutant(j):
    """b_from_jet with (1/2 + HALF_SHIFT) u_z^2 in place of (1/2) u_z^2."""
    b = B_FROM_JET(j)
    return Herm2(b.zzbar, b.zz + HALF_SHIFT * math.exp(-j.value) * j.u_z * j.u_z)


def holomorphic_jacobians(d1, conjugating):
    return JACOBIANS(d1, False)


def covariance_verdict(tmp_path, capsys):
    """verify --suite covariance: its exit code and its rows by name."""
    out = tmp_path / "covariance.json"
    code = main(["verify", "--suite", "covariance", "--out", str(out)])
    capsys.readouterr()
    payload = json.loads(out.read_text())
    assert payload["passed"] is (code == 0)
    return code, {r["name"]: r for r in payload["checks"]}


@pytest.mark.parametrize("name, mutant, failing", [
    ("a_from_jet", a_half_mutant,
     {"a-covariance-matrix": 0.2845, "a-covariance-tensor": 6.064e-3,
      "a-covariance-eigen": 0.3865}),
    ("_jacobians", holomorphic_jacobians,
     {"a-covariance-matrix": 6.037e4, "a-covariance-tensor": 1534.0}),
    ("b_from_jet", b_half_mutant, {"b-covariance": 3.206e-3}),
], ids=["a-half", "holomorphic-jacobian", "b-half"])
def test_covariance_suite_fails_each_mutant(monkeypatch, tmp_path, capsys,
                                            name, mutant, failing):
    monkeypatch.setattr(invariance, name, mutant)
    code, rows = covariance_verdict(tmp_path, capsys)
    assert code == 1
    # observed errors against the tolerances in the table above
    for row, err in failing.items():
        assert rows[row]["passed"] is False
        assert rows[row]["tolerance"] == 1e-8
        assert rows[row]["max_error"] == pytest.approx(err, rel=1e-3)
    assert all(r["passed"] for n, r in rows.items() if n not in failing)


def test_covariance_suite_passes_without_a_mutant(tmp_path, capsys):
    code, rows = covariance_verdict(tmp_path, capsys)
    assert code == 0 and len(rows) == 4


# -- one mutant for each of six more suites ----------------------------------------

SHIFT = 1e-6
PULLED_BACK, JET_OF = fields._pulled_back, LiouvilleField._jet_of
TAIL_MASS, BUBBLE_JET = ChenLiBubble.tail_mass, Bubble.jet
CHECK_MONOTONE = suites.check_monotone_4log


def log_jacobian_mutant(psi, mj, bj):
    """_pulled_back with 2 ln|psi'| + SHIFT as the value's log-Jacobian term."""
    j = PULLED_BACK(psi, mj, bj)
    return Jet2(j.value + SHIFT, j.u_z, j.u_zz, j.u_zzbar)


def ln8_mutant(self, fj):
    """LiouvilleField._jet_of with ln 8 + SHIFT in place of ln 8."""
    j = JET_OF(self, fj)
    return Jet2(j.value + SHIFT, j.u_z, j.u_zz, j.u_zzbar)


def tail_mutant(self, radius):
    """tail_mass off by one percent of the total mass 8 pi."""
    return TAIL_MASS(self, radius) + 0.01 * 8.0 * math.pi


def bubble_hessian_mutant(self, x):
    """Bubble.jet with 512 (1 + SHIFT) / s^2 as its Hessian's dx dx^T coefficient:
    e dx dx^T adds e conj(dx)^2 / 4 to u_zz and e |dx|^2 / 4 to u_zzbar."""
    j = BUBBLE_JET(self, x)
    d = (Vec2.of(x) - self.x0).to_complex()
    e = SHIFT * 512.0 / (8.0 * abs(d) ** 2 + self.b) ** 2
    return Jet2(j.value, j.u_z, j.u_zz + 0.25 * e * d.conjugate() ** 2,
                j.u_zzbar + 0.25 * e * abs(d) ** 2)


def four_log_mutant(p, k0=0.0, slack=1e-10):
    """check_monotone_4log on v + (4 - SHIFT) ln r in place of v + 4 ln r."""
    return CHECK_MONOTONE(RadialProfile(p.r, p.v - SHIFT * np.log(p.r)), k0, slack)


# suite: (owner, name, mutant, {failing row: (tolerance, observed error)})
SIX = {
    "trace": (fields, "_pulled_back", log_jacobian_mutant,
              {"trace-z2": (1e-8, 8e-6), "trace-iz2": (1e-8, 8e-6), "trace-exp": (1e-8, 8e-6)}),
    "liouville": (LiouvilleField, "_jet_of", ln8_mutant,
                  {"liouville-pde-z": (1e-7, 7.947e-6), "liouville-pde-exp": (1e-7, 2e-6),
                   "liouville-pde-cubic": (1e-7, 4.328e-5)}),
    "mass": (ChenLiBubble, "tail_mass", tail_mutant,
             {"mass-total[a=1]": (1e-3, 0.01), "mass-total[a=0.55]": (1e-3, 0.01)}),
    "bubble": (Bubble, "jet", bubble_hessian_mutant,
               {"bubble-constancy": (1e-10, 1.743e-4), "bubble-scaling": (1e-10, 8.09e-6),
                "bubble-kappa-fd-oracle": (1e-5, 2.094e-5)}),
    "cross": (suites, "b_from_jet", b_half_mutant,
              {"cross-representation": (1e-10, 5.055e-5)}),
    "monotone": (suites, "check_monotone_4log", four_log_mutant,
                 {"monotone-4log-zero-slack": (0.0, 1.822e-7)}),
}


@pytest.mark.parametrize("suite", sorted(SIX))
def test_each_suite_fails_its_mutant(monkeypatch, capsys, suite):
    owner, name, mutant, failing = SIX[suite]
    monkeypatch.setattr(owner, name, mutant)
    rows = {r.name: r for r in suites.SUITES[suite]()}
    # observed errors against the tolerances in the table above
    for row, (tol, err) in failing.items():
        assert not rows[row].passed, row
        assert rows[row].tolerance == tol
        assert rows[row].max_error == pytest.approx(err, rel=1e-3)
    assert all(r.passed for n, r in rows.items() if n not in failing)
    assert main(["verify", "--suite", suite]) == 1
    assert json.loads(capsys.readouterr().out)["passed"] is False
