"""scipy.optimize and scipy.interpolate load on first use, not at import,
and the root solves still go through the patchable ``conformal2d.radial.brentq``."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import conformal2d.radial as radial
from conformal2d import ode_solve, sigma2

SRC = Path(__file__).resolve().parents[1] / "src"
LAZY = ("scipy.optimize", "scipy.interpolate", "scipy.special")

IMPORT_THEN_CALL = f"""
import json, sys
import numpy as np
import conformal2d, conformal2d.cli

LAZY = {LAZY!r}
loaded = {{"import": [m for m in LAZY if m in sys.modules]}}
from conformal2d import (Bubble, RadialField, RadialProfile, bubble_fit,
                         critical_lambda, ode_solve, sigma2)
r = np.linspace(0.0, 2.0, 21)
calls = {{
    "ode_solve": lambda: ode_solve(sigma2()),
    "critical_lambda": lambda: critical_lambda(Bubble(1.0, 8.0), (0.1, 0.0), 64.0),
    "bubble_fit": lambda: bubble_fit(Bubble(1.0, 8.0), [(0.1 * k, 0.05 * k * k)
                                                       for k in range(8)]),
    "RadialField": lambda: RadialField(RadialProfile(r, np.cos(r))),
}}
for name, call in calls.items():
    call()
    loaded[name] = [m for m in LAZY if m in sys.modules]
print(json.dumps(loaded))
"""


def _run(*args: str, cwd=None) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, *args], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def test_import_leaves_scipy_submodules_unloaded_until_first_call():
    proc = _run("-c", IMPORT_THEN_CALL)
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout.strip().splitlines()[-1])
    assert loaded["import"] == []
    assert "scipy.optimize" in loaded["ode_solve"]
    assert "scipy.interpolate" in loaded["RadialField"]
    assert loaded["RadialField"] == list(LAZY)


def _count_brentq(monkeypatch) -> list:
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[1:3])
        return radial_brentq(*args, **kwargs)

    radial_brentq = radial.brentq
    monkeypatch.setattr(radial, "brentq", counting)
    return calls


def test_closed_form_solve_makes_one_patched_root_solve(monkeypatch):
    calls = _count_brentq(monkeypatch)
    ode_solve(sigma2(), r_max=5.0)
    assert len(calls) == 1  # the diagonal seed


def test_numeric_lambda1_root_solves_go_through_the_patch_point(monkeypatch):
    calls = _count_brentq(monkeypatch)
    res = ode_solve(dataclasses.replace(sigma2(), lambda1=None), r_max=1.0)
    # the seed, one per right-hand side, one per recorded node past r = 0
    assert len(calls) == 1 + res.steps.rhs_evals + int((res.profile.r > 0.0).sum())
    assert res.steps.rhs_evals > 0


def test_python_dash_m_runs_the_cli(tmp_path):
    out = tmp_path / "envelope.json"
    proc = _run("-m", "conformal2d", "envelope", "--out", str(out), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(out.read_text())["command"] == "envelope"
