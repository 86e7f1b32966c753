"""Batch front end: verification suites, the radial solver, envelope and
moving-spheres experiments, with JSON reports and CSV emission.

Exit codes: 0 all checks passed, 1 at least one check failed, 2 invalid
configuration or a numerical error (ValueError, ArithmeticError or a package
error) in any subcommand, 3 I/O failure.  A verify suite that raises still
gets a failing row in the written report.  Reports are deterministic for a
fixed configuration and seed; wall-clock data lives only under "metadata".
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import os
import platform
import re
import sys
from typing import Optional

import numpy as np
import scipy

from . import __version__
from .errors import ConfigError, Conformal2dError
from .fields import Bubble, field_from_dict
from .geometry import Vec2
from .ops import resolve_symmetric_function
from .radial import RadialProfile, SolveConfig, inf_envelope, ode_solve
from .report import CheckReport
from .spheres import critical_lambda, slack_stats
from .suites import SUITES, run_suites

SCHEMA = "conformal2d/1"
# largest --grid node count, checked before anything is allocated: 50 times
# the largest grid in the README and the tests
GRID_MAX_NODES = 1_000_000
# numerical failures: exit 2 with one "error:" line, never exit 1
_ERRORS = (Conformal2dError, ArithmeticError, ValueError)
# flags that take a float, or (--x) a point x1,x2; argparse reads a value
# such as "-inf", "-1e3" or "-0.5,0" as an option string, so main() joins it
# to its flag as "--tol=-inf"
_FLOAT_FLAGS = frozenset({"--tol", "--eps", "--v0", "--cone", "--lam-max"})
_POINT_FLAGS = frozenset({"--x"})


# -- report plumbing ----------------------------------------------------------


def _environment() -> dict:
    return {
        "package": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "platform": platform.system(),
    }


def _payload(command: str, config: dict, checks: list[CheckReport],
             seed: Optional[int], extra: Optional[dict] = None) -> dict:
    body = {
        "schema": SCHEMA,
        "command": command,
        "seed": seed,
        "config": config,
        "checks": [c.to_dict() for c in checks],
        "passed": all(c.passed for c in checks),
        "environment": _environment(),
        "metadata": {
            "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        },
    }
    body.update(extra or {})
    return body


def _spell_nonfinite(obj):
    """obj in plain Python types (numpy scalars and arrays converted), with
    non-finite floats spelled "NaN", "Infinity", "-Infinity"."""
    if isinstance(obj, np.generic):
        obj = obj.item()
    if isinstance(obj, dict):
        return {k: _spell_nonfinite(v) for k, v in obj.items()}
    if isinstance(obj, np.ndarray):
        return _spell_nonfinite(obj.tolist())
    if isinstance(obj, (list, tuple)):
        return [_spell_nonfinite(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}[repr(obj)]
    return obj


def _emit_json(payload: dict, out: Optional[str]) -> None:
    # bare NaN and Infinity are not JSON
    text = json.dumps(_spell_nonfinite(payload), sort_keys=True, indent=2,
                      allow_nan=False)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _finish(payload: dict, checks: list[CheckReport], out: Optional[str]) -> int:
    """Emit the report (with the summary when it goes to a file); exit code."""
    _emit_json(payload, out)
    if out:
        _print_summary(checks)
    return 0 if payload["passed"] else 1


def _print_summary(checks: list[CheckReport]) -> None:
    for c in checks:
        print(c.summary_line())
    n_pass = sum(1 for c in checks if c.passed)
    print(f"passed {n_pass}/{len(checks)} checks")


def _safe_name(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]+", "-", name).strip("-")


def _write_witness_csvs(checks: list[CheckReport], csv_dir: str) -> None:
    os.makedirs(csv_dir, exist_ok=True)
    for c in checks:
        if not c.witnesses:
            continue
        path = os.path.join(csv_dir, f"check-{_safe_name(c.name)}.csv")
        with open(path, "w") as fh:
            fh.write("label,error\n")
            for label, err in c.witnesses:
                fh.write(f"\"{label}\",{err:.17g}\n")


# -- argument parsing ---------------------------------------------------------


def _parse_grid(text: str) -> tuple[float, float, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"grid must be r0:r1:n, got {text!r}")
    try:
        r0, r1, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise ConfigError(f"grid must be r0:r1:n with numeric parts, got {text!r}")
    if not (math.isfinite(r0) and math.isfinite(r1)) or r1 <= r0 or n < 2:
        raise ConfigError("grid requires finite r1 > r0 and n >= 2")
    if n > GRID_MAX_NODES:
        raise ConfigError(f"grid n = {n} exceeds the cap of {GRID_MAX_NODES} nodes")
    return r0, r1, n


def _check_tol(tol: Optional[float]) -> None:
    """--tol is absent, or finite and > 0: a NaN tolerance fails every row
    and an infinite one passes every row."""
    if tol is not None and not (math.isfinite(tol) and tol > 0.0):
        raise ConfigError(f"tol must be finite and > 0, got {tol!r}")


def _parse_point(text: str) -> Vec2:
    parts = text.split(",")
    if len(parts) != 2:
        raise ConfigError(f"point must be x1,x2, got {text!r}")
    try:
        return Vec2(float(parts[0]), float(parts[1]))
    except ValueError:
        raise ConfigError(f"point must be numeric, got {text!r}")


def _load_field(spec: Optional[str]):
    if spec is None:
        return Bubble(1.0, 8.0), {"family": "bubble", "a": 1.0, "b": 8.0}
    text = spec
    if not spec.lstrip().startswith("{"):
        with open(spec) as fh:
            text = fh.read()
    try:
        payload = json.loads(text)
        return field_from_dict(payload), payload
    except (ValueError, KeyError, TypeError) as e:
        raise ConfigError(f"bad field spec: {e}")


def _resolve_suites(raw: Optional[list[str]]) -> list[str]:
    if not raw:
        return list(SUITES)
    names: list[str] = []
    for chunk in raw:
        names.extend(s for s in chunk.split(",") if s)
    if not names:
        raise ConfigError(f"no suite named; available: {', '.join(SUITES)}")
    if "all" in names:
        return list(SUITES)
    unknown = [n for n in names if n not in SUITES]
    if unknown:
        raise ConfigError(
            f"unknown suite(s) {unknown}; available: {', '.join(SUITES)}")
    return names


# -- subcommands --------------------------------------------------------------


def cmd_verify(args) -> int:
    names = _resolve_suites(args.suite)
    _check_tol(args.tol)
    checks, raised = [], []
    for name in names:
        # a suite that raises becomes a failing row; the others still run
        try:
            checks.extend(run_suites([name], seed=args.seed, tol=args.tol))
        except _ERRORS as e:
            raised.append(f"{name} ({type(e).__name__}: {e})")
            checks.append(CheckReport.from_errors(
                f"suite-error[{name}]", [1.0], 0.0,
                extras={"exception": type(e).__name__, "message": str(e)}))
    config = {"suites": names, "tol": args.tol}
    payload = _payload("verify", config, checks, args.seed)
    if args.csv_dir:
        _write_witness_csvs(checks, args.csv_dir)
    code = _finish(payload, checks, args.out)
    if raised:
        print(f"error: suite raised: {'; '.join(raised)}", file=sys.stderr)
    return 2 if raised else code


def cmd_envelope(args) -> int:
    _check_tol(args.tol)
    if args.profile:
        try:
            prof = RadialProfile.from_csv(args.profile)
        except ValueError as e:
            raise ConfigError(f"bad profile {args.profile}: {e}")
        source = {"profile": args.profile}
    else:
        r0, r1, n = _parse_grid(args.grid)
        r = np.linspace(r0, r1, n)
        prof = RadialProfile(r, r * r)
        source = {"grid": args.grid, "demo_profile": "v = r^2"}
    eps_list = args.eps or [1.0]
    tol = args.tol if args.tol is not None else 1e-9
    checks = []
    for eps in eps_list:
        if not eps > 0:  # NaN too
            raise ConfigError("eps must be positive")
        res = inf_envelope(prof, eps)
        checks.append(CheckReport.from_errors(
            f"envelope-semiconcavity[eps={eps:g}]",
            [res.semiconcavity_defect], tol,
            extras={"sup_distance_to_input": res.sup_distance_to_input}))
        checks.append(CheckReport.from_errors(
            f"envelope-below-input[eps={eps:g}]",
            [float((res.profile.v - prof.v).max())], 0.0))
        if args.csv_dir:
            os.makedirs(args.csv_dir, exist_ok=True)
            res.profile.to_csv(os.path.join(args.csv_dir,
                                            f"envelope-eps{eps:g}.csv"))
    config = {"eps": list(eps_list), "tol": tol, **source}
    payload = _payload("envelope", config, checks, None)
    return _finish(payload, checks, args.out)


def cmd_solve_radial(args) -> int:
    f = resolve_symmetric_function(args.f, cone=args.cone)
    r0, r1, n = _parse_grid(args.grid)
    if r0 != 0.0:
        raise ConfigError("radial solve starts at r = 0; use a grid 0:r1:n")
    cfg = SolveConfig(rtol=args.tol if args.tol is not None else 1e-8, n_out=n)
    res = ode_solve(f, v0=args.v0, r_max=r1, cfg=cfg)
    checks = [CheckReport.from_errors(
        f"solve-residual[{args.f}]", [float(res.residual.max())], 1e-9,
        extras={"mu": res.mu, "cone_exit": res.cone_exit,
                "v0": args.v0, "cone_p": args.cone,
                "accepted_steps": res.steps.accepted,
                "rejected_steps": res.steps.rejected,
                "rhs_evals": res.steps.rhs_evals})]
    if args.csv_dir:
        os.makedirs(args.csv_dir, exist_ok=True)
        res.to_csv(os.path.join(args.csv_dir, f"solve-{_safe_name(args.f)}.csv"))
    config = {"f": args.f, "cone": args.cone, "v0": args.v0,
              "grid": args.grid, "tol": args.tol}
    payload = _payload("solve-radial", config, checks, None)
    return _finish(payload, checks, args.out)


def cmd_moving_spheres(args) -> int:
    u, field_spec = _load_field(args.field)
    x = _parse_point(args.x)
    tol = args.tol if args.tol is not None else 1e-3
    rep = critical_lambda(u, x, lam_max=args.lam_max, tol=tol)
    if args.csv_dir:
        os.makedirs(args.csv_dir, exist_ok=True)
        center = rep.lambda_bar if rep.lambda_bar else 1.0
        lams = np.geomspace(max(center / 4.0, 1e-3),
                            min(4.0 * center, args.lam_max), 17)
        path = os.path.join(args.csv_dir, "slack-curve.csv")
        with open(path, "w") as fh:
            fh.write("lambda,min_slack,max_abs_slack\n")
            for lam in lams:
                st = slack_stats(u, x, float(lam))
                fh.write(f"{lam:.17g},{st.min_slack:.17g},{st.max_abs_slack:.17g}\n")
        with open(os.path.join(args.csv_dir, "search-trace.csv"), "w") as fh:
            fh.write("lambda,admissible,min_slack,max_abs_slack\n")
            for lam, admissible, min_slack, max_abs in rep.trace:
                fh.write(f"{lam:.17g},{int(admissible)},{min_slack:.17g},{max_abs:.17g}\n")
    config = {"field": field_spec, "x": [x.x1, x.x2],
              "lam_max": args.lam_max, "tol": tol}
    payload = _payload("moving-spheres", config, [], None,
                       extra={"report": rep.to_dict()})
    payload["passed"] = True
    _emit_json(payload, args.out)
    if args.out:
        if rep.unbounded:
            print(f"lambda_bar unbounded up to lam_max={args.lam_max:g}")
        else:
            print(f"lambda_bar = {rep.lambda_bar:.6g} "
                  f"(equality residual {rep.equality_residual:.3e})")
    return 0


_SPELLED = {"NaN": math.nan, "Infinity": math.inf, "-Infinity": -math.inf}


def _stored_number(value) -> float:
    """A JSON number, or one of the spellings _emit_json writes."""
    if isinstance(value, str) and value in _SPELLED:
        return _SPELLED[value]
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    raise ValueError(f"{value!r} is not a number")


def _stored_check(row) -> CheckReport:
    """A written check row rebuilt from its numbers; ValueError if it is
    malformed or its verdict is not max_error <= tolerance."""
    if not isinstance(row, dict):
        raise ValueError("not a JSON object")
    missing = [k for k in ("name", "points_tested", "max_error", "tolerance", "passed")
               if k not in row]
    if missing:
        raise ValueError(f"missing {', '.join(missing)}")
    points = row["points_tested"]
    if isinstance(points, bool) or not isinstance(points, int) or points < 1:
        raise ValueError(f"points_tested {points!r} is not an int >= 1")
    max_error = _stored_number(row["max_error"])
    tolerance = _stored_number(row["tolerance"])
    if not isinstance(row["passed"], bool):
        raise ValueError(f"passed {row['passed']!r} is not a JSON bool")
    passed = max_error <= tolerance
    if row["passed"] is not passed:
        raise ValueError(f"passed {row['passed']!r} disagrees with max_error "
                         f"{max_error!r} <= tolerance {tolerance!r}")
    return CheckReport(
        name=str(row["name"]),
        points_tested=points,
        max_error=max_error,
        tolerance=tolerance,
        passed=passed,
        witnesses=tuple((w[0], w[1]) for w in row.get("witnesses", [])),
        extras=row.get("extras", {}),
    )


def cmd_report(args) -> int:
    if not args.inputs:
        raise ConfigError("report needs at least one input JSON file")
    checks = []
    inputs_passed = True
    for path in args.inputs:
        with open(path) as fh:
            try:
                data = json.load(fh)
            except ValueError as e:
                raise ConfigError(f"{path}: not a JSON report: {e}")
        schema = data.get("schema") if isinstance(data, dict) else None
        if schema != SCHEMA:
            raise ConfigError(f"{path}: unexpected schema {schema!r}")
        rows = data.get("checks", [])
        passed = data.get("passed")
        if not isinstance(rows, list):
            raise ConfigError(f"{path}: checks is not a list")
        if passed is not None and not isinstance(passed, bool):
            raise ConfigError(f"{path}: passed {passed!r} is not a JSON bool")
        # experiment payloads carry a verdict but no check rows, so the
        # merged verdict cannot be recovered from the rows alone
        if not rows and passed is None:
            raise ConfigError(f"{path}: no check rows and no passed verdict")
        inputs_passed = inputs_passed and passed is not False
        for i, row in enumerate(rows):
            try:
                checks.append(_stored_check(row))
            except (ValueError, TypeError, IndexError) as e:
                name = row.get("name") if isinstance(row, dict) else None
                raise ConfigError(f"{path}: check {i} ({name!r}): {e}")
    payload = _payload("report", {"inputs": list(args.inputs)}, checks, None)
    payload["passed"] = payload["passed"] and inputs_passed
    _emit_json(payload, args.out)
    _print_summary(checks)
    return 0 if payload["passed"] else 1


# -- entry point --------------------------------------------------------------


def _add_io_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", default=None, metavar="PATH",
                   help="write the JSON report here instead of stdout")
    p.add_argument("--csv-dir", default=None, metavar="DIR",
                   help="directory for CSV emission (profiles, witnesses)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="conformal2d",
        description="Verification suites and experiments for the conformal "
                    "second-order operator calculus.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run named verification suites")
    p.add_argument("--suite", action="append", metavar="NAME",
                   help=f"suite name, comma list, or 'all' (default); "
                        f"available: {', '.join(SUITES)}")
    p.add_argument("--seed", type=int, default=None,
                   help="override the suite's default RNG seed")
    p.add_argument("--tol", type=float, default=None,
                   help="override the suite's primary tolerance")
    _add_io_flags(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("envelope", help="inf-convolution regularization run")
    p.add_argument("--grid", default="0:6:1201", metavar="R0:R1:N",
                   help="radial grid for the demo profile (default 0:6:1201)")
    p.add_argument("--profile", default=None, metavar="CSV",
                   help="radial profile CSV with columns r,v[,dv,ddv]")
    p.add_argument("--eps", type=float, action="append", metavar="EPS",
                   help="envelope parameter, repeatable (default 1.0)")
    p.add_argument("--tol", type=float, default=None,
                   help="semiconcavity defect tolerance (default 1e-9)")
    _add_io_flags(p)
    p.set_defaults(func=cmd_envelope)

    p = sub.add_parser("solve-radial", help="shooting solve of f(lambda) = 1")
    p.add_argument("--f", default="sigma2", metavar="NAME",
                   help="sigma1, sigma2, or weighted:<t> (default sigma2)")
    p.add_argument("--cone", type=float, default=None, metavar="P",
                   help="cone index p in (1, 2], default 2")
    p.add_argument("--v0", type=float, default=0.0,
                   help="center value v(0) (default 0)")
    p.add_argument("--grid", default="0:5:501", metavar="0:R1:N",
                   help="output grid; integration runs to R1 (default 0:5:501)")
    p.add_argument("--tol", type=float, default=None,
                   help="adaptive step tolerance (default 1e-8)")
    _add_io_flags(p)
    p.set_defaults(func=cmd_solve_radial)

    p = sub.add_parser("moving-spheres", help="critical radius experiment")
    p.add_argument("--field", default=None, metavar="SPEC",
                   help="field spec: JSON file path or inline JSON "
                        "(default bubble a=1, b=8)")
    p.add_argument("--x", default="0,0", metavar="X1,X2",
                   help="center of the transform (default origin)")
    p.add_argument("--lam-max", type=float, default=64.0,
                   help="upper end of the radius search (default 64)")
    p.add_argument("--tol", type=float, default=None,
                   help="relative bisection tolerance (default 1e-3)")
    _add_io_flags(p)
    p.set_defaults(func=cmd_moving_spheres)

    p = sub.add_parser("report", help="merge JSON reports and summarize")
    p.add_argument("inputs", nargs="*", metavar="REPORT.json")
    p.add_argument("--out", default=None, metavar="PATH")
    p.set_defaults(func=cmd_report)

    return ap


def _join_float_values(argv: list[str]) -> list[str]:
    """argv with each "-"-led number after a float flag, and each "-"-led
    point after a point flag, joined to its flag."""
    out: list[str] = []
    for arg in argv:
        flag = out[-1] if out else ""
        if arg.startswith("-") and (flag in _FLOAT_FLAGS or flag in _POINT_FLAGS):
            # a point's first coordinate leads it; _parse_point checks the rest
            try:
                float(arg.split(",")[0] if flag in _POINT_FLAGS else arg)
            except ValueError:
                pass
            else:
                out[-1] = f"{flag}={arg}"
                continue
        out.append(arg)
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(_join_float_values(argv))
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"io error: {e}", file=sys.stderr)
        return 3
    except _ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except MemoryError as e:
        print("error: out of memory" + (f": {e}" if str(e) else ""), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
