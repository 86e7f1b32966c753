"""The traced run: count wrappers, span wrappers, per-layer probes and the
per-layer metrics derived from them.

Layers are the package's modules.  Spans sit around the benchmark's own
calls into a layer and, in the traced run only, around a few public names
inside the package (the suite functions, ``slack_stats``, the ``brentq``
used by the radial solver, and the covariance and trace residuals), so that
each layer's self time can be separated from the layers it calls.
"""
from __future__ import annotations

import os

import numpy as np

import conformal2d as c2
from conformal2d import suites

from harness import Counter, Patches, SpanRecorder, median, run_pass
from workloads import (ENVELOPE_EPS, ENVELOPE_SIZES, FAMILIES, MAP_KINDS,
                       WORKLOADS, pointwise_objects, pointwise_points, run_cli,
                       verify_argv)

# layers with spans of their own inside the workload passes; geometry is
# reached only through the probes, whose rates are reported directly
LAYERS = ("cli", "suites", "invariance", "spheres", "radial", "fields",
          "mobius", "ops")

# public names whose calls are counted in the count pass
COUNTED = {
    "vec2": "conformal2d.geometry.Vec2.__init__",
    "polynomial_jet": "conformal2d.mobius.PolynomialMap.jet",
    "slack_stats": "conformal2d.spheres.slack_stats",
    "brentq": "conformal2d.radial.brentq",
}
VALID_POINTS = "conformal2d.suites.valid_points"

# public names wrapped in spans during traced passes
SPANNED = {
    "conformal2d.spheres.slack_stats": "spheres.slack_stats",
    "conformal2d.radial.brentq": "radial.brentq",
    "conformal2d.suites.covariance_errors_at": "invariance.covariance_errors_at",
    "conformal2d.suites.trace_residual_at": "invariance.trace_residual_at",
}

PROBE_N = 20000
CLI_PROBE_CALLS = 10

# name -> (unit, better); the order is the order of BENCHMARK.json
PER_LAYER = {
    "geometry.vec2_per_s": ("1/s", "higher"),
    "geometry.eig2_per_s": ("1/s", "higher"),
    "geometry.vec2_constructed": ("count", "lower"),
    **{f"mobius.jet_per_s.{k}": ("1/s", "higher") for k in MAP_KINDS},
    "mobius.polynomial_jet_calls": ("count", "lower"),
    **{f"fields.jet_per_s.{f}": ("1/s", "higher") for f in FAMILIES},
    **{f"fields.value_per_s.{f}": ("1/s", "higher") for f in FAMILIES},
    "ops.a_from_jet_per_s": ("1/s", "higher"),
    "ops.b_from_jet_per_s": ("1/s", "higher"),
    "ops.lambda_a_per_s": ("1/s", "higher"),
    "ops.f_eval_per_s": ("1/s", "higher"),
    "invariance.covariance_errors_at_per_s": ("1/s", "higher"),
    "invariance.trace_residual_at_per_s": ("1/s", "higher"),
    "invariance.valid_points_accept_ratio": ("ratio", "higher"),
    **{f"suites.{name}_s": ("s", "lower") for name in suites.SUITES},
    "spheres.slack_stats_ms": ("ms", "lower"),
    "spheres.slack_stats_calls": ("count", "lower"),
    **{f"spheres.critical_lambda_ms.{k}": ("ms", "lower")
       for k in ("bubble", "pullback", "constant")},
    "spheres.estimate_alpha_ms": ("ms", "lower"),
    "spheres.bubble_fit_ms": ("ms", "lower"),
    **{f"radial.ode_solve_ms.{k}": ("ms", "lower") for k in ("sigma1", "sigma2", "weighted")},
    "radial.root_solves": ("count", "lower"),
    **{f"radial.inf_envelope_ms.n{n}": ("ms", "lower") for n in ENVELOPE_SIZES},
    "radial.inf_envelope_bytes_computed": ("B", "lower"),
    "radial.boundary_solve_ms": ("ms", "lower"),
    "radial.minimize_on_circles_ms": ("ms", "lower"),
    "cli.overhead_ms": ("ms", "lower"),
    "cli.report_bytes": ("B", "lower"),
    "trace.overhead_s": ("s", "lower"),
    **{f"self_s.{layer}": ("s", "lower") for layer in LAYERS},
}


# -- count pass --------------------------------------------------------------------


class CountPass:
    """One untimed pass of every workload with counting wrappers installed.

    ``by_kind[kind][counter]`` sums counter deltas over the ops of a kind,
    ``per_workload[name][counter]`` over a whole pass.
    """

    def __init__(self) -> None:
        self.counter = Counter()
        self.by_kind: dict[str, dict[str, int]] = {}
        self.ops_of_kind: dict[str, int] = {}
        self.per_workload: dict[str, dict[str, int]] = {}

    def _valid_points_wrapper(self, original):
        counter = self.counter
        counter.setdefault("vp_attempted", 0)
        counter.setdefault("vp_accepted", 0)

        def valid_points(rng, n, usable, *args, **kwargs):
            def counted_usable(p):
                counter["vp_attempted"] += 1
                return usable(p)

            out = original(rng, n, counted_usable, *args, **kwargs)
            counter["vp_accepted"] += len(out)
            return out

        return valid_points

    def run(self, workloads: dict) -> list:
        """The PassResult of each workload's counted pass."""
        results = []
        with Patches() as patches:
            for key, dotted in COUNTED.items():
                patches.replace(dotted, self.counter.counting(key))
            patches.replace(VALID_POINTS, self._valid_points_wrapper)
            for name in WORKLOADS:
                before = dict(self.counter)
                last = dict(self.counter)

                def after_op(op):
                    nonlocal last
                    now = dict(self.counter)
                    acc = self.by_kind.setdefault(op.kind, {})
                    for k, v in now.items():
                        acc[k] = acc.get(k, 0) + v - last.get(k, 0)
                    self.ops_of_kind[op.kind] = self.ops_of_kind.get(op.kind, 0) + 1
                    last = now

                results.append(run_pass(workloads[name].pass_ops(), after_op=after_op))
                self.per_workload[name] = {
                    k: v - before.get(k, 0) for k, v in self.counter.items()}
        return results

    def per_op(self, kind_prefix: str, key: str) -> float:
        kinds = [k for k in self.by_kind if k.startswith(kind_prefix)]
        n = sum(self.ops_of_kind[k] for k in kinds)
        if n == 0:
            raise LookupError(f"no op of kind {kind_prefix!r} ran in the count pass")
        return sum(self.by_kind[k].get(key, 0) for k in kinds) / n


# -- probes ------------------------------------------------------------------------


class Probes:
    """Loops of direct calls into geometry and ops, plus the CLI overhead
    probe; each loop is one span, so the rate excludes per-call span cost."""

    def __init__(self, seed: int, pointwise_inputs: dict, workdir: str) -> None:
        rng = np.random.default_rng([seed, 99])
        xy = rng.uniform(-2.0, 2.0, (PROBE_N, 2))
        self.pairs = [(float(a), float(b)) for a, b in xy]
        m = rng.uniform(-3.0, 3.0, (PROBE_N, 3))
        self.syms = [c2.Sym2(float(a), float(b), float(c)) for a, b, c in m]
        fields, maps = pointwise_objects(pointwise_inputs["params"])
        points, _ = pointwise_points(pointwise_inputs, fields, maps)
        jets = [u.jet(p) for fam, u in fields.items() for p in points[fam]]
        self.jets = [jets[i % len(jets)] for i in range(PROBE_N)]
        lam = np.exp(rng.normal(0.0, 1.0, (PROBE_N, 2)))
        self.lams = [c2.EigenPair.sorted(float(a), float(b)) for a, b in lam]
        self.f = c2.sigma2()
        self.cli_argv = verify_argv("counterexample", None,
                                    os.path.join(workdir, "probe-counterexample.json"))

    def run(self, rec: SpanRecorder) -> None:
        vec2, eig2 = c2.Vec2, c2.eig2
        a_from_jet, b_from_jet, f_eval = c2.a_from_jet, c2.b_from_jet, c2.f_eval
        loops = (
            ("geometry.vec2", lambda: [vec2(a, b) for a, b in self.pairs]),
            ("geometry.eig2", lambda: [eig2(s) for s in self.syms]),
            ("ops.a_from_jet", lambda: [a_from_jet(j) for j in self.jets]),
            ("ops.b_from_jet", lambda: [b_from_jet(j) for j in self.jets]),
            ("ops.f_eval", lambda: [f_eval(self.f, lam) for lam in self.lams]),
        )
        for name, loop in loops:
            idx = rec.begin(name)
            loop()
            rec.finish(idx)
        for _ in range(CLI_PROBE_CALLS):
            idx = rec.begin("cli.probe")
            rc = run_cli(self.cli_argv)
            rec.finish(idx)
            if rc != 0:
                raise RuntimeError(f"cli probe exited with {rc}")


def install_spans(patches: Patches, rec: SpanRecorder) -> None:
    for dotted, name in SPANNED.items():
        patches.replace(dotted, lambda fn, name=name: rec.wrap(fn, name))
    for suite in list(suites.SUITES):
        patches.replace_item(suites.SUITES, suite,
                             lambda fn, suite=suite: rec.wrap(fn, f"suites.{suite}"))


# -- metrics ---------------------------------------------------------------------


def _rate(rec: SpanRecorder, names, per_span: int = 1) -> float:
    durs = [d for n in names for d in rec.durations(n)]
    if not durs:
        raise LookupError(f"no spans named {names}")
    return per_span * len(durs) / sum(durs)


def _median_ms(rec: SpanRecorder, name: str, parent: str | None = None) -> float:
    if parent is None:
        durs = rec.durations(name)
    else:
        durs = [rec.end[i] - rec.start[i] for i in range(len(rec))
                if rec.name_of(i) == name and rec.parent[i] >= 0
                and rec.name_of(rec.parent[i]).startswith(parent)]
    if not durs:
        raise LookupError(f"no spans named {name!r}")
    return 1000.0 * median(durs)


def layer_metrics(rec: SpanRecorder, counts: CountPass, workload: str,
                  n_passes: int, report_bytes: int, overhead_s: float) -> dict:
    """Every PER_LAYER metric, as name -> value."""
    m: dict[str, float] = {}
    m["geometry.vec2_per_s"] = _rate(rec, ["geometry.vec2"], PROBE_N)
    m["geometry.eig2_per_s"] = _rate(rec, ["geometry.eig2"], PROBE_N)
    m["geometry.vec2_constructed"] = counts.per_workload[workload]["vec2"]
    for k in MAP_KINDS:
        m[f"mobius.jet_per_s.{k}"] = _rate(rec, [f"mobius.jet.{k}"])
    m["mobius.polynomial_jet_calls"] = counts.per_workload["verify"]["polynomial_jet"]
    for f in FAMILIES:
        m[f"fields.jet_per_s.{f}"] = _rate(rec, [f"fields.jet.{f}"])
        m[f"fields.value_per_s.{f}"] = _rate(rec, [f"fields.value.{f}"])
    m["ops.a_from_jet_per_s"] = _rate(rec, ["ops.a_from_jet"], PROBE_N)
    m["ops.b_from_jet_per_s"] = _rate(rec, ["ops.b_from_jet"], PROBE_N)
    m["ops.lambda_a_per_s"] = _rate(rec, [f"ops.lambda_a.{f}" for f in FAMILIES])
    m["ops.f_eval_per_s"] = _rate(rec, ["ops.f_eval"], PROBE_N)
    m["invariance.covariance_errors_at_per_s"] = _rate(rec, ["invariance.covariance_errors_at"])
    m["invariance.trace_residual_at_per_s"] = _rate(rec, ["invariance.trace_residual_at"])
    vp = counts.per_workload["verify"]
    if vp["vp_attempted"] == 0:
        raise LookupError("valid_points was never called in the verify pass")
    m["invariance.valid_points_accept_ratio"] = vp["vp_accepted"] / vp["vp_attempted"]
    for name in suites.SUITES:
        m[f"suites.{name}_s"] = _median_ms(rec, f"suites.{name}", "cli.verify.") / 1000.0
    m["spheres.slack_stats_ms"] = _median_ms(rec, "spheres.slack_stats",
                                             "spheres.critical_lambda.bubble")
    m["spheres.slack_stats_calls"] = counts.per_op("spheres.critical_lambda.bubble",
                                                   "slack_stats")
    for k in ("bubble", "pullback", "constant"):
        m[f"spheres.critical_lambda_ms.{k}"] = _median_ms(rec, f"spheres.critical_lambda.{k}")
    m["spheres.estimate_alpha_ms"] = _median_ms(rec, "spheres.estimate_alpha")
    m["spheres.bubble_fit_ms"] = _median_ms(rec, "spheres.bubble_fit")
    for k in ("sigma1", "sigma2", "weighted"):
        m[f"radial.ode_solve_ms.{k}"] = _median_ms(rec, f"radial.ode_solve.{k}")
    m["radial.root_solves"] = counts.per_op("radial.ode_solve.", "brentq")
    for n in ENVELOPE_SIZES:
        m[f"radial.inf_envelope_ms.n{n}"] = _median_ms(rec, f"radial.inf_envelope.n{n}")
    # one n x n float64 cost matrix per call, as the brute force builds it
    m["radial.inf_envelope_bytes_computed"] = float(
        sum(8 * n * n * len(ENVELOPE_EPS) for n in ENVELOPE_SIZES))
    m["radial.boundary_solve_ms"] = _median_ms(rec, "radial.boundary_solve")
    m["radial.minimize_on_circles_ms"] = _median_ms(rec, "radial.minimize_on_circles")
    selfs = rec.self_times()
    probe = [selfs[i] for i in range(len(rec)) if rec.name_of(i) == "cli.probe"]
    m["cli.overhead_ms"] = 1000.0 * median(probe)
    m["cli.report_bytes"] = float(report_bytes)
    m["trace.overhead_s"] = overhead_s
    by_layer = rec.self_time_by_layer()
    for layer in LAYERS:
        m[f"self_s.{layer}"] = by_layer.get(layer, 0.0) / n_passes
    missing = set(PER_LAYER) - set(m)
    if missing:
        raise LookupError(f"per-layer metrics not derived: {sorted(missing)}")
    return m


def self_time_report(rec: SpanRecorder, n_passes: int, top: int = 15) -> list[str]:
    """Human-readable self time per layer and per span name, per pass."""
    selfs = rec.self_times()
    by_name: dict[str, list[float]] = {}
    for i, st in enumerate(selfs):
        entry = by_name.setdefault(rec.name_of(i), [0.0, 0])
        entry[0] += st
        entry[1] += 1
    lines = [f"self time per traced pass ({n_passes} passes, {len(rec)} spans)"]
    for layer, total in sorted(rec.self_time_by_layer().items(), key=lambda t: -t[1]):
        lines.append(f"  layer {layer:<12} {total / n_passes:10.4f} s")
    ranked = sorted(by_name.items(), key=lambda t: -t[1][0])[:top]
    for name, (total, calls) in ranked:
        lines.append(f"  span  {name:<40} {total / n_passes:10.4f} s  "
                     f"{calls / n_passes:10.0f} calls")
    return lines
