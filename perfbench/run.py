#!/usr/bin/env python3
"""Seeded benchmark of conformal2d, run from the root of a checkout.

    python3 perfbench/run.py --workload spheres --seed 3 --seconds 15 --trace 0
    python3 perfbench/run.py --all --seed 3 --seconds 15

One run measures one workload in this process (so ``peak_rss_mb`` is that
workload's own peak) and prints, as its last line, one JSON object with the
keys correct, attempted, failed and metrics.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` runs the traced layer pass and reports the
per-layer metrics.  ``--all`` runs every workload in a fresh process and
prints every end-to-end metric as a table.  See perfbench/README.md.
"""
from __future__ import annotations

import os

# BLAS and OpenMP pools are pinned to one thread before numpy can load; the
# set-up probes inherit the pins through the environment.
THREAD_PINS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
os.environ.update(THREAD_PINS)

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from array import array  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
OUT = os.path.join(ROOT, ".perfbench_out")
sys.path.insert(0, HERE)

from harness import (WORKLOADS, Calibrator, Patches, SpanRecorder,  # noqa: E402
                     median, percentile, run_pass, tail)

SETUP_PROBES = 3
# a run goes on past --seconds until it has this many op samples, so that
# its tail (ten samples beyond) is never below its median
MIN_OP_SAMPLES = 20
OVERHEAD_BASELINE_S = 2.0
CHILD_TIMEOUT_S = 170

# name -> (unit, better); the order is the order of BENCHMARK.json
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "ops_per_s": ("1/s", "higher"),
    "op_p50_ms": ("ms", "lower"),
    "op_tail_ms": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}


def load_package() -> None:
    """Import conformal2d from this checkout's src/, and nothing else."""
    pkg = os.path.join(SRC, "conformal2d")
    if not os.path.isfile(os.path.join(pkg, "__init__.py")):
        raise SystemExit(f"perfbench: no conformal2d sources under {SRC}")
    sys.path.insert(0, SRC)
    import conformal2d

    if os.path.dirname(os.path.abspath(conformal2d.__file__)) != pkg:
        raise SystemExit(f"perfbench: imported conformal2d from {conformal2d.__file__}")


def setup_probe(workload: str, seed: int) -> None:
    """Child mode: time import plus input generation, print it as JSON."""
    t0 = time.perf_counter()
    load_package()
    import workloads

    workloads.build(workload, workloads.make_inputs(workload, seed), WORK)
    print(json.dumps({"setup_s": time.perf_counter() - t0}))


def measure_setup(workload: str, seed: int, cal: Calibrator) -> float:
    """Median set-up time over fresh processes: import happens once per
    process, so it can only be repeated in new ones.  ``cal`` is sampled
    around each probe."""
    vals = []
    for _ in range(SETUP_PROBES):
        cal.sample()
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        vals.append(float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]))
    cal.sample()
    return median(vals)


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tally:
    """Attempted and failed ops, with the first few failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def add(self, res) -> None:
        self.attempted += res.attempted
        self.failed += res.failed
        self.errors += res.errors[: max(0, 10 - len(self.errors))]

    def result(self, metrics: dict, units: dict) -> dict:
        for msg in self.errors:
            print(f"perfbench: failed op: {msg}", file=sys.stderr)
        return {
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": v, "unit": units[k][0]} for k, v in metrics.items()},
        }


def _timings(walls, latencies, completed: int) -> tuple[dict, float]:
    """Pass and op time metrics, and the tail percentile they used."""
    tail_at = tail(latencies)
    if tail_at is None:
        raise RuntimeError(f"only {len(latencies)} op samples; a tail needs 11")
    return {
        "wall_s": median(walls),
        "ops_per_s": completed / sum(walls),
        "op_p50_ms": 1000.0 * percentile(sorted(latencies), 50.0),
        "op_tail_ms": 1000.0 * tail_at[1],
    }, tail_at[0]


def run_untraced(workload: str, seed: int, seconds: float, workdir: str) -> dict:
    import workloads

    setup_cal = Calibrator()
    setup_raw = measure_setup(workload, seed, setup_cal)
    wl = workloads.build(workload, workloads.make_inputs(workload, seed), workdir)
    tally = Tally()
    tally.add(run_pass(wl.warmup))
    cal = Calibrator()
    passes = []
    completed = 0
    cal.sample()
    start = time.perf_counter()
    n_ops = 0
    while time.perf_counter() - start < seconds or n_ops < MIN_OP_SAMPLES:
        lat = array("d")
        t0 = time.perf_counter()
        res = run_pass(wl.pass_ops(), lat, after_op=lambda op: cal.maybe_sample())
        passes.append((t0, time.perf_counter(), res.wall, lat))
        n_ops += len(lat)
        completed += res.attempted - res.failed
        tally.add(res)
    cal.sample()

    raw, _ = _timings([p[2] for p in passes], array("d", (x for p in passes for x in p[3])),
                      completed)
    # each pass is scaled by the kernel times around it: see Calibrator
    factors = [cal.factor(t0, t1) for t0, t1, _, _ in passes]
    metrics, tail_q = _timings(
        [p[2] * f for p, f in zip(passes, factors)],
        array("d", (x * f for p, f in zip(passes, factors) for x in p[3])), completed)
    raw["setup_s"] = setup_raw
    metrics = {"setup_s": setup_raw * setup_cal.factor(), **metrics,
               "peak_rss_mb": peak_rss_mb()}
    detail = {"passes": len(passes), "op_samples": sum(len(p[3]) for p in passes),
              "op_tail_percentile": tail_q,
              "failure_ratio": tally.failed / tally.attempted,
              "speed_factor": cal.factor(), "setup_speed_factor": setup_cal.factor(),
              "raw": raw}
    print(f"detail {json.dumps(detail)}")
    return tally.result(metrics, END_TO_END)


def run_traced(workload: str, seed: int, seconds: float, workdir: str) -> dict:
    import layers
    import workloads

    wls = {name: workloads.build(name, workloads.make_inputs(name, seed), workdir)
           for name in WORKLOADS}
    probes = layers.Probes(seed, workloads.make_inputs("pointwise", seed), workdir)
    tally = Tally()
    for name in WORKLOADS:
        tally.add(run_pass(wls[name].warmup))

    counts = layers.CountPass()
    for res in counts.run(wls):
        tally.add(res)
    report_bytes = sum(os.path.getsize(os.path.join(workdir, f))
                       for f in os.listdir(workdir) if f.startswith("verify-"))

    # Untraced and traced loops of the named workload, span bookkeeping
    # included, each scaled by kernel times taken right before and after.
    cal = Calibrator()

    def timed_pass(recorder=None) -> float:
        cal.sample()
        t0 = time.perf_counter()
        res = run_pass(wls[workload].pass_ops(), recorder=recorder)
        t1 = time.perf_counter()
        cal.sample()
        tally.add(res)
        return res.loop * cal.factor(t0, t1)

    base_walls = []
    start = time.perf_counter()
    while not base_walls or time.perf_counter() - start < OVERHEAD_BASELINE_S:
        base_walls.append(timed_pass())

    rec = SpanRecorder()
    traced_walls = []
    with Patches() as patches:
        layers.install_spans(patches, rec)
        start = time.perf_counter()
        while rec.current_pass < 0 or time.perf_counter() - start < seconds:
            rec.current_pass += 1
            for name in WORKLOADS:
                if name == workload:
                    traced_walls.append(timed_pass(rec))
                else:
                    tally.add(run_pass(wls[name].pass_ops(), recorder=rec))
            probes.run(rec)
    n_passes = rec.current_pass + 1

    metrics = layers.layer_metrics(rec, counts, workload, n_passes, report_bytes,
                                   median(traced_walls) - median(base_walls))
    os.makedirs(OUT, exist_ok=True)
    spans_path = os.path.join(OUT, f"spans-{workload}-seed{seed}.json")
    with open(spans_path, "w") as fh:
        json.dump(rec.to_dict(), fh)
    for line in layers.self_time_report(rec, n_passes):
        print(line)
    print(f"spans written to {os.path.relpath(spans_path, ROOT)}")
    return tally.result(metrics, layers.PER_LAYER)


def run_all(seed: int, seconds: float) -> int:
    """Every workload in a fresh process; prints every end-to-end metric."""
    ok = True
    print(f"{'workload':<10} {'metric':<14} {'value':>14}  unit")
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name:<10} run failed: {proc.stderr.strip()[-400:]}")
            ok = False
            continue
        result = json.loads(lines[-1])
        detail = next(json.loads(ln[len("detail "):]) for ln in lines
                      if ln.startswith("detail "))
        for metric, entry in result["metrics"].items():
            print(f"{name:<10} {metric:<14} {entry['value']:>14.6g}  {entry['unit']}")
        print(f"{name:<10} {'failure_ratio':<14} {detail['failure_ratio']:>14.6g}  "
              f"ratio ({result['failed']} of {result['attempted']} ops)")
        print(f"{name:<10} {'':<14} op_tail_ms is p{detail['op_tail_percentile']:g} of "
              f"{detail['op_samples']} op samples over {detail['passes']} passes")
        ok = ok and result["correct"]
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true",
                    help="run every workload untraced, each in a fresh process")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not args.all and args.workload is None:
        ap.error("--workload is required unless --all is given")
    if args.all:
        load_package()
        return run_all(args.seed, args.seconds)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    load_package()
    workdir = os.path.join(WORK, str(os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    try:
        run = run_traced if args.trace else run_untraced
        result = run(args.workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if os.path.isdir(WORK) and not os.listdir(WORK):
            os.rmdir(WORK)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
