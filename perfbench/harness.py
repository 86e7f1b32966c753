"""Measurement machinery for the conformal2d benchmark: latency statistics,
an in-memory span recorder with self-time accounting, and count wrappers
installed on public names of the package.

This module imports only the standard library, so the set-up probe can
start its clock before numpy, scipy or conformal2d are loaded.
"""
from __future__ import annotations

import importlib
import math
import time
from array import array
from dataclasses import dataclass, field

WORKLOADS = ("verify", "spheres", "radial", "pointwise")

# Tail percentiles are taken from a fixed ladder so that the reported
# percentile does not drift with the number of samples a run happens to
# collect; below 20 samples the exact "ten beyond" rank is used instead.
# The ladder stops at p99: on a shared 2-core machine the p99.9 of
# microsecond calls follows rare stalls, not the code (it moved by 30% to
# 120% between identical runs).
TAIL_LADDER = (99.0, 90.0, 50.0)
TAIL_BEYOND = 10


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    n = len(sorted_values)
    if n == 0:
        raise ValueError("percentile of an empty sample")
    rank = max(1, math.ceil(q / 100.0 * n))
    return sorted_values[rank - 1]


def median(values) -> float:
    """Median of a sample that must be non-empty and NaN-free."""
    vals = sorted(values)
    if not vals:
        raise ValueError("median of an empty sample")
    if any(math.isnan(v) for v in vals):
        raise ValueError("median of a sample holding NaN")
    mid = len(vals) // 2
    return vals[mid] if len(vals) % 2 else 0.5 * (vals[mid - 1] + vals[mid])


def tail(values) -> tuple[float, float] | None:
    """Highest percentile with at least ten samples beyond it.

    Returns (percentile, value), or None when fewer than eleven samples
    exist.  The percentile is the highest rung of TAIL_LADDER that keeps ten
    samples above its nearest rank; with 11 to 19 samples it is the rank
    that leaves exactly ten beyond.
    """
    vals = sorted(values)
    n = len(vals)
    if n <= TAIL_BEYOND:
        return None
    for q in TAIL_LADDER:
        if n - math.ceil(q / 100.0 * n) >= TAIL_BEYOND:
            return q, percentile(vals, q)
    rank = n - TAIL_BEYOND
    return 100.0 * rank / n, vals[rank - 1]


# -- spans -------------------------------------------------------------------


class SpanRecorder:
    """Spans kept in flat arrays: name id, start, end, parent index, pass id.

    Spans nest by call order: a span opened while another is open gets it
    as parent.  The recorder is single-threaded by design, as is the
    benchmark.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.pass_id = array("i")
        self.current_pass = -1
        self._stack: list[int] = []

    def __len__(self) -> int:
        return len(self.start)

    def _intern(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def begin(self, name: str) -> int:
        idx = len(self.start)
        self.name_id.append(self._intern(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.pass_id.append(self.current_pass)
        self.end.append(math.nan)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def finish(self, idx: int) -> None:
        t = time.perf_counter()
        self.end[idx] = t
        top = self._stack.pop()
        if top != idx:
            raise RuntimeError("spans closed out of order")

    def add(self, name: str, start: float, end: float, parent: int = -1,
            pass_id: int = -1) -> int:
        """Record a finished span directly, as the tests do."""
        idx = len(self.start)
        self.name_id.append(self._intern(name))
        self.start.append(start)
        self.end.append(end)
        self.parent.append(parent)
        self.pass_id.append(pass_id)
        return idx

    def wrap(self, fn, name: str):
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.finish(idx)

        return traced

    def name_of(self, idx: int) -> str:
        return self.names[self.name_id[idx]]

    def durations(self, name: str) -> list[float]:
        nid = self._name_ids.get(name)
        if nid is None:
            return []
        return [self.end[i] - self.start[i] for i in range(len(self.start))
                if self.name_id[i] == nid]

    def self_times(self) -> list[float]:
        """Each span's duration minus the part of it its children cover."""
        children: dict[int, list[int]] = {}
        for i, p in enumerate(self.parent):
            if p >= 0:
                children.setdefault(p, []).append(i)
        out = []
        for i in range(len(self.start)):
            s, e = self.start[i], self.end[i]
            covered = _covered(
                [(self.start[c], self.end[c]) for c in children.get(i, ())], s, e)
            out.append((e - s) - covered)
        return out

    def self_time_by_layer(self) -> dict[str, float]:
        """Total self time per layer, the layer being the span-name prefix."""
        totals: dict[str, float] = {}
        for i, st in enumerate(self.self_times()):
            layer = self.name_of(i).split(".", 1)[0]
            totals[layer] = totals.get(layer, 0.0) + st
        return totals

    def to_dict(self) -> dict:
        return {
            "fields": ["name", "start", "end", "parent", "pass"],
            "names": list(self.names),
            "spans": [[self.name_id[i], self.start[i], self.end[i],
                       self.parent[i], self.pass_id[i]]
                      for i in range(len(self.start))],
        }


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for s, e in sorted(intervals):
        s, e = max(s, reach), min(e, hi)
        if e > s:
            total += e - s
            reach = e
    return total


# -- patching public names ---------------------------------------------------


def resolve(dotted: str) -> tuple[object, str]:
    """Split 'pkg.module.Name.attr' into (owner object, attribute name).

    Raises LookupError when any part is missing, so that a renamed or
    removed name fails the traced run instead of reading as a count of 0.
    """
    parts = dotted.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:-1]:
            if not hasattr(owner, attr):
                raise LookupError(f"{dotted}: no attribute {attr!r}")
            owner = getattr(owner, attr)
        if not hasattr(owner, parts[-1]):
            raise LookupError(f"{dotted}: no attribute {parts[-1]!r}")
        return owner, parts[-1]
    raise LookupError(f"{dotted}: no importable module prefix")


@dataclass
class Patches:
    """Attribute replacements that are undone together."""

    saved: list = field(default_factory=list)

    def replace(self, dotted: str, make_wrapper) -> None:
        owner, attr = resolve(dotted)
        original = getattr(owner, attr)
        self.saved.append((owner, attr, original))
        setattr(owner, attr, make_wrapper(original))

    def replace_item(self, mapping: dict, key, make_wrapper) -> None:
        if key not in mapping:
            raise LookupError(f"no entry {key!r} to wrap")
        original = mapping[key]
        self.saved.append((mapping, key, original))
        mapping[key] = make_wrapper(original)

    def restore(self) -> None:
        while self.saved:
            owner, key, original = self.saved.pop()
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


class Counter(dict):
    """Named call counts filled by wrappers."""

    def counting(self, key: str):
        self.setdefault(key, 0)

        def make(original):
            def counted(*args, **kwargs):
                self[key] += 1
                return original(*args, **kwargs)

            return counted

        return make


# -- running a pass ------------------------------------------------------------


@dataclass
class PassResult:
    """``wall`` sums the op timers; ``loop`` is the whole op loop, with the
    span bookkeeping and ``after_op`` calls between ops."""

    wall: float
    loop: float
    attempted: int
    failed: int
    errors: list


def run_pass(ops, latencies=None, recorder: SpanRecorder | None = None,
             after_op=None) -> PassResult:
    """Time each op, then check every output outside the timed loop.

    An op fails when it raises, when its check raises, or when its check
    does not return True.  The pass's wall time is the sum of its op
    times.  ``latencies`` collects per-op seconds; ``after_op(op)`` runs
    after each op, outside its timer.
    """
    n = len(ops)
    outs: list = [None] * n
    raised: list = [None] * n
    clock = time.perf_counter
    wall = 0.0
    t_loop = clock()
    for i, op in enumerate(ops):
        idx = recorder.begin(op.kind) if recorder is not None else -1
        t0 = clock()
        try:
            outs[i] = op.call()
        except Exception as exc:  # an op that raises is a counted failure
            raised[i] = exc
        t1 = clock()
        if recorder is not None:
            recorder.finish(idx)
        wall += t1 - t0
        if latencies is not None:
            latencies.append(t1 - t0)
        if after_op is not None:
            after_op(op)
    loop = clock() - t_loop
    errors = []
    for i, op in enumerate(ops):
        if raised[i] is not None:
            errors.append(f"{op.kind}: raised {raised[i]!r}")
            continue
        try:
            ok = op.check(outs[i], outs) is True
        except Exception as exc:  # a check that cannot run fails the op
            errors.append(f"{op.kind}: check raised {exc!r}")
            continue
        if not ok:
            errors.append(f"{op.kind}: wrong output")
    return PassResult(wall, loop, n, len(errors), errors)


# -- machine-speed calibration --------------------------------------------------


@dataclass(frozen=True)
class _Point:
    x: float
    y: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError("non-finite point")

    def __add__(self, other: "_Point") -> "_Point":
        return _Point(self.x + other.x, self.y + other.y)

    def scale(self, s: float) -> "_Point":
        return _Point(self.x * s, self.y * s)


def calibration_kernel() -> float:
    """Fixed work that never touches conformal2d, in the mix of the
    package's hot paths: small frozen dataclasses with finiteness checks,
    float and complex arithmetic, stdlib calls, small numpy ufuncs, a scipy
    root-finder driving a Python callback, and n x n numpy broadcasts.  A
    pure arithmetic loop tracked the machine's drift much worse (see
    README.md)."""
    import json
    import re
    from fractions import Fraction

    import numpy as np
    from scipy.optimize import brentq

    acc = 0.0
    data = {f"k{i}": [i, 0.5 * i, str(i)] for i in range(150)}
    for _ in range(6):
        text = json.dumps(data, sort_keys=True)
        acc += len(json.loads(text))
    acc += len(sorted(re.findall(r"k\d+", text), key=lambda w: (len(w), w)))
    p = _Point(0.0, 1.0)
    for i in range(3000):
        p = (p + _Point(1e-3 * (i % 1500), 2e-3)).scale(0.999)
        z = complex(p.x, p.y)
        acc += abs(z * z - 1.0) + math.log1p(p.x * p.x)
    for i in range(120):
        x = np.linspace(0.0, 1.0 + i % 60, 50)
        acc += float(np.sin(x).sum() + np.hypot(x, 1.0).max())
    for k in range(80):
        acc += brentq(lambda t, k=k: t * t * t + t - 1.0 - 0.005 * k, 0.0, 2.0, xtol=1e-15)
    acc += float(sum(Fraction(1, k) for k in range(1, 60)))
    grid = np.linspace(0.0, 6.0, 700)
    for k in range(4):
        cost = np.sin(grid)[None, :] + (grid[:, None] - grid[None, :]) ** 2 / (1.0 + k)
        acc += float(cost.min(axis=1).sum())
    return acc


class Calibrator:
    """Times the calibration kernel between ops, at most every MIN_GAP_S.

    A factor is REF_S over the median kernel time near an interval, so a
    time multiplied by it reads in reference seconds: what it would have
    taken on a machine where the kernel takes REF_S.  Other tenants of a
    shared machine slow the kernel and the workload alike, and the factor
    cancels most of that.
    """

    REF_S = 0.035
    MIN_GAP_S = 0.5

    def __init__(self) -> None:
        self.stamps: list[float] = []
        self.samples: list[float] = []

    def sample(self) -> None:
        t0 = time.perf_counter()
        calibration_kernel()
        t1 = time.perf_counter()
        self.stamps.append(t1)
        self.samples.append(t1 - t0)

    def maybe_sample(self) -> None:
        if not self.stamps or time.perf_counter() - self.stamps[-1] >= self.MIN_GAP_S:
            self.sample()

    def factor(self, start: float = -math.inf, end: float = math.inf) -> float:
        """Factor from the samples taken within MIN_GAP_S of [start, end],
        or from the nearest sample when none is that close."""
        near = [d for t, d in zip(self.stamps, self.samples)
                if start - self.MIN_GAP_S <= t <= end + self.MIN_GAP_S]
        if not near:
            mid = 0.5 * (start + end)
            near = [min(zip(self.stamps, self.samples), key=lambda s: abs(s[0] - mid))[1]]
        return self.REF_S / median(near)
