"""Named verification suites: batch property checks over seeded samples.

Each suite aggregates one family of identities (covariance laws, the trace
law, representation formulas, envelope and monotonicity behavior, moving
spheres, the radial solver) into a list of CheckReport rows.  Suites are
pure functions of (seed, tol), so a fixed configuration reproduces the same
report.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Optional

import numpy as np

from .fields import (
    Bubble,
    ChenLiBubble,
    ConstantField,
    Jet2,
    LiouvilleField,
    RadialField,
    ScalarField,
    exp_example,
    fd_jet,
    pullback,
    pullback_jets,
)
from .geometry import Sym2, Vec2, eig2
from .invariance import (
    annulus_points,
    b_covariance_errors_at,
    counterexample_iz2,
    covariance_errors_at,
    random_mobius,
    trace_residual_at,
    valid_points,
)
from .mobius import AnalyticMap, ExpMap, MobiusMap, PolynomialMap
from .ops import ConeIndex, a_from_jet, b_from_jet, lambda_a, sigma1, sigma2
from .radial import (
    RadialProfile,
    boundary_solve,
    check_monotone_4log,
    e_tilde_mask,
    g_k_diagnostics,
    inf_envelope,
    ode_solve,
    radial_lambda,
)
from .report import CheckReport
from .spheres import bubble_fit, critical_lambda, ms_transform, ms_value


def _binary_report(name: str, ok: bool, extras: Optional[dict] = None,
                   witnesses=()) -> CheckReport:
    """Pass/fail check reported as error 0 or 1 against tolerance 0."""
    return CheckReport.from_errors(name, [0.0 if ok else 1.0], 0.0,
                                   witnesses=witnesses, extras=extras)


def _shortfall_report(name: str, observed: float, at_least: float,
                      extras: Optional[dict] = None) -> CheckReport:
    """Check that a quantity is LARGE: error is the shortfall below at_least.

    A NaN observation gives a NaN shortfall, which fails."""
    ex = {"observed": float(observed), "required_at_least": float(at_least)}
    ex.update(extras or {})
    return CheckReport.from_errors(name, [np.maximum(0.0, at_least - observed)], 0.0,
                                   extras=ex)


def _box_points(rng: np.random.Generator, n: int, x_range, y_range) -> list[Vec2]:
    xs = rng.uniform(x_range[0], x_range[1], n)
    ys = rng.uniform(y_range[0], y_range[1], n)
    return [Vec2(float(x), float(y)) for x, y in zip(xs, ys)]


def seeded_cubic(rng: np.random.Generator, box: float = 1.2,
                 d1_min: float = 0.35) -> PolynomialMap:
    """Random cubic polynomial map whose derivative clears d1_min on the
    [-box, box]^2 sampling square (resampled until it does)."""
    xs = np.linspace(-box, box, 41)
    while True:
        coeffs = [
            0.0,
            complex(rng.normal(1.5, 0.4), rng.normal(0.0, 0.3)),
            0.15 * complex(rng.normal(), rng.normal()),
            0.05 * complex(rng.normal(), rng.normal()),
        ]
        f = PolynomialMap(coeffs)
        if np.abs(f.values_d1(xs[:, None] + 1j * xs)[1]).min() >= d1_min:
            return f


def standard_fields(rng: np.random.Generator) -> list[tuple[str, ScalarField]]:
    """Ten seeded fields spanning every closed-form family: three generic
    bubbles, two mass-normalized ones, three Liouville fields with
    polynomial data, and two pullback composites."""
    fields: list[tuple[str, ScalarField]] = []
    for _ in range(3):
        a = float(rng.uniform(0.4, 2.5))
        b = float(rng.uniform(1.0, 16.0))
        x0 = Vec2(float(rng.uniform(-0.4, 0.4)), float(rng.uniform(-0.4, 0.4)))
        fields.append((f"bubble[{a:.3g},{b:.3g}]", Bubble(a, b, x0)))
    fields.append(("chen-li[1]", ChenLiBubble(1.0)))
    fields.append(("chen-li[0.55]", ChenLiBubble(0.55, Vec2(0.2, -0.3))))
    fields.append(("liouville[z]", LiouvilleField(PolynomialMap([0.0, 1.0]))))
    fields.append(("liouville[quad]",
                   LiouvilleField(PolynomialMap([0.1, 1.0, 0.05]))))
    fields.append(("liouville[cubic]",
                   LiouvilleField(PolynomialMap([0.0, 2.0, 0.0, 0.02]))))
    fields.append(("pullback[bubble]",
                   pullback(Bubble(1.0, 8.0), MobiusMap(1.1, 0.2, 0.1, 1.0))))
    fields.append(("pullback[chen-li]",
                   pullback(ChenLiBubble(0.8),
                            MobiusMap.sphere_inversion(Vec2(0.25, 0.1), 1.2))))
    return fields


def _usable_for(u: ScalarField, m: MobiusMap,
                sink: Optional[list] = None) -> Callable[[Vec2], bool]:
    """Acceptance test for valid_points: the pullback jets evaluate.  Each
    accepted point's pullback_jets triple is appended to sink, if given;
    usable.block tests a list of points with one pullback_jets call."""

    def block(pts: list[Vec2]) -> list[bool]:
        jets = pullback_jets(u, m, pts)
        if sink is not None:
            sink.extend(jets)
        return [True] * len(pts)

    def usable(p: Vec2) -> bool:
        return block([p])[0]

    usable.block = block
    return usable


def counterexample_suite(seed: Optional[int] = None,
                         tol: Optional[float] = None) -> list[CheckReport]:
    """Exact matrices for the quadratic-map counterexample at a=1, y=1."""
    tol = 1e-10 if tol is None else tol
    ce = counterexample_iz2(1.0, 1.0)
    lhs_target = Sym2(-2.75, 0.0, 0.75)
    rhs_target = Sym2(-2.0, 0.0, 0.0)
    matrix_errs = [
        (ce.lhs - lhs_target).max_abs(),
        (ce.rhs - rhs_target).max_abs(),
    ]
    return [
        CheckReport.from_errors("counterexample-matrices", matrix_errs, tol,
                                extras=ce.to_dict()),
        _binary_report("counterexample-trace-match", ce.trace_match,
                       extras={"lhs_trace": ce.lhs.a11 + ce.lhs.a22,
                               "rhs_trace": ce.rhs.a11 + ce.rhs.a22}),
        CheckReport.from_errors("counterexample-eigen-gap",
                                [abs(ce.eigen_gap - 0.75)], tol,
                                extras={"eigen_gap": ce.eigen_gap}),
    ]


def covariance_suite(seed: Optional[int] = None,
                     tol: Optional[float] = None) -> list[CheckReport]:
    """Matrix, tensor, and spectral covariance over 20 maps x 10 fields x 50
    points, plus the Hermitian form on holomorphic maps."""
    seed = 7 if seed is None else seed
    tol = 1e-8 if tol is None else tol
    rng = np.random.default_rng(seed)
    fields = standard_fields(rng)
    maps = [random_mobius(rng) for _ in range(20)]

    rows: dict[str, list[tuple[str, float]]] = {
        "matrix": [], "tensor": [], "eigen": [],
    }
    for mi, m in enumerate(maps):
        for fname, u in fields:
            jets: list = []
            pts = valid_points(rng, 50, _usable_for(u, m, jets))
            for p, e in zip(pts, covariance_errors_at(u, m, pts, jets)):
                label = f"map{mi}/{fname}@({p.x1:.3g},{p.x2:.3g})"
                rows["matrix"].append((label, e.matrix))
                rows["tensor"].append((label, e.tensor))
                rows["eigen"].append((label, e.eigen))
    out = [CheckReport.from_labeled(f"a-covariance-{key}", labeled, tol)
           for key, labeled in rows.items()]

    herm_rows: list[tuple[str, float]] = []
    herm_fields = [fields[0], fields[3], fields[5]]
    for mi in range(10):
        m = random_mobius(rng, conjugating=False)
        for fname, u in herm_fields:
            jets = []
            pts = valid_points(rng, 30, _usable_for(u, m, jets))
            for p, j in zip(pts, jets):
                e_diag, e_off = b_covariance_errors_at(u, m, p, j)
                label = f"hmap{mi}/{fname}@({p.x1:.3g},{p.x2:.3g})"
                herm_rows.append((label, max(e_diag, e_off)))
    out.append(CheckReport.from_labeled("b-covariance", herm_rows, tol))
    return out


def trace_suite(seed: Optional[int] = None,
                tol: Optional[float] = None) -> list[CheckReport]:
    """Trace law under non-fractional-linear analytic maps, together with
    the failure of full matrix covariance under iz^2."""
    seed = 0 if seed is None else seed
    tol = 1e-8 if tol is None else tol
    rng = np.random.default_rng(seed)
    maps: list[tuple[str, AnalyticMap]] = [
        ("z2", PolynomialMap([0.0, 0.0, 1.0])),
        ("iz2", PolynomialMap([0.0, 0.0, 1.0j])),
        ("exp", ExpMap()),
    ]
    fields = [
        ("bubble", Bubble(1.0, 8.0)),
        ("liouville[z]", LiouvilleField(PolynomialMap([0.0, 1.0]))),
    ]
    out = []
    for mname, psi in maps:
        labeled = []
        for fname, u in fields:
            # box sits away from the critical point of z^2 at the origin
            pts = _box_points(rng, 100, (0.3, 1.4), (0.2, 1.3))
            for p, res in zip(pts, trace_residual_at(u, psi, pts)):
                labeled.append((f"{mname}/{fname}@({p.x1:.3g},{p.x2:.3g})", abs(res)))
        out.append(CheckReport.from_labeled(f"trace-{mname}", labeled, tol))

    ce = counterexample_iz2(1.0, 1.0)
    out.append(_shortfall_report(
        "a-covariance-fails-under-iz2", ce.covariance_error, 0.5,
        extras={"trace_match": ce.trace_match}))
    return out


def liouville_suite(seed: Optional[int] = None,
                    tol: Optional[float] = None) -> list[CheckReport]:
    """PDE residual -Delta u = e^u for Liouville fields, 200 points each."""
    seed = 3 if seed is None else seed
    tol = 1e-7 if tol is None else tol
    rng = np.random.default_rng(seed)
    cubic = seeded_cubic(rng)
    cases = [
        ("z", LiouvilleField(PolynomialMap([0.0, 1.0]))),
        ("exp", exp_example()),
        ("cubic", LiouvilleField(cubic)),
    ]
    out = []
    for name, u in cases:
        labeled = []
        pts = _box_points(rng, 200, (-1.2, 1.2), (-1.2, 1.2))
        for p, j in zip(pts, u.jets(pts)):
            res = abs(-(j.hess.a11 + j.hess.a22) - math.exp(j.value))
            labeled.append((f"({p.x1:.3g},{p.x2:.3g})", res))
        out.append(CheckReport.from_labeled(f"liouville-pde-{name}", labeled, tol))
    return out


@functools.lru_cache(maxsize=4)
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only n-point Gauss-Legendre nodes and weights on [-1, 1]."""
    nodes, weights = np.polynomial.legendre.leggauss(n)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def mass_suite(seed: Optional[int] = None,
               tol: Optional[float] = None) -> list[CheckReport]:
    """Total integral of e^u for mass-normalized bubbles: 2D quadrature over
    a disk plus the closed-form tail, compared against 8 pi."""
    tol = 1e-3 if tol is None else tol
    out = []
    nodes, weights = _gauss_legendre(200)
    thetas = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)
    total_target = 8.0 * math.pi
    for u in (ChenLiBubble(1.0), ChenLiBubble(0.55)):
        radius = 60.0
        r = 0.5 * radius * (nodes + 1.0)
        wr = 0.5 * radius * weights
        dens = np.exp(u.values(np.outer(r, np.cos(thetas)), np.outer(r, np.sin(thetas))))
        ring = np.array([math.fsum(row) for row in dens]) * (2.0 * math.pi / len(thetas))
        disk = float(np.sum(wr * r * ring))
        a2 = 8.0 * u.a * u.a
        disk_closed = total_target - 8.0 * math.pi * a2 / (a2 + radius * radius)
        total = disk + u.tail_mass(radius)
        label = f"a={u.a:g}"
        out.append(CheckReport.from_errors(
            f"mass-quadrature-oracle[{label}]",
            [abs(disk - disk_closed) / total_target], 1e-8,
            extras={"disk": disk, "disk_closed_form": disk_closed}))
        out.append(CheckReport.from_errors(
            f"mass-total[{label}]",
            [abs(total - total_target) / total_target], tol,
            extras={"total": total, "target": total_target,
                    "tail": u.tail_mass(radius)}))
    return out


def bubble_suite(seed: Optional[int] = None,
                 tol: Optional[float] = None) -> list[CheckReport]:
    """Constancy A = kappa I for bubbles, the scaling of kappa, and the
    finite-difference resolution of the constant."""
    seed = 11 if seed is None else seed
    tol = 1e-10 if tol is None else tol
    rng = np.random.default_rng(seed)
    spread_rows: list[tuple[str, float]] = []
    scale_vals: list[float] = []
    for _ in range(10):
        a = float(rng.uniform(0.3, 3.0))
        b = float(rng.uniform(0.5, 20.0))
        x0 = Vec2(float(rng.uniform(-1.0, 1.0)), float(rng.uniform(-1.0, 1.0)))
        u = Bubble(a, b, x0)
        pts = [Vec2(p.x1 + x0.x1, p.x2 + x0.x2)
               for p in annulus_points(rng, 50, 0.0, 3.0)]
        mats = [a_from_jet(u.jet(p)) for p in pts]
        kappa = float(np.mean([0.5 * (m.a11 + m.a22) for m in mats]))
        for p, m in zip(pts, mats):
            dev = (m - Sym2(kappa, 0.0, kappa)).max_abs()
            spread_rows.append((f"a={a:.3g},b={b:.3g}@({p.x1:.3g},{p.x2:.3g})",
                                dev))
        scale_vals.append(kappa * a * a / b)

    ratio = float(np.mean(scale_vals))
    out = [
        CheckReport.from_labeled("bubble-constancy", spread_rows, tol),
        CheckReport.from_errors(
            "bubble-scaling", [max(scale_vals) - min(scale_vals)], tol,
            extras={"kappa_a2_over_b": ratio}),
    ]

    # independent second route: central differences never touch the jet code
    u = Bubble(1.0, 8.0)
    kappa_exact = ratio * 8.0
    fd_errs = []
    for p in annulus_points(rng, 8, 0.3, 2.0):
        m = a_from_jet(fd_jet(u, p, richardson=True))
        fd_errs.append(abs(0.5 * (m.a11 + m.a22) - kappa_exact))
    out.append(CheckReport.from_errors(
        "bubble-kappa-fd-oracle", fd_errs, 1e-5,
        extras={
            "kappa_resolved": kappa_exact,
            "kappa_rejected": 4.0 * kappa_exact,
            "note": ("resolved constant is b/(2 a^2); the alternative "
                     "normalization 2 b/a^2 is four times larger and is "
                     "ruled out by this oracle"),
        }))
    return out


def cross_suite(seed: Optional[int] = None, tol: Optional[float] = None,
                n: int = 1000) -> list[CheckReport]:
    """Real and complex operator forms agree spectrally on random jets."""
    seed = 5 if seed is None else seed
    tol = 1e-10 if tol is None else tol
    rng = np.random.default_rng(seed)
    labeled = []
    # each jet's value, gradient and Hessian entries: the draws one at a time gave
    lows = [-2.0, -3.0, -3.0, -5.0, -5.0, -5.0]
    rows = rng.uniform(lows, [-x for x in lows], (n, 6))
    for i, (v, g1, g2, a11, a12, a22) in enumerate(rows.tolist()):
        j = Jet2(v, Vec2(g1, g2), Sym2(a11, a12, a22))
        ea = eig2(a_from_jet(j))
        h = b_from_jet(j)
        hi, lo = h.zzbar + abs(h.zz), h.zzbar - abs(h.zz)
        err = max(abs(ea.lambda1 - 2.0 * hi), abs(ea.lambda2 - 2.0 * lo))
        labeled.append((f"jet{i}", err))
    return [CheckReport.from_labeled("cross-representation", labeled, tol)]


def monotone_suite(seed: Optional[int] = None,
                   tol: Optional[float] = None) -> list[CheckReport]:
    """Three-way consistency of the v + 4 ln r monotonicity diagnostic."""
    tol = 1e-10 if tol is None else tol
    grid = np.linspace(0.05, 40.0, 4000)

    bubble_errs = []
    k0s = []
    for a, b in ((1.0, 8.0), (0.7, 3.0), (2.0, 20.0)):
        u = Bubble(a, b)
        prof = RadialProfile(grid, u.values(grid, 0.0))
        rep = check_monotone_4log(prof, k0=0.0, slack=tol)
        bubble_errs.append(rep.max_error)
        k0s.append(rep.extras["empirical_k0"])
    out = [CheckReport.from_errors("monotone-bubbles", bubble_errs, tol,
                                   extras={"empirical_k0": max(k0s)})]

    flat = RadialProfile(grid, -4.0 * np.log(grid))
    rep = check_monotone_4log(flat, k0=0.0, slack=0.0)
    out.append(CheckReport.from_errors(
        "monotone-4log-zero-slack", [rep.max_error], 0.0,
        extras={"empirical_k0": rep.extras["empirical_k0"]}))

    steep = RadialProfile(grid, -5.0 * np.log(grid))
    rep = check_monotone_4log(steep, k0=0.0, slack=tol)
    lam2 = np.array([
        radial_lambda(v, -5.0 / r, 5.0 / (r * r), r).lambda2
        for r, v in zip(grid, steep.v)
    ])
    rejected = (not rep.passed) and bool((lam2 < 0.0).all())
    out.append(_binary_report(
        "monotone-5log-rejected", rejected,
        extras={"worst_drop": rep.max_error,
                "max_lambda2": float(lam2.max())}))
    return out


def envelope_suite(seed: Optional[int] = None,
                   tol: Optional[float] = None) -> list[CheckReport]:
    """Envelope regularization on five profiles: exactness on a quadratic,
    one-sidedness, monotonicity in epsilon, semiconcavity, distance bound."""
    tol = 1e-9 if tol is None else tol
    grid = np.linspace(0.0, 6.0, 1201)
    dr = float(grid[1] - grid[0])
    bubble = Bubble(1.0, 8.0)
    profiles = [
        ("quadratic", RadialProfile(grid, grid ** 2)),
        ("kink", RadialProfile(grid, np.abs(grid - 2.0))),
        ("sine", RadialProfile(grid, np.sin(1.3 * grid))),
        ("bubble", RadialProfile(grid, bubble.values(grid, 0.0))),
        ("neg4log", RadialProfile(np.linspace(0.5, 6.5, 1201),
                                  -4.0 * np.log(np.linspace(0.5, 6.5, 1201)))),
    ]

    quad = inf_envelope(profiles[0][1], 1.0)
    ri, vi = quad.interior_slice()
    quad_err = float(np.abs(vi - ri ** 2 / 2.0).max())
    out = [CheckReport.from_errors(
        "envelope-quadratic-closed-form", [quad_err], 4.0 * dr * dr,
        extras={"grid_step": dr})]

    below, mono, defect, dist = [], [], [], []
    for name, prof in profiles:
        lip = float(np.abs(np.diff(prof.v) / np.diff(prof.r)).max())
        res_half = inf_envelope(prof, 0.5)
        res_one = inf_envelope(prof, 1.0)
        below.append((name, float((res_one.profile.v - prof.v).max())))
        mono.append((name, float((res_one.profile.v - res_half.profile.v).max())))
        for res in (res_half, res_one):
            defect.append((f"{name}/eps={res.epsilon}", res.semiconcavity_defect))
            bound = lip * lip * res.epsilon
            dist.append((f"{name}/eps={res.epsilon}",
                         float(np.maximum(0.0, res.sup_distance_to_input - bound))))
    out.append(CheckReport.from_labeled("envelope-below-input", below, 0.0))
    out.append(CheckReport.from_labeled("envelope-eps-monotone", mono, 0.0))
    out.append(CheckReport.from_labeled("envelope-semiconcavity", defect, tol))
    out.append(CheckReport.from_labeled("envelope-distance-bound", dist, 0.0))
    return out


def spheres_suite(seed: Optional[int] = None,
                  tol: Optional[float] = None) -> list[CheckReport]:
    """Critical radius, global equality at it, unbounded flag, and the
    bubble-family fit."""
    seed = 0 if seed is None else seed
    tol = 1e-8 if tol is None else tol
    rng = np.random.default_rng(seed)
    u = Bubble(1.0, 8.0)
    out = []

    rep = critical_lambda(u, Vec2(0.0, 0.0), lam_max=8.0)
    out.append(CheckReport.from_errors(
        "spheres-lambda-bar-center", [abs((rep.lambda_bar or 0.0) - 1.0)],
        1e-3, extras=rep.to_dict()))

    lam = rep.lambda_bar or 1.0
    radii = np.geomspace(0.1, 10.0, 120)
    thetas = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)[::8]
    # y = r (cos t, sin t), radius-major, with math.cos and math.sin as the
    # labels' points always had; u_{x,lam} in one batch, u point by point
    y1 = np.outer(radii, [math.cos(t) for t in thetas]).ravel()
    y2 = np.outer(radii, [math.sin(t) for t in thetas]).ravel()
    transformed = ms_value(u, Vec2(0.0, 0.0), lam, (y1, y2))
    labeled = [(f"r={r:.3g}", abs(float(v) - u.value(Vec2(float(a), float(b)))))
               for r, a, b, v in zip(np.repeat(radii, len(thetas)), y1, y2, transformed)]
    out.append(CheckReport.from_labeled("spheres-equality-residual", labeled, tol))

    crep = critical_lambda(ConstantField(0.7), Vec2(0.0, 0.0), lam_max=50.0)
    out.append(_binary_report("spheres-constant-unbounded", crep.unbounded,
                              extras=crep.to_dict()))

    orep = critical_lambda(u, Vec2(1.0, 0.0), lam_max=8.0)
    out.append(CheckReport.from_errors(
        "spheres-lambda-bar-offcenter",
        [abs((orep.lambda_bar or 0.0) - math.sqrt(2.0))], 2e-3,
        extras={"closed_form": math.sqrt(2.0)}))
    out.append(CheckReport.from_errors(
        "spheres-offcenter-residual", [orep.equality_residual or 1.0], 1e-6))

    # transform consistency: direct formula against jacobian-log pullback
    tr = ms_transform(u, Vec2(0.3, -0.2), 1.7)
    cons = [abs(tr.value(p) - ms_value(u, Vec2(0.3, -0.2), 1.7, p))
            for p in annulus_points(rng, 40, 0.6, 4.0)]
    out.append(CheckReport.from_errors("spheres-transform-consistency",
                                       cons, 1e-12))

    twice = ms_transform(ms_transform(u, Vec2(0.0, 0.0), 1.3),
                         Vec2(0.0, 0.0), 1.3)
    inv = [abs(twice.value(p) - u.value(p))
           for p in annulus_points(rng, 40, 0.5, 3.0)]
    out.append(CheckReport.from_errors("spheres-involution", inv, 1e-12))

    target = Bubble(1.3, 6.0, Vec2(0.2, -0.1))
    pts = annulus_points(rng, 24, 0.2, 2.5)
    fit = bubble_fit(target, pts)
    out.append(CheckReport.from_errors(
        "spheres-fit-exact",
        [fit.residual, abs(fit.a - 1.3), abs(fit.b - 6.0)], 1e-8,
        extras={"a": fit.a, "b": fit.b, "is_bubble": fit.is_bubble}))
    nfit = bubble_fit(exp_example(), pts)
    out.append(_shortfall_report(
        "spheres-fit-rejects-nonbubble", nfit.residual, 1e-2,
        extras={"is_bubble": nfit.is_bubble}))
    return out


def solver_suite(seed: Optional[int] = None,
                 tol: Optional[float] = None) -> list[CheckReport]:
    """Radial shooting solver against closed-form bubbles, the cone-exit
    alternative, the 2D cross-check, and the boundary-equation diagnostic."""
    tol = 1e-5 if tol is None else tol
    out = []
    results = {}
    for f, (a, b) in ((sigma2(), (4.0, 32.0)), (sigma1(), (8.0, 64.0))):
        res = ode_solve(f, v0=0.0, r_max=5.0)
        results[f.name] = res
        r = res.profile.r
        exact = 2.0 * np.log(8.0 * a / (8.0 * r * r + b))
        out.append(CheckReport.from_errors(
            f"solver-{f.name}-bubble",
            [float(np.abs(res.profile.v - exact).max())], tol,
            extras={"a": a, "b": b, "mu": res.mu}))
        out.append(CheckReport.from_errors(
            f"solver-{f.name}-residual",
            [float(res.residual.max())], 1e-9))

    pres = ode_solve(sigma2(), v0=0.35, r_max=5.0)
    fired = pres.cone_exit is not None
    completed = (not fired) and float(pres.residual.max()) <= 1e-9
    out.append(_binary_report(
        "solver-exit-xor-residual", fired != completed,
        extras={"cone_exit": pres.cone_exit,
                "max_residual": float(pres.residual.max())}))

    # reconstruct v'' from the stored eigenvalues, then compare the 2D
    # operator on the interpolated field with the radial closed form
    res = results["sigma2"]
    prof = res.profile
    ddv = 0.25 * prof.dv ** 2 - res.lambda1 * np.exp(prof.v)
    field = RadialField(RadialProfile(prof.r, prof.v, prof.dv, ddv))
    rng = np.random.default_rng(0 if seed is None else seed)
    labeled = []
    for r in rng.uniform(0.1, 4.8, 40):
        t = float(rng.uniform(0.0, 2.0 * math.pi))
        p = Vec2(r * math.cos(t), r * math.sin(t))
        pair = lambda_a(field, p)
        exact = 2.0 * math.log(32.0 / (8.0 * r * r + 32.0))
        rl = radial_lambda(exact, -32.0 * r / (8.0 * r * r + 32.0),
                           -32.0 / (8.0 * r * r + 32.0)
                           + 512.0 * r * r / (8.0 * r * r + 32.0) ** 2, r)
        hi, lo = rl.as_sorted()
        labeled.append((f"r={r:.3g}", max(abs(pair.lambda1 - hi),
                                          abs(pair.lambda2 - lo))))
    out.append(CheckReport.from_labeled("solver-cross-2d", labeled, 1e-8))

    bres = boundary_solve(ConeIndex(1.5), 1.0, 0.0, -6.0, 2.5)
    r = bres.profile.r
    g, k = g_k_diagnostics(r, bres.profile.dv, ConeIndex(1.5))
    mask = e_tilde_mask(r, bres.profile.dv)
    out.append(CheckReport.from_errors(
        "boundary-ktilde-constant", [float(np.abs(k - 1.0 / 12.0).max())],
        1e-9, extras={"all_in_e_tilde": bool(mask.all()),
                      "g_positive": bool((g > 0.0).all())}))
    _, k13 = g_k_diagnostics(r, bres.profile.dv, ConeIndex(1.3))
    out.append(_binary_report(
        "boundary-ktilde-increasing-below-p",
        bool((np.diff(k13) > 0.0).all()),
        extras={"cone_p": 1.3}))
    return out


SUITES: dict[str, Callable[..., list[CheckReport]]] = {
    "counterexample": counterexample_suite,
    "covariance": covariance_suite,
    "trace": trace_suite,
    "liouville": liouville_suite,
    "mass": mass_suite,
    "bubble": bubble_suite,
    "cross": cross_suite,
    "monotone": monotone_suite,
    "envelope": envelope_suite,
    "spheres": spheres_suite,
    "solver": solver_suite,
}


def run_suites(names, seed: Optional[int] = None,
               tol: Optional[float] = None) -> list[CheckReport]:
    """Run the named suites in a fixed order and concatenate their reports."""
    out: list[CheckReport] = []
    for name in names:
        out.extend(SUITES[name](seed=seed, tol=tol))
    return out
