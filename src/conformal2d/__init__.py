"""Conformal second-order operator calculus in the plane."""

from .errors import (
    Conformal2dError,
    ConeError,
    ConfigError,
    ConjugatingUnsupported,
    DomainError,
    PoleError,
    SeedError,
    StepFailure,
)
from .geometry import EigenPair, Orthogonal2, Sym2, Vec2, conj_orth, eig2
from .mobius import (
    AnalyticMap,
    ComposedMap,
    ExpMap,
    MapJet,
    MobiusMap,
    PolynomialMap,
    compose,
)
from .fields import (
    FIELD_FAMILIES,
    MAP_KINDS,
    Bubble,
    ChenLiBubble,
    ConstantField,
    Jet2,
    LiouvilleField,
    PullbackField,
    QuadraticField,
    RadialField,
    ScalarField,
    exp_example,
    fd_jet,
    field_from_dict,
    field_to_dict,
    map_from_dict,
    map_to_dict,
    pullback,
)
from .ops import (
    ConeIndex,
    Herm2,
    SymmetricFunction,
    a_from_jet,
    b_from_jet,
    cone_margin,
    f_eval,
    in_cone,
    lambda_a,
    lambda_b,
    resolve_symmetric_function,
    sigma1,
    sigma2,
    weighted,
)
from .radial import (
    BoundaryResult,
    EnvelopeResult,
    RadialLambda,
    RadialProfile,
    RadialSolveResult,
    SolveConfig,
    boundary_solve,
    check_monotone_4log,
    e_tilde_mask,
    g_k_diagnostics,
    inf_envelope,
    minimize_on_circles,
    ode_solve,
    radial_lambda,
)
from .invariance import (
    b_covariance_errors_at,
    counterexample_iz2,
    covariance_errors_at,
    random_mobius,
    trace_residual_at,
    valid_points,
)
from .spheres import (
    BubbleFit,
    MovingSphereReport,
    bubble_fit,
    critical_lambda,
    estimate_alpha,
    ms_transform,
    ms_value,
    slack_stats,
)
from .report import CheckReport
from .suites import SUITES, run_suites, standard_fields

__version__ = "0.1.0"
