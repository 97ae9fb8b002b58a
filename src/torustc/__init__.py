"""Exact motion-planning complexity bounds on torus skeletons.

The package certifies the cohomological lower bound with integer
zero-divisor arithmetic, realises the matching upper bound with an explicit
piecewise planner on the product of a circle with a union of coordinate
subtori, and reconciles the two into one exact value per signature.
"""

from .algebra import (
    AlgebraElement,
    AlgebraSignature,
    CertificateFailure,
    InstanceTooLarge,
    InvalidSignature,
    LowerBoundCertificate,
    TensorElement,
    ZdclSearchReport,
    apply_multiplication_map,
    lower_bound_certificate,
    zdcl_brute_force,
    zdcl_degree_one,
    zero_divisor,
)
from .bounds import BoundMismatch, TcBounds, compute_bounds
from .planner import (
    CoordinateRule,
    InvalidEndpoint,
    PlannerPath,
    PlannerQuery,
    classify,
    dwell_time,
    plan_product,
    plan_skeleton,
)
from .skeleton import SkeletonPoint, Turn, membership, random_turn, sample
from .verify import SimulationReport, continuity_ratio, path_deviation, perturb_query, run_simulation

__version__ = "0.1.0"

__all__ = [
    "AlgebraElement",
    "AlgebraSignature",
    "BoundMismatch",
    "CertificateFailure",
    "CoordinateRule",
    "InstanceTooLarge",
    "InvalidEndpoint",
    "InvalidSignature",
    "LowerBoundCertificate",
    "PlannerPath",
    "PlannerQuery",
    "SimulationReport",
    "SkeletonPoint",
    "TcBounds",
    "TensorElement",
    "Turn",
    "ZdclSearchReport",
    "apply_multiplication_map",
    "classify",
    "compute_bounds",
    "continuity_ratio",
    "dwell_time",
    "lower_bound_certificate",
    "membership",
    "path_deviation",
    "perturb_query",
    "plan_product",
    "plan_skeleton",
    "random_turn",
    "run_simulation",
    "sample",
    "zdcl_brute_force",
    "zdcl_degree_one",
    "zero_divisor",
]
