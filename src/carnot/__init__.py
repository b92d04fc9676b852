"""Computable calculus on stratified (Carnot) groups.

Group arithmetic from structure constants (BCH product, dilations),
polynomials as coefficient vectors over the monomials of bounded
homogeneous degree with the left-invariant vector fields as matrices on
them, and numerical first/second-order analysis of h-convex
functions: subdifferential hulls, mean-value witnesses, directional
derivatives, second-order expansion fits and the extended differential of
the horizontal gradient.
"""

from .convexity import (
    ScalarField,
    dermax_checks,
    first_order_characterizations,
    first_order_residual_ladder,
    hconvexity_check,
    lambda_subdiff_membership,
    mean_value_witnesses,
    subdifferential_hulls,
)
from .errors import (
    CarnotError,
    DescriptorError,
    NonConvexSliceError,
    NonSingletonSubdifferential,
    RankDeficientDesign,
    SamplingError,
)
from .fields import field_coefficients, field_matrices
from .groups import (
    GroupDescriptor,
    ValidationReport,
    validate_descriptor,
)
from .hull import ConvexPolytope, hausdorff_distance
from .jets import (
    check_alij,
    horizontal_words,
    identity_residual,
    lambda_max,
    sym_hessian,
)
from .polynomials import evaluate, monomials_up_to, weighted_degree
from .registry import (
    build_function,
    build_group,
    engel,
    euclidean,
    free_step2,
    function_from_spec,
    heisenberg,
    load_descriptor,
    load_function,
    parse_polynomial,
)
from .sampling import SamplingPlan, Tolerances
from .second_order import (
    ExpansionFit,
    ExtendedDiffFit,
    SecondOrderReport,
    characterize_second_order,
    fit_expansion,
    fit_extended_differential,
    gradient_with_certificate,
    mignot_check,
    psd_check,
    second_quotient,
)

__version__ = "0.1.0"
