"""Divided differences, their rectangle-integral representation, and the
exact polynomial identities connecting the two.

The package computes divided differences by independent routes (recursive
table, reciprocal-product sum, weighted multiple integral) and certifies
the algebra behind their agreement with exact rational arithmetic.
"""

from .exact import MissingVariableError, MultiPoly, VarId, var_family
from .symfun import (
    MixedSum,
    OperatorKind,
    PureSum,
    SYMBOLIC_LIMIT,
    SymbolicLimitError,
    apply_operator,
    elementary_symmetric,
    enumerate_vertices,
    omega,
    vandermonde_poly,
    vandermonde_product,
)
from .points import (
    PointSequence,
    monotone_vertices,
    parse_points,
    sum_bounds,
    x_from_y,
    y_from_x,
)
from .funcs import (
    AnalyticFunction,
    Exponential,
    PoleError,
    Polynomial,
    Reciprocal,
    Sine,
    parse_function,
)
from .divdiff import (
    ConditioningWarning,
    build_table,
    divided_difference,
    divided_difference_side,
    divided_difference_sum_form,
)
from .quad import (
    BudgetExceededError,
    CubatureResult,
    QuadratureRule,
    gauss_legendre,
    integral_side,
    integrate_over_rectangle,
)
from .identity import (
    IdentityReport,
    LEMMA_GROUPS,
    check_chain_rule,
    check_identity_exact,
    check_identity_numeric,
    check_reduced_vertex_sum,
    check_vertex_sum,
    check_volume_symbolic,
    divided_difference_via_integral,
    exact_integral_value,
    exact_suite_points,
    floating_suite_points,
    run_lemma_suite,
    suite_passed,
)

__version__ = "0.1.0"

__all__ = [
    "AnalyticFunction",
    "BudgetExceededError",
    "ConditioningWarning",
    "CubatureResult",
    "Exponential",
    "IdentityReport",
    "LEMMA_GROUPS",
    "MissingVariableError",
    "MixedSum",
    "MultiPoly",
    "OperatorKind",
    "PointSequence",
    "PoleError",
    "Polynomial",
    "PureSum",
    "QuadratureRule",
    "Reciprocal",
    "SYMBOLIC_LIMIT",
    "Sine",
    "SymbolicLimitError",
    "VarId",
    "apply_operator",
    "build_table",
    "check_chain_rule",
    "check_identity_exact",
    "check_identity_numeric",
    "check_reduced_vertex_sum",
    "check_vertex_sum",
    "check_volume_symbolic",
    "divided_difference",
    "divided_difference_side",
    "divided_difference_sum_form",
    "divided_difference_via_integral",
    "elementary_symmetric",
    "enumerate_vertices",
    "exact_integral_value",
    "exact_suite_points",
    "floating_suite_points",
    "gauss_legendre",
    "integral_side",
    "integrate_over_rectangle",
    "monotone_vertices",
    "omega",
    "parse_function",
    "parse_points",
    "run_lemma_suite",
    "suite_passed",
    "sum_bounds",
    "vandermonde_poly",
    "vandermonde_product",
    "var_family",
    "x_from_y",
    "y_from_x",
]
