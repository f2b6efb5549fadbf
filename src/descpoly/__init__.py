"""Descent polynomials of permutations with bounded drop size.

Exact integer arithmetic throughout: descent polynomials by enumeration,
recurrence and closed-form multisection, the symmetric unimodal kernel
polynomials with four agreeing constructions, the tail-peeling bijections,
Eulerian identities, a rational bivariate generating function, and the
bubble-sort view of siteswap juggling sequences.
"""

from .descent import (
    CapExceeded,
    descent_coefficient,
    descent_poly_by_closed_form,
    descent_poly_by_enumeration,
    descent_poly_by_recurrence,
    kernel_poly,
    kernel_poly_by_duplication,
    kernel_poly_by_stretch,
    stretch,
    stretched_kernel_poly,
)
from .eulerian import (
    ab_identity_residual,
    euler_identity_residual,
    eulerian_number,
    eulerian_poly,
    gen_binomial,
)
from .genfunc import RationalBivariateGF, descent_gf
from .juggling import DropExceedsK, JugglingSequence, remove_ball, throw_sequence
from .permutation import (
    DescentSetSpec,
    Permutation,
    attach_tail,
    bounded_drop_count,
    count_descent_superset,
    detach_tail,
    enumerate_bounded_drop,
    standardize,
    unstandardize,
)
from .polynomial import IntPoly, NegativeExponentResidue, UsageError, geometric

__version__ = "0.1.0"

__all__ = [
    "CapExceeded",
    "DescentSetSpec",
    "DropExceedsK",
    "IntPoly",
    "JugglingSequence",
    "NegativeExponentResidue",
    "Permutation",
    "RationalBivariateGF",
    "UsageError",
    "ab_identity_residual",
    "attach_tail",
    "bounded_drop_count",
    "count_descent_superset",
    "descent_coefficient",
    "descent_gf",
    "descent_poly_by_closed_form",
    "descent_poly_by_enumeration",
    "descent_poly_by_recurrence",
    "detach_tail",
    "enumerate_bounded_drop",
    "euler_identity_residual",
    "eulerian_number",
    "eulerian_poly",
    "gen_binomial",
    "geometric",
    "kernel_poly",
    "kernel_poly_by_duplication",
    "kernel_poly_by_stretch",
    "remove_ball",
    "standardize",
    "stretch",
    "stretched_kernel_poly",
    "throw_sequence",
    "unstandardize",
]
