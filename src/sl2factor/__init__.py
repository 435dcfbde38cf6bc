"""Exact factorization of 2x2 unimodular matrices into elementary
shears over S-integer rings, integral point generation on the
factorization varieties, and degree-bounded density certificates.

All arithmetic is exact: ring elements are (a + b*sqrt(d))/r with Python
integers, matrices live over those elements, and every rank and kernel
is certified exactly: full rank modulo a prime is a proof, anything less
is verified against every row, with exact Gauss-Jordan elimination over
the fraction field as the fallback.
There is no floating point anywhere in the package.
"""

from .continuants import (continuant, membership_residuals, vk_membership,
                          word_matrix_by_continuants)
from .density import (density_report, generic_variety_baseline,
                      monomial_exponents, monomial_matrix, vanishing_basis,
                      vanishing_space_dim)
from .matrices import (WORD_SHAPES, Mat2, Word, elem, identity, letter_kind,
                       matrix_from_json, matrix_to_json, t_matrix,
                       word_from_json, word_to_json, word_to_matrix)
from .orbits import a1_families, act_a0, act_v, orbit_run, window_modulus
from .rings import (ParseError, RElem, Ring, RingMismatchError, make_ring,
                    units_congruent_one)
from .varieties import (MINUS_IDENTITY_ENTRIES, BudgetError, HeightBound,
                        MembershipError, convert_shape, coordinate_box,
                        enumerate_points_bounded, factor_euclid, fiber_lift,
                        pad, reverse_point, solve_k3)

__all__ = [
    "MINUS_IDENTITY_ENTRIES", "WORD_SHAPES",
    "BudgetError", "HeightBound", "Mat2", "MembershipError", "ParseError",
    "RElem", "Ring", "RingMismatchError", "Word",
    "a1_families", "act_a0", "act_v", "continuant", "convert_shape",
    "coordinate_box", "density_report", "elem", "enumerate_points_bounded",
    "factor_euclid", "fiber_lift", "generic_variety_baseline", "identity",
    "letter_kind", "make_ring", "matrix_from_json",
    "matrix_to_json", "membership_residuals",
    "monomial_exponents", "monomial_matrix", "orbit_run",
    "pad", "reverse_point", "solve_k3", "t_matrix", "units_congruent_one",
    "vanishing_basis", "vanishing_space_dim", "vk_membership",
    "window_modulus", "word_from_json", "word_matrix_by_continuants",
    "word_to_json", "word_to_matrix",
]
