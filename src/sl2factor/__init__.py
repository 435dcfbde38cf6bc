"""Exact factorization of 2x2 unimodular matrices into elementary
shears over S-integer rings, integral point generation on the
factorization varieties, and degree-bounded density certificates.

All arithmetic is exact: ring elements are (a + b*sqrt(d))/r with Python
integers, matrices live over those elements, and every rank and kernel
is certified exactly: full rank modulo a prime is a proof, anything less
is verified against every row, with an exact fraction-free fallback.
There is no floating point anywhere in the package.
"""

from .continuants import (continuant, membership_residuals, vk_membership,
                          word_matrix_by_continuants)
from .density import (density_report, generic_unit_variety_baseline,
                      generic_variety_baseline, monomial_exponents,
                      monomial_matrix, vanishing_basis, vanishing_space_dim)
from .matrices import (INVOLUTIONS, WORD_SHAPES, Mat2, Word, elem, identity,
                       involution, letter_kind, matrix_from_json,
                       matrix_to_json, t_matrix, word_from_json, word_to_json,
                       word_to_matrix)
from .orbits import (ORBIT_BUDGET, OrbitRecord, OrbitRun, a1_families, act_a0,
                     act_v, orbit_run, window_modulus)
from .rings import (ORDER_SEARCH_CAP, ParseError, RElem, Ring,
                    RingMismatchError, UnitsResult, canonical_associate,
                    congruent_mod, make_ring, units_congruent_one)
from .varieties import (ENUM_HALF_CAP, MINUS_IDENTITY_ENTRIES, BudgetError,
                        HeightBound, K3Solution, MembershipError,
                        convert_shape, coordinate_box,
                        enumerate_points_bounded, factor_euclid, fiber_lift,
                        pad, reverse_point, solve_k3, unit_product_points)

__all__ = [
    "ENUM_HALF_CAP", "MINUS_IDENTITY_ENTRIES", "ORBIT_BUDGET",
    "ORDER_SEARCH_CAP", "INVOLUTIONS", "WORD_SHAPES",
    "BudgetError", "HeightBound", "K3Solution", "Mat2", "MembershipError",
    "OrbitRecord", "OrbitRun", "ParseError", "RElem", "Ring",
    "RingMismatchError", "UnitsResult", "Word",
    "a1_families", "act_a0", "act_v", "canonical_associate", "congruent_mod",
    "continuant", "convert_shape", "coordinate_box", "density_report",
    "elem", "enumerate_points_bounded", "factor_euclid",
    "fiber_lift", "generic_unit_variety_baseline",
    "generic_variety_baseline", "identity", "involution", "letter_kind",
    "make_ring", "matrix_from_json", "matrix_to_json", "membership_residuals",
    "monomial_exponents", "monomial_matrix", "orbit_run",
    "pad", "reverse_point", "solve_k3",
    "t_matrix", "unit_product_points", "units_congruent_one",
    "vanishing_basis", "vanishing_space_dim", "vk_membership",
    "window_modulus", "word_from_json", "word_matrix_by_continuants",
    "word_to_json", "word_to_matrix",
]
