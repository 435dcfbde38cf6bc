"""Euler continuant polynomials and the closed form they give for the
matrix of an alternating word.

K_n is defined by K_(-1) = 0, K_0 = 1, K_n(x1..xn) = K_(n-1)(x1..x_(n-1))*xn
+ K_(n-2)(x1..x_(n-2)).  The all-ones specialization walks up the
Fibonacci numbers, and K_n is symmetric under reversing its arguments.

For a lower-start word L(x1) U(x2) ... of length k the product matrix is
built from four continuants of contiguous sub-tuples; evaluating those
is an independent route to the same matrix as direct multiplication,
which is what `vk_membership` relies on.

The recurrence runs on plain integers.  With R a common denominator of
the entries, x_j = (a_j + b_j*w)/R, the cleared continuant
K'_n = R^n * K_n satisfies K'_n = (a_n + b_n*w)*K'_(n-1) + R^2*K'_(n-2)
with integer pairs throughout (w*w = d), so no gcd is taken per step.
`vk_membership` compares the cleared values with the target entries
scaled by the same power of R, in integers; the other functions turn
them into ring elements once, at the end.
"""

from __future__ import annotations

from typing import Sequence

from .matrices import Mat2, shape_target
from .rings import RElem, Ring, _numerators

# a cleared value: integer pair (p, q) and exponent e, standing for
# (p + q*w)/R^e
_Cleared = tuple[int, int, int]


def _cleared_pair(d: int, r2: int, ns, n: int
                  ) -> tuple[_Cleared, _Cleared]:
    """(K'(ns), K'(ns[:-1])) for n = len(ns) numerator pairs, from one
    pass of the recurrence (n = 0 gives 1 and K'_(-1) = 0, which reads
    as 0 at any exponent)."""
    pa = pb = qb = 0
    qa = 1
    for a, b in ns:
        pa, pb, qa, qb = (qa, qb, a * qa + d * b * qb + r2 * pa,
                          a * qb + b * qa + r2 * pb)
    return (qa, qb, n), (pa, pb, max(n - 1, 0))


def _cleared_matrix(ring: Ring, xs: Sequence[RElem]
                    ) -> tuple[int, tuple[_Cleared, ...]]:
    """Common denominator R of xs and the entries, a c b d order, of
    the lower-start word matrix of xs, cleared over powers of R.

    The four continuants come from two passes of the recurrence: one
    over xs gives K(xs) and K(xs[:-1]), one over xs[1:] gives K(xs[1:])
    and K(xs[1:-1]).
    """
    R, ns = _numerators(ring, xs)
    k = len(ns)
    if k == 0:
        return 1, ((1, 0, 0), (0, 0, 0), (0, 0, 0), (1, 0, 0))
    d, r2 = ring.d or 0, R * R
    full, head = _cleared_pair(d, r2, ns, k)
    tail, inner = _cleared_pair(d, r2, ns[1:], k - 1)
    if k % 2 == 1:
        return R, (tail, inner, full, head)
    return R, (inner, tail, head, full)


def _elements(ring: Ring, R: int, cleared: Sequence[_Cleared]
              ) -> tuple[RElem, ...]:
    return tuple(RElem(ring, p, q, R**e) for p, q, e in cleared)


def continuant(ring: Ring, xs: Sequence[RElem]) -> RElem:
    """K_n evaluated at the n entries of xs (n = 0 gives 1)."""
    R, ns = _numerators(ring, xs)
    (p, q, n), _ = _cleared_pair(ring.d or 0, R * R, ns, len(ns))
    return RElem(ring, p, q, R**n)


def word_matrix_by_continuants(ring: Ring, xs: Sequence[RElem]) -> Mat2:
    """Matrix of the lower-start word with entries xs, assembled from
    continuants instead of multiplied out."""
    return Mat2(*_elements(ring, *_cleared_matrix(ring, xs)))


def _against_target(A: Mat2, xs: Sequence[RElem], shape: str):
    """Entries, a c b d order, of the target of the shape's equations for
    A (A.prime() for upper-start and D-type tuples), then the common
    denominator and the cleared word matrix of xs."""
    T = shape_target(A, shape)
    return (T.a, T.c, T.b, T.d), *_cleared_matrix(A.ring, xs)


def membership_residuals(A: Mat2, xs: Sequence[RElem],
                         shape: str = "lower") -> tuple[RElem, ...]:
    """Entrywise differences (a, c, b, d order) between the continuant
    matrix of xs and its target."""
    target, R, M = _against_target(A, xs, shape)
    return tuple(m - t for m, t in zip(_elements(A.ring, R, M), target))


def vk_membership(A: Mat2, xs: Sequence[RElem], shape: str = "lower") -> bool:
    """Exact test that xs solves the word-factorization equations for A,
    in integers: each cleared entry (p + q*w)/R^e against its target
    entry (t.a + t.b*w)/t.r."""
    target, R, M = _against_target(A, xs, shape)
    for (p, q, e), t in zip(M, target):
        s = R**e
        if p * t.r != t.a * s or q * t.r != t.b * s:
            return False
    return True
