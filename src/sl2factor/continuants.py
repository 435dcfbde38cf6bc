"""Euler continuant polynomials and the closed form they give for the
matrix of an alternating word.

K_n is defined by K_(-1) = 0, K_0 = 1, K_n(x1..xn) = K_(n-1)(x1..x_(n-1))*xn
+ K_(n-2)(x1..x_(n-2)).  The all-ones specialization walks up the
Fibonacci numbers, and K_n is symmetric under reversing its arguments.

For a lower-start word L(x1) U(x2) ... of length k the product matrix is
built from four continuants of contiguous sub-tuples; evaluating those
is an independent route to the same matrix as direct multiplication,
which is what `vk_membership` relies on.
"""

from __future__ import annotations

from typing import Sequence

from .matrices import Mat2
from .rings import RElem, Ring


def _continuant_pair(ring: Ring, xs: Sequence[RElem]) -> tuple[RElem, RElem]:
    """(K(xs), K(xs[:-1])) from one pass of the recurrence (n = 0 gives
    (1, 0), the K_0 and K_(-1) that start it)."""
    prev, cur = ring.zero, ring.one
    for x in xs:
        prev, cur = cur, cur * x + prev
    return cur, prev


def continuant(ring: Ring, xs: Sequence[RElem]) -> RElem:
    """K_n evaluated at the n entries of xs (n = 0 gives 1)."""
    return _continuant_pair(ring, xs)[0]


def word_matrix_by_continuants(ring: Ring, xs: Sequence[RElem]) -> Mat2:
    """Matrix of the lower-start word with entries xs, assembled from
    continuants instead of multiplied out.

    The four continuants come from two passes of the recurrence: one
    over xs gives K(xs) and K(xs[:-1]), one over xs[1:] gives K(xs[1:])
    and K(xs[1:-1]).
    """
    xs = tuple(xs)
    k = len(xs)
    if k == 0:
        one, zero = ring.one, ring.zero
        return Mat2(one, zero, zero, one)
    if k == 1:
        return Mat2(ring.one, ring.zero, xs[0], ring.one)
    full, head = _continuant_pair(ring, xs)
    tail, inner = _continuant_pair(ring, xs[1:])
    if k % 2 == 1:
        return Mat2(tail, inner, full, head)
    return Mat2(inner, tail, head, full)


def membership_residuals(A: Mat2, xs: Sequence[RElem],
                         shape: str = "lower") -> tuple[RElem, ...]:
    """Entrywise differences (a, c, b, d order) between the continuant
    matrix of xs and its target.

    Lower-start tuples are tested against A itself; upper-start and
    D-type tuples satisfy the same four equations with A replaced by its
    half-turn involution, so they are tested against A.prime().
    """
    if A.det() != 1:
        raise ValueError("membership target must have determinant 1")
    if shape not in ("lower", "upper", "D"):
        raise ValueError(f"unknown word shape {shape!r}")
    target = A if shape == "lower" else A.prime()
    M = word_matrix_by_continuants(A.ring, xs)
    return (M.a - target.a, M.c - target.c, M.b - target.b, M.d - target.d)


def vk_membership(A: Mat2, xs: Sequence[RElem], shape: str = "lower") -> bool:
    """Exact test that xs solves the word-factorization equations for A."""
    return not any(membership_residuals(A, xs, shape))
