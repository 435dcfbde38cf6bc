"""Degree-bounded density certificates by exact linear algebra.

A point set is declared dense at degree D when no polynomial of degree
at most D vanishes on it beyond the ones forced by the ambient variety:
the nullity of the monomial evaluation matrix must match a baseline
computed from generic field-valued samples.

Rank, pivot columns and kernel basis all come from one certified kernel,
`certified_kernel`.  It maps the matrix into F_p by the ring
homomorphism (a + b*w)/r -> (a + b*s) * r^-1 mod p, where p is a fixed
61-bit prime dividing neither m nor any denominator and s^2 = d mod p,
and runs Gauss-Jordan elimination there.  A ring map never raises rank,
so full rank mod p is a proof of full rank.  Otherwise the mod-p kernel
basis is lifted by rational reconstruction (through both embeddings
w -> s and w -> -s in quadratic rings) and every lifted vector is
checked exactly against every row: that many independent kernel vectors
bound the exact rank from above, so the nullity is proven both ways.
When a lift fails that check, one exact fraction-free elimination
decides.  There is no floating point anywhere.
"""

from __future__ import annotations

import random
from math import comb, gcd, isqrt, lcm
from typing import NamedTuple, Sequence

from .matrices import Word
from .rings import RElem, Ring
from .varieties import fiber_lift, unit_product_points

BASELINE_TAIL_SPAN = 40
# the prime search walks down from 2^61 - 1 through p = 3 mod 4, where
# d^((p+1)/4) is a square root of any square d
_PRIME_START = 2**61 - 1
# Miller-Rabin with these bases is deterministic below 3.3 * 10^24
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def monomial_exponents(k: int, degree: int) -> list[tuple[int, ...]]:
    """Exponent vectors of all k-variable monomials of total degree at
    most `degree`: ascending in degree, lexicographically descending
    within a degree.  Length C(k + degree, degree)."""
    if k < 1:
        raise ValueError("need at least one variable")
    if degree < 0:
        raise ValueError("degree must be nonnegative")

    def compositions(total, parts):
        if parts == 1:
            yield (total,)
            return
        for head in range(total, -1, -1):
            for rest in compositions(total - head, parts - 1):
                yield (head,) + rest

    out = []
    for d in range(degree + 1):
        out.extend(compositions(d, k))
    assert len(out) == comb(k + degree, degree)
    return out


def _point_entries(P) -> tuple[RElem, ...]:
    if isinstance(P, Word):
        return P.entries
    return tuple(P)


def monomial_matrix(points: Sequence, degree: int) -> tuple[list[list[RElem]], list[tuple[int, ...]]]:
    """Evaluation matrix (one row per point, one column per monomial)
    together with the exponent order defining the columns."""
    if not points:
        raise ValueError("need at least one point")
    rows_in = [_point_entries(P) for P in points]
    k = len(rows_in[0])
    if any(len(e) != k for e in rows_in):
        raise ValueError("points of mixed lengths")
    exps = monomial_exponents(k, degree)
    rows = []
    for entries in rows_in:
        one = entries[0].ring.one
        pows = [[one] for _ in range(k)]
        for i, x in enumerate(entries):
            for _ in range(degree):
                pows[i].append(pows[i][-1] * x)
        row = []
        for e in exps:
            val = one
            for i, ei in enumerate(e):
                if ei:
                    val = val * pows[i][ei]
            row.append(val)
        rows.append(row)
    return rows, exps


# -- the certified kernel -----------------------------------------------------


class Kernel(NamedTuple):
    """Rank, pivot columns and kernel basis of a matrix over the ring's
    fraction field.

    The basis is the one read off the reduced row echelon form: one
    vector per non-pivot column f, with 1 at f, 0 at the other non-pivot
    columns.  `method` names the certificate: "modular" (full rank mod
    `prime`), "lifted" (mod-p kernel lifted and verified exactly against
    every row) or "exact" (exact elimination).
    """

    rank: int
    pivots: tuple[int, ...]
    basis: list[list[RElem]]
    prime: int
    method: str


def _is_prime(n: int) -> bool:
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    e, s = n - 1, 0
    while not e & 1:
        e >>= 1
        s += 1
    for a in _MR_BASES:
        x = pow(a, e, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime_for(ring: Ring, dens) -> tuple[int, int]:
    """First prime p = 3 mod 4 down from _PRIME_START that divides
    neither m nor any of `dens`, and modulo which d is a nonzero square;
    returns p and s with s^2 = d mod p (s = 0 for rational rings)."""
    p = _PRIME_START
    while True:
        if _is_prime(p) and ring.m % p and all(r % p for r in dens):
            if ring.d is None:
                return p, 0
            if pow(ring.d, (p - 1) // 2, p) == 1:
                return p, pow(ring.d, (p + 1) // 4, p)
        p -= 4


def _rref_mod(rows, ncols: int, p: int, s: int, inv: dict):
    """Pivot columns and reduced row echelon rows of the image of `rows`
    under w -> s over F_p (`inv` maps each denominator to its inverse).
    Rows are inserted one at a time, so the pass stops as soon as every
    column has a pivot."""
    reduced: dict[int, list[int]] = {}  # pivot column -> row, 1 at pivot
    for row in rows:
        v = [(x.a + x.b * s) * inv[x.r] % p for x in row]
        for c, prow in reduced.items():
            f = v[c]
            if f:
                v = [(x - f * y) % p for x, y in zip(v, prow)]
        lead = next((j for j, x in enumerate(v) if x), None)
        if lead is None:
            continue
        scale = pow(v[lead], -1, p)
        v = [x * scale % p for x in v]
        for c, prow in reduced.items():
            f = prow[lead]
            if f:
                reduced[c] = [(x - f * y) % p for x, y in zip(prow, v)]
        reduced[lead] = v
        if len(reduced) == ncols:
            break
    pivots = sorted(reduced)
    return pivots, [reduced[c] for c in pivots]


def _ratrecon(u: int, p: int) -> tuple[int, int] | None:
    """n/d with |n|, d <= sqrt(p/2), gcd(n, d) = 1 and n = d*u mod p, or
    None when there is none (Wang 1981)."""
    bound = isqrt(p // 2)
    r0, r1, t0, t1 = p, u, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    if abs(t1) > bound or gcd(r1, t1) != 1:
        return None
    return (r1, t1) if t1 > 0 else (-r1, -t1)


def _lift_rows(ring: Ring, R, R_conj, p: int, s: int):
    """Exact rows x + y*w from their images under w -> s (R) and
    w -> -s (R_conj; the same as R in rational rings), or None when an
    entry does not reconstruct."""
    half = (p + 1) // 2
    y_scale = half * pow(s, -1, p) % p if s else 0
    out = []
    for row, crow in zip(R, R_conj):
        lifted = []
        for u, v in zip(row, crow):
            x = _ratrecon((u + v) * half % p, p)
            y = _ratrecon((u - v) * y_scale % p, p)
            if x is None or y is None:
                return None
            (xn, xd), (yn, yd) = x, y
            lifted.append(RElem(ring, xn * yd, yn * xd, xd * yd))
        out.append(lifted)
    return out


def _integral_pairs(row: Sequence[RElem]) -> list[tuple[int, int]]:
    """Coefficient pairs (a, b) of the row rescaled by the lcm of its
    denominators; rescaling changes neither the row space nor what the
    row annihilates."""
    scale = lcm(*(x.r for x in row))
    return [(x.a * (scale // x.r), x.b * (scale // x.r)) for x in row]


def _annihilates(basis, rows, d: int) -> bool:
    """True when every vector of `basis` is orthogonal to every row,
    checked in exact integer arithmetic."""
    vecs = [[(j, a, b) for j, (a, b) in enumerate(_integral_pairs(vec)) if a or b]
            for vec in basis]
    for row in rows:
        ints = _integral_pairs(row)
        for vec in vecs:
            x = y = 0
            for j, a, b in vec:
                c, e = ints[j]
                x += a * c + d * b * e
                y += a * e + b * c
            if x or y:
                return False
    return True


def _rref_exact(rows, ncols: int):
    """Pivot columns and reduced row echelon rows by one fraction-free
    Gauss-Jordan pass (Bareiss 1968) over the cleared rows: every
    elimination step divides by the previous pivot, which keeps entries
    in the ring, and the final rows are divided by the last pivot."""
    ring = rows[0][0].ring
    M = [[RElem(ring, a, b) for a, b in _integral_pairs(row)] for row in rows]
    prev = ring.one
    pivots: list[int] = []
    for c in range(ncols):
        top = len(pivots)
        if top == len(M):
            break
        piv = next((i for i in range(top, len(M)) if M[i][c]), None)
        if piv is None:
            continue
        M[top], M[piv] = M[piv], M[top]
        prow = M[top]
        lead = prow[c]
        for i, row in enumerate(M):
            if i != top:
                fac = row[c]
                M[i] = [(lead * x - fac * y) / prev for x, y in zip(row, prow)]
        prev = lead
        pivots.append(c)
    scale = prev.inverse()
    return pivots, [[x * scale for x in M[i]] for i in range(len(pivots))]


def _kernel_basis(ring: Ring, pivots, R, ncols: int) -> list[list[RElem]]:
    """Kernel basis read off reduced row echelon rows R with the given
    pivot columns."""
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = [ring.zero] * ncols
        vec[free] = ring.one
        for row_idx, c in enumerate(pivots):
            vec[c] = -R[row_idx][free]
        basis.append(vec)
    return basis


def certified_kernel(rows: list[list[RElem]], ncols: int) -> Kernel:
    """Exact rank, pivot columns and reduced-row-echelon kernel basis of
    a nonempty matrix, certified as described in the module docstring."""
    if not rows:
        raise ValueError("need at least one row")
    ring = rows[0][0].ring
    dens = {x.r for row in rows for x in row}
    p, s = _prime_for(ring, dens)
    inv = {r: pow(r, -1, p) for r in dens}
    pivots, R = _rref_mod(rows, ncols, p, s, inv)
    if len(pivots) == ncols:
        return Kernel(ncols, tuple(pivots), [], p, "modular")
    # with ncols - rank_p exactly verified kernel vectors, rank_Q <=
    # rank_p <= rank_Q, and the vectors have the unique reduced form
    conj_pivots, R_conj = (_rref_mod(rows, ncols, p, p - s, inv) if s
                           else (pivots, R))
    lifted = _lift_rows(ring, R, R_conj, p, s) if conj_pivots == pivots else None
    if lifted is not None:
        basis = _kernel_basis(ring, pivots, lifted, ncols)
        if _annihilates(basis, rows, ring.d or 0):
            return Kernel(len(pivots), tuple(pivots), basis, p, "lifted")
    pivots, R = _rref_exact(rows, ncols)
    return Kernel(len(pivots), tuple(pivots), _kernel_basis(ring, pivots, R, ncols),
                  p, "exact")


# -- vanishing spaces and verdicts --------------------------------------------


def evaluation_rank(rows: list[list[RElem]], ncols: int) -> int:
    """Exact rank of the evaluation matrix."""
    return certified_kernel(rows, ncols).rank


def vanishing_space_dim(points: Sequence, degree: int) -> int:
    """Dimension of the space of polynomials of degree <= `degree`
    vanishing at every given point (nullity of the evaluation matrix)."""
    if degree < 1:
        raise ValueError("degree must be at least 1")
    rows, exps = monomial_matrix(points, degree)
    return len(exps) - evaluation_rank(rows, len(exps))


def vanishing_basis(points: Sequence, degree: int) -> tuple[list[list[RElem]], list[tuple[int, ...]]]:
    """Basis of the vanishing space as coefficient vectors over the
    monomial order, read off the exact reduced row echelon form."""
    rows, exps = monomial_matrix(points, degree)
    return certified_kernel(rows, len(exps)).basis, exps


def density_report(points: Sequence, degree: int, *, baseline: int = 0) -> dict:
    """Full density verdict as a plain dict ready for JSON output."""
    nullity = vanishing_space_dim(points, degree)
    k = len(_point_entries(points[0]))
    return {
        "k": k,
        "D": degree,
        "monomials": comb(k + degree, degree),
        "points": len(points),
        "nullity": nullity,
        "baseline": baseline,
        "dense_at_D": nullity == baseline,
    }


def generic_variety_baseline(A, k: int, degree: int, count: int, seed: int) -> int:
    """Baseline nullity from pseudorandom field-valued points of the
    length-k factorization variety, sampled by lifting random integer
    tails through the length-3 fibration."""
    rng = random.Random(seed)
    ring = A.ring
    pts = []
    attempts = 0
    while len(pts) < count:
        attempts += 1
        if attempts > 20 * count:
            raise RuntimeError("generic sampling kept hitting empty fibers")
        tail = tuple(ring.el(rng.randint(-BASELINE_TAIL_SPAN, BASELINE_TAIL_SPAN))
                     for _ in range(k - 3))
        P = fiber_lift(A, tail)
        if P is not None:
            pts.append(P)
    return vanishing_space_dim(pts, degree)


def generic_unit_variety_baseline(ring: Ring, k: int, degree: int, count: int,
                                  seed: int) -> int:
    """Baseline nullity for the unit-product variety x1*...*xk = 1 from
    pseudorandom unit tuples."""
    rng = random.Random(seed)
    pts = [unit_product_points(ring, k,
                               [ring.random_unit(rng) for _ in range(k - 1)])
           for _ in range(count)]
    return vanishing_space_dim(pts, degree)
