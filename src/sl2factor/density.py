"""Degree-bounded density certificates by exact linear algebra.

A point set is declared dense at degree D when no polynomial of degree
at most D vanishes on it beyond the ones forced by the ambient variety:
the nullity of the monomial evaluation matrix must match a baseline
computed from generic field-valued samples.

Rank, pivot columns and kernel basis all come from one certified kernel
(`_certify`, behind `certified_kernel` for a given matrix and behind
`vanishing_space_dim` and `vanishing_basis` for a point set).  It maps
the matrix into F_p by the ring homomorphism
(a + b*w)/r -> (a + b*s) * r^-1 mod p, where p is a fixed 61-bit prime
dividing neither m nor any denominator and s^2 = d mod p, and runs
Gauss-Jordan elimination there.  For a point set the rows mod p come
from the coordinates: each point's coordinates are mapped into F_p once
and its monomials are formed mod p, one row at a time as the
elimination asks for them, so rows past full rank are never built.  A
ring map never raises rank, so full rank mod p is a proof of full rank.
Otherwise the exact rows are built, the mod-p kernel basis is lifted by
rational reconstruction (through both embeddings w -> s and w -> -s in
quadratic rings) and every lifted vector is checked exactly against
every row: that many independent kernel vectors bound the exact rank
from above, so the nullity is proven both ways.  When a lift fails that
check, one exact Gauss-Jordan elimination over the fraction field
decides.  There is no floating point anywhere.
"""

from __future__ import annotations

import random
from bisect import insort
from math import comb, gcd, isqrt, lcm
from typing import NamedTuple, Sequence

from .matrices import Word
from .rings import RElem, Ring, _is_prime
from .varieties import fiber_lift, unit_product_points

BASELINE_TAIL_SPAN = 40
# the prime search walks down from 2^61 - 1 through p = 3 mod 4, where
# d^((p+1)/4) is a square root of any square d
_PRIME_START = 2**61 - 1


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


def _evaluation_plan(points: Sequence, degree: int) -> tuple[
        list[tuple[RElem, ...]], list[tuple[int, ...]], list[tuple[int, int]]]:
    """Coordinate tuples of `points`, the monomial exponent order, and
    the step table that builds monomial j + 1 as monomial `parent` times
    variable `i`, for each pair (parent, i) in order."""
    if not points:
        raise ValueError("need at least one point")
    coords = [_point_entries(P) for P in points]
    k = len(coords[0])
    if any(len(e) != k for e in coords):
        raise ValueError("points of mixed lengths")
    exps = monomial_exponents(k, degree)
    # every later monomial is an earlier one times its first variable
    index = {e: j for j, e in enumerate(exps)}
    firsts = [next(i for i, ei in enumerate(e) if ei) for e in exps[1:]]
    steps = [(index[e[:i] + (e[i] - 1,) + e[i + 1:]], i)
             for e, i in zip(exps[1:], firsts)]
    return coords, exps, steps


def monomial_matrix(points: Sequence, degree: int) -> tuple[list[list[RElem]], list[tuple[int, ...]]]:
    """Evaluation matrix (one row per point, one column per monomial)
    together with the exponent order defining the columns."""
    coords, exps, steps = _evaluation_plan(points, degree)
    rows = []
    for xs in coords:
        row = [xs[0].ring.one]
        for parent, i in steps:
            row.append(row[parent] * xs[i])
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


def _rref(rows, ncols: int, p: int | None = None):
    """Pivot columns and reduced row echelon rows of `rows`: residue rows
    over F_p when `p` is given, `RElem` rows over the fraction field
    otherwise.

    Rows are inserted one at a time.  Each is reduced against the
    echelon rows in pivot order, which leaves it zero at every pivot, so
    its first nonzero entry is a new pivot.  The pass stops as soon as
    every column has a pivot, and later rows are never read; the reduced
    form is then the identity.  Below full rank one back pass at the end
    clears every pivot column above its pivot."""
    if p is None:
        def sub(v, f, w):  # v - f*w
            return [x - f * y for x, y in zip(v, w)]

        def monic(v):
            scale = v[0].inverse()
            return [x * scale for x in v]
    else:
        def sub(v, f, w):
            return [(x - f * y) % p for x, y in zip(v, w)]

        def monic(v):
            scale = pow(v[0], -1, p)
            return [x * scale % p for x in v]

    # (pivot, tail) in pivot order; tail is the row from its pivot on,
    # starting with 1, and the row is 0 before its pivot
    echelon: list = []
    for v in rows:
        for c, tail in echelon:
            f = v[c]
            if f:
                v = v[:c] + sub(v[c:], f, tail)
        lead = next((j for j, x in enumerate(v) if x), None)
        if lead is None:
            continue
        insort(echelon, (lead, monic(v[lead:])))
        if len(echelon) == ncols:
            break
    pivots = [c for c, _ in echelon]
    if not echelon:
        return pivots, []
    one = echelon[0][1][0]
    zero = one - one
    if len(echelon) == ncols:
        return pivots, [[one if i == j else zero for j in range(ncols)]
                        for i in range(ncols)]
    tails = [tail for _, tail in echelon]
    for i in range(len(echelon) - 1, 0, -1):
        c = pivots[i]
        for h in range(i):
            at = c - pivots[h]
            f = tails[h][at]
            if f:
                tails[h][at:] = sub(tails[h][at:], f, tails[i])
    return pivots, [[zero] * c + tail for c, tail in echelon]


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


def _certify(ring: Ring, dens, ncols: int, image, exact_rows) -> Kernel:
    """Certified kernel, as described in the module docstring, of a
    nonempty matrix over `ring` whose entries have denominators among
    `dens`.  `image(h, p)` yields its rows mod p, where h maps a ring
    element into F_p; `exact_rows()` returns the rows themselves and is
    called only below full rank mod p."""
    p, s = _prime_for(ring, dens)
    inv = {r: pow(r, -1, p) for r in dens}

    def embedding(t):  # the ring map w -> t, mod p
        return lambda x: (x.a + x.b * t) * inv[x.r] % p

    pivots, R = _rref(image(embedding(s), p), ncols, p)
    if len(pivots) == ncols:
        return Kernel(ncols, tuple(pivots), [], p, "modular")
    rows = exact_rows()
    # with ncols - rank_p exactly verified kernel vectors, rank_Q <=
    # rank_p <= rank_Q, and the vectors have the unique reduced form
    conj_pivots, R_conj = (_rref(image(embedding(p - s), p), ncols, p) if s
                           else (pivots, R))
    lifted = _lift_rows(ring, R, R_conj, p, s) if conj_pivots == pivots else None
    if lifted is not None:
        basis = _kernel_basis(ring, pivots, lifted, ncols)
        if _annihilates(basis, rows, ring.d or 0):
            return Kernel(len(pivots), tuple(pivots), basis, p, "lifted")
    pivots, R = _rref(rows, ncols)
    return Kernel(len(pivots), tuple(pivots), _kernel_basis(ring, pivots, R, ncols),
                  p, "exact")


def certified_kernel(rows: list[list[RElem]], ncols: int) -> Kernel:
    """Exact rank, pivot columns and reduced-row-echelon kernel basis of
    a nonempty matrix, certified as described in the module docstring."""
    if not rows:
        raise ValueError("need at least one row")

    def image(h, p):
        return ([h(x) for x in row] for row in rows)

    return _certify(rows[0][0].ring, {x.r for row in rows for x in row},
                    ncols, image, lambda: rows)


# -- vanishing spaces and verdicts --------------------------------------------


def _points_kernel(points: Sequence, degree: int) -> tuple[Kernel, list[tuple[int, ...]]]:
    """Certified kernel of the evaluation matrix of `points`, and its
    monomial order.  The rows mod p are built from each point's
    coordinates mod p, one row at a time as the elimination asks for
    them; the exact matrix is built only below full rank."""
    coords, exps, steps = _evaluation_plan(points, degree)

    def image(h, p):
        for xs in coords:
            ys = [h(x) for x in xs]
            row = [1]
            for parent, i in steps:
                row.append(row[parent] * ys[i] % p)
            yield row

    # a monomial's denominator divides a product of coordinate ones
    dens = {x.r for xs in coords for x in xs}
    kernel = _certify(coords[0][0].ring, dens, len(exps), image,
                      lambda: monomial_matrix(points, degree)[0])
    return kernel, exps


def vanishing_space_dim(points: Sequence, degree: int) -> int:
    """Dimension of the space of polynomials of degree <= `degree`
    vanishing at every given point (nullity of the evaluation matrix)."""
    if degree < 1:
        raise ValueError("degree must be at least 1")
    kernel, exps = _points_kernel(points, degree)
    return len(exps) - kernel.rank


def vanishing_basis(points: Sequence, degree: int) -> tuple[list[list[RElem]], list[tuple[int, ...]]]:
    """Basis of the vanishing space as coefficient vectors over the
    monomial order, read off the exact reduced row echelon form."""
    kernel, exps = _points_kernel(points, degree)
    return kernel.basis, exps


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


def random_unit_points(ring: Ring, k: int, count: int, seed: int) -> list[tuple[RElem, ...]]:
    """`count` pseudorandom points of the unit-product variety x1*...*xk = 1."""
    rng = random.Random(seed)
    return [unit_product_points(ring, k, [ring.random_unit(rng) for _ in range(k - 1)])
            for _ in range(count)]


def generic_unit_variety_baseline(ring: Ring, k: int, degree: int, count: int,
                                  seed: int) -> int:
    """Baseline nullity for the unit-product variety from random unit points."""
    return vanishing_space_dim(random_unit_points(ring, k, count, seed), degree)
