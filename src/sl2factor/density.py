"""Degree-bounded density certificates by exact linear algebra.

A point set is declared dense at degree D when no polynomial of degree
at most D vanishes on it beyond the ones forced by the ambient variety:
the nullity of the monomial evaluation matrix must match a baseline,
computed from generic field-valued samples (`generic_variety_baseline`),
or C(D, k) for the unit-product variety x1*...*xk = 1, whose ideal is
generated by the irreducible x1*...*xk - 1.

Rank, pivot columns and kernel basis all come from one certified kernel
(`_certify`, behind `certified_kernel` for a given matrix and behind
`vanishing_space_dim` and `vanishing_basis` for a point set).  It maps
the matrix into F_p by the ring homomorphism
(a + b*w)/r -> (a + b*s) * r^-1 mod p, where p is a fixed 61-bit prime
dividing neither m nor any denominator and s^2 = d mod p, and runs
Gauss-Jordan elimination there on rows packed into one int each, one
slot of 2*bits(p) + bits(ncols) + 1 bits (rounded up to bytes) per
column, so a row step is one big-int multiply-add that never carries
between slots (`_rref`).  For a point set the rows mod p come from the
coordinates: each point's coordinates are mapped into F_p once and its
monomials are formed mod p, one row at a time as the elimination asks
for them, so rows past full rank are never built.  A ring map never
raises rank, so full rank mod p is a proof of full rank.  Otherwise the
exact rows are built, the mod-p kernel basis is lifted by rational
reconstruction (through both embeddings w -> s and w -> -s in quadratic
rings) and every lifted vector is checked exactly against every row:
that many independent kernel vectors bound the exact rank from above,
so the nullity is proven both ways.  When a lift fails that check, one
exact Gauss-Jordan elimination over the fraction field decides.  There
is no floating point anywhere.
"""

from __future__ import annotations

import random
from bisect import insort
from itertools import combinations_with_replacement
from math import comb, gcd, isqrt
from typing import NamedTuple, Sequence

from .matrices import Word
from .rings import RElem, Ring, _is_prime, _numerators
from .varieties import _verified, fiber_lift, solve_k3

BASELINE_TAIL_SPAN = 40
# the prime search walks down from 2^61 - 1 through p = 3 mod 4, where
# d^((p+1)/4) is a square root of any square d
_PRIME_START = 2**61 - 1


def _monomials(k: int, degree: int) -> list[tuple[int, ...]]:
    """Variable indices i1 <= ... <= id of each monomial x_i1 ... x_id
    of degree at most `degree`, in the order of `monomial_exponents`."""
    if k < 1:
        raise ValueError("need at least one variable")
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    return [c for d in range(degree + 1)
            for c in combinations_with_replacement(range(k), d)]


def monomial_exponents(k: int, degree: int) -> list[tuple[int, ...]]:
    """Exponent vectors of all k-variable monomials of total degree at
    most `degree`: ascending in degree, lexicographically descending
    within a degree.  Length C(k + degree, degree)."""
    return [tuple(map(c.count, range(k))) for c in _monomials(k, degree)]


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
    monomials = _monomials(k, degree)
    # every later monomial is an earlier one, its indices without the
    # first, times the variable of that first index
    index = {c: j for j, c in enumerate(monomials)}
    steps = [(index[c[1:]], c[0]) for c in monomials[1:]]
    return coords, monomial_exponents(k, degree), steps


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
    in [0, p) over F_p when `p` is given, `RElem` rows over the fraction
    field otherwise.

    Rows are inserted one at a time.  Each is reduced against the
    echelon rows in pivot order, which leaves it zero at every pivot, so
    its first nonzero entry in another column is a new pivot.  The pass
    stops as soon as every column has a pivot, and later rows are never
    read; the reduced form is then the identity.  Below full rank one
    back pass at the end clears every pivot column above its pivot.

    Mod p a row is one int, column j in little-endian bytes
    [j*B, (j+1)*B), and v - f*w is v + (p - f)*w for a monic row w in
    [0, p).  Slots start below p and a step adds below p^2, so they stay
    below p + ncols*p^2 < 2^(2*bits(p) + bits(ncols) + 1) <= 2^(8*B).  A
    row is reduced only when unpacked: on insertion, before it is
    subtracted in the back pass, and at the end."""
    if p is None:
        pack = unpack = list
        entry = list.__getitem__

        def submul(v, c, f, w):  # v - f*w, where w is zero before c
            return v[:c] + [x - f * y for x, y in zip(v[c:], w[c:])]

        def monic(v, c):
            scale = v[c].inverse()
            return v[:c] + [x * scale for x in v[c:]]
    else:
        size = (2 * p.bit_length() + ncols.bit_length() + 8) // 8
        mask = (1 << 8 * size) - 1

        def pack(xs):
            return int.from_bytes(b"".join([x.to_bytes(size, "little") for x in xs]),
                                  "little")

        def unpack(v):
            b = v.to_bytes(ncols * size, "little")
            return [int.from_bytes(b[i:i + size], "little") % p
                    for i in range(0, len(b), size)]

        def entry(v, j):
            return (v >> 8 * size * j & mask) % p

        def submul(v, c, f, w):
            return v + (p - f) * w

        def monic(v, c):
            xs = unpack(v)
            scale = pow(xs[c], -1, p)
            return pack([x * scale % p for x in xs])

    echelon: list = []  # (pivot, monic row) in pivot order
    free = list(range(ncols))
    for v in rows:
        v = pack(v)
        for c, w in echelon:
            f = entry(v, c)
            if f:
                v = submul(v, c, f, w)
        lead = next((j for j in free if entry(v, j)), None)
        if lead is None:
            continue
        free.remove(lead)
        insort(echelon, (lead, monic(v, lead)))
        if not free:
            break
    pivots, R = [c for c, _ in echelon], [w for _, w in echelon]
    if R and not free:
        one = unpack(R[0])[0]
        zero = one - one
        return pivots, [[one if i == j else zero for j in range(ncols)]
                        for i in range(ncols)]
    for i in range(len(R) - 1, -1, -1):
        # no later step changes row i: unpack it, subtract it reduced
        R[i] = unpack(R[i])
        w = pack(R[i])
        for h in range(i):
            f = entry(R[h], pivots[i])
            if f:
                R[h] = submul(R[h], pivots[i], f, w)
    return pivots, R


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


def _annihilates(ring: Ring, basis, rows) -> bool:
    """True when every vector of `basis` is orthogonal to every row,
    checked in exact integer arithmetic on the numerators over each
    row's and vector's common denominator; clearing it changes neither
    the row space nor what a row annihilates."""
    d = ring.d or 0
    vecs = [[(j, a, b) for j, (a, b) in enumerate(_numerators(ring, vec)[1])
             if a or b] for vec in basis]
    for row in rows:
        ints = _numerators(ring, row)[1]
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
        if _annihilates(ring, basis, rows):
            return Kernel(len(pivots), tuple(pivots), basis, p, "lifted")
    pivots, R = _rref(rows, ncols)
    return Kernel(len(pivots), tuple(pivots), _kernel_basis(ring, pivots, R, ncols),
                  p, "exact")


def certified_kernel(rows: list[list[RElem]], ncols: int) -> Kernel:
    """Exact rank, pivot columns and reduced-row-echelon kernel basis of
    a nonempty matrix, certified as described in the module docstring."""
    if not rows:
        raise ValueError("need at least one row")
    if any(len(row) != ncols for row in rows):
        raise ValueError(f"every row needs {ncols} entries")

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
    """Full density verdict as a plain dict ready for JSON output.

    `points` counts the points passed in, repeats included, not the
    distinct ones; repeats add no rows of new rank to the nullity.
    """
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
    tails through the length-3 fibration.  At k = 3 the variety is the
    core itself, a point, a line or empty: a line is sampled at random
    integer parameters, and an empty one is a ValueError."""
    if k < 3:
        raise ValueError(f"the fibration needs k >= 3, got {k}")
    rng = random.Random(seed)
    ring = A.ring
    if k == 3:
        core = solve_k3(A)
        if core.kind == "empty":
            raise ValueError(f"no length-3 word multiplies to {A}")
        if core.kind == "family":
            ts = (rng.randint(-BASELINE_TAIL_SPAN, BASELINE_TAIL_SPAN)
                  for _ in range(count))
            return vanishing_space_dim(
                [_verified(A, core.family_point(ring.el(t))) for t in ts], degree)
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
    """`count` pseudorandom points of the unit-product variety
    x1*...*xk = 1: k - 1 units followed by the inverse of their product.
    Each unit is the product of the ring's generators of infinite order,
    in generator order, each raised to rng.randint(-5, 5), with its sign
    then drawn by rng.randint(0, 1)."""
    if k < 2:
        raise ValueError("need k >= 2")
    rng = random.Random(seed)
    gens = ring.unit_generators()
    points = []
    for _ in range(count):
        units, prod = [], ring.one
        for _ in range(k - 1):
            u = ring.one
            for g in gens:
                if g == -1:
                    if rng.randint(0, 1):
                        u = -u
                else:
                    u = u * g ** rng.randint(-5, 5)
            units.append(u)
            prod = prod * u
        last = prod.inverse()
        if prod * last != 1:
            raise AssertionError("unit product failed to invert")
        points.append((*units, last))
    return points
