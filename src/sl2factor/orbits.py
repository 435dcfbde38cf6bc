"""Window actions that move an integral solution tuple to new ones
without changing the matrix it multiplies out to, and a breadth-first
orbit generator built on them.

A window is four consecutive coordinates (x1, x2, x3, x4) of a point;
its modulus is a = 1 + x2*x3, always computed from the coordinates.
For nonzero a, conjugating the inner product U(x2)L(x3) by a diagonal
unit v rewrites the window as

    (x1 + (1 - 1/v) x3 / a,  v x2,  1/v x3,  x4 + (1 - v) x2 / a)

with the surrounding product unchanged.  The output is integral
whenever the input is and v = 1 (mod a).  For a = 0 the window slides
by a shear instead.  Both facts hold at any window position and for
every word shape because all shapes share the same defining equations.
"""

from __future__ import annotations

from dataclasses import dataclass

from .continuants import vk_membership
from .matrices import Mat2, Word
from .rings import RElem, UnitsResult, units_congruent_one
from .varieties import MembershipError, _require_member

ORBIT_BUDGET = 10**5


def window_modulus(P: Word, i: int) -> RElem:
    """Modulus 1 + x_{i+1} x_{i+2} of the window at 1-based start i."""
    if not 1 <= i <= P.k - 3:
        raise IndexError(f"window start {i} out of range for length {P.k}")
    return 1 + P.entries[i] * P.entries[i + 1]


def act_v(P: Word, i: int, v) -> Word:
    """Rewrite the window at i by the unit action with parameter v.

    Needs a nonzero window modulus and nonzero v.  Works over the whole
    fraction field; integrality of the output is the caller's concern
    (it holds when P is integral, v is a unit, and v = 1 mod a).
    """
    a = window_modulus(P, i)
    if not a:
        raise ValueError("window modulus is zero; use act_a0")
    ring = a.ring
    v = ring.el(v)
    if not v:
        raise ValueError("v must be nonzero")
    vinv = v.inverse()
    e = list(P.entries)
    x1, x2, x3, x4 = e[i - 1:i + 3]
    e[i - 1] = x1 + (1 - vinv) * x3 / a
    e[i] = v * x2
    e[i + 1] = vinv * x3
    e[i + 2] = x4 + (1 - v) * x2 / a
    return Word(P.shape, tuple(e))


def act_a0(P: Word, i: int, u) -> Word:
    """Shear the window at i when its modulus vanishes.

    The window becomes (x1 + u x3, x2, x3, x4 - u x2); the action is
    additive in u and preserves integrality for integral u.
    """
    a = window_modulus(P, i)
    if a:
        raise ValueError("window modulus is nonzero; use act_v")
    ring = a.ring
    u = ring.el(u)
    e = list(P.entries)
    x1, x2, x3, x4 = e[i - 1:i + 3]
    e[i - 1] = x1 + u * x3
    e[i + 2] = x4 - u * x2
    return Word(P.shape, tuple(e))


def a1_families(A: Mat2, u) -> tuple[Word, Word]:
    """The two length-4 solution families through a matrix with a = 1.

    Returns (u, 0, b-u, c) and (b, c-u, 0, u); the first lies on the
    x2 = 0 component, the second on the x3 = 0 component.
    """
    ring = A.ring
    if A.a != 1:
        raise ValueError("a1_families needs the upper-left entry to be 1")
    u = ring.el(u)
    zero = ring.zero
    first = Word("lower", (u, zero, A.b - u, A.c))
    second = Word("lower", (A.b, A.c - u, zero, u))
    for P in (first, second):
        if not vk_membership(A, P.entries, "lower"):
            raise AssertionError(f"family point {P} failed verification")
    return first, second


@dataclass(frozen=True)
class OrbitRecord:
    """One orbit point with the move that produced it."""

    point: Word
    window: int | None  # 1-based window start, None for the seed
    action: str  # "seed" | "unit" | "shear" | "family"
    parameter: RElem | None


@dataclass(frozen=True)
class OrbitRun:
    """Outcome of an orbit search: points with provenance, the moduli
    whose unit search stalled, and whether the expansion budget ran out
    before the requested count was reached."""

    records: tuple[OrbitRecord, ...]
    stalled: tuple[RElem, ...]
    exhausted: bool

    @property
    def points(self) -> list[Word]:
        return [rec.point for rec in self.records]


def _shear_params(count: int):
    for j in range(1, count + 1):
        yield j
        yield -j


def orbit_run(A: Mat2, seed: Word, n: int, *,
              units_per_window: int = 2,
              budget: int = ORBIT_BUDGET) -> OrbitRun:
    """Breadth-first orbit of a verified integral point under the window
    actions, collecting up to n distinct points.

    Every window position is tried on every frontier point: nonzero
    moduli use units congruent to 1 from the ring's generators (units
    per window capped), zero moduli use shears with small parameters.
    Layers are expanded in sorted coordinate order, so runs are
    deterministic.  When the actions close up early on a length-4 word
    with upper-left entry 1, the two explicit solution families top up
    the set.  Children are integral members by construction; both facts
    are still asserted on every emission.
    """
    if n < 1:
        raise ValueError("n must be positive")
    _require_member(A, seed)
    if not seed.integral:
        raise MembershipError(f"seed {seed} is not integral over {A.ring}")
    ring = A.ring
    records = [OrbitRecord(seed, None, "seed", None)]
    seen = {seed}
    frontier = [seed]
    stalled: list[RElem] = []
    exhausted = False
    spent = 0
    units_for: dict[RElem, UnitsResult] = {}  # window modulus -> its units

    def emit(child: Word, window: int, action: str, parameter: RElem) -> bool:
        if child in seen:
            return False
        if not child.integral:
            raise AssertionError(f"orbit produced a non-integral point {child}")
        if not vk_membership(A, child.entries, child.shape):
            raise AssertionError(f"orbit produced a non-member {child}")
        seen.add(child)
        records.append(OrbitRecord(child, window, action, parameter))
        frontier.append(child)
        return len(records) >= n

    while frontier and len(records) < n and not exhausted:
        layer, frontier = sorted(frontier, key=lambda P: P.entries), []
        for P in layer:
            for i in range(1, P.k - 2):
                if spent >= budget:
                    exhausted = True
                    break
                spent += 1
                a = window_modulus(P, i)
                if a:
                    found = units_for.get(a)
                    if found is None:
                        found = units_for[a] = units_congruent_one(
                            ring, a, units_per_window)
                        if found.stalled:
                            stalled.append(a)
                    done = any(emit(act_v(P, i, v), i, "unit", v)
                               for v in found.units)
                else:
                    done = any(emit(act_a0(P, i, ring.el(u)), i, "shear", ring.el(u))
                               for u in _shear_params(units_per_window))
                if done:
                    break
            else:
                continue
            break

    if (len(records) < n and not exhausted and seed.k == 4
            and seed.shape == "lower" and A.a == 1):
        # the search closed up on a reducible length-4 variety: the two
        # explicit families provide arbitrarily many further points
        u = 0
        while len(records) < n:
            for Q in a1_families(A, u):
                if Q not in seen:
                    seen.add(Q)
                    records.append(OrbitRecord(Q, None, "family", ring.el(u)))
                    if len(records) >= n:
                        break
            u += 1

    return OrbitRun(tuple(records), tuple(stalled),
                    exhausted and len(records) < n)

