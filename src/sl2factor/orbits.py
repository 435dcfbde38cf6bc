"""Window actions that move an integral solution tuple to new ones
without changing the matrix it multiplies out to, and a height-ordered
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

Both are one step (v, 1/v, c1, c4) taking the window to (x1 + c1 x3,
v x2, 1/v x3, x4 + c4 x2): a unit has c1 = (1 - 1/v)/a, c4 = (1 - v)/a,
and a shear by u is the case v = 1, c1 = u, c4 = -u.  `orbit_run`
builds the steps of each modulus once per run.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush

from .matrices import Mat2, Word
from .rings import RElem, units_congruent_one
from .varieties import MembershipError, _require_member, _verified

ORBIT_BUDGET = 10**5
Step = tuple[RElem, RElem, RElem, RElem]  # (v, 1/v, c1, c4)


def window_modulus(P: Word, i: int) -> RElem:
    """Modulus 1 + x_{i+1} x_{i+2} of the window at 1-based start i."""
    if not 1 <= i <= P.k - 3:
        raise IndexError(f"window start {i} out of range for length {P.k}")
    return 1 + P.entries[i] * P.entries[i + 1]


def _unit_step(a: RElem, v: RElem) -> Step:
    """The step of the unit action by v on windows of modulus a != 0."""
    vinv, ainv = v.inverse(), a.inverse()
    return v, vinv, (1 - vinv) * ainv, (1 - v) * ainv


def _shear_step(u: RElem) -> Step:
    """The step of the shear by u: the unit step with v = 1."""
    return u.ring.one, u.ring.one, u, -u


def _apply(P: Word, i: int, step: Step) -> Word:
    """P with the window at 1-based start i rewritten by step."""
    v, vinv, c1, c4 = step
    e = P.entries
    x1, x2, x3, x4 = e[i - 1:i + 3]
    return Word(P.shape, e[:i - 1] + (x1 + c1 * x3, v * x2, vinv * x3,
                                      x4 + c4 * x2) + e[i + 3:])


def act_v(P: Word, i: int, v) -> Word:
    """Rewrite the window at i by the unit action with parameter v.

    Needs a nonzero window modulus and nonzero v.  Works over the whole
    fraction field; integrality of the output is the caller's concern
    (it holds when P is integral, v is a unit, and v = 1 mod a).
    `orbit_run` applies the same step, built once per (modulus, unit).
    """
    a = window_modulus(P, i)
    if not a:
        raise ValueError("window modulus is zero; use act_a0")
    v = a.ring.el(v)
    if not v:
        raise ValueError("v must be nonzero")
    return _apply(P, i, _unit_step(a, v))


def act_a0(P: Word, i: int, u) -> Word:
    """Shear the window at i when its modulus vanishes.

    The window becomes (x1 + u x3, x2, x3, x4 - u x2), the unit step
    with v = 1; the action is additive in u and preserves integrality
    for integral u.
    """
    a = window_modulus(P, i)
    if a:
        raise ValueError("window modulus is nonzero; use act_v")
    return _apply(P, i, _shear_step(a.ring.el(u)))


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
    return (_verified(A, Word("lower", (u, zero, A.b - u, A.c))),
            _verified(A, Word("lower", (A.b, A.c - u, zero, u))))


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


def _height(P: Word) -> int:
    """Total coordinate bits: max(|a|, |b|, r) bit lengths summed."""
    return sum(max(abs(x.a), abs(x.b), x.r).bit_length() for x in P.entries)


def orbit_run(A: Mat2, seed: Word, n: int, *,
              units_per_window: int = 2) -> OrbitRun:
    """Height-ordered orbit of a verified integral point under the window
    actions, collecting up to n distinct points.

    The point expanded next is always the unexpanded one of least height
    (total coordinate bits), ties going to the earlier emission, so runs
    are deterministic and coordinates stay small.  Every window position
    is tried on each expanded point: nonzero moduli use units congruent
    to 1 from the ring's generators (units per window capped), zero
    moduli use shears with small parameters.  When the actions close up
    early on a length-4 word with upper-left entry 1, the two explicit
    solution families top up the set.  Children are integral members by
    construction; both facts are still asserted on every emission.  The
    run stops after ORBIT_BUDGET window attempts (the module value at
    call time) and reports itself exhausted when that cut it short.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if units_per_window < 1:
        raise ValueError(
            f"units_per_window must be at least 1, got {units_per_window}")
    _require_member(A, seed)
    if not seed.integral:
        raise MembershipError(f"seed {seed} is not integral over {A.ring}")
    ring = A.ring
    records = [OrbitRecord(seed, None, "seed", None)]
    seen = {seed}
    heap = [(_height(seed), 0, seed)]  # (height, emission index, point)
    stalled: list[RElem] = []
    exhausted = False
    budget, spent = ORBIT_BUDGET, 0
    # window modulus -> its (action, parameter, step) moves; shears by
    # 1, -1, 2, -2, ... at modulus 0
    shears = [ring.el(s * j) for j in range(1, units_per_window + 1)
              for s in (1, -1)]
    moves_for: dict[RElem, list[tuple[str, RElem, Step]]] = {
        ring.zero: [("shear", u, _shear_step(u)) for u in shears]}

    def emit(child: Word, window: int, action: str, parameter: RElem) -> bool:
        if child in seen:
            return False
        if not child.integral:
            raise AssertionError(f"orbit produced a non-integral point {child}")
        seen.add(_verified(A, child))
        heappush(heap, (_height(child), len(records), child))
        records.append(OrbitRecord(child, window, action, parameter))
        return len(records) >= n

    while heap and len(records) < n and not exhausted:
        P = heappop(heap)[2]
        for i in range(1, P.k - 2):
            if spent >= budget:
                exhausted = True
                break
            spent += 1
            a = window_modulus(P, i)
            moves = moves_for.get(a)
            if moves is None:
                found = units_congruent_one(a, units_per_window)
                if found.stalled:
                    stalled.append(a)
                moves = moves_for[a] = [("unit", v, _unit_step(a, v))
                                        for v in found.units]
            if any(emit(_apply(P, i, step), i, action, parameter)
                   for action, parameter, step in moves):
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

