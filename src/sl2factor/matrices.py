"""Unimodular 2x2 matrices, elementary generators, and alternating-word
evaluation.

Entry layout, used verbatim everywhere (constructor order, JSON keys,
docstrings):

        | a  c |
        | b  d |

so b is the BOTTOM-LEFT entry and c the TOP-RIGHT one.  The generators:

    U(x) = | 1  x |    L(x) = | 1  0 |    D(x) = | x  1 |    t = | 0  1 |
           | 0  1 |           | x  1 |           | 1  0 |        | 1  0 |

with D(x)*t = U(x) and t*D(x) = L(x).  A word is an alternating product
of these: lower-start words go L(x1) U(x2) L(x3) ..., upper-start words
go U(x1) L(x2) ..., and D-type words are D(x1) ... D(xk) t^k.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .rings import ParseError, RElem, Ring, RingMismatchError

WORD_SHAPES = ("lower", "upper", "D")


@dataclass(frozen=True)
class Mat2:
    """2x2 matrix with determinant 1 or -1, entries in one ring.

    Field order is the row-major reading a, c, b, d of the layout above.
    The determinant is computed once, by the check at construction.
    """

    a: RElem
    c: RElem
    b: RElem
    d: RElem
    _det: RElem = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        ring = self.a.ring
        for e in (self.c, self.b, self.d):
            if e.ring != ring:
                raise RingMismatchError("matrix entries from different rings")
        det = self.a * self.d - self.c * self.b
        if det not in (1, -1):
            raise ValueError(f"determinant must be 1 or -1, got {det}")
        object.__setattr__(self, "_det", det)

    @property
    def ring(self) -> Ring:
        return self.a.ring

    def det(self) -> RElem:
        return self._det

    def __matmul__(self, other: Mat2) -> Mat2:
        if not isinstance(other, Mat2):
            return NotImplemented
        return Mat2(self.a * other.a + self.c * other.b,
                    self.a * other.c + self.c * other.d,
                    self.b * other.a + self.d * other.b,
                    self.b * other.c + self.d * other.d)

    def inverse(self) -> Mat2:
        if self.det() == 1:
            return Mat2(self.d, -self.c, -self.b, self.a)
        return Mat2(-self.d, self.c, self.b, -self.a)

    def __neg__(self) -> Mat2:
        return Mat2(-self.a, -self.c, -self.b, -self.d)

    # the three entry involutions: each swaps one diagonal, all commute,
    # and composing any two gives the third
    def prime(self) -> Mat2:
        """(a c; b d) -> (d b; c a): rotate by a half turn."""
        return Mat2(self.d, self.b, self.c, self.a)

    def transpose(self) -> Mat2:
        """(a c; b d) -> (a b; c d): swap the off-diagonal entries."""
        return Mat2(self.a, self.b, self.c, self.d)

    def star(self) -> Mat2:
        """(a c; b d) -> (d c; b a): swap the diagonal entries."""
        return Mat2(self.d, self.c, self.b, self.a)

    def __str__(self) -> str:
        return f"({self.a} {self.c}; {self.b} {self.d})"


def identity(ring: Ring) -> Mat2:
    one, zero = ring.one, ring.zero
    return Mat2(one, zero, zero, one)


def t_matrix(ring: Ring) -> Mat2:
    one, zero = ring.one, ring.zero
    return Mat2(zero, one, one, zero)


def elem(kind: str, x: RElem) -> Mat2:
    """Elementary generator U(x), L(x), or D(x)."""
    one, zero = x.ring.one, x.ring.zero
    if kind == "U":
        return Mat2(one, x, zero, one)
    if kind == "L":
        return Mat2(one, zero, x, one)
    if kind == "D":
        return Mat2(x, one, one, zero)
    raise ValueError(f"unknown elementary kind {kind!r}")


def _times_elem(m: tuple, kind: str, x: RElem) -> tuple:
    """Entries (a, c, b, d) of M·elem(kind, x) from those of M, in two
    products and two sums.  Word loops carry bare entries through this
    step, not a `Mat2` per letter: an elementary factor keeps the
    determinant, so the one `Mat2` a loop returns or solves checks it."""
    a, c, b, d = m
    if kind == "L":
        return a + c * x, c, b + d * x, d
    if kind == "U":
        return a, c + a * x, b, d + b * x
    return a * x + c, a, b * x + d, b  # D


def letter_kind(shape: str, position: int) -> str:
    """Generator kind at 1-based position within a word of the given shape."""
    if shape == "lower":
        return "L" if position % 2 == 1 else "U"
    if shape == "upper":
        return "U" if position % 2 == 1 else "L"
    if shape == "D":
        return "D"
    raise ValueError(f"unknown word shape {shape!r}")


def shape_target(A: Mat2, shape: str) -> Mat2:
    """Matrix whose lower-start equations a tuple of the given shape must
    solve: A itself for lower-start words, A.prime() for upper-start and
    D-type words.  Every target passes this one determinant-1 gate."""
    if A.det() != 1:
        raise ValueError("target matrix must have determinant 1")
    if shape not in WORD_SHAPES:
        raise ValueError(f"unknown word shape {shape!r}")
    return A if shape == "lower" else A.prime()


@dataclass(frozen=True)
class Word:
    """Alternating word: a shape plus the tuple of generator arguments.

    A word whose product is A is also a point of the factorization
    variety of A.  Entries may lie anywhere in the fraction field; the
    `integral` flag says whether all of them lie in the ring.
    """

    shape: str
    entries: tuple[RElem, ...]

    def __post_init__(self):
        if self.shape not in WORD_SHAPES:
            raise ValueError(f"unknown word shape {self.shape!r}")

    @property
    def k(self) -> int:
        return len(self.entries)

    @property
    def integral(self) -> bool:
        return all(x.is_integral() for x in self.entries)

    def __str__(self) -> str:
        return "(" + ",".join(str(x) for x in self.entries) + ")"


def word_to_matrix(word: Word, *, ring: Ring | None = None) -> Mat2:
    """Evaluate a word by direct left-to-right multiplication.

    The ring is inferred from the entries; it must be passed explicitly
    for the empty word.
    """
    if word.entries:
        ring = word.entries[0].ring
    elif ring is None:
        raise ValueError("empty word needs an explicit ring")
    m = (ring.one, ring.zero, ring.zero, ring.one)
    for pos, x in enumerate(word.entries, start=1):
        m = _times_elem(m, letter_kind(word.shape, pos), x)
    if word.shape == "D" and word.k % 2 == 1:
        m = m[1], m[0], m[3], m[2]  # times t^k = t: swap the columns
    return Mat2(*m)


# -- JSON payloads -----------------------------------------------------


def matrix_to_json(A: Mat2) -> dict:
    return {"a": str(A.a), "c": str(A.c), "b": str(A.b), "d": str(A.d)}


def matrix_from_json(ring: Ring, obj) -> Mat2:
    if not isinstance(obj, dict):
        raise ParseError("matrix payload must be an object")
    missing = {"a", "c", "b", "d"} - obj.keys()
    if missing:
        raise ParseError(f"matrix payload missing keys {sorted(missing)}")
    return Mat2(ring.from_json(obj["a"]), ring.from_json(obj["c"]),
                ring.from_json(obj["b"]), ring.from_json(obj["d"]))


def word_to_json(word: Word) -> dict:
    return {"shape": word.shape,
            "entries": [str(x) for x in word.entries],
            "integral": word.integral}


def word_from_json(ring: Ring, obj, default_shape: str = "lower") -> Word:
    """Word from a JSON payload: either {"shape":..., "entries":[...]} or a
    bare entry list (shape then defaults)."""
    if isinstance(obj, list):
        return Word(default_shape, tuple(ring.from_json(v) for v in obj))
    if isinstance(obj, dict) and "entries" in obj:
        if not isinstance(obj["entries"], list):
            raise ParseError("point entries must be a list")
        entries = tuple(ring.from_json(v) for v in obj["entries"])
        shape = obj.get("shape", default_shape)
        if shape not in WORD_SHAPES:
            raise ParseError(f"unknown word shape {shape!r}")
        return Word(shape, entries)
    raise ParseError("point payload must be a list or an object with entries")
