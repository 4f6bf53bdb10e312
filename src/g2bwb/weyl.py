"""The Weyl group of G2: a dihedral group of order 12 acting on weights.

Elements are keyed by their 2x2 integer action matrix on fundamental-weight
coordinates, so equality and hashing are trivial.  A canonical reduced word,
the length, and the full Bruhat order are precomputed once at import time.
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import NamedTuple

from .rootdata import (
    RHO,
    ParabolicId,
    Weight,
    root_coords,
)

Matrix = tuple[int, int, int, int]  # row-major 2x2, acting on column (a, b)

_ID: Matrix = (1, 0, 0, 1)
# s_i(lam) = lam - <lam, alpha_i^v> alpha_i
_S1: Matrix = (-1, 0, 1, 1)
_S2: Matrix = (1, 3, 0, -1)


def _mul(m: Matrix, n: Matrix) -> Matrix:
    return (
        m[0] * n[0] + m[1] * n[2],
        m[0] * n[1] + m[1] * n[3],
        m[2] * n[0] + m[3] * n[2],
        m[2] * n[1] + m[3] * n[3],
    )


def _apply(m: Matrix, lam: Weight) -> Weight:
    return Weight(m[0] * lam.a + m[1] * lam.b, m[2] * lam.a + m[3] * lam.b)


class WeylElement(NamedTuple):
    """Group element with its canonical reduced word over {1, 2}."""

    matrix: Matrix
    word: tuple[int, ...]

    @property
    def length(self) -> int:
        return len(self.word)

    def __mul__(self, other: "WeylElement") -> "WeylElement":
        return _BY_MATRIX[_mul(self.matrix, other.matrix)]

    def __str__(self) -> str:
        return "e" if not self.word else "".join(f"s{i}" for i in self.word)

    def __repr__(self) -> str:
        return f"WeylElement({self})"


def _generate() -> dict[Matrix, tuple[int, ...]]:
    """BFS over right multiplication; first word found is reduced."""
    gens = {1: _S1, 2: _S2}
    words: dict[Matrix, tuple[int, ...]] = {_ID: ()}
    frontier = [_ID]
    while frontier:
        nxt = []
        for m in frontier:
            for i, g in gens.items():
                prod = _mul(m, g)
                if prod not in words:
                    words[prod] = words[m] + (i,)
                    nxt.append(prod)
        frontier = nxt
    return words

_WORDS = _generate()
_BY_MATRIX: dict[Matrix, WeylElement] = {
    m: WeylElement(m, w) for m, w in _WORDS.items()
}

ALL_ELEMENTS: tuple[WeylElement, ...] = tuple(
    sorted(_BY_MATRIX.values(), key=lambda w: (w.length, w.word))
)
IDENTITY = _BY_MATRIX[_ID]
S1 = _BY_MATRIX[_S1]
S2 = _BY_MATRIX[_S2]
LONGEST = max(ALL_ELEMENTS, key=lambda w: w.length)

if len(ALL_ELEMENTS) != 12 or LONGEST.length != 6 or LONGEST.matrix != (-1, 0, 0, -1):
    raise ArithmeticError("the G2 Weyl group must have 12 elements and longest element -1")


def from_word(word: tuple[int, ...] | list[int] | str) -> WeylElement:
    """Element of the given word; 'word' may be e.g. (1,2), [1,2], "s1s2", or
    "e" or "" for the identity.  Any other string raises ValueError."""
    if isinstance(word, str):
        if not re.fullmatch(r"e|(s[12])*", word):
            raise ValueError(f"not a word in s1 and s2: {word!r}")
        digits = [int(c) for c in word[1::2]]
    else:
        digits = list(word)
    m = _ID
    for i in digits:
        if i not in (1, 2):
            raise ValueError(f"letters must be 1 or 2, got {i}")
        m = _mul(m, _S1 if i == 1 else _S2)
    return _BY_MATRIX[m]


def act(w: WeylElement, lam: Weight) -> Weight:
    """Linear action of w on a weight."""
    return _apply(w.matrix, lam)


def dot(w: WeylElement, lam: Weight) -> Weight:
    """Shifted action w(lam + rho) - rho."""
    return _apply(w.matrix, lam + RHO) - RHO


def dominant_conjugate(lam: Weight) -> Weight:
    """The unique dominant weight in the W-orbit of lam.  Applies s1 while
    a < 0 and s2 while b < 0, in the closed forms of _S1 and _S2:
    (a, b) -> (-a, a + b) and (a, b) -> (a + 3b, -b)."""
    a, b = lam
    while a < 0 or b < 0:
        if a < 0:
            a, b = -a, a + b
        else:
            a, b = a + 3 * b, -b
    return Weight(a, b)


def _subword(x: tuple[int, ...], y: tuple[int, ...]) -> bool:
    it = iter(y)
    return all(any(c == d for d in it) for c in x)


@lru_cache(maxsize=None)
def _bruhat_table() -> dict[tuple[Matrix, Matrix], bool]:
    table = {}
    for x in ALL_ELEMENTS:
        for y in ALL_ELEMENTS:
            table[(x.matrix, y.matrix)] = _subword(x.word, y.word)
    return table


def bruhat_leq(x: WeylElement, y: WeylElement) -> bool:
    """Order by the subword criterion on a fixed reduced word of y."""
    return _bruhat_table()[(x.matrix, y.matrix)]


def is_positive_root_weight(lam: Weight) -> bool:
    c1, c2 = root_coords(lam)
    return (c1 > 0 and c2 >= 0) or (c1 >= 0 and c2 > 0)


@lru_cache(maxsize=None)
def minimal_reps(parabolic: ParabolicId) -> tuple[WeylElement, ...]:
    """Minimal length coset representatives: the w with w(alpha_P) > 0."""
    alpha = parabolic.simple_root.weight
    reps = [w for w in ALL_ELEMENTS if is_positive_root_weight(act(w, alpha))]
    reps.sort(key=lambda w: (w.length, w.word))
    if len(reps) != 6:
        raise ArithmeticError(f"{len(reps)} minimal coset representatives, expected 6")
    return tuple(reps)
