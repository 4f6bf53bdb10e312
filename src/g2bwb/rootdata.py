"""Fixed combinatorial data of the G2 root system.

Every weight is stored in fundamental-weight coordinates: ``Weight(a, b)``
means ``a*w1 + b*w2``.  The short simple root is ``alpha1 = (2, -1)`` and the
long one is ``alpha2 = (-3, 2)``; the determinant of the base change between
the root and weight lattices is 1, so the two lattices coincide.

All values are immutable and all functions are pure; everything is exact
integer arithmetic.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple


class Weight(NamedTuple):
    """Integer pair a*w1 + b*w2 in the weight lattice."""

    a: int
    b: int

    def __add__(self, other: "Weight") -> "Weight":  # type: ignore[override]
        return Weight(self.a + other.a, self.b + other.b)

    def __sub__(self, other: "Weight") -> "Weight":
        return Weight(self.a - other.a, self.b - other.b)

    def __neg__(self) -> "Weight":
        return Weight(-self.a, -self.b)

    def scaled(self, n: int) -> "Weight":
        return Weight(n * self.a, n * self.b)

    def is_dominant(self) -> bool:
        return self.a >= 0 and self.b >= 0

    def __str__(self) -> str:
        return f"({self.a},{self.b})"


ZERO = Weight(0, 0)
W1 = Weight(1, 0)
W2 = Weight(0, 1)
RHO = Weight(1, 1)


class Root(NamedTuple):
    """A root together with the coroot pairing functional ``<., alpha^v>``.

    ``coroot_row = (ca, cb)`` pairs ``Weight(a, b)`` to ``ca*a + cb*b``.
    """

    weight: Weight
    is_short: bool
    coroot_row: tuple[int, int]

    def pair(self, lam: Weight) -> int:
        return self.coroot_row[0] * lam.a + self.coroot_row[1] * lam.b


ALPHA1 = Root(Weight(2, -1), True, (1, 0))
ALPHA2 = Root(Weight(-3, 2), False, (0, 1))

# All six positive roots: alpha1, alpha2, alpha1+alpha2, 2a1+a2, 3a1+a2, 3a1+2a2.
POSITIVE_ROOTS: tuple[Root, ...] = (
    ALPHA1,
    ALPHA2,
    Root(Weight(-1, 1), True, (1, 3)),
    Root(Weight(1, 0), True, (2, 3)),
    Root(Weight(3, -1), False, (1, 1)),
    Root(Weight(0, 1), False, (1, 2)),
)


class ParabolicId(Enum):
    """One of the two standard maximal parabolic subgroups of G2.

    ``SHORT`` is the parabolic whose Levi contains the short root alpha1;
    ``LONG`` the one for alpha2.
    """

    SHORT = 1
    LONG = 2

    @property
    def simple_root(self) -> Root:
        return ALPHA1 if self is ParabolicId.SHORT else ALPHA2

    def pair(self, lam: Weight) -> int:
        """Pairing of a weight with the Levi coroot."""
        return lam.a if self is ParabolicId.SHORT else lam.b

def pairing(lam: Weight, alpha: Root) -> int:
    """Exact coroot pairing ``<lam, alpha^v>``; linear in ``lam``."""
    return alpha.pair(lam)


def root_coords(lam: Weight) -> tuple[int, int]:
    """Coordinates (c1, c2) of ``lam`` in the simple-root basis."""
    return (2 * lam.a + 3 * lam.b, lam.a + 2 * lam.b)


def dominance_leq(mu: Weight, lam: Weight) -> bool:
    """True iff lam - mu is a nonnegative integer combination of simple roots."""
    c1, c2 = root_coords(lam - mu)
    return c1 >= 0 and c2 >= 0


def restricted_split(lam: Weight, p: int) -> tuple[Weight, Weight]:
    """Write lam = lam0 + p*lam1 with both coordinates of lam0 in [0, p)."""
    if p < 2:
        raise ValueError(f"p must be at least 2, got {p}")
    a0, a1 = lam.a % p, lam.a // p
    b0, b1 = lam.b % p, lam.b // p
    return Weight(a0, b0), Weight(a1, b1)

