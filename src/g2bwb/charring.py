"""Exact formal character ring for G2 and its two maximal parabolic Levis.

A :class:`Character` is a finite map from weights to integer multiplicities
(signed entries are allowed, so virtual characters are first-class).  The
dominant multiplicities of any combination of Weyl characters come from Weyl's
formula alone, in Racah's recursive form (``dominant_multiplicities``); exterior
powers go through the elementary-symmetric generating function; tensor
products are plain convolutions.  All of it is exact integer arithmetic.

Parabolic costandard modules are sl2-strings: ``PString(P, lam)`` has the
weights ``lam, lam - alpha_P, ..., s_P(lam)``.  A :class:`FilteredPModule`
is an ordered tuple of such atoms, listed quotient end first (the same order
as a filtration diagram read top to bottom); the bottom atom is the
submodule end.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from typing import NamedTuple

from .rootdata import POSITIVE_ROOTS, RHO, ZERO, ParabolicId, Weight
from . import weyl


class Character:
    """Finite weight-multiplicity map; zero entries are never stored."""

    __slots__ = ("mult",)

    def __init__(self, mult: dict[Weight, int] | None = None):
        self.mult: dict[Weight, int] = {}
        if mult:
            for k, v in mult.items():
                if v:
                    self.mult[k] = v

    @staticmethod
    def line(lam: Weight, m: int = 1) -> "Character":
        return Character({lam: m})

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Character) and self.mult == other.mult

    def __hash__(self) -> int:
        return hash(frozenset(self.mult.items()))

    def __bool__(self) -> bool:
        return bool(self.mult)

    def __add__(self, other: "Character") -> "Character":
        out = dict(self.mult)
        for k, v in other.mult.items():
            out[k] = out.get(k, 0) + v
        return Character(out)

    def __sub__(self, other: "Character") -> "Character":
        out = dict(self.mult)
        for k, v in other.mult.items():
            out[k] = out.get(k, 0) - v
        return Character(out)

    def isub_scaled(self, other: "Character", n: int) -> None:
        """In place: self -= n * other.  Only ever applied to a private copy,
        never to a cached character."""
        mult = self.mult
        for k, v in other.mult.items():
            r = mult.get(k, 0) - n * v
            if r:
                mult[k] = r
            else:
                mult.pop(k, None)

    def scaled(self, n: int) -> "Character":
        return Character({k: n * v for k, v in self.mult.items()})

    def tensor(self, other: "Character") -> "Character":
        out: dict[Weight, int] = {}
        for k1, v1 in self.mult.items():
            for k2, v2 in other.mult.items():
                k = k1 + k2
                out[k] = out.get(k, 0) + v1 * v2
        return Character(out)

    def stretch(self, n: int) -> "Character":
        """Scale every weight by n (Frobenius-twist style re-grading)."""
        return Character({k.scaled(n): v for k, v in self.mult.items()})

    def dimension(self) -> int:
        return sum(self.mult.values())

    def coeff(self, lam: Weight) -> int:
        return self.mult.get(lam, 0)

    def support_max(self) -> Weight:
        """A dominance-maximal support weight, ties broken lexicographically.

        The support is scanned by decreasing height 3a + 5b (the sum of the
        simple-root coordinates 2a + 3b and a + 2b).  If k < m strictly then
        m - k is a nonzero nonnegative combination of simple roots, so m has
        strictly greater height; two distinct weights of equal height are
        never comparable.  Hence a weight below some other support weight
        lies below a maximal one already found, and each weight is tested
        only against the maximal weights found so far."""
        maximal: list[Weight] = []
        for m in sorted(self.mult, key=lambda w: 3 * w[0] + 5 * w[1], reverse=True):
            ma, mb = m
            for ka, kb in maximal:
                da = ka - ma
                db = kb - mb
                if 2 * da + 3 * db >= 0 and da + 2 * db >= 0:
                    break
            else:
                maximal.append(m)
        return max(maximal)

    def peel(self, basis):
        """Coefficients in a unitriangular basis, by dominance peeling.

        Yields each (mu, c), mu a dominance-maximal weight of what is left
        and c its coefficient, before it subtracts c * basis(mu) from a
        private copy; basis(mu) must have coefficient 1 at mu and lie below
        it.  A caller that raises on (mu, c) thus stops before basis(mu)."""
        rem = Character(self.mult)
        while rem:
            mu = rem.support_max()
            c = rem.mult[mu]
            yield mu, c
            rem.isub_scaled(basis(mu), c)

    def to_json(self) -> list[list[int]]:
        return [[k.a, k.b, v] for k, v in sorted(self.mult.items())]

    def __repr__(self) -> str:
        items = ", ".join(f"{k}:{v}" for k, v in sorted(self.mult.items()))
        return f"Character({{{items}}})"


TRIVIAL = Character.line(ZERO)


def _dominant_cone(lam: Weight) -> list[Weight]:
    """Dominant weights mu <= lam, by increasing height of lam - mu and, at one
    height, by increasing alpha2-coordinate.  With x = lam.a - mu.a and
    d = lam.b - mu.b, lam - mu = (2x + 3d) alpha1 + (x + 2d) alpha2, so mu.a runs
    up to lam.a + min(3d // 2, 2d)."""
    la, lb = lam
    out = [Weight(a, b) for b in range(lb + la // 2 + 1)
           for a in range(la + min(3 * (lb - b) // 2, 2 * (lb - b)) + 1)]
    out.sort(key=lambda mu: (-3 * mu.a - 5 * mu.b, -mu.a - 2 * mu.b))
    return out


# (rho - w rho, -sgn w) for the 11 elements w != 1 of W
_RACAH = tuple((*(RHO - weyl.act(w, RHO)), -(-1) ** w.length) for w in weyl.ALL_ELEMENTS[1:])


def dominant_multiplicities(row: Character, top: Weight) -> dict[Weight, int]:
    """Multiplicity at each dominant mu <= top of sum_nu c_nu nabla(nu), where
    row = {nu: c_nu} has every nu <= top, by Racah's form of Weyl's formula.

    The character times sum_w sgn(w) e^{w rho} is sum_nu c_nu sum_w sgn(w)
    e^{w(nu + rho)}; at e^{mu + rho}, mu dominant, the right side reads c_mu, so
    m(mu) = c_mu + sum_{w != 1} -sgn(w) m(dom(mu + rho - w rho)).  Each weight
    read lies strictly higher than mu, and the cone is in decreasing height."""
    mult: dict[Weight, int] = {}
    get = mult.get
    coeff = row.mult.get
    for mu in _dominant_cone(top):
        m = coeff(mu, 0)
        for da, db, sign in _RACAH:
            a, b = mu.a + da, mu.b + db
            while a < 0 or b < 0:  # dominant conjugate, as weyl.dominant_conjugate
                a, b = (-a, a + b) if a < 0 else (a + 3 * b, -b)
            m += sign * get((a, b), 0)
        mult[mu] = m
    return mult


@lru_cache(maxsize=None)
def weyl_character(lam: Weight) -> Character:
    """Character of the costandard module with highest weight lam: each dominant
    multiplicity of ``dominant_multiplicities`` spread over its W-orbit.  Its
    dimension must be the product formula ``weyl_dim``."""
    if not lam.is_dominant():
        raise ValueError(f"highest weight must be dominant, got {lam}")
    total: dict[Weight, int] = {}
    for mu, m in dominant_multiplicities(Character.line(lam), lam).items():
        for w in weyl.ALL_ELEMENTS:
            total.setdefault(weyl.act(w, mu), m)
    out = Character(total)
    if out.dimension() != weyl_dim(lam):
        raise ArithmeticError(f"character of nabla{lam} has dimension {out.dimension()}, "
                              f"not {weyl_dim(lam)}")
    return out


def euler_characteristic(ch: Character) -> int:
    """Euler characteristic of the line bundles of the weights of ch on the
    flag variety, with multiplicity: the Weyl product formula
    prod <mu + rho, alpha^v> / <rho, alpha^v>, with no dominance test, summed
    over the weights mu.  It is the Euler characteristic on G/P of a P-module
    of character ch, in every characteristic."""
    ra, rb = RHO
    coroots = [alpha.coroot_row for alpha in POSITIVE_ROOTS]
    num = 0
    for (a, b), c in ch.mult.items():
        term = c
        for ca, cb in coroots:
            term *= ca * (a + ra) + cb * (b + rb)
        num += term
    den = 1
    for ca, cb in coroots:
        den *= ca * ra + cb * rb
    if num % den:
        raise ArithmeticError(f"Euler characteristic of {ch} is not an integer: {num}/{den}")
    return num // den


@lru_cache(maxsize=None)
def weyl_dim(lam: Weight) -> int:
    """Dimension of the costandard module: the dominant case of
    ``euler_characteristic``."""
    if not lam.is_dominant():
        raise ValueError(f"weight must be dominant, got {lam}")
    return euler_characteristic(Character.line(lam))


def exterior_power(x: Character, k: int) -> Character:
    """k-th exterior power of a genuine (nonnegative) character."""
    if k < 0:
        raise ValueError("exterior power degree must be nonnegative")
    if any(v < 0 for v in x.mult.values()):
        raise ValueError("exterior power needs a genuine character")
    elems: list[Character] = [TRIVIAL] + [Character() for _ in range(k)]
    for mu, m in x.mult.items():
        for _ in range(m):
            for j in range(k, 0, -1):
                bumped = Character({w + mu: v for w, v in elems[j - 1].mult.items()})
                elems[j] = elems[j] + bumped
    return elems[k]


class PString:
    """Parabolic costandard string with highest weight ``highest``."""

    __slots__ = ("parabolic", "highest")

    def __init__(self, parabolic: ParabolicId, highest: Weight):
        if (r := parabolic.pair(highest)) < 0:
            raise ValueError(f"invalid string: <{highest}, alpha_P^v> = {r} < 0")
        self.parabolic = parabolic
        self.highest = highest

    @property
    def dim(self) -> int:
        return self.parabolic.pair(self.highest) + 1

    def weights(self) -> list[Weight]:
        (aa, ab), (ha, hb) = self.parabolic.simple_root.weight, self.highest
        return [Weight(ha - k * aa, hb - k * ab) for k in range(self.dim)]

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, PString) and self.parabolic is other.parabolic
                and self.highest == other.highest)

    def __hash__(self) -> int:
        return hash((self.parabolic, self.highest))

    def __repr__(self) -> str:
        return f"PString({self.parabolic.name}, {self.highest})"


def pstring_character(s: PString) -> Character:
    return Character({w: 1 for w in s.weights()})


def dual_pstring(s: PString) -> PString:
    """Dual string: highest weight is minus the lowest weight."""
    return PString(s.parabolic, -s.weights()[-1])


class _FilteredPModule(NamedTuple):
    parabolic: ParabolicId
    atoms: tuple[PString, ...]


class FilteredPModule(_FilteredPModule):
    """Ordered atoms of a costandard P-filtration, quotient end first."""

    __slots__ = ()

    def __new__(cls, parabolic: ParabolicId, atoms: tuple[PString, ...]):
        for s in atoms:
            if s.parabolic is not parabolic:
                raise ValueError("atom parabolic mismatch")
        return super().__new__(cls, parabolic, atoms)

    def character(self) -> Character:
        """Each distinct atom, counted by its highest weight, is expanded once."""
        out: Counter = Counter()
        for h, m in Counter(s.highest for s in self.atoms).items():
            out.update(dict.fromkeys(PString(self.parabolic, h).weights(), m))
        return Character(out)

    def dimension(self) -> int:
        return sum(s.dim for s in self.atoms)

    def dual(self) -> "FilteredPModule":
        return FilteredPModule(self.parabolic, tuple(map(dual_pstring, reversed(self.atoms))))

def module(parabolic: ParabolicId, highs: list[Weight]) -> FilteredPModule:
    return FilteredPModule(parabolic, tuple(PString(parabolic, h) for h in highs))


@lru_cache(maxsize=None)
def clebsch_gordan_P(x: PString, y: PString) -> FilteredPModule:
    """Costandard filtration of the tensor product of two strings.  It does not depend
    on p, so it is cached, and its character is checked once per pair."""
    if x.parabolic is not y.parabolic:
        raise ValueError("strings live over different parabolics")
    par = x.parabolic
    r = min(par.pair(x.highest), par.pair(y.highest))
    atoms = tuple(PString(par, h) for h in PString(par, x.highest + y.highest).weights()[:r + 1])
    out = FilteredPModule(par, atoms)
    if out.character() != pstring_character(x).tensor(pstring_character(y)):
        raise ArithmeticError(f"Clebsch-Gordan filtration of {x} (x) {y} is wrong")
    return out


class FiltrationError(ValueError):
    """Greedy string extraction hit a weight that is not P-dominant."""


def filter_character(char: Character, parabolic: ParabolicId) -> FilteredPModule:
    """Greedy costandard P-filtration of a genuine character."""
    atoms: list[PString] = []
    for mu, m in char.peel(lambda mu: pstring_character(PString(parabolic, mu))):
        if m < 0 or parabolic.pair(mu) < 0:
            raise FiltrationError(f"cannot extract a string at {mu} (mult {m})")
        atoms.extend([PString(parabolic, mu)] * m)
    out = FilteredPModule(parabolic, tuple(atoms))
    if out.character() != char:
        raise ArithmeticError("string filtration does not reproduce the character")
    return out


@lru_cache(maxsize=None)
def restrict_to_P(lam: Weight, parabolic: ParabolicId) -> FilteredPModule:
    """Costandard P-filtration of the G-costandard module of highest weight lam."""
    return filter_character(weyl_character(lam), parabolic)


def decompose_costandard(char: Character) -> list[tuple[Weight, int]]:
    """Coefficients of a (virtual) character in the Weyl-character basis;
    ``weyl_character`` raises ValueError at a maximal weight that is not dominant."""
    return list(char.peel(weyl_character))
