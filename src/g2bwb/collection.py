"""The objects of the exceptional collections on the two G2 flag varieties,
and the decomposition of the Frobenius pushforward F_*O into them.

Every sheaf here is presented by costandard string data for its parabolic.
Besides its canonical filtration, an object may carry two-term presentations
of the shape

* kernel:    0 -> X -> V (x) L(nu) -> Q -> 0,
* cokernel:  0 -> S -> V (x) L(nu) -> X -> 0,

with V a self-dual G-module (the 7- or 14-dimensional fundamental one).
Such presentations are exact character data and are verified as such on
construction.  The objects of both collections, and the extra summand M,
are rows of one declarative table (``_COLLECTIONS``, ``_M_ROW``).

``FROBENIUS_SUMMANDS`` is the one decomposition table of F_*O into summands
E (x) L(w) on each G/P.  ``extcollection.frobenius_report`` prints it, and
``modchar.rank_identity_check`` reads it for the rank-p^5 identity.
``multiplicity_dims`` gives the dimension of each multiplicity space at any
p from Euler characteristics alone, through the triangular Euler form of the
collection; it reads no modular character and no Ext table, so the rank
identity never loads the Ext engine.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .rootdata import W1, W2, ParabolicId, Weight
from .charring import Character, FilteredPModule, module, weyl_character
from . import charring, weyl


class TwoTerm(NamedTuple):
    kind: str  # "kernel" or "cokernel"
    gweight: Weight  # highest weight of V; V is self-dual for G2
    twist: Weight
    other: FilteredPModule


class _SheafObject(NamedTuple):
    name: str
    parabolic: ParabolicId
    filtration: FilteredPModule
    two_terms: tuple[TwoTerm, ...] = ()


class SheafObject(_SheafObject):
    """A sheaf on G/P with its canonical filtration and extra presentations."""

    __slots__ = ()

    def __new__(cls, name, parabolic, filtration, two_terms=()):  # the fields of _SheafObject
        for tt in two_terms:
            middle = weyl_character(tt.gweight).tensor(Character.line(tt.twist))
            lhs = middle - tt.other.character()
            if lhs != filtration.character():
                raise ValueError(f"{name}: inconsistent {tt.kind} presentation")
        return super().__new__(cls, name, parabolic, filtration, two_terms)

    def __hash__(self) -> int:
        # the cell memo hashes objects on every lookup; equal objects share
        # a name, and a string caches its own hash
        return hash(self.name)

    @property
    def key(self) -> tuple:
        return (self.parabolic, self.name)

    def rank(self) -> int:
        return self.filtration.dimension()


# One row per object: its Weyl word, the atoms' highest weights (quotient end
# first) and its two-term presentations as (kind, highest weight of V, twist,
# atoms of the other term).  Rows are in the order ``builtin_collection`` keeps.
_COLLECTIONS: dict[ParabolicId, tuple[tuple, ...]] = {
    ParabolicId.SHORT: (
        ("", [(0, 0)], ()),
        ("s2", [(0, -1)], ()),
        ("s1s2", [(2, -2), (1, -2)], (("kernel", W1, (0, -1), [(1, -1)]),)),
        ("s2s1s2", [(1, -2)], ()),
        ("s1s2s1s2", [(1, -2), (2, -3)], (("cokernel", W1, (0, -2), [(1, -3)]),)),
        ("s2s1s2s1s2", [(0, -2)], ()),
    ),
    ParabolicId.LONG: (
        ("", [(0, 0)], ()),
        ("s1", [(-1, 0)], ()),
        ("s2s1", [(-2, 0)], ()),
        ("s1s2s1", [(-2, 0), (-4, 1), (-3, 0)],
         (("cokernel", W1, (-3, 0), [(-5, 1), (-4, 0)]),)),
        ("s2s1s2s1", [(-3, 0)], ()),
        ("s1s2s1s2s1", [(-4, 0)], ()),
    ),
}
# The extra summand M of F_*O on the short-root G/P, in the same row shape.
_M_ROW = ("M", [(2, -2), (0, -1), (3, -3), (0, -2)],
          (("kernel", W2, (0, -1), [(0, 0), (3, -2)]),))


def _object(parabolic: ParabolicId, name: str, atoms, two_terms) -> SheafObject:
    def filtration(highs):
        return module(parabolic, [Weight(*h) for h in highs])

    return SheafObject(name, parabolic, filtration(atoms), tuple(
        TwoTerm(kind, g, Weight(*nu), filtration(other)) for kind, g, nu, other in two_terms))


@lru_cache(maxsize=None)
def builtin_collection(
    parabolic: ParabolicId,
) -> tuple[dict[weyl.WeylElement, SheafObject], SheafObject | None]:
    """The collection objects on G/P, plus the extra summand for the short case."""
    coll = {weyl.from_word(word): _object(parabolic, f"E({word or 'e'})", atoms, two_terms)
            for word, atoms, two_terms in _COLLECTIONS[parabolic]}
    if parabolic is ParabolicId.SHORT:
        return coll, _object(parabolic, *_M_ROW)
    return coll, None


def object_by_name(parabolic: ParabolicId, name: str) -> SheafObject:
    """Resolve names like ``E(s2s1s2)``, ``E(e)``, ``E(wP)`` or ``M``."""
    coll, m_obj = builtin_collection(parabolic)
    if name == "M":
        if m_obj is None:
            raise KeyError("M exists only for the short-root parabolic")
        return m_obj
    label = name[2:-1] if name.startswith("E(") and name.endswith(")") else name
    if label in ("wP", "w^P"):
        return coll[max(coll, key=lambda w: w.length)]
    # only the words of the collection table name objects: a word that merely
    # reduces to one of them (say s1s1s2) does not
    wanted = f"E({label or 'e'})"
    for obj in coll.values():
        if obj.name == wanted:
            return obj
    raise KeyError(f"{name} is not an object of this collection")


# Each summand sheaf of F_*O on G/P with the Weyl words w of the simple
# modules L(w) in its multiplicity space, in the order the report prints them.
FROBENIUS_SUMMANDS: dict[ParabolicId, tuple[tuple[str, tuple[str, ...]], ...]] = {
    ParabolicId.SHORT: (
        ("E(e)", ("e",)),
        ("E(s2)", ("s2", "s1s2s1s2")),
        ("E(s1s2)", ("s1s2",)),
        ("M", ("e",)),
        ("E(s2s1s2)", ("s2s1s2",)),
        ("E(s1s2s1s2)", ("s1s2s1s2",)),
        ("E(s2s1s2s1s2)", ("s2s1s2s1s2", "s1s2")),
    ),
    ParabolicId.LONG: (
        ("E(e)", ("e",)),
        ("E(s1)", ("s1",)),
        ("E(s2s1)", ("s2s1", "e", "s1s2s1s2s1")),
        ("E(s1s2s1)", ("s1s2s1",)),
        ("E(s2s1s2s1)", ("s2s1s2s1", "s1")),
        ("E(s1s2s1s2s1)", ("s1s2s1s2s1", "e")),
    ),
}


@lru_cache(maxsize=None)
def _euler_form(parabolic: ParabolicId) -> tuple[tuple[int, ...], ...]:
    """G[k][j] = chi(E_k^v (x) E_j) over the rows of ``FROBENIUS_SUMMANDS``,
    in table order.  The collection is exceptional and Hom(E_k, E_j) = 0
    unless w_j <= w_k in the Bruhat order, so G is lower unitriangular on
    the collection rows; M, which is no member, is only read as a column."""
    table = FROBENIUS_SUMMANDS[parabolic]
    mods = [object_by_name(parabolic, name).filtration for name, _ in table]
    form = tuple(tuple(charring.euler_characteristic(x.dual().character().tensor(y.character()))
                       for y in mods) for x in mods)
    rows = [k for k, (name, _) in enumerate(table) if name != "M"]
    for k in rows:
        if form[k][k] != 1 or any(form[k][j] for j in rows if j > k):
            raise ArithmeticError(f"the Euler form is not lower unitriangular at {table[k][0]} "
                                  f"({parabolic.name.lower()} root)")
    return form


def multiplicity_dims(parabolic: ParabolicId, p: int) -> dict[str, int]:
    """dim V_j of each summand E_j (x) V_j of F_*O, from Euler characteristics
    alone: chi(E_k^v (x) F_*O) = chi(F^*E_k^v), the bundle of the character of
    E_k^v stretched by p, so G m = r with r_k = chi(stretch_p(E_k^v)), solved
    by forward substitution.  M's multiplicity space is L(0), so m_M = 1 is
    known, and each row subtracts M's column of G with the solved m_j."""
    table = FROBENIUS_SUMMANDS[parabolic]
    form = _euler_form(parabolic)
    # an unknown reads 0 until it is solved, so row k sums the solved m_j and m_M
    m = [int(name == "M") for name, _ in table]
    for k, (name, _) in enumerate(table):
        if name != "M":
            dual = object_by_name(parabolic, name).filtration.dual()
            r = charring.euler_characteristic(dual.character().stretch(p))
            m[k] = r - sum(g * mj for g, mj in zip(form[k], m))
    return {name: mk for (name, _), mk in zip(table, m)}


def filtration_to_latex(mod: FilteredPModule) -> str:
    """Boxed-filtration fragment, quotient end on top."""
    rows = []
    for s in mod.atoms:
        par = mod.parabolic
        if par.pair(s.highest) == 0:
            rows.append(f"${s.highest.a}\\varpi_1{s.highest.b:+d}\\varpi_2$")
        else:
            rows.append(
                f"$\\nabla^P({s.highest.a}\\varpi_1{s.highest.b:+d}\\varpi_2)$"
            )
    body = "\\\\\n\\hline\n".join(rows)
    return "\\begin{tabular}{|c|}\n\\hline\n" + body + "\\\\\n\\hline\n\\end{tabular}"
