"""The Ext tables of the exceptional collections on the two G2 flag varieties,
and the reports built on them.

The objects, their two-term presentations and the decomposition of F_*O
into them are data of ``collection``; this module computes with them.
``ext_table`` bounds Ext^*(X, Y) along every available route, each read
from presentation pieces of one shape (``ExtEngine._pieces``):

* the product route expands dual(X) (x) Y atom by atom and evaluates each
  string through the line-bundle cohomology of the flag variety, with the
  homological placement dictated by the triangle the presentation encodes;
* the pieces of shape V (x) L(nu) contribute the certified table of the
  twisting line against the opposite object, tensored by the character of V
  (the tensor identity for G-module coefficients, by Brauer-Klimyk);
* splitting one side into its atoms and summing the certified tables of the
  atoms is a further bound.

The plain product route, and the split route when all its atoms' tables are
exact, are exact unless ``linkage_collision`` finds a linkage class in two
degrees; a boundary map only joins adjacent degrees, so that is safe.

All routes bound the same composition-factor table, so their degreewise
intersection still does; the per-weight alternating-sum constraints against
the Euler characteristic then certify exactness whenever they pin a unique
solution (``cohomology.combine``).  Ambiguity is propagated, never guessed
away.

Every engine reads and fills one process-wide memo of cells (``_CELLS``)
that serves every prime.  The prime enters a cell only where a p-free
pairing is compared with p:

* ``lowest_alcove`` in the caveat of a ``bott_line`` result of degree < 2,
  which holds exactly from max <w+rho, alpha^v> on (Jantzen, RAGS II.5:
  Bott's theorem holds in the closure of the bottom alcove);
* ``affine_normal_form`` of each weight that ``linkage_collision`` compares,
  which is the dominant conjugate x+ of the weight from <x+, alpha_0^v> on
  (RAGS II.6: the linkage classes stop changing);
* a sub-cell, through its own bound.

While a cell is computed, the engine records the largest of these values,
p0 (``cohomology.p_threshold``).  Above p0 every comparison gives the same
answer, so the cell computed at any p >= p0 is the cell at every p >= p0:
it is stored once and served at a later prime with only its ``p`` replaced,
which the labels L/nabla are rendered from.  A cell computed at p < p0 is
stored for that prime alone.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from typing import NamedTuple

from .rootdata import DEFAULT_P, MIN_P, RHO, ZERO, ParabolicId, Weight
from .charring import (Character, FilteredPModule, PString, clebsch_gordan_P, weyl_character,
                       weyl_dim)
from .cohomology import (Bound, Degrees, Frozen, bott_line, combine, costandard_times,
                         euler_characteristic, linkage_collision, lowest_alcove, p_threshold)
from .collection import FROBENIUS_SUMMANDS, SheafObject, builtin_collection, object_by_name
from . import weyl


def _anon(parabolic: ParabolicId, atoms: tuple[PString, ...]) -> SheafObject:
    label = ",".join(str(s.highest) for s in atoms)
    return SheafObject(f"<{label}>", parabolic, FilteredPModule(parabolic, atoms))


# ---------------------------------------------------------------------------
# character-level helpers

@lru_cache(maxsize=None)
def costandard_factors(first: Weight, *rest: Weight) -> tuple[tuple[Weight, int], ...]:
    """Weyl-character factors of a product of costandard characters, in the
    order ``decompose_costandard`` peels them: a row and its torus character
    have the same maximal weights."""
    row = Character.line(first)
    for w in rest:
        row = costandard_times(row, weyl_character(w))
    return tuple(row.peel(Character.line))


# ---------------------------------------------------------------------------
# Ext tables

class ExtTable(NamedTuple):
    """Degreewise composition-factor table of Ext^*(X, Y)."""

    degrees: Frozen
    exact: bool
    p: int
    caveats: tuple[str, ...] = ()

    def entries(self, degree: int) -> tuple[Weight, ...]:
        for d, ws in self.degrees:
            if d == degree:
                return ws
        return ()

    def is_zero(self) -> bool:
        return not self.degrees

    def max_degree(self) -> int:
        return max((d for d, _ in self.degrees), default=-1)

    def hom_nonzero(self) -> bool:
        return bool(self.entries(0))

    def dimension(self, degree: int) -> int:
        return sum(map(weyl_dim, self.entries(degree)))

    def label(self, w: Weight) -> str:
        return "L" if lowest_alcove(w, self.p) else "nabla"

    def to_json(self) -> dict:
        return {
            "degrees": {
                str(d): [[self.label(w), w.a, w.b] for w in ws]
                for d, ws in self.degrees
            },
            "exact": self.exact,
            "caveats": list(self.caveats),
        }

    def render(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for d, ws in self.degrees:
            cnt = Counter(ws)
            terms = []
            for w, m in sorted(cnt.items()):
                t = f"{self.label(w)}{w}"
                terms.append(t if m == 1 else f"{t}^{m}")
            parts.append(f"Ext^{d}: " + " + ".join(terms))
        flag = "" if self.exact else "  [bound only]"
        return "; ".join(parts) + flag


class AmbiguousTable(RuntimeError):
    """A report required an exact table but only a bound was certified."""


# The cells of the whole process, across primes: (X, Y) -> (p0, table) for a
# table valid at every p >= p0, and (X, Y, p) -> (p0, table) for a table
# computed at a prime p < p0, valid at p alone.
_CELLS: dict[tuple, tuple[int, ExtTable]] = {}


class ExtEngine:
    """Ext-table computation for one parabolic at one prime, over the
    process-wide cell memo."""

    def __init__(self, parabolic: ParabolicId, p: int = DEFAULT_P):
        if p < 2:
            raise ValueError(f"p must be at least 2, got {p}")
        self.parabolic = parabolic
        self.p = p
        # the p0 of each cell under computation, innermost last
        self._p0 = [0]

    def _needs(self, bound: int) -> None:
        """Record that the cell under computation compared bound with p."""
        if bound > self._p0[-1]:
            self._p0[-1] = bound

    def _no_collision(self, deg: Degrees) -> bool:
        """``not linkage_collision(deg, p)``, recording the bound of each weight it compares."""
        self._needs(max((p_threshold(w + RHO) for cnt in deg.values() for w in cnt), default=0))
        return not linkage_collision(deg, self.p)

    # -- presentation pieces -------------------------------------------------
    # Each piece is (gweights, object, placement): the object tensored by the
    # G-modules V of highest weights gweights, whose own cohomological degree
    # d lands at degree d + placement in the table of the presented object.

    def _pieces(self, obj: SheafObject, first: bool):
        yield [((), obj, 0)]
        for tt in obj.two_terms:
            # first, kernel:   X -> T -> Q: Ext^i(X,-) <= Ext^i(T,-) + Ext^{i+1}(Q,-)
            # first, cokernel: S -> T -> X: Ext^i(X,-) <= Ext^i(T,-) + Ext^{i-1}(S,-)
            # second, kernel:   Y -> T -> Q: Ext^i(-,Y) <= Ext^i(-,T) + Ext^{i-1}(-,Q)
            # second, cokernel: S -> T -> Y: Ext^i(-,Y) <= Ext^i(-,T) + Ext^{i+1}(-,S)
            placement = -1 if (tt.kind == "kernel") == first else +1
            yield [((tt.gweight,), _anon(self.parabolic, (PString(self.parabolic, tt.twist),)), 0),
                   ((), _anon(self.parabolic, tt.other.atoms), placement)]

    # -- route assembly ------------------------------------------------------

    def _direct_into(self, deg: Degrees, caveats: list[str],
                     fx: FilteredPModule, fy: FilteredPModule, shift: int) -> None:
        for sx in fx.dual().atoms:
            for sy in fy.atoms:
                for s in clebsch_gordan_P(sx, sy).atoms:
                    r = bott_line(s.highest, self.p)
                    if r.vanishes:
                        continue
                    if r.degree < 2:  # lowest_alcove in the caveat
                        self._needs(p_threshold(r.weight + RHO))
                    d = r.degree + shift
                    if d < 0:
                        continue
                    deg.setdefault(d, Counter())[r.weight] += 1
                    if r.caveat:
                        caveats.append(f"char-p caveat at {s.highest}")

    def _tensor_into(self, deg: Degrees, sub: ExtTable,
                     gweights: tuple[Weight, ...], shift: int) -> None:
        for d, ws in sub.degrees:
            if d + shift < 0:
                continue
            for w in ws:
                deg.setdefault(d + shift, Counter()).update(dict(costandard_factors(w, *gweights)))

    def _route_product(self, px, py, caveats: list[str]) -> Bound:
        deg: Degrees = {}
        for gx, ox, plx in px:
            for gy, oy, ply in py:
                if gx or gy:
                    self._tensor_into(deg, self.cell(ox, oy), gx + gy, plx + ply)
                else:
                    self._direct_into(deg, caveats, ox.filtration, oy.filtration, plx + ply)
        plain = len(px) == len(py) == 1 and not (px[0][0] or py[0][0])
        return Bound(deg, plain and self._no_collision(deg))

    def _route_split(self, X: SheafObject, Y: SheafObject, first: bool) -> Bound:
        """Bound Ext(X, Y) by the certified tables of one side's atoms."""
        atoms = X.filtration.atoms if first else Y.filtration.atoms
        deg: Degrees = {}
        all_exact = True
        for s in atoms:
            piece = _anon(self.parabolic, (s,))
            sub = self.cell(piece, Y) if first else self.cell(X, piece)
            all_exact = all_exact and sub.exact
            for d, ws in sub.degrees:
                deg.setdefault(d, Counter()).update(ws)
        return Bound(deg, self._no_collision(deg) and all_exact)  # p0 counts inexact atoms too

    # -- the cell ------------------------------------------------------------

    def cell(self, X: SheafObject, Y: SheafObject) -> ExtTable:
        p = self.p
        hit = _CELLS.get((X, Y))
        if hit is None or hit[0] > p:
            hit = _CELLS.get((X, Y, p)) or self._compute(X, Y)
        p0, table = hit
        self._needs(p0)
        return table if table.p == p else ExtTable(table.degrees, table.exact, p, table.caveats)

    def _compute(self, X: SheafObject, Y: SheafObject) -> tuple[int, ExtTable]:
        self._p0.append(0)
        try:
            caveats: list[str] = []
            routes: list[Bound] = []
            for px in self._pieces(X, first=True):
                for py in self._pieces(Y, first=False):
                    routes.append(self._route_product(px, py, caveats))
            if len(X.filtration.atoms) > 1:
                routes.append(self._route_split(X, Y, first=True))
            if len(Y.filtration.atoms) > 1:
                routes.append(self._route_split(X, Y, first=False))
        finally:
            p0 = self._p0.pop()

        # The first route is the plain product at shift 0: it evaluates every
        # atom of dual(X) (x) Y once and drops none, so its alternating sum is
        # the Euler characteristic of RHom(X, Y).
        degrees, exact = combine(routes, euler_characteristic(routes[0].by_degree))
        table = ExtTable(degrees, exact, self.p, tuple(dict.fromkeys(caveats)))
        _CELLS[(X, Y) if p0 <= self.p else (X, Y, self.p)] = (p0, table)
        return p0, table


def ext_table(X: SheafObject, Y: SheafObject, p: int = DEFAULT_P) -> ExtTable:
    if X.parabolic is not Y.parabolic:
        raise ValueError("objects live on different flag varieties")
    return ExtEngine(X.parabolic, p).cell(X, Y)


# ---------------------------------------------------------------------------
# reports

class CollectionReport(NamedTuple):
    parabolic: ParabolicId
    p: int
    cells: dict[tuple[str, str], ExtTable]  # rows in collection order, then M
    higher_ext_vanish: bool
    hom_matches_bruhat: bool
    diagonal_trivial: bool
    failures: tuple[str, ...]

    @property
    def passed(self) -> bool:
        # every false verdict and every inexact cell adds a failure
        return not self.failures

    def to_json(self) -> dict:
        return {
            "parabolic": self.parabolic.name.lower(),
            "p": self.p,
            "cells": {f"{x}|{y}": t.to_json() for (x, y), t in self.cells.items()},
            "verdicts": {
                "higher_ext_vanish": self.higher_ext_vanish,
                "hom_matches_bruhat": self.hom_matches_bruhat,
                "diagonal_trivial": self.diagonal_trivial,
            },
            "failures": list(self.failures),
            "passed": self.passed,
        }

    def to_text(self) -> str:
        names = list(dict.fromkeys(x for x, _ in self.cells))
        width = max(len(self.cells[(x, y)].render()) for x in names for y in names)
        width = max(width, max(len(n) for n in names)) + 2
        lines = []
        header = " " * 14 + "".join(n.ljust(width) for n in names)
        lines.append(header)
        for x in names:
            row = x.ljust(14)
            for y in names:
                row += self.cells[(x, y)].render().ljust(width)
            lines.append(row)
        lines.append("")
        lines.append(f"higher Ext vanish on the collection: {self.higher_ext_vanish}")
        lines.append(f"Hom pattern equals Bruhat order:     {self.hom_matches_bruhat}")
        lines.append(f"diagonal endomorphisms trivial:      {self.diagonal_trivial}")
        for f in self.failures:
            lines.append(f"FAILURE: {f}")
        lines.append("PASS" if self.passed else "FAIL")
        return "\n".join(lines)


def _report_engine(parabolic: ParabolicId, p: int) -> ExtEngine:
    engine = ExtEngine(parabolic, p)
    if p < MIN_P:
        raise ValueError(f"no report is backed below p = {MIN_P}, got {p}")
    return engine


def full_collection_report(parabolic: ParabolicId, p: int = DEFAULT_P) -> CollectionReport:
    """Every Ext table of the collection plus the three structural verdicts."""
    engine = _report_engine(parabolic, p)
    coll, m_obj = builtin_collection(parabolic)
    cells: dict[tuple[str, str], ExtTable] = {}
    failures: list[str] = []

    objects = [(w, coll[w]) for w in weyl.minimal_reps(parabolic)]
    for _, ox in objects:
        for _, oy in objects:
            cells[(ox.name, oy.name)] = engine.cell(ox, oy)
    if m_obj is not None:
        for _, o in objects:
            cells[(o.name, m_obj.name)] = engine.cell(o, m_obj)
            cells[(m_obj.name, o.name)] = engine.cell(m_obj, o)
        cells[(m_obj.name, m_obj.name)] = engine.cell(m_obj, m_obj)

    for pair, t in cells.items():
        if not t.exact:
            failures.append(f"ambiguous table for {pair}")

    higher = True
    bruhat_ok = True
    diagonal = True
    for wx, ox in objects:
        for wy, oy in objects:
            t = cells[(ox.name, oy.name)]
            if t.max_degree() > 0:
                higher = False
                failures.append(f"higher Ext nonzero for ({ox.name},{oy.name})")
            expected = weyl.bruhat_leq(wy, wx)
            if t.hom_nonzero() != expected:
                bruhat_ok = False
                failures.append(
                    f"Hom({ox.name},{oy.name}) nonzero={t.hom_nonzero()}, Bruhat wants {expected}"
                )
    for w, o in objects:
        t = cells[(o.name, o.name)]
        if t.entries(0) != (ZERO,):
            diagonal = False
            failures.append(f"diagonal cell of {o.name} is not trivial")

    return CollectionReport(parabolic, p, cells, higher, bruhat_ok, diagonal, tuple(failures))


class FrobeniusSummand(NamedTuple):
    sheaf: str
    rank: int
    multiplicity_labels: tuple[str, ...]


class FrobeniusReport(NamedTuple):
    parabolic: ParabolicId
    p: int
    summands: tuple[FrobeniusSummand, ...]
    splitting_checks: tuple[tuple[str, str, bool], ...]
    self_ext_nonzero: bool
    witness: tuple[str, str]
    witness_table: ExtTable

    @property
    def passed(self) -> bool:
        checks_ok = all(ok for _, _, ok in self.splitting_checks)
        if self.parabolic is ParabolicId.SHORT:
            return checks_ok and self.self_ext_nonzero
        return checks_ok

    def to_json(self) -> dict:
        return {
            "parabolic": self.parabolic.name.lower(),
            "p": self.p,
            "summands": [
                {"sheaf": s.sheaf, "rank": s.rank, "multiplicities": list(s.multiplicity_labels)}
                for s in self.summands
            ],
            "splitting_checks": [
                {"source": a, "target": b, "vanishes": ok}
                for a, b, ok in self.splitting_checks
            ],
            "self_ext_nonzero": self.self_ext_nonzero,
            "witness": list(self.witness),
            "passed": self.passed,
        }

    def to_text(self) -> str:
        lines = [f"Frobenius pushforward summands on G/P ({self.parabolic.name.lower()} root), p={self.p}:"]
        for s in self.summands:
            mults = " + ".join(s.multiplicity_labels)
            lines.append(f"  {s.sheaf:14s} rank {s.rank:2d}  (x) {{{mults}}}")
        lines.append("splitting conditions:")
        for a, b, ok in self.splitting_checks:
            lines.append(f"  Ext^1({a},{b}) = 0: {ok}")
        if self.parabolic is ParabolicId.SHORT:
            verdict = "NONZERO" if self.self_ext_nonzero else "zero"
            lines.append(
                f"self-extension of the pushforward: {verdict}, witness "
                f"Ext^1({self.witness[0]},{self.witness[1]}) = {self.witness_table.render()}"
            )
        lines.append("PASS" if self.passed else "FAIL")
        return "\n".join(lines)


def frobenius_report(parabolic: ParabolicId, p: int = DEFAULT_P) -> FrobeniusReport:
    """Summand list of the Frobenius pushforward and its splitting evidence."""
    engine = _report_engine(parabolic, p)
    coll, m_obj = builtin_collection(parabolic)
    summands = tuple(
        FrobeniusSummand(name, object_by_name(parabolic, name).rank(),
                         tuple(f"L({w})" for w in words))
        for name, words in FROBENIUS_SUMMANDS[parabolic]
    )

    reps = weyl.minimal_reps(parabolic)
    if parabolic is ParabolicId.SHORT:
        # Ext^1 between M and each collection object, in the one order that must vanish
        pairs = [(coll[w], m_obj) if w.length >= 3 else (m_obj, coll[w]) for w in reps]
        witness = ("M", "E(s2s1s2)")
    else:
        pairs = [(coll[wx], coll[wy]) for wx in reps for wy in reps]
        witness = ("E(e)", "E(e)")
    checks: list[tuple[str, str, bool]] = []
    for X, Y in pairs:
        t = engine.cell(X, Y)
        if not t.exact:  # an exact nonzero cell is a failed check, not an ambiguity
            raise AmbiguousTable("a required splitting vanishing is not certified")
        vanishes = t.max_degree() <= 0 if m_obj is None else not t.entries(1)
        checks.append((X.name, Y.name, vanishes))
    wt = engine.cell(*(object_by_name(parabolic, name) for name in witness))
    if m_obj is not None and not wt.exact:  # the short side's verdict reads the witness
        raise AmbiguousTable("the self-extension witness is not certified")
    self_ext = m_obj is not None and bool(wt.entries(1))

    return FrobeniusReport(
        parabolic, p, summands, tuple(checks), self_ext, witness, wt
    )
