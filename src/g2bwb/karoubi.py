"""Fixpoint engine for Karoubian generation by the exceptional collections.

Membership of a class in the generated triangulated subcategory is tracked
purely combinatorially.  Classes are line bundles on the full flag variety,
pulled-back parabolic strings, or synthetic totals; rules encode

* the B-weight filtration of a string (knowing all layers but one and the
  total yields the last layer),
* the pushforward correspondence between a string class and its highest line,
* tensoring a known line by one of the two fundamental G-modules, with
  either the weight filtration or, for twists trivial on the Levi, the
  string filtration of the product,
* the length-eight Koszul complex stepping through consecutive multiples
  of the first fundamental weight.

Every multi-layer rule is compiled into two-term triangle rules through
synthetic truncation classes, so a single two-out-of-three inference drives
the whole closure.  Each box is compiled once, on (a, b) integer pairs, into a
read-only ``RuleTable`` of flat integer arrays: dense class ids (line and
string ids from grids over the box), per-rule kind, head and parts, one label
per group of rules (an implication, or the triangles of a filtration), and a CSR
index of the rules that read each class, by counting sort.  The tensor rules at
a twist move one cached template per generator, and each filtration rule is
admitted only after an exact character-additivity check.  Every closure over
the box shares the table; a knowledge base holds only a byte of known flags per
class and the log of learned facts as (class id, rule index) pairs.  The closure
is a worklist saturation whose result is independent of rule order; derivations
are logged and replayable.
"""

from __future__ import annotations

import functools
import random
from array import array
from collections import Counter
from collections.abc import Sequence
from itertools import accumulate
from dataclasses import dataclass
from types import MappingProxyType

from .rootdata import W1, W2, ParabolicId, Weight
from .charring import (Character, PString, exterior_power, pstring_character, restrict_to_P,
                       weyl_character)

# A class is a hashable token:
#   ("line", Weight)            line bundle on the flag variety
#   ("pstring", Weight)         pulled-back parabolic string, pairing > 0
#   ("zero",)                   the zero object, always a member
#   ("total"|"trunc", str, ...) synthetic nodes of compiled rules
ClassId = tuple


def line_class(nu: Weight) -> ClassId:
    return ("line", nu)


def pstring_class(parabolic: ParabolicId, lam: Weight) -> ClassId:
    """Canonical class of a string: length-one strings are lines."""
    if parabolic.pair(lam) == 0:
        return ("line", lam)
    if parabolic.pair(lam) < 0:
        raise ValueError(f"{lam} is not a valid string highest weight")
    return ("pstring", lam)


ZERO_CLASS: ClassId = ("zero",)


def class_str(c: ClassId) -> str:
    if c[0] == "line":
        return f"L{c[1]}"
    if c[0] == "pstring":
        return f"L[P{c[1]}]"
    if c[0] == "zero":
        return "0"
    return ":".join(str(x) for x in c)


# Rule kinds.  A rule has a head and one or two parts: an implication learns
# its head (dst) from its part (src); a triangle's head is the total, an
# extension of its parts, and it learns any one of the three from the others.
IMPL, TRI2 = 0, 2
ZERO_ID = 0  # class id of the zero object in every table


@dataclass(frozen=True, eq=False)
class RuleLabels(Sequence):
    """The rule labels, stored once per group.  Rule r is in group g = ``group[r]``,
    which starts at rule ``first[g]`` (``first`` ends with the rule count) and is one
    rule labelled ``bases[g]`` or, if ``numbered[g]``, the triangles ``bases[g]#k``."""

    bases: tuple[str, ...]
    first: memoryview
    numbered: bytes
    group: memoryview

    def __len__(self) -> int:
        return len(self.group)

    def __getitem__(self, r: int) -> str:
        g = self.group[r]
        base = self.bases[g]
        return f"{base}#{r % len(self) - self.first[g] + 1}" if self.numbered[g] else base


@dataclass(frozen=True, eq=False)
class RuleTable:
    """The compiled rules of one box as flat integer tables, shared and read-only.

    Classes have dense ids.  ``classes[i]`` is the ClassId of class i, except
    for a truncation class, where it is the index of the one rule whose head
    it is.  Rule r has kind ``kind[r]``, head ``head[r]``, parts ``part0[r]``
    and ``part1[r]`` (-1 for an implication), and label ``rule_ids[r]``.  The
    rules that read class c, in rule order, are ``watch[offsets[c]:offsets[c + 1]]``.
    """

    classes: tuple
    index: MappingProxyType
    seeds: tuple[int, ...]
    kind: bytes
    head: memoryview
    part0: memoryview
    part1: memoryview
    rule_ids: RuleLabels
    offsets: memoryview
    watch: memoryview
    skipped: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.kind)

    def class_of(self, i: int) -> ClassId:
        c = self.classes[i]
        if type(c) is int:
            g = self.rule_ids.group[c]
            return ("trunc", self.rule_ids.bases[g], c - self.rule_ids.first[g] + 1)
        return c

    def id_of(self, c: ClassId) -> int | None:
        """Id of class c, or None if no rule of the box mentions it."""
        if c[0] != "trunc":
            return self.index.get(c)
        labels = self.rule_ids
        g = labels.bases.index(c[1]) if c[1] in labels.bases else -1
        r = labels.first[g] + c[2] - 1
        # truncation k heads rule k of its group, which is not the group's last
        if g < 0 or not labels.numbered[g] or not labels.first[g] <= r < labels.first[g + 1] - 1:
            return None
        return self.head[r]

    def premises(self, c: int, r: int) -> tuple[int, ...]:
        """Ids of the classes rule r used to learn class c: its head and parts
        other than c, in that order; none for a seed."""
        if r < 0:
            return ()
        return tuple(q for q in (self.head[r], self.part0[r], self.part1[r]) if q >= 0 and q != c)


class _Builder:
    """Writes the rules of one box straight into table rows.  Line and string class
    ids sit in two grids, one cell per weight (a, b) of the box, -1 until first used."""

    def __init__(self, parabolic: ParabolicId, amax: int, bmax: int):
        self.parabolic, self.amax, self.bmax = parabolic, amax, bmax
        self.grids = {k: [-1] * ((2 * amax + 1) * (2 * bmax + 1)) for k in ("line", "pstring")}
        self.classes: list = []
        self.index: dict[ClassId, int] = {}
        self.kind = bytearray()
        self.head, self.part0, self.part1 = array("i"), array("i"), array("i")
        self.bases: list[str] = []  # the rule labels by group, as in RuleLabels
        self.first, self.numbered, self.group = array("i"), bytearray(), array("i")
        self.skipped: list[str] = []
        self.cid(ZERO_CLASS)
        short = parabolic is ParabolicId.SHORT
        lines = SHORT_SEED_LINES if short else LONG_SEED_LINES
        strings = SHORT_SEED_STRINGS if short else LONG_SEED_STRINGS
        self.seeds = tuple([self.cid(line_class(nu)) for nu in lines]
                           + [self.cid(pstring_class(parabolic, lam)) for lam in strings])

    def fits(self, bounds: tuple[int, int, int, int], a: int, b: int) -> bool:
        """Whether weights with bounds (min a, max a, min b, max b), moved by (a, b), fit."""
        alo, ahi, blo, bhi = bounds
        return (-self.amax <= alo + a and ahi + a <= self.amax
                and -self.bmax <= blo + b and bhi + b <= self.bmax)

    def cid(self, c: ClassId) -> int:
        i = self.index.get(c)
        if i is None:
            i = self.index[c] = len(self.classes)
            self.classes.append(c)
        return i

    def grid_id(self, kind: str, a: int, b: int) -> int:
        """Id of the class (kind, Weight(a, b)) of a weight in the box."""
        grid, k = self.grids[kind], (a + self.amax) * (2 * self.bmax + 1) + b + self.bmax
        if grid[k] < 0:
            grid[k] = self.cid((kind, Weight(a, b)))
        return grid[k]

    def rows(self, base: str, numbered: bool, kind: bytes, head, part0, part1) -> None:
        """Append a group of rules, labelled as in RuleLabels."""
        self.group.extend(array("i", [len(self.bases)]) * len(kind))
        self.first.append(len(self.kind))
        self.numbered.append(numbered)
        self.bases.append(base)
        self.kind.extend(kind)
        self.head.extend(head)
        self.part0.extend(part0)
        self.part1.extend(part1)

    def rule(self, rule_id: str, head: int, part: int) -> None:
        self.rows(rule_id, False, bytes([IMPL]), [head], [part], [-1])

    def triangles(self, rule_id: str, total: int, parts: list[int]) -> None:
        """Two-term triangles ``rule_id#k``, k = 1 .. m, through fresh truncation
        classes: rule k reads the (k-1)-st truncation (parts[0] for k = 1) and
        parts[k], and its head is the k-th truncation (the total for k = m)."""
        m, r0, t0 = len(parts) - 1, len(self.kind), len(self.classes)
        truncs = list(range(t0, t0 + m - 1))
        self.classes.extend(range(r0, r0 + m - 1))  # ("trunc", rule_id, k) heads rule r0 + k - 1
        self.rows(rule_id, True, bytes([TRI2]) * m, truncs + [total], parts[:1] + truncs, parts[1:])

    def filtration(self, rule_id: str, parts: list[int], total: int, total_char: dict) -> None:
        """Admit a filtration rule of two or more parts; exact character additivity is
        mandatory.  Each part's character is read from its class: a line has its one weight,
        a string the weights of its ``PString``; as (a, b) pairs they must be total_char's."""
        weights = [w for kind, lam in map(self.classes.__getitem__, parts)
                   for w in ([lam] if kind == "line" else PString(self.parabolic, lam).weights())]
        if Counter(weights) != total_char:
            raise ValueError(f"rule {rule_id}: character additivity fails")
        if len(parts) < 2:
            raise ValueError(f"rule {rule_id}: a filtration needs two parts")
        self.triangles(rule_id, total, parts)

    def add_filtration(self, rule_id: str, total: ClassId,
                       parts: list[ClassId], total_char: Character) -> None:
        """``filtration`` of classes given as ClassIds."""
        self.filtration(rule_id, [self.cid(p) for p in parts], self.cid(total), total_char.mult)

    def freeze(self) -> RuleTable:
        """The table.  Its watch index counts the readers of each class, sums the counts
        to offsets, then fills each class's slots in rule order (a counting sort)."""
        rows = (self.kind, self.head, self.part0, self.part1)
        slot = [0] * len(self.classes)
        for k, h, p, q in zip(*rows):
            slot[p] += 1
            if k != IMPL:
                slot[h] += 1
                slot[q] += 1
        offsets = array("i", accumulate(slot, initial=0))
        slot, watch = offsets.tolist(), array("i", [0]) * offsets[-1]
        for r, (k, h, p, q) in enumerate(zip(*rows)):
            watch[slot[p]] = r
            slot[p] += 1
            if k != IMPL:
                watch[slot[h]] = r
                slot[h] += 1
                watch[slot[q]] = r
                slot[q] += 1
        ro = lambda a: memoryview(a).toreadonly()  # noqa: E731
        first = ro(self.first + array("i", [len(self.kind)]))
        labels = RuleLabels(tuple(self.bases), first, bytes(self.numbered), ro(self.group))
        return RuleTable(tuple(self.classes), MappingProxyType(self.index), self.seeds,
                         bytes(self.kind), ro(self.head), ro(self.part0), ro(self.part1),
                         labels, ro(offsets), ro(watch), tuple(self.skipped))


class _Known:
    """The known classes of a knowledge base, read as ClassIds."""

    __slots__ = ("_kb",)

    def __init__(self, kb: "KnowledgeBase"):
        self._kb = kb

    def __contains__(self, c: ClassId) -> bool:
        i = self._kb.rules.id_of(c)
        return i is not None and self._kb.flags[i] == 1

    def __len__(self) -> int:
        return self._kb.flags.count(1)

    def __iter__(self):
        class_of = self._kb.rules.class_of
        return (class_of(i) for i, f in enumerate(self._kb.flags) if f)


@dataclass
class KnowledgeBase:
    """One closure's state over a shared rule table.

    ``flags[i]`` is 1 once class i is known; ``log`` holds the learned facts
    in order as (class id, rule index) pairs, rule index -1 for a seed."""

    rules: RuleTable
    flags: bytearray
    log: array

    @property
    def known(self) -> _Known:
        return _Known(self)

    def _fact(self, c: int, r: int) -> str:
        t = self.rules
        prem = " ".join(class_str(t.class_of(q)) for q in t.premises(c, r))
        return f"{class_str(t.class_of(c))} <- {'seed' if r < 0 else t.rule_ids[r]} [{prem}]"

    def audit_log(self) -> str:
        log = self.log
        return "\n".join(map(self._fact, log[0::2], log[1::2]))

    def replay(self) -> bool:
        """Check that every derivation learns a class its rule names, the head of an
        implication, and uses only classes derived strictly earlier."""
        t, log = self.rules, self.log
        kind, head, part0, part1 = t.kind, t.head, t.part0, t.part1
        learned = log[0::2]
        pos = array("i", [-1]) * len(t.classes)
        for i, c in enumerate(learned):
            pos[c] = i
        for i, (c, r) in enumerate(zip(learned, log[1::2])):
            if r < 0:
                continue
            if c != head[r] and (kind[r] == IMPL or c != part0[r] and c != part1[r]):
                return False
            # the premises of (c, r), as in RuleTable.premises; zero is always known
            for q in (head[r], part0[r], part1[r]):
                if q > ZERO_ID and q != c and not 0 <= pos[q] < i:
                    return False
        return True

    def chain(self, c: ClassId) -> list[str]:
        """Derivation steps reaching c, in dependency order."""
        t, log = self.rules, self.log
        rule_of = dict(zip(log[0::2], log[1::2]))
        seen: set[int] = set()
        steps: list[int] = []

        def visit(x: int) -> None:
            if x in seen or x not in rule_of:
                return
            seen.add(x)
            for q in t.premises(x, rule_of[x]):
                visit(q)
            steps.append(x)

        start = t.id_of(c)
        if start is not None:
            visit(start)
        return [self._fact(x, rule_of[x]) for x in steps]


@functools.lru_cache(maxsize=None)
def _tensor_template(generator: Weight, parabolic: ParabolicId) -> tuple:
    """Tensor rules of a generator at twist 0 (twist nu moves every weight by nu): its
    character, its weights sorted with multiplicity, its string-atom highs, and their bounds."""
    def bounds(ws: tuple) -> tuple[int, int, int, int]:
        a, b = zip(*ws)
        return min(a), max(a), min(b), max(b)

    gch = weyl_character(generator)
    lines = tuple(mu for mu in sorted(gch.mult) for _ in range(gch.mult[mu]))
    highs = tuple(s.highest for s in restrict_to_P(generator, parabolic).atoms)
    return gch.mult, lines, bounds(lines), highs, bounds(highs)


def _string_line_rules(b: _Builder) -> None:
    par = b.parabolic
    aa, ab = par.simple_root.weight
    for a in range(-b.amax, b.amax + 1):
        for bb in range(-b.bmax, b.bmax + 1):
            lam = Weight(a, bb)
            r = par.pair(lam)
            if r <= 0:
                continue
            if not b.fits((0, 0, 0, 0), a - r * aa, bb - r * ab):  # the box is convex, holds lam
                b.skipped.append(f"string {lam}: layer outside box")
                continue
            ids = [b.grid_id("line", a - k * aa, bb - k * ab) for k in range(r + 1)]
            s = b.grid_id("pstring", a, bb)
            b.filtration(f"bfilt{lam}", ids, s, pstring_character(PString(par, lam)).mult)
            b.rule(f"push{lam}", ids[0], s)
            b.rule(f"pull{lam}", s, ids[0])


def _add_tensor_rules(b: _Builder, generator: Weight, nu: Weight) -> None:
    if generator not in (W1, W2):
        raise ValueError("generator must be one of the two fundamental modules")
    gch, lines, line_bounds, highs, high_bounds = _tensor_template(generator, b.parabolic)
    na, nb = nu
    tag = f"{generator}@{nu}"
    t = b.cid(("total", "tensor", generator, nu))
    b.rule("tensortotal" + tag, t, b.grid_id("line", na, nb))
    total_char = {(a + na, c + nb): m for (a, c), m in gch.items()}
    if b.fits(line_bounds, na, nb):
        ids = [b.grid_id("line", a + na, c + nb) for a, c in lines]
        b.filtration("wtfilt" + tag, ids, t, total_char)
    else:
        b.skipped.append(f"tensor {tag}: weight outside box")
    if b.parabolic.pair(nu) == 0:
        if b.fits(high_bounds, na, nb):
            b.filtration("strfilt" + tag, [b.cid(pstring_class(b.parabolic, h + nu))
                                           for h in highs], t, total_char)
        else:
            b.skipped.append(f"tensor strings {tag}: atom outside box")


def _add_koszul_rules(b: _Builder) -> None:
    """Length-eight exact complexes stepping by the first fundamental weight,
    one per twist in the box."""
    v = weyl_character(W1)
    euler = Character()
    for k in range(8):
        term = exterior_power(v, k).tensor(Character.line(W1.scaled(-k)))
        euler = euler + term.scaled((-1) ** k)
    if euler:
        raise ValueError("Koszul complex must be exact at character level")
    steps = [W1.scaled(k) for k in range(8)]
    for a in range(len(steps) - 1 - b.amax, b.amax + 1):  # twists whose terms lie in the box
        for bb in range(-b.bmax, b.bmax + 1):
            b.triangles(f"koszul({a},{bb})", ZERO_ID,
                        [b.grid_id("line", a - sa, bb - sb) for sa, sb in steps])


SHORT_SEED_LINES = [Weight(0, 0), Weight(0, -1), Weight(1, -2), Weight(2, -2),
                    Weight(2, -3), Weight(0, -2)]
SHORT_SEED_STRINGS = [Weight(1, -2), Weight(2, -2), Weight(2, -3)]
LONG_SEED_LINES = [Weight(0, 0), Weight(-1, 0), Weight(-2, 0), Weight(-3, 0),
                   Weight(-4, 0)]
LONG_SEED_STRINGS = [Weight(-4, 1)]


@functools.lru_cache(maxsize=None)
def _compiled(parabolic: ParabolicId, amax: int, bmax: int) -> RuleTable:
    """The rule table of a box, built and checked once."""
    b = _Builder(parabolic, amax, bmax)
    _string_line_rules(b)
    for a in range(-amax, amax + 1):
        for bb in range(-bmax, bmax + 1):
            for gen in (W1, W2):
                _add_tensor_rules(b, gen, Weight(a, bb))
    _add_koszul_rules(b)
    return b.freeze()


def _seeded(table: RuleTable) -> KnowledgeBase:
    flags, log = bytearray(len(table.classes)), array("i")
    flags[ZERO_ID] = 1
    for i in table.seeds:
        if not flags[i]:
            flags[i] = 1
            log.extend((i, -1))
    return KnowledgeBase(table, flags, log)


def seed(parabolic: ParabolicId, amax: int = 16, bmax: int = 12) -> KnowledgeBase:
    """Knowledge base holding the starting classes over the box's rule table."""
    return _seeded(_compiled(parabolic, amax, bmax))


def close(kb: KnowledgeBase, rng: random.Random | None = None) -> KnowledgeBase:
    """Saturate the inference rules; the fixpoint is order-independent.

    The worklist is a stack of rule indices, first in rule order or the rng's
    shuffle of it; the rules reading a newly learned class are pushed in
    worklist-position order."""
    t = kb.rules
    kind, head, part0, part1 = t.kind, t.head, t.part0, t.part1
    offsets, watch = t.offsets, t.watch
    known = kb.flags
    learn = kb.log.extend
    work = list(range(len(kind)))
    position = None
    if rng is not None:
        rng.shuffle(work)
        position = [0] * len(work)
        for pos, r in enumerate(work):
            position[r] = pos
    pop, push = work.pop, work.append
    queued = bytearray(b"\x01") * len(kind)
    while work:
        r = pop()
        queued[r] = 0
        new, p = head[r], part0[r]
        k = kind[r]
        if k == IMPL:
            if not known[p]:
                continue
        else:
            # both parts known: learn the total; exactly one part missing and
            # the total known: learn that part
            q = part1[r]
            if not known[p]:
                if not (known[q] and known[new]):
                    continue
                new = p
            elif not known[q]:
                if not known[new]:
                    continue
                new = q
        if known[new]:
            continue
        known[new] = 1
        learn((new, r))
        readers = watch[offsets[new]:offsets[new + 1]]
        if position is not None:
            readers = sorted([j for j in readers if not queued[j]], key=position.__getitem__)
        for j in readers:
            if not queued[j]:
                queued[j] = 1
                push(j)
    return kb


@dataclass(frozen=True)
class GenerationReport:
    parabolic: ParabolicId
    targets: tuple[Weight, ...]
    reached: tuple[Weight, ...]
    unreached: tuple[Weight, ...]
    replay_ok: bool

    @classmethod
    def of(cls, parabolic: ParabolicId, targets: tuple[Weight, ...],
           kb: KnowledgeBase) -> "GenerationReport":
        """Which target line classes a closed knowledge base reached, and its replay."""
        reached = tuple(w for w in targets if line_class(w) in kb.known)
        unreached = tuple(w for w in targets if line_class(w) not in kb.known)
        return cls(parabolic, tuple(targets), reached, unreached, kb.replay())

    @property
    def complete(self) -> bool:
        return not self.unreached and self.replay_ok

    def to_json(self) -> dict:
        return {
            "parabolic": self.parabolic.name.lower(),
            "targets": len(self.targets),
            "reached": len(self.reached),
            "unreached": [[w.a, w.b] for w in self.unreached],
            "replay_ok": self.replay_ok,
            "complete": self.complete,
        }

    def to_text(self) -> str:
        lines = [
            f"Karoubian generation ({self.parabolic.name.lower()} root): "
            f"{len(self.reached)}/{len(self.targets)} targets reached"
        ]
        for w in self.unreached:
            lines.append(f"  UNREACHED: L{w}")
        lines.append(f"audit replay: {'ok' if self.replay_ok else 'BROKEN'}")
        lines.append("PASS" if self.complete else "FAIL")
        return "\n".join(lines)


def default_targets(parabolic: ParabolicId) -> tuple[Weight, ...]:
    if parabolic is ParabolicId.SHORT:
        return tuple(Weight(n, -m) for n in range(-10, 11) for m in range(0, 11))
    return tuple(Weight(n, 0) for n in range(-12, 7))


def verify_generation(
    parabolic: ParabolicId,
    targets: tuple[Weight, ...] | None = None,
    amax: int = 16,
    bmax: int = 12,
    rng: random.Random | None = None,
) -> tuple[GenerationReport, KnowledgeBase]:
    """Run the closure and report which target line classes are reached."""
    kb = close(seed(parabolic, amax, bmax), rng)
    if targets is None:
        targets = default_targets(parabolic)
    return GenerationReport.of(parabolic, targets, kb), kb
