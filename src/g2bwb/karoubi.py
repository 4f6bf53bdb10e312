"""Fixpoint engine for Karoubian generation by the exceptional collections.

Membership of a class in the generated triangulated subcategory is tracked
purely combinatorially.  Classes are line bundles on the full flag variety
and pulled-back parabolic strings; rules encode

* the B-weight filtration of a string (knowing the string and all its
  layers but one yields the last layer),
* the pushforward correspondence between a string class and its highest line,
* tensoring a known line by one of the two fundamental G-modules, with
  either the weight filtration or, for twists trivial on the Levi, the
  string filtration of the product,
* the length-eight Koszul complex stepping through consecutive multiples
  of the first fundamental weight.

Every rule is of one kind: its slots are its parts and then its last slot, and once all
its other slots are known it learns any slot but the last, which it only reads.  That
slot is an implication's part, a string's class, the line L(nu) of a tensor twist nu,
standing for V (x) L(nu), or zero.  Rules that also learned their last slot, with a total
class that the two tensor filtrations of a wall twist share, would learn nothing more:

* a string learned from all its lines is learned by its pull from the highest one;
* zero is always known;
* a shared total T adds one step: learned from all the string parts while L(nu) is
  unknown, it lets the weight filtration of W1 learn L(nu) (for W2, L(nu) fills two
  slots).  But then the string part through nu is known and is not L(nu), and its other
  lines are known weight parts, so its filtration, which the box holds, learns L(nu).

Each box is compiled once into a read-only ``RuleTable`` of its classes and flat integer
arrays, shared by every closure over it: even a rule's label, or a twist or string skipped as
outside the box, is an integer code of its kind and its twist's grid cell, formatted when read.
A line's class id is its grid cell, and rules are written a row of twists at a time, a
generator's tensor rules as one column of line ids per offset of its cached template.  Every
filtration passes an exact check of character additivity on keys a * 2^16 + b read from its
parts' classes: a row's columns hold their weights' keys, a string's lines its weights' in
order, and a string filtration's sorted keys its total's.  A knowledge base holds a byte of
known flags per class and the log of learned facts as (class id, rule index) pairs; the
closure is a worklist saturation, independent of rule order, whose derivations are logged
and replayable.
"""

from __future__ import annotations

import functools
from array import array
from collections.abc import Sequence
from itertools import accumulate, chain, compress, repeat
from operator import sub
from types import MappingProxyType
from typing import NamedTuple

from .rootdata import W1, W2, ParabolicId, Weight
from .charring import Character, exterior_power, restrict_to_P, weyl_character

# A class is a hashable token:
#   ("line", Weight)            line bundle on the flag variety
#   ("pstring", Weight)         pulled-back parabolic string, pairing > 0
#   ("zero",)                   the zero object, always a member
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
    return "0"


ZERO_ID = 0  # class id of the zero object in every table

# The kinds of rule labels and skipped entries, each a template for its twist's weight; the
# tensor kinds of W1 and then W2 put the weight filtration first, as a row's slots do.
_KINDS = ("bfilt{}", "push{}", "pull{}", "koszul{}", "string {}: layer outside box",
          *(f"{t}{g}@{{}}" for g in (W1, W2) for t in ("wtfilt", "strfilt")),
          *(f"tensor{t} {g}@{{}}: {part} outside box" for g in (W1, W2)
            for t, part in (("", "weight"), (" strings", "atom"))))
BFILT, PUSH, PULL, KOSZUL, LAYER, TENSOR, TENSOR_SKIPPED = 0, 1, 2, 3, 4, 5, 9


class Entries(Sequence):
    """Read-only strings formatted on access from integer codes kind * cells + k: the
    ``_KINDS`` template of the kind for the twist in grid cell k of the box, line k + 1."""

    __slots__ = ("codes", "amax", "bmax")

    def __init__(self, codes: array, amax: int, bmax: int):
        self.codes, self.amax, self.bmax = codes, amax, bmax

    def __len__(self) -> int:
        return len(self.codes)

    def __getitem__(self, i):
        codes = self.codes[i]
        return tuple(map(self.name, codes)) if isinstance(i, slice) else self.name(codes)

    def name(self, code: int) -> str:
        width = 2 * self.bmax + 1
        kind, k = divmod(code, (2 * self.amax + 1) * width)
        return _KINDS[kind].format(Weight(k // width - self.amax, k % width - self.bmax))


class RuleTable:
    """The compiled rules of one box as its classes and flat integer tables, shared, read-only.

    Class i is ``classes[i]``.  Rule r has label ``rule_ids[r]`` and the slots
    ``slots[first[r]:first[r + 1]]``: its parts, then its last slot, which it only
    reads (an implication's part, a string's class, a tensor twist's line, or zero).
    The rules with a slot on class c, once per slot and in rule order, are
    ``watch[offsets[c]:offsets[c + 1]]``.  Labels and skipped entries are formatted when read.
    """

    __slots__ = ("classes", "index", "seeds", "rule_ids", "first", "slots", "offsets", "watch",
                 "skipped")

    def __init__(self, classes: tuple, index: MappingProxyType, seeds: tuple[int, ...],
                 rule_ids: Entries, first: memoryview, slots: memoryview, offsets: memoryview,
                 watch: memoryview, skipped: Entries):
        self.classes, self.index, self.seeds, self.rule_ids = classes, index, seeds, rule_ids
        self.first, self.slots, self.offsets, self.watch = first, slots, offsets, watch
        self.skipped = skipped

    def __len__(self) -> int:
        return len(self.rule_ids)

    def id_of(self, c: ClassId) -> int | None:
        """Id of class c, or None if no rule of the box mentions it."""
        return self.index.get(c)

    def slots_of(self, r: int) -> memoryview:
        return self.slots[self.first[r]:self.first[r + 1]]

    def premises(self, c: int, r: int) -> tuple[int, ...]:
        """Ids of the classes rule r used to learn class c: its other slots, in
        order; none for a seed."""
        return () if r < 0 else tuple(q for q in self.slots_of(r) if q != c)


def _key(w: tuple[int, int]) -> int:  # one to one on the weights (a, b) with |b| < 2 ** 15
    return w[0] * 65536 + w[1]


class _Builder:
    """Writes the rules of one box into table rows, a row of twists at a time.  Class 0 is
    zero, class 1 + k the line of weight (a, b) in grid cell k = (a + amax) * width + b
    + bmax, and string classes follow, made on first use.  Until ``freeze``, ``keys[i]``
    keys class i's (highest) weight; ``check`` compares keys read from a rule's part
    classes with its total's."""

    def __init__(self, parabolic: ParabolicId, amax: int, bmax: int):
        self.parabolic, self.amax, self.bmax, self.width = parabolic, amax, bmax, 2 * bmax + 1
        cells = [Weight(a, bb) for a in range(-amax, amax + 1) for bb in range(-bmax, bmax + 1)]
        self.classes, self.keys = [ZERO_CLASS, *map(line_class, cells)], [0, *map(_key, cells)]
        self.index = dict(zip(self.classes, range(len(self.classes))))
        self.line_ids, self.cells = range(1, len(self.classes)), len(cells)
        self.rule_ids, self.skipped = (Entries(array("i"), amax, bmax) for _ in range(2))
        self.first, self.slots = array("i", [0]), array("i")
        self.step = self.line(*parabolic.simple_root.weight) - self.line(0, 0)
        lines, strings = ((SHORT_SEED_LINES, SHORT_SEED_STRINGS) if parabolic is ParabolicId.SHORT
                          else (LONG_SEED_LINES, LONG_SEED_STRINGS))
        self.seeds = tuple([self.cid(line_class(nu)) for nu in lines]
                           + [self.cid(pstring_class(parabolic, lam)) for lam in strings])

    def cid(self, c: ClassId) -> int:
        i = self.index.get(c)
        if i is None:
            i = self.index[c] = len(self.classes)
            self.classes.append(c)
            self.keys.append(_key(c[1]))
        return i

    def line(self, a: int, b: int) -> int:
        return 1 + (a + self.amax) * self.width + b + self.bmax

    def code(self, kind: int, i: int) -> int:
        """Code of the label or skipped entry of that kind at the twist of line i."""
        return kind * self.cells + i - 1

    def at(self, i: int) -> int:
        """Id of the string class whose highest weight is line i's, made on first use."""
        return self.cid(("pstring", self.classes[i][1]))

    def line_keys(self, ids: range) -> list[int] | None:
        """Keys of the classes ids (a range, not empty) in order, or None unless all are lines."""
        ok = ids[0] in self.line_ids and ids[-1] in self.line_ids
        return self.keys[ids.start:ids.stop if ids.stop >= 0 else None:ids.step] if ok else None

    def string_keys(self, c: int) -> range:
        """Keys of the weights of string class c, highest first."""
        k, step = self.keys[c], _key(self.parabolic.simple_root.weight)
        return range(k, k - (self.parabolic.pair(self.classes[c][1]) + 1) * step, -step)

    def check(self, codes: range, got, want) -> None:
        """Exact character additivity: the keys ``got`` read from the parts of the rules
        labelled ``codes`` are ``want``.  Their names are formatted only if it fails."""
        if got != want:
            names = " .. ".join(map(self.rule_ids.name, sorted({codes[0], codes[-1]})))
            raise ValueError(f"rule {names}: character additivity fails")

    def extend(self, labels, rules) -> None:
        """Append rules by their label codes and slots, skipping None entries of both."""
        rules = [*filter(None, rules)]
        self.rule_ids.codes.extend(c for c in labels if c is not None)
        self.first.extend(accumulate(map(len, rules), initial=self.first.pop()))
        self.slots.extend(chain.from_iterable(rules))

    def filtration(self, code: int, parts: list[int], last: int, total: list[int]) -> list:
        """The slots of a rule of two or more parts and then ``last``, their total or a class
        standing for it, which the rule only reads; exact character additivity is
        mandatory.  ``total`` is the character as sorted keys; each part's is read from its
        class: a line's key, or a string's weights' keys."""
        keys, classes, got = self.keys, self.classes, []
        for c in parts:
            got += (keys[c],) if classes[c][0] == "line" else self.string_keys(c)
        self.check(range(code, code + 1), sorted(got), total)
        if len(parts) < 2:
            raise ValueError(f"rule {self.rule_ids.name(code)}: a filtration needs two parts")
        return parts + [last]

    def freeze(self) -> RuleTable:
        """The table, freeing the keys.  Its watch index is a counting sort of the
        (slot, rule) pairs by class, in one pass over them: each class's rules in order."""
        self.keys = None
        slots, first = self.slots, self.first
        count = [0] * len(self.classes)
        for q in slots:
            count[q] += 1
        offsets = array("i", accumulate(count, initial=0))
        fill, watch = offsets.tolist(), array("i", [0]) * offsets[-1]
        owners = chain.from_iterable(map(repeat, range(len(first) - 1),
                                         map(sub, first[1:], first[:-1])))
        for q, r in zip(slots, owners):
            watch[fill[q]] = r
            fill[q] += 1
        ro = lambda a: memoryview(a).toreadonly()  # noqa: E731
        return RuleTable(tuple(self.classes), MappingProxyType(self.index), self.seeds,
                         self.rule_ids, ro(first), ro(slots), ro(offsets), ro(watch), self.skipped)


class KnowledgeBase:
    """One closure's state over a shared rule table.

    ``flags[i]`` is 1 once class i is known; ``log`` holds the learned facts
    in order as (class id, rule index) pairs, rule index -1 for a seed.  ``known``
    is a snapshot of the known classes, read from the flags when it is called."""

    def __init__(self, rules: RuleTable, flags: bytearray, log: array):
        self.rules, self.flags, self.log = rules, flags, log

    @property
    def known(self) -> frozenset:
        return frozenset(compress(self.rules.classes, self.flags))

    def _fact(self, c: int, r: int) -> str:
        t = self.rules
        prem = " ".join(class_str(t.classes[q]) for q in t.premises(c, r))
        return f"{class_str(t.classes[c])} <- {'seed' if r < 0 else t.rule_ids[r]} [{prem}]"

    def audit_log(self) -> str:
        return "\n".join(map(self._fact, self.log[0::2], self.log[1::2]))

    def replay(self) -> bool:
        """Check that every seed fact names a seed, that every derivation learns a
        class filling one slot of its rule, not the last, and that it uses only classes
        derived strictly earlier."""
        t, log = self.rules, self.log
        seeds, learned = set(t.seeds), log[0::2]
        pos = array("i", [-1]) * len(t.classes)
        for i, c in enumerate(learned):
            pos[c] = i
        for i, (c, r) in enumerate(zip(learned, log[1::2])):
            if r < 0:
                if c not in seeds:
                    return False
                continue
            rule = t.slots_of(r).tolist()
            if rule.count(c) != 1 or rule[-1] == c:
                return False
            # the premises of (c, r), as in RuleTable.premises, walked inline: calling it
            # made replay about 2.4x slower; zero is always known
            for q in rule:
                if q > ZERO_ID and q != c and not 0 <= pos[q] < i:
                    return False
        return True

    def chain(self, c: ClassId) -> list[str]:
        """Derivation steps reaching c, in dependency order."""
        t, log = self.rules, self.log
        rule_of = dict(zip(log[0::2], log[1::2]))
        seen, steps = set(), []

        def visit(x: int) -> None:
            if x in seen or x not in rule_of:
                return
            seen.add(x)
            for q in t.premises(x, rule_of[x]):
                visit(q)
            steps.append(x)

        visit(t.id_of(c))  # None, for a class no rule mentions, is not in rule_of
        return [self._fact(x, rule_of[x]) for x in steps]


@functools.lru_cache(maxsize=None)
def _tensor_template(generator: Weight, parabolic: ParabolicId, amax: int, bmax: int) -> tuple:
    """A generator's tensor rules in a box at twist 0, which twist nu moves by nu: the grid
    offsets of its weights, sorted with multiplicity, and the twists (ranges of a and b)
    keeping them in the box; its string atoms as (kind, offset), and theirs; its keys."""
    def fit(ws: list) -> tuple[range, ...]:
        return tuple(range(-m - min(x), m - max(x) + 1) for x, m in zip(zip(*ws), (amax, bmax)))

    width, gch = 2 * bmax + 1, weyl_character(generator).mult
    lines = [mu for mu in sorted(gch) for _ in range(gch[mu])]
    if len(lines) < 2:
        raise ValueError(f"rule wtfilt{generator}: a filtration needs two parts")
    highs = [s.highest for s in restrict_to_P(generator, parabolic).atoms]
    return (tuple(a * width + b for a, b in lines), fit(lines),
            tuple((pstring_class(parabolic, h)[0], h.a * width + h.b) for h in highs), fit(highs),
            tuple(sorted(map(_key, lines))))


def _string_line_rules(b: _Builder) -> None:
    par, amax, bmax, step = b.parabolic, b.amax, b.bmax, b.step
    (aa, ab), p1 = par.simple_root.weight, par.pair(W2)
    for a in range(-amax, amax + 1):
        labels, rules, p0 = [], [], par.pair(Weight(a, 0))
        for bb in range(-bmax, bmax + 1):
            if (r := p0 + bb * p1) <= 0:  # the pairing is linear
                continue
            hi = b.line(a, bb)
            if not (-amax <= a - r * aa <= amax and -bmax <= bb - r * ab <= bmax):
                b.skipped.codes.append(b.code(LAYER, hi))  # the box is convex
                continue
            ids, s, code = range(hi, hi - (r + 1) * step, -step), b.at(hi), b.code(BFILT, hi)
            b.check(range(code, code + 1), b.line_keys(ids), list(b.string_keys(s)))
            labels += code, b.code(PUSH, hi), b.code(PULL, hi)
            rules += (*ids, s), (hi, s), (s, hi)
        b.extend(labels, rules)


def _tensor_row(b: _Builder, a: int) -> None:
    """The tensor rules of the twists in row a, twist by twist, W1's before W2's and a weight
    filtration before a string filtration.  A generator's weight filtrations are one column
    of line ids per template offset, each checked against its weight's keys."""
    bmax, size, row = b.bmax, 4 * b.width, b.line(a, -b.bmax)
    rules, labels, skipped = [None] * size, [None] * size, [None] * size
    p0, p1 = b.parabolic.pair(Weight(a, 0)), b.parabolic.pair(W2)
    for g, gen in enumerate((W1, W2)):
        offsets, fit, atoms, atoms_fit, keys = _tensor_template(gen, b.parabolic, b.amax, bmax)
        cols = fit[1] if a in fit[0] else range(-bmax, -bmax)
        lo, n, key0 = b.line(a, cols.start), len(cols), _key((a, cols.start))
        codes = range(b.code(TENSOR + 2 * g, lo), b.code(TENSOR + 2 * g, lo + n))
        columns = [range(lo + o, lo + o + n) for o in offsets if n]
        b.check(codes, list(map(b.line_keys, columns)),
                [list(range(key0 + k, key0 + k + n)) for k in keys if n])
        j = slice(4 * (cols.start + bmax) + 2 * g, 4 * (cols.stop + bmax) + 2 * g, 4)
        rules[j], labels[j] = zip(*columns, range(lo, lo + n)), codes
        skip = b.code(TENSOR_SKIPPED + 2 * g, row) + bmax
        skipped[2 * g::4] = [None if bb in cols else skip + bb for bb in range(-bmax, bmax + 1)]
        for bb in (bb for bb in range(-bmax, bmax + 1) if p0 + bb * p1 == 0):  # wall twists
            k, i, move = 4 * (bb + bmax) + 2 * g + 1, b.line(a, bb), _key((a, bb))
            if a in atoms_fit[0] and bb in atoms_fit[1]:
                labels[k] = b.code(TENSOR + 2 * g + 1, i)
                parts = [i + o if kind == "line" else b.at(i + o) for kind, o in atoms]
                rules[k] = b.filtration(labels[k], parts, i, [q + move for q in keys])
            else:
                skipped[k] = b.code(TENSOR_SKIPPED + 2 * g + 1, i)
    b.extend(labels, rules)
    b.skipped.codes.extend(c for c in skipped if c is not None)


@functools.cache
def _koszul_exact() -> None:
    """Check once that the Koszul complex is exact at character level: no box enters it."""
    v = weyl_character(W1)
    euler = sum((exterior_power(v, k).tensor(Character.line(W1.scaled(-k))).scaled((-1) ** k)
                 for k in range(8)), Character())
    if euler:
        raise ValueError("Koszul complex must be exact at character level")


def _add_koszul_rules(b: _Builder) -> None:
    """Length-eight exact complexes stepping by the first fundamental weight,
    one per twist in the box, written a row of twists at a time."""
    _koszul_exact()
    steps = [b.line(0, 0) - b.line(*W1.scaled(k)) for k in range(8)]
    for a in range(len(steps) - 1 - b.amax, b.amax + 1):  # twists whose terms lie in the box
        lo = b.line(a, -b.bmax)
        b.extend(range(b.code(KOSZUL, lo), b.code(KOSZUL, lo + b.width)),
                 zip(*(range(lo + s, lo + s + b.width) for s in steps), repeat(ZERO_ID)))


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
        _tensor_row(b, a)
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

    A rule is ready when exactly one of its slots is unknown, a class counting once per
    slot it fills, and then learns that slot unless it is the rule's last.
    The worklist is a stack of ready rules, first in rule order or the rng's shuffle
    of it; the rules a newly learned class makes ready are pushed in worklist-position
    order."""
    t = kb.rules
    first, slots, offsets, watch = t.first, t.slots, t.offsets, t.watch
    known, learn = kb.flags, kb.log.extend
    missing = list(map(sub, first[1:], first[:-1]))  # unknown slots per rule: all ...
    for c in compress(range(len(known)), known):  # ... but those on known classes
        for r in watch[offsets[c]:offsets[c + 1]]:
            missing[r] -= 1
    order, position = list(range(len(t))), None
    if rng is not None:
        rng.shuffle(order)
        position = [0] * len(order)
        for pos, r in enumerate(order):
            position[r] = pos
    work = [r for r in order if missing[r] == 1]
    pop, extend = work.pop, work.extend
    while work:
        r = pop()
        if missing[r] != 1:
            continue
        for new in slots[first[r]:first[r + 1] - 1]:  # its one unknown slot, if not the last
            if not known[new]:
                break
        else:
            continue
        known[new] = 1
        learn((new, r))
        ready = []
        for j in watch[offsets[new]:offsets[new + 1]]:
            missing[j] -= 1
            if missing[j] == 1:
                ready.append(j)
        if position is not None:
            ready.sort(key=position.__getitem__)
        extend(ready)
    return kb


class GenerationReport(NamedTuple):
    parabolic: ParabolicId
    targets: tuple[Weight, ...]
    reached: tuple[Weight, ...]
    unreached: tuple[Weight, ...]
    replay_ok: bool

    @classmethod
    def of(cls, parabolic: ParabolicId, targets: tuple[Weight, ...],
           kb: KnowledgeBase) -> "GenerationReport":
        """Which target line classes a closed knowledge base reached, and its replay."""
        ids = [kb.rules.id_of(line_class(w)) for w in targets]  # None: outside the box
        reached = tuple(w for w, i in zip(targets, ids) if i is not None and kb.flags[i])
        unreached = tuple(w for w, i in zip(targets, ids) if i is None or not kb.flags[i])
        return cls(parabolic, tuple(targets), reached, unreached, kb.replay())

    @property
    def complete(self) -> bool:
        return not self.unreached and self.replay_ok

    passed = complete  # the verdict name every report shares

    def to_json(self) -> dict:
        return {
            "parabolic": self.parabolic.name.lower(),
            "targets": len(self.targets),
            "reached": len(self.reached),
            "unreached": [[w.a, w.b] for w in self.unreached],
            "replay_ok": self.replay_ok,
            "complete": self.complete,
            "passed": self.passed,
        }

    def to_text(self) -> str:
        lines = [f"Karoubian generation ({self.parabolic.name.lower()} root): "
                 f"{len(self.reached)}/{len(self.targets)} targets reached"]
        lines += [f"  UNREACHED: L{w}" for w in self.unreached]
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
