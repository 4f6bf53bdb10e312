"""Fixpoint engine for Karoubian generation by the exceptional collections.

Membership of a class in the generated triangulated subcategory is tracked
purely combinatorially.  Classes are line bundles on the full flag variety,
pulled-back parabolic strings, or synthetic totals; rules encode

* the B-weight filtration of a string (knowing all layers but one and the
  total yields the last layer),
* the pushforward correspondence between a string class and its highest
  line,
* tensoring a known line by one of the two fundamental G-modules, with
  either the weight filtration or, for twists trivial on the Levi, the
  string filtration of the product,
* the length-eight Koszul complex stepping through consecutive multiples
  of the first fundamental weight.

Every multi-layer rule is compiled into two-term triangle rules through
synthetic truncation classes, so a single two-out-of-three inference drives
the whole closure.  Filtration rules are admitted only after an exact
character-additivity check.  The rules of a box depend only on
(parabolic, amax, bmax), so each rule set is compiled and checked once per
box and shared by every closure over it; a knowledge base holds its own
copies of the rule and skip lists.  The closure is a worklist saturation
whose result is independent of rule order; derivations are logged and
replayable.
"""

from __future__ import annotations

import functools
import random
from collections import defaultdict
from dataclasses import dataclass, field

from .rootdata import W1, W2, ZERO, ParabolicId, Weight
from .charring import (
    Character,
    PString,
    exterior_power,
    pstring_character,
    restrict_to_P,
    weyl_character,
)

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


@dataclass(frozen=True, slots=True)
class TriRule:
    """Two-term triangle: total is an extension of the two parts."""

    rule_id: str
    total: ClassId
    parts: tuple[ClassId, ...]


@dataclass(frozen=True, slots=True)
class ImplRule:
    """One-directional membership implication."""

    rule_id: str
    src: ClassId
    dst: ClassId


Rule = TriRule | ImplRule


@dataclass
class KnowledgeBase:
    parabolic: ParabolicId
    amax: int
    bmax: int
    known: set[ClassId] = field(default_factory=set)
    rules: list[Rule] = field(default_factory=list)
    derivations: dict[ClassId, tuple[str, tuple[ClassId, ...]]] = field(default_factory=dict)
    order: dict[ClassId, int] = field(default_factory=dict)
    skipped: list[str] = field(default_factory=list)
    _counter: int = 0

    def in_box(self, nu: Weight) -> bool:
        return abs(nu.a) <= self.amax and abs(nu.b) <= self.bmax

    def learn(self, c: ClassId, rule_id: str, premises: tuple[ClassId, ...]) -> bool:
        if c in self.known:
            return False
        self.known.add(c)
        self.derivations[c] = (rule_id, premises)
        self.order[c] = self._counter
        self._counter += 1
        return True

    def add_filtration(self, rule_id: str, total: ClassId,
                       parts: list[ClassId], total_char: Character,
                       part_chars: list[Character]) -> None:
        """Admit a filtration rule; exact character additivity is mandatory."""
        acc: dict[Weight, int] = {}
        for ch in part_chars:
            for k, v in ch.mult.items():
                acc[k] = acc.get(k, 0) + v
        if Character(acc) != total_char:
            raise ValueError(f"rule {rule_id}: character additivity fails")
        if len(parts) == 1:
            self.rules.append(TriRule(rule_id, total, (parts[0],)))
            return
        prev = parts[0]
        for k in range(1, len(parts)):
            tk: ClassId = total if k == len(parts) - 1 else ("trunc", rule_id, k)
            self.rules.append(TriRule(f"{rule_id}#{k}", tk, (prev, parts[k])))
            prev = tk

    def audit_log(self) -> str:
        lines = []
        for c, (rid, prem) in sorted(self.derivations.items(), key=lambda kv: self.order[kv[0]]):
            ps = " ".join(class_str(p) for p in prem)
            lines.append(f"{class_str(c)} <- {rid} [{ps}]")
        return "\n".join(lines)

    def replay(self) -> bool:
        """Check every derivation only uses classes derived strictly earlier."""
        for c, (rid, prem) in self.derivations.items():
            for q in prem:
                if q == ZERO_CLASS:
                    continue
                if q not in self.order or self.order[q] >= self.order[c]:
                    return False
        return True

    def chain(self, c: ClassId) -> list[str]:
        """Derivation steps reaching c, in dependency order."""
        seen: set[ClassId] = set()
        steps: list[ClassId] = []

        def visit(x: ClassId) -> None:
            if x in seen or x not in self.derivations:
                return
            seen.add(x)
            _, prem = self.derivations[x]
            for q in prem:
                visit(q)
            steps.append(x)

        visit(c)
        return [
            f"{class_str(x)} <- {self.derivations[x][0]} "
            f"[{' '.join(class_str(q) for q in self.derivations[x][1])}]"
            for x in steps
        ]


def _string_line_rules(kb: KnowledgeBase) -> None:
    par = kb.parabolic
    alpha = par.simple_root.weight
    for a in range(-kb.amax, kb.amax + 1):
        for b in range(-kb.bmax, kb.bmax + 1):
            lam = Weight(a, b)
            r = par.pair(lam)
            if r <= 0:
                continue
            s = PString(par, lam)
            lines = [lam - alpha.scaled(k) for k in range(r + 1)]
            if not all(kb.in_box(nu) for nu in lines):
                kb.skipped.append(f"string {lam}: layer outside box")
                continue
            kb.add_filtration(
                f"bfilt{lam}",
                pstring_class(par, lam),
                [line_class(nu) for nu in lines],
                pstring_character(s),
                [Character.line(nu) for nu in lines],
            )
            kb.rules.append(ImplRule(f"push{lam}", pstring_class(par, lam), line_class(lam)))
            kb.rules.append(ImplRule(f"pull{lam}", line_class(lam), pstring_class(par, lam)))


def _add_tensor_rules(kb: KnowledgeBase, generator: Weight, nu: Weight) -> None:
    if generator not in (W1, W2):
        raise ValueError("generator must be one of the two fundamental modules")
    par = kb.parabolic
    gch = weyl_character(generator)
    total: ClassId = ("total", "tensor", generator, nu)
    kb.rules.append(ImplRule(f"tensortotal{generator}@{nu}", line_class(nu), total))
    total_char = gch.tensor(Character.line(nu))

    lines = [mu + nu for mu in sorted(gch.mult) for _ in range(gch.mult[mu])]
    if all(kb.in_box(w) for w in lines):
        kb.add_filtration(
            f"wtfilt{generator}@{nu}", total, [line_class(w) for w in lines], total_char,
            [Character.line(w) for w in lines],
        )
    else:
        kb.skipped.append(f"tensor {generator}@{nu}: weight outside box")

    if par.pair(nu) == 0:
        atoms = restrict_to_P(generator, par).atoms
        highs = [s.highest + nu for s in atoms]
        if all(kb.in_box(h) for h in highs):
            kb.add_filtration(
                f"strfilt{generator}@{nu}", total,
                [pstring_class(par, h) for h in highs],
                total_char,
                [pstring_character(PString(par, h)) for h in highs],
            )
        else:
            kb.skipped.append(f"tensor strings {generator}@{nu}: atom outside box")


def add_koszul_rules(kb: KnowledgeBase, box=None) -> None:
    """Length-eight exact complexes stepping by the first fundamental weight,
    one per twist in the box (default: the whole universe)."""
    v = weyl_character(W1)
    euler = Character()
    for k in range(8):
        term = exterior_power(v, k).tensor(Character.line(W1.scaled(-k)))
        euler = euler + term.scaled((-1) ** k)
    if euler:
        raise ValueError("Koszul complex must be exact at character level")
    if box is None:
        box = [Weight(a, b)
               for a in range(-kb.amax, kb.amax + 1)
               for b in range(-kb.bmax, kb.bmax + 1)]
    steps = [W1.scaled(k) for k in range(8)]
    for nu in box:
        terms = [nu - s for s in steps]
        if not all(kb.in_box(t) for t in terms):
            continue
        rid = f"koszul{nu}"
        prev = line_class(terms[0])
        for k in range(1, 8):
            tk: ClassId = ZERO_CLASS if k == 7 else ("trunc", rid, k)
            kb.rules.append(TriRule(f"{rid}#{k}", tk, (prev, line_class(terms[k]))))
            prev = tk


SHORT_SEED_LINES = [Weight(0, 0), Weight(0, -1), Weight(1, -2), Weight(2, -2),
                    Weight(2, -3), Weight(0, -2)]
SHORT_SEED_STRINGS = [Weight(1, -2), Weight(2, -2), Weight(2, -3)]
LONG_SEED_LINES = [Weight(0, 0), Weight(-1, 0), Weight(-2, 0), Weight(-3, 0),
                   Weight(-4, 0)]
LONG_SEED_STRINGS = [Weight(-4, 1)]


@functools.lru_cache(maxsize=None)
def _compiled(parabolic: ParabolicId, amax: int,
              bmax: int) -> tuple[tuple[Rule, ...], tuple[str, ...]]:
    """The full rule set of a box and its skipped notes, built and checked once."""
    kb = KnowledgeBase(parabolic, amax, bmax)
    _string_line_rules(kb)
    for a in range(-amax, amax + 1):
        for b in range(-bmax, bmax + 1):
            for gen in (W1, W2):
                _add_tensor_rules(kb, gen, Weight(a, b))
    add_koszul_rules(kb)
    return tuple(kb.rules), tuple(kb.skipped)


def seed(parabolic: ParabolicId, amax: int = 16, bmax: int = 12) -> KnowledgeBase:
    """Knowledge base holding the starting classes and the full rule set."""
    rules, skipped = _compiled(parabolic, amax, bmax)
    kb = KnowledgeBase(parabolic, amax, bmax, rules=list(rules), skipped=list(skipped))
    kb.known.add(ZERO_CLASS)
    kb.order[ZERO_CLASS] = -1
    lines = SHORT_SEED_LINES if parabolic is ParabolicId.SHORT else LONG_SEED_LINES
    strings = SHORT_SEED_STRINGS if parabolic is ParabolicId.SHORT else LONG_SEED_STRINGS
    for nu in lines:
        kb.learn(line_class(nu), "seed", ())
    for lam in strings:
        kb.learn(pstring_class(parabolic, lam), "seed", ())
    return kb


def close(kb: KnowledgeBase, rng: random.Random | None = None) -> KnowledgeBase:
    """Saturate the inference rules; the fixpoint is order-independent."""
    rules = list(kb.rules)
    if rng is not None:
        rng.shuffle(rules)
    watch: dict[ClassId, list[int]] = defaultdict(list)
    for idx, rule in enumerate(rules):
        if type(rule) is ImplRule:
            watch[rule.src].append(idx)
        else:
            watch[rule.total].append(idx)
            for p in rule.parts:
                watch[p].append(idx)

    known, learn = kb.known, kb.learn
    queued = bytearray(b"\x01") * len(rules)
    work = list(range(len(rules)))
    while work:
        idx = work.pop()
        queued[idx] = 0
        rule = rules[idx]
        if type(rule) is ImplRule:
            if rule.src not in known:
                continue
            new, prem = rule.dst, (rule.src,)
        else:
            # all parts known: learn the total; exactly one part missing and
            # the total known: learn that part
            new, gaps = rule.total, 0
            for p in rule.parts:
                if p not in known:
                    new, gaps = p, gaps + 1
            if gaps == 0:
                prem = rule.parts
            elif gaps == 1 and rule.total in known:
                prem = (rule.total,) + tuple(p for p in rule.parts if p in known)
            else:
                continue
        if learn(new, rule.rule_id, prem):
            for j in watch.get(new, ()):
                if not queued[j]:
                    queued[j] = 1
                    work.append(j)
    return kb


@dataclass(frozen=True)
class GenerationReport:
    parabolic: ParabolicId
    targets: tuple[Weight, ...]
    reached: tuple[Weight, ...]
    unreached: tuple[Weight, ...]
    replay_ok: bool

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
    reached = tuple(w for w in targets if line_class(w) in kb.known)
    unreached = tuple(w for w in targets if line_class(w) not in kb.known)
    return GenerationReport(parabolic, tuple(targets), reached, unreached, kb.replay()), kb
