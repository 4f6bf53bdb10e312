import hashlib
import random
import re
from collections import Counter

import pytest

from g2bwb import karoubi
from g2bwb.charring import Character, FilteredPModule, PString, restrict_to_P, weyl_character
from g2bwb.rootdata import ParabolicId, Weight, ZERO, W1, W2
from g2bwb.karoubi import (
    GenerationReport,
    _add_koszul_rules,
    _add_tensor_rules,
    _Builder,
    _string_line_rules,
    close,
    default_targets,
    line_class,
    pstring_class,
    seed,
    verify_generation,
)

SHORT = ParabolicId.SHORT
LONG = ParabolicId.LONG


def test_seed_contents_short():
    kb = seed(SHORT)
    for nu in (ZERO, Weight(0, -1), Weight(1, -2), Weight(2, -2),
               Weight(2, -3), Weight(0, -2)):
        assert line_class(nu) in kb.known
    for lam in (Weight(1, -2), Weight(2, -2), Weight(2, -3)):
        assert pstring_class(SHORT, lam) in kb.known
    # nine starting classes plus the always-known zero object
    assert sum(1 for c in kb.known if c != ("zero",)) == 9


def test_seed_contents_long():
    kb = seed(LONG)
    for k in range(0, 5):
        assert line_class(Weight(-k, 0)) in kb.known
    assert pstring_class(LONG, Weight(-4, 1)) in kb.known


def test_pstring_class_canonical():
    assert pstring_class(SHORT, Weight(0, -3)) == line_class(Weight(0, -3))
    assert pstring_class(SHORT, Weight(2, -1))[0] == "pstring"
    with pytest.raises(ValueError):
        pstring_class(SHORT, Weight(-1, 0))


def test_closure_derives_first_consequences():
    kb = close(seed(SHORT))
    # from the B-filtrations of the seeded strings
    assert line_class(Weight(-1, -1)) in kb.known   # minus rho
    assert line_class(Weight(-2, 0)) in kb.known
    assert line_class(Weight(-2, -1)) in kb.known


def test_tensor_rule_parts():
    b = _Builder(SHORT, 8, 8)
    _add_tensor_rules(b, W1, Weight(0, -1))
    labels = set(b.freeze().rule_ids)
    assert any(rid.startswith("strfilt") for rid in labels)
    assert any(rid.startswith("wtfilt") for rid in labels)
    with pytest.raises(ValueError):
        _add_tensor_rules(b, Weight(2, 0), Weight(0, -1))


def test_closure_monotone_idempotent():
    kb = seed(SHORT, amax=10, bmax=8)
    before = set(kb.known)
    close(kb)
    after = set(kb.known)
    assert before <= after
    close(kb)
    assert set(kb.known) == after


def test_generation_short_default_box():
    rep, kb = verify_generation(SHORT)
    assert rep.complete
    assert len(rep.targets) == 21 * 11
    assert not rep.unreached
    assert kb.replay()


def test_generation_long_default_box():
    rep, kb = verify_generation(LONG)
    assert rep.complete
    assert len(rep.targets) == 19


def test_generation_trivial_box():
    rep, _ = verify_generation(SHORT, targets=(ZERO,))
    assert rep.complete


def test_schedule_independence_small():
    base, _ = verify_generation(SHORT, amax=12, bmax=10)
    known0 = None
    for i in range(3):
        rep, kb = verify_generation(SHORT, amax=12, bmax=10, rng=random.Random(i))
        assert rep.complete == base.complete
        if known0 is None:
            known0 = frozenset(kb.known)
        else:
            assert frozenset(kb.known) == known0


def test_audit_chain_replayable():
    rep, kb = verify_generation(LONG)
    target = line_class(Weight(-12, 0))
    chain = kb.chain(target)
    assert chain
    assert chain[-1].startswith("L(-12,0) <-")
    log = kb.audit_log()
    assert " <- " in log.splitlines()[0]


def test_character_guard_rejects_bad_rule():
    b = _Builder(SHORT, 8, 8)
    zero, w1 = b.cid(line_class(ZERO)), b.cid(line_class(W1))
    with pytest.raises(ValueError, match="additivity"):
        b.filtration("bogus", [w1], zero, {ZERO: 1})
    # a character that adds up still needs two parts
    with pytest.raises(ValueError, match="two parts"):
        b.filtration("bogus", [w1], zero, {W1: 1})
    assert len(b.freeze()) == 0


@pytest.mark.parametrize("middle, learned", [(3, False), (6, True)], ids=["x-x-y", "x-z-y"])
def test_filtration_never_learns_a_class_filling_two_slots(middle, learned):
    # parts [x, x, y]: with y and the total known, x is still unknown in two slots
    b = _Builder(SHORT, 8, 8)
    x, z, y, total = (b.cid(line_class(Weight(k, k))) for k in (3, middle, 4, 5))
    for c in {z, y, total} - {x}:
        b.add(f"from seed {c}", [c, b.seeds[0]])
    b.filtration("xzy", [x, z, y], total, Counter(Weight(k, k) for k in (3, middle, 4)))
    kb = close(karoubi._seeded(b.freeze()))
    assert kb.flags[y] and kb.flags[total] and kb.flags[x] == learned and kb.replay()
    if not learned:
        kb.flags[x] = 1
        kb.log.extend((x, kb.rules.rule_ids.index("xzy")))
        assert not kb.replay()


@pytest.mark.parametrize("parts", [2, 1], ids=["premise-last", "implication"])
def test_premise_last_rule_never_learns_its_last_slot(parts):
    # parts [x, y] (or [y]) and last slot z: with the parts known, z stays unknown
    b = _Builder(SHORT, 8, 8)
    x, y, z = (b.cid(line_class(Weight(k, k))) for k in (3, 4, 5))
    for c in (x, y):
        b.add(f"from seed {c}", [c, b.seeds[0]])
    b.add("xyz", [x, y, z][-1 - parts:])
    kb = close(karoubi._seeded(b.freeze()))
    assert kb.flags[x] and kb.flags[y] and not kb.flags[z] and kb.replay()
    kb.flags[z] = 1
    kb.log.extend((z, kb.rules.rule_ids.index("xyz")))
    assert not kb.replay()


def _two_out_of_three_known(t, rng=None) -> frozenset:
    """The classes known under the rules as two-term triangles.  A rule of one part is
    an implication, which learns its head from its last slot.  A rule of parts p0 .. pm
    and last slot L is a filtration of a fresh total T, which L implies: the triangles
    (t1; p0, p1), (t2; t1, p2), ..., (T; t(m-1), pm) through fresh truncation classes
    t1 .. t(m-1), saturated by two-out-of-three."""
    rules, n = [], len(t.classes)
    for r in range(len(t)):
        *parts, last = t.slots_of(r).tolist()
        if len(parts) == 1:
            rules.append((parts[0], last))
            continue
        rules.append((n, last))
        head, n = n, n + 1
        prev = parts[0]
        for k, q in enumerate(parts[1:], 1):
            h = head if k == len(parts) - 1 else n
            n += h == n
            rules.append((h, prev, q))
            prev = h
    known = bytearray(n)
    known[karoubi.ZERO_ID] = 1
    for s in t.seeds:
        known[s] = 1
    readers = [[] for _ in range(n)]
    for i, rule in enumerate(rules):
        for c in rule:
            readers[c].append(i)
    work = list(range(len(rules)))
    if rng is not None:
        rng.shuffle(work)
    while work:
        rule = rules[work.pop()]
        if len(rule) == 2:
            unknown = [rule[0]] if known[rule[1]] and not known[rule[0]] else []
        else:
            unknown = [c for c in rule if not known[c]]
        if len(unknown) == 1:
            known[unknown[0]] = 1
            work.extend(readers[unknown[0]])
    return frozenset(t.classes[i] for i in range(len(t.classes)) if known[i])


@pytest.mark.parametrize("parabolic, box", [(SHORT, (10, 8)), (LONG, (16, 12)),
                                            (SHORT, (16, 12)), (SHORT, (24, 20)),
                                            (LONG, (24, 20))])
def test_closure_matches_two_term_triangles(parabolic, box):
    t = seed(parabolic, *box).rules
    reference = _two_out_of_three_known(t)
    assert reference == _two_out_of_three_known(t, random.Random(7))
    assert frozenset(close(karoubi._seeded(t)).known) == reference
    for k in (0, 1):
        assert frozenset(close(karoubi._seeded(t), random.Random(k)).known) == reference


@pytest.mark.parametrize("parabolic, box", [(SHORT, (16, 12)), (LONG, (16, 12)),
                                            (SHORT, (24, 20))])
def test_close_from_a_base_that_knows_more_than_its_seeds(parabolic, box):
    # a fresh base knowing the first half of a closed base's learned facts: each rule's
    # unknown-slot count must start below its length by its slots on those classes
    t = seed(parabolic, *box).rules
    closed, kb = close(karoubi._seeded(t)), karoubi._seeded(t)
    half = closed.log[len(kb.log):len(kb.log) + len(closed.log) // 4 * 2]
    assert half and all(r >= 0 for r in half[1::2])
    for c in half[0::2]:
        kb.flags[c] = 1
    kb.log.extend(half)
    assert kb.replay() and len(kb.known) < len(closed.known)
    close(kb)
    assert frozenset(kb.known) == _two_out_of_three_known(t) == frozenset(closed.known)
    assert kb.replay()


def test_seed_copies_are_independent():
    # knowledge bases seeded from one box share its read-only rule table
    kb1, kb2 = seed(SHORT, 10, 8), seed(SHORT, 10, 8)
    assert kb1.rules is kb2.rules
    assert kb1.flags is not kb2.flags and kb1.log is not kb2.log
    with pytest.raises(AttributeError):
        kb1.rules.append(kb1.rules.rule_ids[0])
    with pytest.raises(TypeError):
        kb1.rules.slots[0] = 0
    known2, log2 = set(kb2.known), kb2.audit_log()
    close(kb1)
    assert len(kb1.known) > len(known2)
    assert set(kb2.known) == known2 and kb2.audit_log() == log2

    # one more tensor rule set derives a strict superset
    def closed_known(extra: bool) -> set:
        b = _Builder(SHORT, 10, 8)
        _string_line_rules(b)
        _add_koszul_rules(b)
        if extra:
            _add_tensor_rules(b, W1, Weight(0, -1))
        return set(close(karoubi._seeded(b.freeze())).known)

    assert closed_known(False) < closed_known(True)


def test_replay_rejects_a_fact_learned_before_its_premises():
    kb = close(seed(SHORT))
    assert kb.replay()
    # move the last learned fact to the front of the log, ahead of its premises
    last = kb.log[-2:]
    assert kb.rules.premises(*last)
    del kb.log[-2:]
    kb.log[0:0] = last
    assert not kb.replay()
    # every target is still reached, but the report fails on the replay
    rep = GenerationReport.of(SHORT, default_targets(SHORT), kb)
    assert not rep.unreached
    assert not rep.replay_ok and not rep.complete


@pytest.mark.parametrize("parabolic, box, state, cls, label", [
    # a filtration learns one of its slots: bfilt(1,-12) does not name L[P(1,12)] ...
    (SHORT, (), "closed", pstring_class(SHORT, Weight(1, 12)), "bfilt(1,-12)"),
    # ... an implication learns only its head, here the string, never its line ...
    (LONG, (), "seeded", line_class(Weight(-4, 1)), "pull(-4,1)"),
    # ... a tensor rule never learns its last slot, the twist's line, even
    # once every other class of the rule is known (the log cut just before the line) ...
    (SHORT, (10, 8), "cut", line_class(Weight(-2, -1)), "wtfilt(1,0)@(-2,-1)"),
    # ... and a seed fact names a seed
    (SHORT, (10, 8), "seeded", line_class(Weight(5, 5)), None),
], ids=["filtration", "implication", "tensor-line", "seed"])
def test_replay_rejects_a_fact_whose_rule_does_not_learn_its_class(parabolic, box, state, cls,
                                                                    label):
    kb = seed(parabolic, *box)
    if state != "seeded":
        close(kb)
    t = kb.rules
    c, r = t.id_of(cls), -1 if label is None else t.rule_ids.index(label)
    if state == "cut":
        assert t.slots_of(r)[-1] == c
        i = 2 * kb.log[0::2].index(c)
        for q in kb.log[i::2]:
            kb.flags[q] = 0
        del kb.log[i:]
    assert not kb.flags[c] and kb.replay()
    # every other class of the rule is known, so only the learned class is wrong
    assert all(kb.flags[q] for q in t.premises(c, r))
    kb.flags[c] = 1
    kb.log.extend((c, r))
    assert not kb.replay()
    assert not GenerationReport.of(parabolic, default_targets(parabolic), kb).complete


@pytest.mark.parametrize("parabolic, box", [(SHORT, (10, 8)), (LONG, (16, 12))])
def test_rule_labels_view(parabolic, box):
    t = seed(parabolic, *box).rules
    assert all(t.id_of(c) == i for i, c in enumerate(t.classes))
    assert {c[0] for c in t.classes} == {"zero", "line", "pstring"}
    assert t.id_of(("trunc", "bfilt(1,-12)", 1)) is None
    # one label per rule; an implication has its head and part, any other rule two or
    # more parts and its last slot
    labels = t.rule_ids
    assert len(set(labels)) == len(labels) == len(t) == len(t.first) - 1
    assert t.first[0] == 0 and t.first[-1] == len(t.slots) == len(t.watch)
    for r, label in enumerate(labels):
        slots = t.slots_of(r).tolist()
        name, *nums = re.split(r"[(),@]+", label.rstrip(")"))
        if name in ("push", "pull"):
            lam = Weight(*map(int, nums))
            pair = [line_class(lam), pstring_class(parabolic, lam)]
            assert [t.classes[q] for q in slots] == (pair if name == "push" else pair[::-1])
            continue
        assert len(slots) >= 3
        if name == "bfilt":
            last = pstring_class(parabolic, Weight(*map(int, nums)))
        elif name in ("wtfilt", "strfilt"):
            last = line_class(Weight(*map(int, nums[2:])))
        else:
            assert name == "koszul"
            last = karoubi.ZERO_CLASS
        assert t.classes[slots[-1]] == last
    # a weight filtration of W2 has its zero weight twice
    assert any(len(set(t.slots_of(r))) < len(t.slots_of(r)) for r in range(len(t)))
    # the watch index lists each rule once per slot it has on a class, in rule order
    for c in range(len(t.classes)):
        readers = t.watch[t.offsets[c]:t.offsets[c + 1]].tolist()
        assert readers == sorted(readers)
        assert all(t.slots_of(r).tolist().count(c) == readers.count(r) for r in set(readers))


@pytest.mark.parametrize("parabolic, box", [(SHORT, (16, 12)), (LONG, (16, 12)),
                                            (SHORT, (32, 28)), (LONG, (32, 28))])
def test_table_holds_the_premises_of_never_learning_a_last_slot(parabolic, box):
    # the karoubi docstring's argument that no rule needs to learn its last slot, read off
    # the table without closing it
    t = seed(parabolic, *box).rules
    rules = {label: t.slots_of(r).tolist() for r, label in enumerate(t.rule_ids)}
    bfilts = {}
    for label, slots in rules.items():
        if label.startswith("bfilt"):
            # a string's pull learns it from its highest line
            assert rules["pull" + label.removeprefix("bfilt")] == [slots[-1], slots[0]]
            bfilts[slots[-1]] = slots[:-1]
        elif label.startswith("koszul"):
            assert slots[-1] == karoubi.ZERO_ID

    def weights(q):
        kind, lam = t.classes[q]
        return [lam] if kind == "line" else PString(parabolic, lam).weights()

    # at a wall twist nu of W1, the string part through nu is L(nu) or has a filtration
    # whose lines are all weight parts
    walls = through_strings = 0
    for label, strings in rules.items():
        tag = label.removeprefix("strfilt")
        if tag == label or not tag.startswith(f"{W1}@") or "wtfilt" + tag not in rules:
            continue
        *parts, nu = rules["wtfilt" + tag]
        walls += 1
        (through,) = [q for q in strings[:-1] if t.classes[nu][1] in weights(q)]
        if through != nu:
            through_strings += 1
            assert set(bfilts[through]) <= set(parts)
    # on the long side every such string part is L(nu) itself
    assert walls and bool(through_strings) == (parabolic is SHORT)


def _audit_sha(kb) -> str:
    return hashlib.sha256(kb.audit_log().encode()).hexdigest()


# The derivation order that G2BWB_LOG prints, pinned by its sha256.
@pytest.mark.parametrize("parabolic, box, shuffle, digest", [
    (SHORT, (10, 8), None, "28038d71367b622eedab4b6eaba5c05e3b5247a69cfbb8bd45ae31ebf6c05416"),
    (LONG, (), None, "7bf958bfb365a68c1e08dd6c7fb3e7cb38b1710c34906e23181e5a5070bece58"),
    (SHORT, (10, 8), 0, "462626a3d29b98c0533ba152d4b53b515bab6b7837950d968fa5178dbaded610"),
    (SHORT, (24, 20), None, "30eca865c4e8dc09d2d8cac1a97374b37a1602a56df1aa4ed177949ed601351b"),
    (LONG, (24, 20), None, "1a5050ecd7c6a860fed02d9635fad4fe6a4ed5e0c8c34dc12eec233d2e5e29f9"),
    (SHORT, (), 1, "7a9bf178237c02ed2444b0e7b986f2716789e8555a10988d188756d81a4d2634"),
], ids=["short-10-8", "long", "short-10-8-shuffled", "short-24-20", "long-24-20",
        "short-shuffled"])
def test_audit_log_golden(parabolic, box, shuffle, digest):
    rng = None if shuffle is None else random.Random(shuffle)
    kb = close(seed(parabolic, *box), rng)
    assert kb.replay()
    assert _audit_sha(kb) == digest


@pytest.mark.parametrize("parabolic", [SHORT, LONG])
def test_seeds_match_collection_atoms(parabolic):
    # the hand-written seed lists repeat the atoms of the collection table
    from g2bwb.extcollection import builtin_collection

    coll, _ = builtin_collection(parabolic)
    highs = {s.highest for o in coll.values() for s in o.filtration.atoms}
    lines = {h for h in highs if parabolic.pair(h) == 0}
    short = parabolic is SHORT
    seed_lines = set(karoubi.SHORT_SEED_LINES if short else karoubi.LONG_SEED_LINES)
    seed_strings = set(karoubi.SHORT_SEED_STRINGS if short else karoubi.LONG_SEED_STRINGS)
    assert seed_strings == {h for h in highs if parabolic.pair(h) > 0}
    assert lines <= seed_lines <= highs


def test_koszul_check_rejects_wrong_exterior_power(monkeypatch):
    # a raise, not an assert, so the check also runs under python -O
    karoubi._compiled.cache_clear()
    monkeypatch.setattr(karoubi, "exterior_power", lambda v, k: v)
    try:
        with pytest.raises(ValueError, match="Koszul"):
            seed(SHORT, 10, 8)
    finally:
        karoubi._compiled.cache_clear()


def _table_sha(t) -> str:
    """sha256 of a fixed serialization of every field of a compiled rule table."""
    parts = ["\n".join(map(karoubi.class_str, t.classes))]
    parts += [",".join(map(str, x)) for x in (t.seeds, t.first, t.slots, t.offsets, t.watch)]
    parts += ["\n".join(t.rule_ids), "\n".join(t.skipped)]
    return hashlib.sha256("\n\n".join(parts).encode()).hexdigest()


# The whole compiled table of a box, pinned by its sha256: class ids and their
# order, rule slots and labels, seeds, the watch index and the skipped list.
@pytest.mark.parametrize("parabolic, box, digest", [
    (SHORT, (10, 8), "18bb3628675576601b06b410575282dc7e96912907feefe5fbc7ed5ae95cb021"),
    (LONG, (16, 12), "9217f999d67a415d764b56705f6d113ba7b887d971cf26ce95cad543f81b583c"),
    (SHORT, (24, 20), "1118fd5cd2114289caed98a6a22cf4b6bb628abc71a4140eaf65b13aacd7e02e"),
    (LONG, (24, 20), "e0735b0253497e5c2ef9712436f0f2b902083d1a8f828d3116e5651109181a93"),
    (SHORT, (32, 28), "40c36228ffe5192553ab03eb8224f90e081de70dc2d1442e6ca8bea35c0cc734"),
    (LONG, (32, 28), "9f150e4125f3179c031b6f3fa3639b1365333d7ba6c6cacc5b0a193445bc814f"),
], ids=["short-10-8", "long-16-12", "short-24-20", "long-24-20", "short-32-28", "long-32-28"])
def test_rule_table_golden(parabolic, box, digest):
    assert _table_sha(seed(parabolic, *box).rules) == digest


@pytest.mark.parametrize("generator, which, shift", [(W1, 0, 1), (W1, -1, -1), (W2, 0, 1),
                                                     (W2, -1, -1)],
                         ids=["w1-first-up", "w1-last-down", "w2-first-up", "w2-last-down"])
def test_additivity_check_reads_each_part_class(monkeypatch, generator, which, shift):
    # one grid offset of a template one cell off: the rule's slots are all classes of the
    # box, and only reading each part's class, not the template, shows the wrong one
    template = karoubi._tensor_template

    def one_cell_off(gen, *box):
        offsets, *rest = template(gen, *box)
        if gen == generator:
            offsets = list(offsets)
            offsets[which] += shift
        return offsets, *rest

    monkeypatch.setattr(karoubi, "_tensor_template", one_cell_off)
    karoubi._compiled.cache_clear()
    try:
        with pytest.raises(ValueError, match="additivity"):
            seed(SHORT, 10, 8)
    finally:
        karoubi._compiled.cache_clear()


def _drop_last_atom(lam, parabolic):
    m = restrict_to_P(lam, parabolic)
    return FilteredPModule(m.parabolic, m.atoms[:-1])


def _extra_weight(lam):
    ch = weyl_character(lam)
    return Character({**ch.mult, ZERO: ch.coeff(ZERO) + 1}) if lam == W2 else ch


@pytest.mark.parametrize("name, fake", [("restrict_to_P", _drop_last_atom),
                                        ("weyl_character", _extra_weight)])
def test_additivity_check_rejects_a_wrong_template(monkeypatch, name, fake):
    # the tensor rules of every twist come from one cached template per
    # generator; a wrong template must still fail the per-rule check
    monkeypatch.setattr(karoubi, name, fake)
    karoubi._compiled.cache_clear()
    karoubi._tensor_template.cache_clear()
    try:
        with pytest.raises(ValueError, match="additivity"):
            seed(SHORT, 10, 8)
    finally:
        karoubi._compiled.cache_clear()
        karoubi._tensor_template.cache_clear()
