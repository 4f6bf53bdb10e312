import hashlib
import random
import re
import tracemalloc
from collections.abc import Sequence
from itertools import accumulate, chain

import pytest

from g2bwb import karoubi
from g2bwb.charring import Character, FilteredPModule, PString, restrict_to_P, weyl_character
from g2bwb.rootdata import ParabolicId, Weight, ZERO, W1, W2
from g2bwb.karoubi import (
    GenerationReport,
    _add_koszul_rules,
    _Builder,
    _string_line_rules,
    _tensor_row,
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
    # row 0 of a short box is all wall twists: each has weight and string filtrations
    b = _Builder(SHORT, 8, 8)
    _tensor_row(b, 0)
    labels = b.freeze().rule_ids
    # twist by twist, W1 before W2 (which fits from b = -6 on), wtfilt before strfilt
    assert labels[:6] == ("wtfilt(1,0)@(0,-7)", "strfilt(1,0)@(0,-7)", "wtfilt(1,0)@(0,-6)",
                          "strfilt(1,0)@(0,-6)", "wtfilt(0,1)@(0,-6)", "strfilt(0,1)@(0,-6)")
    assert {"wtfilt(0,1)@(0,-1)", "strfilt(0,1)@(0,-1)"} <= set(labels)


def test_closure_monotone_idempotent():
    kb = seed(SHORT, amax=10, bmax=8)
    before = set(kb.known)
    close(kb)
    after = set(kb.known)
    assert before <= after
    close(kb)
    assert set(kb.known) == after


def test_known_is_a_snapshot():
    kb = seed(SHORT, amax=10, bmax=8)
    before = kb.known
    assert isinstance(before, frozenset) and len(before) == 10  # zero and the nine seeds
    close(kb)
    assert len(before) == 10 and before < kb.known


def test_generation_target_outside_the_box_is_unreached():
    rep, _ = verify_generation(SHORT, targets=(Weight(40, 0),))
    assert rep.unreached == (Weight(40, 0),) and not rep.reached
    assert not rep.complete and rep.replay_ok


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
    bogus = b.code(karoubi.BFILT, w1)
    with pytest.raises(ValueError, match=r"rule bfilt\(1,0\): character additivity"):
        b.filtration(bogus, [w1], zero, [karoubi._key(ZERO)])
    # a character that adds up still needs two parts
    with pytest.raises(ValueError, match="two parts"):
        b.filtration(bogus, [w1], zero, [karoubi._key(W1)])
    assert len(b.freeze()) == 0


@pytest.mark.parametrize("middle, learned", [(3, False), (6, True)], ids=["x-x-y", "x-z-y"])
def test_filtration_never_learns_a_class_filling_two_slots(middle, learned):
    # parts [x, x, y]: with y and the total known, x is still unknown in two slots
    b = _Builder(SHORT, 8, 8)
    x, z, y, total = (b.cid(line_class(Weight(k, k))) for k in (3, middle, 4, 5))
    for c in {z, y, total} - {x}:
        b.extend([b.code(karoubi.PULL, c)], [[c, b.seeds[0]]])
    code = b.code(karoubi.BFILT, x)
    b.extend([code], [b.filtration(code, [x, z, y], total,
                                   sorted(karoubi._key((k, k)) for k in (3, middle, 4)))])
    kb = close(karoubi._seeded(b.freeze()))
    assert kb.flags[y] and kb.flags[total] and kb.flags[x] == learned and kb.replay()
    if not learned:
        kb.flags[x] = 1
        kb.log.extend((x, len(kb.rules) - 1))  # the filtration, the last rule
        assert not kb.replay()


@pytest.mark.parametrize("parts", [2, 1], ids=["premise-last", "implication"])
def test_premise_last_rule_never_learns_its_last_slot(parts):
    # parts [x, y] (or [y]) and last slot z: with the parts known, z stays unknown
    b = _Builder(SHORT, 8, 8)
    x, y, z = (b.cid(line_class(Weight(k, k))) for k in (3, 4, 5))
    for c in (x, y):
        b.extend([b.code(karoubi.PULL, c)], [[c, b.seeds[0]]])
    b.extend([b.code(karoubi.BFILT, z)], [[x, y, z][-1 - parts:]])
    kb = close(karoubi._seeded(b.freeze()))
    assert kb.flags[x] and kb.flags[y] and not kb.flags[z] and kb.replay()
    kb.flags[z] = 1
    kb.log.extend((z, len(kb.rules) - 1))  # the rule [x, y, z], the last rule
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
            _tensor_row(b, 0)
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
    # a raise, not an assert, so the check also runs under python -O; the check is made
    # once per process, so its cache is cleared too
    karoubi._compiled.cache_clear()
    karoubi._koszul_exact.cache_clear()
    monkeypatch.setattr(karoubi, "exterior_power", lambda v, k: v)
    try:
        with pytest.raises(ValueError, match="Koszul"):
            seed(SHORT, 10, 8)
    finally:
        karoubi._compiled.cache_clear()
        karoubi._koszul_exact.cache_clear()


@pytest.mark.parametrize("parabolic, box", [(SHORT, (10, 8)), (LONG, (16, 12))])
def test_labels_and_skipped_entries_are_read_only_sequences(parabolic, box):
    # both are formatted on access from integer codes
    t = seed(parabolic, *box).rules
    for entries, n in ((t.rule_ids, len(t)), (t.skipped, len([*t.skipped]))):
        assert isinstance(entries, Sequence) and len(entries) == n > 0
        assert entries[1:4] == (entries[1], entries[2], entries[3])
        assert entries[-1] == entries[n - 1] == [*entries][-1]
        assert entries.index(entries[n // 2]) == n // 2
        with pytest.raises(IndexError):
            entries[n]
        with pytest.raises(TypeError):
            entries[0] = entries[1]
        with pytest.raises(ValueError):
            entries.index("xyz")


def test_compiled_table_retains_few_bytes_per_rule():
    # a table holds integer arrays and its classes, no string per rule; compiled afresh
    # through __wrapped__, once the character caches are warm from a small box
    karoubi._compiled.__wrapped__(SHORT, 10, 8)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        t = karoubi._compiled.__wrapped__(SHORT, 24, 20)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(t) == 7198
    assert retained < 200 * len(t), retained / len(t)


def _table_sha(t) -> str:
    """sha256 of a fixed serialization of every field of a compiled rule table, with its
    classes renumbered in order of first appearance in zero, the seeds and the slots in
    rule order, and its watch index read in that class order."""
    order = list(dict.fromkeys([karoubi.ZERO_ID, *t.seeds, *t.slots]))
    new = {c: i for i, c in enumerate(order)}
    readers = [t.watch[t.offsets[c]:t.offsets[c + 1]].tolist() for c in order]
    parts = ["\n".join(karoubi.class_str(t.classes[c]) for c in order)]
    parts += [",".join(map(str, x)) for x in (
        [new[c] for c in t.seeds], t.first, [new[c] for c in t.slots],
        accumulate(map(len, readers), initial=0), chain.from_iterable(readers))]
    parts += ["\n".join(t.rule_ids), "\n".join(t.skipped)]
    return hashlib.sha256("\n\n".join(parts).encode()).hexdigest()


# The whole compiled table of a box, pinned by its sha256 up to class numbering: classes
# in order of first use, rule slots and labels, seeds, the watch index and the skipped
# list.  Raw class ids are not first-use order: line (a, b) is grid cell
# 1 + (a + amax) * (2 * bmax + 1) + b + bmax, string classes follow.
@pytest.mark.parametrize("parabolic, box, digest", [
    (SHORT, (10, 8), "18bb3628675576601b06b410575282dc7e96912907feefe5fbc7ed5ae95cb021"),
    (LONG, (16, 12), "9217f999d67a415d764b56705f6d113ba7b887d971cf26ce95cad543f81b583c"),
    (SHORT, (24, 20), "1118fd5cd2114289caed98a6a22cf4b6bb628abc71a4140eaf65b13aacd7e02e"),
    (LONG, (24, 20), "e0735b0253497e5c2ef9712436f0f2b902083d1a8f828d3116e5651109181a93"),
    (SHORT, (32, 28), "40c36228ffe5192553ab03eb8224f90e081de70dc2d1442e6ca8bea35c0cc734"),
    (LONG, (32, 28), "9f150e4125f3179c031b6f3fa3639b1365333d7ba6c6cacc5b0a193445bc814f"),
], ids=["short-10-8", "long-16-12", "short-24-20", "long-24-20", "short-32-28", "long-32-28"])
def test_rule_table_golden(parabolic, box, digest):
    t = seed(parabolic, *box).rules
    assert _table_sha(t) == digest
    amax, bmax = box
    for a in range(-amax, amax + 1):
        for b in range(-bmax, bmax + 1):
            assert t.id_of(line_class(Weight(a, b))) == 1 + (a + amax) * (2 * bmax + 1) + b + bmax
    # every class is a seed or fills a slot, so renumbering hides no unused class
    assert set(t.seeds) | set(t.slots) | {karoubi.ZERO_ID} == set(range(len(t.classes)))


# The derivation order of every box report karoubi accepts, pinned by its sha256.
_AUDIT_LOGS = {
    SHORT: {
        10: "c85e5dbd417a50f5f4b6658d7cac500a16077c15d02367aacd959216d3d7be9c",
        11: "5ea6da60f9f5f012830ac75e2502fa97f2cf63b7377b9a10f790e0a756bf05b4",
        12: "9621c8f8786332a8bf35d5493b38477314972184b6c16f6ec5c6374ac873995f",
        13: "993c2db582de313ad678b6103c8bccd0885c028b0adf34a8e6f1f95458c46193",
        14: "92f3c934adf2ae049db769e0c467521c0928c184266d8253f6df5e7949706a6a",
        15: "762fbf865ee1bfc6cc76516267ac87aadd17d170df42ad5c9ed323aa2550bbe0",
        16: "6430cd819c326b953ba71c2e8b9fc807cc67e997b9ff68c175f689c08cd00d43",
        17: "d0b980f06aeaaee3448720bcc1199ede1e4e19176d04c096bff28451449ad40b",
        18: "a541ab41a624912267c49d88dcd91aa8160cc368dacc7491f70540c691bb780b",
        19: "022ebce6f93c8e43b948bd0f5ea26556953eb44606a605455160d3ab78b20477",
        20: "224432d0254c6140bbc460009910ba4940824e39145ab24060073a7b4d72d9ad",
        21: "1f261b71193aab6dd436768520d451e85f8c9b207dbc33bb51f4efb4529310d8",
        22: "8206fdb38a22530629a28a74493ae27ea7020088a36de5aa2018931e97e14658",
        23: "7ccc55347729f77eb92c7c9866b10863d9dee6ff4fb9b8364d67ae73c02f0643",
        24: "30eca865c4e8dc09d2d8cac1a97374b37a1602a56df1aa4ed177949ed601351b",
        25: "f85fb20773133f27f611b5a6046b63209d76d4cc89538cd91392819d72b04d9a",
        26: "4c43293b83e0eb999ca5427e1147f32f0839c6537488183e7ed2db14b855ee25",
        27: "9250506517b8dc2a1571e060272af65971fa94da44b4ff8a80b4499bc8109c7c",
        28: "dd878996fcc740cbfddb3cf1d72628c7f9918d9f9cbb4b6d11fba6e84e4e1752",
        29: "0fdf6ff60a08155c1b9df0feea27ac45e591fd4c768cb0528e8c951906de0c75",
        30: "5d9bed71b027694da61bc6fcd240fe7484344071f3233fd5cc15efc020d05571",
        31: "676bf8f8140c75e16275634b3d5d022bb93173a67ad182692410d14d2b5161a1",
        32: "29e331464a706f7cbd7cf9940f4ba6053c1dc5469ceee91846d2164723be28b1",
    },
    LONG: {
        12: "587301272f108c7f9c76dd571b8da50f9ac7a52e08293f28ad66c9fae073b8d6",
        13: "1ea76a771390f24d3d9d31ca26e98ca673d9abc4d4582e01976f46f2e1b46899",
        14: "1d10b50fd4f27d4174d977eef4e7c1cf3d846027fef7c0b566d1bace392228e0",
        15: "53ff1d0504b417f71b3f27b2d8ab955e80c8110b44ccf3616e3f662fb5f09c99",
        16: "7bf958bfb365a68c1e08dd6c7fb3e7cb38b1710c34906e23181e5a5070bece58",
        17: "01d07183563fa81ea7a9f2a9b446d1b2db44c6e7d795b34cae291a81cfe60a51",
        18: "13f79d1bfafc06ca1da25637c577ca1b2c6d1f5bf7735a175782d448cf195f3d",
        19: "798f49b1cba5eb4f22cf305a8487444e7facd8c49b37fb520c5dfb5d9ce72596",
        20: "8b717df0f816cd24f65c19df39d4721406a3344155262f278269b62cb7fd8f4b",
        21: "199481a65ff7e5e03f93354503e24b7a1c23feecb17e4b2340ab82445c512d5f",
        22: "f79413011f361261db0713d4e3625fb8af8df83b3755e4816bb055fcd3533f61",
        23: "516b909bc138d1b08dc8016d2f46807616f9c3c8d28ba1af4d2c8f59c58d3490",
        24: "1a5050ecd7c6a860fed02d9635fad4fe6a4ed5e0c8c34dc12eec233d2e5e29f9",
        25: "f16616f3a93564e67f8b1afa95eac593084992dddbe91913f7424b114df22054",
        26: "bb1011fdf8a3147add451946b8a21b00b6b31ba3dfdcabb90189d2da5a1794e3",
        27: "68aa85b714d0ff8856e94090a230d96eb3eafabecc82fd8039d4a40a0fcbb79a",
        28: "13989c9323fe38cac0f54e396890ca28f308f382bca62867c88085a9d007dc26",
        29: "cfd979ed28407c6f65804c01916d59750963c2431edadc1dd5d53f742431f475",
        30: "9a3402fd1ddb10dc81b7898b6d77f12a1b387c4bcca5a5b7f2f7e9b8fed07f1e",
        31: "1cca467b5deae239f5a59f1fd3a9e5cdd1f19d33b45d53108c76587b0bb73e39",
        32: "978902fda9708c804a0fdc31f1171ab23253f69a5cc8d53a0378d0db9a659590",
    },
}


def test_audit_log_at_every_accepted_box():
    # the box of report karoubi --box n; each table is dropped after its box, so the 44
    # tables (about 60 MB) are never cached together
    for parabolic, digests in _AUDIT_LOGS.items():
        for n, digest in digests.items():
            karoubi._compiled.cache_clear()
            assert _audit_sha(close(seed(parabolic, n, max(12, n - 4)))) == digest, (parabolic, n)
    karoubi._compiled.cache_clear()


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


def _wider_twist_columns(monkeypatch):
    # a template whose b-range of twists is one wider: a row's column runs into the next
    # grid row
    template = karoubi._tensor_template

    def wider(*args):
        offsets, fit, *rest = template(*args)
        return offsets, (fit[0], range(fit[1].start, fit[1].stop + 1)), *rest

    monkeypatch.setattr(karoubi, "_tensor_template", wider)


def _string_step_one_cell_off(monkeypatch):
    init = karoubi._Builder.__init__

    def off(self, *args):
        init(self, *args)
        self.step += 1

    monkeypatch.setattr(karoubi._Builder, "__init__", off)


@pytest.mark.parametrize("mutate, rule", [(_wider_twist_columns, "wtfilt"),
                                          (_string_step_one_cell_off, "bfilt")],
                         ids=["template-b-range-one-wider", "string-step-one-cell-off"])
def test_additivity_check_reads_each_grid_line(monkeypatch, mutate, rule):
    # line ids are computed from grid cells; only the classes' keys show a wrong cell
    mutate(monkeypatch)
    karoubi._compiled.cache_clear()
    try:
        with pytest.raises(ValueError, match=f"rule {rule}.*additivity"):
            seed(SHORT, 10, 8)
    finally:
        karoubi._compiled.cache_clear()


def test_grid_check_reads_only_line_classes():
    # zero and each string share their key with a line, so a column of ids reaching them
    # must fail on the class, not on the key
    b = _Builder(SHORT, 10, 8)
    s = b.seeds[-1]
    hi = b.line(*b.classes[s][1])
    assert b.classes[s][0] == "pstring" and b.keys[s] == b.keys[hi]
    assert b.keys[karoubi.ZERO_ID] == b.keys[b.line(0, 0)]
    assert b.line_keys(range(hi, hi + 1)) == [b.keys[hi]]
    for ids in (range(0, 1), range(s, s + 1), range(-1, 2), range(hi, s + 1, s - hi)):
        assert b.line_keys(ids) is None


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
