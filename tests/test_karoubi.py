import hashlib
import random

import pytest

from g2bwb import karoubi
from g2bwb.charring import Character, FilteredPModule, restrict_to_P, weyl_character
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
    from g2bwb.charring import Character
    with pytest.raises(ValueError):
        b.add_filtration(
            "bogus", line_class(ZERO), [line_class(W1)], Character.line(ZERO),
        )


def test_seed_copies_are_independent():
    # knowledge bases seeded from one box share its read-only rule table
    kb1, kb2 = seed(SHORT, 10, 8), seed(SHORT, 10, 8)
    assert kb1.rules is kb2.rules
    assert kb1.flags is not kb2.flags and kb1.log is not kb2.log
    with pytest.raises(AttributeError):
        kb1.rules.append(kb1.rules.rule_ids[0])
    with pytest.raises(TypeError):
        kb1.rules.head[0] = 0
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


@pytest.mark.parametrize("parabolic, closed, cls, label", [
    # a triangle learns its head or a part: bfilt(1,-12)#1 names neither L[P(1,12)] ...
    (SHORT, True, pstring_class(SHORT, Weight(1, 12)), "bfilt(1,-12)#1"),
    # ... and an implication learns only its head, here the string, never its line
    (LONG, False, line_class(Weight(-4, 1)), "pull(-4,1)"),
], ids=["triangle", "implication"])
def test_replay_rejects_a_fact_whose_rule_does_not_learn_its_class(parabolic, closed, cls,
                                                                    label):
    kb = seed(parabolic)
    if closed:
        close(kb)
    t = kb.rules
    c, r = t.id_of(cls), t.rule_ids.index(label)
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
    labels = t.rule_ids
    assert all(t.id_of(t.class_of(i)) == i for i in range(len(t.classes)))
    assert len(list(labels)) == len(labels) == len(t)
    numbered = [g for g in range(len(labels.bases)) if labels.numbered[g]]
    single = [g for g in range(len(labels.bases)) if not labels.numbered[g]]
    assert numbered and single
    for g in (numbered[0], numbered[-1], single[0], single[-1]):
        for r in (labels.first[g], labels.first[g + 1] - 1):
            assert labels.index(labels[r]) == r
    # a triangle group of m rules has truncations 1 .. m - 1 only
    m, g = max((labels.first[g + 1] - labels.first[g], g) for g in numbered)
    assert m > 1
    base = labels.bases[g]
    assert labels[labels.first[g] + m - 1] == f"{base}#{m}"
    assert t.id_of(("trunc", base, m - 1)) is not None
    for k in (0, m, m + 1):
        assert t.id_of(("trunc", base, k)) is None
    assert t.id_of(("trunc", "nosuchrule", 1)) is None
    assert labels[-1] == labels[len(labels) - 1]


def _audit_sha(kb) -> str:
    return hashlib.sha256(kb.audit_log().encode()).hexdigest()


# The derivation order that G2BWB_LOG prints, pinned by its sha256.
@pytest.mark.parametrize("parabolic, box, shuffle, digest", [
    (SHORT, (10, 8), None, "13b220c04720c89e9e591eb0629924bf3c388855c0f172b576bc94d7b9e8fc0e"),
    (LONG, (), None, "8ca9da6088778c89e6bff9e7170f895eac6b1ae92d92cb46fed4676cfeac2c5f"),
    (SHORT, (10, 8), 0, "0266462ac75fe22d399ac5bfcd1eb7a24c9582347ab33d5465ab420bae0367d4"),
    (SHORT, (24, 20), None, "61fa139500acd3799271e0184d3f1de57d952168a5042089b3b7ec6d282e71c7"),
    (LONG, (24, 20), None, "92f9c3ff723be93718c6d098c90233f279ea4f94d776a757c5a5e66316d42346"),
    (SHORT, (), 1, "7a2288ef228dcd396916db15f21987cb419df5f64e1a7d6cd5d43c2159eaf334"),
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
    parts = ["\n".join(karoubi.class_str(t.class_of(i)) for i in range(len(t.classes)))]
    parts += [",".join(map(str, x)) for x in (t.seeds, t.kind, t.head, t.part0, t.part1,
                                               t.offsets, t.watch)]
    parts += ["\n".join(t.rule_ids), "\n".join(t.skipped)]
    return hashlib.sha256("\n\n".join(parts).encode()).hexdigest()


# The whole compiled table of a box, pinned by its sha256: class ids and their
# order, rule rows and labels, seeds, the watch index and the skipped list.
@pytest.mark.parametrize("parabolic, box, digest", [
    (SHORT, (10, 8), "0cf06f25bec7abf6a2a0110a2d3fc8687aa48938b8e71085ea2f57a5b3bd6cc6"),
    (LONG, (16, 12), "3db316c913cf37bdbc6947129d14b880449265d65603aede52bc5d8b9c36c293"),
    (SHORT, (24, 20), "81ca5034cf7b932df229b63e8ad0c7ef3e38088db34ee90b3226a5677457d247"),
], ids=["short-10-8", "long-16-12", "short-24-20"])
def test_rule_table_golden(parabolic, box, digest):
    assert _table_sha(seed(parabolic, *box).rules) == digest


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
