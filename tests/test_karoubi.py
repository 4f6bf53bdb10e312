import hashlib
import random

import pytest

from g2bwb import karoubi
from g2bwb.rootdata import ParabolicId, Weight, ZERO, W1
from g2bwb.karoubi import (
    KnowledgeBase,
    _add_tensor_rules,
    close,
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
    kb = KnowledgeBase(SHORT, 8, 8)
    kb.learn(line_class(Weight(0, -1)), "seed", ())
    _add_tensor_rules(kb, W1, Weight(0, -1))
    labels = {r.rule_id for r in kb.rules}
    assert any(rid.startswith("strfilt") for rid in labels)
    assert any(rid.startswith("wtfilt") for rid in labels)
    with pytest.raises(ValueError):
        _add_tensor_rules(kb, Weight(2, 0), Weight(0, -1))


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
    kb = KnowledgeBase(SHORT, 8, 8)
    from g2bwb.charring import Character
    with pytest.raises(ValueError):
        kb.add_filtration(
            "bogus", line_class(ZERO), [line_class(W1)],
            Character.line(ZERO), [Character.line(W1)],
        )


def test_seed_copies_are_independent():
    # seed hands out private copies of the rule set compiled for the box
    kb1, kb2 = seed(SHORT, 10, 8), seed(SHORT, 10, 8)
    assert kb1.rules == kb2.rules and kb1.skipped == kb2.skipped
    assert kb1.rules is not kb2.rules
    assert kb1.skipped is not kb2.skipped
    assert kb1.known is not kb2.known
    n_rules, n_skipped = len(kb2.rules), len(kb2.skipped)
    _add_tensor_rules(kb1, W1, ZERO)
    kb1.skipped.append("extra note")
    assert len(kb1.rules) > n_rules
    kb3 = seed(SHORT, 10, 8)
    assert len(kb3.rules) == n_rules and len(kb3.skipped) == n_skipped
    assert len(kb2.rules) == n_rules and len(kb2.skipped) == n_skipped
    known2 = set(kb2.known)
    close(kb1)
    assert len(kb1.known) > len(known2)
    assert kb2.known == known2


def _audit_sha(kb) -> str:
    return hashlib.sha256(kb.audit_log().encode()).hexdigest()


# The derivation order that G2BWB_LOG prints, pinned by its sha256.
@pytest.mark.parametrize("parabolic, box, shuffle, digest", [
    (SHORT, (10, 8), None, "13b220c04720c89e9e591eb0629924bf3c388855c0f172b576bc94d7b9e8fc0e"),
    (LONG, (), None, "8ca9da6088778c89e6bff9e7170f895eac6b1ae92d92cb46fed4676cfeac2c5f"),
    (SHORT, (10, 8), 0, "0266462ac75fe22d399ac5bfcd1eb7a24c9582347ab33d5465ab420bae0367d4"),
], ids=["short-10-8", "long", "short-10-8-shuffled"])
def test_audit_log_golden(parabolic, box, shuffle, digest):
    rng = None if shuffle is None else random.Random(shuffle)
    kb = close(seed(parabolic, *box), rng)
    assert kb.replay()
    assert _audit_sha(kb) == digest


def test_koszul_check_rejects_wrong_exterior_power(monkeypatch):
    # a raise, not an assert, so the check also runs under python -O
    karoubi._compiled.cache_clear()
    monkeypatch.setattr(karoubi, "exterior_power", lambda v, k: v)
    try:
        with pytest.raises(ValueError, match="Koszul"):
            seed(SHORT, 10, 8)
    finally:
        karoubi._compiled.cache_clear()
