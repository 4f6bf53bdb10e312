import pytest

from g2bwb.rootdata import POSITIVE_ROOTS, RHO, W2, ZERO, ParabolicId, Weight, root_coords
from g2bwb import weyl
from _reference import descents


def length_by_inversions(w: weyl.WeylElement) -> int:
    """Number of positive roots sent to negative ones; equals word length."""
    count = 0
    for alpha in POSITIVE_ROOTS:
        c1, c2 = root_coords(weyl.act(w, alpha.weight))
        if c1 < 0 or c2 < 0:
            count += 1
    return count


def test_group_order_and_longest():
    assert len(weyl.ALL_ELEMENTS) == 12
    assert weyl.LONGEST.length == 6
    # minus the identity on weights, so -w0 = id for G2
    for lam in (Weight(2, -1), Weight(1, 3)):
        assert weyl.act(weyl.LONGEST, lam) == -lam


def test_act_examples():
    assert weyl.act(weyl.S2, Weight(4, -1)) == RHO
    assert weyl.act(weyl.IDENTITY, Weight(5, 7)) == Weight(5, 7)
    assert weyl.act(weyl.S1, W2) == W2


def test_dot_examples():
    assert weyl.dot(weyl.S2, ZERO) == Weight(3, -2)
    assert weyl.dot(weyl.S1, ZERO) == Weight(-2, 1)
    assert weyl.dot(weyl.IDENTITY, Weight(4, 4)) == Weight(4, 4)


def test_dot_is_group_action():
    box = [Weight(a, b) for a in range(-2, 3) for b in range(-2, 3)]
    for x in weyl.ALL_ELEMENTS:
        for y in weyl.ALL_ELEMENTS:
            for lam in box[:5]:
                assert weyl.dot(x * y, lam) == weyl.dot(x, weyl.dot(y, lam))


def test_length_equals_inversions():
    for w in weyl.ALL_ELEMENTS:
        assert length_by_inversions(w) == w.length


def _bruhat_recursive(x: weyl.WeylElement, y: weyl.WeylElement) -> bool:
    # independent oracle: the standard descent recursion
    if x.length > y.length:
        return False
    if x == y:
        return True
    if y.length == 0:
        return False
    i = descents(y)[0]
    s = weyl.S1 if i == 1 else weyl.S2
    ys = y * s
    xs = x * s
    if xs.length < x.length:
        return _bruhat_recursive(xs, ys)
    return _bruhat_recursive(x, ys)


def test_bruhat_examples():
    for w in weyl.ALL_ELEMENTS:
        assert weyl.bruhat_leq(weyl.IDENTITY, w)
    assert weyl.bruhat_leq(weyl.from_word("s1s2"), weyl.from_word("s2s1s2"))
    assert not weyl.bruhat_leq(weyl.S1, weyl.S2)


def test_bruhat_matches_recursive_oracle():
    for x in weyl.ALL_ELEMENTS:
        for y in weyl.ALL_ELEMENTS:
            assert weyl.bruhat_leq(x, y) == _bruhat_recursive(x, y)


def test_minimal_reps_short():
    words = [w.word for w in weyl.minimal_reps(ParabolicId.SHORT)]
    assert words == [(), (2,), (1, 2), (2, 1, 2), (1, 2, 1, 2), (2, 1, 2, 1, 2)]


def test_minimal_reps_long():
    words = [w.word for w in weyl.minimal_reps(ParabolicId.LONG)]
    assert words == [(), (1,), (2, 1), (1, 2, 1), (2, 1, 2, 1), (1, 2, 1, 2, 1)]


def test_minimal_reps_defining_property():
    for par in ParabolicId:
        alpha = par.simple_root.weight
        for w in weyl.minimal_reps(par):
            assert weyl.is_positive_root_weight(weyl.act(w, alpha))


def test_minimal_reps_count_check_raises(monkeypatch):
    # a positivity test that keeps every element gives 12 representatives, not 6; the
    # representatives are cached, so the cache is cleared around the check
    weyl.minimal_reps.cache_clear()
    monkeypatch.setattr(weyl, "is_positive_root_weight", lambda lam: True)
    try:
        with pytest.raises(ArithmeticError, match="12 minimal coset representatives"):
            weyl.minimal_reps(ParabolicId.SHORT)
    finally:
        weyl.minimal_reps.cache_clear()


def test_coset_factorization():
    # every w factors uniquely as u * v with u minimal and v in the Levi group
    for par in ParabolicId:
        reps = weyl.minimal_reps(par)
        s = weyl.S1 if par is ParabolicId.SHORT else weyl.S2
        seen = set()
        for u in reps:
            for v in (weyl.IDENTITY, s):
                w = u * v
                assert w.length == u.length + v.length
                seen.add(w)
        assert len(seen) == 12


def test_from_word_canonical():
    assert weyl.from_word("s1s1") == weyl.IDENTITY
    assert weyl.from_word([1, 2, 1, 2, 1, 2]) == weyl.LONGEST
    assert weyl.from_word("s2s1s2s1s2") == weyl.from_word((2, 1, 2, 1, 2))
    assert weyl.from_word("e") == weyl.from_word("") == weyl.from_word(()) == weyl.IDENTITY


@pytest.mark.parametrize("word", ["foo", "s12", "s3", "s1 s2", "es1", "1", (1, 3)])
def test_from_word_rejects_non_words(word):
    # a string is read only as e or a run of s1 and s2, never by its digits
    with pytest.raises(ValueError):
        weyl.from_word(word)
