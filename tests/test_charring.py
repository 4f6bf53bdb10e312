import itertools
from fractions import Fraction

import pytest

from g2bwb.rootdata import RHO, W1, W2, ZERO, ParabolicId, Weight
from g2bwb.charring import (
    Character,
    FilteredPModule,
    FiltrationError,
    PString,
    clebsch_gordan_P,
    decompose_costandard,
    dual_pstring,
    euler_characteristic,
    exterior_power,
    filter_character,
    module,
    pstring_character,
    restrict_to_P,
    weyl_character,
)
from g2bwb.cohomology import bott_line
from g2bwb.modchar import weyl_dim
from g2bwb import charring, weyl
from test_properties import is_w_invariant

SHORT = ParabolicId.SHORT
LONG = ParabolicId.LONG


def dual(c: Character) -> Character:
    """The dual character: every weight negated."""
    return Character({-k: v for k, v in c.mult.items()})


def test_weyl_character_small():
    c7 = weyl_character(W1)
    assert c7.dimension() == 7
    expected = {W1, Weight(-1, 1), Weight(2, -1), ZERO,
                Weight(-2, 1), Weight(1, -1), Weight(-1, 0)}
    assert set(c7.mult) == expected
    assert all(v == 1 for v in c7.mult.values())
    assert weyl_character(W2).dimension() == 14
    assert weyl_character(ZERO) == Character.line(ZERO)


def test_weyl_character_rejects_non_dominant():
    with pytest.raises(ValueError):
        weyl_character(Weight(-1, 0))


def test_weyl_character_dimension_formula_agreement():
    # two independent routes: Freudenthal mass versus the product formula
    for a in range(5):
        for b in range(4):
            lam = Weight(a, b)
            assert weyl_character(lam).dimension() == weyl_dim(lam)


def test_euler_characteristic_is_signed_bott():
    # the product formula without the dominance test against Bott's theorem,
    # which conjugates to a dominant weight instead
    for a in range(-8, 9):
        for b in range(-6, 7):
            r = bott_line(Weight(a, b))
            want = 0 if r.vanishes else (-1) ** r.degree * weyl_dim(r.weight)
            assert euler_characteristic(Character.line(Weight(a, b), 3)) == 3 * want, (a, b)
    # on a P-string every weight below the top cancels in pairs
    for par in ParabolicId:
        s = PString(par, Weight(3, 2) if par is SHORT else Weight(2, 3))
        assert euler_characteristic(pstring_character(s)) == weyl_dim(s.highest)


def test_weyl_character_w_invariant():
    for lam in (W1, W2, RHO, Weight(2, 1)):
        assert is_w_invariant(weyl_character(lam))


def test_tensor_adjoint_times_vector():
    # derived oracle: brute convolution then greedy extraction
    prod = weyl_character(W1).tensor(weyl_character(W2))
    assert prod.dimension() == 98
    assert decompose_costandard(prod) == [(RHO, 1), (Weight(2, 0), 1), (W1, 1)]
    expected = weyl_character(RHO) + weyl_character(Weight(2, 0)) + weyl_character(W1)
    assert prod == expected


def test_tensor_trivial_identity():
    c = weyl_character(W2)
    assert c.tensor(Character.line(ZERO)) == c
    assert weyl_character(W1).tensor(weyl_character(W1)).dimension() == 49


def _exterior_newton(x: Character, k: int) -> Character:
    # independent oracle: Newton's identity over the Adams operations
    psi = [Character.line(ZERO)] + [x.stretch(i) for i in range(1, k + 1)]
    elem = [Character.line(ZERO)]
    for j in range(1, k + 1):
        acc = Character()
        for i in range(1, j + 1):
            term = psi[i].tensor(elem[j - i]).scaled((-1) ** (i - 1))
            acc = acc + term
        scaled = {w: Fraction(v, j) for w, v in acc.mult.items()}
        assert all(v.denominator == 1 for v in scaled.values())
        elem.append(Character({w: int(v) for w, v in scaled.items()}))
    return elem[k]


def test_exterior_power_against_newton_oracle():
    c7 = weyl_character(W1)
    for k in range(8):
        assert exterior_power(c7, k) == _exterior_newton(c7, k)


def test_exterior_power_dimensions():
    c7 = weyl_character(W1)
    from math import comb
    for k in range(9):
        assert exterior_power(c7, k).dimension() == comb(7, k)
    assert exterior_power(c7, 1) == c7
    assert exterior_power(c7, 7) == Character.line(ZERO)


def test_dual_character():
    # -w0 = id for G2, so every G-module is self-dual and the package needs
    # no dual of G-characters
    for lam in (ZERO, W1, W2, RHO, Weight(3, 0)):
        c = weyl_character(lam)
        assert dual(c) == c


def test_pstring_character_examples():
    s = PString(SHORT, Weight(1, -2))
    assert pstring_character(s) == Character({Weight(1, -2): 1, Weight(-1, -1): 1})
    s2 = PString(SHORT, Weight(2, -2))
    assert set(pstring_character(s2).mult) == {Weight(2, -2), Weight(0, -1), Weight(-2, 0)}
    assert pstring_character(PString(SHORT, ZERO)).dimension() == 1
    with pytest.raises(ValueError):
        PString(SHORT, Weight(-1, 5))


def test_dual_pstring_examples():
    assert dual_pstring(PString(SHORT, Weight(3, -3))).highest == Weight(3, 0)
    assert dual_pstring(PString(SHORT, Weight(1, -2))).highest == RHO
    assert dual_pstring(PString(SHORT, ZERO)).highest == ZERO
    for lam in (Weight(4, -2), Weight(2, 0), Weight(0, 3)):
        s = PString(SHORT, lam)
        assert dual_pstring(dual_pstring(s)) == s
        assert pstring_character(dual_pstring(s)) == dual(pstring_character(s))


def test_clebsch_gordan_examples():
    out = clebsch_gordan_P(PString(SHORT, W1), PString(SHORT, Weight(3, -1)))
    assert [s.highest for s in out.atoms] == [Weight(4, -1), Weight(2, 0)]
    out = clebsch_gordan_P(PString(SHORT, Weight(2, 0)), PString(SHORT, Weight(3, -1)))
    assert [s.highest for s in out.atoms] == [Weight(5, -1), Weight(3, 0), RHO]
    # tensoring with a one-dimensional atom shifts everything
    out = clebsch_gordan_P(PString(SHORT, Weight(4, -2)), PString(SHORT, Weight(0, 3)))
    assert [s.highest for s in out.atoms] == [Weight(4, 1)]


def _sl2_strings_oracle(x: PString, y: PString) -> list[Weight]:
    # independent oracle: convolve the two string characters and strip
    # strings greedily from the top
    par = x.parabolic
    alpha = par.simple_root.weight
    conv = pstring_character(x).tensor(pstring_character(y))
    tops = []
    while conv:
        top = max(conv.mult, key=lambda w: par.pair(w))
        tops.append(top)
        conv = conv - pstring_character(PString(par, top))
    return sorted(tops)


def test_clebsch_gordan_matches_sl2_oracle():
    samples = [Weight(0, -1), Weight(1, -2), Weight(2, -2), Weight(3, 0), W1]
    for hx, hy in itertools.product(samples, samples):
        x, y = PString(SHORT, hx), PString(SHORT, hy)
        got = sorted(s.highest for s in clebsch_gordan_P(x, y).atoms)
        assert got == _sl2_strings_oracle(x, y)


def test_restrict_to_P_examples():
    mod = restrict_to_P(W1, SHORT)
    assert [s.highest for s in mod.atoms] == [W1, Weight(2, -1), Weight(1, -1)]
    mod2 = restrict_to_P(W2, SHORT)
    assert [s.highest for s in mod2.atoms] == [
        W2, Weight(3, -1), Weight(2, -1), ZERO, Weight(3, -2), Weight(0, -1)]
    assert [s.highest for s in restrict_to_P(ZERO, LONG).atoms] == [ZERO]
    mod3 = restrict_to_P(W1, LONG)
    assert [s.highest for s in mod3.atoms] == [
        W1, Weight(-1, 1), ZERO, Weight(-2, 1), Weight(-1, 0)]


def test_restrict_to_P_additivity():
    for lam in (W1, W2, RHO, Weight(2, 0), Weight(2, 1)):
        for par in (SHORT, LONG):
            mod = restrict_to_P(lam, par)
            assert mod.character() == weyl_character(lam)


def test_filter_character_guard():
    bad = Character({Weight(-1, 0): 1})
    with pytest.raises(FiltrationError):
        filter_character(bad, SHORT)


def test_filtered_module_operations():
    m = module(SHORT, [Weight(2, -2), Weight(1, -2)])
    assert m.dimension() == 5
    d = m.dual()
    assert [s.highest for s in d.atoms] == [RHO, Weight(2, 0)]
    assert d.character() == dual(m.character())


def test_filtered_module_rejects_an_atom_of_the_other_parabolic():
    long_atom = PString(ParabolicId.LONG, RHO)
    with pytest.raises(ValueError, match="atom parabolic mismatch"):
        FilteredPModule(SHORT, (PString(SHORT, ZERO), long_atom))
    with pytest.raises(ValueError, match="atom parabolic mismatch"):
        FilteredPModule(parabolic=SHORT, atoms=(long_atom,))
    assert FilteredPModule(ParabolicId.LONG, (long_atom,)).dual().atoms == (dual_pstring(long_atom),)


def test_character_json_roundtrip():
    c = weyl_character(RHO) - weyl_character(W1).scaled(2)
    assert Character({Weight(a, b): m for a, b, m in c.to_json()}) == c


def test_isub_scaled_in_place():
    c = weyl_character(W1) + Character.line(Weight(5, 5), 3)
    c.isub_scaled(weyl_character(W1), 1)
    assert c.mult == {Weight(5, 5): 3}  # cancelled entries are dropped
    c.isub_scaled(Character({Weight(5, 5): 1, ZERO: -2}), 3)
    assert c.mult == {ZERO: 6}


def test_freudenthal_check_raises(monkeypatch):
    # shifting the form by 1 leaves each denominator alone and makes the
    # numerator at the zero weight of nabla(1,0) 18 over 12
    inner = charring.inner
    monkeypatch.setattr(charring, "inner", lambda lam, mu: inner(lam, mu) + 1)
    with pytest.raises(ArithmeticError):
        weyl_character.__wrapped__(W1)


def test_clebsch_gordan_check_raises(monkeypatch):
    monkeypatch.setattr(charring.FilteredPModule, "character", lambda self: Character())
    with pytest.raises(ArithmeticError):
        clebsch_gordan_P.__wrapped__(PString(SHORT, W1), PString(SHORT, Weight(3, -1)))


def test_filter_character_check_raises(monkeypatch):
    monkeypatch.setattr(charring.FilteredPModule, "character", lambda self: Character())
    with pytest.raises(ArithmeticError):
        filter_character(weyl_character(W1), SHORT)
