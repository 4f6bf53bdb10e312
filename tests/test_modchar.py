import math

import pytest

from g2bwb.rootdata import POSITIVE_ROOTS, RHO, W1, W2, ZERO, ParabolicId, Weight, restricted_split
from g2bwb.charring import (
    Character,
    decompose_costandard,
    filter_character,
    weyl_character,
)
from g2bwb.cohomology import linked, lowest_alcove
from g2bwb import charring, cli, modchar
from g2bwb.extcollection import FROBENIUS_SUMMANDS, frobenius_report, multiplicity_dims
from g2bwb.modchar import (
    CharacterOracle,
    InconsistentChoice,
    Undecided,
    _jantzen_row,
    _identity_sides,
    _numerator,
    _resolution,
    _verma_numerator,
    rank_identity_check,
    resolved_oracle,
    restricted_weight,
    simple_character,
    weyl_dim,
)
from g2bwb import weyl
from _reference import (euler_character, jantzen_sum, socle, torus_lhs, unpruned_resolution,
                        verma_by_series)
from test_properties import is_w_invariant


def _weyl_denominator() -> Character:
    """Delta = e^rho prod_{alpha > 0} (1 - e^{-alpha}), from the root data alone."""
    delta = Character.line(RHO)
    for alpha in POSITIVE_ROOTS:
        delta = delta.tensor(Character({ZERO: 1, -alpha.weight: -1}))
    return delta


DELTA = _weyl_denominator()


def test_weyl_dim_examples():
    assert weyl_dim(W1) == 7
    assert weyl_dim(W2) == 14
    assert weyl_dim(ZERO) == 1
    assert weyl_dim(RHO) == 64
    assert weyl_dim(Weight(2, 0)) == 27
    with pytest.raises(ValueError):
        weyl_dim(Weight(-1, 2))


def test_jantzen_sum_zero_in_lowest_alcove():
    for lam in (ZERO, W1, W2, RHO, Weight(2, 0)):
        assert lowest_alcove(lam, 11)
        assert not jantzen_sum(lam, 11)


def test_jantzen_sum_nonzero_and_linkage_homogeneous():
    lam = Weight(3, 9)
    J = jantzen_sum(lam, 11)
    assert J
    # structural check: every Weyl-basis constituent lies strictly below
    from g2bwb.charring import decompose_costandard
    from g2bwb.rootdata import dominance_leq
    for mu, c in decompose_costandard(J):
        assert dominance_leq(mu, lam) and mu != lam
        assert linked(mu, lam, 11)


def test_simple_character_base_cases():
    assert simple_character(ZERO, 11) == Character.line(ZERO)
    for lam in (W1, W2, RHO, Weight(2, 0), Weight(3, 0)):
        assert simple_character(lam, 11) == weyl_character(lam)


def test_simple_character_steinberg_factorization():
    p = 11
    lam = Weight(1, 0).scaled(p)
    got = simple_character(lam, p)
    assert got == weyl_character(W1).stretch(p)


def test_simple_character_decided_restricted():
    # the sum formula already decides these two restricted weights
    ch = simple_character(Weight(6, 2), 11)
    assert ch.dimension() == 4284
    assert ch.coeff(Weight(6, 2)) == 1
    ch = simple_character(Weight(5, 1), 11)
    assert ch.dimension() == 1015
    assert 1 <= ch.dimension() <= weyl_dim(Weight(5, 1))


def test_simple_character_bounds_and_alcove_equality():
    for lam in (W1, Weight(2, 0), Weight(6, 2), Weight(5, 1)):
        ch = simple_character(lam, 11)
        assert 1 <= ch.dimension() <= weyl_dim(lam)
        if lowest_alcove(lam, 11):
            assert ch.dimension() == weyl_dim(lam)


def test_undecided_is_surfaced():
    with pytest.raises(Undecided) as exc:
        simple_character(Weight(3, 7), 11)
    assert exc.value.choice is not None
    lam, mu = exc.value.choice
    assert lam == Weight(3, 7)
    assert exc.value.certificate[mu] > 1


def test_oracle_choice_resolution():
    # with the open multiplicity pinned, the character exists and is genuine
    oracle = CharacterOracle(11, {(Weight(3, 7), Weight(6, 2)): 1})
    ch = oracle.simple(Weight(3, 7))
    assert all(v >= 0 for v in ch.mult.values())
    assert ch.coeff(Weight(3, 7)) == 1
    bad = CharacterOracle(11, {(Weight(3, 7), Weight(6, 2)): 5})
    with pytest.raises(InconsistentChoice):
        bad.simple(Weight(3, 7))


def test_simple_label():
    lam0 = restricted_weight(weyl.from_word("s2"), 11)
    assert lam0 == Weight(3, 9)
    assert 0 <= lam0.a < 11 and 0 <= lam0.b < 11


def test_verma_character_mass_and_support():
    # the Verma numerator has its highest term e^rho once and at most 2 * 2^5
    # terms; its mass is p^5, since the Weyl dimension formula is linear in the
    # numerator: dim = sum_mu n_mu prod <mu, alpha^v> / (|W| prod <rho, alpha^v>)
    p = 5
    for par in ParabolicId:
        num = _verma_numerator(par, p)
        assert num.coeff(RHO) == 1 and len(num.mult) <= 64
        mass = sum(n * math.prod(alpha.pair(mu) for alpha in POSITIVE_ROOTS)
                   for mu, n in num.mult.items())
        assert mass == 12 * p ** 5 * math.prod(alpha.pair(RHO) for alpha in POSITIVE_ROOTS)
        assert verma_by_series(par, p).dimension() == p ** 5


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_verma_character_is_the_product_of_geometric_series(p):
    # the Verma numerator is the series product times the Weyl denominator
    for par in ParabolicId:
        assert _verma_numerator(par, p) == verma_by_series(par, p).tensor(DELTA)


@pytest.mark.parametrize("nu", [ZERO, W1, W2, RHO, Weight(3, 2), Weight(0, 5), Weight(6, 1)])
def test_numerator_is_the_weyl_character_formula(nu):
    # Freudenthal's character times Delta is the alternating sum over W
    assert _numerator(Character.line(nu)) == weyl_character(nu).tensor(DELTA)


@pytest.mark.parametrize("p", [7, 11, 13, 17, 19, 23])
def test_multiplicity_dims_match_the_resolved_oracle(p):
    # Euler characteristics and the modular simple characters agree on each V_j
    oracle = resolved_oracle(p)[0]
    for par in ParabolicId:
        sums = {name: sum(oracle._dim(restricted_weight(weyl.from_word(w), p)) for w in words)
                for name, words in FROBENIUS_SUMMANDS[par]}
        assert multiplicity_dims(par, p) == sums


@pytest.mark.parametrize("p", [7, 11, 13])
def test_pruned_search_keeps_the_unpruned_survivor(p):
    (pruned,) = _resolution(p)
    (reference,) = unpruned_resolution(p)
    assert pruned.choices == reference.choices


def test_pruned_search_builds_few_oracles(monkeypatch):
    # the unpruned search builds 459 oracles at p = 7
    _resolution.cache_clear()  # a cached search would build none
    built = []
    init = CharacterOracle.__init__
    monkeypatch.setattr(CharacterOracle, "__init__",
                        lambda self, *a, **k: built.append(a) or init(self, *a, **k))
    assert len(_resolution(7)) == 1
    assert 1 <= len(built) <= 25


def test_socle_dimension_vectors():
    dims = {str(w): rank for w, rank, _ in socle(ParabolicId.SHORT)}
    assert dims == {"e": 10, "s2": 1, "s1s2": 6, "s2s1s2": 2,
                    "s1s2s1s2": 6, "s2s1s2s1s2": 1}
    dims_l = {str(w): rank for w, rank, _ in socle(ParabolicId.LONG)}
    assert dims_l == {"e": 3, "s1": 2, "s2s1": 1, "s1s2s1": 4,
                      "s2s1s2s1": 1, "s1s2s1s2s1": 2}


@pytest.mark.parametrize("p", [7, 11])
def test_identity_makes_the_rank_count(p):
    # equal numerators give equal torus characters, since Delta is no zero
    # divisor; the torus sides have dimensions weighted_sum and p^5, so the
    # numerator identity already makes the count the search no longer runs
    oracle = resolved_oracle(p)[0]
    for par in ParabolicId:
        lhs, rhs = _identity_sides(par, oracle)
        assert lhs == rhs
        torus = torus_lhs(par, oracle)
        assert torus.tensor(DELTA) == lhs
        assert torus.dimension() == rank_identity_check(p, par).weighted_sum
        assert verma_by_series(par, p).dimension() == p ** 5


@pytest.mark.parametrize("par", list(ParabolicId))
def test_dropping_one_simple_fails_both_identities(monkeypatch, par):
    # drop the first L(w) of the first summand: the numerators differ, and so
    # do the torus sides of the reference, which times Delta give the numerator
    p = 7
    oracle = resolved_oracle(p)[0]
    summands = list(modchar._summands(p))
    i = next(i for i, s in enumerate(summands) if s[0] is par)
    _, rank, stretched, lams, dim = summands[i]
    summands[i] = (par, rank, stretched, lams[1:], dim)
    monkeypatch.setattr(modchar, "_summands", lambda _: tuple(summands))
    lhs, rhs = _identity_sides(par, oracle)
    torus = torus_lhs(par, oracle) - oracle.simple(lams[0]).tensor(stretched)
    assert lhs != rhs
    assert torus != verma_by_series(par, p)
    assert torus.tensor(DELTA) == lhs


def test_frobenius_table_labels_are_the_coset_representatives():
    for par in ParabolicId:
        words = {w for _, ws in FROBENIUS_SUMMANDS[par] for w in ws}
        assert {weyl.from_word(w) for w in words} == set(weyl.minimal_reps(par))


def test_frobenius_report_and_rank_identity_share_one_table():
    # the summands the report prints, weighted by the dimensions the identity
    # computes, fill the rank-p^5 pushforward exactly
    p = 7
    for par in ParabolicId:
        dims = rank_identity_check(p, par).dims
        total = sum(s.rank * dims[label[2:-1]]
                    for s in frobenius_report(par, p).summands
                    for label in s.multiplicity_labels)
        assert total == p ** 5


def test_weyl_dim_check_raises(monkeypatch):
    weyl_dim.cache_clear()  # a cached dimension would skip the check
    monkeypatch.setattr(charring, "RHO", Weight(2, 2))  # the quotient is 22680/7680
    with pytest.raises(ArithmeticError):
        weyl_dim(W1)


def test_layer_count_check_raises(monkeypatch, capsys):
    # a nonpositive count on top of the Jantzen layers is no sum of layers
    _resolution.cache_clear()  # a cached search would never read the patched layers
    monkeypatch.setattr(modchar, "_jantzen_row", lambda lam, p: Character.line(ZERO, -1))
    with pytest.raises(ArithmeticError):
        CharacterOracle(7).radical_counts(Weight(4, 4))
    assert cli.main(["report", "rank", "--p", "7"]) == cli.EXIT_FAILED
    assert "negative layer count" in capsys.readouterr().err


@pytest.mark.parametrize("p", [7, 11, 13, 17])
def test_resolved_choice_points_follow_the_alcove_pattern(p):
    # the same seven pairs in alcove coordinates at every p, each of
    # multiplicity 1, as translation and Lusztig's conjecture predict; not a
    # theorem for every p, so it is checked here and never used as a shortcut
    (survivor,) = _resolution(p)
    pairs = [((3, p - 4), (p - 5, 2)), ((3, p - 2), (p - 6, 2)), ((3, p - 2), (p - 5, 0)),
             ((4, p - 4), (p - 6, 2)), ((4, p - 4), (p - 2, 1)), ((4, p - 3), (p - 6, 1)),
             ((4, p - 3), (p - 5, 2))]
    assert survivor.choices == {(Weight(*lam), Weight(*mu)): 1 for lam, mu in pairs}


def test_callers_read_the_surviving_oracle(monkeypatch, capsys):
    # once the search has run, every caller reads its survivor: no oracle is rebuilt
    assert resolved_oracle(7)[0] is _resolution(7)[0]
    built = []
    init = CharacterOracle.__init__
    monkeypatch.setattr(CharacterOracle, "__init__",
                        lambda self, *a, **k: built.append(a) or init(self, *a, **k))
    for par in ParabolicId:
        assert rank_identity_check(7, par).passed
    assert cli.main(["modchar", "--w", "s1s2", "--p", "7"]) == cli.EXIT_OK
    assert "identity_resolution" in capsys.readouterr().out
    assert built == []


def test_no_survivor_at_p2():
    # the sum formula decides every multiplicity at p = 2, yet the identity fails
    for par in ParabolicId:
        rep = rank_identity_check(2, par)
        assert rep.surviving_assignments == 0
        assert rep.passed is False
        out = rep.to_json()
        assert [out[k] for k in ("dims_match", "character_match", "zero_weight_match")] == [False] * 3
        assert (out["expected"], out["weighted_sum"], out["dims"]) == (32, -1, {})
        text = rep.to_text().splitlines()
        assert text[-1] == "FAIL"
        assert "  character identity coefficientwise: False" in text


class TorusPeeling:
    """Reference oracle: the peeling that the costandard rows replaced.
    Every character is a torus Character, the Jantzen layers are peeled
    weight by weight, and Steinberg products are plain convolutions."""

    def __init__(self, p, choices):
        self.p, self.choices, self.cache = p, choices, {}

    def radical_counts(self, lam):
        rem = Character(jantzen_sum(lam, self.p).mult)
        counts = {}
        while rem:
            mu = rem.support_max()
            assert mu.is_dominant() and rem.coeff(mu) > 0
            counts[mu] = rem.coeff(mu)
            rem.isub_scaled(self.simple(mu), counts[mu])
        return {mu: 1 if c == 1 else self.choices[(lam, mu)] for mu, c in counts.items()}

    def simple(self, lam):
        if lam not in self.cache:
            lam0, lam1 = restricted_split(lam, self.p)
            if lam1 != ZERO:
                out = self.simple(lam0).tensor(self.simple(lam1).stretch(self.p))
            elif lowest_alcove(lam, self.p):
                out = weyl_character(lam)
            else:
                out = Character(weyl_character(lam).mult)
                for mu, a in self.radical_counts(lam).items():
                    out.isub_scaled(self.simple(mu), a)
            self.cache[lam] = out
        return self.cache[lam]


@pytest.mark.parametrize("p", [7, 11])
def test_rows_match_torus_peeling_reference(p):
    oracle, _, _ = resolved_oracle(p)
    for par in ParabolicId:
        rank_identity_check(p, par)  # every restricted weight of the table
    # Steinberg products whose restricted factor is no nabla and whose
    # twisted factor has a weight of multiplicity 2
    for lam1 in (W2, RHO):
        oracle.simple(Weight(p - 5, 2) + lam1.scaled(p))
    reference = TorusPeeling(p, oracle.choices)
    assert len(oracle._rows) > 10
    for lam in oracle._rows:
        ch = reference.simple(lam)
        assert oracle.simple(lam) == ch, lam
        assert is_w_invariant(ch), lam


def test_nonnegativity_check_matches_torus_reference():
    # multiplicity 2 at four open points of p = 7 over-subtracts at (4,3)
    lam = Weight(4, 3)
    choices = {(Weight(3, 3), Weight(2, 2)): 2, (lam, Weight(5, 1)): 2,
               (lam, Weight(2, 2)): 2, (lam, Weight(1, 2)): 2}
    with pytest.raises(InconsistentChoice, match="negative character"):
        CharacterOracle(7, choices).simple(lam)
    assert min(TorusPeeling(7, choices).simple(lam).mult.values()) < 0


def test_euler_character_signs():
    assert euler_character(Weight(3, -2)) == weyl_character(ZERO).scaled(-1)
    assert not euler_character(Weight(1, -1))
    assert euler_character(W1) == weyl_character(W1)


def test_peeling_leaves_cached_characters_intact():
    # peeling subtracts in place; it must never reach a cached character
    p = 7
    box = [Weight(a, b) for a in range(p) for b in range(p)]
    weyl_character.cache_clear()
    _jantzen_row.cache_clear()
    jantzen_sum.cache_clear()
    cached = {lam: weyl_character(lam) for lam in box}
    rows = {lam: _jantzen_row(lam, p) for lam in box}
    layers = {lam: jantzen_sum(lam, p) for lam in box}
    # a fresh oracle with the survivor's choices peels every row again here;
    # the cached survivor of ``_resolution`` would peel nothing
    oracle = CharacterOracle(p, resolved_oracle(p)[0].choices)
    for par in ParabolicId:
        for w in weyl.minimal_reps(par):  # every restricted weight of the table
            oracle._dim(restricted_weight(w, p))
    assert oracle._rows
    decompose_costandard(weyl_character(RHO).tensor(weyl_character(Weight(2, 1))))
    for par in ParabolicId:
        filter_character(weyl_character(Weight(2, 1)), par)
    assert all(weyl_character(lam) is cached[lam] for lam in box)
    assert all(_jantzen_row(lam, p) is rows[lam] for lam in box)
    weyl_character.cache_clear()
    _jantzen_row.cache_clear()
    jantzen_sum.cache_clear()
    for lam in box:
        assert cached[lam] == weyl_character(lam), lam
        assert rows[lam] == _jantzen_row(lam, p), lam
        assert layers[lam] == jantzen_sum(lam, p), lam
