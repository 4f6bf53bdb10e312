"""Property-based suites over randomly sampled weights and group elements."""

from hypothesis import given, settings, strategies as st

from g2bwb.rootdata import (
    POSITIVE_ROOTS,
    RHO,
    ParabolicId,
    Weight,
    dominance_leq,
    pairing,
    restricted_split,
)
from g2bwb.charring import (
    Character,
    PString,
    clebsch_gordan_P,
    dual_pstring,
    pstring_character,
    weyl_character,
)
from g2bwb.cohomology import affine_normal_form, bott_line, linked, lowest_alcove, p_threshold
from g2bwb import weyl

coords = st.integers(min_value=-8, max_value=8)
weights = st.builds(Weight, coords, coords)
small_dominant = st.builds(Weight, st.integers(0, 4), st.integers(0, 3))
elements = st.sampled_from(weyl.ALL_ELEMENTS)
primes = st.sampled_from([2, 3, 5, 7, 11, 13])


@given(weights, weights, st.sampled_from(POSITIVE_ROOTS))
def test_pairing_linearity(lam, mu, alpha):
    assert pairing(lam + mu, alpha) == pairing(lam, alpha) + pairing(mu, alpha)


@given(weights, weights)
def test_dominance_antisymmetry(lam, mu):
    if dominance_leq(lam, mu) and dominance_leq(mu, lam):
        assert lam == mu


@given(weights, primes)
def test_restricted_split_roundtrip(lam, p):
    lam0, lam1 = restricted_split(lam, p)
    assert lam0 + lam1.scaled(p) == lam
    assert 0 <= lam0.a < p and 0 <= lam0.b < p


@given(elements, elements, weights)
def test_dot_action_compatibility(x, y, lam):
    assert weyl.dot(x * y, lam) == weyl.dot(x, weyl.dot(y, lam))


@given(elements, weights)
def test_act_preserves_pairing_structure(w, lam):
    # the action permutes the root system, so the multiset of pairings is stable
    vals = sorted(abs(pairing(lam, a)) for a in POSITIVE_ROOTS)
    moved = sorted(abs(pairing(weyl.act(w, lam), a)) for a in POSITIVE_ROOTS)
    assert vals == moved


@settings(deadline=None)
@given(small_dominant)
def test_weyl_characters_are_w_invariant(lam):
    assert is_w_invariant(weyl_character(lam))


@settings(deadline=None)
@given(elements, st.builds(Weight, st.integers(-4, 4), st.integers(-4, 4)))
def test_euler_invariance(w, lam):
    r1 = bott_line(weyl.dot(w, lam))
    r2 = bott_line(lam)
    assert r1.vanishes == r2.vanishes
    if not r1.vanishes:
        assert r1.weight == r2.weight
        assert (r1.degree - r2.degree - w.length) % 2 == 0


@given(weights, weights, weights)
def test_linkage_equivalence(x, y, z):
    p = 11
    assert linked(x, x, p)
    assert linked(x, y, p) == linked(y, x, p)
    if linked(x, y, p) and linked(y, z, p):
        assert linked(x, z, p)


@given(weights)
def test_normal_form_idempotent(lam):
    p = 11
    nf = affine_normal_form(lam + RHO, p)
    assert affine_normal_form(nf, p) == nf
    assert nf.is_dominant()
    assert 2 * nf.a + 3 * nf.b <= p


@given(st.builds(Weight, st.integers(-40, 40), st.integers(-40, 40)))
def test_dominant_conjugate_is_the_dominant_orbit_point(lam):
    orbit = {weyl.act(w, lam) for w in weyl.ALL_ELEMENTS}
    assert [mu for mu in orbit if mu.is_dominant()] == [weyl.dominant_conjugate(lam)]


@given(st.sampled_from([ParabolicId.SHORT, ParabolicId.LONG]), weights)
def test_dual_pstring_involution(par, lam):
    if par.pair(lam) < 0:
        lam = -lam
    s = PString(par, lam)
    assert dual_pstring(dual_pstring(s)) == s
    negated = Character({-k: v for k, v in pstring_character(s).mult.items()})
    assert pstring_character(dual_pstring(s)) == negated


@settings(deadline=None, max_examples=40)
@given(
    st.sampled_from([ParabolicId.SHORT, ParabolicId.LONG]),
    st.integers(0, 4), st.integers(-4, 2), st.integers(0, 4), st.integers(-4, 2),
)
def test_clebsch_gordan_additive(par, h1, t1, h2, t2):
    if par is ParabolicId.SHORT:
        x = PString(par, Weight(h1, t1))
        y = PString(par, Weight(h2, t2))
    else:
        x = PString(par, Weight(t1, h1))
        y = PString(par, Weight(t2, h2))
    out = clebsch_gordan_P(x, y)
    assert out.character() == pstring_character(x).tensor(pstring_character(y))


def _support_max_reference(ch):
    """The quadratic definition: maximal weights, ties broken lexicographically."""
    maximal = [k for k in ch.mult if not any(dominance_leq(k, m) and m != k for m in ch.mult)]
    return max(maximal)


# Companions of the sampled weights: a shift by +-(5, -3) keeps the height
# 3a + 5b (a tie), a shift by a multiple of a simple root makes the pair
# comparable in the dominance order.
shifts = st.sampled_from([Weight(n * x, n * y) for n in (1, -1, 2)
                          for x, y in ((5, -3), (2, -1), (-3, 2))])
virtual = st.builds(
    lambda base, moves: Character({**base, **{k + s: v for (k, v), s in zip(base.items(), moves)}}),
    st.dictionaries(weights, st.integers(-3, 3).filter(bool), min_size=1, max_size=30),
    st.lists(shifts, max_size=30),
)


@given(virtual)
def test_support_max_matches_quadratic_reference(ch):
    assert ch.support_max() == _support_max_reference(ch)


def test_support_max_tie_break():
    # three incomparable weights of height 15: the lexicographic maximum wins
    ch = Character({Weight(-5, 6): 1, Weight(0, 3): -2, Weight(5, 0): 4, Weight(4, 0): 1})
    assert ch.support_max() == _support_max_reference(ch) == Weight(5, 0)


def is_w_invariant(ch):
    """Invariance under both simple reflections, in closed form: the
    matrices weyl._S1 and weyl._S2 send (a, b) to (-a, a + b) and to
    (a + 3b, -b).  A plain tuple looks up the equal Weight key."""
    get = ch.mult.get
    return all(get((-a, a + b), 0) == v and get((a + 3 * b, -b), 0) == v
               for (a, b), v in ch.mult.items())


def _w_invariant_reference(ch):
    return all(ch.coeff(weyl.act(w, k)) == v
               for w in weyl.ALL_ELEMENTS for k, v in ch.mult.items())


def _orbit_sum(mult):
    out = Character()
    for k, v in mult.items():
        out = out + Character({nu: v for nu in {weyl.act(w, k) for w in weyl.ALL_ELEMENTS}})
    return out


multisets = st.dictionaries(weights, st.integers(-3, 3).filter(bool), max_size=8)


@given(multisets, weights, st.integers(-2, 2))
def test_is_w_invariant_matches_group_reference(mult, lam, bump):
    inv = _orbit_sum(mult)
    assert is_w_invariant(inv) and _w_invariant_reference(inv)
    perturbed = inv + Character.line(lam, bump)
    assert is_w_invariant(perturbed) == _w_invariant_reference(perturbed)
    raw = Character(mult)
    assert is_w_invariant(raw) == _w_invariant_reference(raw)


_PRIMES = [n for n in range(2, 200) if all(n % d for d in range(2, n))]


@given(weights, st.sampled_from(_PRIMES))
def test_normal_form_is_the_dominant_conjugate_from_the_threshold(x, p):
    dom = weyl.dominant_conjugate(x)
    bound = max(alpha.pair(dom) for alpha in POSITIVE_ROOTS)
    assert p_threshold(x) == bound
    if p >= bound:
        assert affine_normal_form(x, p) == dom
    else:
        # the normal form lies in the closed alcove, below dom on the top wall
        assert affine_normal_form(x, p) != dom


@given(st.builds(Weight, st.integers(0, 12), st.integers(0, 12)), st.integers(2, 80))
def test_lowest_alcove_exactly_from_the_threshold(w, p):
    bound = max(alpha.pair(w + RHO) for alpha in POSITIVE_ROOTS)
    assert lowest_alcove(w, p) == (p >= bound)
    assert p_threshold(w + RHO) == bound


@given(st.sampled_from([ParabolicId.SHORT, ParabolicId.LONG]), weights)
def test_pstring_weights_match_the_two_operation_definition(par, lam):
    if par.pair(lam) < 0:
        lam = -lam
    s = PString(par, lam)
    alpha = par.simple_root.weight
    expected = [lam - alpha.scaled(k) for k in range(par.pair(lam) + 1)]
    got = s.weights()
    assert got == expected
    assert all(type(w) is Weight for w in got)
