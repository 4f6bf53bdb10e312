from collections import Counter

import pytest

from g2bwb.rootdata import POSITIVE_ROOTS, RHO, W1, W2, ZERO, ParabolicId, Weight
from g2bwb.charring import Character, decompose_costandard, module, weyl_character
from g2bwb.cohomology import (
    Bound,
    EulerMismatch,
    affine_normal_form,
    bott_line,
    certify,
    combine,
    costandard_times,
    euler_characteristic,
    linkage_collision,
    linked,
    lowest_alcove,
    p_threshold,
)
from g2bwb.extcollection import _anon, ext_table, object_by_name
from g2bwb.modchar import weyl_dim
from g2bwb import weyl

SHORT = ParabolicId.SHORT


def _atom_bound(atoms: list[Weight]) -> dict[int, Counter]:
    """The per-atom line evaluations of a filtered sheaf on G/P, merged."""
    by_degree: dict[int, Counter] = {}
    for s in module(SHORT, atoms).atoms:
        r = bott_line(s.highest)
        if not r.vanishes:
            by_degree.setdefault(r.degree, Counter())[r.weight] += 1
    return by_degree


def _cohomology(atoms: list[Weight]):
    """H^*(G/P, X) as Ext^*(O, X) for the sheaf X with the given atoms."""
    return ext_table(object_by_name(SHORT, "E(e)"), _anon(SHORT, module(SHORT, atoms).atoms))


def test_bott_examples():
    r = bott_line(Weight(3, -2))
    assert (r.degree, r.weight) == (1, ZERO)
    assert bott_line(Weight(1, -1)).vanishes
    r = bott_line(Weight(4, -3))
    assert (r.degree, r.weight) == (2, ZERO)
    for lam in (ZERO, W1, W2, Weight(3, 2)):
        r = bott_line(lam)
        assert (r.degree, r.weight) == (0, lam)


def test_bott_degree_bound():
    for a in range(-6, 7):
        for b in range(-6, 7):
            r = bott_line(Weight(a, b))
            if not r.vanishes:
                assert 0 <= r.degree <= 6
                assert r.weight.is_dominant()


def test_bott_vanishing_iff_singular():
    for a in range(-6, 7):
        for b in range(-6, 7):
            lam = Weight(a, b)
            singular = any(alpha.pair(lam + RHO) == 0 for alpha in POSITIVE_ROOTS)
            assert bott_line(lam).vanishes == singular


def test_euler_invariance_under_dot():
    # chi(w.lam) = (-1)^len(w) chi(lam) as virtual characters
    box = [Weight(a, b) for a in range(-2, 4) for b in range(-2, 3)]
    for w in weyl.ALL_ELEMENTS:
        for lam in box:
            left = bott_line(weyl.dot(w, lam))
            right = bott_line(lam)
            assert left.vanishes == right.vanishes
            if not right.vanishes:
                assert (-1) ** left.degree == (-1) ** w.length * (-1) ** right.degree
                assert left.weight == right.weight


def test_serre_duality_dimensions():
    # dim H^i(lam) = dim H^{6-i}(-lam-2rho) on a box
    for a in range(-5, 6):
        for b in range(-5, 6):
            lam = Weight(a, b)
            dual = -lam - RHO.scaled(2)
            r1, r2 = bott_line(lam), bott_line(dual)
            assert r1.vanishes == r2.vanishes
            if not r1.vanishes:
                assert r1.degree + r2.degree == 6
                assert weyl_dim(r1.weight) == weyl_dim(r2.weight)


def test_lowest_alcove():
    assert lowest_alcove(RHO, 11)
    assert lowest_alcove(ZERO, 11)
    # the pairing of lam + rho with the highest coroot is 2a + 3b + 5
    assert not lowest_alcove(Weight(2, 1), 11)  # pairing 12: past the upper wall
    assert lowest_alcove(Weight(2, 0), 11)      # pairing 9: interior
    assert lowest_alcove(Weight(3, 0), 11)      # pairing 11: on the wall, closure included
    # the same wall reached along w2
    assert lowest_alcove(Weight(0, 2), 11)      # pairing 11: on the wall
    assert not lowest_alcove(Weight(0, 3), 11)  # pairing 14: outside


def test_lowest_alcove_matches_the_root_loop():
    # the definition over the six positive roots is the reference for the closed form
    primes = [p for p in range(2, 60) if all(p % d for d in range(2, p))]
    for a in range(-15, 16):
        for b in range(-15, 16):
            lam = Weight(a, b)
            x = lam + RHO
            for p in primes:
                expected = all(0 < alpha.pair(x) <= p for alpha in POSITIVE_ROOTS)
                assert lowest_alcove(lam, p) == expected
                if lam.is_dominant():
                    assert expected == (p_threshold(x) <= p)


def test_linked_examples():
    assert linked(Weight(3, 3), Weight(3, 3), 11)
    assert not linked(RHO, Weight(2, 0), 11)
    assert not linked(ZERO, W2, 11)
    # the dot orbit of zero is linked to zero
    for w in weyl.ALL_ELEMENTS:
        assert linked(ZERO, weyl.dot(w, ZERO), 11)


def _orbit_oracle(lam: Weight, p: int, box: int) -> set[Weight]:
    # brute-force closure of the p-dot affine action inside a box
    seen = {lam}
    frontier = [lam]
    while frontier:
        nxt = []
        for mu in frontier:
            x = mu + RHO
            for alpha in POSITIVE_ROOTS:
                t = alpha.pair(x)
                base = (t // p) * p
                for mp in (base, base + p):
                    img = x - alpha.weight.scaled(t - mp)
                    nu = img - RHO
                    if abs(nu.a) > box or abs(nu.b) > box:
                        continue
                    if nu not in seen:
                        seen.add(nu)
                        nxt.append(nu)
        frontier = nxt
    return seen


def test_linked_matches_orbit_oracle():
    p = 11
    orbit = _orbit_oracle(ZERO, p, 16)
    for lam in orbit:
        assert linked(ZERO, lam, p)
    for a in range(-6, 7):
        for b in range(-6, 7):
            lam = Weight(a, b)
            if linked(ZERO, lam, p):
                assert lam in orbit


def test_linked_is_equivalence():
    p = 11
    box = [Weight(a, b) for a in range(-4, 5) for b in range(-4, 5)]
    for lam in box:
        assert linked(lam, lam, p)
    import random
    rng = random.Random(7)
    for _ in range(300):
        x, y, z = rng.choice(box), rng.choice(box), rng.choice(box)
        assert linked(x, y, p) == linked(y, x, p)
        if linked(x, y, p) and linked(y, z, p):
            assert linked(x, z, p)


def test_normal_form_idempotent_and_dot_invariant():
    p = 11
    for a in range(-5, 6):
        for b in range(-5, 6):
            x = Weight(a, b)
            nf = affine_normal_form(x, p)
            assert affine_normal_form(nf, p) == nf
            for w in (weyl.S1, weyl.S2, weyl.LONGEST):
                assert affine_normal_form(weyl.act(w, x), p) == nf


def test_cohomology_filtered_examples():
    t = _cohomology([Weight(2, -1), ZERO])
    assert t.exact
    assert t.entries(0) == (ZERO,)
    assert t.max_degree() == 0

    t = _cohomology([RHO, Weight(2, 0)])
    assert t.exact
    assert Counter(t.entries(0)) == Counter([RHO, Weight(2, 0)])

    t = _cohomology([ZERO])
    assert t.exact and t.entries(0) == (ZERO,)


def test_cohomology_filtered_atom_order_irrelevant():
    atoms = [Weight(2, -2), Weight(0, -1), Weight(3, -3), Weight(0, -2)]
    t1 = _cohomology(atoms)
    t2 = _cohomology(list(reversed(atoms)))
    assert t1.degrees == t2.degrees and t1.exact == t2.exact
    assert euler_characteristic(_atom_bound(atoms)) == euler_characteristic(
        _atom_bound(list(reversed(atoms))))


def test_cohomology_filtered_flags_ambiguity():
    # one atom in degree 0 and a linked one in degree 1: only a bound
    assert linkage_collision(_atom_bound([ZERO, Weight(3, -2)]), 11)
    assert not _cohomology([ZERO, Weight(3, -2)]).exact


def test_certify_unique_and_ambiguous():
    b = {0: Counter({ZERO: 1}), 1: Counter({W1: 1})}
    out, exact, amb = certify(b, {ZERO: 1, W1: -1})
    assert exact and not amb
    assert out[0][ZERO] == 1 and out[1][W1] == 1

    b = {0: Counter({ZERO: 1}), 1: Counter({ZERO: 1})}
    out, exact, amb = certify(b, {})
    assert not exact and amb == [ZERO]

    with pytest.raises(EulerMismatch):
        certify({0: Counter()}, {W2: 1})


def test_combine_resolves_bounds():
    # the two bounds for one Ext computation cut each other down to truth
    route_a = _atom_bound([
        Weight(3, -1), Weight(1, 0), Weight(1, 0), Weight(4, -2),
        Weight(2, -1), Weight(1, -1)])
    assert linkage_collision(route_a, 11)
    euler = euler_characteristic(route_a)
    route_b = {0: Counter({RHO: 1, Weight(2, 0): 1, W1: 1}),
               1: Counter({RHO: 1, Weight(2, 0): 1})}
    degrees, exact = combine([Bound(route_a, False), Bound(route_b, False)], euler)
    assert exact
    assert degrees == ((0, (W1,)),)

    # two routes whose intersection is empty certify vanishing
    t1 = {0: Counter({ZERO: 1}), 1: Counter({ZERO: 1})}
    t2 = {0: Counter({W1: 1}), 1: Counter({W1: 1})}
    assert combine([Bound(t1, False), Bound(t2, False)], {}) == ((), True)

    # the meet is pruned where the Euler characteristic rules an entry out,
    # and stays a bound where it pins nothing
    a = {0: Counter({ZERO: 1}), 1: Counter({ZERO: 1, W1: 1})}
    b = {0: Counter({ZERO: 1, W1: 1}), 1: Counter({W1: 1})}
    assert combine([Bound(a, False), Bound(b, False)], {ZERO: 1}) == (((0, (ZERO,)),), True)
    assert combine([Bound(t1, False)], {}) == (((0, (ZERO,)), (1, (ZERO,))), False)


def test_combine_exact_passthrough_and_euler_guard():
    t = _atom_bound([ZERO])
    euler = euler_characteristic(t)
    bound = {0: Counter({ZERO: 2}), 1: Counter({W1: 1})}
    assert combine([Bound(t, True), Bound(bound, False)], euler) == (((0, (ZERO,)),), True)
    other = _atom_bound([Weight(2, 0)])
    with pytest.raises(EulerMismatch):
        combine([Bound(t, True), Bound(other, True)], euler)
    with pytest.raises(EulerMismatch):
        combine([Bound(other, True)], euler)
    with pytest.raises(EulerMismatch):
        combine([Bound(t, True), Bound({1: Counter({ZERO: 1})}, False)], euler)


def test_char_p_caveat_flag():
    assert bott_line(Weight(4, -3), 11).caveat  # degree two
    assert not bott_line(Weight(3, -2), 11).caveat
    assert not bott_line(W1, 11).caveat


def test_linkage_class_type():
    # the linkage class of zero is keyed by its closed-alcove representative rho
    assert affine_normal_form(ZERO + RHO, 11) == RHO
    for w in weyl.ALL_ELEMENTS:
        assert linked(ZERO, weyl.dot(w, ZERO), 11)
    assert not linked(ZERO, W2, 11)
    assert affine_normal_form(Weight(3, -2) + RHO, 11) == RHO


@pytest.mark.parametrize("p", [1, 0, -3])
def test_normal_form_refuses_primes_below_two(p):
    # the affine reduction would never end at p <= 0
    for call in (lambda: affine_normal_form(Weight(5, 3), p), lambda: linked(ZERO, W2, p)):
        with pytest.raises(ValueError, match=f"p must be at least 2, got {p}"):
            call()


def test_brauer_klimyk_matches_peeling_the_torus_product():
    dominant = [Weight(a, b) for a in range(4) for b in range(4)]
    for lam in dominant:
        for mu in dominant:
            peeled = decompose_costandard(weyl_character(lam).tensor(weyl_character(mu)))
            row = costandard_times(Character.line(mu), weyl_character(lam))
            assert row.mult == dict(peeled), (lam, mu)
    signed = Character({W1: 2, W2: -3, Weight(2, 1): 1})
    torus = weyl_character(W1).scaled(2) - weyl_character(W2).scaled(3) + weyl_character(Weight(2, 1))
    peeled = decompose_costandard(torus.tensor(weyl_character(Weight(1, 1))))
    assert costandard_times(signed, weyl_character(Weight(1, 1))).mult == dict(peeled)
