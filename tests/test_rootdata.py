import itertools

import pytest

from g2bwb.rootdata import (
    ALPHA1,
    ALPHA2,
    POSITIVE_ROOTS,
    RHO,
    W1,
    W2,
    ZERO,
    ParabolicId,
    Weight,
    dominance_leq,
    pairing,
    restricted_split,
    root_coords,
)
from g2bwb import weyl

from _reference import simple_root_as_weight


def weight_box(amax: int, bmax: int):
    """All weights with |a| <= amax and |b| <= bmax, in lexicographic order."""
    for a in range(-amax, amax + 1):
        for b in range(-bmax, bmax + 1):
            yield Weight(a, b)


def test_pairing_fundamental_deltas():
    assert pairing(W1, ALPHA2) == 0
    assert pairing(W1, ALPHA1) == 1
    assert pairing(W2, ALPHA2) == 1
    assert pairing(RHO, ALPHA1) == 1


def test_pairing_of_dot_weight():
    # oracle: s2.0 = -alpha2 forces the pairing with the long coroot to be -2
    lam = weyl.dot(weyl.S2, ZERO)
    assert lam == Weight(3, -2)
    assert lam == -ALPHA2.weight
    assert pairing(lam, ALPHA2) == -2


def test_pairing_linear():
    roots = POSITIVE_ROOTS
    box = [Weight(a, b) for a in range(-3, 4) for b in range(-3, 4)]
    for alpha in roots:
        for lam, mu in itertools.islice(itertools.product(box, box), 400):
            assert pairing(lam + mu, alpha) == pairing(lam, alpha) + pairing(mu, alpha)


def test_simple_roots_as_weights():
    # oracle: s_i.0 = -alpha_i
    assert simple_root_as_weight(1) == -weyl.dot(weyl.S1, ZERO) == Weight(2, -1)
    assert simple_root_as_weight(2) == -weyl.dot(weyl.S2, ZERO) == Weight(-3, 2)
    with pytest.raises(ValueError):
        simple_root_as_weight(3)


def test_highest_long_root_is_adjoint_weight():
    lam = simple_root_as_weight(1).scaled(3) + simple_root_as_weight(2).scaled(2)
    assert lam == W2


def test_positive_root_data():
    assert len(POSITIVE_ROOTS) == 6
    shorts = [r for r in POSITIVE_ROOTS if r.is_short]
    assert len(shorts) == 3 and ALPHA1 in shorts
    for r in POSITIVE_ROOTS:
        # the defining normalization <alpha, alpha^v> = 2
        assert pairing(r.weight, r) == 2
    # rho pairs to 1 exactly on the simple roots
    for r in POSITIVE_ROOTS:
        val = pairing(RHO, r)
        assert val >= 1
        assert (val == 1) == (r in (ALPHA1, ALPHA2))


def test_root_coords_roundtrip():
    for lam in weight_box(4, 4):
        c1, c2 = root_coords(lam)
        back = ALPHA1.weight.scaled(c1) + ALPHA2.weight.scaled(c2)
        assert back == lam


def test_dominance_examples():
    assert dominance_leq(ZERO, W2)          # w2 = 3a1 + 2a2
    assert dominance_leq(ZERO, W1)          # w1 = 2a1 + a2
    assert root_coords(W1) == (2, 1)
    assert dominance_leq(Weight(2, 2), Weight(2, 2))


def test_dominance_partial_order():
    box = [Weight(a, b) for a in range(-2, 3) for b in range(-2, 3)]
    for lam in box:
        assert dominance_leq(lam, lam)
    for lam, mu in itertools.product(box, box):
        if dominance_leq(lam, mu) and dominance_leq(mu, lam):
            assert lam == mu
    for lam, mu, nu in itertools.islice(itertools.product(box, box, box), 4000):
        if dominance_leq(lam, mu) and dominance_leq(mu, nu):
            assert dominance_leq(lam, nu)


def test_restricted_split_examples():
    assert restricted_split(Weight(3, -2), 11) == (Weight(3, 9), Weight(0, -1))
    assert restricted_split(ZERO, 7) == (ZERO, ZERO)
    assert restricted_split(Weight(-1, 0), 11) == (Weight(10, 0), Weight(-1, 0))
    with pytest.raises(ValueError):
        restricted_split(ZERO, 1)


def test_restricted_split_roundtrip():
    for p in (2, 5, 11):
        for lam in weight_box(6, 6):
            lam0, lam1 = restricted_split(lam, p)
            assert lam0 + lam1.scaled(p) == lam
            assert 0 <= lam0.a < p and 0 <= lam0.b < p


def test_parabolic_data():
    assert ParabolicId.SHORT.simple_root is ALPHA1
    assert ParabolicId.LONG.simple_root is ALPHA2
    assert ParabolicId.SHORT.pair(Weight(4, -1)) == 4
    assert ParabolicId.LONG.pair(Weight(4, -1)) == -1
