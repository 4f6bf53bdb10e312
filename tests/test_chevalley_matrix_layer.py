"""The exact matrix layer of g2bwb.chevalley: the integer specialization, the
one eliminator, the exact integer division, and the nilpotency guard of the
truncated exponential.

The eliminator is checked against data it does not produce itself: every
bracket is rebuilt from the returned coordinates, and the ranks and
non-membership come from the shape of the so7 basis and the torus weights."""

import pytest

from g2bwb.rootdata import POSITIVE_ROOTS
from g2bwb.chevalley import (
    E1P,
    E2P,
    E3P,
    F1P,
    XI,
    _exact_div,
    _solve_in_span,
    bracket,
    coroot,
    identity_mat,
    madd,
    matunit,
    mscale,
    nilpotent_exponential,
    root_subgroup,
    so7_basis,
    theta,
    to_int_matrix,
)

A1 = POSITIVE_ROOTS[0]


def test_nilpotent_exponential_rejects_non_nilpotent():
    with pytest.raises(ValueError):
        nilpotent_exponential(identity_mat(), XI)


def test_exact_div_refuses_a_remainder():
    assert _exact_div(mscale(6, identity_mat()), -3) == mscale(-2, identity_mat())
    with pytest.raises(ArithmeticError):
        _exact_div(identity_mat(), 2)
    with pytest.raises(ArithmeticError):
        _exact_div(madd(identity_mat(), mscale(3 * XI, identity_mat())), 3)
    # n^3 = 0 but n^2 / 2 is not integral, so exp(xi n) has no integer form
    with pytest.raises(ArithmeticError):
        nilpotent_exponential(madd(matunit(1, 2), matunit(2, 3)), XI)


def test_to_int_matrix():
    g = to_int_matrix(root_subgroup(A1, XI), 2)
    assert all(type(v) is int for row in g for v in row)
    assert g == to_int_matrix(root_subgroup(A1, 2))
    assert g[2][4] == -4  # the quadratic entry -xi^2 at xi = 2
    with pytest.raises(ArithmeticError):
        to_int_matrix(coroot(1))  # diagonal entries are powers of zeta


def _g2_bases():
    th = theta()
    return list(th.values()), [to_int_matrix(m) for m in th.values()]


def test_solve_in_span_rebuilds_every_bracket():
    basis, ib = _g2_bases()
    pairs = [(i, j) for i in range(14) for j in range(14)]
    rank, coords = _solve_in_span(ib, [bracket(ib[i], ib[j]) for i, j in pairs])
    assert rank == 14 and len(coords) == 196
    for (i, j), c in zip(pairs, coords):
        assert c is not None and all(type(x) is int for x in c)
        rebuilt = madd(*(mscale(ck, basis[k]) for k, ck in enumerate(c)))
        assert rebuilt == bracket(basis[i], basis[j]), (i, j)


def test_solve_in_span_rank_and_outside_span():
    assert _solve_in_span([to_int_matrix(m) for m in so7_basis()], [])[0] == 21
    _, ib = _g2_bases()
    # entries (1, 2) and (3, 0) both have torus weight alpha_1, whose G2 root
    # space is spanned by e1 = E1P + E3P; E1P alone has the wrong ratio
    rank, coords = _solve_in_span(ib, [to_int_matrix(E1P), to_int_matrix(E2P)])
    assert rank == 14
    assert coords[0] is None
    assert coords[1] is not None  # E2P is the image of e2
    m = to_int_matrix(E3P)
    assert _solve_in_span([m, to_int_matrix(F1P), m], [])[0] == 2
