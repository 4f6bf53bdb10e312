"""The exact matrix layer of g2bwb.chevalley: the kernels, the integer
specialization, the one eliminator, the exact integer division, and the
nilpotency guard of the truncated exponential.

A matrix is the dict of its nonzero entries.  Each kernel is checked against
a dense definition written here, on the 7x7 tuples that ``dense`` spells the
dicts out to: a triple loop for the product and a sum over permutations for
the determinant.  No result may store a zero entry, since that is what makes
``==`` matrix equality.  The eliminator is checked against data it does not
produce itself: every bracket is rebuilt from the returned coordinates, and
the ranks and non-membership come from the shape of the so7 basis and the
torus weights."""

import random
from fractions import Fraction
from itertools import permutations

import pytest

from g2bwb.rootdata import POSITIVE_ROOTS
from g2bwb.chevalley import (
    E1P,
    E2P,
    E3P,
    F1P,
    F2P,
    XI,
    Poly,
    _exact_div,
    _solve_in_span,
    bracket,
    coroot,
    det7,
    identity_mat,
    madd,
    matunit,
    mmul,
    mneg,
    mscale,
    msub,
    mtrans,
    nilpotent_exponential,
    root_subgroup,
    so7_basis,
    theta,
    to_int_matrix,
    zero_mat,
)

A1 = POSITIVE_ROOTS[0]


# -- dense reference definitions ---------------------------------------------

def dense(m, zero=0):
    """The 7x7 tuple of a matrix, with zero at every entry the dict omits."""
    return tuple(tuple(m.get((r, c), zero) for c in range(7)) for r in range(7))


def _sparse(rows):
    return {(r, c): v for r, row in enumerate(rows) for c, v in enumerate(row) if v}


def _ref_mul(a, b):
    out = [[a[r][0] * b[0][c] for c in range(7)] for r in range(7)]
    for r in range(7):
        for c in range(7):
            for k in range(1, 7):
                out[r][c] = out[r][c] + a[r][k] * b[k][c]
    return tuple(tuple(row) for row in out)


def _ref_entrywise(f, *ms):
    return tuple(tuple(f(*(m[r][c] for m in ms)) for c in range(7)) for r in range(7))


def _ref_det(m):
    total = m[0][0] * 0
    for perm in permutations(range(7)):
        inversions = sum(perm[i] > perm[j] for i in range(7) for j in range(i + 1, 7))
        term = m[0][perm[0]]
        for r in range(1, 7):
            term = term * m[r][perm[r]]
        total = total + (-term if inversions % 2 else term)
    return total


def _sparse_int_matrices(seed, count):
    rng = random.Random(seed)
    out = [zero_mat()]
    for _ in range(count):
        density = rng.choice((0.05, 0.1, 0.2, 0.4))
        rows = [[rng.randint(-3, 3) if rng.random() < density else 0 for _ in range(7)]
                for _ in range(7)]
        rows[rng.randrange(7)] = [0] * 7  # a zero row
        dead = rng.randrange(7)
        for row in rows:  # and a zero column
            row[dead] = 0
        out.append(_sparse(rows))
    return out


def _assert_stored(m, entry):
    """Only nonzero entries of one type, at positions of a 7x7 matrix."""
    assert type(m) is dict
    assert all(v for v in m.values()), "a zero entry is stored"
    assert {type(v) for v in m.values()} <= {entry}
    assert all(0 <= r < 7 and 0 <= c < 7 for r, c in m)


def _check_kernels(a, b, c, entry):
    da, db, dc = (dense(m, entry()) for m in (a, b, c))
    for m in (mmul(a, b), madd(a, b), madd(a, b, c), msub(a, b), mneg(a), mscale(3, a),
              mscale(0, a), mtrans(a), bracket(a, b), msub(a, a), madd(a, mneg(a))):
        _assert_stored(m, entry)
    assert msub(a, a) == madd(a, mneg(a)) == zero_mat()
    assert dense(mmul(a, b)) == _ref_mul(da, db)
    assert dense(madd(a, b)) == _ref_entrywise(lambda x, y: x + y, da, db)
    assert dense(madd(a, b, c)) == _ref_entrywise(lambda x, y, z: x + y + z, da, db, dc)
    assert dense(msub(a, b)) == _ref_entrywise(lambda x, y: x - y, da, db)
    assert dense(mneg(a)) == _ref_entrywise(lambda x: -x, da)
    assert dense(mscale(-2, a)) == _ref_entrywise(lambda x: -2 * x, da)
    assert dense(mtrans(a)) == tuple(zip(*da))
    assert dense(bracket(a, b)) == _ref_entrywise(lambda x, y: x - y, _ref_mul(da, db),
                                                  _ref_mul(db, da))
    # == on the dicts is matrix equality
    assert (mmul(a, b) == mmul(b, a)) == (_ref_mul(da, db) == _ref_mul(db, da))


def test_kernels_match_dense_definitions_on_sparse_int_matrices():
    ms = _sparse_int_matrices(seed=14, count=12)
    for i, a in enumerate(ms):
        b, c = ms[(i + 1) % len(ms)], ms[(i + 5) % len(ms)]
        _check_kernels(a, b, c, int)
        _check_kernels(a, a, a, int)
        d = det7(a)
        assert type(d) is int and d == _ref_det(dense(a))
    # a nonsingular sparse matrix, so the determinant check is not all zeros
    perm = _sparse([[2 if c == (3 * r + 1) % 7 else (1 if c == r else 0)
                     for c in range(7)] for r in range(7)])
    assert det7(perm) == _ref_det(dense(perm)) != 0


def test_kernels_match_dense_definitions_on_poly_matrices():
    ms = [root_subgroup(alpha, XI, positive) for alpha in POSITIVE_ROOTS[:3]
          for positive in (True, False)] + [coroot(1)]
    for i, a in enumerate(ms):
        b, c = ms[(i + 1) % len(ms)], ms[(i + 3) % len(ms)]
        _check_kernels(a, b, c, Poly)
        _check_kernels(a, mscale(0, a), b, Poly)  # a zero right factor
        _check_kernels(mscale(0, a), a, b, Poly)  # a zero left factor
    for g in (ms[0], ms[-1]):
        d = det7(g)
        assert type(d) is Poly and d == _ref_det(dense(g, Poly()))
    # the zero matrix stores nothing, so its determinant is the int 0
    assert mscale(0, ms[0]) == zero_mat() and det7(zero_mat()) == 0


def test_nilpotent_exponential_rejects_non_nilpotent():
    with pytest.raises(ValueError):
        nilpotent_exponential(identity_mat(), XI)


def test_exact_div_refuses_a_remainder():
    assert _exact_div(mscale(6, identity_mat()), -3) == mscale(-2, identity_mat())
    m = madd(mscale(6 * XI * XI - 3, root_subgroup(A1, XI)), mscale(3, identity_mat()))
    q = _exact_div(m, 3)
    _assert_stored(q, Poly)
    assert dense(q) == _ref_entrywise(
        lambda e: Poly({k: v // 3 for k, v in e.terms.items()}), dense(m, Poly()))
    with pytest.raises(ArithmeticError):
        _exact_div(identity_mat(), 2)
    with pytest.raises(ArithmeticError):
        _exact_div(madd(identity_mat(), mscale(3 * XI, identity_mat())), 3)
    # n^3 = 0 but n^2 / 2 is not integral, so exp(xi n) has no integer form
    with pytest.raises(ArithmeticError):
        nilpotent_exponential(madd(matunit(1, 2), matunit(2, 3)), XI)


def test_to_int_matrix():
    g = to_int_matrix(root_subgroup(A1, XI), 2)
    _assert_stored(g, int)
    assert g == to_int_matrix(root_subgroup(A1, 2))
    assert g[2, 4] == -4  # the quadratic entry -xi^2 at xi = 2
    # every entry of 1 - xi vanishes at xi = 1, and none is kept
    m = msub(identity_mat(), mscale(XI, root_subgroup(A1, XI)))
    for x in (1, 2, -1):
        g = to_int_matrix(m, x)
        _assert_stored(g, int)
        assert dense(g) == _ref_entrywise(lambda e: e.subs(x), dense(m, Poly()))
    assert to_int_matrix(madd(identity_mat(), mscale(-XI, identity_mat()))) == zero_mat()
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


def test_solve_in_span_fraction_and_negative_pivots():
    e, f = to_int_matrix(E2P), to_int_matrix(F2P)
    target = madd(e, f)
    rank, coords = _solve_in_span([mscale(2, e), mscale(3, f)], [target])
    assert rank == 2 and coords == [[Fraction(1, 2), Fraction(1, 3)]]
    # the first nonzero entry of -E2P is -1, a unit pivot: no Fraction appears
    rank, coords = _solve_in_span([mneg(e), f], [madd(e, mscale(2, f)), to_int_matrix(E1P)])
    assert rank == 2
    assert coords[0] == [-1, 2] and all(type(x) is int for x in coords[0])
    assert coords[1] is None
