import pytest

from g2bwb.rootdata import POSITIVE_ROOTS, Weight
from g2bwb import chevalley
from g2bwb.chevalley import (
    E3P,
    F1P,
    GRAM,
    INDEX_ORDER,
    ONE,
    XI,
    ZETA,
    Poly,
    coroot,
    coroot_diagonal_exponents,
    det7,
    identity_mat,
    in_orthogonal_lie_algebra,
    matunit,
    mmul,
    mscale,
    msub,
    madd,
    nilpotent_exponential,
    preserves_form,
    root_subgroup,
    so7_basis,
    stabilizer_check,
    theta,
    verify_embedding,
    verify_mod_p,
    verify_subgroups,
    weight_table,
)

A1, A2, A12, A112, A1112, A11122 = POSITIVE_ROOTS


def test_poly_arithmetic():
    x, one = XI, ONE
    assert (x + 1) * (x - 1) == x * x - 1
    assert (x * x).subs(3) == 9
    assert (x - x) == 0 and not (x - x)
    with pytest.raises(ArithmeticError):
        (x + ZETA).subs(1)  # a zeta term has no integer value
    with pytest.raises(TypeError):
        Poly.const(0.5)


def test_generator_matrices():
    assert E3P == msub(mscale(2, matunit(3, 0)), matunit(0, -3))
    assert F1P == msub(matunit(2, 1), matunit(-1, -2))


def test_so7_basis_in_orthogonal_algebra():
    basis = so7_basis()
    assert len(basis) == 21
    for x in basis:
        assert in_orthogonal_lie_algebra(x)


def test_theta_images_match_reference_forms():
    th = theta()
    assert th[("e", A12)] == msub(msub(matunit(1, 3), matunit(-3, -1)),
                                  msub(mscale(2, matunit(2, 0)), matunit(0, -2)))
    assert th[("f", A1112)] == mscale(-1, msub(matunit(-3, 1), matunit(-1, 3)))


def test_cartan_image_is_expected_diagonal():
    # [theta e1, theta f1] must match the first coroot's derivative
    assert coroot_diagonal_exponents(1) == [1, -1, 2, 0, -2, 1, -1]
    assert coroot_diagonal_exponents(2) == [0, 1, -1, 0, 1, -1, 0]
    th = theta()
    h1 = th[("h", 1)]
    for k in range(7):
        assert h1.get((k, k), 0) == Poly.const(coroot_diagonal_exponents(1)[k])


def test_verify_embedding_passes():
    rep = verify_embedding()
    assert rep.passed, rep.failures()


def test_bracket_example():
    th = theta()
    from g2bwb.chevalley import bracket
    assert bracket(th[("e", A1)], th[("e", A2)]) == th[("e", A12)]
    assert bracket(th[("e", A1)], th[("f", A2)]) == mscale(0, identity_mat())


def test_root_subgroup_examples():
    g = root_subgroup(A2, XI)
    expected = madd(identity_mat(), mscale(XI, msub(matunit(2, 3), matunit(-3, -2))))
    assert g == expected
    g0 = root_subgroup(A1, 0)
    assert g0 == identity_mat()
    # quadratic entry present for the short simple root
    g1 = root_subgroup(A1, XI)
    assert g1.get((2, 4), 0) == Poly({(2, 0): -1})


def test_subgroup_exponential_agreement():
    th = theta()
    for alpha in POSITIVE_ROOTS:
        for positive in (True, False):
            y = th[("e" if positive else "f", alpha)]
            assert root_subgroup(alpha, XI, positive) == nilpotent_exponential(y, XI)


def test_one_parameter_law_sample():
    a = root_subgroup(A1, 1)
    b = root_subgroup(A1, 2)
    c = root_subgroup(A1, 3)
    assert mmul(a, b) == c


def test_form_preserved_and_det_one():
    for alpha in POSITIVE_ROOTS:
        g = root_subgroup(alpha, XI)
        assert preserves_form(g)
        assert det7(g) == ONE


def test_coroot_values():
    assert coroot(1, ONE, ONE) == identity_mat()
    assert coroot(2, ONE, ONE) == identity_mat()
    with pytest.raises(ValueError):
        coroot(3)
    with pytest.raises(ValueError):
        coroot(1, ZETA, ZETA)  # zinv is not the inverse of z


def test_weight_table():
    wt = weight_table()
    assert wt[1] == Weight(1, 0)
    assert wt[0] == Weight(0, 0)
    assert wt[3] == Weight(2, -1)
    assert wt[-1] == -wt[1] and wt[-2] == -wt[2] and wt[-3] == -wt[3]


def test_verify_subgroups_passes():
    rep = verify_subgroups()
    assert rep.passed, rep.failures()
    assert any("one-parameter law" in label for label, _ in rep.checks)


def test_mod_p_report():
    rep = verify_mod_p()
    assert rep.passed, rep.failures()
    labels = dict(rep.checks)
    assert labels["characteristic 2 stabilizes the central line"]
    assert labels["odd characteristics move the central line"]
    rep = verify_mod_p(primes=(3, 11), samples=(1, 2))
    assert rep.passed, rep.failures()
    assert any("mod 3" in label for label, _ in rep.checks)


def test_stabilizers():
    rep = stabilizer_check()
    assert rep.passed, rep.failures()


def test_gram_matrix_layout():
    # antidiagonal ones with the doubled central entry
    for r in range(7):
        for c in range(7):
            v = GRAM.get((r, c), Poly()).subs(0)
            if r + c == 6:
                assert v == (2 if r == 3 else 1)
            else:
                assert v == 0
    assert INDEX_ORDER == (1, 2, 3, 0, -3, -2, -1)


def test_coroot_diagonal_check_raises(monkeypatch):
    monkeypatch.setattr(chevalley, "coroot", lambda i: root_subgroup(A2, XI))
    with pytest.raises(ArithmeticError):
        coroot_diagonal_exponents(1)


# each check below must fail on the changed data it names

@pytest.fixture
def fresh_closed_forms():
    """Clears the cache of _closed_form before and after the test, so that a
    changed _SUBGROUP_TERMS is read and then forgotten."""
    chevalley._closed_form.cache_clear()
    yield
    chevalley._closed_form.cache_clear()


def test_changed_closed_form_fails_both_closed_form_checks(fresh_closed_forms, monkeypatch):
    # x_{alpha1+alpha2}(xi) with its first order-1 entry doubled
    key = (A12.weight, True)
    ((i, j, c), *order1), order2 = chevalley._SUBGROUP_TERMS[key]
    monkeypatch.setitem(chevalley._SUBGROUP_TERMS, key, (((i, j, 2 * c), *order1), order2))
    embedding, subgroups = dict(verify_embedding().checks), dict(verify_subgroups().checks)
    assert embedding["bracket-generated images match the closed-form constants"] is False
    assert subgroups["closed forms equal the truncated exponentials"] is False


@pytest.mark.parametrize("change, grading", [
    (lambda h: mscale(2, h), False),
    # the identity commutes with every image, so only [e_1, f_1] = h_1 can catch it
    (lambda h: madd(h, identity_mat()), True),
], ids=["doubled", "shifted-by-identity"])
def test_wrong_cartan_image_fails_the_relations(monkeypatch, change, grading):
    th = dict(theta())
    th[("h", 1)] = change(th[("h", 1)])
    monkeypatch.setattr(chevalley, "theta", lambda: th)
    checks = dict(verify_embedding().checks)
    assert checks["Chevalley generator relations hold"] is False
    assert checks["root-space grading under both Cartan images"] is grading


@pytest.mark.parametrize("simple, column, label", [
    (A2, -1, "the long-root parabolic fixes the last line"),
    (A1, -2, "the short-root parabolic preserves the last plane"),
], ids=["line", "plane"])
def test_subgroup_moving_the_flag_fails_the_stabilizer(monkeypatch, simple, column, label):
    # x_simple(xi) gains the entry xi at row 2 of the column of the basis vector v_column
    subgroup = chevalley.root_subgroup

    def moved(alpha, xi, positive=True):
        g = subgroup(alpha, xi, positive)
        return madd(g, mscale(XI, matunit(2, column))) if (alpha, positive) == (simple, True) else g

    monkeypatch.setattr(chevalley, "root_subgroup", moved)
    assert dict(stabilizer_check().checks)[label] is False
