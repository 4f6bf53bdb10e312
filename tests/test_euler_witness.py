"""Euler-characteristic witnesses of the Ext tables and of the self-extension of F_*O.

chi(X, Y) = sum_i (-1)^i dim Ext^i(X, Y) equals chi(X^v (x) Y), which the Weyl
product formula (``charring.euler_characteristic``) gives from the objects'
characters alone.  Those characters do not depend on p, and computing them
reads neither ``cohomology`` nor ``ExtEngine``, so the identity checks the Ext
engine against code it does not share.
"""

import pytest

from g2bwb import cohomology, extcollection
from g2bwb.charring import euler_characteristic
from g2bwb.collection import FROBENIUS_SUMMANDS, multiplicity_dims, object_by_name
from g2bwb.extcollection import ExtEngine, ext_table
from g2bwb.rootdata import ParabolicId


def _summands(parabolic):
    return [object_by_name(parabolic, name) for name, _ in FROBENIUS_SUMMANDS[parabolic]]


def _chi(X, Y) -> int:
    """chi(X^v (x) Y) from characters alone."""
    return euler_characteristic(X.filtration.dual().character().tensor(Y.filtration.character()))


def _alternating_dim(t) -> int:
    return sum((-1) ** d * t.dimension(d) for d, _ in t.degrees)


def _forbid_engine(monkeypatch):
    """Make constructing an ``ExtEngine`` and calling any function of ``cohomology``,
    in that module or where ``extcollection`` imported it, raise."""
    def refuse(*args, **kwargs):
        raise AssertionError("the Euler witness reached the Ext engine")

    monkeypatch.setattr(ExtEngine, "__init__", refuse)
    for name, value in list(vars(cohomology).items()):
        if callable(value) and not isinstance(value, type) \
                and getattr(value, "__module__", None) == cohomology.__name__:
            monkeypatch.setattr(cohomology, name, refuse)
            if getattr(extcollection, name, None) is value:
                monkeypatch.setattr(extcollection, name, refuse)


@pytest.mark.parametrize("parabolic", list(ParabolicId), ids=lambda par: par.name.lower())
@pytest.mark.parametrize("p", [7, 11, 13, 997])
def test_every_summand_cell_has_the_euler_characteristic_of_its_characters(parabolic, p):
    objs = _summands(parabolic)
    assert len(objs) ** 2 == {ParabolicId.SHORT: 49, ParabolicId.LONG: 36}[parabolic]  # 85 cells
    for X in objs:
        for Y in objs:
            t = ext_table(X, Y, p)
            assert t.exact, (X.name, Y.name, p)
            assert _alternating_dim(t) == _chi(X, Y), (X.name, Y.name, p)


def test_the_self_extension_witness_needs_no_engine(monkeypatch):
    # M and E(s2s1s2), and M and E(s1s2s1s2), are summands of F_*O on the short
    # side with nonzero multiplicity spaces; chi = -1 forces a nonzero odd Ext
    # between them at every p where that decomposition holds
    _forbid_engine(monkeypatch)
    with pytest.raises(AssertionError, match="reached the Ext engine"):
        ext_table(object_by_name(ParabolicId.SHORT, "M"),
                  object_by_name(ParabolicId.SHORT, "E(s2s1s2)"), 11)
    M = object_by_name(ParabolicId.SHORT, "M")
    for name in ("E(s2s1s2)", "E(s1s2s1s2)"):
        assert _chi(M, object_by_name(ParabolicId.SHORT, name)) == -1, name


@pytest.mark.parametrize("parabolic", list(ParabolicId), ids=lambda par: par.name.lower())
def test_an_entry_moved_up_one_degree_fails_the_identity(parabolic):
    objs = _summands(parabolic)
    mutants = 0
    for X in objs:
        for Y in objs:
            t = ext_table(X, Y, 11)
            if t.is_zero():
                continue
            (d, (w, *rest)), *others = t.degrees
            degrees = dict(others)
            degrees[d + 1] = (w, *degrees.get(d + 1, ()))
            if rest:
                degrees[d] = tuple(rest)
            mutant = t._replace(degrees=tuple(sorted(degrees.items())))
            assert _alternating_dim(t) == _chi(X, Y)
            assert _alternating_dim(mutant) != _chi(X, Y), (X.name, Y.name)
            mutants += 1
    assert mutants > 0


# chi(F_*O, F_*O) at p = 7 and 43, as the three forms below gave it
_SELF_CHI = {(ParabolicId.SHORT, 7): 360829483, (ParabolicId.SHORT, 43): 27731326629645178,
             (ParabolicId.LONG, 7): 650716619}


@pytest.mark.parametrize("parabolic", list(ParabolicId), ids=lambda par: par.name.lower())
@pytest.mark.parametrize("p", [7, 11, 13, 43, 101])
def test_the_euler_characteristic_of_the_pushforward_has_three_forms(monkeypatch, parabolic, p):
    # F_*O = sum_j E_j (x) V_j with m_j = dim V_j, so chi(F_*O, F_*O) is
    # sum_{j,k} m_j m_k chi(E_j, E_k), read from the engine's cells or from the
    # characters, and, by the projection formula chi(E_j^v (x) F_*O) =
    # chi(F^*E_j^v), sum_j m_j chi(F^*E_j^v), with m_M = 1 on the short side.
    # Both engine-free forms depend on m only through the class of F_*O in K_0,
    # so they do not check m_M; they check the engine's cells and the
    # projection formula.
    objs = _summands(parabolic)
    m = multiplicity_dims(parabolic, p)
    engine = 0
    for X in objs:
        for Y in objs:
            t = ext_table(X, Y, p)
            assert t.exact, (X.name, Y.name, p)
            engine += m[X.name] * m[Y.name] * _alternating_dim(t)
    _forbid_engine(monkeypatch)
    m = multiplicity_dims(parabolic, p)
    pairwise = sum(m[X.name] * m[Y.name] * _chi(X, Y) for X in objs for Y in objs)
    stretched = sum(m[X.name] * euler_characteristic(X.filtration.dual().character().stretch(p))
                    for X in objs)
    assert pairwise == stretched == engine == _SELF_CHI.get((parabolic, p), engine)
