"""The long-root G2 flag variety against the quadric Q^5 in P^6.

The long-root G/P is the closed orbit in P(V) of the 7-dimensional module V,
whose invariant form is ``chevalley.GRAM``: a smooth quadric Q^5, on which
O(1) is the line bundle of weight varpi_1.  Its five line objects are
O(-j varpi_1), j = 0 ... 4 (Kapranov's collection on Q^5).  The expected
values come from binomials alone: the Koszul sequence
0 -> O_P6(k-2) -> O_P6(k) -> O_Q(k) -> 0, checked against Serre duality with
K = O(-5).  No G2 code computes them.  Frobenius pulls O(k) back to
O(pk), which checks the Euler characteristics the F_*O multiplicities are
solved from.
"""

from math import comb

import pytest

from g2bwb import charring, chevalley, extcollection
from g2bwb.charring import module
from g2bwb.extcollection import SheafObject, ext_table, object_by_name
from g2bwb.rootdata import ParabolicId, Weight

LONG = ParabolicId.LONG
P = 101  # every weight read below lies in the lowest alcove, so L = nabla
TWISTS = range(-10, 11)

# each line object E(w) of the long collection, and j with E(w) = O(-j varpi_1)
LINE_OBJECTS = {"E(e)": 0, "E(s1)": 1, "E(s2s1)": 2, "E(s2s1s2s1)": 3, "E(s1s2s1s2s1)": 4}


def h_projective(i: int, n: int) -> int:
    """dim H^i(P^6, O(n)): polynomials of degree n, and their Serre duals in degree 6."""
    if i == 0:
        return comb(n + 6, 6) if n >= 0 else 0
    if i == 6:
        return comb(-n - 1, 6) if n <= -7 else 0
    return 0


def h_quadric(k: int) -> dict[int, int]:
    """The nonzero dim H^i(Q^5, O(k)).  P^6 has cohomology in degrees 0 and 6
    only, so the long exact sequence of the Koszul sequence leaves H^0(O_Q(k))
    as the cokernel of multiplication by the quadric on H^0, H^5(O_Q(k)) as
    the kernel of that multiplication on H^6, and nothing in between."""
    h = {0: h_projective(0, k) - h_projective(0, k - 2),
         5: h_projective(6, k - 2) - h_projective(6, k)}
    return {i: d for i, d in h.items() if d}


def test_quadric_cohomology_obeys_serre_duality():
    for k in TWISTS:
        assert h_quadric(k).get(5, 0) == h_quadric(-5 - k).get(0, 0), k
        assert all(d > 0 for d in h_quadric(k).values()), k
    # h^0(O(1)) is V itself; O(-1) ... O(-4) are acyclic
    assert h_quadric(1) == {0: 7} and h_quadric(2) == {0: 27}
    assert [k for k in TWISTS if not h_quadric(k)] == [-4, -3, -2, -1]


def chi_quadric(n: int) -> int:
    """chi(Q^5, O(n)) for n >= 0: h^0 alone, the cokernel of the quadric."""
    return comb(n + 6, 6) - comb(n + 4, 6)


@pytest.mark.parametrize("p", [7, 11, 101, 997])
def test_frobenius_pullbacks_are_the_quadric(p):
    # F^*O(k varpi_1) = O(pk varpi_1): the right-hand side r_k = chi(F^*E_k^v)
    # that multiplicity_dims solves G m = r with, for E_k = O(-k varpi_1)
    table = extcollection.FROBENIUS_SUMMANDS[LONG]
    form = extcollection._euler_form(LONG)
    dims = extcollection.multiplicity_dims(LONG, p)
    m = [dims[name] for name, _ in table]
    seen = set()
    for row, (name, _) in zip(form, table):
        if name in LINE_OBJECTS:
            k = LINE_OBJECTS[name]
            expected = chi_quadric(p * k)
            assert expected == sum((-1) ** i * d for i, d in h_quadric(p * k).items())
            dual = object_by_name(LONG, name).filtration.dual().character()
            assert charring.euler_characteristic(dual.stretch(p)) == expected, (name, p)
            # G is lower unitriangular, so G m gives back the r it was solved from
            assert sum(g * mj for g, mj in zip(row, m)) == expected, (name, p)
            seen.add(name)
    assert seen == set(LINE_OBJECTS)


def _dims(table) -> dict[int, int]:
    return {d: table.dimension(d) for d, _ in table.degrees}


def test_line_bundle_cohomology_is_the_quadric():
    # Ext(O, O(k)) = H(G/P, O(k)), with O(k) the line object of weight (k, 0)
    structure = object_by_name(LONG, "E(e)")
    for k in TWISTS:
        line = SheafObject(f"<({k},0)>", LONG, module(LONG, [Weight(k, 0)]))
        t = ext_table(structure, line, P)
        assert t.exact and _dims(t) == h_quadric(k), k


def _line_cell_mismatches() -> list[tuple[str, str]]:
    """The cells Ext(O(-a), O(-b)) = H(Q^5, O(a - b)) among the line objects
    that differ from the quadric's cohomology or are not exact."""
    bad = []
    for x, a in LINE_OBJECTS.items():
        for y, b in LINE_OBJECTS.items():
            t = ext_table(object_by_name(LONG, x), object_by_name(LONG, y), P)
            if not t.exact or _dims(t) != h_quadric(a - b):
                bad.append((x, y))
    return bad


def test_line_object_cells_are_the_quadric():
    assert _line_cell_mismatches() == []


def test_highest_weight_line_is_isotropic():
    # the orbit of the highest-weight line lies in the quadric {v : B(v, v) = 0}
    gram = chevalley.to_int_matrix(chevalley.GRAM)
    weights = chevalley.weight_table()
    (top,) = [k for k, w in weights.items() if w == Weight(1, 0)]
    (zero,) = [k for k, w in weights.items() if w == Weight(0, 0)]
    pos = chevalley.POS
    assert gram.get((pos[top], pos[top]), 0) == 0
    assert gram.get((pos[zero], pos[zero]), 0) != 0  # the form is not zero on every basis line


@pytest.mark.parametrize("name", sorted(LINE_OBJECTS))
def test_a_line_object_shifted_by_varpi2_fails(monkeypatch, name):
    word = "" if name == "E(e)" else name[2:-1]
    rows = tuple((w, [(a, b + 1) for a, b in atoms] if w == word else atoms, tt)
                 for w, atoms, tt in extcollection._COLLECTIONS[LONG])
    assert rows != extcollection._COLLECTIONS[LONG]
    monkeypatch.setitem(extcollection._COLLECTIONS, LONG, rows)
    monkeypatch.setattr(extcollection, "_CELLS", {})
    extcollection.builtin_collection.cache_clear()
    try:
        assert _line_cell_mismatches() != []
    finally:
        extcollection.builtin_collection.cache_clear()
