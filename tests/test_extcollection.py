from collections import Counter

import pytest

from g2bwb.rootdata import POSITIVE_ROOTS, RHO, W1, W2, ZERO, ParabolicId, Weight
from g2bwb.charring import Character, clebsch_gordan_P, module, weyl_character
from g2bwb.cohomology import bott_line
from g2bwb import extcollection
from g2bwb.extcollection import (
    FROBENIUS_SUMMANDS,
    ExtEngine,
    SheafObject,
    builtin_collection,
    ext_table,
    filtration_to_latex,
    frobenius_report,
    full_collection_report,
    multiplicity_dims,
    object_by_name,
)
from g2bwb.modchar import CharacterOracle
from g2bwb import weyl

SHORT = ParabolicId.SHORT
LONG = ParabolicId.LONG


def _cell(par, x, y, p=11):
    return ext_table(object_by_name(par, x), object_by_name(par, y), p)


def test_builtin_presentations_short():
    coll, m_obj = builtin_collection(SHORT)
    assert m_obj is not None and m_obj.name == "M"
    highs = [s.highest for s in m_obj.filtration.atoms]
    assert Counter(highs) == Counter(
        [Weight(2, -2), Weight(0, -1), Weight(3, -3), Weight(0, -2)])
    assert m_obj.rank() == 9
    e12 = object_by_name(SHORT, "E(s1s2)")
    assert [s.highest for s in e12.filtration.atoms] == [Weight(2, -2), Weight(1, -2)]
    assert e12.rank() == 5
    assert object_by_name(SHORT, "E(s2s1s2)").rank() == 2
    assert object_by_name(SHORT, "E(s1s2s1s2)").rank() == 5
    for name in ("E(e)", "E(s2)", "E(s2s1s2s1s2)"):
        assert object_by_name(SHORT, name).rank() == 1


def test_builtin_presentations_long():
    e131 = object_by_name(LONG, "E(s1s2s1)")
    assert [s.highest for s in e131.filtration.atoms] == [
        Weight(-2, 0), Weight(-4, 1), Weight(-3, 0)]
    assert e131.rank() == 4
    for name, rank in (("E(e)", 1), ("E(s1)", 1), ("E(s2s1)", 1),
                       ("E(s2s1s2s1)", 1), ("E(s1s2s1s2s1)", 1)):
        assert object_by_name(LONG, name).rank() == rank
    with pytest.raises(KeyError):
        object_by_name(LONG, "M")


def test_two_term_presentations_are_characters():
    # construction already asserts character consistency; spot-check one
    m_obj = object_by_name(SHORT, "M")
    tt = m_obj.two_terms[0]
    middle = weyl_character(tt.gweight).tensor(Character.line(tt.twist))
    assert middle - tt.other.character() == m_obj.filtration.character()


def test_headline_cells_short():
    t = _cell(SHORT, "E(s2s1s2)", "M")
    assert t.exact and t.degrees == ((0, (W1,)),)
    assert t.dimension(0) == 7

    t = _cell(SHORT, "E(s1s2s1s2)", "M")
    assert t.exact
    assert Counter(t.entries(0)) == Counter([W1, W1, Weight(2, 0), W2])
    assert t.max_degree() == 0

    t = _cell(SHORT, "M", "E(s2)")
    assert t.exact
    assert Counter(t.entries(0)) == Counter([ZERO, W2])
    assert t.max_degree() == 0

    t = _cell(SHORT, "M", "E(s2s1s2)")
    assert t.exact
    assert t.degrees == ((1, (ZERO,)),)


def test_self_extension_table_of_m():
    t = _cell(SHORT, "M", "M")
    assert t.exact
    assert t.entries(0) == (ZERO,)
    assert t.entries(1) == (W1,)
    assert t.max_degree() == 1
    assert (t.dimension(0), t.dimension(1), t.dimension(2)) == (1, 7, 0)


def test_short_hom_lower_triangle():
    expected = {
        ("E(s2)", "E(e)"): [W2],
        ("E(s1s2)", "E(e)"): [RHO, Weight(2, 0)],
        ("E(s1s2)", "E(s2)"): [W1],
        ("E(s2s1s2)", "E(e)"): [RHO],
        ("E(s2s1s2)", "E(s2)"): [W1],
        ("E(s2s1s2)", "E(s1s2)"): [W1, ZERO],
        ("E(s1s2s1s2)", "E(e)"): [Weight(2, 1), RHO],
        ("E(s1s2s1s2)", "E(s2)"): [Weight(2, 0), W1],
        ("E(s1s2s1s2)", "E(s1s2)"): [Weight(2, 0), W2, W1, W1, ZERO],
        ("E(s1s2s1s2)", "E(s2s1s2)"): [W1, ZERO],
        ("E(s2s1s2s1s2)", "E(e)"): [Weight(0, 2)],
        ("E(s2s1s2s1s2)", "E(s2)"): [W2],
        ("E(s2s1s2s1s2)", "E(s1s2)"): [Weight(2, 0), W1],
        ("E(s2s1s2s1s2)", "E(s2s1s2)"): [W1],
        ("E(s2s1s2s1s2)", "E(s1s2s1s2)"): [W1],
    }
    for (x, y), entries in expected.items():
        t = _cell(SHORT, x, y)
        assert t.exact, (x, y)
        assert Counter(t.entries(0)) == Counter(entries), (x, y)
        assert t.max_degree() == 0, (x, y)


def test_short_upper_triangle_vanishes():
    names = ["E(e)", "E(s2)", "E(s1s2)", "E(s2s1s2)", "E(s1s2s1s2)", "E(s2s1s2s1s2)"]
    for i, x in enumerate(names):
        for y in names[i + 1:]:
            t = _cell(SHORT, x, y)
            assert t.exact and t.is_zero(), (x, y)


def test_long_root_named_cells():
    t = _cell(LONG, "E(s1s2s1)", "E(s2s1s2s1)")
    assert t.exact and t.is_zero()

    t = _cell(LONG, "E(s1s2s1s2s1)", "E(s1s2s1)")
    assert t.exact
    assert Counter(t.entries(0)) == Counter([Weight(2, 0), W2, W1])
    assert t.max_degree() == 0

    t = _cell(LONG, "E(s1s2s1)", "E(e)")
    assert Counter(t.entries(0)) == Counter([Weight(3, 0), RHO, Weight(2, 0)])

    t = _cell(LONG, "E(s1s2s1)", "E(s1)")
    assert Counter(t.entries(0)) == Counter([Weight(2, 0), W2, W1])

    t = _cell(LONG, "E(s1s2s1)", "E(s2s1)")
    assert Counter(t.entries(0)) == Counter([W1, ZERO])

    t = _cell(LONG, "E(s2s1s2s1)", "E(s1s2s1)")
    assert Counter(t.entries(0)) == Counter([W1, ZERO])

    t = _cell(LONG, "E(s1s2s1)", "E(s1s2s1)")
    assert t.exact and t.degrees == ((0, (ZERO,)),)


def test_collection_report_short():
    rep = full_collection_report(SHORT, 11)
    assert rep.passed
    assert rep.higher_ext_vanish and rep.hom_matches_bruhat and rep.diagonal_trivial
    assert not rep.failures
    # the M row and column were computed alongside
    assert ("M", "M") in rep.cells


def test_collection_report_long():
    rep = full_collection_report(LONG, 11)
    assert rep.passed


def test_hom_pattern_equals_bruhat():
    for par in (SHORT, LONG):
        coll, _ = builtin_collection(par)
        reps = weyl.minimal_reps(par)
        for wx in reps:
            for wy in reps:
                t = ext_table(coll[wx], coll[wy], 11)
                assert t.hom_nonzero() == weyl.bruhat_leq(wy, wx), (wx, wy)


def _euler_of_pair(x, y) -> dict[Weight, int]:
    """Euler characteristic of RHom of two filtered sheaves in the Weyl basis,
    summed straight from the line bundles of dual(x) (x) y."""
    out: dict[Weight, int] = {}
    for sx in x.dual().atoms:
        for sy in y.atoms:
            for s in clebsch_gordan_P(sx, sy).atoms:
                r = bott_line(s.highest)
                if r.vanishes:
                    continue
                out[r.weight] = out.get(r.weight, 0) + (-1) ** r.degree
    return {k: v for k, v in out.items() if v}


def _objects(par):
    coll, m_obj = builtin_collection(par)
    return list(coll.values()) + ([m_obj] if m_obj else [])


def test_euler_presentation_independent():
    # alternating character sums agree between named and dual-order atoms
    coll, m_obj = builtin_collection(SHORT)
    objs = list(coll.values()) + [m_obj]
    for X in objs:
        for Y in objs:
            chi = _euler_of_pair(X.filtration, Y.filtration)
            t = ext_table(X, Y, 11)
            acc: dict[Weight, int] = {}
            for d, ws in t.degrees:
                for w in ws:
                    acc[w] = acc.get(w, 0) + (-1) ** d
            acc = {k: v for k, v in acc.items() if v}
            assert acc == chi, (X.name, Y.name)


def test_frobenius_report_short():
    rep = frobenius_report(SHORT, 11)
    assert rep.passed
    assert rep.self_ext_nonzero
    assert rep.witness == ("M", "E(s2s1s2)")
    ranks = {s.sheaf: s.rank for s in rep.summands}
    assert ranks == {"E(e)": 1, "E(s2)": 1, "E(s1s2)": 5, "M": 9,
                     "E(s2s1s2)": 2, "E(s1s2s1s2)": 5, "E(s2s1s2s1s2)": 1}
    mults = {s.sheaf: s.multiplicity_labels for s in rep.summands}
    assert mults["E(s2)"] == ("L(s2)", "L(s1s2s1s2)")
    assert mults["E(s2s1s2s1s2)"] == ("L(s2s1s2s1s2)", "L(s1s2)")
    assert mults["M"] == ("L(e)",)


def test_frobenius_report_long():
    rep = frobenius_report(LONG, 11)
    assert rep.passed
    mults = {s.sheaf: s.multiplicity_labels for s in rep.summands}
    assert mults["E(s2s1)"] == ("L(s2s1)", "L(e)", "L(s1s2s1s2s1)")
    assert mults["E(s2s1s2s1)"] == ("L(s2s1s2s1)", "L(s1)")
    assert mults["E(s1s2s1s2s1)"] == ("L(s1s2s1s2s1)", "L(e)")
    ranks = {s.sheaf: s.rank for s in rep.summands}
    assert ranks["E(s1s2s1)"] == 4



@pytest.mark.parametrize("p", [7, 101, 997, 9973])
def test_multiplicity_dims_fill_the_rank_p5(monkeypatch, p):
    # from Euler characteristics alone: no modular character is built
    monkeypatch.setattr(CharacterOracle, "__init__", None)
    for par in ParabolicId:
        dims = multiplicity_dims(par, p)
        assert list(dims) == [name for name, _ in FROBENIUS_SUMMANDS[par]]
        assert sum(object_by_name(par, name).rank() * m for name, m in dims.items()) == p ** 5
        assert all(m > 0 for m in dims.values())
    assert multiplicity_dims(SHORT, p)["M"] == 1


def test_multiplicity_dims_see_swapped_summand_names(monkeypatch):
    # naming the wrong sheaf for a multiplicity space breaks the triangular
    # Euler form, or gives that space another dimension
    monkeypatch.setattr(extcollection, "FROBENIUS_SUMMANDS", dict(FROBENIUS_SUMMANDS))
    extcollection._euler_form.cache_clear()
    swaps = 0
    try:
        for par, table in FROBENIUS_SUMMANDS.items():
            true = [multiplicity_dims(par, 7)[name] for name, _ in table]
            for i in range(len(table)):
                for j in range(i + 1, len(table)):
                    rows = list(table)
                    rows[i], rows[j] = (table[j][0], table[i][1]), (table[i][0], table[j][1])
                    extcollection.FROBENIUS_SUMMANDS[par] = tuple(rows)
                    extcollection._euler_form.cache_clear()
                    try:
                        dims = multiplicity_dims(par, 7)
                    except ArithmeticError:
                        swaps += 1
                        continue
                    assert [dims[name] for name, _ in rows] != true, (par, i, j)
                    swaps += 1
            extcollection.FROBENIUS_SUMMANDS[par] = table
    finally:
        extcollection._euler_form.cache_clear()
    assert swaps == 21 + 15


def test_table_render_and_json():
    t = _cell(SHORT, "M", "M")
    assert "Ext^0" in t.render() and "Ext^1" in t.render()
    js = t.to_json()
    assert js["exact"] is True
    assert js["degrees"]["0"] == [["L", 0, 0]]


def test_filtration_latex():
    coll, m_obj = builtin_collection(SHORT)
    text = filtration_to_latex(m_obj.filtration)
    assert text.count("\\hline") == 5
    assert "\\nabla^P" in text


def test_presentation_order_invariance():
    # permuting the extra presentations never changes the certified table
    import g2bwb.extcollection as ec
    coll, m_obj = builtin_collection(SHORT)
    e12 = object_by_name(SHORT, "E(s1s2)")
    flipped = ec.SheafObject(
        "E(s1s2)~", SHORT, e12.filtration, tuple(reversed(e12.two_terms + e12.two_terms)))
    for other in (m_obj, coll[weyl.from_word("s2s1s2")]):
        t1 = ext_table(e12, other, 11)
        t2 = ext_table(flipped, other, 11)
        assert t1.degrees == t2.degrees and t1.exact == t2.exact


def test_diagonal_contains_trivial():
    for par in (SHORT, LONG):
        coll, m_obj = builtin_collection(par)
        objs = list(coll.values()) + ([m_obj] if m_obj else [])
        for X in objs:
            t = ext_table(X, X, 11)
            assert ZERO in t.entries(0)


def test_certified_tables_within_every_route_bound():
    # internal soundness: the certified table is contained, degree by degree,
    # in the bound computed along every available route
    from collections import Counter as C
    import g2bwb.extcollection as ec

    for par in (SHORT, LONG):
        engine = ec.ExtEngine(par, 11)
        coll, m_obj = builtin_collection(par)
        objs = list(coll.values()) + ([m_obj] if m_obj else [])
        for X in objs:
            for Y in objs:
                table = engine.cell(X, Y)
                truth = {d: C(ws) for d, ws in table.degrees}
                routes = []
                caveats = []
                for px in engine._pieces(X, first=True):
                    for py in engine._pieces(Y, first=False):
                        routes.append(engine._route_product(px, py, caveats))
                if len(X.filtration.atoms) > 1:
                    routes.append(engine._route_split(X, Y, first=True))
                if len(Y.filtration.atoms) > 1:
                    routes.append(engine._route_split(X, Y, first=False))
                for r in routes:
                    for d, cnt in truth.items():
                        assert cnt <= r.by_degree.get(d, C()), (X.name, Y.name, d)


def test_inconsistent_presentation_rejected():
    import g2bwb.extcollection as ec
    from g2bwb.rootdata import W2 as w2
    with pytest.raises(ValueError):
        ec.SheafObject(
            "bogus", SHORT, module(SHORT, [ZERO]),
            (ec.TwoTerm("kernel", w2, Weight(0, -1), module(SHORT, [ZERO])),),
        )


def test_ambiguity_is_propagated_not_fabricated():
    # an unnamed two-step extension whose table genuinely depends on the
    # extension class: the engine must return a bound, marked inexact
    import g2bwb.extcollection as ec
    X = ec._anon(SHORT, module(SHORT, [ZERO]).atoms)
    Y = ec._anon(SHORT, module(SHORT, [ZERO, Weight(3, -2)]).atoms)
    t = ec.ExtEngine(SHORT, 11).cell(X, Y)
    assert not t.exact
    assert t.entries(0) == (ZERO,) and t.entries(1) == (ZERO,)


def test_reports_stable_at_larger_primes():
    for p in (13, 31):
        assert full_collection_report(SHORT, p).passed
        assert full_collection_report(LONG, p).passed
        assert frobenius_report(SHORT, p).self_ext_nonzero


# Ext^i(X, Y) = Ext^{5-i}(Y, X (x) omega)^* on the 5-dimensional G/P, and
# G2-modules are self-dual, so the factor multisets agree degree by degree.
_OMEGA = {SHORT: Weight(0, -3), LONG: Weight(-5, 0)}


@pytest.mark.parametrize("par,floor", [(SHORT, 41), (LONG, 34)], ids=["short", "long"])
def test_serre_duality(par, floor):
    engine = ExtEngine(par, 11)
    objs = _objects(par)
    twisted = {
        X.name: SheafObject(f"{X.name}(x)omega", par,
                            module(par, [s.highest + _OMEGA[par] for s in X.filtration.atoms]))
        for X in objs
    }
    compared = 0
    for X in objs:
        for Y in objs:
            t = engine.cell(X, Y)
            dual = engine.cell(Y, twisted[X.name])
            if not (t.exact and dual.exact):
                continue
            assert t.degrees == tuple(reversed([(5 - d, ws) for d, ws in dual.degrees])), \
                (X.name, Y.name)
            compared += 1
    assert compared >= floor  # pairs where both sides are exact at p = 11


def _stripped(X):
    return SheafObject(f"{X.name}~", X.parabolic, X.filtration)


@pytest.mark.parametrize("par,floor", [(SHORT, 117), (LONG, 101)], ids=["short", "long"])
def test_presentation_invariance(par, floor):
    # a further valid presentation may sharpen a bound but never changes an
    # exact table: strip the two-term presentations from X, Y or both
    engine = ExtEngine(par, 11)
    objs = _objects(par)
    exact_cells = 0
    for X in objs:
        for Y in objs:
            full = engine.cell(X, Y)
            for bare in (engine.cell(_stripped(X), Y), engine.cell(X, _stripped(Y)),
                         engine.cell(_stripped(X), _stripped(Y))):
                if bare.exact:
                    exact_cells += 1
                    assert full.exact and full.degrees == bare.degrees, (X.name, Y.name)
    assert exact_cells >= floor  # stripped cells that are exact at p = 11


@pytest.mark.parametrize("p", [1, 0, -3])
def test_primes_below_two_are_refused(p):
    M = object_by_name(SHORT, "M")
    calls = (lambda: full_collection_report(SHORT, p), lambda: full_collection_report(LONG, p),
             lambda: frobenius_report(SHORT, p), lambda: frobenius_report(LONG, p),
             lambda: ext_table(M, M, p), lambda: ExtEngine(LONG, p))
    for call in calls:
        with pytest.raises(ValueError, match=f"p must be at least 2, got {p}"):
            call()


@pytest.mark.parametrize("p", [2, 3, 5])
def test_reports_refuse_primes_below_seven(p):
    for report in (full_collection_report, frobenius_report):
        for par in (SHORT, LONG):
            with pytest.raises(ValueError, match=f"no report is backed below p = 7, got {p}"):
                report(par, p)


# Below 13 some cells differ from their large-p tables; 997 and 9973 lie far
# above every cell's bound.
_PRIME_SAMPLE = (7, 11, 13, 17, 29, 997, 9973)


def _all_tables(p):
    out = {}
    for par in (SHORT, LONG):
        engine = ExtEngine(par, p)
        for X in _objects(par):
            for Y in _objects(par):
                out[(par, X.name, Y.name)] = engine.cell(X, Y)
    return out


def test_tables_do_not_depend_on_the_order_of_primes():
    import g2bwb.extcollection as ec

    ec._CELLS.clear()
    ascending = {p: _all_tables(p) for p in _PRIME_SAMPLE}
    ec._CELLS.clear()
    descending = {p: _all_tables(p) for p in reversed(_PRIME_SAMPLE)}
    cleared = {}
    for p in _PRIME_SAMPLE:
        ec._CELLS.clear()
        cleared[p] = _all_tables(p)
    assert ascending == descending == cleared
    for p, tables in ascending.items():
        assert all(t.p == p for t in tables.values())
    # the sample reaches cells that depend on p
    top = ascending[9973]
    for p in (7, 11):
        assert any((t.degrees, t.caveats) != (top[k].degrees, top[k].caveats)
                   for k, t in ascending[p].items())


def test_a_cell_is_computed_once_above_its_bound(monkeypatch):
    import g2bwb.extcollection as ec

    ec._CELLS.clear()
    _all_tables(13)
    computed = []
    compute = ExtEngine._compute

    def counted(self, X, Y):
        computed.append((self.p, X.name, Y.name))
        return compute(self, X, Y)

    monkeypatch.setattr(ExtEngine, "_compute", counted)
    for p in (17, 997, 104729):
        _all_tables(p)
    assert computed == []
    _all_tables(11)
    assert computed and {p for p, _, _ in computed} == {11}


def _threshold(x):
    # computed from the roots, not through cohomology.p_threshold
    return max(alpha.pair(weyl.dominant_conjugate(x)) for alpha in POSITIVE_ROOTS)


@pytest.mark.parametrize("p", [7, 11, 13, 997])
def test_each_cell_bound_covers_every_comparison_with_p(monkeypatch, p):
    # every weight compared with p while a cell is computed, in a nested
    # sub-cell too, has its threshold at or below the cell's recorded p0
    import g2bwb.cohomology as co
    import g2bwb.extcollection as ec

    frames = []  # the largest threshold seen by each cell under computation
    needed = {}  # (X, Y) -> the largest threshold its computation saw

    def see(t):
        for f in frames:
            f[0] = max(f[0], t)

    normal_form, bott, cell = co.affine_normal_form, ec.bott_line, ExtEngine.cell

    def seen_normal_form(x, q):
        see(_threshold(x))
        return normal_form(x, q)

    def seen_bott(lam, q):
        r = bott(lam, q)
        if not r.vanishes and r.degree < 2:  # lowest_alcove decides the caveat
            see(_threshold(r.weight + RHO))
        return r

    def seen_cell(self, X, Y):
        frames.append([0])
        try:
            table = cell(self, X, Y)
        finally:
            needed.setdefault((X, Y), frames.pop()[0])  # the memo is cold at first
        see(needed[(X, Y)])
        return table

    monkeypatch.setattr(co, "affine_normal_form", seen_normal_form)
    monkeypatch.setattr(ec, "bott_line", seen_bott)
    monkeypatch.setattr(ExtEngine, "cell", seen_cell)
    ec._CELLS.clear()
    for par in (SHORT, LONG):
        full_collection_report(par, p)
        frobenius_report(par, p)
    assert len(ec._CELLS) == len(needed)
    for key, (p0, _) in ec._CELLS.items():
        assert p0 >= needed[key[:2]], (key, p0)


def test_a_sub_cell_bound_reaches_its_parent(monkeypatch):
    # a sub-cell valid only from a large p0 makes the cell that reads it valid
    # only from that p0 too, so the parent is stored for its prime alone
    import g2bwb.extcollection as ec

    p, big = 7, 10 ** 6
    X = Y = object_by_name(SHORT, "E(s1s2)")  # two atoms, so the split route reads sub-cells
    stack, reads = [], []
    cell = ExtEngine.cell

    def seen_cell(self, A, B):
        if stack:
            reads.append((stack[-1], (A, B)))
        stack.append((A, B))
        try:
            return cell(self, A, B)
        finally:
            stack.pop()

    monkeypatch.setattr(ec, "_CELLS", {})  # the memo is restored after the test
    monkeypatch.setattr(ExtEngine, "cell", seen_cell)
    ext_table(X, Y, p)
    monkeypatch.setattr(ExtEngine, "cell", cell)
    subs = [sub for parent, sub in reads if parent == (X, Y) and sub != (X, Y)]
    assert subs
    Xs, Ys = subs[0]
    sub_table = (ec._CELLS.get((Xs, Ys)) or ec._CELLS[(Xs, Ys, p)])[1]

    ec._CELLS.clear()
    ec._CELLS[(Xs, Ys, p)] = (big, sub_table)
    ext_table(X, Y, p)
    assert (X, Y) not in ec._CELLS
    assert ec._CELLS[(X, Y, p)][0] >= big
