"""Acceptance gate: one test per criterion, exact tolerances, stated budgets.

Run with ``pytest -s tests/test_acceptance.py`` to see one line per criterion.
"""

import random
import time
from collections import Counter

from g2bwb.rootdata import RHO, W1, W2, ZERO, ParabolicId, Weight
from g2bwb.charring import clebsch_gordan_P, pstring_character, weyl_character
from g2bwb.cohomology import bott_line, linked, affine_normal_form
from g2bwb.extcollection import (
    builtin_collection,
    ext_table,
    frobenius_report,
    full_collection_report,
    object_by_name,
)
from g2bwb.karoubi import line_class, verify_generation
from g2bwb.chevalley import chevalley_verify
from g2bwb.modchar import rank_identity_check, weyl_dim
from g2bwb import weyl
from _reference import euler_character

SHORT = ParabolicId.SHORT
LONG = ParabolicId.LONG
P = 11


def _report(name: str, ok: bool, t0: float) -> None:
    print(f"{name}: {'PASS' if ok else 'FAIL'} ({time.time() - t0:.2f}s)")
    assert ok


# criterion 1 ---------------------------------------------------------------

_SHORT_HOM_LOWER = {
    ("E(s2)", "E(e)"): ([W2], 14),
    ("E(s1s2)", "E(e)"): ([RHO, Weight(2, 0)], 91),
    ("E(s1s2)", "E(s2)"): ([W1], 7),
    ("E(s2s1s2)", "E(e)"): ([RHO], 64),
    ("E(s2s1s2)", "E(s2)"): ([W1], 7),
    ("E(s2s1s2)", "E(s1s2)"): ([W1, ZERO], 8),
    ("E(s1s2s1s2)", "E(e)"): ([Weight(2, 1), RHO], 253),
    ("E(s1s2s1s2)", "E(s2)"): ([Weight(2, 0), W1], 34),
    ("E(s1s2s1s2)", "E(s1s2)"): ([Weight(2, 0), W2, W1, W1, ZERO], 56),
    ("E(s1s2s1s2)", "E(s2s1s2)"): ([W1, ZERO], 8),
    ("E(s2s1s2s1s2)", "E(e)"): ([Weight(0, 2)], 77),
    ("E(s2s1s2s1s2)", "E(s2)"): ([W2], 14),
    ("E(s2s1s2s1s2)", "E(s1s2)"): ([Weight(2, 0), W1], 34),
    ("E(s2s1s2s1s2)", "E(s2s1s2)"): ([W1], 7),
    ("E(s2s1s2s1s2)", "E(s1s2s1s2)"): ([W1], 7),
}


def test_criterion_1_collection_short():
    t0 = time.time()
    rep = full_collection_report(SHORT, P)
    ok = rep.passed

    names = ["E(e)", "E(s2)", "E(s1s2)", "E(s2s1s2)", "E(s1s2s1s2)", "E(s2s1s2s1s2)"]
    nonzero_lower = 0
    for i, x in enumerate(names):
        for j, y in enumerate(names):
            t = rep.cells[(x, y)]
            ok = ok and t.exact and t.max_degree() <= 0
            if i > j:
                nonzero_lower += 1
                want, want_dim = _SHORT_HOM_LOWER[(x, y)]
                ok = ok and Counter(t.entries(0)) == Counter(want)
                ok = ok and t.dimension(0) == want_dim
                # a trivial entry is always the simple module
                for w in t.entries(0):
                    if w == ZERO:
                        ok = ok and t.label(w) == "L"
            elif i < j:
                ok = ok and t.is_zero()
            else:
                ok = ok and t.entries(0) == (ZERO,) and t.dimension(0) == 1
            ok = ok and (t.hom_nonzero() == weyl.bruhat_leq(
                weyl.from_word(y[2:-1] if y != "E(e)" else ""),
                weyl.from_word(x[2:-1] if x != "E(e)" else "")))
    ok = ok and nonzero_lower == 15
    # the one cell outside the closed lowest alcove keeps its costandard label
    ok = ok and rep.cells[("E(s1s2s1s2)", "E(e)")].label(Weight(2, 1)) == "nabla"
    elapsed = time.time() - t0
    ok = ok and elapsed <= 10.0
    _report("CRITERION 1 (strongly exceptional collection, short root)", ok, t0)


# criterion 2 ---------------------------------------------------------------

def test_criterion_2_headline_ext_cells():
    t0 = time.time()
    ok = True

    t = ext_table(object_by_name(SHORT, "E(s2s1s2)"), object_by_name(SHORT, "M"), P)
    ok = ok and t.exact and t.degrees == ((0, (W1,)),) and t.dimension(0) == 7

    t = ext_table(object_by_name(SHORT, "E(s1s2s1s2)"), object_by_name(SHORT, "M"), P)
    ok = ok and t.exact and t.max_degree() == 0
    ok = ok and Counter(t.entries(0)) == Counter([W1, W1, Weight(2, 0), W2])
    ok = ok and all(t.label(w) == "L" for w in t.entries(0))

    t = ext_table(object_by_name(SHORT, "M"), object_by_name(SHORT, "E(s2)"), P)
    ok = ok and t.exact and t.max_degree() == 0
    ok = ok and Counter(t.entries(0)) == Counter([W2, ZERO])
    ok = ok and all(t.label(w) == "L" for w in t.entries(0))

    t = ext_table(object_by_name(SHORT, "M"), object_by_name(SHORT, "E(s2s1s2)"), P)
    ok = ok and t.exact and t.degrees == ((1, (ZERO,)),)

    rep = frobenius_report(SHORT, P)
    ok = ok and rep.passed and rep.self_ext_nonzero
    ok = ok and rep.witness == ("M", "E(s2s1s2)")
    ok = ok and rep.witness_table.entries(1) == (ZERO,)
    _report("CRITERION 2 (headline Ext computations and self-extension)", ok, t0)


# criterion 3 ---------------------------------------------------------------

def test_criterion_3_endomorphisms_of_m():
    t0 = time.time()
    t = ext_table(object_by_name(SHORT, "M"), object_by_name(SHORT, "M"), P)
    ok = t.exact
    ok = ok and t.entries(0) == (ZERO,)
    ok = ok and t.entries(1) == (W1,)
    ok = ok and t.max_degree() == 1
    dims = tuple(t.dimension(i) for i in range(4))
    ok = ok and dims == (1, 7, 0, 0)
    _report("CRITERION 3 (self-extensions of the extra summand)", ok, t0)


# criterion 4 ---------------------------------------------------------------

_LONG_MULTIPLICITIES = {
    "E(e)": ("L(e)",),
    "E(s1)": ("L(s1)",),
    "E(s2s1)": ("L(s2s1)", "L(e)", "L(s1s2s1s2s1)"),
    "E(s1s2s1)": ("L(s1s2s1)",),
    "E(s2s1s2s1)": ("L(s2s1s2s1)", "L(s1)"),
    "E(s1s2s1s2s1)": ("L(s1s2s1s2s1)", "L(e)"),
}


def test_criterion_4_long_root_collection():
    t0 = time.time()
    rep = full_collection_report(LONG, P)
    ok = rep.passed

    t = ext_table(object_by_name(LONG, "E(s1s2s1)"), object_by_name(LONG, "E(s2s1s2s1)"), P)
    ok = ok and t.exact and t.is_zero()

    t = ext_table(object_by_name(LONG, "E(wP)"), object_by_name(LONG, "E(s1s2s1)"), P)
    ok = ok and t.exact and t.max_degree() == 0
    ok = ok and Counter(t.entries(0)) == Counter([Weight(2, 0), W2, W1])
    ok = ok and all(t.label(w) == "L" for w in t.entries(0))

    frep = frobenius_report(LONG, P)
    ok = ok and frep.passed
    got = {s.sheaf: s.multiplicity_labels for s in frep.summands}
    ok = ok and got == _LONG_MULTIPLICITIES
    _report("CRITERION 4 (long-root collection and decomposition)", ok, t0)


# criterion 5 ---------------------------------------------------------------

def test_criterion_5_karoubian_generation():
    t0 = time.time()
    ok = True

    rep_s, kb_s = verify_generation(SHORT)
    ok = ok and rep_s.complete
    ok = ok and len(rep_s.targets) == 21 * 11 and not rep_s.unreached
    ok = ok and kb_s.replay()

    rep_l, kb_l = verify_generation(LONG)
    ok = ok and rep_l.complete and len(rep_l.targets) == 19
    ok = ok and kb_l.replay()

    # audit chains replay for a few corner targets
    for kb, w in ((kb_s, Weight(-10, -10)), (kb_s, Weight(10, 0)), (kb_l, Weight(-12, 0))):
        chain = kb.chain(line_class(w))
        ok = ok and bool(chain)

    baseline = frozenset(kb_s.known)
    for i in range(20):
        rep_i, kb_i = verify_generation(SHORT, rng=random.Random(1000 + i))
        ok = ok and rep_i.complete and frozenset(kb_i.known) == baseline

    elapsed = time.time() - t0
    ok = ok and elapsed <= 60.0
    _report("CRITERION 5 (Karoubian generation with audited closure)", ok, t0)


# criterion 6 ---------------------------------------------------------------

def test_criterion_6_so7_realization():
    t0 = time.time()
    reports = chevalley_verify()
    ok = all(r.passed for r in reports)
    modp = next(r for r in reports if r.name.startswith("reductions"))
    labels = dict(modp.checks)
    for p in (3, 5, 7, 11, 13):
        ok = ok and labels[f"group laws and form preservation hold mod {p}"]
    ok = ok and labels["characteristic 2 stabilizes the central line"]
    ok = ok and labels["odd characteristics move the central line"]
    elapsed = time.time() - t0
    ok = ok and elapsed <= 5.0
    _report("CRITERION 6 (integral realization inside SO7)", ok, t0)


# criterion 7 ---------------------------------------------------------------

def test_criterion_7_property_suites():
    t0 = time.time()
    ok = True

    # (a) Euler invariance on 200 sampled pairs
    rng = random.Random(42)
    box = [Weight(a, b) for a in range(-5, 6) for b in range(-5, 6)]
    for _ in range(200):
        w = rng.choice(weyl.ALL_ELEMENTS)
        lam = rng.choice(box)
        lhs = euler_character(weyl.dot(w, lam))
        rhs = euler_character(lam).scaled((-1) ** w.length)
        ok = ok and lhs == rhs

    # (b) Serre duality dimension symmetry on the 21 x 21 box
    for a in range(-10, 11):
        for b in range(-10, 11):
            lam = Weight(a, b)
            dual = -lam - RHO.scaled(2)
            r1, r2 = bott_line(lam), bott_line(dual)
            ok = ok and (r1.vanishes == r2.vanishes)
            if not r1.vanishes:
                ok = ok and r1.degree + r2.degree == 6
                ok = ok and weyl_dim(r1.weight) == weyl_dim(r2.weight)

    # (c) character additivity for every filtration the reports touch
    from g2bwb.charring import Character
    count = 0
    for par in (SHORT, LONG):
        coll, m_obj = builtin_collection(par)
        objects = list(coll.values()) + ([m_obj] if m_obj else [])
        for X in objects:
            total = Character()
            for s in X.filtration.atoms:
                total = total + pstring_character(s)
            ok = ok and X.filtration.character() == total
            for tt in X.two_terms:
                mid = weyl_character(tt.gweight).tensor(Character.line(tt.twist))
                ok = ok and mid - tt.other.character() == X.filtration.character()
            for Y in objects:
                x_sides = [X.filtration] + [tt.other for tt in X.two_terms]
                y_sides = [Y.filtration] + [tt.other for tt in Y.two_terms]
                for fx in x_sides:
                    for fy in y_sides:
                        for sx in fx.dual().atoms:
                            for sy in fy.atoms:
                                mod = clebsch_gordan_P(sx, sy)
                                count += 1
                                ok = ok and mod.character() == pstring_character(
                                    sx).tensor(pstring_character(sy))
    ok = ok and count >= 200

    # (d) linkage is an equivalence on a 1000-weight sample
    sample = [Weight(rng.randint(-12, 12), rng.randint(-12, 12)) for _ in range(1000)]
    classes = {}
    for lam in sample:
        ok = ok and linked(lam, lam, P)
        classes.setdefault(affine_normal_form(lam + RHO, P), []).append(lam)
    for _ in range(2000):
        x, y = rng.choice(sample), rng.choice(sample)
        same = affine_normal_form(x + RHO, P) == affine_normal_form(y + RHO, P)
        ok = ok and linked(x, y, P) == same
        ok = ok and linked(y, x, P) == same

    _report("CRITERION 7 (property suites, zero failures)", ok, t0)


# criterion 8 ---------------------------------------------------------------

def test_criterion_8_rank_identity():
    t0 = time.time()
    rep = rank_identity_check(P, SHORT)
    ok = rep.passed
    ok = ok and rep.weighted_sum == 161051 == P ** 5
    ok = ok and rep.character_match and rep.zero_weight_match
    # the sum formula alone does not decide everything here; the fallback
    # character identity must have pinned a unique assignment
    if rep.decided_by == "identity_resolution":
        ok = ok and rep.surviving_assignments == 1 and rep.choice_points

    rep_l = rank_identity_check(P, LONG)
    ok = ok and rep_l.passed and rep_l.weighted_sum == P ** 5
    _report("CRITERION 8 (rank bookkeeping at p = 11)", ok, t0)
