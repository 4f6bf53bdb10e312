"""Exact realization of G2 inside SO7 on integer matrices.

The ambient 7-dimensional quadratic space has basis indexed
``(1, 2, 3, 0, -3, -2, -1)`` and Gram matrix with ones on the antidiagonal
and a single 2 in the middle.  The embedding sends the two Chevalley
generator pairs to explicit so7 root matrices, the remaining root vectors
are produced by the bracket recipes with their exact 1/2 and 1/3 divisions,
and the twelve root subgroups are degree-two polynomial matrices equal to
the truncated exponentials of the images.  One table, ``_SUBGROUP_TERMS``,
holds the subgroups, and its order-1 terms are the closed-form constants
that the bracket recipes must reproduce.

Everything runs over the integers, as Chevalley's theorem promises: the
structure constants, the divided powers e^k/k! and so every root-subgroup
coefficient are integers.  Matrix entries are Laurent polynomials in xi and
zeta with ``int`` coefficients, each bracket-recipe division is an exact
integer division that raises ``ArithmeticError`` on a remainder, and the
coroots are symbolic in zeta.  So every identity (form preservation,
determinant one, the one-parameter law, torus conjugation, the stabilizer
statements) is checked as a polynomial identity, not at samples.  One set of
matrix operations serves both these polynomial matrices and the integer
matrices ``to_int_matrix`` specializes them to.  Every G2 image has at most
six nonzero entries of 49, so a matrix is the dict ``{(row, col): entry}`` of
its nonzero entries: a product multiplies only pairs of stored entries, the
determinant expands only along them, and every operation drops an entry that
sums to zero.  No zero is ever stored, so ``==`` on the dicts is matrix
equality.  The Lie algebra checks run on the integer matrices of the
(constant) images.  They compute each bracket of two images once, into one
table that every check reads, with one exact elimination for all the
brackets.  It stays in ints while each pivot is 1 or -1; ``fractions`` is
imported and a ``Fraction`` made only at another pivot (there is one, a -2),
the one place the layer leaves the integers.
Reductions modulo small primes check the group laws on integer
specializations; the characteristic-2 degeneration of the 7-dimensional
module is detected there.  Cold, ``report chevalley`` takes about 0.06 s on
2 cores, interpreter start and imports included; its checks take about 10 ms.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .rootdata import POSITIVE_ROOTS, Root, Weight, pairing
from .charring import weyl_character

# ---------------------------------------------------------------------------
# integer Laurent polynomials in two variables (xi and zeta)

class Poly:
    """Laurent polynomial in (xi, zeta) with int coefficients.  A Poly is
    never changed after it is built."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[tuple[int, int], int] | None = None):
        self.terms: dict[tuple[int, int], int] = {}
        if terms:
            for k, v in terms.items():
                if v:
                    if type(v) is not int:
                        raise TypeError(f"Poly coefficients are ints, got {v!r}")
                    self.terms[k] = v

    @staticmethod
    def const(c) -> "Poly":
        return Poly({(0, 0): c})

    @staticmethod
    def coerce(v) -> "Poly":
        return v if isinstance(v, Poly) else Poly.const(v)

    def __add__(self, other):
        other = Poly.coerce(other)
        if not other.terms:
            return self
        if not self.terms:
            return other
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out.get(k, 0) + v
        return Poly(out)

    __radd__ = __add__

    def __neg__(self):
        return Poly({k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        return self + (-Poly.coerce(other))

    def __mul__(self, other):
        other = Poly.coerce(other)
        out: dict[tuple[int, int], int] = {}
        for (a1, b1), v1 in self.terms.items():
            for (a2, b2), v2 in other.terms.items():
                k = (a1 + a2, b1 + b2)
                out[k] = out.get(k, 0) + v1 * v2
        return Poly(out)

    __rmul__ = __mul__

    def __eq__(self, other):
        return self.terms == Poly.coerce(other).terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __bool__(self):
        return bool(self.terms)

    def subs(self, xi: int) -> int:
        """The value at the integer xi of a polynomial in xi alone;
        ArithmeticError on a zeta term or a negative power of xi."""
        if any(j or i < 0 for i, j in self.terms):
            raise ArithmeticError(f"{self!r} is not a polynomial in xi alone")
        return sum(v * xi ** i for (i, _), v in self.terms.items())

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for (i, j), v in sorted(self.terms.items()):
            s = str(v)
            if i:
                s += f"*x^{i}"
            if j:
                s += f"*z^{j}"
            bits.append(s)
        return " + ".join(bits)


XI = Poly({(1, 0): 1})
ZETA = Poly({(0, 1): 1})
ZETA_INV = Poly({(0, -1): 1})
ONE = Poly.const(1)

# ---------------------------------------------------------------------------
# 7x7 matrices over Poly or over plain ints, stored as the dict
# {(row, col): entry} of their nonzero entries; every operation below serves
# both, drops each entry that sums to zero, and so == is matrix equality.  A
# matrix is never changed after it is built.

INDEX_ORDER = (1, 2, 3, 0, -3, -2, -1)
POS = {label: k for k, label in enumerate(INDEX_ORDER)}

Mat = dict  # {(row, col): nonzero entry}


def _nonzero(m: Mat) -> Mat:
    return {k: v for k, v in m.items() if v}


def matunit(i: int, j: int, c=1) -> Mat:
    return _nonzero({(POS[i], POS[j]): Poly.const(c)})


def zero_mat() -> Mat:
    return {}


def identity_mat() -> Mat:
    return {(r, r): ONE for r in range(7)}


def madd(first: Mat, *rest: Mat) -> Mat:
    out = dict(first)
    for m in rest:
        for k, v in m.items():
            out[k] = out[k] + v if k in out else v
    return _nonzero(out)


def mneg(m: Mat) -> Mat:
    return {k: -v for k, v in m.items()}


def msub(a: Mat, b: Mat) -> Mat:
    return madd(a, mneg(b))


def mscale(c, m: Mat) -> Mat:
    return _nonzero({k: c * v for k, v in m.items()})


def mmul(a: Mat, b: Mat) -> Mat:
    """Entry (r, c) of the product sums x * y over the nonzero entries
    x = a[r, k] and y = b[k, c]."""
    rows: dict[int, list] = {}
    for (k, c), y in b.items():
        rows.setdefault(k, []).append((c, y))
    out: Mat = {}
    for (r, k), x in a.items():
        for c, y in rows.get(k, ()):
            t = x * y
            out[r, c] = out[r, c] + t if (r, c) in out else t
    return _nonzero(out)


def mtrans(m: Mat) -> Mat:
    return {(c, r): v for (r, c), v in m.items()}


def bracket(a: Mat, b: Mat) -> Mat:
    return msub(mmul(a, b), mmul(b, a))


def det7(m: Mat) -> Poly | int:
    """Determinant by minor expansion along the rows, over the nonzero
    entries only, with memo on column subsets."""
    memo: dict[tuple[int, ...], Poly | int] = {}

    def minor(r: int, cs: tuple[int, ...]) -> Poly | int:
        if not cs:
            return 1
        if cs in memo:
            return memo[cs]
        acc = 0
        for idx, c in enumerate(cs):
            x = m.get((r, c), 0)
            if x:
                term = x * minor(r + 1, cs[:idx] + cs[idx + 1:])
                acc = acc + (term if idx % 2 == 0 else -term)
        memo[cs] = acc
        return acc

    return minor(0, tuple(range(7)))


def to_int_matrix(m: Mat, xi: int = 1) -> Mat:
    """The integer matrix m(xi); ArithmeticError on an entry involving zeta."""
    return _nonzero({k: e.subs(xi) for k, e in m.items()})


# Gram matrix of the quadratic form, antidiagonal ones with central 2.
GRAM: Mat = madd(
    *[matunit(i, -i) for i in (1, 2, 3, -3, -2, -1)], matunit(0, 0, 2)
)


def preserves_form(g: Mat) -> bool:
    return mmul(mtrans(g), mmul(GRAM, g)) == GRAM


def in_orthogonal_lie_algebra(x: Mat) -> bool:
    return mmul(mtrans(x), GRAM) == mneg(mmul(GRAM, x))


# ---------------------------------------------------------------------------
# the so7 Chevalley basis and the embedded G2 basis

E1P = msub(matunit(1, 2), matunit(-2, -1))
E2P = msub(matunit(2, 3), matunit(-3, -2))
E3P = msub(mscale(2, matunit(3, 0)), matunit(0, -3))
F1P = msub(matunit(2, 1), matunit(-1, -2))
F2P = msub(matunit(3, 2), matunit(-2, -3))
F3P = msub(matunit(0, 3), mscale(2, matunit(-3, 0)))


def so7_basis() -> list[Mat]:
    """The 21 basis matrices: root vectors plus the three Cartan brackets."""
    out: list[Mat] = []
    for i, j in ((1, 2), (1, 3), (2, 3)):
        out.append(msub(matunit(i, j), matunit(-j, -i)))
        out.append(msub(matunit(j, i), matunit(-i, -j)))
        out.append(msub(matunit(i, -j), matunit(j, -i)))
        out.append(msub(matunit(-j, i), matunit(-i, j)))
    for k in (1, 2, 3):
        out.append(msub(mscale(2, matunit(k, 0)), matunit(0, -k)))
        out.append(msub(matunit(0, k), mscale(2, matunit(-k, 0))))
    for e, f in ((E1P, F1P), (E2P, F2P), (E3P, F3P)):
        out.append(bracket(e, f))
    return out


def _exact_div(m: Mat, d: int) -> Mat:
    """The polynomial matrix m divided by the integer d; ArithmeticError
    unless d divides every coefficient."""
    if any(v % d for e in m.values() for v in e.terms.values()):
        raise ArithmeticError(f"non-exact division by {d}")
    return {k: Poly({t: v // d for t, v in e.terms.items()}) for k, e in m.items()}


# ordering of the positive roots as in rootdata.POSITIVE_ROOTS
_A1, _A2, _A12, _A112, _A1112, _A11122 = POSITIVE_ROOTS


@lru_cache(maxsize=None)
def theta() -> dict[tuple[str, object], Mat]:
    """Images of the fourteen G2 basis elements, from the generators and the
    bracket recipes; the 1/2 and 1/3 divisions must be exact."""
    e1 = madd(E1P, E3P)
    e2 = E2P
    f1 = madd(F1P, F3P)
    f2 = F2P
    e12 = bracket(e1, e2)
    e112 = _exact_div(bracket(e1, e12), 2)
    e1112 = _exact_div(bracket(e1, e112), 3)
    e11122 = bracket(e2, e1112)
    f12 = mneg(bracket(f1, f2))
    f112 = _exact_div(bracket(f1, f12), -2)
    f1112 = _exact_div(bracket(f1, f112), -3)
    f11122 = mneg(bracket(f2, f1112))
    h1 = bracket(e1, f1)
    h2 = bracket(e2, f2)
    return {
        ("e", _A1): e1, ("e", _A2): e2, ("e", _A12): e12, ("e", _A112): e112,
        ("e", _A1112): e1112, ("e", _A11122): e11122,
        ("f", _A1): f1, ("f", _A2): f2, ("f", _A12): f12, ("f", _A112): f112,
        ("f", _A1112): f1112, ("f", _A11122): f11122,
        ("h", 1): h1, ("h", 2): h2,
    }


class CheckReport(NamedTuple):
    name: str
    checks: tuple[tuple[str, bool], ...]

    @property
    def passed(self) -> bool:
        return all(ok for _, ok in self.checks)

    def failures(self) -> list[str]:
        return [label for label, ok in self.checks if not ok]

    def to_text(self) -> str:
        lines = [f"{self.name}:"]
        for label, ok in self.checks:
            lines.append(f"  [{'ok' if ok else 'FAIL'}] {label}")
        lines.append("PASS" if self.passed else "FAIL")
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "checks": [{"label": l, "ok": ok} for l, ok in self.checks],
            "passed": self.passed,
        }


def _solve_in_span(basis: list[Mat], targets: list[Mat]
                   ) -> tuple[int, list[list[int | Fraction] | None]]:
    """Rank of the integer matrices in basis, and for each target its
    coordinates in their rational span, or None when it lies outside.

    One Gauss-Jordan elimination of [basis | targets] answers every target;
    the coordinates of a target are read off the pivot rows.  A pivot row is
    divided by its pivot only when that is not 1 or -1, so the entries stay
    ints until then, and each elimination step touches only the columns where
    the pivot row is nonzero."""
    cols, rank, pivots = len(basis), 0, []
    aug = [[0] * (cols + len(targets)) for _ in range(49)]  # 49 rows, one column per matrix
    for j, m in enumerate((*basis, *targets)):
        for (r, c), x in m.items():
            aug[7 * r + c][j] = x
    for col in range(cols):
        sel = next((r for r in range(rank, 49) if aug[r][col]), None)
        if sel is None:
            continue
        aug[rank], aug[sel] = aug[sel], aug[rank]
        prow = aug[rank]
        piv = prow[col]
        if piv == -1:
            prow = aug[rank] = [-x for x in prow]
        elif piv != 1:
            from fractions import Fraction  # the one pivot other than 1 or -1 is a -2
            inv = Fraction(1, piv)
            prow = aug[rank] = [x * inv for x in prow]
        support = [c for c, x in enumerate(prow) if x]
        for r in range(49):
            f = aug[r][col]
            if f and r != rank:
                row = aug[r]
                for c in support:
                    row[c] -= f * prow[c]
        pivots.append(col)
        rank += 1
    coords: list[list[int | Fraction] | None] = []
    for t in range(cols, cols + len(targets)):
        if any(aug[r][t] for r in range(rank, 49)):
            coords.append(None)
            continue
        sol = [0] * cols
        for r, col in enumerate(pivots):
            v = aug[r][t]
            sol[col] = v.numerator if v.denominator == 1 else v
        coords.append(sol)
    return rank, coords


def verify_embedding() -> CheckReport:
    """Linear independence, bracket closure, Chevalley relations, grading."""
    th = theta()
    checks: list[tuple[str, bool]] = []

    checks.append((
        "all 21 so7 basis matrices satisfy X^t B + B X = 0",
        all(in_orthogonal_lie_algebra(x) for x in so7_basis()),
    ))
    checks.append((
        "all 14 images lie in the orthogonal Lie algebra",
        all(in_orthogonal_lie_algebra(x) for x in th.values()),
    ))

    checks.append((
        "bracket-generated images match the closed-form constants",
        all(th[("e" if positive else "f", alpha)] == _closed_form(alpha.weight, positive)[1]
            for alpha in POSITIVE_ROOTS[2:] for positive in (True, False)),
    ))

    # the images are constant: the rest reads their integer matrices and one bracket table
    im = {k: to_int_matrix(m) for k, m in th.items()}
    ib = list(im.values())
    at = {k: n for n, k in enumerate(im)}  # the index in ib of each image
    pair_brackets = {(i, j): bracket(ib[i], ib[j]) for i in range(14) for j in range(14)}
    rank, coords = _solve_in_span(ib, list(pair_brackets.values()))
    checks.append(("the 14 images are linearly independent", rank == 14))
    solved = [c for c in coords if c is not None]
    checks.append(("brackets of images close in the span", len(solved) == len(coords)))
    checks.append(("structure constants are integers",
                   all(type(x) is int for c in solved for x in c)))

    # [h_i, e_alpha] = <alpha, alpha_i^v> e_alpha, and [h_i, f_alpha] = -<...> f_alpha
    graded: dict[tuple[Root, int], bool] = {}
    for alpha in POSITIVE_ROOTS:
        for i in (1, 2):
            coeff = pairing(alpha.weight, POSITIVE_ROOTS[i - 1])
            h, e, f = at[("h", i)], at[("e", alpha)], at[("f", alpha)]
            graded[(alpha, i)] = (pair_brackets[(h, e)] == mscale(coeff, ib[e])
                                  and pair_brackets[(h, f)] == mscale(-coeff, ib[f]))

    # [e_i, f_j] = delta_ij h_i, and [h_i, e_j], [h_i, f_j] are the grading at alpha_j
    rel_ok = all(graded[(POSITIVE_ROOTS[j - 1], i)] for i in (1, 2) for j in (1, 2))
    for i in (1, 2):
        for j in (1, 2):
            e, f = at[("e", POSITIVE_ROOTS[i - 1])], at[("f", POSITIVE_ROOTS[j - 1])]
            if pair_brackets[(e, f)] != (im[("h", i)] if i == j else zero_mat()):
                rel_ok = False
    checks.append(("Chevalley generator relations hold", rel_ok))
    checks.append(("the two Cartan images commute",
                   pair_brackets[(at[("h", 1)], at[("h", 2)])] == zero_mat()))
    checks.append(("root-space grading under both Cartan images", all(graded.values())))

    jacobi_ok = True
    for i in range(14):
        for j in range(i + 1, 14):
            if pair_brackets[(i, j)] != mneg(pair_brackets[(j, i)]):
                jacobi_ok = False
            for k in range(j + 1, 14):
                s = madd(
                    bracket(ib[i], pair_brackets[(j, k)]),
                    bracket(ib[j], pair_brackets[(k, i)]),
                    bracket(ib[k], pair_brackets[(i, j)]),
                )
                if s != zero_mat():
                    jacobi_ok = False
    checks.append(("antisymmetry and the Jacobi identity on all triples", jacobi_ok))

    return CheckReport("Lie algebra embedding", tuple(checks))


# ---------------------------------------------------------------------------
# root subgroups (closed forms) and coroots

# (root weight, positive) -> the (i, j, c) entries of the order-1 and order-2
# coefficient matrices of the root subgroup in the parameter.
_SUBGROUP_TERMS: dict[tuple[Weight, bool], tuple[tuple, tuple]] = {
    (_A1.weight, True): (((1, 2, 1), (3, 0, 2), (0, -3, -1), (-2, -1, -1)), ((3, -3, -1),)),
    (_A2.weight, True): (((2, 3, 1), (-3, -2, -1)), ()),
    (_A12.weight, True): (((1, 3, 1), (2, 0, -2), (0, -2, 1), (-3, -1, -1)), ((2, -2, -1),)),
    (_A112.weight, True): (((1, 0, -2), (2, -3, -1), (3, -2, 1), (0, -1, 1)), ((1, -1, -1),)),
    (_A1112.weight, True): (((1, -3, -1), (3, -1, 1)), ()),
    (_A11122.weight, True): (((1, -2, -1), (2, -1, 1)), ()),
    (_A1.weight, False): (((2, 1, 1), (0, 3, 1), (-3, 0, -2), (-1, -2, -1)), ((-3, 3, -1),)),
    (_A2.weight, False): (((3, 2, 1), (-2, -3, -1)), ()),
    (_A12.weight, False): (((3, 1, 1), (0, 2, -1), (-2, 0, 2), (-1, -3, -1)), ((-2, 2, -1),)),
    (_A112.weight, False): (((0, 1, -1), (-3, 2, -1), (-2, 3, 1), (-1, 0, 2)), ((-1, 1, -1),)),
    (_A1112.weight, False): (((-3, 1, -1), (-1, 3, 1)), ()),
    (_A11122.weight, False): (((-2, 1, -1), (-1, 2, 1)), ()),
}


@lru_cache(maxsize=None)
def _closed_form(weight: Weight, positive: bool) -> tuple[Mat, Mat, Mat]:
    """Coefficient matrices (order 0, 1, 2 in the parameter) of a root subgroup."""
    terms1, terms2 = _SUBGROUP_TERMS[(weight, positive)]
    return (identity_mat(),
            madd(zero_mat(), *(matunit(i, j, c) for i, j, c in terms1)),
            madd(zero_mat(), *(matunit(i, j, c) for i, j, c in terms2)))


def root_subgroup(alpha: Root, xi, positive: bool = True) -> Mat:
    """Closed-form root subgroup element at an integer or symbolic parameter."""
    c0, c1, c2 = _closed_form(alpha.weight, positive)
    x = Poly.coerce(xi)
    return madd(c0, mscale(x, c1), mscale(x * x, c2))


def nilpotent_exponential(n: Mat, xi) -> Mat:
    """exp(xi n) for n with n^3 = 0; the half division must be exact."""
    n2 = mmul(n, n)
    if mmul(n2, n) != zero_mat():
        raise ValueError("matrix is not nilpotent of order <= 3")
    x = Poly.coerce(xi)
    return madd(identity_mat(), mscale(x, n), mscale(x * x, _exact_div(n2, 2)))


def coroot(i: int, z: Poly = ZETA, zinv: Poly = ZETA_INV) -> Mat:
    """alpha_i^v(z) built from the Chevalley n-elements; zinv is the inverse of z."""
    if i not in (1, 2):
        raise ValueError("coroot index must be 1 or 2")
    if z * zinv != ONE:
        raise ValueError("zinv must be the inverse of z")
    alpha = POSITIVE_ROOTS[i - 1]

    def n_alpha(t, tinv):
        a = root_subgroup(alpha, t, True)
        b = root_subgroup(alpha, -tinv, False)
        return mmul(mmul(a, b), a)

    return mmul(n_alpha(z, zinv), n_alpha(-ONE, -ONE))


def coroot_diagonal_exponents(i: int) -> list[int]:
    """Exponent of zeta at each diagonal entry of alpha_i^v(zeta)."""
    m = coroot(i)
    out = []
    for k in range(7):
        entry = m.get((k, k), Poly())
        if len(entry.terms) != 1:
            raise ArithmeticError("coroot is not diagonal")
        (e1, e2), c = next(iter(entry.terms.items()))
        if e1 != 0 or c != 1:
            raise ArithmeticError(f"diagonal entry {k} of the coroot is not a power of zeta")
        out.append(e2)
    if any(r != c for r, c in m):
        raise ArithmeticError("coroot is not diagonal")
    return out


def weight_table() -> dict[int, Weight]:
    """Torus weight of each basis vector, read off the two coroot diagonals."""
    d1 = coroot_diagonal_exponents(1)
    d2 = coroot_diagonal_exponents(2)
    return {INDEX_ORDER[k]: Weight(d1[k], d2[k]) for k in range(7)}


# ---------------------------------------------------------------------------
# verification reports

_EXPECTED_COROOTS = {
    1: [1, -1, 2, 0, -2, 1, -1],
    2: [0, 1, -1, 0, 1, -1, 0],
}

_EXPECTED_WEIGHTS = {
    1: Weight(1, 0), 2: Weight(-1, 1), 3: Weight(2, -1), 0: Weight(0, 0),
    -3: Weight(-2, 1), -2: Weight(1, -1), -1: Weight(-1, 0),
}


def verify_subgroups() -> CheckReport:
    """Closed forms versus exponentials, form preservation, determinant one,
    the one-parameter law and torus conjugation, all as polynomial identities."""
    th = theta()
    checks: list[tuple[str, bool]] = []

    exp_ok = True
    form_ok = True
    det_ok = True
    add_ok = True
    for alpha in POSITIVE_ROOTS:
        for positive in (True, False):
            y = th[("e" if positive else "f", alpha)]
            g = root_subgroup(alpha, XI, positive)
            if g != nilpotent_exponential(y, XI):
                exp_ok = False
            if not preserves_form(g):
                form_ok = False
            if det7(g) != ONE:
                det_ok = False
            # one-parameter law with two independent symbols
            gz = root_subgroup(alpha, ZETA, positive)
            gxz = root_subgroup(alpha, XI + ZETA, positive)
            if mmul(g, gz) != gxz:
                add_ok = False
    checks.append(("closed forms equal the truncated exponentials", exp_ok))
    checks.append(("g^t B g = B for all twelve subgroups, symbolically", form_ok))
    checks.append(("det g = 1 for all twelve subgroups, symbolically", det_ok))
    checks.append(("one-parameter law x(s) x(t) = x(s+t)", add_ok))

    conj_ok = True
    for i in (1, 2):
        t, tinv = coroot(i), coroot(i, ZETA_INV, ZETA)
        for alpha in POSITIVE_ROOTS:
            for positive in (True, False):
                k = pairing(alpha.weight, POSITIVE_ROOTS[i - 1])
                if not positive:
                    k = -k
                lhs = mmul(mmul(t, root_subgroup(alpha, XI, positive)), tinv)
                rhs = root_subgroup(alpha, XI * Poly({(0, k): 1}), positive)
                if lhs != rhs:
                    conj_ok = False
    checks.append(("torus conjugation rescales by zeta^<beta, alpha^v>", conj_ok))

    checks.append((
        "coroot diagonals match the expected exponents",
        all(coroot_diagonal_exponents(i) == _EXPECTED_COROOTS[i] for i in (1, 2)),
    ))
    wt = weight_table()
    checks.append((
        "weight table matches the expected torus weights",
        all(wt[k] == _EXPECTED_WEIGHTS[k] for k in INDEX_ORDER),
    ))
    support = weyl_character(Weight(1, 0)).mult
    checks.append((
        "weight multiset equals the 7-dimensional module's support",
        sorted(wt.values()) == sorted(support) and all(support[w] == 1 for w in wt.values()),
    ))
    return CheckReport("root subgroups and coroots", tuple(checks))


def verify_mod_p(primes: tuple[int, ...] = (3, 5, 7, 11, 13),
                 samples: tuple[int, ...] = (1, 2, 3)) -> CheckReport:
    """Check the group laws on integer specializations modulo small primes,
    and detect the characteristic-2 degeneration of the ambient module.

    Each law is computed once over the integers; it holds modulo p exactly
    when p divides every entry of (left side - right side), because the
    product of the reductions is the reduction of the product."""
    checks: list[tuple[str, bool]] = []
    gram = to_int_matrix(GRAM)
    subgroups = [root_subgroup(alpha, XI, positive)
                 for alpha in POSITIVE_ROOTS for positive in (True, False)]
    points = {1, *samples, *(s + t for s in samples for t in samples)}
    ints = [{x: to_int_matrix(g, x) for x in points} for g in subgroups]

    residue: set[int] = set()  # entries that must vanish modulo each prime
    for g in ints:
        for s in samples:
            a = g[s]
            residue.update(msub(mmul(mtrans(a), mmul(gram, a)), gram).values())
            for t in samples:
                residue.update(msub(mmul(a, g[t]), g[s + t]).values())
    for p in primes:
        checks.append((f"group laws and form preservation hold mod {p}",
                       all(v % p == 0 for v in residue)))

    col = POS[0]
    off_center = {g[1].get((r, col), 0) for g in ints for r in range(7) if r != col}

    def fixes_center_line(p: int) -> bool:
        return all(v % p == 0 for v in off_center)

    checks.append(("characteristic 2 stabilizes the central line", fixes_center_line(2)))
    checks.append((
        "odd characteristics move the central line",
        all(not fixes_center_line(p) for p in primes),
    ))
    return CheckReport("reductions modulo small primes", tuple(checks))


def stabilizer_check() -> CheckReport:
    """Which root subgroups fix the distinguished line and plane."""
    checks: list[tuple[str, bool]] = []

    def column(g: Mat, label: int) -> list[Poly]:
        c = POS[label]
        return [g.get((r, c), 0) for r in range(7)]

    def fixes_line(g: Mat) -> bool:
        col = column(g, -1)
        return all(not col[r] for r in range(7) if r != POS[-1]) and col[POS[-1]] == ONE

    def preserves_plane(g: Mat) -> bool:
        for label in (-2, -1):
            col = column(g, label)
            for r in range(7):
                if r not in (POS[-2], POS[-1]) and col[r]:
                    return False
        return True

    # each parabolic holds every negative root subgroup and its simple root's positive one
    for simple, keeps, kind, verb, place in ((_A2, fixes_line, "long", "fixes", "line"),
                                             (_A1, preserves_plane, "short", "preserves", "plane")):
        inside = [(alpha, False) for alpha in POSITIVE_ROOTS] + [(simple, True)]
        outside = [(alpha, True) for alpha in POSITIVE_ROOTS if alpha is not simple]
        checks.append((f"the {kind}-root parabolic {verb} the last {place}",
                       all(keeps(root_subgroup(a, XI, pos)) for a, pos in inside)))
        checks.append((f"complementary subgroups move the last {place}",
                       all(not keeps(root_subgroup(a, XI, pos)) for a, pos in outside)))

    checks.append(("the identity fixes everything",
                   fixes_line(identity_mat()) and preserves_plane(identity_mat())))
    return CheckReport("stabilizers of the distinguished line and plane", tuple(checks))


class ChevalleyReport(tuple):
    """The four blocks of ``chevalley_verify``; it passes when each block does."""

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self)

    def to_json(self) -> dict:
        return {"reports": [r.to_json() for r in self], "passed": self.passed}

    def to_text(self) -> str:
        return "\n\n".join(r.to_text() for r in self) + ("\nPASS" if self.passed else "\nFAIL")


def chevalley_verify() -> ChevalleyReport:
    """All matrix-realization checks: embedding, subgroups, mod-p, stabilizers."""
    return ChevalleyReport((verify_embedding(), verify_subgroups(), verify_mod_p(),
                            stabilizer_check()))
