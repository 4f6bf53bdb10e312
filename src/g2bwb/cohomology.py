"""Line-bundle cohomology on the flag variety of G2, and the table algebra
that certifies the Ext tables of sheaves on its two P1-fibrations.

``bott_line`` evaluates the cohomology of a line bundle on the full flag
variety: it vanishes when the rho-shift is singular and otherwise sits in a
single degree, the number of positive coroots made negative.  So
``costandard_times`` can multiply a costandard-basis row by a torus character
(Brauer-Klimyk, Jantzen RAGS II.5).  ``linked`` and
``affine_normal_form`` decide the p-dot linkage classes.  ``p_threshold`` is
the prime from which ``affine_normal_form`` of a weight, and ``lowest_alcove``
of a dominant one, no longer depend on p.

A table maps each degree to a multiset of dominant weights, the Weyl-character
factors in that degree.  Evaluating a filtered sheaf atom by atom gives an
upper bound; it is exact when no linkage class shows up in two degrees, since
then no boundary map connects two contributions (``linkage_collision``).
``combine`` meets the bounds that different presentations of one object give
and solves the per-weight alternating-sum constraints against the Euler
characteristic (``certify``); that recovers the exact table whenever the
constraints pin a unique solution.
"""

from __future__ import annotations

import itertools
from collections import Counter
from functools import lru_cache
from typing import NamedTuple

from .rootdata import DEFAULT_P, POSITIVE_ROOTS, RHO, Weight, ZERO
from .charring import Character
from . import weyl

# The wall used for affine reduction: the positive root with highest coroot.
_BETA = Weight(1, 0)  # 2*alpha1 + alpha2 as a weight


def _beta_pair(x: Weight) -> int:
    return 2 * x.a + 3 * x.b


class BottResult(NamedTuple):
    """Either vanishing or concentration in one degree."""

    vanishes: bool
    degree: int = -1
    weight: Weight = ZERO
    caveat: bool = False

    def __str__(self) -> str:
        if self.vanishes:
            return "VANISHES"
        return f"H^{self.degree} = nabla{self.weight}"


@lru_cache(maxsize=None)
def bott_line(lam: Weight, p: int = DEFAULT_P) -> BottResult:
    """Cohomology of the line bundle of weight lam on the full flag variety."""
    x = lam + RHO
    if any(alpha.pair(x) == 0 for alpha in POSITIVE_ROOTS):
        return BottResult(vanishes=True)
    degree = sum(1 for alpha in POSITIVE_ROOTS if alpha.pair(x) < 0)
    out = weyl.dominant_conjugate(x) - RHO
    caveat = degree >= 2 or not lowest_alcove(out, p)
    return BottResult(vanishes=False, degree=degree, weight=out, caveat=caveat)


def costandard_times(row: Character, char: Character) -> Character:
    """The costandard-basis row of row (x) char, for char a torus character:
    nabla(nu) (x) e^kappa is the Euler characteristic of nu + kappa, a signed
    costandard character or zero."""
    acc: dict[Weight, int] = {}
    for nu, c in row.mult.items():
        for kappa, m in char.mult.items():
            r = bott_line(nu + kappa)
            if not r.vanishes:
                acc[r.weight] = acc.get(r.weight, 0) + (-1) ** r.degree * c * m
    return Character(acc)


def lowest_alcove(lam: Weight, p: int = DEFAULT_P) -> bool:
    """True iff 0 < <lam+rho, alpha^v> <= p for every positive root: lam is dominant
    and its rho-shift pairs to at most p with the highest coroot."""
    return lam.is_dominant() and 2 * lam.a + 3 * lam.b + 5 <= p


def p_threshold(x: Weight) -> int:
    """The largest <y, alpha^v> over the positive roots, y the dominant
    conjugate of x: the least p from which ``affine_normal_form(x, p)`` is y,
    and, for dominant x, from which ``lowest_alcove(x - rho, p)`` holds."""
    return _beta_pair(weyl.dominant_conjugate(x))


def affine_normal_form(x: Weight, p: int) -> Weight:
    """Unique representative of the p-dilated affine Weyl orbit of x in the
    closed dominant fundamental domain."""
    if p < 2:
        raise ValueError(f"p must be at least 2, got {p}")
    while True:
        x = weyl.dominant_conjugate(x)
        t = _beta_pair(x)
        if t <= p:
            return x
        x = x - _BETA.scaled(t - p)


def linked(lam: Weight, mu: Weight, p: int = DEFAULT_P) -> bool:
    """True iff the two weights lie in one p-dot affine Weyl orbit."""
    return affine_normal_form(lam + RHO, p) == affine_normal_form(mu + RHO, p)


Degrees = dict[int, Counter]  # degree -> multiset of dominant Weights
Frozen = tuple[tuple[int, tuple[Weight, ...]], ...]  # sorted, empty degrees dropped


class Bound(NamedTuple):
    """A table bounding Ext from above along one route; exact if it is the table."""

    by_degree: Degrees
    exact: bool


def freeze(by_degree: Degrees) -> Frozen:
    return tuple(
        (d, tuple(sorted(cnt.elements())))
        for d, cnt in sorted(by_degree.items())
        if cnt.total()
    )


def meet(a: Degrees, b: Degrees) -> Degrees:
    """Degreewise multiset intersection of two bounds on one table."""
    out: Degrees = {}
    for d in set(a) & set(b):
        m = a[d] & b[d]
        if m.total():
            out[d] = m
    return out


def contains(big: Degrees, small: Degrees) -> bool:
    return all(cnt <= big.get(d, Counter()) for d, cnt in small.items())


def euler_characteristic(by_degree: Degrees) -> dict[Weight, int]:
    """Alternating sum of a table in the Weyl basis, zero entries dropped."""
    out: dict[Weight, int] = {}
    for d, cnt in by_degree.items():
        for w, m in cnt.items():
            out[w] = out.get(w, 0) + (-1) ** d * m
    return {k: v for k, v in out.items() if v}


def linkage_collision(by_degree: Degrees, p: int) -> bool:
    """True if one linkage class shows up in two distinct degrees."""
    seen: dict[Weight, set[int]] = {}
    for d, cnt in by_degree.items():
        for w in cnt:
            nf = affine_normal_form(w + RHO, p)
            seen.setdefault(nf, set()).add(d)
    return any(len(ds) > 1 for ds in seen.values())


class EulerMismatch(ValueError):
    """Two tables claimed to present the same object disagree on Euler data."""


def _solve_box(nd: dict[int, int], chi: int) -> list[dict[int, int]] :
    """All t with 0 <= t_d <= n_d and alternating sum chi."""
    degs = sorted(nd)
    sols = []
    for combo in itertools.product(*(range(nd[d] + 1) for d in degs)):
        if sum((-1) ** d * t for d, t in zip(degs, combo)) == chi:
            sols.append(dict(zip(degs, combo)))
    return sols


def certify(by_degree: Degrees, euler: dict[Weight, int]) -> tuple[Degrees, bool, list[Weight]]:
    """Resolve an upper bound against its Euler constraint, weight by weight.

    Returns the (possibly pruned) table, an exactness flag, and the list of
    weights whose multiplicities the constraints do not pin down.
    """
    weights = set(euler)
    for cnt in by_degree.values():
        weights.update(cnt)
    out: Degrees = {}
    ambiguous: list[Weight] = []
    for w in sorted(weights):
        nd = {d: cnt[w] for d, cnt in by_degree.items() if cnt[w]}
        chi = euler.get(w, 0)
        sols = _solve_box(nd, chi)
        if not sols:
            raise EulerMismatch(f"no solution for weight {w}: bound {nd}, chi {chi}")
        if len(sols) == 1:
            for d, t in sols[0].items():
                if t:
                    out.setdefault(d, Counter())[w] += t
        else:
            ambiguous.append(w)
            for d, t in nd.items():
                out.setdefault(d, Counter())[w] += t
    return out, not ambiguous, ambiguous


def combine(routes: list[Bound], chi: dict[Weight, int]) -> tuple[Frozen, bool]:
    """The table certified by the bounds of several routes for one object.

    An exact route is the table: every other exact route must equal it, every
    bound must contain it, and its alternating sum must be chi.  Without one,
    the meet of all bounds is certified against chi weight by weight.
    Returns the frozen table and its exactness flag.
    """
    exact_routes = [r for r in routes if r.exact]
    if exact_routes:
        base = exact_routes[0].by_degree
        frozen = freeze(base)
        for r in exact_routes[1:]:
            if freeze(r.by_degree) != frozen:
                raise EulerMismatch("two exact routes disagree")
        for r in routes:
            if not contains(r.by_degree, base):
                raise EulerMismatch("exact route not within another bound")
        if euler_characteristic(base) != chi:
            raise EulerMismatch("exact route contradicts the Euler characteristic")
        return frozen, True
    inter = routes[0].by_degree
    for r in routes[1:]:
        inter = meet(inter, r.by_degree)
    pruned, exact, _ambiguous = certify(inter, chi)
    return freeze(pruned), exact
