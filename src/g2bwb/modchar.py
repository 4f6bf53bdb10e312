"""Modular character oracle: the Jantzen sum formula and simple characters
for the restricted weights the pushforward bookkeeping needs.

Simple characters are kept in the Weyl-character basis, each as its
unitriangular row: a ``Character`` over dominant weights nu that holds the
coefficient of nabla(nu).  The Jantzen sum arrives in that basis, since the
Euler characteristic of a weight is a signed nabla (``bott_line``), and
``radical_counts`` peels composition factors off it (``Character.peel``)
over the few dominant weights of a linkage class.  A factor counted once
across the layers is decided; one counted m >= 2 times may sit in the
radical with any multiplicity from 1 to m, and that is surfaced as an
``Undecided`` exception naming the choice point, never guessed.  Jantzen sums
and Steinberg products are rows built by ``cohomology.costandard_times``
(Brauer-Klimyk), and a row becomes a torus character only where one is read.

``rank_identity_check`` confronts the characters with the parabolic Verma
module of the Frobenius kernel, of dimension p^5, as Weyl numerators: both
sides times Delta = e^rho prod_{alpha>0} (1 - e^{-alpha}).  By the Weyl
character formula, ch nabla(nu) Delta = sum_{x in W} sgn(x) e^{x(nu + rho)}
(``_numerator``), and the Verma side has at most 64 terms
(``_verma_numerator``).  Laurent polynomials over Z have no zero divisors, so
equal numerators give equal characters, and so equal dimensions.  The left
side and the search read one table, ``_summands``: each summand E_j (x) V_j
of F_*O in ``extcollection.FROBENIUS_SUMMANDS``, with the L(w) of V_j and
dim V_j from ``extcollection.multiplicity_dims`` (Euler characteristics
alone).  ``_resolution`` runs one depth-first search from the sum-formula
oracle: an open choice point forks a branch once per admissible
multiplicity, and a branch with a negative character is pruned.  So is a
branch where the simple dimensions of one summand do not add up to dim V_j.
The summands are checked in increasing height of their highest restricted
weight, and a row reads only rows of lower height, so a wrong choice fails
at the first summand whose rows read it.  A branch that passes every summand
and whose numerators agree on both parabolics survives; its two sides then
have one dimension, the weighted sum of the dim L(w) and p^5, so the
identity makes the p^5 count too.  The check passes only if exactly one
survives, and every caller reads that survivor and its rows.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .rootdata import POSITIVE_ROOTS, RHO, ZERO, ParabolicId, Weight, restricted_split
from .charring import TRIVIAL, Character, weyl_character, weyl_dim
from .cohomology import DEFAULT_P, costandard_times, lowest_alcove
from .extcollection import FROBENIUS_SUMMANDS, multiplicity_dims, object_by_name
from . import weyl


def _expand(row: Character) -> Character:
    """Torus character of a combination of costandard characters."""
    out = Character()
    for nu, c in row.mult.items():
        out.isub_scaled(weyl_character(nu), -c)
    return out


@lru_cache(maxsize=None)
def _dominant_part(nu: Weight) -> tuple[tuple[Weight, int], ...]:
    """The dominant weights of nabla(nu) with their multiplicities."""
    return tuple((mu, m) for mu, m in weyl_character(nu).mult.items() if mu.is_dominant())


@lru_cache(maxsize=None)
def _jantzen_row(lam: Weight, p: int) -> Character:
    """Sum of the Jantzen layers below the top, in the costandard basis."""
    if not lam.is_dominant():
        raise ValueError(f"weight must be dominant, got {lam}")
    layers: dict[Weight, int] = {}
    x = lam + RHO
    for alpha in POSITIVE_ROOTS:
        top = alpha.pair(x)
        q = p  # the reflection at n < top counts v_p(n) times: once per power of p dividing n
        while q < top:
            for n in range(q, top, q):
                mu = lam - alpha.weight.scaled(top - n)
                layers[mu] = layers.get(mu, 0) + 1
            q *= p
    return costandard_times(TRIVIAL, Character(layers))


class Undecided(Exception):
    """The sum formula leaves a radical multiplicity open."""

    def __init__(self, lam: Weight, p: int, certificate: dict[Weight, int],
                 choice: tuple[Weight, Weight] | None = None):
        self.lam = lam
        self.p = p
        self.certificate = certificate
        self.choice = choice  # (lam, mu) of the first open choice point
        super().__init__(f"multiplicities at {lam} undecided: {certificate}")


class InconsistentChoice(Exception):
    """An assignment of open multiplicities produced a non-character."""


def restricted_weight(w: weyl.WeylElement, p: int) -> Weight:
    """Highest weight of the simple module L(w) at p: the restricted part
    of w . 0."""
    return restricted_split(weyl.dot(w, ZERO), p)[0]


class CharacterOracle:
    """Simple characters at one prime, with explicit choice resolution.

    ``choices[(lam, mu)] = a`` fixes the radical multiplicity of the factor
    at mu inside the costandard module at lam when the sum formula counts it
    more than once.  With no choices supplied the oracle raises Undecided at
    the first open point.  ``seed_cache`` holds costandard rows computed
    under a subset of the present choices; they stay valid, so each branch of
    the resolution search starts from its parent's rows.
    """

    def __init__(self, p: int, choices: dict[tuple[Weight, Weight], int] | None = None,
                 seed_cache: dict[Weight, Character] | None = None):
        if p < 2:
            raise ValueError("p must be a prime at least 2")
        self.p = p
        self.choices = dict(choices or {})
        self._rows: dict[Weight, Character] = dict(seed_cache or {})
        self._torus: dict[Weight, Character] = {}

    def radical_counts(self, lam: Weight) -> dict[Weight, int]:
        """Composition multiplicities of the radical of the costandard module."""
        counts: dict[Weight, int] = {}
        for mu, c in _jantzen_row(lam, self.p).peel(self._row):
            if c <= 0:
                raise ArithmeticError(f"negative layer count at {mu} below {lam}")
            counts[mu] = c
        resolved: dict[Weight, int] = {}
        for mu, c in counts.items():
            a = 1 if c == 1 else self.choices.get((lam, mu))
            if a is None:
                raise Undecided(lam, self.p, counts, (lam, mu))
            if not 1 <= a <= c:
                raise InconsistentChoice(f"choice {a} for {(lam, mu)} outside [1,{c}]")
            resolved[mu] = a
        return resolved

    def _row(self, lam: Weight) -> Character:
        """The simple character at lam in the costandard basis."""
        if lam in self._rows:
            return self._rows[lam]
        if not lam.is_dominant():
            raise ValueError(f"weight must be dominant, got {lam}")
        lam0, lam1 = restricted_split(lam, self.p)
        out = Character.line(lam)
        if lam1 != ZERO:  # Steinberg: L(lam) = L(lam0) (x) L(lam1)^[p]
            out = costandard_times(self._row(lam0), self.simple(lam1).stretch(self.p))
        elif not lowest_alcove(lam, self.p):
            for mu, a in self.radical_counts(lam).items():
                out.isub_scaled(self._row(mu), a)
            dominant: dict[Weight, int] = {}
            for nu, c in out.mult.items():
                for mu, m in _dominant_part(nu):
                    dominant[mu] = dominant.get(mu, 0) + c * m
            if any(v < 0 for v in dominant.values()):
                raise InconsistentChoice(f"negative character at {lam}")
            if out.coeff(lam) != 1:
                raise InconsistentChoice(f"malformed character at {lam}")
        self._rows[lam] = out
        return out

    def _dim(self, lam: Weight) -> int:
        return sum(c * weyl_dim(nu) for nu, c in self._row(lam).mult.items())

    def simple(self, lam: Weight) -> Character:
        """Torus character of the simple module at lam, expanded once."""
        if lam not in self._torus:
            self._torus[lam] = _expand(self._row(lam))
        return self._torus[lam]


def simple_character(lam: Weight, p: int = DEFAULT_P) -> Character:
    """Character of the simple module of highest weight lam; raises
    Undecided when the sum formula leaves a multiplicity open."""
    return CharacterOracle(p).simple(lam)


def _numerator(row: Character) -> Character:
    """Weyl numerator of a combination of costandard characters: its torus
    character times the Weyl denominator, sum_nu c_nu sum_x sgn(x) e^{x(nu + rho)}."""
    out: dict[Weight, int] = {}
    for nu, c in row.mult.items():
        for x in weyl.ALL_ELEMENTS:
            mu = weyl.act(x, nu + RHO)
            out[mu] = out.get(mu, 0) + (-1) ** x.length * c
    return Character(out)


@lru_cache(maxsize=None)
def _verma_numerator(parabolic: ParabolicId, p: int) -> Character:
    """Torus character of the rank-p^5 Verma module of the Frobenius kernel
    times the Weyl denominator: (e^rho - e^{rho - beta}) prod_{alpha != beta}
    (1 - e^{-p alpha}), with beta the Levi root; at most 64 terms."""
    beta = parabolic.simple_root
    out = Character({RHO: 1, RHO - beta.weight: -1})
    for alpha in POSITIVE_ROOTS:
        if alpha is not beta:
            out = out.tensor(Character({ZERO: 1, alpha.weight.scaled(-p): -1}))
    return out


@lru_cache(maxsize=None)
def _summands(p: int) -> tuple[tuple[ParabolicId, int, Character, tuple[Weight, ...], int], ...]:
    """Each summand E_j (x) V_j of F_*O on both parabolics: its parabolic, the
    rank of E_j, the character of E_j stretched by p, the restricted weights
    of the L(w) in V_j and dim V_j from ``extcollection.multiplicity_dims``;
    in increasing height 3a + 5b of its highest restricted weight (stable,
    short summands first at a tie)."""
    out = []
    for par in ParabolicId:
        dims = multiplicity_dims(par, p)
        for name, words in FROBENIUS_SUMMANDS[par]:
            obj = object_by_name(par, name)
            lams = tuple(restricted_weight(weyl.from_word(word), p) for word in words)
            out.append((par, obj.rank(), obj.filtration.character().stretch(p), lams, dims[name]))
    return tuple(sorted(out, key=lambda s: max(3 * a + 5 * b for a, b in s[3])))


def _identity_sides(parabolic: ParabolicId, oracle: CharacterOracle
                    ) -> tuple[Character, Character]:
    """Both sides of the identity times the Weyl denominator: the numerator of
    sum_{L(w) in V_j} L(w), tensored with ch(E_j)^[p] and summed over j, and
    the Verma numerator."""
    lhs = Character()
    for par, _, stretched, lams, _ in _summands(oracle.p):
        if par is parabolic:
            row = sum(map(oracle._row, lams), Character())
            lhs.isub_scaled(_numerator(row).tensor(stretched), -1)
    return lhs, _verma_numerator(parabolic, oracle.p)


class RankIdentityReport(NamedTuple):
    parabolic: ParabolicId
    p: int
    dims: dict[str, int]
    weighted_sum: int
    decided_by: str  # "sum_formula" or "identity_resolution"
    choice_points: tuple[str, ...]
    surviving_assignments: int

    @property
    def passed(self) -> bool:
        # the search keeps an assignment only where both numerators agree; equal
        # numerators give equal characters, so the p^5 count and the zero weight
        return self.surviving_assignments == 1

    dims_match = character_match = zero_weight_match = passed

    @property
    def expected(self) -> int:
        return self.p ** 5

    def to_json(self) -> dict:
        out = self._asdict()
        for name in ("expected", "dims_match", "character_match", "zero_weight_match", "passed"):
            out[name] = getattr(self, name)
        out.update(parabolic=self.parabolic.name.lower(), choice_points=list(self.choice_points))
        return out

    def to_text(self) -> str:
        lines = [f"rank identity at p={self.p} ({self.parabolic.name.lower()} root):"]
        for k, v in self.dims.items():
            lines.append(f"  dim L({k or 'e'}) = {v}")
        lines.append(f"  weighted dimension sum = {self.weighted_sum} (expected {self.expected})")
        lines.append(f"  character identity coefficientwise: {self.character_match}")
        lines.append(f"  decided by: {self.decided_by}")
        for c in self.choice_points:
            lines.append(f"  open multiplicity resolved: {c}")
        if self.decided_by == "identity_resolution":
            lines.append(f"  admissible assignments surviving: {self.surviving_assignments}")
        lines.append("PASS" if self.passed else "FAIL")
        return "\n".join(lines)


@lru_cache(maxsize=None)
def _resolution(p: int) -> tuple[CharacterOracle, ...]:
    """The oracles whose choice assignments satisfy both parabolic identities,
    by the depth-first search the module docstring describes.  A branch is
    cut at the first summand, in increasing height, whose simple dimensions
    do not add up to its dim V_j; each row reads only rows of lower height,
    so a wrong choice fails at the first summand whose rows read it.  No p^5
    count runs: equal numerators give equal characters, whose dimensions are
    the weighted dimension sum and p^5."""
    survivors = []
    stack = [CharacterOracle(p)]
    while stack:
        oracle = stack.pop()
        try:
            if any(sum(map(oracle._dim, lams)) != m for *_, lams, m in _summands(p)):
                continue  # some V_j has the wrong dimension
        except Undecided as u:
            for a in range(1, u.certificate[u.choice[1]] + 1):
                stack.append(CharacterOracle(p, {**oracle.choices, u.choice: a}, oracle._rows))
            continue
        except InconsistentChoice:
            continue
        if all(lhs == rhs for lhs, rhs in (_identity_sides(par, oracle) for par in ParabolicId)):
            survivors.append(oracle)
    return tuple(survivors)


def _decision(oracle: CharacterOracle) -> tuple[str, tuple[str, ...]]:
    """How a surviving oracle was decided, and the open multiplicities it pins."""
    points = tuple(f"[nabla{lam}:L{mu}] = {a}" for (lam, mu), a in sorted(oracle.choices.items()))
    return "identity_resolution" if points else "sum_formula", points


def resolved_oracle(p: int = DEFAULT_P) -> tuple[CharacterOracle, str, tuple[str, ...]]:
    """The unique oracle that satisfies the rank-p^5 identities, how it was
    decided, and the open multiplicities it resolved.  The oracle is the
    survivor ``_resolution`` caches and shares with every caller at p: read
    it, never change its choices."""
    survivors = _resolution(p)
    if len(survivors) != 1:
        raise Undecided(ZERO, p, {}, None)
    return (survivors[0], *_decision(survivors[0]))


def rank_identity_check(p: int = DEFAULT_P,
                        parabolic: ParabolicId = ParabolicId.SHORT) -> RankIdentityReport:
    """Check the p^5 bookkeeping as an exact identity of Weyl numerators,
    resolving sum-formula ambiguities through the identity itself when
    necessary, and report the weighted dimension sum it implies."""
    survivors = _resolution(p)
    if len(survivors) != 1:
        return RankIdentityReport(parabolic, p, {}, -1, "identity_resolution", (),
                                  len(survivors))
    oracle = survivors[0]
    weighted = sum(rank * sum(map(oracle._dim, lams))
                   for par, rank, _, lams, _ in _summands(p) if par is parabolic)
    dims = {str(w): oracle._dim(restricted_weight(w, p)) for w in weyl.minimal_reps(parabolic)}
    return RankIdentityReport(parabolic, p, dims, weighted, *_decision(oracle), 1)
