"""Reference definitions that only the tests read, built on the package's internals."""

from functools import lru_cache

from g2bwb import weyl
from g2bwb.charring import TRIVIAL, Character
from g2bwb.cohomology import costandard_times
from g2bwb.extcollection import FROBENIUS_SUMMANDS, object_by_name
from g2bwb.modchar import (CharacterOracle, InconsistentChoice, Undecided, _expand,
                           _jantzen_row, restricted_weight)
from g2bwb.rootdata import ALPHA1, ALPHA2, POSITIVE_ROOTS, ZERO, ParabolicId, Weight


def simple_root_as_weight(i: int) -> Weight:
    """Simple root alpha_i written in fundamental-weight coordinates."""
    if i == 1:
        return ALPHA1.weight
    if i == 2:
        return ALPHA2.weight
    raise ValueError(f"simple root index must be 1 or 2, got {i}")


def euler_character(mu: Weight) -> Character:
    """Weyl-Euler characteristic of an arbitrary weight, as a virtual character."""
    return _expand(costandard_times(TRIVIAL, Character.line(mu)))


@lru_cache(maxsize=None)
def jantzen_sum(lam: Weight, p: int) -> Character:
    """Sum of the characters of the Jantzen layers below the top."""
    return _expand(_jantzen_row(lam, p))


def descents(w: weyl.WeylElement) -> list[int]:
    """Right descents: the i with length(w s_i) < length(w)."""
    out = []
    for i in (1, 2):
        if not weyl.is_positive_root_weight(weyl.act(w, simple_root_as_weight(i))):
            out.append(i)
    return out


@lru_cache(maxsize=None)
def socle(parabolic: ParabolicId) -> tuple[tuple[weyl.WeylElement, int, Character], ...]:
    """For each w in ``weyl.minimal_reps`` order: the total rank and the total
    character of the F_*O summands whose multiplicity space holds L(w), read
    straight from ``extcollection.FROBENIUS_SUMMANDS``."""
    rank = dict.fromkeys(weyl.minimal_reps(parabolic), 0)
    char = {w: Character() for w in rank}
    for name, words in FROBENIUS_SUMMANDS[parabolic]:
        obj = object_by_name(parabolic, name)
        for word in words:
            w = weyl.from_word(word)
            rank[w] += obj.rank()
            char[w] = char[w] + obj.filtration.character()
    return tuple((w, rank[w], char[w]) for w in rank)


def unpruned_resolution(p: int) -> tuple[CharacterOracle, ...]:
    """The rank-identity search without the per-summand cut: every branch
    runs until the p^5 count of both parabolics, then the torus character
    identity of ``torus_lhs`` and ``verma_by_series``."""
    expected = p ** 5
    survivors = []
    stack = [CharacterOracle(p)]
    while stack:
        oracle = stack.pop()
        try:
            weighted = [sum(rank * oracle._dim(restricted_weight(w, p)) for w, rank, _ in socle(par))
                        for par in ParabolicId]
        except Undecided as u:
            for a in range(1, u.certificate[u.choice[1]] + 1):
                stack.append(CharacterOracle(p, {**oracle.choices, u.choice: a}, oracle._rows))
            continue
        except InconsistentChoice:
            continue
        if any(w != expected for w in weighted):
            continue
        if all(torus_lhs(par, oracle) == verma_by_series(par, p) for par in ParabolicId):
            survivors.append(oracle)
    return tuple(survivors)


def torus_lhs(parabolic: ParabolicId, oracle: CharacterOracle) -> Character:
    """The torus character sum_w L(w) (x) (sum of the ch(E_j) whose V_j holds
    L(w))^[p], grouped by w from ``socle``."""
    return sum((oracle.simple(restricted_weight(w, oracle.p)).tensor(soc.stretch(oracle.p))
                for w, _, soc in socle(parabolic)), Character())


@lru_cache(maxsize=None)
def verma_by_series(parabolic: ParabolicId, p: int) -> Character:
    """The Verma torus character as a product of geometric series
    sum_{j<p} e^{-j alpha} over the positive roots outside the Levi."""
    out = Character.line(ZERO)
    for alpha in POSITIVE_ROOTS:
        if alpha is not parabolic.simple_root:
            out = out.tensor(Character({(-alpha.weight).scaled(j): 1 for j in range(p)}))
    return out
