"""Reference definitions that only the tests read, built on the package's internals."""

from functools import lru_cache

from g2bwb import weyl
from g2bwb.charring import TRIVIAL, Character
from g2bwb.cohomology import costandard_times
from g2bwb.modchar import _expand, _jantzen_row
from g2bwb.rootdata import ALPHA1, ALPHA2, Weight


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
