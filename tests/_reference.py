"""Reference definitions that only the tests read, built on the package's internals."""

from functools import lru_cache

from g2bwb import weyl
from g2bwb.charring import TRIVIAL, Character
from g2bwb.cohomology import costandard_times
from g2bwb.modchar import _expand, _jantzen_row
from g2bwb.rootdata import Weight, simple_root_as_weight


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
