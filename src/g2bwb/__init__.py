"""Exact computations around line-bundle cohomology, exceptional collections
and Frobenius pushforwards on the two G2 flag varieties, plus the integral
realization of G2 inside SO7.  Pure integer and rational arithmetic
throughout; no floating point anywhere."""

from .rootdata import ParabolicId, Weight
from .charring import Character, FilteredPModule, PString, weyl_dim
from .cohomology import BottResult, bott_line, linked, lowest_alcove
from .extcollection import ExtTable, SheafObject, ext_table, full_collection_report
from .karoubi import verify_generation
from .modchar import rank_identity_check, simple_character

__all__ = [
    "ParabolicId", "Weight", "Character", "FilteredPModule", "PString",
    "BottResult", "bott_line", "linked", "lowest_alcove",
    "ExtTable", "SheafObject", "ext_table", "full_collection_report",
    "verify_generation", "rank_identity_check", "simple_character", "weyl_dim",
]
