"""Exact computations around line-bundle cohomology, exceptional collections
and Frobenius pushforwards on the two G2 flag varieties, plus the integral
realization of G2 inside SO7.  Pure integer and rational arithmetic
throughout; no floating point anywhere.

Each submodule runs on first use: importing the package, or ``g2bwb.cli``,
executes none of them, so a CLI command compiles and runs only the modules on
its own path (``report chevalley`` never loads ``karoubi`` or ``modchar``).
The submodules are registered in ``sys.modules`` through
``importlib.util.LazyLoader`` rather than imported inside functions, because
code that reads ``sys.modules`` after ``import g2bwb.cli`` (the benchmark's
tracer) must find every one of them; reading any attribute of one loads it.
The public names of ``__all__`` are served the same way, by ``__getattr__``.
"""

import importlib.util
import sys


def _lazy(name: str):
    """The submodule ``name``, registered in ``sys.modules`` and executed when
    one of its attributes is first read (the recipe of the importlib docs)."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    loader.exec_module(module)
    return module


rootdata = _lazy("rootdata")
weyl = _lazy("weyl")
charring = _lazy("charring")
cohomology = _lazy("cohomology")
extcollection = _lazy("extcollection")
karoubi = _lazy("karoubi")
modchar = _lazy("modchar")
chevalley = _lazy("chevalley")

# public name -> the submodule that defines it
_HOME = {
    "ParabolicId": rootdata, "Weight": rootdata,
    "Character": charring, "FilteredPModule": charring, "PString": charring,
    "weyl_dim": charring,
    "BottResult": cohomology, "bott_line": cohomology, "linked": cohomology,
    "lowest_alcove": cohomology,
    "ExtTable": extcollection, "SheafObject": extcollection, "ext_table": extcollection,
    "full_collection_report": extcollection,
    "verify_generation": karoubi,
    "rank_identity_check": modchar, "simple_character": modchar,
}
__all__ = list(_HOME)


def __getattr__(name: str):
    if name in _HOME:
        return getattr(_HOME[name], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
