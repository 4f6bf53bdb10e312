"""Span tracing of g2bwb from the outside, for the traced benchmark run.

``install`` wraps public functions and methods of the g2bwb modules after they
are imported; the package itself is not changed.  A module-level function is
replaced in every g2bwb module that imported it, and a method on its class.
Each call records a span ``(name, start, end, parent)`` in memory; ``dump``
writes them out when the operation ends.

``rootdata`` and ``weyl`` are not wrapped: their leaf functions run millions of
times per operation, so wrapping them would measure the wrapper instead of the
code.  Their cost shows in their callers' self time.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from typing import Callable

# (module, attribute, span name); a dotted attribute is a method on its class.
TARGETS = (
    ("g2bwb.cli", "main", "cli.main"),
    ("g2bwb.modchar", "_resolution", "modchar.resolution"),
    ("g2bwb.modchar", "CharacterOracle.__init__", "modchar.oracle"),
    ("g2bwb.modchar", "CharacterOracle.simple", "modchar.simple"),
    ("g2bwb.modchar", "CharacterOracle.radical_counts", "modchar.radical_counts"),
    ("g2bwb.modchar", "_identity_sides", "modchar.identity_sides"),
    ("g2bwb.charring", "Character.support_max", "charring.support_max"),
    ("g2bwb.charring", "Character.tensor", "charring.tensor"),
    ("g2bwb.charring", "weyl_character", "charring.weyl_character"),
    ("g2bwb.charring", "decompose_costandard", "charring.decompose_costandard"),
    ("g2bwb.charring", "restrict_to_P", "charring.restrict_to_P"),
    ("g2bwb.charring", "clebsch_gordan_P", "charring.clebsch_gordan_P"),
    ("g2bwb.cohomology", "bott_line", "cohomology.bott_line"),
    ("g2bwb.cohomology", "affine_normal_form", "cohomology.affine_normal_form"),
    ("g2bwb.extcollection", "ExtEngine.cell", "extcollection.cell"),
    ("g2bwb.extcollection", "full_collection_report", "extcollection.full_collection_report"),
    ("g2bwb.extcollection", "frobenius_report", "extcollection.frobenius_report"),
    ("g2bwb.karoubi", "seed", "karoubi.seed"),
    ("g2bwb.karoubi", "close", "karoubi.close"),
    ("g2bwb.karoubi", "KnowledgeBase.replay", "karoubi.replay"),
    ("g2bwb.chevalley", "verify_embedding", "chevalley.verify_embedding"),
    ("g2bwb.chevalley", "verify_subgroups", "chevalley.verify_subgroups"),
    ("g2bwb.chevalley", "verify_mod_p", "chevalley.verify_mod_p"),
    ("g2bwb.chevalley", "stabilizer_check", "chevalley.stabilizer_check"),
    ("g2bwb.chevalley", "root_subgroup", "chevalley.root_subgroup"),
    ("g2bwb.chevalley", "_solve_in_span", "chevalley.solve_in_span"),
    ("g2bwb.chevalley", "to_int_matrix", "chevalley.to_int_matrix"),
)

# Work-size counts taken at the same boundaries: span name -> hook(tracer, args, result).
COUNTERS: dict[str, Callable] = {
    "charring.support_max": lambda t, args, res: t.add("charring.support_max.support_weights",
                                                       len(args[0].mult)),
    "karoubi.seed": lambda t, args, res: t.add("karoubi.seed.rules", len(res.rules)),
    "karoubi.close": lambda t, args, res: t.add("karoubi.close.known", len(res.known)),
    "extcollection.cell": lambda t, args, res: t.see("extcollection.cell.distinct",
                                                     (args[1].key, args[2].key, args[0].p)),
}

# lru_cache objects whose cache_info() is read when the operation ends.
CACHES = (
    ("g2bwb.charring", "weyl_character", "charring.weyl_character"),
    ("g2bwb.charring", "restrict_to_P", "charring.restrict_to_P"),
    ("g2bwb.cohomology", "bott_line", "cohomology.bott_line"),
)


class Tracer:
    """Records spans of wrapped calls and counts, in memory."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list = []  # (name index, start, end, parent span index or -1)
        self.counts: dict[str, int] = {}
        self.distinct: dict[str, set] = {}
        self._name_index: dict[str, int] = {}
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []
        self._caches: dict[str, Callable] = {}

    def add(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def see(self, key: str, item) -> None:
        self.distinct.setdefault(key, set()).add(item)

    def wrap(self, name: str, fn: Callable, count: Callable | None = None) -> Callable:
        """fn wrapped so that every call records a span named ``name``."""
        nid = self._name_index.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (nid, start, end, parent)
            if count is not None:
                count(self, args, result)
            return result

        for attr in ("cache_info", "cache_clear"):
            if hasattr(fn, attr):
                setattr(wrapper, attr, getattr(fn, attr))
        return wrapper

    def _replace(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                           else getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Import g2bwb and wrap every target in place."""
        import g2bwb.cli  # noqa: F401  (imports every module that is wrapped)

        package = [m for n, m in sys.modules.items() if n == "g2bwb" or n.startswith("g2bwb.")]
        for modname, attr, name in CACHES:
            self._caches[name] = getattr(sys.modules[modname], attr)
        for modname, attr, name in TARGETS:
            mod = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                self._replace(cls, meth, self.wrap(name, cls.__dict__[meth], COUNTERS.get(name)))
                continue
            orig = getattr(mod, attr)
            wrapper = self.wrap(name, orig, COUNTERS.get(name))
            for m in package:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        self._replace(m, key, wrapper)

    def uninstall(self) -> None:
        """Put back everything ``install`` replaced."""
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    def document(self) -> dict:
        """Spans, counts and cache statistics as one JSON-ready record."""
        counts = dict(self.counts)
        counts.update({k: len(v) for k, v in self.distinct.items()})
        return {
            "names": self.names,
            "spans": self.spans,
            "counts": counts,
            "caches": {name: fn.cache_info()._asdict() for name, fn in self._caches.items()},
        }

    def dump(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump(self.document(), f, separators=(",", ":"))


def self_times(spans: list) -> list[float]:
    """Each span's duration minus the time its direct child spans cover.

    Spans come from one thread, so the children of a span lie inside it and
    do not overlap one another."""
    out = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def summarize(names: list[str], spans: list) -> dict[str, dict]:
    """Per span name: calls, summed self time, and inclusive time.

    Inclusive time counts only the outermost span of a recursion, so a
    recursive function's time is not counted twice."""
    out = {name: {"calls": 0, "self_s": 0.0, "s": 0.0} for name in names}
    for (nid, start, end, parent), own in zip(spans, self_times(spans)):
        entry = out[names[nid]]
        entry["calls"] += 1
        entry["self_s"] += own
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != nid:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            entry["s"] += end - start
    return out
