"""The benchmark's metrics: names, units, directions, bounds, and for each
per-layer metric the end-to-end metric and workload it should move.

BENCHMARK.json is ``benchmark_spec()`` written out; a test keeps the two equal.
"""

from __future__ import annotations

from workloads import WHY, WORKLOADS
from tracer import summarize

RUN_SECONDS = 25

# name, unit, better, bound (share of the parent's median it may worsen by)
END_TO_END = (
    # median spawn-to-exit time of one operation over the median time of the
    # reference job run beside it (see run.REFERENCE)
    ("wall_rel", "ref", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),  # median peak resident memory of one operation's child
    ("setup_s", "s", "lower", 0.25),       # median spawn, import g2bwb.cli, exit
)

RANK = (("wall_rel",), ("rank_p7",))
KAROUBI = (("wall_rel", "peak_rss_mb"), ("karoubi_c5",))
EXT = (("wall_rel",), ("ext_sweep",))
SO7 = (("wall_rel",), ("so7",))

# name, unit, better, (end-to-end metrics it should move, on these workloads)
PER_LAYER = (
    ("modchar.resolution_s", "s", "lower", RANK),
    ("modchar.oracles", "count", "lower", RANK),
    ("modchar.simple.calls", "count", "lower", RANK),
    ("modchar.simple.self_s", "s", "lower", RANK),
    ("modchar.radical_counts.calls", "count", "lower", RANK),
    ("modchar.radical_counts.self_s", "s", "lower", RANK),
    ("modchar.identity_sides.self_s", "s", "lower", RANK),
    ("charring.support_max.calls", "count", "lower", RANK),
    ("charring.support_max.self_s", "s", "lower", RANK),
    ("charring.support_max.support_weights", "count", "lower", RANK),
    ("charring.tensor.calls", "count", "lower", RANK),
    ("charring.tensor.self_s", "s", "lower", RANK),
    ("charring.weyl_character.misses", "count", "lower", RANK),
    ("charring.weyl_character.self_s", "s", "lower", RANK),
    ("charring.decompose_costandard.calls", "count", "lower", RANK),
    ("charring.decompose_costandard.self_s", "s", "lower", RANK),
    ("charring.restrict_to_P.hit_ratio", "ratio", "higher", KAROUBI),
    ("charring.clebsch_gordan_P.calls", "count", "lower", EXT),
    ("charring.clebsch_gordan_P.self_s", "s", "lower", EXT),
    ("cohomology.bott_line.calls", "count", "lower", EXT),
    ("cohomology.bott_line.hit_ratio", "ratio", "higher", EXT),
    ("cohomology.bott_line.self_s", "s", "lower", EXT),
    ("cohomology.affine_normal_form.calls", "count", "lower", EXT),
    ("cohomology.affine_normal_form.self_s", "s", "lower", EXT),
    ("extcollection.cell.calls", "count", "lower", EXT),
    ("extcollection.cell.self_s", "s", "lower", EXT),
    ("extcollection.cell.distinct_ratio", "ratio", "higher", EXT),
    ("extcollection.full_collection_report.s", "s", "lower", EXT),
    ("extcollection.frobenius_report.s", "s", "lower", EXT),
    ("karoubi.seed.calls", "count", "lower", KAROUBI),
    ("karoubi.seed.self_s", "s", "lower", KAROUBI),
    ("karoubi.seed.rules", "count", "lower", KAROUBI),
    ("karoubi.close.self_s", "s", "lower", KAROUBI),
    ("karoubi.close.known", "count", "lower", KAROUBI),
    ("karoubi.replay.s", "s", "lower", KAROUBI),
    ("chevalley.verify_embedding.s", "s", "lower", SO7),
    ("chevalley.verify_subgroups.s", "s", "lower", SO7),
    ("chevalley.verify_mod_p.s", "s", "lower", SO7),
    ("chevalley.stabilizer_check.s", "s", "lower", SO7),
    ("chevalley.root_subgroup.calls", "count", "lower", SO7),
    ("chevalley.solve_in_span.calls", "count", "lower", SO7),
    ("chevalley.to_int_matrix.calls", "count", "lower", SO7),
    # user+sys CPU of an untraced child: tells less work from less waiting
    ("cli.cpu_s", "s", "lower", (("wall_rel",), WORKLOADS)),
    # traced over untraced wall_s, with both bases
    ("trace_overhead", "ratio", "lower", ((), WORKLOADS)),
    ("trace_overhead.traced_wall_s", "s", "lower", ((), WORKLOADS)),
    ("trace_overhead.untraced_wall_s", "s", "lower", ((), WORKLOADS)),
)


def benchmark_spec() -> dict:
    """The content of BENCHMARK.json."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WHY.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b, _ in PER_LAYER],
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_values(doc: dict) -> dict[str, float]:
    """The per-layer metrics of one traced operation, from its trace document
    (see ``tracer.Tracer.document``).  The cli and trace_overhead entries come
    from the parent's wall and CPU times, not from spans."""
    spans = summarize(doc["names"], doc["spans"])
    zero = {"calls": 0, "self_s": 0.0, "s": 0.0}
    counts, caches = doc["counts"], doc["caches"]
    out: dict[str, float] = {}
    for name, unit, _, _ in PER_LAYER:
        if name.startswith(("cli.", "trace_overhead")):
            continue
        layer, _, stat = name.rpartition(".")
        if name == "modchar.resolution_s":
            out[name] = spans.get("modchar.resolution", zero)["s"]
        elif name == "modchar.oracles":
            out[name] = spans.get("modchar.oracle", zero)["calls"]
        elif stat in ("calls", "self_s", "s"):
            out[name] = spans.get(layer, zero)[stat]
        elif stat == "misses":
            out[name] = caches[layer]["misses"]
        elif stat == "hit_ratio":
            info = caches[layer]
            out[name] = _ratio(info["hits"], info["hits"] + info["misses"])
        elif stat == "distinct_ratio":
            out[name] = _ratio(counts.get(layer + ".distinct", 0), spans.get(layer, zero)["calls"])
        else:
            out[name] = counts.get(name, 0)
    return out
