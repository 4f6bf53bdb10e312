"""The benchmark's workloads: inputs made from the seed, the operation a
child interpreter runs on them, and the check of that operation's output.

The parent process (run.py) only calls ``make_inputs`` and ``check``; it never
imports g2bwb.  ``run_op`` runs inside a fresh child interpreter, because every
CLI invocation starts with empty ``lru_cache``s and users pay that cost.
"""

from __future__ import annotations

import json
import random

RANK_P = 7
EXT_PRIMES = 40
KAROUBI_SHUFFLES = 4
KAROUBI_BIG_BOX = 24

# One line each, copied into BENCHMARK.json.
WHY = {
    "rank_p7": "report rank --p 7 in one cold CLI process: modchar peeling and "
               "charring support_max/tensor do nearly all the work; karoubi and chevalley none",
    "karoubi_c5": "criterion 5 closures (short, long, 4 seed-shuffled short) and report karoubi "
                  "--box 24: karoubi seed/close/replay do nearly all the work, rebuilding rules in 7 seed calls",
    "ext_sweep": "report collection and frobenius on both parabolics at 40 seed-sampled primes "
                 "in [11, 1000): extcollection cells and cohomology with bott_line cache misses",
    "so7": "report chevalley in one cold CLI process: only the chevalley Poly/Fraction matrix "
           "layer works; guards the 5 s gate of criterion 6",
}
WORKLOADS = tuple(WHY)


def primes_between(lo: int, hi: int) -> list[int]:
    """Primes p with lo <= p < hi."""
    return [n for n in range(max(lo, 2), hi) if all(n % d for d in range(2, int(n ** 0.5) + 1))]


def make_inputs(workload: str, seed: int) -> dict:
    """The generated inputs of one operation; the same seed gives the same inputs."""
    rng = random.Random(seed)
    if workload == "rank_p7":
        return {"p": RANK_P}
    if workload == "karoubi_c5":
        return {"shuffles": [rng.randrange(2 ** 32) for _ in range(KAROUBI_SHUFFLES)]}
    if workload == "ext_sweep":
        # one prime from each of EXT_PRIMES consecutive blocks, so that every
        # seed spans the range and asks for about the same work
        primes = primes_between(11, 1000)
        n = len(primes)
        return {"primes": [rng.choice(primes[i * n // EXT_PRIMES:(i + 1) * n // EXT_PRIMES])
                           for i in range(EXT_PRIMES)]}
    if workload == "so7":
        return {}
    raise ValueError(f"unknown workload {workload}")


def _ext_argvs(primes: list[int]) -> list[list[str]]:
    return [["report", kind, "--parabolic", par, "--p", str(p), "--format", "json"]
            for p in primes for kind in ("collection", "frobenius") for par in ("short", "long")]


def run_op(workload: str, inputs: dict) -> int:
    """Run one operation, printing its output; returns the exit code."""
    from g2bwb import cli

    if workload == "rank_p7":
        return cli.main(["report", "rank", "--p", str(inputs["p"]), "--format", "json"])
    if workload == "so7":
        return cli.main(["report", "chevalley", "--format", "json"])
    if workload == "ext_sweep":
        codes = [cli.main(argv) for argv in _ext_argvs(inputs["primes"])]
        return next((c for c in codes if c), 0)
    if workload == "karoubi_c5":
        return _karoubi_op(inputs["shuffles"], cli)
    raise ValueError(f"unknown workload {workload}")


def _karoubi_op(shuffles: list[int], cli) -> int:
    from g2bwb.karoubi import line_class, verify_generation
    from g2bwb.rootdata import ParabolicId, Weight

    rep_s, kb_s = verify_generation(ParabolicId.SHORT)
    print(json.dumps({"run": "short", **rep_s.to_json()}, sort_keys=True))
    rep_l, kb_l = verify_generation(ParabolicId.LONG)
    print(json.dumps({"run": "long", **rep_l.to_json()}, sort_keys=True))
    corners = ((kb_s, Weight(-10, -10)), (kb_s, Weight(10, 0)), (kb_l, Weight(-12, 0)))
    print(json.dumps({"run": "chains", "lengths": [len(kb.chain(line_class(w))) for kb, w in corners]}))
    baseline = frozenset(kb_s.known)
    for k in shuffles:
        rep, kb = verify_generation(ParabolicId.SHORT, rng=random.Random(k))
        print(json.dumps({"run": "shuffled", "seed": k, "complete": rep.complete,
                          "known_equal": frozenset(kb.known) == baseline}, sort_keys=True))
    return cli.main(["report", "karoubi", "--box", str(KAROUBI_BIG_BOX), "--format", "json"])


def _json_lines(stdout: str) -> list[dict]:
    return [json.loads(line) for line in stdout.splitlines() if line.strip()]


def check(workload: str, inputs: dict, stdout: str) -> list[str]:
    """Problems found in one operation's output; empty when it is correct."""
    try:
        lines = _json_lines(stdout)
    except json.JSONDecodeError as e:
        return [f"output is not JSON lines: {e}"]
    if workload == "rank_p7":
        return _check_rank(lines, inputs["p"])
    if workload == "karoubi_c5":
        return _check_karoubi(lines, inputs["shuffles"])
    if workload == "ext_sweep":
        return _check_ext(lines, inputs["primes"])
    if workload == "so7":
        return _check_so7(lines)
    raise ValueError(f"unknown workload {workload}")


def _check_rank(lines: list[dict], p: int) -> list[str]:
    if len(lines) != 1:
        return [f"expected one report, got {len(lines)}"]
    rep = lines[0]
    out = []
    if rep.get("passed") is not True:
        out.append("rank report did not pass")
    if rep.get("weighted_sum") != p ** 5:
        out.append(f"weighted_sum {rep.get('weighted_sum')} != {p ** 5}")
    if rep.get("surviving_assignments") != 1:
        out.append(f"surviving_assignments {rep.get('surviving_assignments')} != 1")
    return out


def _generation_ok(rep: dict, targets: int) -> bool:
    return (rep.get("complete") is True and rep.get("replay_ok") is True
            and rep.get("targets") == targets and rep.get("reached") == targets)


def _check_karoubi(lines: list[dict], shuffles: list[int]) -> list[str]:
    if len(lines) != 4 + len(shuffles):
        return [f"expected {4 + len(shuffles)} lines, got {len(lines)}"]
    short, long_, chains, *shuffled, big = lines
    out = []
    if not _generation_ok(short, 231):
        out.append("short-root closure did not reach its 231 targets with replay")
    if not _generation_ok(long_, 19):
        out.append("long-root closure did not reach its 19 targets with replay")
    if not all(chains.get("lengths", [0])):
        out.append("an audit chain of a corner target is empty")
    if [s.get("seed") for s in shuffled] != shuffles:
        out.append("shuffled closures ran out of order")
    if not all(s.get("complete") is True and s.get("known_equal") is True for s in shuffled):
        out.append("a shuffled closure is incomplete or its known set differs")
    if not _generation_ok(big, 231):
        out.append(f"box-{KAROUBI_BIG_BOX} report did not reach its 231 targets with replay")
    return out


def _check_ext(lines: list[dict], primes: list[int]) -> list[str]:
    argvs = _ext_argvs(primes)
    if len(lines) != len(argvs):
        return [f"expected {len(argvs)} reports, got {len(lines)}"]
    out = []
    for argv, rep in zip(argvs, lines):
        if rep.get("passed") is not True or rep.get("p") != int(argv[5]) or rep.get("parabolic") != argv[3]:
            out.append(f"report {' '.join(argv)} did not pass")
    return out


def _check_so7(lines: list[dict]) -> list[str]:
    if len(lines) != 1:
        return [f"expected one report, got {len(lines)}"]
    doc = lines[0]
    reports = doc.get("reports", [])
    out = []
    if doc.get("passed") is not True or not reports:
        out.append("chevalley report did not pass")
    for rep in reports:
        if rep.get("passed") is not True or not all(c.get("ok") is True for c in rep.get("checks", [])):
            out.append(f"check report {rep.get('name')!r} did not pass")
    labels = {c.get("label"): c.get("ok") for rep in reports for c in rep.get("checks", [])}
    for p in (3, 5, 7, 11, 13):
        if labels.get(f"group laws and form preservation hold mod {p}") is not True:
            out.append(f"mod-{p} group laws missing or failed")
    return out
