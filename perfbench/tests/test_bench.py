"""The benchmark runner: its specification, inputs, output checks and runs."""

import json
import re
import shutil
import subprocess
import sys

import pytest

import metrics
import run
import workloads
from conftest import BENCH

ROOT = BENCH.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_benchmark_json_is_the_spec():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec == metrics.benchmark_spec()


def test_spec_respects_its_limits():
    spec = metrics.benchmark_spec()
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in spec["workloads"])
    metrics_ = spec["end_to_end"] + spec["per_layer"]
    assert all(UNIT.fullmatch(m["unit"]) and m["better"] in ("lower", "higher") for m in metrics_)
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert 1 <= len(spec["per_layer"]) <= 128


def test_every_per_layer_metric_names_what_it_should_move():
    e2e = {name for name, *_ in metrics.END_TO_END}
    for name, _, _, (moves, on) in metrics.PER_LAYER:
        assert set(moves) <= e2e, name
        assert on and set(on) <= set(workloads.WORKLOADS), name


def test_inputs_come_from_the_seed():
    for w in workloads.WORKLOADS:
        assert workloads.make_inputs(w, 5) == workloads.make_inputs(w, 5)
    a, b = workloads.make_inputs("ext_sweep", 1), workloads.make_inputs("ext_sweep", 2)
    assert a != b and len(set(a["primes"])) == workloads.EXT_PRIMES
    assert all(11 <= p < 1000 for p in a["primes"])
    assert workloads.primes_between(11, 30) == [11, 13, 17, 19, 23, 29]


def test_checks_reject_wrong_reports():
    good = {"passed": True, "weighted_sum": 7 ** 5, "surviving_assignments": 1}
    assert workloads.check("rank_p7", {"p": 7}, json.dumps(good)) == []
    assert workloads.check("rank_p7", {"p": 7}, json.dumps(dict(good, weighted_sum=1)))
    assert workloads.check("rank_p7", {"p": 7}, json.dumps(dict(good, surviving_assignments=2)))
    assert workloads.check("rank_p7", {"p": 7}, "PASS")
    shuffled = {"run": "shuffled", "seed": 3, "complete": True, "known_equal": False}
    gen = {"complete": True, "replay_ok": True, "targets": 231, "reached": 231}
    lines = [gen, dict(gen, targets=19, reached=19), {"lengths": [1, 2, 3]}, shuffled, gen]
    out = "\n".join(json.dumps(x) for x in lines)
    assert workloads.check("karoubi_c5", {"shuffles": [3]}, out) == [
        "a shuffled closure is incomplete or its known set differs"]


def test_per_layer_reports_every_metric():
    assert set(run.per_layer([])) == {name for name, *_ in metrics.PER_LAYER}


@pytest.mark.parametrize("workload, inputs", [("ext_sweep", {"primes": [11, 997]}), ("so7", {})])
def test_traced_output_hashes_equal_untraced(workload, inputs):
    runner = run.Runner(ROOT, workload, seed=0)
    runner.inputs = inputs
    plain, traced = runner.op(traced=False), runner.op(traced=True)
    assert plain.problems == [] and traced.problems == []
    assert plain.sha256 == traced.sha256
    assert set(traced.layers) == {n for n, *_ in metrics.PER_LAYER
                                  if not n.startswith(("cli.", "trace_overhead"))}
    if workload == "ext_sweep":
        assert traced.layers["extcollection.cell.calls"] > 0
    else:
        assert traced.layers["chevalley.root_subgroup.calls"] > 0


def test_exits_nonzero_without_the_package():
    bare = ROOT / ".perfbench" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        p = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "so7", "--seed", "1",
                            "--seconds", "1", "--trace", "0"],
                           cwd=bare, capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(bare)
    assert p.returncode != 0
    assert p.stdout == ""
