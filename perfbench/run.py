"""Cold-process benchmark of the g2bwb CLI and library.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root (any directory whose ``src/g2bwb`` holds the
package).  Every operation runs in a fresh interpreter, one at a time, because
every CLI invocation starts with empty ``lru_cache``s and users pay that cost.
Each operation's output is checked and hashed with sha256.  Operations repeat
on the seed's inputs until ``--seconds`` have passed.

``--trace 0`` reports the end-to-end metrics: the median wall time of one
operation over that of a fixed reference computation, the median peak
resident memory of an operation's child, and the median set-up time (spawn,
``import g2bwb.cli``, exit).  ``--trace 1`` alternates untraced and traced
operations and reports the per-layer metrics of ``metrics.PER_LAYER``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the machine, the seed and the output hashes, and the full record of
the run is written under ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import metrics
import workloads

SETUP_PER_OP = 2  # set-up and reference spawns before each untraced operation
TIME_LIMIT_S = 165.0  # a run stops starting children after this, whatever --seconds says
LAUNCHER = Path(__file__).resolve().parent / "launch.py"

# A fixed job that does not touch g2bwb: start an interpreter and import some
# of the standard library, which costs about what ``import g2bwb.cli`` does.
# Two such runs precede every untraced operation, and wall_rel divides the
# operations' median time by theirs.  On a shared host the machine's speed
# drifts by tens of percent over minutes, and much of the drift cancels in the
# ratio; a pure arithmetic loop tracked the drift worse.
REFERENCE = ("import argparse, asyncio, dataclasses, email.message, fractions, http.client, "
             "inspect, json, logging, random, statistics, tarfile, typing, unittest, "
             "xml.dom.minidom, zipfile")


@dataclass
class Child:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    code: int
    timed_out: bool
    stdout: bytes
    stderr: bytes


def spawn(argv: list[str], env: dict, cwd: Path, work: Path, timeout: float) -> Child:
    """Run one child to its end through ``launch.py``, which times it from
    spawn to exit and takes its CPU time and peak memory from ``os.wait4``."""
    out_path, err_path, res_path = work / "child.out", work / "child.err", work / "child.res"
    res_path.unlink(missing_ok=True)
    timed_out = False
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-S", str(LAUNCHER), str(res_path), *argv],
                                stdin=subprocess.DEVNULL, stdout=out, stderr=err, env=env, cwd=cwd)
        try:
            proc.wait(timeout=max(timeout, 0.001))
        except subprocess.TimeoutExpired:
            timed_out = True
        finally:
            if proc.returncode is None:  # timed out or interrupted: the launcher kills the child
                proc.terminate()
                proc.wait()
        elapsed = time.perf_counter() - start
    stdout, stderr = out_path.read_bytes(), err_path.read_bytes()
    try:
        wall, cpu, rss_kib, code = res_path.read_text().split()
    except (OSError, ValueError):
        return Child(elapsed, 0.0, 0.0, proc.returncode or -1, timed_out, stdout, stderr)
    return Child(float(wall), float(cpu), int(rss_kib) / 1024.0, int(code), timed_out, stdout, stderr)


def child_env(root: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "G2BWB_LOG")}
    env["PYTHONPATH"] = str(root / "src")
    return env


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git; "unknown"
    outside a git repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(root: Path, seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": f"{platform.system()}-{platform.release()}-{platform.machine()}",
        "commit": git_commit(root),
        "seed": seed,
    }


@dataclass
class Op:
    traced: bool
    child: Child
    sha256: str
    problems: list[str]
    layers: dict | None


class Runner:
    """Spawns the children of one benchmark run, one at a time."""

    def __init__(self, root: Path, workload: str, seed: int):
        self.root = root
        self.workload = workload
        self.inputs = workloads.make_inputs(workload, seed)
        self.env = child_env(root)
        self.work = root / ".perfbench"
        self.work.mkdir(exist_ok=True)
        self.started = time.perf_counter()

    def remaining(self) -> float:
        return TIME_LIMIT_S - (time.perf_counter() - self.started)

    def python(self, code: str) -> Child:
        return spawn([sys.executable, "-c", code], self.env, self.root, self.work, self.remaining())

    def check_import(self) -> str | None:
        """Why g2bwb cannot be imported from the checkout's sources, or None.
        Where bytecode caching is on, this first import also writes the cache,
        outside any timing."""
        c = self.python("import g2bwb.cli; print(g2bwb.cli.__file__)")
        if c.code != 0:
            return c.stderr.decode(errors="replace").strip() or f"exit code {c.code}"
        where = Path(c.stdout.decode().strip()).resolve()
        if not where.is_relative_to((self.root / "src").resolve()):
            return f"g2bwb was imported from {where}, not from {self.root / 'src'}"
        return None

    def op(self, traced: bool) -> Op:
        argv = [sys.executable, str(self.root / "perfbench" / "child.py"),
                self.workload, json.dumps(self.inputs)]
        spans_path = self.work / "spans.json"
        if traced:
            spans_path.unlink(missing_ok=True)
            argv.append(str(spans_path))
        c = spawn(argv, self.env, self.root, self.work, self.remaining())
        problems = []
        if c.timed_out:
            problems.append("killed at the run's time limit")
        elif c.code != 0:
            tail = c.stderr.decode(errors="replace").strip().splitlines()[-1:]
            problems.append(f"exit code {c.code}: {' '.join(tail)}")
        try:
            problems += workloads.check(self.workload, self.inputs, c.stdout.decode())
        except UnicodeDecodeError:
            problems.append("output is not UTF-8")
        layers = None
        if traced and not problems:
            with open(spans_path) as f:
                layers = metrics.layer_values(json.load(f))
        return Op(traced, c, hashlib.sha256(c.stdout).hexdigest(), problems, layers)

    def ops(self, seconds: float, trace: bool) -> tuple[list[Op], list[Child], list[Child]]:
        """Operations until ``seconds`` have passed, each untraced one after
        two set-up spawns (``import g2bwb.cli`` and exit) and two reference
        runs, so that both sample the whole run.  With ``trace``, untraced and traced operations alternate, each
        kind runs at least once, and there are no set-up or reference runs."""
        done: list[Op] = []
        setup: list[Child] = []
        refs: list[Child] = []
        start = time.perf_counter()
        while self.remaining() > 0:
            kinds = {o.traced for o in done}
            complete = len(kinds) == 2 if trace else bool(done)
            if complete and time.perf_counter() - start >= seconds:
                break
            if not trace:
                setup += [self.python("import g2bwb.cli") for _ in range(SETUP_PER_OP)]
                refs += [self.python(REFERENCE) for _ in range(SETUP_PER_OP)]
            done.append(self.op(traced=trace and len(done) % 2 == 1))
        if done:
            first = done[0].sha256
            for o in done[1:]:
                if o.sha256 != first:
                    o.problems.append("output differs from the run's first operation")
        return done, setup, refs


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end(ops: list[Op], setup: list[Child], refs: list[Child]) -> dict[str, float]:
    wall = _median([o.child.wall_s for o in ops])
    reference = _median([c.wall_s for c in refs])
    return {
        "wall_rel": wall / reference if reference else 0.0,
        "peak_rss_mb": _median([o.child.peak_rss_mb for o in ops]),
        "setup_s": _median([c.wall_s for c in setup]),
    }


def per_layer(ops: list[Op]) -> dict[str, float]:
    plain = [o.child for o in ops if not o.traced]
    traced = [o for o in ops if o.traced]
    layers = [o.layers for o in traced if o.layers is not None]
    # median_low keeps a count a whole number; counts agree across traced operations
    out = {name: statistics.median_low([v[name] for v in layers])
           for name in (layers[0] if layers else {})}
    untraced_wall = _median([c.wall_s for c in plain])
    traced_wall = _median([o.child.wall_s for o in traced])
    out["cli.cpu_s"] = _median([c.cpu_s for c in plain])
    out["trace_overhead"] = traced_wall / untraced_wall if untraced_wall else 0.0
    out["trace_overhead.traced_wall_s"] = traced_wall
    out["trace_overhead.untraced_wall_s"] = untraced_wall
    return {name: out.get(name, 0.0) for name, *_ in metrics.PER_LAYER}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "g2bwb" / "cli.py").is_file():
        print(f"no g2bwb sources at {root / 'src' / 'g2bwb'}", file=sys.stderr)
        return 2
    runner = Runner(root, args.workload, args.seed)
    why_not = runner.check_import()
    if why_not:
        print(f"cannot import g2bwb: {why_not}", file=sys.stderr)
        return 2

    ops, setup, refs = runner.ops(args.seconds, bool(args.trace))
    values = per_layer(ops) if args.trace else end_to_end(ops, setup, refs)
    units = {name: unit for name, unit, *_ in metrics.END_TO_END + metrics.PER_LAYER}

    failed = sum(1 for o in ops if o.problems)
    setup_ok = all(c.code == 0 for c in setup + refs)
    for o in ops:
        for problem in o.problems:
            print(f"{'traced' if o.traced else 'untraced'} operation failed: {problem}",
                  file=sys.stderr)
    if not setup_ok:
        print("a set-up or reference spawn failed", file=sys.stderr)

    record = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": environment(root, args.seed),
        "inputs": runner.inputs,
        "samples": {"untraced": sum(not o.traced for o in ops),
                    "traced": sum(o.traced for o in ops), "setup": len(setup)},
        "fail_ratio": failed / len(ops) if ops else 1.0,
        "wall_s": _median([o.child.wall_s for o in ops if not o.traced]),
        "reference_s": _median([c.wall_s for c in refs]),
        "output_sha256": sorted({o.sha256 for o in ops}),
        "metrics": values,
    }
    results = runner.work / "results"
    results.mkdir(exist_ok=True)
    detail = dict(record,
                  setup_wall_s=[c.wall_s for c in setup],
                  reference_wall_s=[c.wall_s for c in refs],
                  operations=[{"traced": o.traced, "wall_s": o.child.wall_s, "cpu_s": o.child.cpu_s,
                               "peak_rss_mb": o.child.peak_rss_mb, "exit_code": o.child.code,
                               "sha256": o.sha256, "problems": o.problems, "layers": o.layers}
                              for o in ops])
    out_file = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(detail, indent=1, sort_keys=True) + "\n")

    print(json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0 and setup_ok and bool(ops),
        "attempted": max(len(ops), 1),
        "failed": failed if ops else 1,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
