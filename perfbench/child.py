"""One benchmark operation in a fresh interpreter.

    python3 perfbench/child.py WORKLOAD INPUTS_JSON [TRACE_FILE]

With TRACE_FILE, g2bwb is wrapped by ``tracer.Tracer`` before the operation
and the spans are written there when it ends.  The exit code is the
operation's.
"""

import json
import sys

import workloads


def main(argv: list[str]) -> int:
    workload, inputs = argv[0], json.loads(argv[1])
    if len(argv) < 3:
        return workloads.run_op(workload, inputs)
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        return workloads.run_op(workload, inputs)
    finally:
        tracer.dump(argv[2])


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
