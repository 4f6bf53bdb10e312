"""Spawn one child, wait for it, and write its wall time and resource use.

    python3 -S perfbench/launch.py RESULT_FILE PROGRAM [ARG ...]

RESULT_FILE receives one line: wall seconds (spawn to exit), user+sys CPU
seconds, peak resident KiB and exit code, the last three from ``os.wait4``.

On Linux a child's ``ru_maxrss`` is at least the peak of the process that
spawned it, because exec records the old address space's high-water mark.
The benchmark's parent grows as it checks outputs, so it spawns every child
through this small launcher, whose own peak stays below any child's.
SIGTERM makes the launcher kill the child and still wait for it.
"""

import os
import signal
import sys
import time


def main() -> int:
    result, argv = sys.argv[1], sys.argv[2:]
    signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGTERM})
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ, setsigmask=())
    signal.signal(signal.SIGTERM, lambda *_: os.kill(pid, signal.SIGKILL))
    signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGTERM})
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    code = os.waitstatus_to_exitcode(status)
    with open(result, "w") as f:
        f.write(f"{wall!r} {usage.ru_utime + usage.ru_stime!r} {usage.ru_maxrss} {code}\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
