"""Keep one core out of idle at the lowest scheduling priority.

Usage: ``python3 perfbench/keepawake.py CPU`` (runs until killed).

While a serve workload is measured, one of these spins on every core.
Under ``SCHED_IDLE`` it runs only when nothing else wants the core, so
it takes no time from the server or the generator; what it removes is
the wake-up latency of an idle virtual CPU, which on a shared host can
add milliseconds to every wake-up and would otherwise show in the
event latencies as host noise.  Without ``SCHED_IDLE`` it exits at once
rather than compete for the core.
"""

from __future__ import annotations

import os
import sys


def main(argv: list[str]) -> int:
    try:
        os.sched_setaffinity(0, {int(argv[0])})
        os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
    except (AttributeError, IndexError, OSError, ValueError):
        return 1
    while True:
        pass


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
