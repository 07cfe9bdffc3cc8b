"""Set-up probe: one fresh interpreter doing a run's set-up, then the clock.

``python3 perfbench/probe.py WORKLOAD SEED`` performs exactly the set-up
of a benchmark run (imports, work directory, hosts file) and prints the
CLOCK_MONOTONIC reading in nanoseconds at the moment the run would make
its first public call.  ``run.py`` reads the clock before starting the
probe, so the difference is the set-up time from process start.
"""

import sys
import time

import harness


def main() -> None:
    ctx = harness.prepare(sys.argv[1], int(sys.argv[2]))
    ready = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    harness.remove_workdir(ctx)
    print(ready)


if __name__ == "__main__":
    main()
