"""One set-up sample in a fresh process: import chowtwist's CLI and
batteries, then build the workload's groups and seeded modules.

    python3 bench/setup_probe.py <workload> <seed>

Prints the seconds taken as the last line of stdout.
"""

import sys
import time

import run

if __name__ == "__main__":
    run.prepare()
    t0 = time.perf_counter()
    import chowtwist.cli  # noqa: F401
    import chowtwist.verify  # noqa: F401
    import workloads

    workloads.build(sys.argv[1], int(sys.argv[2]), run.OUT)
    elapsed = time.perf_counter() - t0
    workloads.remove_modules(run.OUT)
    print(elapsed)
