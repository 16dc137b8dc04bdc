"""Time one set-up of a workload in a fresh interpreter.

Usage: python3 benchmarks/setup_probe.py WORKLOAD SEED

Set-up is importing numpy and ludercheck plus building the workload's first
cycle of inputs from SEED.  Prints the elapsed seconds.
"""

import time

_STARTED = time.perf_counter()

import sys  # noqa: E402

import workloads  # noqa: E402


def main(argv: list[str]) -> int:
    name, seed = argv
    workloads.WORKLOADS[name](workloads.cycle_rng(int(seed), 0))
    print(repr(time.perf_counter() - _STARTED))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
