"""Speed-calibration kernel, run in a helper process of its own.

    python3 bench/calkernel.py

For each line read from stdin, times one run of a fixed kernel and writes
the seconds it took as one line to stdout; it ends at end of input.  The
kernel is 150 steps of 4x4 complex numpy products in a Python loop (about
0.7 ms), the same kind of work as the Jacobi sweeps and blade algebra.

It never imports cliffsim, so it tracks the host's speed but not the state
of the benchmark's own process (its heap, its threads, numpy settings the
program changes).
"""
from __future__ import annotations

import sys
from time import perf_counter

import numpy as np

MATRIX = np.random.default_rng(2).normal(size=(4, 4)) + 0j
STEPS = 150


def kernel() -> float:
    a = MATRIX
    t0 = perf_counter()
    for _ in range(STEPS):
        a = (a @ MATRIX) / (abs(a).max() + 1.0)
    return perf_counter() - t0


def main() -> int:
    for _ in sys.stdin:
        sys.stdout.write(f"{kernel()!r}\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
