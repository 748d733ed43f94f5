"""Host-speed calibration, served from a process of its own.

Usage::

    python3 perfbench/calibrate.py

Each line read from standard input requests one calibration; the answer
is one line with the wall seconds of a fixed interpreter loop plus a fixed
NumPy sort.  The work is independent of the program under test, and
running it in its own process keeps it independent of the measured
process's heap too, so only the host's speed moves it.  The process ends
when its standard input closes.
"""

import sys
import time

import numpy as np


def main() -> int:
    data = np.random.default_rng(0).integers(0, 1 << 40, 1 << 20)
    work = np.empty_like(data)
    for _request in sys.stdin:
        start = time.perf_counter()
        x = 0
        for j in range(1_200_000):
            x += j & 7
        for _ in range(7):
            work[:] = data
            work.sort()
            np.cumsum(work, out=work)
        print(time.perf_counter() - start, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
