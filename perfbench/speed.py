"""Machine-speed reference for the benchmark's timings.

On a shared machine the same work can take 1.4 times as long in one run as
in another, and gparith's request times follow it (README.md).  So every timing
is taken with a fixed reference workload measured just before and after it,
and reported as `seconds * REF_S / reference seconds`: seconds at the speed
at which the reference takes REF_S.  The reference mixes integer, Fraction
and numpy work and a walk over scattered objects, like the requests do.

The reference runs in its own interpreter, which never imports gparith, so
nothing gparith does to its process (garbage-collector settings, caches,
heap state) can move the divisor.  Run as a script, it waits for a line on
stdin, times the reference, prints the seconds, and repeats until stdin
closes.  `Reference` is the client side.
"""

from __future__ import annotations

import os
import subprocess
import sys
from fractions import Fraction
from time import perf_counter

REF_S = 0.035


class Reference:
    """A reference interpreter, timed on request; a context manager that
    stops it on exit."""

    def __init__(self) -> None:
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        self._proc = subprocess.Popen([sys.executable, os.path.abspath(__file__)],
                                      stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                      text=True, env=env)
        self.seconds()  # warm-up

    def seconds(self) -> float:
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError(f"reference interpreter exited ({self._proc.poll()})")
        return float(line)

    def close(self) -> None:
        if self._proc.stdin and not self._proc.stdin.closed:
            self._proc.stdin.close()
        try:
            self._proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()

    def __enter__(self) -> "Reference":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def corrected(seconds: float, ref_before: float, ref_after: float) -> float:
    return seconds * REF_S / ((ref_before + ref_after) / 2)


def _serve() -> None:
    import numpy as np

    array = np.empty(250_000, dtype=np.int64)
    values = [10**9 + i for i in range(300_000)]
    # a prime stride scatters consecutive visits across the 300k objects
    order = [i * 7919 % len(values) for i in range(35_000)]
    for _ in sys.stdin:
        t0 = perf_counter()
        s = 0
        for i in range(30_000):
            s += i * i % 7
        q = Fraction(0)
        for i in range(1, 1000):
            q += Fraction(i, i + 7) * Fraction(3, i + 1)
        array[:] = 1
        for _ in range(8):
            np.multiply(array, 7, out=array)
            np.remainder(array, 1_000_003, out=array)
        # a walk over objects scattered across ~10 MB feels cache contention
        # as gparith's object-heavy requests do
        for i in order:
            s += values[i]
        print(perf_counter() - t0, flush=True)


if __name__ == "__main__":
    _serve()
