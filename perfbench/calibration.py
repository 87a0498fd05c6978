"""Fixed kernels that measure how fast the machine is running right now.

On a shared virtual machine the host's other tenants can slow the CPU,
or the memory system, by half or more for seconds to minutes at a time:
on a two-vCPU x86_64 guest the same verify-all pass took 0.65 s in one
minute and 1.1 s in the next.  The benchmark times these kernels right
before and right after every pass and divides the pass time by the
slow-down they show.  The kernels are the benchmark's own code and never
call the program, so a change to the program moves the calibrated time
and not the calibration.

`interpreter` is work the Python interpreter does (polynomial objects
made and multiplied, tuple permutation products with a dict index, a
small numpy row reduction that stays in cache); `Calibration.memory` is
numpy arithmetic over a buffer larger than a core's L2 cache.  A
workload weights the two by how much of its own time goes to each kind
of work (`workloads.MEMORY_SHARE`).
"""

from __future__ import annotations

import time

import numpy as np

P = 10007
# Kernel seconds at the reference speed, so calibrated times read as seconds
# on the two-vCPU x86_64 machine the baseline was recorded on.
INTERPRETER_S = 0.040
MEMORY_S = 0.037


class _Poly:
    """Coefficient tuple mod P, one new object per operation, as polynomial code makes them."""

    __slots__ = ("c",)

    def __init__(self, coeffs):
        c = list(coeffs)
        while c and c[-1] == 0:
            c.pop()
        self.c = tuple(c)

    def __mul__(self, other):
        out = [0] * (len(self.c) + len(other.c) - 1)
        for i, a in enumerate(self.c):
            for j, b in enumerate(other.c):
                out[i + j] = (out[i + j] + a * b) % P
        return _Poly(out)

    def __sub__(self, other):
        n = max(len(self.c), len(other.c))
        a, b = self.c + (0,) * (n - len(self.c)), other.c + (0,) * (n - len(other.c))
        return _Poly((x - y) % P for x, y in zip(a, b))


POLYS = [_Poly(((7 * k + 1) % P, (3 * k + 2) % P, k + 1)) for k in range(24)]


def interpreter() -> float:
    t0 = time.perf_counter()
    for f in POLYS:
        for g in POLYS:
            f * g - g * f
    gens = ((1, 0, 2, 3, 4), (1, 2, 3, 4, 0))
    elems = [tuple(range(5))]
    index = {elems[0]: 0}
    for cur in elems:
        for g in gens:
            nxt = tuple(cur[j] for j in g)
            if nxt not in index:
                index[nxt] = len(elems)
                elems.append(nxt)
    [[index[tuple(a[j] for j in b)] for b in elems] for a in elems]
    m = (np.arange(160 * 160, dtype=np.int64).reshape(160, 160) * 7919 + 13) % P
    for col in range(60):
        m[col] = m[col] * pow(int(m[col, col]) or 1, P - 2, P) % P
        m = (m - np.outer(m[:, col], m[col])) % P
    return time.perf_counter() - t0


class Calibration:
    """Times both kernels; the memory kernel reuses one buffer made here.

    The 6 MB buffer is past a core's L2 cache and is updated in place, so
    calibration adds a constant 6 MB to the resident memory of the run and
    never allocates during it.
    """

    def __init__(self, memory_share: float):
        self.memory_share = memory_share
        self.buffer = np.arange(750_000, dtype=np.int64)

    def memory(self) -> float:
        t0 = time.perf_counter()
        for _ in range(8):
            np.multiply(self.buffer, 7919, out=self.buffer)
            np.add(self.buffer, 13, out=self.buffer)
            np.remainder(self.buffer, P, out=self.buffer)
        return time.perf_counter() - t0

    def sample(self, repeats: int = 3) -> tuple[float, float]:
        """Median seconds of each kernel over a few back-to-back runs."""
        cpu = sorted(interpreter() for _ in range(repeats))
        mem = sorted(self.memory() for _ in range(repeats))
        return cpu[repeats // 2], mem[repeats // 2]

    def slowdown(self, before, after) -> float:
        """How much slower than the reference speed the machine ran between two samples."""
        cpu = (before[0] + after[0]) / 2 / INTERPRETER_S
        mem = (before[1] + after[1]) / 2 / MEMORY_S
        return cpu ** (1 - self.memory_share) * mem ** self.memory_share
