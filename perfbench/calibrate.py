"""Machine-speed calibration, so that run-to-run drift of a shared host cancels.

On a shared 2-core VM the same CPU-bound task can take 1.5-2x longer for
seconds at a time while neighbours are busy, with no steal time reported.
A child therefore times a fixed kernel right before its task, every
SAMPLE_EVERY_S seconds during it (from a SIGALRM handler) and right after
it, in wall and in CPU time.  The kernel is a frozen copy of tournkit's canonical-form search as of
the commit that defined this benchmark, so it stresses the interpreter the
way the tasks do, and no later change to ``src/`` changes it.

A task's time in reference seconds is its measured time multiplied by
REFERENCE_S times the mean of 1/kernel time over the samples: the mean speed
over the task, relative to a machine on which one kernel run takes
REFERENCE_S (an idle 2-core Intel Xeon KVM guest, Python 3.11).
"""

from __future__ import annotations

import gc
import signal
import time

REFERENCE_S = 0.0036
SAMPLE_EVERY_S = 0.2
SETUP_SAMPLES = 3  # taken right after set-up, to scale the set-up time


def _lex_sum_of_cycles(length: int) -> tuple[int, ...]:
    """Rows of family("c3", length): 3-cycles placed along an ascending chain."""
    n = 3 * length
    rows = []
    for v in range(n):
        block = v // 3
        later = ((1 << n) - 1) & ~((1 << (3 * block + 3)) - 1)
        rows.append(later | (1 << (3 * block + (v + 1) % 3)))
    return tuple(rows)


_INPUT = _lex_sum_of_cycles(4)


def _canonical_bits(rows: tuple[int, ...]) -> int:
    n = len(rows)
    best = None

    def rec(cells, cur):
        nonlocal best
        d = len(cur)
        if d == n:
            if best is None or cur < best:
                best = cur.copy()
            return
        cand = []
        for v in cells[0]:
            rv = rows[v]
            newcells, rowbits = [], 0
            for cell in (tuple(u for u in cells[0] if u != v),) + cells[1:]:
                ins = tuple(u for u in cell if not (rv >> u) & 1)
                outs = tuple(u for u in cell if (rv >> u) & 1)
                if ins:
                    rowbits <<= len(ins)
                    newcells.append(ins)
                if outs:
                    rowbits = (rowbits << len(outs)) | ((1 << len(outs)) - 1)
                    newcells.append(outs)
            cand.append((rowbits, v, tuple(newcells)))
        cand.sort(key=lambda item: item[0])
        for rowbits, _v, newcells in cand:
            if best is not None:
                rel = next(((-1 if cur[i] < best[i] else 1) for i in range(d) if cur[i] != best[i]), 0)
                if rel == 1 or (rel == 0 and rowbits > best[d]):
                    break
            cur.append(rowbits)
            rec(newcells, cur)
            cur.pop()

    rec((tuple(range(n)),), [])
    code = 0
    for d, rowbits in enumerate(best):
        code = (code << (n - 1 - d)) | rowbits
    return code


def kernel() -> tuple[float, float]:
    """Wall and CPU seconds one run of the fixed kernel takes now.

    The cyclic collector is off meanwhile: with the task's heap alive it
    would make the kernel's cost depend on the task's memory use.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0, cpu0 = time.perf_counter(), time.process_time()
        _canonical_bits(_INPUT)
        return time.perf_counter() - t0, time.process_time() - cpu0
    finally:
        if enabled:
            gc.enable()


def _factor(times: list[float]) -> float:
    return REFERENCE_S * sum(1 / t for t in times) / len(times)


class Speedometer:
    """Kernel samples around and during one task.

    Wall time is scaled by the kernel's wall-time speed and CPU time by its
    CPU-time speed, so that time the guest loses to its host counts in the
    one and not in the other, as it does for the task.
    """

    def __init__(self):
        kernel()  # warm up: the first run in a fresh process pays for cold caches
        self.wall: list[float] = []
        self.cpu: list[float] = []
        for _ in range(SETUP_SAMPLES):
            self._sample()
        self.setup_factor = _factor(self.wall)
        # wall and CPU time the in-task samples took, to subtract from the task's
        self.inside_s = self.inside_cpu_s = 0.0

    def _sample(self) -> None:
        wall, cpu = kernel()
        self.wall.append(wall)
        self.cpu.append(cpu)

    def _on_alarm(self, signum, frame):
        t0, cpu0 = time.perf_counter(), time.process_time()
        self._sample()
        self.inside_s += time.perf_counter() - t0
        self.inside_cpu_s += time.process_time() - cpu0

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        self._sample()

    def factors(self) -> tuple[float, float]:
        """Reference seconds per measured wall second and per CPU second."""
        return _factor(self.wall), _factor(self.cpu)
