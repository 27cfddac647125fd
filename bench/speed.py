"""Machine-speed calibration: a fixed kernel timed next to every timed sample.

On a machine shared with other tenants the speed of the whole machine swings
by 10-60% in states that last from a fraction of a second to tens of
minutes, and every timed operation of a run moves with it (wall and process
CPU time alike).
Timed alone, the program's times measure those states more than the program.

So ``run.py`` times this kernel, which does a fixed amount of the same kinds
of work as the program, right before and after each timed operation, and
during each fit (``Sampler``), and reports the operation at reference speed::

    reported = wall * REFERENCE_S / mean kernel seconds measured around it

A change to the program moves ``wall`` and leaves the kernel alone, so it
moves the reported figure by the same share; a swing of the machine moves
both and largely cancels. ``REFERENCE_S`` is about the kernel's time within
runs on the reference machine (bench/README.md), so reported figures read as
seconds there. The
kernel uses only Python and numpy, never ``conceptfit``.
"""

import math
import signal
import statistics
import time

import numpy as np

# Seconds of one kernel() within runs on the reference machine; a fixed
# constant, so that figures from two commits are scaled alike.
REFERENCE_S = 0.0018

_LOADINGS = np.linspace(0.0, 1.5, 50 * 3).reshape(50, 3)
_KNOWLEDGE = np.linspace(-2.0, 2.0, 3 * 100).reshape(3, 100)
_TEXT = " ".join(f"Term{i % 97}, word{i % 31}. {i}" for i in range(600))


def kernel():
    """A fixed mix of the program's three kinds of work, about a third each.

    Numpy on arrays of the benchmark's sizes (the fits), numpy calls on
    single rows (one prediction per pair) and string and dict work (loading
    and tokenizing).
    """
    total = 0.0
    for step in range(12):
        z = _LOADINGS @ _KNOWLEDGE + 0.01 * step
        p = 1.0 / (1.0 + np.exp(-2.0 * z))
        total += float(np.log(np.maximum(p, 1e-6)).sum())
    for pair in range(300):
        x = float(_LOADINGS[pair % 50] @ _KNOWLEDGE[:, pair % 100])
        total += 1.0 / (1.0 + math.exp(-2.0 * x))
    counts = {}
    for token in _TEXT.lower().replace(",", " ").replace(".", " ").split():
        if not token.isdigit():
            counts[token] = counts.get(token, 0) + 1
    return total + sum(sorted(counts.values(), reverse=True)[:10])


def measure(repeats=3):
    """Median seconds of ``repeats`` kernel calls made back to back."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Sampler:
    """Measures the kernel every ``interval`` seconds while a long operation runs.

    A fit runs for seconds, and the machine's speed changes within it, so
    measures taken only before and after it miss most of what it ran at. In a
    ``with`` block the sampler interrupts the main thread by SIGALRM and
    measures the kernel in the signal handler (between two bytecodes of the
    fit, never inside a numpy call). ``seconds`` is the time the handler took,
    for the caller to take off its wall time. ``interval`` 0 samples nothing.
    """

    def __init__(self, interval):
        self.interval = interval
        self.measures = []
        self.seconds = 0.0
        self._previous = None

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.measures.append(measure())
        self.seconds += time.perf_counter() - t0

    def __enter__(self):
        if self.interval:
            self._previous = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        if self.interval:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)
        return False

