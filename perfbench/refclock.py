"""Wall times scaled to a reference speed of the machine.

On a shared host the speed of this process drifts by up to 2x over tens of
seconds (CPU time drifts with wall time, so it is not waiting). A pass of
the workload cannot outlast that drift, so raw wall times of runs made a
few minutes apart disagree by far more than any regression worth catching.

So the process times a fixed pure-Python reference task, which does not
touch the program, every INTERVAL_S from a timer signal and once before
each pass. A pass's time is divided by the mean reference time measured
around it and multiplied by REFERENCE_S: the result is the seconds the pass
would take on a machine where the reference task takes REFERENCE_S. The
sampler's own time is taken out of the timed calls; in a traced run the
sampler is a span of its own, so it stays out of other spans' self time.
Everything stays in the main thread.
"""

from __future__ import annotations

import signal
import time

INTERVAL_S = 0.04
# about the reference task's time, interleaved with the program, on the
# machine the benchmark was written on; it only sets the scale
REFERENCE_S = 0.0004


def reference_task() -> int:
    """Backtracking over the permutations of 1..5, rendered, hashed and
    sorted: the kind of work the program does, ~0.4 ms."""
    texts = []
    prefix: list[int] = []
    used = [False] * 6

    def rec():
        if len(prefix) == 5:
            texts.append(" ".join(map(str, prefix)))
            return
        for v in range(1, 6):
            if not used[v]:
                used[v] = True
                prefix.append(v)
                rec()
                prefix.pop()
                used[v] = False

    rec()
    return len(sorted(set(texts), key=lambda t: t[::-1]))


class RefClock:
    def __init__(self):
        self.samples: list[float] = []  # reference task durations, in order
        self.spent = 0.0                 # total time spent in reference tasks

    def sample(self) -> None:
        start = time.perf_counter()
        reference_task()
        elapsed = time.perf_counter() - start
        self.samples.append(elapsed)
        self.spent += elapsed

    def start(self) -> None:
        signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def time(self, fn, *args, **kwargs):
        """(fn's result, wall seconds of the call minus the sampler's share)."""
        spent = self.spent
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        return result, time.perf_counter() - start - (self.spent - spent)

    def mark(self) -> int:
        """Take a sample now; the index of it, for scale_since."""
        self.sample()
        return len(self.samples) - 1

    def scale_since(self, index: int) -> float:
        """REFERENCE_S over the mean reference time since the mark."""
        recent = self.samples[index:]
        return REFERENCE_S * len(recent) / sum(recent)
