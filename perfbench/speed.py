"""Speed probes: how fast this core runs Python while a phase runs.

On a shared host the same work takes from 1x to 1.8x the CPU time,
switching within a second as other tenants load the core's siblings, so
raw CPU times of identical rounds spread by 30%.  `SpeedProbe` runs a fixed
pure-Python loop from a SIGPROF handler every PROBE_EVERY_S of CPU time
(in the main thread; no thread is started) and records the loop's CPU
time.  A phase's time is then its CPU time less the probes' own, divided
by the mean slowdown the probes saw during it: seconds at the speed at
which one probe takes PROBE_REF_S.

    python3 perfbench/speed.py

prints the probe-time distribution on the host it runs on.  PROBE_REF_S is
a fixed scale near the probe's fastest times on the 2-core Xeon sandbox the
benchmark figures were taken on (there this prints a 10th percentile of
39-44 us); changing it rescales every phase time.
"""

from __future__ import annotations

import atexit
import signal
import statistics
import time
from fractions import Fraction

PROBE_EVERY_S = 0.005  # CPU time between probes
PROBE_REF_S = 36e-6  # CPU time of one probe at the reference speed


def probe_once() -> float:
    """CPU time of the fixed loop: small-int and Fraction arithmetic, the
    mix ssgpkit's membership tests run."""
    t0 = time.thread_time()
    x, f = 1, Fraction(1, 3)
    for i in range(8):
        f += Fraction(i + 1, 7)
        for _ in range(6):
            x = (x * 1103515245 + 12345) % 2147483648
    return time.thread_time() - t0


class SpeedProbe:
    def __init__(self):
        self.times: list[float] = []

    def _handler(self, signum, frame):
        self.times.append(probe_once())

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self._handler)
        signal.setitimer(signal.ITIMER_PROF, PROBE_EVERY_S, PROBE_EVERY_S)
        atexit.register(self.stop)  # also when the round dies of an exception

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def mark(self) -> int:
        return len(self.times)

    def scaled(self, cpu_s: float, since: int) -> tuple[float, float]:
        """(phase time at reference speed, mean slowdown) for a phase that
        took cpu_s of CPU time, probes included, after mark() gave since."""
        seen = self.times[since:]
        work = cpu_s - sum(seen)
        if not seen:
            return work, 1.0
        slowdown = statistics.fmean(seen) / PROBE_REF_S
        return work / slowdown, slowdown


if __name__ == "__main__":
    samples = []
    for _ in range(4000):
        samples.append(probe_once())
        sum(i * i for i in range(2000))  # spacing, as between probes in a phase
    qs = statistics.quantiles(samples, n=20)
    print(f"probe CPU time over {len(samples)} samples: "
          f"p10 {qs[1] * 1e6:.1f} us, median {qs[9] * 1e6:.1f} us, p90 {qs[17] * 1e6:.1f} us; "
          f"PROBE_REF_S = {PROBE_REF_S * 1e6:.1f} us")
