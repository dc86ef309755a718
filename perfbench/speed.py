"""Machine speed probe: program time scaled to a reference machine speed.

On a shared host the same batch of pluriflow work can take 1.5 to 2 times
longer from one minute to the next, because other tenants slow the cores
down.  A run cannot wait such stretches out, so besides the plain time the
benchmark reports the time the program would take on a machine that runs a
fixed reference kernel in REF_S seconds.

While an item runs, an interval timer interrupts the program every EVERY_S
seconds of wall time and runs the kernel, which uses no pluriflow code: a
small tensor contraction, a matrix product and norm, and a Python loop, the
mix of numpy calls and interpreter work that pluriflow's flows are made of.
The program time since the previous probe is then scaled by REF_S over the
median time of the last SMOOTH kernels, and the time spent in probes is left
out of the item's time.  A signal handler runs between bytecodes, so a long
C call (a large SVD) delays the next probe and the segment before it is
simply longer.

Set-up (imports and input generation) gets a clock of its own, SetupClock,
with a pure-Python kernel every SETUP_EVERY_S: set-up starts before numpy is
imported, and its time follows the interpreter's speed.
"""

from __future__ import annotations

import signal
import statistics
import time

EVERY_S = 0.2
ITERATIONS = 300
# The kernel's time in the fast stretches of a 2-vCPU Intel Xeon VM.  Only a
# constant: it sets the unit of the scaled time, not its spread.
REF_S = 0.0065
SMOOTH = 5  # about one second of probes
SETUP_EVERY_S = 0.05
SETUP_ITERATIONS = 10_000
SETUP_REF_S = 0.0011  # as REF_S, for the set-up kernel


class SetupClock:
    """Program time during set-up, probes left out, and the factor that
    scales it to the reference speed: SETUP_REF_S over the median kernel
    time.  Import time follows the pure-Python kernel closely (correlation
    0.9 over 24 cold starts), so one factor for the whole set-up will do."""

    def __init__(self):
        self.probes = []
        self.spent = 0.0

    def _kernel(self, signum=None, frame=None):
        t0 = time.perf_counter()
        s, d = 0, {}
        for i in range(SETUP_ITERATIONS):
            s += (i * i) % 7
            d[i & 63] = s
        dt = time.perf_counter() - t0
        self.probes.append(dt)
        self.spent += dt

    def start(self):
        self._kernel()
        signal.signal(signal.SIGALRM, self._kernel)
        signal.setitimer(signal.ITIMER_REAL, SETUP_EVERY_S, SETUP_EVERY_S)

    def now(self) -> float:
        """A clock that stands still while a probe runs."""
        return time.perf_counter() - self.spent

    def stop(self) -> float:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return SETUP_REF_S / statistics.median(self.probes)


class SpeedProbe:
    def __init__(self):
        import numpy as np  # not at the top: SetupClock runs before numpy is imported

        self._np = np
        rng = np.random.default_rng(0)
        self._t = rng.standard_normal((8, 8, 8))
        self._m = rng.standard_normal((8, 8))
        self._v = rng.standard_normal(64)
        self.probes = []  # kernel times, in seconds
        self._active = False
        self._seg_start = 0.0
        self._raw = 0.0
        self._ref = 0.0

    def _kernel(self) -> float:
        np = self._np
        t0 = time.perf_counter()
        s = 0.0
        for _ in range(ITERATIONS):
            c = np.einsum("ijk,kl->ijl", self._t, self._m)
            s += float(np.linalg.norm(c.reshape(64, 8) @ self._m)) + float(self._v @ self._v)
            s += float(np.abs(self._m - self._m.T).max())
            for i in range(50):
                s += (i * i) % 7
        dt = time.perf_counter() - t0
        self.probes.append(dt)
        return dt

    def _tick(self, signum, frame):
        if not self._active:
            return
        self._active = False  # a tick that lands inside the kernel is dropped
        seg = time.perf_counter() - self._seg_start
        self._kernel()
        self._add(seg)
        self._seg_start = time.perf_counter()
        self._active = True

    def _add(self, seg: float):
        """Count a stretch of program time, scaled by the median of the last
        SMOOTH probes: one probe is short enough to catch a brief stall."""
        self._raw += seg
        self._ref += seg * REF_S / statistics.median(self.probes[-SMOOTH:])

    def start(self):
        """Install the timer, and probe once so that the first item has a
        speed to be scaled by."""
        self._kernel()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def begin(self):
        """Start timing an item."""
        self._raw = self._ref = 0.0
        self._seg_start = time.perf_counter()
        self._active = True

    def end(self) -> tuple[float, float]:
        """Stop timing the item; returns its program time, probes left out,
        and that time scaled to the reference speed."""
        self._active = False
        self._add(time.perf_counter() - self._seg_start)
        return self._raw, self._ref
