"""The host's current speed, from a fixed reference kernel.

The benchmark runs on shared virtual machines whose cores slow down by up
to a factor of two for a minute or so at a time (CPU time equals wall
time, and no steal time is reported), so a raw wall time says as much
about the neighbours as about slfib.  Each time the benchmark reports is
therefore scaled to a reference speed: it runs a fixed kernel that does
not use slfib (a SuperLU solve of a 5-point Laplacian, NumPy array
arithmetic and a pure-Python loop, the three kinds of work in a pass)
while it measures, and multiplies the raw time by REF_S / (mean kernel
time).  A change to slfib moves the raw time and not the kernel, so it
moves the scaled time by the same factor.

``Sampler`` runs the kernel from a SIGALRM handler every ``interval``
seconds during a pass, and once right before and after it, so the speed
follows the host through passes of tens of seconds.  The handler runs
between Python bytecodes, never inside a SuperLU call, and the time it
takes is taken out of the pass.
"""

import signal
from time import perf_counter

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

# Mean kernel time on an unloaded core of the machine the baselines were
# measured on (see README.md).  Only a fixed scale: it cancels in every
# comparison between two runs.
REF_S = 0.02
GRID = 40                 # the kernel's Laplacian has GRID**2 unknowns
SOLVES = 3
ARRAY = 256               # NumPy work on ARRAY x ARRAY floats
PY_LOOP = 60000


def _laplacian(n):
    eye = sp.identity(n, format="csr")
    tri = sp.diags([-1.0, 2.5, -1.0], [-1, 0, 1], shape=(n, n), format="csr")
    return (sp.kron(eye, tri) + sp.kron(tri, eye)).tocsc()


class Kernel:
    """The reference work: one call is about REF_S seconds on a free core."""

    def __init__(self):
        self.matrix = _laplacian(GRID)
        self.rhs = np.linspace(-1.0, 1.0, GRID * GRID)
        self.array = np.linspace(-1.0, 1.0, ARRAY * ARRAY).reshape(ARRAY, ARRAY)

    def __call__(self):
        t0 = perf_counter()
        for _ in range(SOLVES):
            spla.spsolve(self.matrix, self.rhs)
        y = self.array
        for _ in range(10):
            y = np.sin(y) * 0.5 + np.roll(y, 1, axis=0) * 0.25
        acc = 0
        for i in range(PY_LOOP):
            acc += i & 7
        return perf_counter() - t0


class Sampler:
    """Kernel times taken while a measured stretch of work runs."""

    def __init__(self, interval=0.5):
        self.kernel = Kernel()
        self.kernel()                    # first call pays SuperLU's set-up
        self.interval = interval
        self.samples = []
        self.spent = 0.0                 # seconds spent inside the kernel and handler

    def sample(self):
        t0 = perf_counter()
        self.samples.append(self.kernel())
        self.spent += perf_counter() - t0

    def _on_alarm(self, signum, frame):
        self.sample()

    def measure(self, work):
        """Run ``work()``; return (its result, its scaled seconds, its raw seconds)."""
        first = len(self.samples)
        self.sample()
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        spent = self.spent
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        t0 = perf_counter()
        try:
            out = work()
        finally:
            wall = perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        raw = wall - (self.spent - spent)
        self.sample()
        return out, raw * REF_S / float(np.mean(self.samples[first:])), raw

    def factor(self, count):
        """REF_S over the mean of ``count`` fresh kernel times."""
        first = len(self.samples)
        for _ in range(count):
            self.sample()
        return REF_S / float(np.mean(self.samples[first:]))
