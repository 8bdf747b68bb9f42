"""A fixed reference kernel, to scale wall times to one machine speed.

On a shared host the CPU this benchmark runs on changes speed by up to
1.8x, for seconds to minutes at a time, as other tenants' load comes and
goes; a co-tenant's load is not the program's.  Each worker therefore times
this kernel just before every round and around the experiment, and
``run.py`` reports every wall time at the reference speed: multiplied by
``REFERENCE_S`` over the kernel's time measured next to it.  The kernel is
shaped like both halves of the library's work: a training step (small
matmuls, elementwise numpy and a Python loop over rows) and the mask search
(sweeps over a (200, 400) int64 array, 640 KB, larger than the L1 cache).
A slowed CPU slows these two unequally, and wide's set-up is mostly the
second.  The kernel calls nothing from tinyproto, and no change to the
library can move it.  The unscaled times are kept in the run's report.
"""

from __future__ import annotations

import time

import numpy as np

# The kernel's time (``reference_s``) on the machine the bounds were set on,
# a 2-vCPU "Intel(R) Xeon(R) Processor" VM, when no co-tenant slowed it.
REFERENCE_S = 1.45e-3

_A = np.linspace(-1.0, 1.0, 32 * 16).reshape(32, 16)
_W = np.linspace(-1.0, 1.0, 16 * 64).reshape(16, 64)
# allocated once and never freed, so that the kernel leaves the allocator's
# thresholds, and with them the library's own allocations, as they were
_BASE = np.arange(200, dtype=np.int64)
_DELTA = np.ones((200, 400), dtype=np.int64)
_ROWS = np.empty((200, 400), dtype=np.int64)
_MINS = np.empty(400, dtype=np.int64)


def _once() -> float:
    started = time.perf_counter()
    total = 0.0
    for _ in range(50):
        hidden = np.maximum(_A @ _W, 0.0)
        total += float(hidden.sum())
        total += sum(float(row[0]) for row in hidden)
    for _ in range(12):
        np.add(_BASE[:, None], _DELTA, out=_ROWS)
        np.min(_ROWS, axis=0, out=_MINS)
    return time.perf_counter() - started


def reference_s() -> float:
    """How long the kernel takes now: the fastest of three passes."""
    return min(_once() for _ in range(3))


def at_reference_speed(seconds: float, reference: float) -> float:
    """``seconds`` measured while the kernel took ``reference``, at the reference speed."""
    return seconds * REFERENCE_S / reference

