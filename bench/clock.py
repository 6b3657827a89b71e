"""The benchmark's clock: CPU time, scaled to a reference CPU speed.

Two kinds of noise on a shared virtual machine are taken out of the times:

* The host takes its virtual CPUs away in bursts of a second or more (steal
  time). Wall time counts those bursts; CPU time does not. The operations
  are single-threaded and CPU-bound, so on an idle host the two agree.
* The speed of a virtual CPU drifts, by a factor of up to two over minutes,
  as other tenants load the host. A fixed reference kernel, which shares no
  code with the library, is timed next to every measurement, and the
  measured CPU time is multiplied by ``REF_MS`` over the kernel's time. The
  kernel imitates the library's cost profile: Python loops issuing small
  numpy slicing and arithmetic, as in a Jacobi sweep.

The unscaled CPU times and the wall times are reported in the details line.
"""

import resource
import statistics
import time

import numpy as np

# The reference kernel's CPU time on the machine the benchmark was tuned on.
REF_MS = 5.0
_START = np.linspace(-1.0, 1.0, 64).reshape(8, 8)


def cpu_seconds(clock=time.thread_time) -> float:
    """``clock`` plus the CPU time of every child process reaped so far."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return clock() + children.ru_utime + children.ru_stime


def reference_ms() -> float:
    """CPU milliseconds taken by one pass of the reference kernel."""
    start = time.thread_time()
    a = _START.copy()
    for k in range(500):
        i, j = k % 7, k % 7 + 1
        row = a[i, :].copy()
        a[i, :] = 0.6 * row - 0.8 * a[j, :]
        a[j, :] = 0.8 * row + 0.6 * a[j, :]
    return (time.thread_time() - start) * 1e3


def speed_scale(passes: int = 3) -> float:
    """``REF_MS`` over the median of a few reference passes taken now."""
    return REF_MS / statistics.median(reference_ms() for _ in range(passes))
