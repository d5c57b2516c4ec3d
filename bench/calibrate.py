"""Host-speed calibration: a fixed pure-Python kernel timed during each sample.

The host's speed drifts by tens of percent within minutes (other tenants
share the CPU), which moves every wall and CPU time alike.  To report times
that do not drift with it, each sample times this kernel every
``INTERVAL_S`` of wall time while its job runs (on SIGALRM, between the
job's bytecodes) and scales its measured times by

    REFERENCE_S / mean(fastest 80% of the kernel times during the sample)

so a time reads in "reference-host seconds": on a host that runs the
kernel in REFERENCE_S it equals the wall time.  The kernel mimics the
library's hot path (truncated q-Pochhammer products behind an lru_cache,
complex exponentials, many small calls) but is frozen here, so a change to
the library does not change the scale.  Kernel time is subtracted from the
job's measured time.
"""

import cmath
import math
import signal
import statistics
import time
from functools import lru_cache

# Typical kernel time, between the job's bytecodes, on the host the bounds
# were measured on (2-core Xeon VM, Python 3.11.7).  It only sets the unit.
REFERENCE_S = 0.0035
KERNEL_CALLS = 200
INTERVAL_S = 0.2
KEEP = 0.8

_Q = 0.5
_R = 3.1
_LOG_Q = math.log(_Q)
_P = _Q ** (2.0 * _R)


def _product(z: complex, s: float) -> complex:
    val = 1.0 + 0.0j
    w = z
    for _ in range(512):
        if abs(w) < 1e-14:
            break
        val *= 1.0 - w
        w *= s
    return val


def _bracket(u: complex, cached) -> complex:
    pref = cmath.exp((u * u / _R - u) * _LOG_Q)
    z = cmath.exp(2.0 * u * _LOG_Q)
    return pref * cached(z, _P) * cached(_P / z, _P) * cached(_P, _P)


def kernel(n: int = KERNEL_CALLS) -> complex:
    """Bracket ratios at n arguments drawn from 97 values, with a fresh cache."""
    cached = lru_cache(maxsize=1 << 12)(_product)
    total = 0.0 + 0.0j
    for i in range(n):
        u = complex(0.1 + (i % 97) * 0.013, 0.05 * (i % 7))
        total += _bracket(u, cached) / _bracket(u + 1.0, cached)
        total += _product(complex(0.3, 0.01 * (i % 11)), _P)
    return total


def kernel_time() -> float:
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


class HostSpeed:
    """Times the kernel every INTERVAL_S of wall time while active."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self._previous = None

    def _tick(self, signum, frame) -> None:
        self.times.append(kernel_time())

    def __enter__(self) -> "HostSpeed":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def spent(self) -> float:
        """Seconds the ticks took out of the job's timed region."""
        return sum(self.times)


def scale(times: list[float]) -> float:
    """Factor turning measured seconds into reference-host seconds.

    Uses the mean of the fastest KEEP share of the kernel times: a tick
    sometimes pays for cold caches or an interrupt that says nothing about
    the host.  Against ``statistics.mean`` this cut the sample-to-sample
    spread of the scaled times from 4.1% to 3.2% on verify_all and from
    3.4% to 2.0% on gt_basis on the reference host.
    """
    fastest = sorted(times)[:math.ceil(KEEP * len(times))]
    return REFERENCE_S / statistics.mean(fastest)
