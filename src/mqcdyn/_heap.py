"""Allocator policy of a process that imports `mqcdyn`.

Every right-hand-side evaluation of the kernel methods allocates and frees
a few MB of (particles x nodes) work arrays.  With its default thresholds
glibc serves each of them from a fresh memory mapping and returns it to the
operating system on release, so every evaluation faults the same pages in
again.  Fixing the mmap threshold at 8 MiB and the trim threshold at
256 MiB keeps freed work arrays in the heap for the next evaluation.
Measured with one BLAS thread on 2-core x86-64 Linux, three alternating
runs each, per RK4 step with and without it:

* koopmon rabi_ds at N=500, 100 steps: 0.8 minor faults and 10.4-11.9 ms,
  against 1047 faults and 12.4-12.7 ms;
* koopmon tully3 at N=200 from the branched states of t = 2000, 3200 and
  4000 (90k, 273k and 400k box nodes), 10 steps each: 9.4, 2.1-2.6 and 6.6
  faults and 28-29, 69-73 and 104-119 ms, against 9.7k, 14.5k-15.5k and
  19.8k-21.3k faults and 41-44, 96-108 and 143-159 ms.

Raising the trim threshold alone leaves the mappings in place and faults
more.

8 MiB holds the work arrays of every preset at paper N on a compact box
(one koopmon call at N=1000 traces 2.3-2.9 MB) and the blocks of every
snapshot density: with 256 nodes per axis, a Wigner transform of a
4096-point wavefunction traces a 2.7 MB peak, its 0.5 MB output included,
and a smoothed cloud or three 512-node waterfall rows 1.6 MB, whatever N.
Larger arrays, such as the 11-16 MB koopmon aggregates on the tully3
boxes of t = 3200-4000, stay mapped and go back to the system when freed;
numpy asks for huge pages for them, so they fault a few times a call, not
once per page.
Any transient below the threshold stays in the heap once freed, so the
largest such transient, not only what is live at the end, sets the peak
RSS of the process.
"""

from __future__ import annotations

import ctypes
import sys

_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
MMAP_THRESHOLD = 8 << 20
TRIM_THRESHOLD = 256 << 20


def keep_freed_memory() -> bool:
    """Set the two glibc thresholds through ``mallopt``.

    Returns whether libc accepted both.  Where libc has no ``mallopt``
    (musl, macOS, Windows) it changes nothing and returns False.
    """
    if not sys.platform.startswith("linux"):
        return False
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return (mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD) == 1
            and mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD) == 1)


#: Whether the policy is in force in this process; set once, at import.
FREED_MEMORY_KEPT = keep_freed_memory()
