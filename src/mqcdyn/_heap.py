"""Allocator policy of a process that imports `mqcdyn`.

Every right-hand-side evaluation of the kernel methods allocates and frees
a few MB of (particles x nodes) work arrays.  With its default thresholds
glibc serves each of them from a fresh memory mapping and returns it to the
operating system on release, so every evaluation faults the same pages in
again.  Fixing the mmap threshold at 8 MiB and the trim threshold at
256 MiB keeps freed work arrays in the heap for the next evaluation: a
koopmon rabi_ds step at N=500 (one BLAS thread, 2-core x86-64 Linux, three
alternating runs of 100 steps) took 2.2 minor faults and 15.0-19.4 ms with
it, 1484 faults and 17.1-24.0 ms without.  Raising the trim threshold alone
leaves the mappings in place and faults more.

8 MiB holds the work arrays of every preset at paper N on a compact box
(2-3 MB at N=1000) and the blocks of every snapshot density: with 256
nodes per axis, a Wigner transform of a 4096-point wavefunction traces a
2.7 MB peak, its 0.5 MB output included, and a smoothed cloud or three
512-node waterfall rows 1.6 MB, whatever N.  Larger arrays stay mapped and
go back to the system when freed.  Any transient below the threshold stays
in the heap once freed, so the largest such transient, not only what is
live at the end, sets the peak RSS of the process.
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
