"""Allocator policy of a process that imports `mqcdyn`.

Every right-hand-side evaluation of the kernel methods allocates and frees
a few MB of (particles x nodes) work arrays.  With its default thresholds
glibc serves each of them from a fresh memory mapping and returns it to the
operating system on release, so every evaluation faults the same pages in
again: about a third of the wall time of a koopmon step went to page-fault
handling.  Fixing the mmap threshold at 8 MiB and the trim threshold at
256 MiB keeps freed work arrays in the heap for the next evaluation.
Raising the trim threshold alone leaves the mappings in place and faults
more.

8 MiB holds the work arrays of every preset at paper N on a compact box
(2-3 MB at N=1000), while the 16-34 MB temporaries of a Wigner transform
on a 4096-point grid stay mapped and go back to the system when freed.
With the threshold at 32 MiB they stayed in the heap as well, and the peak
RSS of a tully1 split-operator run rose from 173 to 188 MB.
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
