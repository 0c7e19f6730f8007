"""Fixed glibc malloc thresholds for the benchmark's processes.

By default glibc serves large blocks with mmap and moves the mmap and trim
thresholds as blocks are freed.  The decoder allocates arrays of a few hundred
KiB at every information bit, so whether a process ends up faulting fresh
pages for each of them depends on that process's allocation history: the same
decode of the same frame ran at about 13 ms in most processes and at about
23 ms in others, with six times as many page faults.  Fixing both thresholds
makes every process behave alike, so that runs of one commit agree.
"""

import ctypes

M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3


def pin_malloc_thresholds() -> bool:
    """Serve blocks below 32 MiB from the heap and keep up to 64 MiB of freed heap.

    Returns False, changing nothing, where the C library has no ``mallopt``.
    """
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return False
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    return bool(mallopt(M_MMAP_THRESHOLD, 32 << 20)) and bool(mallopt(M_TRIM_THRESHOLD, 64 << 20))
