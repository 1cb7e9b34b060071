"""The machine's current speed, from a fixed reference kernel.

On a shared host the same op can run twice as long in a slow phase of the
machine, and such phases last from a fraction of a second to minutes, so
the medians of whole runs of identical code differ by a third or more.
The reference kernel is timed in each op's own process just before the op,
and the op's time is scaled by ``REFERENCE_S / reference``, where
``reference`` is the mean of that time and the ones before the ops on
either side: seconds as they would read when the reference takes
``REFERENCE_S``.  The kernel is the benchmark's own code and never changes
with the program, so a faster program still reads faster; only the
machine's drift is divided out.  On a 2-vCPU Xeon VM, over ten seeds of
50 s runs, this cut the spread (IQR over median) of the runs' p50, p90 and
throughput from 0.09-0.40 in plain wall time to 0.01-0.04.

The kernel is closure under composition of self-maps of an 8-element set,
the same kind of work (tuple building and set lookups) as most ops.
"""

import gc
from time import perf_counter

REFERENCE_S = 0.004  # a round figure near the kernel's time on a 2-vCPU Xeon VM
_GENERATORS = ((1, 2, 3, 4, 5, 6, 7, 0), (1, 0, 2, 3, 4, 5, 6, 7), (0, 0, 2, 3, 4, 5, 6, 7))
_MEMBERS = 2000


def reference() -> float:
    """Seconds the reference kernel takes now, without garbage collection."""
    collecting = gc.isenabled()
    gc.disable()
    start = perf_counter()
    seen = {tuple(range(8))}
    frontier = list(seen)
    while frontier and len(seen) < _MEMBERS:
        nxt = []
        for t in frontier:
            for g in _GENERATORS:
                u = tuple(g[v] for v in t)
                if u not in seen:
                    seen.add(u)
                    nxt.append(u)
        frontier = nxt
    elapsed = perf_counter() - start
    if collecting:
        gc.enable()
    return elapsed
