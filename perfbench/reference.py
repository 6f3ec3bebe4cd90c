"""A fixed CPU-bound reference task, timed to calibrate host speed.

The benchmark host's speed drifts: on the 2-vCPU machine the benchmark
was tuned on, the same pure-Python loop took anywhere from 0.15 s to
0.44 s within one minute, in blocks of several seconds.  run.py times
this task on every worker core between workload repeats and scales the
repeats' times by it (see ``calibrated`` in run.py).

The task resembles the program's hot path without importing it — a
heap-driven event loop over small tuples and dict lookups — so no
change to the program can change the reference.  It prints its own
duration in seconds.
"""

import heapq
import sys
import time

EVENTS = 650_000


def task(events: int = EVENTS) -> int:
    heap = [(0.0, 0)]
    seen = {}
    fired = 0
    x = 12345
    while fired < events:
        when, key = heapq.heappop(heap)
        fired += 1
        seen[key] = seen.get(key, 0) + 1
        for _ in range(2 if len(heap) < 64 else 1):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            heapq.heappush(heap, (when + (x % 1000) / 1000.0, x % 512))
    return fired + len(seen)


if __name__ == "__main__":
    t0 = time.perf_counter()
    task()
    print(time.perf_counter() - t0)
    sys.exit(0)
