"""The kernel event-loop microbenchmark cell.

Kept at this import path, with this signature and these result keys,
because ``bench/layers.py`` (``sim.loop_events_per_s``) calls it and
``bench/`` is frozen; everything else a performance claim needs lives
in ``bench/`` (see ``bench/README.md``).
"""

from __future__ import annotations

import time
from typing import Dict

#: Event-loop microbenchmark size (events popped, roughly).
LOOP_EVENTS = 400_000
LOOP_EVENTS_QUICK = 100_000


def bench_event_loop(quick: bool = False, rounds: int = 1) -> Dict[str, object]:
    """Raw kernel throughput: timeout churn with no protocol on top.

    100 generator processes ping-pong through ``sim.timeout`` until the
    target event count is reached — the same schedule/pop/resume cycle
    every replay event pays, isolated from file-system logic.  With
    ``rounds > 1`` the whole loop runs that many times and the fastest
    wall time is reported.
    """
    from repro.sim import Simulator

    target = LOOP_EVENTS_QUICK if quick else LOOP_EVENTS
    workers = 100
    # Each timeout costs two popped events (the Timeout, then the
    # process-resume event), so halve the per-worker iteration count.
    per_worker = max(1, target // (2 * workers))

    best_wall = float("inf")
    events = 0
    for _ in range(max(1, rounds)):
        sim = Simulator()

        def ticker():
            for _ in range(per_worker):
                yield sim.timeout(1.0)

        for _ in range(workers):
            sim.process(ticker())
        start = time.perf_counter()
        sim.run()
        wall = time.perf_counter() - start
        events = sim.events_processed
        if wall < best_wall:
            best_wall = wall
    return {
        "events": events,
        "wall_seconds": best_wall,
        "events_per_sec": events / best_wall if best_wall > 0 else 0.0,
        "rounds": max(1, rounds),
    }
