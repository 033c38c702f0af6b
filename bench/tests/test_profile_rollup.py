"""profile_rollup over a hand-built pstats table."""

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from profile_rollup import OTHER, layer_of, rollup  # noqa: E402

SIM = ("/x/src/repro/sim/core.py", 10, "run")
NET = ("/x/src/repro/net/network.py", 5, "send")
WORKLOADS = ("/x/src/repro/workloads/synth.py", 7, "_stream")
PARAMS = ("/x/src/repro/params.py", 1, "derived_copy")
BENCH = ("/x/bench/run.py", 1, "main")
HEAPPUSH = ("~", 0, "<built-in method _heapq.heappush>")
CHOICE = ("/usr/lib/python3.11/random.py", 3, "choice")
RANDBELOW = ("/usr/lib/python3.11/random.py", 9, "_randbelow")
LOOP_A = ("/usr/lib/python3.11/a.py", 1, "a")
LOOP_B = ("/usr/lib/python3.11/b.py", 1, "b")


def row(tottime, callers=None):
    """A pstats row; ``callers`` maps caller -> tottime under it."""
    callers = {c: (1, 1, t, t) for c, t in (callers or {}).items()}
    return (1, 1, tottime, tottime, callers)


def test_layer_of_maps_files_to_packages():
    assert layer_of(SIM[0]) == "sim"
    assert layer_of(NET[0]) == "net"
    assert layer_of(PARAMS[0]) == OTHER        # repro/, but no package
    assert layer_of(HEAPPUSH[0]) is None       # builtin: charged upward
    assert layer_of(CHOICE[0]) is None         # stdlib: charged upward
    assert layer_of(BENCH[0]) is None


def test_external_time_is_charged_to_the_caller():
    stats = {
        BENCH: row(0.5),
        SIM: row(4.0, {BENCH: 4.0}),
        NET: row(2.0, {SIM: 2.0}),
        WORKLOADS: row(1.0, {SIM: 1.0}),
        PARAMS: row(0.25, {BENCH: 0.25}),
        # 3 s of heappush: 2 s asked for by sim, 1 s by net.
        HEAPPUSH: row(3.0, {SIM: 2.0, NET: 1.0}),
        # stdlib calling stdlib: both end up with workloads.
        CHOICE: row(0.5, {WORKLOADS: 0.5}),
        RANDBELOW: row(0.25, {CHOICE: 0.25}),
    }
    buckets = rollup(stats)
    assert buckets["sim"] == pytest.approx(4.0 + 2.0)
    assert buckets["net"] == pytest.approx(2.0 + 1.0)
    assert buckets["workloads"] == pytest.approx(1.0 + 0.5 + 0.25)
    # The harness frame has no caller, params.py no package.
    assert buckets[OTHER] == pytest.approx(0.5 + 0.25)
    total = sum(r[2] for r in stats.values())
    assert sum(buckets.values()) == pytest.approx(total)


def test_cycle_among_external_functions_still_sums_to_total():
    stats = {
        SIM: row(1.0),
        LOOP_A: row(2.0, {SIM: 1.0, LOOP_B: 1.0}),
        LOOP_B: row(2.0, {LOOP_A: 2.0}),
    }
    buckets = rollup(stats)
    assert sum(buckets.values()) == pytest.approx(5.0)
    # a is half sim's; the cyclic half cannot be charged to a layer.
    assert buckets["sim"] > 1.0
    assert buckets[OTHER] > 0.0


def test_untimed_caller_edges_fall_back_to_call_counts():
    stats = {
        SIM: row(1.0),
        NET: row(1.0),
        HEAPPUSH: (4, 4, 2.0, 2.0, {SIM: (3, 3, 0.0, 0.0),
                                    NET: (1, 1, 0.0, 0.0)}),
    }
    buckets = rollup(stats)
    assert buckets["sim"] == pytest.approx(1.0 + 1.5)
    assert buckets["net"] == pytest.approx(1.0 + 0.5)
