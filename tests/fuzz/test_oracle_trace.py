"""A fuzz schedule records only what its oracle reads.

``build_run`` gives the "fuzz" task kind an :class:`OracleTracer`, which
keeps the record names :attr:`InvariantChecker.READS` lists and drops
the rest at the call.  The checker drops every other name on
construction, so a schedule traced in full and one traced by the oracle
tracer must be judged identically — and the records the checker reads
must be the same, record for record.
"""

from collections import Counter

import pytest

from repro.faultfuzz import explorer, generate_schedule, run_schedule
from repro.faultfuzz.explorer import NUM_SERVERS
from repro.obs import InvariantChecker, Tracer
from repro.obs.invariants import OracleTracer
from repro.runner import tasks


def _content(e):
    """A record minus its span ids: the full tracer draws an id for
    every span, the oracle tracer only for the spans it keeps."""
    return (e.name, e.ph, e.ts, e.node, e.dur, e.op_id, e.phase, e.args)


def _judged(monkeypatch, faults, full):
    """(result, the checker's records, the whole trace) of one schedule."""
    seen = {}
    real = explorer._oracle

    def spy(cluster, workdir, protocol):
        seen["tracer"] = cluster.tracer
        return real(cluster, workdir, protocol)

    monkeypatch.setattr(explorer, "_oracle", spy)
    if full:
        monkeypatch.setattr(explorer, "build_run",
                            lambda task: tasks.build_run(task, tracer=Tracer()))
    result = run_schedule(faults, seed=0)
    monkeypatch.undo()
    events = list(seen["tracer"].events)
    return result, [_content(e) for e in InvariantChecker(events).events], events


@pytest.mark.parametrize("index", range(8))
def test_oracle_is_identical_with_a_full_tracer(monkeypatch, index):
    faults = generate_schedule(0, index, NUM_SERVERS)
    cut, cut_reads, cut_events = _judged(monkeypatch, faults, full=False)
    full, full_reads, full_events = _judged(monkeypatch, faults, full=True)
    assert cut == full  # verdict, violations, applied faults, events, vtime
    assert cut_reads == full_reads and cut_reads
    assert {e.name for e in cut_events} <= InvariantChecker.READS
    assert len(cut_events) < len(full_events)


def test_fuzz_runs_keep_only_the_oracles_names():
    run = tasks.build_run(explorer.fuzz_task(0))
    assert type(run.cluster.tracer) is OracleTracer


#: Records of the fault-free seed-0 schedule (exact, host-independent):
#: 1,108 in a full trace, of which the oracle reads these 344.
FAULT_FREE_RECORDS = {"decision": 86, "exec": 86, "wal.prune": 86,
                      "writeback": 86}
FAULT_FREE_FULL = 1108


def test_fault_free_schedule_record_count(monkeypatch):
    _r, _reads, cut_events = _judged(monkeypatch, [], full=False)
    _r, _reads, full_events = _judged(monkeypatch, [], full=True)
    assert Counter(e.name for e in cut_events) == FAULT_FREE_RECORDS
    assert len(full_events) == FAULT_FREE_FULL
