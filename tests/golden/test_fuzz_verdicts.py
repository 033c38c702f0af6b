"""``fuzz_verdicts.json`` pins every certified fuzz schedule.

CI's ``fuzz-smoke`` job replays all of them and compares its resume
file with ``regen_golden.py --check-fuzz``; here the pinned file's shape
is checked and the first schedules of each protocol are replayed, so a
change that moves a fault-schedule replay fails tier-1 too.  Regenerate
after an intentional change with::

    PYTHONPATH=src python tests/golden/regen_golden.py --fuzz
"""

from __future__ import annotations

import pytest

from repro.faultfuzz import generate_schedule, run_schedule
from repro.faultfuzz.explorer import NUM_SERVERS
from tests.golden.regen_golden import (
    FUZZ_PROTOCOLS,
    FUZZ_SCHEDULES,
    FUZZ_SEEDS,
    load_fuzz_verdicts,
)

#: Schedules of seed 0 replayed per protocol in tier-1.
REPLAYED = 8


def test_pins_every_certified_leg_clean():
    pinned = load_fuzz_verdicts()
    assert set(pinned) == set(FUZZ_PROTOCOLS)
    for protocol in FUZZ_PROTOCOLS:
        assert set(pinned[protocol]) == {str(s) for s in FUZZ_SEEDS}
        for rows in pinned[protocol].values():
            assert [r[0] for r in rows] == list(range(FUZZ_SCHEDULES))
            assert {r[1] for r in rows} == {"ok"}


@pytest.mark.parametrize("protocol", FUZZ_PROTOCOLS)
def test_first_schedules_replay_as_pinned(protocol):
    rows = load_fuzz_verdicts()[protocol]["0"][:REPLAYED]
    for index, verdict, events, vtime in rows:
        faults = generate_schedule(0, index, NUM_SERVERS)
        r = run_schedule(faults, seed=0, index=index, protocol=protocol)
        assert [r.index, r.verdict, r.events, r.vtime] == [
            index, verdict, events, vtime
        ]
