"""The kernel's storage format is private to ``src/repro/sim/``.

Layers above the kernel schedule through its methods (``timeout_h``,
``succeed_pending`` …) and can read, never move, the sequence counter
(``seq``).  A file outside ``sim/`` that tests ``type(x) is int`` to
tell a handle from an Event, that reads the state columns, lanes or
heap directly, or that reaches into a ``Store``'s queues, re-couples
itself to the kernel's layout — this scan fails on the first such line.
"""

import pathlib
import re

import repro

SRC = pathlib.Path(repro.__file__).parent
FORBIDDEN = [
    re.compile(r"type\([a-z_]+\) is int"),
    re.compile(r"\._(ast|aval|acb|aq|afree|heap|free_nodes|lane_|periodics)"),
    re.compile(r"\._(items|getters|closed)\b"),
]


def test_no_file_outside_sim_touches_kernel_storage():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        if SRC / "sim" in path.parents:
            continue
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            if any(rx.search(line) for rx in FORBIDDEN):
                offenders.append(f"{path.relative_to(SRC)}:{lineno}: {line.strip()}")
    assert offenders == []
