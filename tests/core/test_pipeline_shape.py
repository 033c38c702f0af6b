"""One commitment pipeline in ``core/``.

Recovery classifies the log and hands operations back to
:class:`~repro.core.coordinator.CommitManager`; it does not speak the
commitment protocol itself.  These scans fail on the first line that
re-grows a second implementation: a decision delivery or Complete tail
in ``recovery.py``, a second Complete-Record builder anywhere in
``core/``, or a reach into the active-object table's blocked queues.

One owner of crash teardown, too: the server kills what it spawned, so
a protocol generator started on the bare simulator, or any return of
the epoch / interrupt guards that ownership replaced, fails here.
"""

import ast
import pathlib
import re

import repro

SRC = pathlib.Path(repro.__file__).parent
CORE = SRC / "core"


def _offenders(paths, patterns):
    out = []
    for path in paths:
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            if any(rx.search(line) for rx in patterns):
                out.append(f"{path.relative_to(SRC)}:{lineno}: {line.strip()}")
    return out


def test_recovery_does_not_speak_the_commitment_protocol():
    forbidden = [
        re.compile(r"COMMIT_REQ"),
        re.compile(r"RecordType\.COMPLETE|_COMPLETE\b"),
        re.compile(r"\.completed\["),
    ]
    assert _offenders([CORE / "recovery.py"], forbidden) == []


def test_one_function_builds_complete_records():
    builders = []
    for path in sorted(CORE.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for call in ast.walk(fn):
                if (
                    isinstance(call, ast.Call)
                    and getattr(call.func, "id", None) == "LogRecord"
                    and "COMPLETE" in ast.unparse(call)
                ):
                    builders.append(f"{path.name}:{fn.name}")
    assert builders == ["coordinator.py:_settle"]


def test_blocked_queues_are_private_to_the_active_table():
    paths = [p for p in sorted(SRC.rglob("*.py")) if p != CORE / "active.py"]
    reach = [re.compile(r"\b(active|table)\._blocked\b")]
    assert _offenders(paths, reach) == []


def test_protocol_activities_are_spawned_on_their_server():
    paths = sorted(CORE.glob("*.py")) + sorted((SRC / "protocols").glob("*.py"))
    assert _offenders(paths, [re.compile(r"sim\.process\(")]) == []


def test_no_second_way_to_stop_a_process():
    gone = [re.compile(r"StaleEpoch|\bInterrupt\b|\.interrupt\(")]
    assert _offenders(sorted(SRC.rglob("*.py")), gone) == []


def test_roles_carry_no_crash_epoch():
    # Node.epoch (staleness of in-flight *messages*) is the network's.
    assert _offenders(sorted(SRC.rglob("*.py")), [re.compile(r"role\.epoch")]) == []
