"""Workloads: the paper's six traces, Metarates, replay, injection."""

from repro.workloads.spec import TRACE_SPECS, TraceSpec
from repro.workloads.traces import TraceWorkload
from repro.workloads.metarates import MetaratesWorkload
from repro.workloads.replay import ReplaySummary, replay_streams
from repro.workloads.synth import SYNTH_MIXES, SynthSpec, SynthWorkload
from repro.workloads.inject import (
    build_probe_op,
    replay_streams_with_injection,
)

__all__ = [
    "build_probe_op",
    "MetaratesWorkload",
    "ReplaySummary",
    "SYNTH_MIXES",
    "SynthSpec",
    "SynthWorkload",
    "TRACE_SPECS",
    "TraceSpec",
    "TraceWorkload",
    "replay_streams",
    "replay_streams_with_injection",
]
