"""Experiment harness: every table and figure of the paper's evaluation.

Each ``run_*`` function regenerates one artifact and returns a result
object with both the measured values and the paper's reference values;
``benchmarks/`` wraps them in pytest-benchmark entries and asserts the
qualitative shape.
"""

from repro.experiments.common import (
    EXPERIMENT_TIMEOUT,
    TRACE_SCALES,
    build_trace_cluster,
)
from repro.experiments.table1 import run_table1
from repro.experiments.table2 import run_table2
from repro.experiments.table3 import run_table3
from repro.experiments.table4 import run_table4
from repro.experiments.table5 import run_table5
from repro.experiments.fig4 import run_fig4
from repro.experiments.fig5 import run_fig5
from repro.experiments.fig6 import run_fig6
from repro.experiments.fig7 import run_fig7
from repro.experiments.fig8 import run_fig8
from repro.experiments.fig9 import run_fig9
from repro.experiments.scale import run_scale

__all__ = [
    "EXPERIMENT_TIMEOUT",
    "TRACE_SCALES",
    "build_trace_cluster",
    "run_fig4",
    "run_fig5",
    "run_fig6",
    "run_fig7",
    "run_fig8",
    "run_fig9",
    "run_scale",
    "run_table1",
    "run_table2",
    "run_table3",
    "run_table4",
    "run_table5",
]
