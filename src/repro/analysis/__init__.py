"""Evaluation harness: ratio metric, table runners and formatting."""

from .experiments import (
    PAPER_TABLES,
    InflationResult,
    TableResult,
    inflate_periods,
    priority_rule_sweep,
    run_paper_table,
    run_table_experiment,
)
from .observe import Observation, admitted_scope, observe
from .parallel import map_seeds
from .ratio import RatioStats, ratio_by_priority, stream_ratios
from .tables import format_rule_sweep, format_table

__all__ = [
    "RatioStats",
    "stream_ratios",
    "ratio_by_priority",
    "InflationResult",
    "inflate_periods",
    "TableResult",
    "run_table_experiment",
    "PAPER_TABLES",
    "run_paper_table",
    "priority_rule_sweep",
    "format_table",
    "format_rule_sweep",
    "Observation",
    "admitted_scope",
    "observe",
    "map_seeds",
]
