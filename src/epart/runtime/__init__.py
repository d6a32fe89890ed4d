"""Simulated execution of partitioned and unpartitioned programs."""

from __future__ import annotations

from ..partition.plan import PartitionPlan
from .costmodel import DEFAULT_TRANSITION_CYCLES, CostModel, load_model, parse_model
from .dual import (
    DEFAULT_GC_THRESHOLD, MAX_TRANSITION_DEPTH, DualRuntime, ExecutionResult,
    TraceEvent, run_reference, run_unpartitioned,
)
from .heap import (
    TRUSTED, UNTRUSTED, Frame, GcStats, HeapObject, InstanceObj, ListObj,
    MetricCounters, ProxyObj,
)
from .interp import Isolate, wrap64

__all__ = [
    "CostModel", "DEFAULT_GC_THRESHOLD", "DEFAULT_TRANSITION_CYCLES",
    "DualRuntime", "ExecutionResult", "Frame", "GcStats", "HeapObject",
    "InstanceObj", "Isolate", "ListObj",
    "MAX_TRANSITION_DEPTH", "MetricCounters", "ProxyObj", "TRUSTED",
    "TraceEvent", "UNTRUSTED", "load_model", "parse_model", "run_main",
    "run_reference", "run_unpartitioned", "wrap64",
]


def run_main(plan: PartitionPlan, argv: list[str] | None = None,
             **kwargs) -> ExecutionResult:
    """Execute a plan's entry point and return the run record."""
    return DualRuntime(plan, **kwargs).run_main(argv)
