"""epart: annotation-driven program partitioning for enclave simulation.

Parse an annotated source program, validate it, split it into a trusted
and an untrusted image joined by proxies and relays, then execute the
pair under a cycle-accurate cost model, or run the same program whole
for comparison.
"""

from ._version import __version__
from .dsl import analyze_calls, parse_program, validate
from .partition import compute_images, emit, load_plan
from .runtime import (
    CostModel, DualRuntime, ExecutionResult, run_main, run_reference,
    run_unpartitioned,
)

__all__ = [
    "CostModel", "DualRuntime", "ExecutionResult", "__version__",
    "analyze_calls", "compute_images", "emit", "load_plan", "parse_program",
    "run_main", "run_reference", "run_unpartitioned", "validate",
]
