"""Partitioner: proxies, relays, pruning from main, image emission."""

from .callgraph import CONCRETE, PROXY, CallGraph, Node, build_call_graph
from .emit import (
    INTERFACE_FILE, TRUSTED_IMG, UNTRUSTED_IMG, emit, load_plan, render_interface,
)
from .model import MarshalKind, RelayMethodDef, classify, relay_direction
from .plan import (
    ImageSpec, PartitionPlan, compute_images, derive_interface, find_main,
    whole_program_plan,
)

__all__ = [
    "CONCRETE", "PROXY", "CallGraph", "Node", "build_call_graph",
    "INTERFACE_FILE", "TRUSTED_IMG", "UNTRUSTED_IMG", "emit",
    "load_plan", "render_interface",
    "MarshalKind", "RelayMethodDef", "classify", "relay_direction",
    "ImageSpec", "PartitionPlan", "compute_images", "derive_interface",
    "find_main", "whole_program_plan",
]
