"""Abstract cycle cost model for the simulated runtime.

All prices are in abstract cycles.  epc_penalty is a multiplier applied to
memory-bound work (allocation, field access, compute, GC scanning) executed in
the trusted isolate; it does not scale transition or serialization costs, which
the model prices identically on both sides.  An isolate only counts events;
price turns its counts into cycles on read, under any model.
"""

from __future__ import annotations

import dataclasses
import re
from dataclasses import dataclass
from pathlib import Path

# Round-trip transition price measured for SGX-class hardware.
DEFAULT_TRANSITION_CYCLES = 13100

_INT_FIELDS = ("ecall_cost", "ocall_cost", "alloc_cost", "field_access_cost",
               "serialize_per_byte", "compute_unit_cost", "io_write_cost")


@dataclass(frozen=True)
class CostModel:
    ecall_cost: int = DEFAULT_TRANSITION_CYCLES
    ocall_cost: int = DEFAULT_TRANSITION_CYCLES
    alloc_cost: int = 10
    field_access_cost: int = 2
    serialize_per_byte: int = 5
    epc_penalty: float = 4.0
    compute_unit_cost: int = 1
    io_write_cost: int = 2000

    def __post_init__(self) -> None:
        for name in _INT_FIELDS:
            v = getattr(self, name)
            if not isinstance(v, int) or not 0 <= v <= 2**63 - 1:
                raise ValueError(f"{name} must be an integer in [0, 2**63 - 1], "
                                 f"got {v!r}")
        # False for nan.  With prices and penalty bounded, every product
        # that scaled() rounds is a finite float.
        if not 1 <= self.epc_penalty <= 1e6:
            raise ValueError(f"epc_penalty must be a number in [1, 1e6], "
                             f"got {self.epc_penalty!r}")

    def scaled(self, base: int, trusted: bool) -> int:
        """Price memory-bound work, applying the EPC penalty in the enclave."""
        if not trusted:
            return base
        return round(base * self.epc_penalty)

    def gc_cycles(self, nbytes: int, trusted: bool) -> int:
        """Price one collection that visited nbytes of heap."""
        return self.scaled(nbytes * self.field_access_cost, trusted)

    def price(self, iso) -> dict[str, int]:
        """An isolate's cycles by source, one entry per source with an event
        (even at price 0); compute and gc round per event, per base amount."""
        scaled, trusted, out = self.scaled, iso.trusted, {}
        if iso.ecalls or iso.ocalls:
            out["transition"] = (iso.ecalls * self.ecall_cost
                                 + iso.ocalls * self.ocall_cost)
        if iso.bytes_serialized:
            out["serialize"] = iso.bytes_serialized * self.serialize_per_byte
        if iso.allocations:
            out["alloc"] = iso.allocations * scaled(self.alloc_cost, trusted)
        if iso.field_accesses:
            out["field"] = iso.field_accesses * scaled(self.field_access_cost, trusted)
        if iso.compute_units:
            out["compute"] = sum(n * scaled(units * self.compute_unit_cost, trusted)
                                 for units, n in iso.compute_units.items())
        if iso.gc_bytes:
            out["gc"] = sum(n * self.gc_cycles(nbytes, trusted)
                            for nbytes, n in iso.gc_bytes.items())
        if iso.io_writes:
            out["io"] = iso.io_writes * self.io_write_cost
        return out


_FIELD_NAMES = {f.name for f in dataclasses.fields(CostModel)}
# ASCII only: int() and float() also read other scripts' digits and "_".  nan
# and inf read as floats, for the range check to name them.
_INT = re.compile(r"[+-]?[0-9]+")
_FLOAT = re.compile(r"[+-]?(?:(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:e[+-]?[0-9]+)?"
                    r"|nan|inf|infinity)", re.ASCII | re.IGNORECASE)


def parse_model(text: str) -> CostModel:
    """Parse flat key = value text; unknown keys are rejected."""
    values: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key = value, got {line!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in _FIELD_NAMES:
            raise ValueError(f"line {lineno}: unknown cost model key {key!r}")
        if key in values:
            raise ValueError(f"line {lineno}: duplicate key {key!r}")
        is_float = key == "epc_penalty"
        if not (_FLOAT if is_float else _INT).fullmatch(val):
            raise ValueError(f"line {lineno}: bad value for {key}: {val!r}")
        try:
            values[key] = float(val) if is_float else int(val)
        except ValueError as e:  # more digits than int() reads
            raise ValueError(f"line {lineno}: bad value for {key}: {val!r}") from e
    return CostModel(**values)  # type: ignore[arg-type]


def load_model(path: str | Path) -> CostModel:
    return parse_model(Path(path).read_text(encoding="utf-8"))
