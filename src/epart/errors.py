"""Error types shared across the toolchain."""

from __future__ import annotations


class EpartError(Exception):
    """Base class for all tool-level errors."""


class ParseError(EpartError):
    """Source text rejected by the lexer or parser.

    kind is one of: syntax, duplicate_class, duplicate_method, duplicate_field,
    duplicate_param, no_main, multiple_main.
    """

    def __init__(self, kind: str, message: str, line: int = 0, col: int = 0):
        super().__init__(f"{kind} at {line}:{col}: {message}")
        self.kind = kind
        self.message = message
        self.line = line
        self.col = col


class ValidationFailed(EpartError):
    """Raised when a pipeline step requires a clean validation report."""

    def __init__(self, report):
        lines = "; ".join(str(v) for v in report.violations[:8])
        super().__init__(f"{len(report.violations)} validation violation(s): {lines}")
        self.report = report


class UnresolvedCall(EpartError):
    """A method body names a class or method that does not exist."""


class FormatError(EpartError):
    """An emitted artifact is malformed (bad magic, version, or structure)."""


class InterfaceMismatch(EpartError):
    """A plan's relays, proxies, entry points, annotations or interface file
    do not fit together."""


class MarshalError(EpartError):
    """A value cannot be marshaled or unmarshaled (kind mismatch, cycles, bad bytes)."""


class StaleMirror(EpartError):
    """A transition referenced a hash with no registered mirror."""

    def __init__(self, hash_value: int):
        super().__init__(f"no mirror registered for hash 0x{hash_value:016x}")
        self.hash_value = hash_value


class TransitionOverflow(EpartError):
    """Nested cross-isolate transitions exceeded the depth limit."""


class DslRuntimeError(EpartError):
    """A program-level runtime fault, carrying a DSL stack trace.

    Trace entries are "at Class.method" lines, innermost first; transition
    crossings appear as "-- <direction> boundary <relay> --" markers.
    """

    def __init__(self, message: str, trace: list[str] | None = None):
        super().__init__(message)
        self.message = message
        self.trace: list[str] = list(trace or [])

    def formatted(self) -> str:
        out = [f"runtime error: {self.message}"]
        out += [f"  {entry}" for entry in self.trace]
        return "\n".join(out)
