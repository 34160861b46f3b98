"""Exception types for the XS1 processor model."""

from __future__ import annotations


class XS1Error(Exception):
    """Base class for all XS1 model errors."""


class AssemblerError(XS1Error):
    """Raised for syntactically or semantically invalid assembly source."""

    def __init__(self, message: str, line_number: int | None = None):
        self.line_number = line_number
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)


class MemoryAccessError(XS1Error):
    """Raised for out-of-range or misaligned SRAM accesses.

    The XS1-L traps these in hardware; the simulator raises instead, which
    in a time-deterministic system is the analogous observable behaviour.
    """


class ResourceError(XS1Error):
    """Raised for invalid resource (chanend/timer/lock) operations."""


class ExhaustedError(ResourceError):
    """The runtime ran out of machine: every core failed, no hardware
    thread is free, or the fault budget is spent.

    A run that raises it ends with outcome ``exhausted`` (see
    :class:`~repro.checkpoint.resume.ResumableRun`); any other
    :class:`ResourceError` is a workload's own error and fails the run.
    """


class TrapError(XS1Error):
    """Raised when a thread executes an illegal or unimplemented operation."""
