"""Exception hierarchy shared across the toolkit, and the up-front check
that an allocation fits in memory.

The CLI maps these onto exit codes: ValidationError -> 1, InputError -> 2,
NumericalError -> 3.
"""

from __future__ import annotations

import os


class ToolkitError(Exception):
    """Base class for all toolkit-raised errors."""


class InputError(ToolkitError, ValueError):
    """Invalid arguments, ids out of range, malformed input files."""


class DegenerateInputError(InputError):
    """Structurally valid input on which the operation is undefined
    (all-zero degrees, no reachable pairs, edgeless graph, ...)."""


class ParseError(InputError):
    """Malformed line in a text input file."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message)
        self.line = line


class ValidationError(ToolkitError):
    """A consistency check failed (fixture checks, rejected self-loops)."""


class NumericalError(ToolkitError):
    """Numerical procedure failed: non-convergence, divergence, fit failure."""


class FitError(NumericalError):
    """Distribution fit could not be carried out on the given data."""


class DivergenceError(NumericalError):
    """Simulated state left the finite range."""

    def __init__(self, message: str, time: float):
        super().__init__(message)
        self.time = time


def check_memory(nbytes: float, what: str) -> None:
    """Raise InputError, naming the bytes, when ``what`` needs more than
    the machine's physical memory."""
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if nbytes > memory:
        raise InputError(
            f"{what} need {nbytes:.6g} bytes, more than the {memory} bytes of physical memory"
        )
