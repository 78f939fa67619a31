"""Exception types, and the one log call, shared across the package."""

import sys


def log_info(logger: str, message: str, *args: object) -> None:
    """Log at INFO on ``logger`` if ``logging`` is loaded; if not, no handler exists to show it."""
    if "logging" in sys.modules:
        sys.modules["logging"].getLogger(logger).info(message, *args)


class MatchextError(Exception):
    """Base class for all matchext-specific errors."""


class OutOfRangeError(MatchextError):
    """A vertex index is outside the host graph's range."""


class NotAMatchingError(MatchextError):
    """An edge set is not a valid matching (overlapping or missing edges)."""


class InvalidParametersError(MatchextError):
    """(n, k) fails the admissibility conditions for extendability.

    Carries the failed ParameterCheck in ``check``.
    """

    def __init__(self, check):
        self.check = check
        super().__init__(
            f"inadmissible parameters n={check.n}, k={check.k}: "
            f"size_ok={check.size_ok}, parity_ok={check.parity_ok}"
        )


class InadmissibleParametersError(MatchextError):
    """A theorem instance violates the theorem's parameter preconditions."""


class NoOneFactorError(MatchextError):
    """The graph has no 1-factor but the operation requires one."""


class MalformedGraph6Error(MatchextError):
    """Invalid graph6 text. ``offset`` is the byte position of the defect."""

    def __init__(self, message, offset):
        self.offset = offset
        super().__init__(f"{message} (byte offset {offset})")


class ParseError(MatchextError):
    """Invalid edge-list text. ``line`` is the 1-based offending line."""

    def __init__(self, message, line):
        self.line = line
        super().__init__(f"line {line}: {message}")


class SelfLoopError(ParseError):
    """An edge list contains a self-loop."""


class DuplicateEdgeError(ParseError):
    """An edge list repeats an edge."""


class BudgetExceededError(MatchextError):
    """A search exceeded its wall-clock budget or its pair cap (see extendability.Budget)."""
