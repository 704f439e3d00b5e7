"""Shared exception types, mapped to CLI exit codes in one place."""


class UsageError(ValueError):
    """A caller violated an operation's precondition (bad mode, unknown id, ...)."""


class ParseError(ValueError):
    """Instance text could not be parsed; carries a line/column diagnostic."""

    def __init__(self, message: str, line: int, column: int = 0):
        super().__init__(f"line {line}, col {column}: {message}")
        self.line = line
        self.column = column


class InfeasibleError(ValueError):
    """No valid schedule exists for the instance (battery/eligibility)."""


class SizeGuardError(ValueError):
    """The exact search ran out of its work budget (``oracle.SEARCH_BUDGET``)."""
