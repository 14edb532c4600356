"""Exception types shared across the toolkit."""


class QcdeskError(Exception):
    pass


class ParseError(QcdeskError):
    """Malformed circuit file. Carries the 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line
        self.message = message


class CapacityError(QcdeskError):
    """Request exceeds a desk-scale resource ceiling."""


class WidthMismatchError(QcdeskError):
    """Two circuits being compared have different qubit counts."""


class PlanError(QcdeskError):
    """A contraction plan references a missing or already-consumed tensor."""
