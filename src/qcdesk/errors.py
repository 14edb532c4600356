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
    """Request exceeds the desk-scale memory budget."""


MAX_BYTES = 2**29  # the one budget: a DD expanding a 24-qubit state holds two such states


def reserve(nbytes: int, what: str) -> None:
    """Call before allocating: CapacityError if nbytes, what holds at once, is past MAX_BYTES."""
    if nbytes > MAX_BYTES:
        raise CapacityError(f"{what} needs {nbytes} bytes; the budget is {MAX_BYTES}")


class WidthMismatchError(QcdeskError):
    """Two circuits being compared have different qubit counts."""


class PlanError(QcdeskError):
    """A contraction plan references a missing or already-consumed tensor."""
