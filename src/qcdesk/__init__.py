"""Desk-scale quantum circuit toolkit.

Four complementary backends behind one circuit IR: dense arrays (ground
truth), decision diagrams, tensor networks, and ZX-calculus rewriting, with
cross-backend differential checking and equivalence verdicts.
"""
from .ir import (
    Angle,
    Circuit,
    Gate,
    GateKind,
    adjoint_circuit,
    gate_matrix,
    parse_circuit,
    render_circuit,
)
from .errors import (
    CapacityError,
    ParseError,
    PlanError,
    QcdeskError,
    WidthMismatchError,
)
from .verify import BackendId, EquivalenceStatus, check_equivalence, cross_check

__all__ = [
    "Angle",
    "Circuit",
    "Gate",
    "GateKind",
    "adjoint_circuit",
    "gate_matrix",
    "parse_circuit",
    "render_circuit",
    "CapacityError",
    "ParseError",
    "PlanError",
    "QcdeskError",
    "WidthMismatchError",
    "BackendId",
    "EquivalenceStatus",
    "check_equivalence",
    "cross_check",
]

__version__ = "0.1.0"
