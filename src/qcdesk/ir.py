"""Circuit intermediate representation: gates, angles, the QCF text format.

Conventions fixed here and relied on everywhere else:
  - qubit index i has significance i; q_{n-1} is the most significant bit
  - basis-state strings are written most significant qubit first
  - for controlled gates the control is listed first and occupies the more
    significant position of the local two-qubit space
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

import numpy as np

from .errors import ParseError, WidthMismatchError

_SQRT2_INV = 1.0 / math.sqrt(2.0)


class GateKind(Enum):
    X = "x"
    Y = "y"
    Z = "z"
    H = "h"
    S = "s"
    SDG = "sdg"
    T = "t"
    TDG = "tdg"
    RX = "rx"
    RZ = "rz"
    CX = "cx"
    CZ = "cz"
    SWAP = "swap"

    __hash__ = object.__hash__  # members are singletons equal only to themselves: hash by id, in C


def _phase(p: complex) -> np.ndarray:
    return np.array([[1, 0], [0, p]], dtype=complex)


def _rx(p: complex) -> np.ndarray:
    # H . diag(1, p) . H -- 2*pi-periodic in the angle, so reduced angles stay exact
    return 0.5 * np.array([[1 + p, 1 - p], [1 - p, 1 + p]], dtype=complex)


# one row per kind: its inverse, and its unitary over the local 2^k space with the
# first listed qubit most significant. An angle-taking kind's inverse negates the
# angle, and its unitary is a function of p = e^{i angle}.
_GATES: dict[GateKind, tuple[GateKind, np.ndarray | Callable[[complex], np.ndarray]]] = {
    GateKind.X: (GateKind.X, np.array([[0, 1], [1, 0]], dtype=complex)),
    GateKind.Y: (GateKind.Y, np.array([[0, -1j], [1j, 0]], dtype=complex)),
    GateKind.Z: (GateKind.Z, _phase(-1)),
    GateKind.H: (GateKind.H, np.array([[1, 1], [1, -1]], dtype=complex) * _SQRT2_INV),
    GateKind.S: (GateKind.SDG, _phase(1j)),
    GateKind.SDG: (GateKind.S, _phase(-1j)),
    GateKind.T: (GateKind.TDG, _phase(np.exp(1j * math.pi / 4))),
    GateKind.TDG: (GateKind.T, _phase(np.exp(-1j * math.pi / 4))),
    GateKind.RX: (GateKind.RX, _rx),
    GateKind.RZ: (GateKind.RZ, _phase),
    GateKind.CX: (GateKind.CX, np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)),
    GateKind.CZ: (GateKind.CZ, np.diag([1, 1, 1, -1]).astype(complex)),
    GateKind.SWAP: (GateKind.SWAP, np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex)),
}

PARAMETRIC_KINDS = frozenset(k for k, (_, m) in _GATES.items() if callable(m))
TWO_QUBIT_KINDS = frozenset(k for k, (_, m) in _GATES.items() if not callable(m) and len(m) == 4)
_MNEMONICS = {k.value: k for k in GateKind}


def gate_arity(kind: GateKind) -> int:
    return 2 if kind in TWO_QUBIT_KINDS else 1


@dataclass(frozen=True)
class Angle:
    """Exact angle pi * numerator / denominator, reduced modulo 2*pi.

    Rational-of-pi angles keep ZX phase arithmetic exact and make unique-table
    keys stable; every gate in the set only ever needs such angles.
    """

    numerator: int
    denominator: int = 1

    def __post_init__(self):
        n, d = self.numerator, self.denominator
        if d == 0:
            raise ValueError("angle denominator must be nonzero")
        g = math.gcd(n, d) if d > 0 else -math.gcd(n, d)  # lowest terms, d > 0
        d //= g
        object.__setattr__(self, "numerator", n // g % (2 * d))  # coprime to d still
        object.__setattr__(self, "denominator", d)

    @property
    def radians(self) -> float:
        return math.pi * self.numerator / self.denominator

    def __neg__(self) -> "Angle":
        return Angle(-self.numerator, self.denominator)

    def __add__(self, other: "Angle") -> "Angle":
        d = self.denominator * other.denominator
        return Angle(self.numerator * other.denominator + other.numerator * self.denominator, d)

    def is_zero(self) -> bool:
        return self.numerator == 0

    def __str__(self) -> str:
        if self.denominator == 1:
            return str(self.numerator)
        return f"{self.numerator}/{self.denominator}"


@dataclass(frozen=True)
class Gate:
    kind: GateKind
    qubits: tuple[int, ...]
    angle: Angle | None = None

    def __post_init__(self):
        object.__setattr__(self, "qubits", tuple(self.qubits))
        arity = gate_arity(self.kind)
        if len(self.qubits) != arity:
            raise ValueError(f"{self.kind.value} expects {arity} qubit(s)")
        if arity == 2 and self.qubits[0] == self.qubits[1]:
            raise ValueError("gate qubits must be distinct")
        if min(self.qubits) < 0:
            raise ValueError("negative qubit index")
        if (self.angle is not None) != (self.kind in PARAMETRIC_KINDS):
            raise ValueError(f"{self.kind.value}: angle present iff gate is rx/rz")


@dataclass(frozen=True)
class Circuit:
    num_qubits: int
    gates: tuple[Gate, ...] = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "gates", tuple(self.gates))
        if self.num_qubits < 1:
            raise ValueError("circuit needs at least one qubit")
        for g in self.gates:
            if max(g.qubits) >= self.num_qubits:
                raise ValueError(f"gate {g.kind.value} references qubit outside width {self.num_qubits}")


def check_basis(bits: str, n: int) -> None:
    """Raise ValueError unless bits is an n-qubit basis-state string of 0s and 1s."""
    if len(bits) != n:
        raise ValueError("basis state length != qubit count")
    if not set(bits) <= {"0", "1"}:
        raise ValueError(f"basis state {bits!r} has a character other than 0 and 1")


def index_bits(i: int, n: int) -> str:
    return format(i, f"0{n}b")


def parse_circuit(text: str) -> Circuit:
    """Parse the QCF line format into a Circuit.

    Grammar: comment lines start with '#', blanks are skipped, the first
    significant line must be 'qubits <n>', gate lines are
    '<mnemonic> [<angle>] <q0> [<q1>]' with angles written p/q or p (units of pi).
    """
    num_qubits = None
    gates: list[Gate] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split()  # split strips the same whitespace that strip does
        if not tokens or tokens[0][0] == "#":
            continue
        if num_qubits is None:
            if tokens[0] != "qubits" or len(tokens) != 2:
                raise ParseError(lineno, "expected 'qubits <n>' header")
            try:
                if not (tokens[1].isascii() and tokens[1].isdigit()):
                    raise ValueError
                num_qubits = int(tokens[1])  # also ValueError past Python's 4,300-digit limit
            except ValueError:
                raise ParseError(lineno, f"bad qubit count {tokens[1]!r}") from None
            if num_qubits < 1:
                raise ParseError(lineno, "qubit count must be >= 1")
            continue
        kind = _MNEMONICS.get(tokens[0])
        if kind is None:
            raise ParseError(lineno, f"unknown gate {tokens[0]!r}")
        rest = tokens[1:]
        angle = None
        if kind in PARAMETRIC_KINDS:
            if not rest:
                raise ParseError(lineno, f"{kind.value} needs an angle")
            angle = _parse_angle(rest[0])
            if angle is None:
                raise ParseError(lineno, f"malformed angle {rest[0]!r}")
            rest = rest[1:]
        if len(rest) != gate_arity(kind):
            raise ParseError(lineno, f"{kind.value} expects {gate_arity(kind)} qubit index(es)")
        digits = "".join(rest)  # every token is nonempty, so all are digits iff this is
        try:
            if not (digits.isascii() and digits.isdigit()):
                raise ValueError
            qubits = tuple(map(int, rest))  # also ValueError past Python's 4,300-digit limit
        except ValueError:
            raise ParseError(lineno, "bad qubit index") from None
        if max(qubits) >= num_qubits:
            raise ParseError(lineno, f"qubit index out of range for width {num_qubits}")
        try:
            gates.append(Gate(kind, qubits, angle))
        except ValueError as exc:
            raise ParseError(lineno, str(exc)) from None
    if num_qubits is None:
        raise ParseError(1, "missing 'qubits' header")
    return Circuit(num_qubits, tuple(gates))


@functools.lru_cache(maxsize=1024)
def _parse_angle(token: str) -> Angle | None:
    """The angle a token writes, or None if it is malformed."""
    num, slash, den = token.partition("/")
    try:
        # each part ASCII digits after at most one '-': int() also takes '+', '_' and other digits
        if not (token.isascii() and num.removeprefix("-").isdigit()
                and (not slash or den.removeprefix("-").isdigit())):
            raise ValueError
        return Angle(int(num), int(den) if slash else 1)
    except ValueError:  # also a zero denominator, or past int()'s digit limit
        return None


def render_circuit(c: Circuit) -> str:
    """Canonical QCF text; parse_circuit(render_circuit(c)) round-trips."""
    lines = [f"qubits {c.num_qubits}"]
    for g in c.gates:
        parts = [g.kind.value]
        if g.angle is not None:
            parts.append(str(g.angle))
        parts.extend(str(q) for q in g.qubits)
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


def gate_matrix(g: Gate) -> np.ndarray:
    """Unitary of the gate over its local 2^k space, first listed qubit most significant."""
    m = _GATES[g.kind][1]
    return m(np.exp(1j * g.angle.radians)) if callable(m) else m.copy()


def adjoint_gate(g: Gate) -> Gate:
    return Gate(_GATES[g.kind][0], g.qubits, None if g.angle is None else -g.angle)


def adjoint_circuit(c: Circuit) -> Circuit:
    """Inverse circuit: gates reversed, each replaced by its inverse."""
    return Circuit(c.num_qubits, tuple(adjoint_gate(g) for g in reversed(c.gates)))


# Every equivalence method decides on U = U2^dagger U1, t = tr U / |tr U|: equivalent iff
# max |U - t I| <= this, else the witness is the lowest j with |U_jj| <= min + this.
EQUIVALENCE_TOLERANCE = 1e-9


@dataclass(frozen=True)
class Miter:
    """c1 then adjoint_circuit(c2) less the gate pairs that cancel: the one circuit of
    U2^dagger U1 that every equivalence method decides on. Its first `split` gates
    are kept from c1, the rest are inverses of c2's gates."""

    circuit: Circuit
    split: int


def miter(c1: Circuit, c2: Circuit) -> Miter:
    """Each gate g whose nearest earlier kept gate on a shared qubit is exactly
    g^dagger is dropped with it. The gates between them act on other qubits, so
    the kept gates compose to exactly U2^dagger U1."""
    if c1.num_qubits != c2.num_qubits:
        raise WidthMismatchError("circuits have different widths")
    gates: list[Gate | None] = []  # one per step; None where a pair cancelled
    latest: list[list[int]] = [[] for _ in range(c1.num_qubits)]  # kept steps per qubit
    # (gate, its inverse): c2's inverses come with their inverse, c2's own gate;
    # a c1 gate is inverted only when the kept gate before it is on its qubits
    steps = [(g, None) for g in c1.gates] + [(adjoint_gate(g), g) for g in reversed(c2.gates)]
    for g, inverse in steps:
        near = max((latest[q][-1] for q in g.qubits if latest[q]), default=None)
        paired = near is not None and gates[near].qubits == g.qubits
        if paired and gates[near] == (adjoint_gate(g) if inverse is None else inverse):
            for q in g.qubits:  # gates[near] is last on each of them
                latest[q].pop()
            gates[near] = g = None
        else:
            for q in g.qubits:
                latest[q].append(len(gates))
        gates.append(g)
    split = sum(g is not None for g in gates[: len(c1.gates)])
    return Miter(Circuit(c1.num_qubits, tuple(g for g in gates if g is not None)), split)
