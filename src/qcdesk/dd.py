"""Decision-diagram backend: canonical edge-weighted DDs for vectors and matrices.

A matrix DD quarters its matrix level by level (q_{n-1} at the top) into 2 x 2
sub-blocks, row-major; a vector DD is a one-column matrix DD, halving the
amplitude vector into 2 x 1 sub-blocks. One multiply, one adder and one
expander serve both, reading the column count off the node. Equal sub-blocks
are shared through a unique table and common factors live on edge weights.
Diagrams here are quasi-reduced: every nonzero edge below level v points to a
node at exactly level v-1, zero edges jump straight to the terminal (0-stubs).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional, Union

import numpy as np

from .errors import CapacityError, WidthMismatchError
from . import dense
from .ir import Circuit, Gate, adjoint_circuit, check_basis, gate_matrix

# Weights are rounded to this many decimals for unique-table keys and
# zero detection, so floating-point drift cannot break node sharing.
_GRID_DECIMALS = 10

MAX_EQUIV_QUBITS = 12


class _Node:
    __slots__ = ("var", "edges")

    def __init__(self, var: int, edges: tuple):
        self.var = var
        self.edges = edges  # 2 x cols DDEdges, row-major: cols 1 (vector) or 2 (matrix)


class DDEdge(NamedTuple):
    w: complex
    node: Optional[_Node]  # None = terminal


ZERO_EDGE = DDEdge(0j, None)


@dataclass
class VectorDD:
    n: int
    root: DDEdge


@dataclass
class MatrixDD:
    n: int
    root: DDEdge


def _key_weight(w: complex) -> tuple[float, float]:
    re = round(w.real, _GRID_DECIMALS)
    im = round(w.imag, _GRID_DECIMALS)
    # avoid distinct -0.0 / 0.0 keys
    return (re + 0.0, im + 0.0)


def _is_zero(w: complex) -> bool:
    return _key_weight(w) == (0.0, 0.0)


class DDBackend:
    """One unique table plus memoization tables; confine to one thread."""

    def __init__(self):
        self._unique: dict = {}
        self._memo_mult: dict = {}
        self._memo_add: dict = {}

    # ---- node construction -------------------------------------------------

    def _make_node(self, var: int, edges: list[DDEdge]) -> DDEdge:
        """Normalize successors and hash-cons; returns the incoming edge."""
        edges = [
            ZERO_EDGE if _is_zero(e.w) else e for e in edges
        ]
        norm = next((e.w for e in edges if e.node is not None or e.w != 0), None)
        if norm is None:
            return ZERO_EDGE
        scaled = tuple(
            ZERO_EDGE if e is ZERO_EDGE else DDEdge(e.w / norm, e.node) for e in edges
        )
        key = (var, len(scaled)) + tuple(
            (_key_weight(e.w), id(e.node)) for e in scaled
        )
        node = self._unique.get(key)
        if node is None:
            node = _Node(var, scaled)
            self._unique[key] = node
        return DDEdge(norm, node)

    def clear_memo(self):
        self._memo_mult.clear()
        self._memo_add.clear()

    # ---- vector DDs --------------------------------------------------------

    def vector_to_dd(self, s: dense.StateVector) -> VectorDD:
        amps = np.asarray(s.amps, dtype=complex)

        def rec(lo: int, hi: int, level: int) -> DDEdge:
            if level < 0:
                w = amps[lo]
                return ZERO_EDGE if _is_zero(w) else DDEdge(complex(w), None)
            mid = (lo + hi) // 2
            e0 = rec(lo, mid, level - 1)
            e1 = rec(mid, hi, level - 1)
            return self._make_node(level, [e0, e1])

        return VectorDD(s.n, rec(0, len(amps), s.n - 1))

    def zero_state_dd(self, n: int) -> VectorDD:
        """|0...0> built structurally: one node per level, one-successor 0-stub."""
        edge = DDEdge(1.0 + 0j, None)
        for level in range(n):
            edge = self._make_node(level, [edge, ZERO_EDGE])
        return VectorDD(n, edge)

    def dd_to_vector(self, d: VectorDD) -> dense.StateVector:
        if d.n > dense.MAX_STATE_QUBITS:
            raise CapacityError(f"{d.n} qubits exceeds {dense.MAX_STATE_QUBITS}")
        return dense.StateVector(d.n, _expand(d.root, d.n, 1).reshape(-1))

    def get_amplitude(self, d: VectorDD, bits: str) -> complex:
        check_basis(bits, d.n)
        w = d.root.w
        node = d.root.node
        while node is not None:
            if w == 0:
                return 0j
            b = int(bits[d.n - 1 - node.var])
            edge = node.edges[b]
            w *= edge.w
            node = edge.node
        return complex(w)

    # ---- matrix DDs --------------------------------------------------------

    def gate_to_mdd(self, g: Gate, n: int) -> MatrixDD:
        if any(q >= n for q in g.qubits):
            raise ValueError("gate qubit outside register")
        mat = gate_matrix(g)
        gq = list(g.qubits)  # first listed qubit = most significant local bit
        k = len(gq)
        memo: dict = {}

        def local_index(sel: tuple) -> int:
            idx = 0
            for p in range(k):
                idx = (idx << 1) | sel[p]
            return idx

        def rec(level: int, rsel: tuple, csel: tuple) -> DDEdge:
            key = (level, rsel, csel)
            cached = memo.get(key)
            if cached is not None:
                return cached
            if level < 0:
                w = mat[local_index(rsel), local_index(csel)]
                out = ZERO_EDGE if _is_zero(w) else DDEdge(complex(w), None)
            elif level in gq:
                p = gq.index(level)
                quarters = []
                for r in (0, 1):
                    for c in (0, 1):
                        rs = rsel[:p] + (r,) + rsel[p + 1 :]
                        cs = csel[:p] + (c,) + csel[p + 1 :]
                        quarters.append(rec(level - 1, rs, cs))
                out = self._make_node(level, quarters)
            else:
                sub = rec(level - 1, rsel, csel)
                out = self._make_node(level, [sub, ZERO_EDGE, ZERO_EDGE, sub])
            memo[key] = out
            return out

        root = rec(n - 1, (0,) * k, (0,) * k)
        return MatrixDD(n, root)

    def identity_mdd(self, n: int) -> MatrixDD:
        edge = DDEdge(1.0 + 0j, None)
        for level in range(n):
            edge = self._make_node(level, [edge, ZERO_EDGE, ZERO_EDGE, edge])
        return MatrixDD(n, edge)

    def mdd_to_matrix(self, m: MatrixDD) -> np.ndarray:
        if m.n > dense.MAX_UNITARY_QUBITS:
            raise CapacityError(f"{m.n} qubits exceeds {dense.MAX_UNITARY_QUBITS}")
        return _expand(m.root, m.n, 2)

    # ---- arithmetic --------------------------------------------------------

    def add(self, a: DDEdge, b: DDEdge, level: int) -> DDEdge:
        if _is_zero(a.w):
            return b
        if _is_zero(b.w):
            return a
        if level < 0:
            w = a.w + b.w
            return ZERO_EDGE if _is_zero(w) else DDEdge(w, None)
        key = (id(a.node), _key_weight(a.w), id(b.node), _key_weight(b.w))
        cached = self._memo_add.get(key)
        if cached is not None:
            return cached
        sums = [
            self.add(
                DDEdge(a.w * ea.w, ea.node), DDEdge(b.w * eb.w, eb.node), level - 1
            )
            for ea, eb in zip(a.node.edges, b.node.edges)
        ]
        out = self._make_node(level, sums)
        self._memo_add[key] = out
        return out

    def _mult(self, a: DDEdge, b: DDEdge, level: int) -> DDEdge:
        """Product of a square matrix DD and a 2^n x cols^n DD (cols 1 or 2)."""
        if _is_zero(a.w) or _is_zero(b.w):
            return ZERO_EDGE
        if level < 0:
            return DDEdge(a.w * b.w, None)
        key = (id(a.node), id(b.node))
        cached = self._memo_mult.get(key)
        if cached is None:
            cols = len(b.node.edges) // 2
            blocks = []
            for r in (0, 1):
                for c in range(cols):
                    p0 = self._mult(a.node.edges[2 * r], b.node.edges[c], level - 1)
                    p1 = self._mult(
                        a.node.edges[2 * r + 1], b.node.edges[cols + c], level - 1
                    )
                    blocks.append(self.add(p0, p1, level - 1))
            cached = self._make_node(level, blocks)
            self._memo_mult[key] = cached
        return DDEdge(a.w * b.w * cached.w, cached.node)

    def mult_mv(self, m: MatrixDD, v: VectorDD) -> VectorDD:
        if m.n != v.n:
            raise WidthMismatchError("matrix and vector widths differ")
        self.clear_memo()
        return VectorDD(v.n, self._mult(m.root, v.root, v.n - 1))

    def mult_mm(self, a: MatrixDD, b: MatrixDD) -> MatrixDD:
        if a.n != b.n:
            raise WidthMismatchError("matrix widths differ")
        self.clear_memo()
        return MatrixDD(a.n, self._mult(a.root, b.root, a.n - 1))

    # ---- circuit-level operations -----------------------------------------

    def simulate(self, c: Circuit) -> VectorDD:
        v = self.zero_state_dd(c.num_qubits)
        for g in c.gates:
            m = self.gate_to_mdd(g, c.num_qubits)
            v = self.mult_mv(m, v)
        return v

    def circuit_mdd(self, c: Circuit) -> MatrixDD:
        u = self.identity_mdd(c.num_qubits)
        for g in c.gates:
            u = self.mult_mm(self.gate_to_mdd(g, c.num_qubits), u)
        return u

    def trace(self, m: MatrixDD) -> complex:
        memo: dict[int, complex] = {}

        def rec(node: Optional[_Node]) -> complex:
            if node is None:
                return 1.0 + 0j
            cached = memo.get(id(node))
            if cached is not None:
                return cached
            e0, e3 = node.edges[0], node.edges[3]
            t = e0.w * rec(e0.node) + e3.w * rec(e3.node)
            memo[id(node)] = t
            return t

        return m.root.w * rec(m.root.node)

    def least_diagonal(self, m: MatrixDD) -> str:
        """Basis string j with the smallest |m[j, j]|, by one walk over edges 0 and 3.

        A 0-stub is a zero block, so the bits below it are 0; ties take the 0 edge.
        """
        memo: dict[int, tuple[float, str]] = {}

        def rec(node: _Node) -> tuple[float, str]:
            best = memo.get(id(node))
            if best is None:
                for bit, e in (("0", node.edges[0]), ("1", node.edges[3])):
                    mag, bits = (1.0, "0" * node.var) if e.node is None else rec(e.node)
                    if best is None or abs(e.w) * mag < best[0]:
                        best = (abs(e.w) * mag, bit + bits)
                memo[id(node)] = best
            return best

        return "0" * m.n if m.root.node is None else rec(m.root.node)[1]


def node_count(d: Union[VectorDD, MatrixDD]) -> int:
    """Distinct decision nodes reachable from the root, terminal excluded."""
    seen: set[int] = set()

    def walk(node: Optional[_Node]):
        if node is None or id(node) in seen:
            return
        seen.add(id(node))
        for e in node.edges:
            walk(e.node)

    walk(d.root.node)
    return len(seen)


def _expand(root: DDEdge, n: int, cols: int) -> np.ndarray:
    """Dense 2^n x cols^n array of a DD whose nodes have 2 x cols successors."""
    memo: dict[int, np.ndarray] = {}

    def expand(node: _Node) -> np.ndarray:
        out = memo.get(id(node))
        if out is None:
            h, w = 2**node.var, cols**node.var
            out = np.empty((2 * h, cols * w), dtype=complex)
            for k, e in enumerate(node.edges):
                r, c = divmod(k, cols)
                # a terminal edge is a 0-stub (its 0 fills the block) or a level-0 entry
                out[r * h : (r + 1) * h, c * w : (c + 1) * w] = (
                    e.w if e.node is None else e.w * expand(e.node)
                )
            memo[id(node)] = out
        return out

    if root.node is None:  # the zero DD, or a scalar when n == 0
        return np.full((2**n, cols**n), root.w if n == 0 else 0j)
    return root.w * expand(root.node)


@dataclass(frozen=True)
class DDEquivalence:
    equivalent: bool
    phase: complex | None = None  # global phase with which the circuits agree
    witness: str | None = None  # basis input whose two outputs overlap least


def equivalent_dd(c1: Circuit, c2: Circuit, tolerance: float = 1e-9) -> DDEquivalence:
    """Equivalence up to global phase via the composed-with-inverse matrix DD.

    For a unitary U of dimension 2^n, |tr U| = 2^n exactly when U is a unit
    scalar times the identity; the composed DD is unitary by construction,
    so the trace test decides identity-up-to-phase without full expansion.
    When it fails, the witness is the input j with the smallest |U[j, j]|:
    that is the overlap of the two circuits' outputs on |j>.
    """
    if c1.num_qubits != c2.num_qubits:
        raise WidthMismatchError("circuits have different widths")
    n = c1.num_qubits
    if n > MAX_EQUIV_QUBITS:
        raise CapacityError(f"{n} qubits exceeds equivalence ceiling {MAX_EQUIV_QUBITS}")
    backend = DDBackend()
    composed = Circuit(n, c1.gates + adjoint_circuit(c2).gates)
    u = backend.circuit_mdd(composed)
    tr = backend.trace(u)
    dim = 2**n
    if abs(abs(tr) / dim - 1.0) <= tolerance:
        return DDEquivalence(True, tr / abs(tr))
    return DDEquivalence(False, witness=backend.least_diagonal(u))


# ---- module-level conveniences (fresh backend per call) --------------------


def vector_to_dd(s: dense.StateVector) -> VectorDD:
    return DDBackend().vector_to_dd(s)


def dd_to_vector(d: VectorDD) -> dense.StateVector:
    return DDBackend().dd_to_vector(d)


def get_amplitude(d: VectorDD, b: str) -> complex:
    return DDBackend().get_amplitude(d, b)


def simulate_dd(c: Circuit) -> VectorDD:
    return DDBackend().simulate(c)


def dd_stats(d: Union[VectorDD, MatrixDD]) -> str:
    w = d.root.w
    return f"nodes={node_count(d)} root_weight={w.real:.17g},{w.imag:.17g}"


def amplitude_from_circuit(c: Circuit, bits: str) -> complex:
    backend = DDBackend()
    return backend.get_amplitude(backend.simulate(c), bits)
