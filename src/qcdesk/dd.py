"""Decision-diagram backend: canonical edge-weighted DDs for vectors and matrices.

A matrix DD quarters its matrix level by level (q_{n-1} at the top) into 2 x 2
sub-blocks, row-major; a vector DD is a one-column matrix DD, halving the
amplitude vector into 2 x 1 sub-blocks. One multiply and one adder serve
both, reading the column count off the node. Equal sub-blocks are shared
through a unique table and common factors live on edge weights. Diagrams here
are quasi-reduced: every nonzero edge below level v points to a node at
exactly level v-1, zero edges jump straight to the terminal (0-stubs).

Simulation applies each gate to the state DD directly (`DDBackend.apply_gate`):
one walk rebuilds the nodes above the gate's qubits and splits the gate matrix
into 2 x 2 blocks at each gate qubit, so no gate DD is built. The multiply
serves matrix products and equivalence checking. Reads of a whole diagram
(node count, trace, magnitudes, a state's amplitudes into two 2^n buffers)
walk it level by level (`_levels`), so no diagram is too deep for them.

Equivalence checking composes U2^dagger U1 from the miter every method
decides on (`ir.Miter`: c1 then c2's inverse, less the gates that cancel), from
the middle outward: c1's kept gates multiply onto the right from its last,
c2's inverses onto the left from its first, alternately, so a pair that agrees
keeps the product near the identity while it is built (Burgholzer & Wille,
"Advanced Equivalence Checking for Quantum Circuits").
"""
from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import NamedTuple, Optional, Union

import numpy as np

from .errors import WidthMismatchError, reserve
from . import dense
from .ir import EQUIVALENCE_TOLERANCE, Circuit, Gate, Miter, check_basis, gate_matrix

# Weights are rounded to this many decimals for unique-table keys, so
# floating-point drift cannot break node sharing.
_GRID_DECIMALS = 10
# The smallest double that round(x, _GRID_DECIMALS) sends away from 0: a part
# below it in magnitude is exactly a part the grid rounds to 0.
_ZERO_BELOW = 5e-11


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


_ZERO_KEY = (_key_weight(0j), id(None))  # grid key of a 0-stub
_ONE_KEY = _key_weight(1 + 0j)  # grid key of a node's normalizing weight


def _is_zero(w: complex) -> bool:
    """True iff both parts of w round to 0 on the weight grid."""
    return abs(w.real) < _ZERO_BELOW and abs(w.imag) < _ZERO_BELOW


class _Block(NamedTuple):
    """A block of a gate matrix over the gate qubits at or below `var`.

    var >= 0: the four quarters over qubit var, row-major, each a `_Block`
    over the next lower gate qubit or None for a zero block. var == -1: the
    1 x 1 block w.
    """

    var: int
    w: complex
    quarters: tuple


_IDENTITY_BLOCK = _Block(-1, 1 + 0j, ())  # the identity block of any size


def _split_block(rows: list, qubits: tuple, order: list[int], r0: int, c0: int) -> Optional[_Block]:
    """The block tree of the gate matrix `rows` over the positions in `order`,
    at row and column bits r0 and c0 for the positions already split; None
    if the block is zero."""
    if not order:
        w = rows[r0][c0]
        if _is_zero(w):
            return None
        return _IDENTITY_BLOCK if w == 1 else _Block(-1, w, ())
    bit = 1 << (len(qubits) - 1 - order[0])
    rest = order[1:]
    q = (
        _split_block(rows, qubits, rest, r0, c0),
        _split_block(rows, qubits, rest, r0, c0 | bit),
        _split_block(rows, qubits, rest, r0 | bit, c0),
        _split_block(rows, qubits, rest, r0 | bit, c0 | bit),
    )
    if q[0] is _IDENTITY_BLOCK and q[3] is _IDENTITY_BLOCK and q[1] is None and q[2] is None:
        return _IDENTITY_BLOCK
    if q == (None,) * 4:
        return None
    return _Block(qubits[order[0]], 0j, q)


class DDBackend:
    """One unique table plus compute tables and a gate cache; confine to one thread.

    Every operation that fills the compute tables (`apply_gate`, `mult_mv`,
    `mult_mm`) starts from empty ones, so a table holds only what the current
    operation computed, keyed by the ids of nodes that live at least as long
    as the operation. Gate DDs are cached per (gate, width), their block trees
    per gate and `_make_node`'s grid keys per scaled weight, all for the
    backend's lifetime (equal weights have equal keys, so no key changes).
    Recursions are methods or module functions, never closures: a closure
    that calls itself is a reference cycle, which would keep a finished
    backend and all its tables (or a walk's memo) alive until the cycle
    collector runs.
    """

    def __init__(self):
        self._unique: dict = {}
        self._keys: dict[complex, tuple[float, float]] = {}  # weight -> _key_weight(weight)
        self._memo_mult: dict = {}
        self._memo_add: dict = {}
        self._memo_apply: dict = {}
        self._gates: dict[tuple[Gate, int], MatrixDD] = {}
        self._blocks: dict[Gate, _Block] = {}
        self._identity: list[DDEdge] = [DDEdge(1.0 + 0j, None)]  # by qubit count

    # ---- node construction -------------------------------------------------

    def _make_node(self, var: int, edges: list[DDEdge]) -> DDEdge:
        """Normalize successors and hash-cons; returns the incoming edge.

        One pass zeroes each edge `_is_zero` accepts, divides the rest by the
        first nonzero weight (which it stores as exactly 1, so a walk of
        identity @ m returns m's node with m's weight) and builds the grid
        key. Equal keys give the same node, so the identity chain's node at a
        level is the only node of identity shape there, which `_mult` relies on.
        """
        norm = None
        scaled = []
        key = [var]  # its length tells vector nodes from matrix nodes
        for e in edges:
            if e is ZERO_EDGE or _is_zero(e.w):
                scaled.append(ZERO_EDGE)
                key.append(_ZERO_KEY)
                continue
            if norm is None:
                norm, w, k = e.w, 1 + 0j, _ONE_KEY
            else:
                w = e.w / norm
                k = self._keys.get(w)
                if k is None:
                    k = self._keys[w] = _key_weight(w)
            scaled.append(DDEdge(w, e.node))
            key.append((k, id(e.node)))
        if norm is None:
            return ZERO_EDGE
        key = tuple(key)
        node = self._unique.get(key)
        if node is None:
            node = _Node(var, tuple(scaled))
            self._unique[key] = node
        return DDEdge(norm, node)

    def clear_memo(self):
        self._memo_mult.clear()
        self._memo_add.clear()
        self._memo_apply.clear()

    # ---- vector DDs --------------------------------------------------------

    def zero_state_dd(self, n: int) -> VectorDD:
        """|0...0> built structurally: one node per level, one-successor 0-stub."""
        edge = DDEdge(1.0 + 0j, None)
        for level in range(n):
            edge = self._make_node(level, [edge, ZERO_EDGE])
        return VectorDD(n, edge)

    def dd_to_vector(self, d: VectorDD) -> dense.StateVector:
        return dense.StateVector(d.n, _expand(d.root, d.n))

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
        cached = self._gates.get((g, n))
        if cached is not None:
            return cached
        if any(q >= n for q in g.qubits):
            raise ValueError("gate qubit outside register")
        out = self._gates[g, n] = MatrixDD(n, self._gate_edge(self._gate_blocks(g), n - 1))
        return out

    def _gate_blocks(self, g: Gate) -> _Block:
        """g's block tree, split at its qubits from the highest down."""
        blocks = self._blocks.get(g)
        if blocks is None:
            # positions in g.qubits, highest qubit first; the first listed is the top bit of a row
            order = sorted(range(len(g.qubits)), key=lambda p: -g.qubits[p])
            blocks = self._blocks[g] = _split_block(gate_matrix(g).tolist(), g.qubits, order, 0, 0)
        return blocks

    def _gate_edge(self, b: Optional[_Block], level: int) -> DDEdge:
        """Edge to the matrix DD of block b, times the identity on the other
        qubits, at `level`."""
        if b is None:
            return ZERO_EDGE
        if b.var < 0:
            return DDEdge(b.w, self._identity_edge(level + 1).node)
        if level == b.var:
            return self._make_node(level, [self._gate_edge(q, level - 1) for q in b.quarters])
        sub = self._gate_edge(b, level - 1)
        return self._make_node(level, [sub, ZERO_EDGE, ZERO_EDGE, sub])

    def _identity_edge(self, n: int) -> DDEdge:
        """The identity on n qubits; its chain of nodes is built once per backend."""
        while len(self._identity) <= n:
            below = self._identity[-1]
            level = len(self._identity) - 1
            self._identity.append(self._make_node(level, [below, ZERO_EDGE, ZERO_EDGE, below]))
        return self._identity[n]

    def identity_mdd(self, n: int) -> MatrixDD:
        return MatrixDD(n, self._identity_edge(n))

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
        sums = []
        for ea, eb in zip(a.node.edges, b.node.edges):
            # a 0-stub operand: the call would return the other one as is
            if ea is ZERO_EDGE:
                sums.append(DDEdge(b.w * eb.w, eb.node))
            elif eb is ZERO_EDGE:
                sums.append(DDEdge(a.w * ea.w, ea.node))
            else:
                sums.append(
                    self.add(DDEdge(a.w * ea.w, ea.node), DDEdge(b.w * eb.w, eb.node), level - 1)
                )
        out = self._make_node(level, sums)
        self._memo_add[key] = out
        return out

    def _mult(self, a: DDEdge, b: DDEdge, level: int) -> DDEdge:
        """Product of a square matrix DD and a 2^n x cols^n DD (cols 1 or 2).

        A factor whose node is the identity chain's node at this level is the
        identity below it (hash-consing makes that node the only one of its
        shape), so the product is the other factor's node without a walk. A
        0-stub factor or partial product is skipped rather than multiplied or
        added, and a zero product is returned as `ZERO_EDGE` itself, so the
        callers' skips see it: `_make_node` zeroes whatever `_is_zero` accepts
        either way.
        """
        if _is_zero(a.w) or _is_zero(b.w):
            return ZERO_EDGE
        if level < 0:
            return DDEdge(a.w * b.w, None)
        if level + 1 < len(self._identity):
            ident = self._identity[level + 1].node
            if a.node is ident:
                return DDEdge(a.w * b.w, b.node)
            if b.node is ident:
                return DDEdge(a.w * b.w, a.node)
        key = (id(a.node), id(b.node))
        cached = self._memo_mult.get(key)
        if cached is None:
            ae, be = a.node.edges, b.node.edges
            cols = len(be) // 2
            blocks = []
            for r in (0, 1):
                a0, a1 = ae[2 * r], ae[2 * r + 1]
                for c in range(cols):
                    b0, b1 = be[c], be[cols + c]
                    p0 = p1 = ZERO_EDGE
                    if a0 is not ZERO_EDGE and b0 is not ZERO_EDGE:
                        p0 = self._mult(a0, b0, level - 1)
                    if a1 is not ZERO_EDGE and b1 is not ZERO_EDGE:
                        p1 = self._mult(a1, b1, level - 1)
                    if p0 is ZERO_EDGE or p1 is ZERO_EDGE:
                        blocks.append(p1 if p0 is ZERO_EDGE else p0)
                    else:
                        blocks.append(self.add(p0, p1, level - 1))
            cached = self._make_node(level, blocks)
            self._memo_mult[key] = cached
        if cached is ZERO_EDGE:
            return ZERO_EDGE
        return DDEdge(a.w * b.w * cached.w, cached.node)

    def apply_gate(self, g: Gate, v: VectorDD) -> VectorDD:
        """g applied to v by one walk over v's nodes, without a gate DD.

        Equals `mult_mv(gate_to_mdd(g, v.n), v)` up to rounding, with the same
        nodes. The walk's table is cleared per gate, as `mult_mv`'s are.
        """
        if any(q >= v.n for q in g.qubits):
            raise ValueError("gate qubit outside register")
        if _is_zero(v.root.w):
            return VectorDD(v.n, ZERO_EDGE)
        self.clear_memo()
        return VectorDD(v.n, self._apply(self._gate_blocks(g), v.root, v.n - 1))

    def _apply(self, b: _Block, e: DDEdge, level: int) -> DDEdge:
        """Block b, times the identity on the other qubits, applied to the
        nonzero edge e of a vector DD at `level`.

        Above b's qubit each node is rebuilt from its transformed successors;
        at it, each half of the result sums the quarters' products with the
        two successors. An identity block returns e as it is, a 1 x 1 block
        scales its weight, and a zero block or 0-stub adds nothing.
        """
        if b is _IDENTITY_BLOCK:
            return e
        if b.var < 0:
            return DDEdge(e.w * b.w, e.node)
        node = e.node
        key = (id(node), id(b))
        cached = self._memo_apply.get(key)
        if cached is None:
            e0, e1 = node.edges
            if level > b.var:
                halves = [
                    e0 if e0 is ZERO_EDGE else self._apply(b, e0, level - 1),
                    e1 if e1 is ZERO_EDGE else self._apply(b, e1, level - 1),
                ]
            else:
                halves = []
                q = b.quarters
                for r in (0, 2):
                    p0 = p1 = ZERO_EDGE
                    if q[r] is not None and e0 is not ZERO_EDGE:
                        p0 = self._apply(q[r], e0, level - 1)
                    if q[r + 1] is not None and e1 is not ZERO_EDGE:
                        p1 = self._apply(q[r + 1], e1, level - 1)
                    if p0 is ZERO_EDGE or p1 is ZERO_EDGE:
                        halves.append(p1 if p0 is ZERO_EDGE else p0)
                    else:
                        halves.append(self.add(p0, p1, level - 1))
            cached = self._make_node(level, halves)
            self._memo_apply[key] = cached
        if cached is ZERO_EDGE:  # e.g. |0><0| on a control qubit, where e's control is 1
            return ZERO_EDGE
        return DDEdge(e.w * cached.w, cached.node)

    def mult_mv(self, m: MatrixDD, v: VectorDD) -> VectorDD:
        if m.n != v.n:
            raise WidthMismatchError("matrix and vector widths differ")
        self.clear_memo()
        return VectorDD(v.n, self._mult(m.root, v.root, v.n - 1))

    def mult_mm(self, a: MatrixDD, b: MatrixDD) -> MatrixDD:
        """a @ b, with the compute tables cleared first, as `mult_mv` clears them."""
        if a.n != b.n:
            raise WidthMismatchError("matrix widths differ")
        self.clear_memo()
        return MatrixDD(a.n, self._mult(a.root, b.root, a.n - 1))

    # ---- circuit-level operations -----------------------------------------

    def simulate(self, c: Circuit) -> VectorDD:
        v = self.zero_state_dd(c.num_qubits)
        for g in c.gates:
            v = self.apply_gate(g, v)
        return v

    def composed_mdd(self, m: Miter) -> MatrixDD:
        """U2^dagger U1 of the miter m, built from the middle outward.

        Starting from the identity, right steps multiply c1's kept gates onto
        the right (the last, m.circuit.gates[m.split - 1], first) and left steps
        c2's inverses onto the left (m.circuit.gates[m.split] first). The two
        kinds interleave in proportion to their counts, so the tails of two
        circuits that agree cancel as soon as both are in.
        """
        n = m.circuit.num_qubits
        left = m.circuit.gates[m.split :]
        right = m.circuit.gates[: m.split][::-1]
        u = self.identity_mdd(n)
        i = j = 0
        while i < len(left) or j < len(right):
            # the side that has done the smaller share of its steps goes next
            if j == len(right) or (i < len(left) and i * len(right) <= j * len(left)):
                u = self.mult_mm(self.gate_to_mdd(left[i], n), u)
                i += 1
            else:
                u = self.mult_mm(u, self.gate_to_mdd(right[j], n))
                j += 1
        return u

    def trace(self, m: MatrixDD) -> complex:
        def diagonal_sum(node: _Node, t: dict) -> complex:
            e0, e3 = node.edges[0], node.edges[3]
            return e0.w * t[e0.node] + e3.w * t[e3.node]

        return m.root.w * _fold(m.root.node, 1.0 + 0j, diagonal_sum)[m.root.node]

    def least_diagonal(self, m: MatrixDD) -> str:
        """The lowest basis string j whose |m[j, j]| is within EQUIVALENCE_TOLERANCE
        of the least (dense's rule), so rounding noise breaks no ties.

        One level walk finds each node's least diagonal magnitude; one descent
        then takes edge 0 wherever such an entry lies below it, else edge 3.
        A 0-stub is a zero block, so the bits below it are 0.
        """
        least = _magnitudes(m.root.node, min, 3)
        scale, node = abs(m.root.w), m.root.node
        bound = scale * least[node] + EQUIVALENCE_TOLERANCE
        bits = ""
        while node is not None:
            e0, e3 = node.edges[0], node.edges[3]
            low = scale * abs(e0.w) * least[e0.node] <= bound
            e = e0 if low else e3
            bits += "0" if low else "1"
            scale, node = scale * abs(e.w), e.node
        return bits.ljust(m.n, "0")


def _levels(root: Optional[_Node]):
    """Each level of the diagram below root, top first, as a list of its nodes
    in the order the level above first points to them.

    The quasi-reduced shape makes this the whole walk: the nodes one level
    points to make up the whole next level down.
    """
    level = [] if root is None else [root]
    while level:
        yield level
        level = list(dict.fromkeys(e.node for node in level for e in node.edges if e.node is not None))


def _fold(root: Optional[_Node], leaf, value) -> dict:
    """value(node, folded) of every node below root, bottom-up over its levels;
    folded maps the nodes below to their values and the terminal (None) to leaf."""
    folded = {None: leaf}
    for level in reversed(list(_levels(root))):
        for node in level:
            folded[node] = value(node, folded)
    return folded


def _magnitudes(root: Optional[_Node], pick, step: int) -> dict:
    """For root and each node below it, pick (max or min) of the |entries| of the
    block an edge of weight 1 into it stands for: of all of them for step 1,
    of the diagonal (edges 0 and 3) for step 3."""
    return _fold(root, 1.0, lambda node, m: pick(abs(e.w) * m[e.node] for e in node.edges[::step]))


def node_count(d: Union[VectorDD, MatrixDD]) -> int:
    """Distinct decision nodes reachable from the root, terminal excluded."""
    return sum(map(len, _levels(d.root.node)))


def _expand(root: DDEdge, n: int) -> np.ndarray:
    """The 2^n amplitudes of a vector DD, level by level from the bottom, in
    two 2^n buffers that take turns. Node number `slot` of a level at var v
    (at most 2^(n-1-v) of them) writes its 2 * 2^v entries at 2 * 2^v * slot
    of one, each half its edge's weight times the child's block in the other.
    A level is numbered in id order, so a child's slot is found by bisection."""
    reserve(32 * 2**n, f"{n}-qubit DD expansion")
    if root.node is None:  # the zero DD, or a scalar when n == 0
        return np.full(2**n, root.w if n == 0 else 0j)
    levels = [sorted(level, key=id) for level in _levels(root.node)]
    top, below = np.empty(2**n, dtype=complex), np.empty(2**n, dtype=complex)
    lower: list[_Node] = []
    for level in reversed(levels):
        top, below = below, top
        for slot, node in enumerate(level):
            h = 2**node.var
            for k, e in enumerate(node.edges):
                half = top[(2 * slot + k) * h : (2 * slot + k + 1) * h]
                if e.node is None:  # a 0-stub (its 0 fills the half) or a level-0 entry
                    half.fill(e.w)
                else:
                    child = bisect.bisect_left(lower, id(e.node), key=id) * h
                    np.multiply(e.w, below[child : child + h], out=half)
        lower = level
    return np.multiply(root.w, top, out=top)


@dataclass(frozen=True)
class DDEquivalence:
    equivalent: bool
    phase: complex | None = None  # global phase p with U2 = p * U1
    witness: str | None = None  # basis input whose two outputs overlap least


def equivalent_dd(m: Miter) -> DDEquivalence:
    """Equivalence up to global phase via the composed matrix DD U = U2^dagger U1.

    U is composed from the miter m from the middle outward (`composed_mdd`),
    so it stays near the identity while it is built when the circuits agree;
    an empty miter multiplies nothing.
    The rule is the dense method's: with t = tr U / |tr U| (1 when the trace
    is 0), the circuits are equivalent, with phase conj(t), exactly when
    every entry of U - t I is at most EQUIVALENCE_TOLERANCE in magnitude.
    That difference is one DD `add` and its largest entry one level walk,
    so U is never expanded. Otherwise the witness is dense's too, the lowest
    input j whose |U[j, j]| is within EQUIVALENCE_TOLERANCE of the least
    (`least_diagonal`): |U[j, j]| is the overlap of the two outputs on |j>.
    """
    n = m.circuit.num_qubits
    backend = DDBackend()
    u = backend.composed_mdd(m)
    tr = backend.trace(u)
    t = tr / abs(tr) if tr else 1 + 0j
    backend.clear_memo()
    diff = backend.add(u.root, DDEdge(-t, backend.identity_mdd(n).root.node), n - 1)
    if abs(diff.w) * _magnitudes(diff.node, max, 1)[diff.node] <= EQUIVALENCE_TOLERANCE:
        # U2 = phase * U1 makes U = conj(phase) I
        return DDEquivalence(True, t.conjugate())
    return DDEquivalence(False, witness=backend.least_diagonal(u))


# ---- circuit-level entries of the verify backend tables (fresh backend per call)


def state(c: Circuit) -> dense.StateVector:
    backend = DDBackend()
    return backend.dd_to_vector(backend.simulate(c))


def amplitude(c: Circuit, bits: str) -> complex:
    backend = DDBackend()
    return backend.get_amplitude(backend.simulate(c), bits)


def stats(c: Circuit) -> str:
    d = DDBackend().simulate(c)
    w = d.root.w
    return f"nodes={node_count(d)} root_weight={w.real + 0.0:.17g},{w.imag + 0.0:.17g}"
