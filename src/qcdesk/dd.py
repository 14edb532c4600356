"""Decision-diagram backend: canonical edge-weighted DDs for vectors and matrices.

A matrix DD quarters its matrix level by level (q_{n-1} at the top) into 2 x 2
sub-blocks, row-major; a vector DD is a one-column matrix DD, halving the
amplitude vector into 2 x 1 sub-blocks. One multiply (`_mult`) and one adder
serve both, reading the column count off the node. Equal sub-blocks are shared
through a unique table and common factors live on edge weights. Diagrams here
are quasi-reduced: every nonzero edge below level v points to a node at
exactly level v-1, zero edges jump straight to the terminal (0-stubs).

Simulation runs dense's plan (`dense.plan`): the product start, one node per
level, then each fused block applied to the state DD (`DDBackend.apply_gate`).
A block, like a gate, is a small block DD over its own qubits (`_split_block`),
and the one multiply applies it on either side of a canonical DD: a block node
below the walk's level is the identity there, so no n-level gate DD is built.
One walk thus serves vectors, matrices, gates and blocks. Reads of a whole
diagram (node count, trace, magnitudes, a state's amplitudes into two 2^n
buffers) walk it level by level (`_levels`), so no diagram is too deep.

Equivalence checking composes U2^dagger U1 from the miter every method
decides on (`ir.Miter`: c1 then c2's inverse, less the gates that cancel), from
the middle outward: c1's kept gate DDs multiply onto the right from its last,
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
from .ir import EQUIVALENCE_TOLERANCE, Circuit, Gate, Miter, check_basis

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
    """A canonical matrix DD, or a gate DD (`DDBackend.gate_to_mdd`), which only `mult_mm` and `mult_mv` read."""

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


_IDENTITY_EDGE = DDEdge(1 + 0j, None)  # the identity block of any size


def _split_block(rows: list, qubits: tuple, r0: int = 0, c0: int = 0) -> DDEdge:
    """The block DD of the gate matrix `rows` over `qubits` (descending), at
    row and column bits r0 and c0 of the qubits already split: a node per
    split qubit, each entered through an edge of weight exactly 1, and leaves
    (edges with no node) for a weight times the identity below. The nodes are
    not hash-consed; only `_mult` reads them."""
    if not qubits:
        w = rows[r0][c0]
        if _is_zero(w):
            return ZERO_EDGE
        return _IDENTITY_EDGE if w == 1 else DDEdge(w, None)
    bit = 1 << (len(qubits) - 1)
    rest = qubits[1:]
    q = (
        _split_block(rows, rest, r0, c0),
        _split_block(rows, rest, r0, c0 | bit),
        _split_block(rows, rest, r0 | bit, c0),
        _split_block(rows, rest, r0 | bit, c0 | bit),
    )
    if q[0] is _IDENTITY_EDGE and q[3] is _IDENTITY_EDGE and q[1] is ZERO_EDGE and q[2] is ZERO_EDGE:
        return _IDENTITY_EDGE
    if q == (ZERO_EDGE,) * 4:
        return ZERO_EDGE
    return DDEdge(1 + 0j, _Node(qubits[0], q))


class DDBackend:
    """One unique table plus compute tables; confine to one thread.

    `simulate` applies each block of dense's plan as a block DD (`apply_gate`),
    and `composed_mdd` multiplies gate DDs, block DDs too, onto either side of
    its product, both through the one product walk `_mult`. Every operation
    that fills the compute tables (`apply_gate`, `mult_mv`, `mult_mm`) starts
    from empty ones, so a table holds only what the current operation
    computed, keyed by the ids of nodes that live at least as long as the
    operation. `_make_node`'s grid keys are cached per scaled weight for the
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
        self._identity: list[DDEdge] = [_IDENTITY_EDGE]  # by qubit count

    # ---- node construction -------------------------------------------------

    def _make_node(self, var: int, edges: list[DDEdge]) -> DDEdge:
        """Normalize successors and hash-cons; returns the incoming edge.

        One pass zeroes each edge `_is_zero` accepts, divides the rest by the
        first nonzero weight (which it stores as exactly 1, so a walk of
        identity @ m returns m's node with m's weight) and builds the grid
        key. Equal keys give the same node.
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

    # ---- vector DDs --------------------------------------------------------

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
        """g's block DD (`_split_block`), with nodes on g's qubits only. Only `mult_mm` and
        `mult_mv` read a gate DD; `node_count`, `trace` and `_expand` read canonical DDs."""
        if any(q >= n for q in g.qubits):
            raise ValueError("gate qubit outside register")
        b = dense._gate_block(g)
        return MatrixDD(n, _split_block(b.matrix.tolist(), b.qubits))

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
        """Product of a square matrix DD a and a 2^n x cols^n DD b (cols 1 or
        2), both nonzero, at `level`: the one product walk, for gate DDs,
        composed matrices and planned blocks alike.

        At most one operand is a block DD (`_split_block`); the other is
        canonical. A block node whose var is below `level` is the identity
        there, so the walk maps the other operand's edges over it, and a raw
        block node is always entered through an edge of weight exactly 1, as
        the compute table, keyed on node ids, needs. An edge with no node is
        its weight times the identity below: it scales the other operand, and
        the shared identity edge returns that operand itself, so a block's
        leaves end the walk. A 0-stub factor or partial product is skipped, not
        multiplied or added, and a zero product is `ZERO_EDGE` itself, for the
        callers' skips. Every node of the result comes from `_make_node`.
        """
        an = a.node
        if an is None:
            return b if a is _IDENTITY_EDGE else DDEdge(a.w * b.w, b.node)
        bn = b.node
        if bn is None:
            return a if b is _IDENTITY_EDGE else DDEdge(a.w * b.w, an)
        key = (id(an), id(bn))
        cached = self._memo_mult.get(key)
        if cached is None:
            be = bn.edges
            if an.var < level:  # a is the identity here: map it over b's edges
                if len(be) == 2:  # a vector, the hot case in simulation: unpacked
                    e0, e1 = be
                    blocks = [e0 if e0 is ZERO_EDGE else self._mult(a, e0, level - 1),
                              e1 if e1 is ZERO_EDGE else self._mult(a, e1, level - 1)]
                else:
                    blocks = []
                    for e in be:
                        blocks.append(e if e is ZERO_EDGE else self._mult(a, e, level - 1))
            elif bn.var < level:  # likewise b: map a's edges over it
                blocks = []
                for e in an.edges:
                    blocks.append(e if e is ZERO_EDGE else self._mult(e, b, level - 1))
            else:
                ae = an.edges
                cols = len(be) // 2
                blocks = []
                for r in (0, 2):
                    a0, a1 = ae[r], ae[r + 1]
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
        if cached is ZERO_EDGE:  # e.g. |0><0| on a control qubit, where b's control is 1
            return ZERO_EDGE
        return DDEdge(a.w * b.w * cached.w, cached.node)

    def _product(self, a: DDEdge, b: DDEdge, n: int) -> DDEdge:
        """a @ b over n qubits, from empty compute tables; a zero factor gives `ZERO_EDGE`."""
        self.clear_memo()
        return ZERO_EDGE if a.w == 0 or b.w == 0 else self._mult(a, b, n - 1)

    def apply_gate(self, b: dense._Block, v: VectorDD) -> VectorDD:
        """The planned block b (`dense.plan`) applied to v: b's block DD over
        its own qubits (`_split_block`) times v in one `_mult` walk. For a
        block of one gate g this is the walk of `mult_mv(gate_to_mdd(g, v.n), v)`."""
        if b.qubits[0] >= v.n:  # the highest of them
            raise ValueError("gate qubit outside register")
        return VectorDD(v.n, self._product(_split_block(b.matrix.tolist(), b.qubits), v.root, v.n))

    def mult_mv(self, m: MatrixDD, v: VectorDD) -> VectorDD:
        if m.n != v.n:
            raise WidthMismatchError("matrix and vector widths differ")
        return VectorDD(v.n, self._product(m.root, v.root, v.n))

    def mult_mm(self, a: MatrixDD, b: MatrixDD) -> MatrixDD:
        """a @ b, with the compute tables cleared first, as `mult_mv` clears them."""
        if a.n != b.n:
            raise WidthMismatchError("matrix widths differ")
        return MatrixDD(a.n, self._product(a.root, b.root, a.n))

    # ---- circuit-level operations -----------------------------------------

    def simulate(self, c: Circuit) -> VectorDD:
        """c on |0...0>: the plan's start from each factor's column 0, then its blocks."""
        factors, blocks = dense.plan(c)
        w, node = 1 + 0j, None  # kept off the nodes, which zero a weight below the grid (|+>^80's 2^-40)
        for level, f in enumerate(factors):
            e = self._make_node(level, [DDEdge(x, node) for x in f[:, 0].tolist()])
            w, node = w * e.w, e.node
        v = VectorDD(c.num_qubits, DDEdge(w, node))
        for b in blocks:
            v = self.apply_gate(b, v)
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
