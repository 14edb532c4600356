"""ZX-calculus backend: diagrams, sound rewriting, graph-like form, semantics.

A diagram is a simple graph, as in PyZX: at most one edge, plain or hadamard,
joins two vertices, and none joins a vertex to itself. `add_edge` resolves a
loop or a second edge the moment it is added. Colour is handled once:
`to_graph_like` turns every X spider into a Z spider, and the two rewrite
rules take only such graph-like diagrams. Diagrams are unnormalized; every
rewrite preserves the tensor semantics only up to a nonzero scalar, and all
comparisons downstream are made up to scalar.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from math import sqrt

import numpy as np

from .errors import reserve
from . import tn
from .ir import Angle, Circuit, GateKind, Miter, check_basis

PLAIN = "plain"
HADAMARD = "hadamard"

_H_MAT = np.array([[1, 1], [1, -1]], dtype=complex) / sqrt(2.0)

_PI = Angle(1)


class SpiderColor(Enum):
    Z = "Z"
    X = "X"


class RewriteRule(Enum):
    FUSION = "fusion"
    IDENTITY_REMOVAL = "identity_removal"
    HADAMARD_CANCEL = "hadamard_cancel"
    SELF_LOOP_REMOVAL = "self_loop_removal"


@dataclass(frozen=True)
class RewriteStep:
    rule: RewriteRule


class ZXDiagram:
    """Spiders and boundary points on a simple graph of plain or hadamard edges.

    `nbrs[v]` maps each neighbour of v to the kind of their one edge. Boundary
    points carry exactly one edge each.
    """

    def __init__(self):
        self._next_vertex = itertools.count()
        self.color: dict[int, SpiderColor] = {}
        self.phase: dict[int, Angle] = {}
        self.boundary_in: list[int] = []
        self.boundary_out: list[int] = []
        self.nbrs: dict[int, dict[int, str]] = {}

    # ---- construction ------------------------------------------------------

    def add_spider(self, color: SpiderColor, phase: Angle = Angle(0)) -> int:
        v = next(self._next_vertex)
        self.color[v] = color
        self.phase[v] = phase
        self.nbrs[v] = {}
        return v

    def add_boundary(self, which: str) -> int:
        v = next(self._next_vertex)
        self.nbrs[v] = {}
        (self.boundary_in if which == "in" else self.boundary_out).append(v)
        return v

    def add_edge(self, u: int, v: int, kind: str = PLAIN) -> RewriteRule | None:
        """Join u and v, resolving a loop or a second edge at once; the rule
        that resolved it, or None when the edge was simply added.

        Resolution works in the Z frame, where an X spider is a Z spider with
        a hadamard on every leg, so an edge's kind toggles once per X end: a
        hadamard loop adds pi and a plain one vanishes; two hadamard edges
        cancel; plain beside plain stays one plain edge, and plain beside
        hadamard stays plain and adds pi to u (the hadamard edge becomes a
        loop once the plain one is fused). Raises ValueError at a boundary.
        """
        old = self.nbrs[u].get(v)
        if old is None and u != v:
            self.nbrs[u][v] = self.nbrs[v][u] = kind
            return None
        if not (self.is_spider(u) and self.is_spider(v)):
            raise ValueError("boundary point must have exactly one incident edge")
        if u == v:
            if kind == HADAMARD:
                self.phase[u] += _PI
            return RewriteRule.SELF_LOOP_REMOVAL
        flip = (self.color[u] == SpiderColor.X) != (self.color[v] == SpiderColor.X)
        if old == kind == (PLAIN if flip else HADAMARD):
            del self.nbrs[u][v], self.nbrs[v][u]
            return RewriteRule.HADAMARD_CANCEL
        if old != kind:
            self.phase[u] += _PI
        self.nbrs[u][v] = self.nbrs[v][u] = HADAMARD if flip else PLAIN
        return RewriteRule.SELF_LOOP_REMOVAL

    def remove_spider(self, v: int):
        for w in self.nbrs.pop(v):
            del self.nbrs[w][v]
        del self.color[v], self.phase[v]

    def is_spider(self, v: int) -> bool:
        return v in self.color

    def spiders(self) -> list[int]:
        return sorted(self.color)

    def spider_count(self) -> int:
        return len(self.color)

    def edges(self) -> list[tuple[int, int, str]]:
        """Each edge once, as (u, v, kind) with u < v."""
        return [(u, v, k) for u, ns in self.nbrs.items() for v, k in ns.items() if u < v]

    def copy(self) -> "ZXDiagram":
        d = ZXDiagram()
        d._next_vertex = itertools.count(max(self.nbrs, default=-1) + 1)
        d.color = dict(self.color)
        d.phase = dict(self.phase)
        d.boundary_in = list(self.boundary_in)
        d.boundary_out = list(self.boundary_out)
        d.nbrs = {v: dict(ns) for v, ns in self.nbrs.items()}
        return d


def _toggle(kind: str) -> str:
    return HADAMARD if kind == PLAIN else PLAIN


# one-qubit gates: their spiders, input side first; a None phase is the gate's angle
_GADGETS = {
    GateKind.Z: ((SpiderColor.Z, _PI),),
    GateKind.X: ((SpiderColor.X, _PI),),
    GateKind.S: ((SpiderColor.Z, Angle(1, 2)),),
    GateKind.SDG: ((SpiderColor.Z, Angle(-1, 2)),),
    GateKind.T: ((SpiderColor.Z, Angle(1, 4)),),
    GateKind.TDG: ((SpiderColor.Z, Angle(-1, 4)),),
    GateKind.RZ: ((SpiderColor.Z, None),),
    GateKind.RX: ((SpiderColor.X, None),),
    # Y = S X Sdg, a palindromic gadget so Y meets its mirror cleanly
    GateKind.Y: (
        (SpiderColor.Z, Angle(-1, 2)),
        (SpiderColor.X, _PI),
        (SpiderColor.Z, Angle(1, 2)),
    ),
}

# cx and cz: a phase-0 Z spider on the first qubit, joined to a phase-0 spider
# of this colour on the second by an edge of this kind
_CONTROLLED = {
    GateKind.CX: (SpiderColor.X, PLAIN),
    GateKind.CZ: (SpiderColor.Z, HADAMARD),
}


def circuit_to_zx(c: Circuit) -> ZXDiagram:
    """Per-gate spider gadgets; H gates become hadamard tags on the wire.

    Boundary lists are ordered q_{n-1}..q_0 to match the global bit order.
    """
    d = ZXDiagram()
    cur = {q: d.add_boundary("in") for q in range(c.num_qubits - 1, -1, -1)}
    pend = dict.fromkeys(cur, PLAIN)

    def put_spider(q: int, color: SpiderColor, phase: Angle) -> int:
        s = d.add_spider(color, phase)
        d.add_edge(cur[q], s, pend[q])
        cur[q] = s
        pend[q] = PLAIN
        return s

    for g in c.gates:
        q = g.qubits
        if g.kind == GateKind.H:
            pend[q[0]] = _toggle(pend[q[0]])
        elif g.kind == GateKind.SWAP:
            a, b = q
            cur[a], cur[b] = cur[b], cur[a]
            pend[a], pend[b] = pend[b], pend[a]
        elif g.kind in _GADGETS:
            for color, phase in _GADGETS[g.kind]:
                put_spider(q[0], color, g.angle if phase is None else phase)
        else:
            color, kind = _CONTROLLED[g.kind]
            d.add_edge(put_spider(q[0], SpiderColor.Z, Angle(0)), put_spider(q[1], color, Angle(0)), kind)
    for q in cur:  # q_{n-1} first, as the inputs
        d.add_edge(cur[q], d.add_boundary("out"), pend[q])
    return d


def plug_basis_states(d: ZXDiagram, bits: str) -> ZXDiagram:
    """Replace each input boundary by an X state spider (phase 0 for |0>, pi for |1>)."""
    check_basis(bits, len(d.boundary_in))
    out = d.copy()
    for b, bit in zip(list(out.boundary_in), bits):
        out.color[b] = SpiderColor.X
        out.phase[b] = Angle(0) if bit == "0" else _PI
    out.boundary_in = []
    return out


# ---- rewriting -------------------------------------------------------------
# The rules take graph-like diagrams, where every spider is Z. Each rewrites
# its first match in place and returns its steps, empty when nothing matched:
# its own step, then one for each resolution its add_edge calls made.


def _steps(rule: RewriteRule, *resolved: RewriteRule | None) -> list[RewriteStep]:
    return [RewriteStep(r) for r in (rule, *resolved) if r is not None]


def _remove_identity(d: ZXDiagram) -> list[RewriteStep]:
    # a phase-0 arity-2 spider is a wire; the hadamards on its two edges compose
    for v in d.spiders():
        if d.phase[v].is_zero() and len(d.nbrs[v]) == 2:
            (a, ka), (b, kb) = d.nbrs[v].items()
            d.remove_spider(v)
            R = RewriteRule
            rule = R.HADAMARD_CANCEL if ka == kb == HADAMARD else R.IDENTITY_REMOVAL
            return _steps(rule, d.add_edge(a, b, PLAIN if ka == kb else HADAMARD))
    return []


def _fuse(d: ZXDiagram) -> list[RewriteStep]:
    # v merges into u along their plain edge; v's other edges move to u
    for u in d.spiders():
        v = next((v for v, k in d.nbrs[u].items() if k == PLAIN and d.is_spider(v)), None)
        if v is not None:
            d.phase[u] += d.phase[v]
            moved = d.nbrs[v]
            d.remove_spider(v)
            resolved = [d.add_edge(u, w, k) for w, k in moved.items() if w != u]
            return _steps(RewriteRule.FUSION, *resolved)
    return []


# priority order: each pass applies the first rule that matches
_RULES = (_remove_identity, _fuse)


def apply_rewrites(d: ZXDiagram) -> tuple[ZXDiagram, list[RewriteStep]]:
    """Exhaustive sound rewriting of a graph-like diagram in `_RULES` order.

    Raises ValueError on an X spider (`to_graph_like` removes them); the input
    is left untouched.
    """
    if SpiderColor.X in d.color.values():
        raise ValueError("apply_rewrites needs a graph-like diagram; see to_graph_like")
    g = d.copy()
    steps: list[RewriteStep] = []
    # every rule lowers spider_count() + len(edges()), so this loop ends
    while new := next(filter(None, (rule(g) for rule in _RULES)), None):
        steps.extend(new)
    return g, steps


def to_graph_like(d: ZXDiagram) -> ZXDiagram:
    """All spiders Z-colored.

    The only place colour is handled: an X spider is a Z spider with a
    hadamard on every leg, so each flip toggles its edges' kinds.
    """
    g = d.copy()
    for v in g.spiders():
        if g.color[v] == SpiderColor.X:
            g.color[v] = SpiderColor.Z
            for w, kind in g.nbrs[v].items():
                g.nbrs[v][w] = g.nbrs[w][v] = _toggle(kind)
    return g


# ---- tensor semantics ------------------------------------------------------


def _spider_tensor(color: SpiderColor, degree: int, phase: Angle) -> np.ndarray:
    data = np.zeros((2,) * degree, dtype=complex)
    data[(0,) * degree] += 1.0  # with no legs, both terms land on the one entry
    data[(1,) * degree] += np.exp(1j * phase.radians)
    if color == SpiderColor.X:
        for axis in range(degree):
            data = np.moveaxis(np.tensordot(_H_MAT, data, axes=([1], [axis])), 0, axis)
    return data


def zx_to_tensor(d: ZXDiagram) -> tn.Tensor:
    """Contract the diagram's tensor network; indices boundary_out then boundary_in.
    Spider tensors (and np.tensordot's two copies of an X one) are reserved first."""
    labels = itertools.count()

    def fresh() -> str:
        return f"z{next(labels)}"

    legs: dict[int, list[str]] = {v: [] for v in d.nbrs}
    extra: list[tn.Tensor] = []
    for u, v, kind in d.edges():
        if kind == PLAIN and (d.is_spider(u) or d.is_spider(v)):
            ix = fresh()
            legs[u].append(ix)
            legs[v].append(ix)
        else:
            ia, ib = fresh(), fresh()
            legs[u].append(ia)
            legs[v].append(ib)
            mat = _H_MAT if kind == HADAMARD else np.eye(2, dtype=complex)
            extra.append(tn.Tensor([ia, ib], mat))
    sizes = {v: 2 ** len(legs[v]) for v in d.spiders()}
    x_copies = max((2 * sizes[v] for v in sizes if d.color[v] == SpiderColor.X), default=0)
    reserve(16 * (sum(sizes.values()) + x_copies), f"spider tensors of {len(sizes)} spiders")
    tensors = [tn.Tensor(legs[v], _spider_tensor(d.color[v], len(legs[v]), d.phase[v])) for v in sizes]
    tensors.extend(extra)
    open_indices = []
    for b in d.boundary_out + d.boundary_in:
        if len(legs[b]) != 1:
            raise ValueError("boundary point must have exactly one incident edge")
        open_indices.append(legs[b][0])
    net = tn.TensorNetwork(tensors, open_indices)
    return tn.execute_plan(net, tn.greedy_plan(net))


# ---- equivalence -----------------------------------------------------------


class ZXVerdict(Enum):
    EQUIVALENT = "equivalent"
    INCONCLUSIVE = "inconclusive"


@dataclass
class ZXEquivalence:
    verdict: ZXVerdict
    spiders_before: int
    spiders_after: int
    steps: int


def _is_identity_wiring(d: ZXDiagram) -> bool:
    if d.spider_count() != 0:
        return False
    want = {(min(i, o), max(i, o), PLAIN) for i, o in zip(d.boundary_in, d.boundary_out)}
    return set(d.edges()) == want


def _reduce(c: Circuit) -> ZXEquivalence:
    """Rewrite the graph-like diagram of c; EQUIVALENT when bare wires remain."""
    diagram = to_graph_like(circuit_to_zx(c))
    before = diagram.spider_count()
    reduced, steps = apply_rewrites(diagram)
    verdict = ZXVerdict.EQUIVALENT if _is_identity_wiring(reduced) else ZXVerdict.INCONCLUSIVE
    return ZXEquivalence(verdict, before, reduced.spider_count(), len(steps))


def equivalent_zx(m: Miter) -> ZXEquivalence:
    """Rewrite the miter of c1 and c2 (c1 then c2's inverse) down to bare wires, or give up.

    The rule set is sound but not complete, so the negative answer is
    Inconclusive rather than NotEquivalent.
    """
    return _reduce(m.circuit)


def stats(c: Circuit) -> str:
    # the diagram of c itself: a miter would cancel pairs such as t; tdg first
    r = _reduce(c)
    return f"spiders_before={r.spiders_before} spiders_after={r.spiders_after} steps={r.steps}"
