"""ZX-calculus backend: diagrams, sound rewriting, graph-like form, semantics.

Diagrams are unnormalized; every rewrite preserves the tensor semantics only up
to a nonzero scalar, and all comparisons downstream are made up to scalar.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from math import sqrt

import numpy as np

from .errors import CapacityError, WidthMismatchError
from . import tn
from .ir import Angle, Circuit, GateKind, adjoint_circuit

PLAIN = "plain"
HADAMARD = "hadamard"

MAX_TENSOR_BOUNDARIES = 12

_H_MAT = np.array([[1, 1], [1, -1]], dtype=complex) / sqrt(2.0)

_PI = Angle(1)
_HALF_PI = Angle(1, 2)
_NEG_HALF_PI = Angle(-1, 2)


class SpiderColor(Enum):
    Z = "Z"
    X = "X"


class RewriteRule(Enum):
    FUSION = "fusion"
    COLOR_CHANGE = "color_change"
    IDENTITY_REMOVAL = "identity_removal"
    HADAMARD_CANCEL = "hadamard_cancel"
    SELF_LOOP_REMOVAL = "self_loop_removal"


@dataclass(frozen=True)
class RewriteStep:
    rule: RewriteRule
    spiders: tuple[int, ...]


class ZXDiagram:
    """Spiders and boundary points joined by plain or hadamard edges.

    Edges form a multiset (parallel edges and self-loops are legal); boundary
    points carry exactly one incident edge each.
    """

    def __init__(self):
        self._next_vertex = itertools.count()
        self._next_edge = itertools.count()
        self.color: dict[int, SpiderColor] = {}
        self.phase: dict[int, Angle] = {}
        self.boundary_in: list[int] = []
        self.boundary_out: list[int] = []
        self.edges: dict[int, tuple[int, int, str]] = {}
        self._incident: dict[int, list[int]] = {}

    # ---- construction ------------------------------------------------------

    def add_spider(self, color: SpiderColor, phase: Angle = Angle(0)) -> int:
        v = next(self._next_vertex)
        self.color[v] = color
        self.phase[v] = phase
        self._incident[v] = []
        return v

    def add_boundary(self, which: str) -> int:
        v = next(self._next_vertex)
        self._incident[v] = []
        (self.boundary_in if which == "in" else self.boundary_out).append(v)
        return v

    def add_edge(self, u: int, v: int, kind: str = PLAIN) -> int:
        e = next(self._next_edge)
        self.edges[e] = (u, v, kind)
        self._incident[u].append(e)
        if v != u:
            self._incident[v].append(e)
        return e

    def remove_edge(self, e: int):
        u, v, _ = self.edges.pop(e)
        self._incident[u].remove(e)
        if v != u:
            self._incident[v].remove(e)

    def remove_spider(self, v: int):
        for e in list(self._incident[v]):
            self.remove_edge(e)
        del self.color[v], self.phase[v], self._incident[v]

    def is_spider(self, v: int) -> bool:
        return v in self.color

    def spiders(self) -> list[int]:
        return sorted(self.color)

    def spider_count(self) -> int:
        return len(self.color)

    def incident(self, v: int) -> list[int]:
        return list(self._incident[v])

    def degree(self, v: int) -> int:
        # a self-loop contributes two endpoints
        return sum(2 if self._is_loop(e) else 1 for e in self._incident[v])

    def _is_loop(self, e: int) -> bool:
        u, v, _ = self.edges[e]
        return u == v

    def other_end(self, e: int, v: int) -> int:
        u, w, _ = self.edges[e]
        return w if u == v else u

    def edge_kind(self, e: int) -> str:
        return self.edges[e][2]

    def hadamard_edge_count(self) -> int:
        return sum(1 for (_, _, k) in self.edges.values() if k == HADAMARD)

    def copy(self) -> "ZXDiagram":
        d = ZXDiagram()
        d._next_vertex = itertools.count(max(self._incident, default=-1) + 1)
        d._next_edge = itertools.count(max(self.edges, default=-1) + 1)
        d.color = dict(self.color)
        d.phase = dict(self.phase)
        d.boundary_in = list(self.boundary_in)
        d.boundary_out = list(self.boundary_out)
        d.edges = dict(self.edges)
        d._incident = {v: list(es) for v, es in self._incident.items()}
        return d


def _toggle(kind: str) -> str:
    return HADAMARD if kind == PLAIN else PLAIN


def circuit_to_zx(c: Circuit) -> ZXDiagram:
    """Per-gate spider gadgets; H gates become hadamard tags on the wire.

    Boundary lists are ordered q_{n-1}..q_0 to match the global bit order.
    """
    d = ZXDiagram()
    cur: dict[int, int] = {}
    pend: dict[int, str] = {}
    inputs: dict[int, int] = {}
    for q in range(c.num_qubits - 1, -1, -1):
        inputs[q] = d.add_boundary("in")
        cur[q] = inputs[q]
        pend[q] = PLAIN

    def put_spider(q: int, color: SpiderColor, phase: Angle) -> int:
        s = d.add_spider(color, phase)
        d.add_edge(cur[q], s, pend[q])
        cur[q] = s
        pend[q] = PLAIN
        return s

    for g in c.gates:
        k = g.kind
        if k == GateKind.H:
            pend[g.qubits[0]] = _toggle(pend[g.qubits[0]])
        elif k == GateKind.RZ:
            put_spider(g.qubits[0], SpiderColor.Z, g.angle)
        elif k == GateKind.RX:
            put_spider(g.qubits[0], SpiderColor.X, g.angle)
        elif k == GateKind.Z:
            put_spider(g.qubits[0], SpiderColor.Z, _PI)
        elif k == GateKind.X:
            put_spider(g.qubits[0], SpiderColor.X, _PI)
        elif k == GateKind.S:
            put_spider(g.qubits[0], SpiderColor.Z, _HALF_PI)
        elif k == GateKind.SDG:
            put_spider(g.qubits[0], SpiderColor.Z, _NEG_HALF_PI)
        elif k == GateKind.T:
            put_spider(g.qubits[0], SpiderColor.Z, Angle(1, 4))
        elif k == GateKind.TDG:
            put_spider(g.qubits[0], SpiderColor.Z, Angle(-1, 4))
        elif k == GateKind.Y:
            # Y = S X Sdg, a palindromic gadget so Y meets its mirror cleanly
            put_spider(g.qubits[0], SpiderColor.Z, _NEG_HALF_PI)
            put_spider(g.qubits[0], SpiderColor.X, _PI)
            put_spider(g.qubits[0], SpiderColor.Z, _HALF_PI)
        elif k == GateKind.CX:
            ctrl, tgt = g.qubits
            zc = put_spider(ctrl, SpiderColor.Z, Angle(0))
            xt = put_spider(tgt, SpiderColor.X, Angle(0))
            d.add_edge(zc, xt, PLAIN)
        elif k == GateKind.CZ:
            a, b = g.qubits
            za = put_spider(a, SpiderColor.Z, Angle(0))
            zb = put_spider(b, SpiderColor.Z, Angle(0))
            d.add_edge(za, zb, HADAMARD)
        elif k == GateKind.SWAP:
            a, b = g.qubits
            cur[a], cur[b] = cur[b], cur[a]
            pend[a], pend[b] = pend[b], pend[a]
        else:
            raise AssertionError(f"unhandled gate kind {k}")
    for q in range(c.num_qubits - 1, -1, -1):
        out = d.add_boundary("out")
        d.add_edge(cur[q], out, pend[q])
    return d


def plug_basis_states(d: ZXDiagram, bits: str) -> ZXDiagram:
    """Replace each input boundary by an X state spider (phase 0 for |0>, pi for |1>)."""
    if len(bits) != len(d.boundary_in):
        raise ValueError("basis state length != number of inputs")
    out = d.copy()
    for b, bit in zip(list(out.boundary_in), bits):
        out.color[b] = SpiderColor.X
        out.phase[b] = Angle(0) if bit == "0" else _PI
    out.boundary_in = []
    return out


# ---- rewriting -------------------------------------------------------------
# Each rule rewrites its first match in place and returns the step, or None.


def _join_through(d: ZXDiagram, v: int, es: list[int], kind: str):
    """Replace the arity-2 spider v and its two edges by one edge of `kind`."""
    a = d.other_end(es[0], v)
    b = d.other_end(es[1], v)
    d.remove_spider(v)
    d.add_edge(a, b, kind)


def _cancel_hadamard_wire(d: ZXDiagram) -> RewriteStep | None:
    # degree-2 phase-0 spider between two hadamard edges -> plain wire
    for v in d.spiders():
        if not d.phase[v].is_zero():
            continue
        es = d.incident(v)
        if len(es) != 2 or any(d._is_loop(e) for e in es):
            continue
        if all(d.edge_kind(e) == HADAMARD for e in es):
            _join_through(d, v, es, PLAIN)
            return RewriteStep(RewriteRule.HADAMARD_CANCEL, (v,))
    return None


def _cancel_parallel_hadamards(d: ZXDiagram) -> RewriteStep | None:
    # parallel pair of hadamard edges between the same two spiders cancels mod 2
    seen: dict[tuple[int, int], int] = {}
    for e in sorted(d.edges):
        u, v, kind = d.edges[e]
        if kind != HADAMARD or u == v:
            continue
        if not (d.is_spider(u) and d.is_spider(v)):
            continue
        if d.color[u] != d.color[v]:
            continue
        key = (min(u, v), max(u, v))
        if key in seen:
            d.remove_edge(seen[key])
            d.remove_edge(e)
            return RewriteStep(RewriteRule.HADAMARD_CANCEL, key)
        seen[key] = e
    return None


def _remove_identity(d: ZXDiagram) -> RewriteStep | None:
    for v in d.spiders():
        if not d.phase[v].is_zero():
            continue
        es = d.incident(v)
        if len(es) != 2 or any(d._is_loop(e) for e in es):
            continue
        kinds = [d.edge_kind(e) for e in es]
        if kinds.count(HADAMARD) == 2:
            continue  # handled by hadamard cancellation
        _join_through(d, v, es, PLAIN if kinds[0] == kinds[1] else HADAMARD)
        return RewriteStep(RewriteRule.IDENTITY_REMOVAL, (v,))
    return None


def _remove_self_loop(d: ZXDiagram) -> RewriteStep | None:
    # a plain self-loop vanishes, a hadamard one adds pi to the phase
    for e in sorted(d.edges):
        u, v, kind = d.edges[e]
        if u == v:
            d.remove_edge(e)
            if kind == HADAMARD:
                d.phase[u] = d.phase[u] + _PI
            return RewriteStep(RewriteRule.SELF_LOOP_REMOVAL, (u,))
    return None


def _fuse(d: ZXDiagram) -> RewriteStep | None:
    for e in sorted(d.edges):
        u, v, kind = d.edges[e]
        if kind != PLAIN or u == v:
            continue
        if d.is_spider(u) and d.is_spider(v) and d.color[u] == d.color[v]:
            d.remove_edge(e)
            d.phase[u] = d.phase[u] + d.phase[v]
            for ev in d.incident(v):
                a, b, k = d.edges[ev]
                d.remove_edge(ev)
                other = b if a == v else a
                d.add_edge(u, u if other == v else other, k)
            d.remove_spider(v)
            return RewriteStep(RewriteRule.FUSION, (u, v))
    return None


def _change_color(d: ZXDiagram) -> RewriteStep | None:
    # flip an X spider only when it unlocks a fusion and strictly lowers the
    # hadamard-edge count, which keeps the rewrite measure decreasing
    for v in d.spiders():
        if d.color[v] != SpiderColor.X:
            continue
        es = [e for e in d.incident(v) if not d._is_loop(e)]
        n_h = sum(1 for e in es if d.edge_kind(e) == HADAMARD)
        n_p = len(es) - n_h
        if n_h <= n_p:
            continue
        enables = any(
            d.edge_kind(e) == HADAMARD
            and d.is_spider(d.other_end(e, v))
            and d.color[d.other_end(e, v)] == SpiderColor.Z
            for e in es
        )
        if enables:
            _apply_color_flip(d, v)
            return RewriteStep(RewriteRule.COLOR_CHANGE, (v,))
    return None


def _apply_color_flip(d: ZXDiagram, v: int):
    d.color[v] = SpiderColor.Z if d.color[v] == SpiderColor.X else SpiderColor.X
    for e in d.incident(v):
        u, w, kind = d.edges[e]
        if u != w:  # self-loops get conjugated on both legs, a no-op
            d.edges[e] = (u, w, _toggle(kind))


# priority order: each pass applies the first rule that matches
_RULES = (
    _cancel_hadamard_wire,
    _cancel_parallel_hadamards,
    _remove_identity,
    _remove_self_loop,
    _fuse,
    _change_color,
)


def apply_rewrites(d: ZXDiagram) -> tuple[ZXDiagram, list[RewriteStep]]:
    """Exhaustive sound rewriting in `_RULES` order; input left untouched."""
    g = d.copy()
    steps: list[RewriteStep] = []
    limit = 4 * (g.spider_count() + len(g.edges)) + 16
    while len(steps) <= limit:
        step = next(filter(None, (rule(g) for rule in _RULES)), None)
        if step is None:
            break
        steps.append(step)
    return g, steps


def to_graph_like(d: ZXDiagram) -> ZXDiagram:
    """All spiders Z-colored; parallel hadamard edges and self-loops eliminated."""
    g = d.copy()
    for v in g.spiders():
        if g.color[v] == SpiderColor.X:
            _apply_color_flip(g, v)
    # the engine's own rules, unrecorded: all spiders are Z now, so every
    # parallel hadamard pair between spiders matches
    while _remove_self_loop(g) or _cancel_parallel_hadamards(g):
        pass
    return g


# ---- tensor semantics ------------------------------------------------------


def _z_spider_tensor(degree: int, phase: Angle) -> np.ndarray:
    data = np.zeros((2,) * degree, dtype=complex) if degree else np.zeros((), dtype=complex)
    p = np.exp(1j * phase.radians)
    if degree == 0:
        return np.array(1.0 + p, dtype=complex).reshape(())
    data[(0,) * degree] = 1.0
    data[(1,) * degree] = p
    return data


def _spider_tensor(color: SpiderColor, degree: int, phase: Angle) -> np.ndarray:
    data = _z_spider_tensor(degree, phase)
    if color == SpiderColor.X:
        for axis in range(degree):
            data = np.moveaxis(
                np.tensordot(_H_MAT, data, axes=([1], [axis])), 0, axis
            )
    return data


def zx_to_tensor(d: ZXDiagram) -> tn.Tensor:
    """Contract the diagram's tensor network; indices boundary_out then boundary_in."""
    n_boundary = len(d.boundary_in) + len(d.boundary_out)
    if n_boundary > MAX_TENSOR_BOUNDARIES:
        raise CapacityError(
            f"{n_boundary} boundaries exceeds ceiling {MAX_TENSOR_BOUNDARIES}"
        )
    labels = itertools.count()

    def fresh() -> tn.Index:
        return tn.Index(f"z{next(labels)}")

    legs: dict[int, list[tn.Index]] = {v: [] for v in d._incident}
    extra: list[tn.Tensor] = []
    for e in sorted(d.edges):
        u, v, kind = d.edges[e]
        if kind == PLAIN and u != v and (d.is_spider(u) or d.is_spider(v)):
            ix = fresh()
            legs[u].append(ix)
            legs[v].append(ix)
        else:
            ia, ib = fresh(), fresh()
            legs[u].append(ia)
            legs[v].append(ib)
            mat = _H_MAT if kind == HADAMARD else np.eye(2, dtype=complex)
            extra.append(tn.Tensor([ia, ib], mat))
    tensors = []
    for v in d.spiders():
        tensors.append(
            tn.Tensor(legs[v], _spider_tensor(d.color[v], len(legs[v]), d.phase[v]))
        )
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
    if len(d.edges) != len(d.boundary_in):
        return False
    want = set()
    for i, o in zip(d.boundary_in, d.boundary_out):
        want.add(frozenset((i, o)))
    got = set()
    for u, v, kind in d.edges.values():
        if kind != PLAIN:
            return False
        got.add(frozenset((u, v)))
    return got == want


def equivalent_zx(c1: Circuit, c2: Circuit) -> ZXEquivalence:
    """Rewrite c1 composed with the inverse of c2 down to bare wires, or give up.

    The rule set is sound but not complete, so the negative answer is
    Inconclusive rather than NotEquivalent.
    """
    if c1.num_qubits != c2.num_qubits:
        raise WidthMismatchError("circuits have different widths")
    composed = Circuit(c1.num_qubits, c1.gates + adjoint_circuit(c2).gates)
    diagram = to_graph_like(circuit_to_zx(composed))
    before = diagram.spider_count()
    reduced, steps = apply_rewrites(diagram)
    verdict = (
        ZXVerdict.EQUIVALENT if _is_identity_wiring(reduced) else ZXVerdict.INCONCLUSIVE
    )
    return ZXEquivalence(verdict, before, reduced.spider_count(), len(steps))


def stats(c: Circuit) -> str:
    # c composed with the inverse of the empty circuit is c itself
    r = equivalent_zx(c, Circuit(c.num_qubits))
    return f"spiders_before={r.spiders_before} spiders_after={r.spiders_after} steps={r.steps}"
