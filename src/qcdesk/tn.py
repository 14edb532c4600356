"""Tensor-network backend: circuit translation, pairwise contraction, planning.

Every index has bond dimension 2. Gate tensors hold the gate unitary reshaped
with output indices first, one (out, in) leg pair per touched qubit, first
listed qubit most significant.
"""
from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from math import prod

import numpy as np

from .errors import CapacityError, DimensionMismatchError, PlanError
from . import dense
from .ir import Circuit, check_basis, gate_matrix

MAX_FULL_STATE_QUBITS = 20
MAX_EXHAUSTIVE_TENSORS = 8


@dataclass(frozen=True)
class Index:
    label: str
    dim: int = 2


@dataclass
class Tensor:
    indices: list[Index]
    data: np.ndarray  # shape = tuple of index dims, row-major in index order

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=complex)
        dims = tuple(ix.dim for ix in self.indices)
        if self.data.shape != dims:
            self.data = self.data.reshape(dims)

    @property
    def rank(self) -> int:
        return len(self.indices)

    @property
    def size(self) -> int:
        return int(self.data.size)


@dataclass
class TensorNetwork:
    tensors: list[Tensor]
    open_indices: list[Index] = field(default_factory=list)


@dataclass
class ContractionPlan:
    steps: list[tuple[int, int]]  # tensor ids; new tensors get the next free id


def contract_pair(a: Tensor, b: Tensor) -> Tensor:
    """Sum over all shared index labels; outer product when none are shared."""
    a_labels = {ix.label: pos for pos, ix in enumerate(a.indices)}
    shared = [(a_labels[ix.label], pos) for pos, ix in enumerate(b.indices) if ix.label in a_labels]
    for apos, bpos in shared:
        if a.indices[apos].dim != b.indices[bpos].dim:
            raise DimensionMismatchError(
                f"index {a.indices[apos].label!r} has dims "
                f"{a.indices[apos].dim} and {b.indices[bpos].dim}"
            )
    a_axes = tuple(apos for apos, _ in shared)
    b_axes = tuple(bpos for _, bpos in shared)
    data = np.tensordot(a.data, b.data, axes=(a_axes, b_axes))
    out = [ix for pos, ix in enumerate(a.indices) if pos not in a_axes]
    out += [ix for pos, ix in enumerate(b.indices) if pos not in b_axes]
    return Tensor(out, data)


def circuit_to_network(c: Circuit) -> TensorNetwork:
    """One |0> tensor per qubit plus one tensor per gate, wired along qubit lines."""
    labels = itertools.count()

    def fresh() -> Index:
        return Index(f"e{next(labels)}")

    tensors: list[Tensor] = []
    wire: dict[int, Index] = {}
    for q in range(c.num_qubits):
        ix = fresh()
        tensors.append(Tensor([ix], np.array([1.0, 0.0], dtype=complex)))
        wire[q] = ix
    for g in c.gates:
        ins = [wire[q] for q in g.qubits]
        outs = [fresh() for _ in g.qubits]
        tensors.append(Tensor(outs + ins, gate_matrix(g)))
        for q, ix in zip(g.qubits, outs):
            wire[q] = ix
    open_indices = [wire[q] for q in range(c.num_qubits - 1, -1, -1)]
    return TensorNetwork(tensors, open_indices)


class _LabelSim:
    """Label-set cost simulator: each live tensor's label set under pairwise
    contraction, with every step checked. All planners and execute_plan use it."""

    def __init__(self, net: TensorNetwork):
        self.dims = {ix.label: ix.dim for t in net.tensors for ix in t.indices}
        self.live = {i: frozenset(ix.label for ix in t.indices) for i, t in enumerate(net.tensors)}
        self.next_id = len(net.tensors)

    def size(self, labels: frozenset) -> int:
        return prod(self.dims[l] for l in labels) if labels else 1

    def contract(self, i: int, j: int) -> tuple[int, frozenset]:
        """Replace live tensors i and j by their contraction; (new id, shared labels)."""
        if i == j or i not in self.live or j not in self.live:
            raise PlanError(f"step ({i}, {j}) names a missing, consumed or repeated tensor")
        a, b = self.live.pop(i), self.live.pop(j)
        k, self.next_id = self.next_id, self.next_id + 1
        self.live[k] = a ^ b
        return k, a & b


def greedy_plan(net: TensorNetwork) -> ContractionPlan:
    """Pick the pair giving the smallest output, ties by smaller combined input
    then by creation order; disconnected remainders are outer-producted last.

    Index-sharing pairs wait in a heap under that key. A pair's key is fixed
    while both tensors live, so each step pushes only the new tensor's pairs,
    and entries naming a consumed tensor are dropped when they surface."""
    sim = _LabelSim(net)
    live, size = sim.live, sim.size
    holders: dict[str, set[int]] = {}
    for i, labels in live.items():
        for l in labels:
            holders.setdefault(l, set()).add(i)

    def key(i: int, j: int) -> tuple:
        return size(live[i] ^ live[j]), size(live[i]) + size(live[j]), (i, j)

    heap = [key(i, j) for i, j in {(i, j) for h in holders.values() for i in h for j in h if i < j}]
    heapq.heapify(heap)
    steps: list[tuple[int, int]] = []
    while len(live) > 1:
        while heap and not (heap[0][2][0] in live and heap[0][2][1] in live):
            heapq.heappop(heap)
        if heap:
            i, j = heapq.heappop(heap)[2]
        else:  # nothing shares an index now, nor will any outer product
            i, j = min(itertools.combinations(sorted(live), 2), key=lambda p: key(*p))
        for l in live[i] | live[j]:
            holders[l] -= {i, j}
        k, _ = sim.contract(i, j)
        steps.append((i, j))
        for l in live[k]:
            holders[l].add(k)
        for x in {x for l in live[k] for x in holders[l]} - {k}:
            heapq.heappush(heap, key(x, k))
    return ContractionPlan(steps)


def execute_plan(net: TensorNetwork, plan: ContractionPlan) -> Tensor:
    """Run the plan; the final tensor's indices follow net.open_indices order."""
    sim = _LabelSim(net)
    live: dict[int, Tensor] = dict(enumerate(net.tensors))
    for i, j in plan.steps:
        k, _ = sim.contract(i, j)
        live[k] = contract_pair(live.pop(i), live.pop(j))
    if len(live) != 1:
        raise PlanError(f"plan leaves {len(live)} tensors instead of one")
    result = live.popitem()[1]
    want = [ix.label for ix in net.open_indices]
    have = [ix.label for ix in result.indices]
    if sorted(want) != sorted(have):
        raise PlanError("result indices do not match the network's open indices")
    perm = [have.index(l) for l in want]
    return Tensor(list(net.open_indices), np.transpose(result.data, perm))


def plan_cost(net: TensorNetwork, plan: ContractionPlan) -> tuple[int, int]:
    """(flops, max_intermediate_size); flops per step = output size x contracted dim."""
    sim = _LabelSim(net)
    flops = 0
    max_size = max((sim.size(l) for l in sim.live.values()), default=1)
    for i, j in plan.steps:
        k, shared = sim.contract(i, j)
        out = sim.size(sim.live[k])
        flops += out * sim.size(shared)
        max_size = max(max_size, out)
    return flops, max_size


def exhaustive_optimal_plan(net: TensorNetwork) -> ContractionPlan:
    """Minimum-flops plan; test oracle, <= 8 tensors only. A DP over tensor
    subsets: a subset's cost is its cheapest split into two contracted halves
    plus the step joining them; a subset's labels do not depend on the order."""
    m = len(net.tensors)
    if m > MAX_EXHAUSTIVE_TENSORS:
        raise ValueError(f"exhaustive search limited to {MAX_EXHAUSTIVE_TENSORS} tensors")
    sim = _LabelSim(net)
    labels = {1 << i: l for i, l in sim.live.items()}  # subset bitmask -> labels
    cost = dict.fromkeys(labels, 0)
    split: dict[int, int] = {}
    for s in range(1, 1 << m):
        low = s & -s
        if s == low:
            continue
        labels[s] = labels[low] ^ labels[s ^ low]
        out = sim.size(labels[s])
        cost[s], split[s] = min(
            (cost[a] + cost[s ^ a] + out * sim.size(labels[a] & labels[s ^ a]), a)
            for a in range(low, s, low) if a & s == a and a & low
        )
    steps: list[tuple[int, int]] = []

    def emit(s: int) -> int:
        if s not in split:
            return s.bit_length() - 1
        i, j = emit(split[s]), emit(s ^ split[s])
        steps.append((i, j))
        return sim.contract(i, j)[0]

    if m:
        emit((1 << m) - 1)
    return ContractionPlan(steps)


def amplitude_tn(c: Circuit, bits: str) -> complex:
    """Single amplitude by plugging effect bubbles onto every open index."""
    check_basis(bits, c.num_qubits)
    net = circuit_to_network(c)
    tensors = list(net.tensors)
    for ix, bit in zip(net.open_indices, bits):
        vec = np.array([1.0, 0.0]) if bit == "0" else np.array([0.0, 1.0])
        tensors.append(Tensor([ix], vec.astype(complex)))
    closed = TensorNetwork(tensors, [])
    result = execute_plan(closed, greedy_plan(closed))
    return complex(result.data.reshape(()))


def full_state_tn(c: Circuit) -> dense.StateVector:
    if c.num_qubits > MAX_FULL_STATE_QUBITS:
        raise CapacityError(
            f"{c.num_qubits} qubits exceeds full-state ceiling {MAX_FULL_STATE_QUBITS}"
        )
    net = circuit_to_network(c)
    result = execute_plan(net, greedy_plan(net))
    return dense.StateVector(c.num_qubits, result.data.reshape(-1))


def stats(c: Circuit) -> str:
    net = circuit_to_network(c)
    plan = greedy_plan(net)
    flops, max_size = plan_cost(net, plan)
    return (
        f"tensors={len(net.tensors)} steps={len(plan.steps)} "
        f"flops={flops} max_intermediate={max_size}"
    )
