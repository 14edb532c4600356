"""Tensor-network backend: circuit translation, pairwise contraction, planning.

An index is a label, a str naming one qubit wire of dimension 2. Gate tensors
hold the gate unitary reshaped with output indices first, one (out, in) leg
pair per touched qubit, first listed qubit most significant. A plan is
checked whole, steps, open indices and the bytes it holds at its peak, before
anything is contracted.
"""
from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from decimal import Decimal
from functools import reduce

import numpy as np

from .errors import PlanError, reserve
from . import dense
from .ir import Circuit, check_basis, gate_matrix

MAX_EXHAUSTIVE_TENSORS = 8


@dataclass
class Tensor:
    indices: list[str]
    data: np.ndarray  # shape (2,) * rank, row-major in index order

    def __post_init__(self):
        # ValueError when the data does not hold 2^rank entries
        self.data = np.asarray(self.data, dtype=complex).reshape((2,) * len(self.indices))


@dataclass
class TensorNetwork:
    tensors: list[Tensor]
    open_indices: list[str] = field(default_factory=list)


@dataclass
class ContractionPlan:
    steps: list[tuple[int, int]]  # tensor ids; new tensors get the next free id


def contract_pair(a: Tensor, b: Tensor) -> Tensor:
    """Sum over all shared index labels; outer product when none are shared."""
    a_pos = {l: pos for pos, l in enumerate(a.indices)}
    shared = [(a_pos[l], pos) for pos, l in enumerate(b.indices) if l in a_pos]
    a_axes = tuple(apos for apos, _ in shared)
    b_axes = tuple(bpos for _, bpos in shared)
    data = np.tensordot(a.data, b.data, axes=(a_axes, b_axes))
    out = [l for pos, l in enumerate(a.indices) if pos not in a_axes]
    out += [l for pos, l in enumerate(b.indices) if pos not in b_axes]
    return Tensor(out, data)


def circuit_to_network(c: Circuit) -> TensorNetwork:
    """One |0> tensor per qubit plus one tensor per gate, wired along qubit lines."""
    labels = itertools.count()

    def fresh() -> str:
        return f"e{next(labels)}"

    tensors: list[Tensor] = []
    wire: dict[int, str] = {}
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
    contraction (steps, then contract calls), every step checked, with the flops,
    largest tensor and most entries held at once: the network's own tensors, the
    live intermediates, and np.tensordot's copies of a step's inputs and output."""

    def __init__(self, net: TensorNetwork, steps: list | tuple = ()):
        self.live = {i: frozenset(t.indices) for i, t in enumerate(net.tensors)}
        self.next_id = self.inputs = len(net.tensors)
        self.flops = 0
        self.max_size = max(map(self.size, self.live.values()), default=1)
        self.held = self.peak = sum(map(self.size, self.live.values()))
        for i, j in steps:
            self.contract(i, j)

    def size(self, labels: frozenset) -> int:
        return 1 << len(labels)

    def contract(self, i: int, j: int) -> tuple[int, frozenset]:
        """Replace live tensors i and j by their contraction; (new id, shared labels)."""
        if i == j or i not in self.live or j not in self.live:
            raise PlanError(f"step ({i}, {j}) names a missing, consumed or repeated tensor")
        a, b = self.live.pop(i), self.live.pop(j)
        k, self.next_id = self.next_id, self.next_id + 1
        out, shared = a ^ b, a & b
        self.live[k] = out
        size, size_a, size_b = 1 << len(out), 1 << len(a), 1 << len(b)
        self.flops += size << len(shared)
        self.max_size = max(self.max_size, size)
        self.peak = max(self.peak, self.held + size_a + size_b + size)
        # the network's own tensors stay held; a consumed intermediate is freed
        self.held += size - (size_a if i >= self.inputs else 0) - (size_b if j >= self.inputs else 0)
        return k, shared


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
        if not heap:
            break
        i, j = heapq.heappop(heap)[2]
        for l in live[i] | live[j]:
            holders[l] -= {i, j}
        k, _ = sim.contract(i, j)
        steps.append((i, j))
        for l in live[k]:
            holders[l].add(k)
        for x in {x for l in live[k] for x in holders[l]} - {k}:
            heapq.heappush(heap, key(x, k))
    # no pair shares an index, now or later: outer products of the two smallest, ties to the older
    smallest = [(size(labels), t) for t, labels in live.items()]
    heapq.heapify(smallest)
    while len(smallest) > 1:
        (a, i), (b, j) = heapq.heappop(smallest), heapq.heappop(smallest)
        steps.append((min(i, j), max(i, j)))
        heapq.heappush(smallest, (a * b, sim.contract(i, j)[0]))
    return ContractionPlan(steps)


def execute_plan(net: TensorNetwork, plan: ContractionPlan) -> Tensor:
    """Run the plan; the final tensor's indices follow net.open_indices order.

    The whole plan is checked on its label sets before the first contraction:
    a bad step, a plan that leaves other than one tensor or open indices other
    than the network's dangling labels raise PlanError. Then it reserves
    (errors.reserve) 16 bytes for each entry held at its peak: the network's
    tensors, the live intermediates, and one step's inputs and output."""
    sim = _LabelSim(net, plan.steps)
    if len(sim.live) != 1:
        raise PlanError(f"plan leaves {len(sim.live)} tensors instead of one")
    # a label on two tensors is summed, so the result keeps those on one
    dangling = reduce(frozenset.symmetric_difference, (frozenset(t.indices) for t in net.tensors))
    if sorted(net.open_indices) != sorted(dangling):
        raise PlanError("open indices do not match the network's dangling labels")
    reserve(16 * sim.peak, f"contraction plan of {len(net.tensors)} tensors")
    live: dict[int, Tensor] = dict(enumerate(net.tensors))
    for k, (i, j) in enumerate(plan.steps, len(net.tensors)):
        live[k] = contract_pair(live.pop(i), live.pop(j))
    result = live.popitem()[1]
    perm = [result.indices.index(l) for l in net.open_indices]
    return Tensor(list(net.open_indices), np.transpose(result.data, perm))


def plan_cost(net: TensorNetwork, plan: ContractionPlan) -> tuple[int, int]:
    """(flops, max_intermediate_size); flops per step = output size x contracted dim."""
    sim = _LabelSim(net, plan.steps)
    return sim.flops, sim.max_size


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
    reserve(32 * 2**c.num_qubits, f"{c.num_qubits}-qubit tn state")  # and its copy in basis order
    net = circuit_to_network(c)
    result = execute_plan(net, greedy_plan(net))
    del net  # its tensors go before the copy
    return dense.StateVector(c.num_qubits, result.data.reshape(-1))


def stats(c: Circuit) -> str:
    net = circuit_to_network(c)
    plan = greedy_plan(net)
    flops, max_size = plan_cost(net, plan)
    # Decimal prints ints of any size exactly; str(int) stops at 4,300 digits
    return (
        f"tensors={len(net.tensors)} steps={len(plan.steps)} "
        f"flops={Decimal(flops)} max_intermediate={Decimal(max_size)}"
    )
