import itertools
import random

import numpy as np
import pytest

from conftest import BELL_AMPS, INV_SQRT2, all_plans, bell_circuit, ghz_circuit, peak_until_raises, random_circuit
from qcdesk.errors import MAX_BYTES, PlanError
from qcdesk import dense, tn
from qcdesk.ir import Angle, Circuit, Gate, GateKind


def triple_loop_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Brute-force C[i,j] = sum_k A[i,k] B[k,j]."""
    n = a.shape[0]
    c = np.zeros((n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                c[i, j] += a[i, k] * b[k, j]
    return c


def matrix_tensors(a: np.ndarray, b: np.ndarray):
    return tn.Tensor(["i", "k"], a), tn.Tensor(["k", "j"], b)


def rescan_greedy_steps(net: tn.TensorNetwork) -> list[tuple[int, int]]:
    """The greedy rule by rescanning every live pair at every step, O(T^3)."""
    live = {i: frozenset(t.indices) for i, t in enumerate(net.tensors)}

    def size(labels):
        return 2 ** len(labels)

    def key(p):
        a, b = live[p[0]], live[p[1]]
        return size(a ^ b), size(a) + size(b), p

    steps = []
    while len(live) > 1:
        pairs = list(itertools.combinations(sorted(live), 2))
        i, j = min([p for p in pairs if live[p[0]] & live[p[1]]] or pairs, key=key)
        live[len(net.tensors) + len(steps)] = live.pop(i) ^ live.pop(j)
        steps.append((i, j))
    return steps


def closed_network(c: Circuit, bits: str) -> tn.TensorNetwork:
    """The circuit's network with an effect <bits| on its open indices."""
    net = tn.circuit_to_network(c)
    effects = [
        tn.Tensor([ix], np.eye(2, dtype=complex)[int(b)])
        for ix, b in zip(net.open_indices, bits)
    ]
    return tn.TensorNetwork(net.tensors + effects, [])


def banded_qft(n: int, band: int) -> Circuit:
    """h per qubit, then controlled phases pi/2^d from the band qubits below it."""
    gates = []
    for q in range(n - 1, -1, -1):
        gates.append(Gate(GateKind.H, (q,)))
        for c in range(q - 1, max(q - band, 0) - 1, -1):
            den = 2 ** (q - c + 1)  # half of the phase pi/2^(q-c)
            gates += [
                Gate(GateKind.RZ, (c,), Angle(1, den)),
                Gate(GateKind.RZ, (q,), Angle(1, den)),
                Gate(GateKind.CX, (c, q)),
                Gate(GateKind.RZ, (q,), Angle(-1, den)),
                Gate(GateKind.CX, (c, q)),
            ]
    return Circuit(n, tuple(gates))


def random_networks(seed: int, count: int, max_qubits: int, max_gates: int):
    """Open and closed networks of random circuits; some have idle qubits."""
    rng = random.Random(seed)
    for k in range(count):
        n = rng.randrange(1, max_qubits + 1)
        c = random_circuit(rng, n, rng.randrange(0, max_gates + 1))
        if k % 3 == 2:
            c = Circuit(n + 2, c.gates)  # two idle qubits: disconnected parts
        if k % 2:
            yield closed_network(c, "".join(rng.choice("01") for _ in range(c.num_qubits)))
        else:
            yield tn.circuit_to_network(c)


class TestContractPair:
    def test_matrix_product(self):
        a = np.array([[1, 2], [3, 4]], dtype=complex)
        b = np.array([[5, 6], [7, 8]], dtype=complex)
        ta, tb = matrix_tensors(a, b)
        out = tn.contract_pair(ta, tb)
        assert out.indices == ["i", "j"]
        np.testing.assert_array_equal(out.data, [[19, 22], [43, 50]])

    def test_identity_contraction_relabels(self):
        a = np.array([[1, 2], [3, 4]], dtype=complex)
        ta = tn.Tensor(["i", "k"], a)
        ident = tn.Tensor(["k", "j"], np.eye(2))
        out = tn.contract_pair(ta, ident)
        np.testing.assert_array_equal(out.data, a)
        assert out.indices == ["i", "j"]

    def test_inner_product_scalar(self):
        u = tn.Tensor(["k"], np.array([1, 2], dtype=complex))
        v = tn.Tensor(["k"], np.array([3, 4], dtype=complex))
        out = tn.contract_pair(u, v)
        assert len(out.indices) == 0
        assert complex(out.data) == 11

    def test_outer_product(self):
        u = tn.Tensor(["a"], np.array([1, 2], dtype=complex))
        v = tn.Tensor(["b"], np.array([3, 4], dtype=complex))
        out = tn.contract_pair(u, v)
        assert len(out.indices) == 2
        np.testing.assert_array_equal(out.data, [[3, 4], [6, 8]])

    def test_wrong_size_data_raises(self):
        # every index is one dimension-2 wire: rank k takes exactly 2^k entries
        for labels, data in ((["k"], [1, 2, 3]), (["i", "j"], [1, 2]), ([], [1, 2])):
            with pytest.raises(ValueError):
                tn.Tensor(labels, np.array(data, dtype=complex))

    @pytest.mark.parametrize("dim", [2, 4])
    def test_random_against_triple_loop(self, dim):
        rng = np.random.default_rng(dim)
        for _ in range(25):
            a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            b = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            if dim == 2:
                ta, tb = matrix_tensors(a, b)
            else:
                # one shared label per leg pair: 4x4 as two dim-2 legs each side
                ta = tn.Tensor(["i1", "i2", "k1", "k2"], a.reshape(2, 2, 2, 2))
                tb = tn.Tensor(["k1", "k2", "j1", "j2"], b.reshape(2, 2, 2, 2))
            out = tn.contract_pair(ta, tb)
            np.testing.assert_allclose(
                out.data.reshape(dim, dim), triple_loop_matmul(a, b), atol=1e-12
            )


class TestCircuitToNetwork:
    def test_bell_network_shape(self):
        net = tn.circuit_to_network(bell_circuit())
        assert len(net.tensors) == 4
        assert sorted(len(t.indices) for t in net.tensors) == [1, 1, 2, 4]
        assert len(net.open_indices) == 2

    def test_empty_circuit(self):
        net = tn.circuit_to_network(Circuit(3))
        assert len(net.tensors) == 3
        assert all(len(t.indices) == 1 for t in net.tensors)
        assert len(net.open_indices) == 3

    def test_ghz3_counts(self):
        net = tn.circuit_to_network(ghz_circuit(3))
        assert len(net.tensors) == 3 + 3
        assert len(net.open_indices) == 3

    def test_internal_indices_appear_exactly_twice(self):
        rng = random.Random(3)
        for _ in range(10):
            c = random_circuit(rng, rng.randrange(1, 6), rng.randrange(0, 11))
            net = tn.circuit_to_network(c)
            counts = {}
            for t in net.tensors:
                for label in t.indices:
                    counts[label] = counts.get(label, 0) + 1
            open_labels = set(net.open_indices)
            for label, k in counts.items():
                assert k == (1 if label in open_labels else 2)


class TestPlanning:
    def test_bell_plan_length(self):
        net = tn.circuit_to_network(bell_circuit())
        assert len(tn.greedy_plan(net).steps) == 3

    def test_single_tensor_empty_plan(self):
        net = tn.TensorNetwork([tn.Tensor(["a"], np.array([1, 0], dtype=complex))], ["a"])
        assert tn.greedy_plan(net).steps == []

    def test_bell_max_intermediate_rank(self):
        net = tn.circuit_to_network(bell_circuit())
        plan = tn.greedy_plan(net)
        _, max_size = tn.plan_cost(net, plan)
        # the rank-4 gate tensor itself is the largest object touched
        assert max_size <= 2**4

    def test_bell_greedy_within_factor_two_of_best(self):
        net = tn.circuit_to_network(bell_circuit())
        greedy_flops, _ = tn.plan_cost(net, tn.greedy_plan(net))
        costs = [
            tn.plan_cost(net, tn.ContractionPlan(steps))[0]
            for steps in all_plans(len(net.tensors))
        ]
        assert greedy_flops <= 2 * min(costs)

    def test_exhaustive_matches_enumeration(self):
        net = tn.circuit_to_network(ghz_circuit(2))
        optimal = tn.exhaustive_optimal_plan(net)
        best = min(
            tn.plan_cost(net, tn.ContractionPlan(steps))[0]
            for steps in all_plans(len(net.tensors))
        )
        assert tn.plan_cost(net, optimal)[0] == best

    def test_greedy_matches_rescan_on_random_networks(self):
        for net in random_networks(17, 300, 6, 30):
            assert tn.greedy_plan(net).steps == rescan_greedy_steps(net)

    def test_greedy_matches_rescan_on_banded_qft(self):
        c = banded_qft(12, 3)
        net = closed_network(c, "011010011101")
        assert len(net.tensors) > 150
        assert tn.greedy_plan(net).steps == rescan_greedy_steps(net)

    def test_greedy_plans_a_thousand_idle_qubits(self):
        # once the idle wires close, no two tensors share an index: each step
        # is an outer product of the two smallest, found without a pair scan
        n = 1000
        c = Circuit(n, (Gate(GateKind.H, (0,)), Gate(GateKind.CX, (0, 1))))
        assert tn.amplitude_tn(c, "11".rjust(n, "0")) == pytest.approx(INV_SQRT2)
        small = Circuit(12, c.gates)
        for net in (tn.circuit_to_network(small), closed_network(small, "0" * 12)):
            assert tn.greedy_plan(net).steps == rescan_greedy_steps(net)

    def test_outer_products_do_not_resize_every_tensor(self, monkeypatch):
        # the open network of 1,000 idle qubits is ~1,000 outer products; a
        # rescan of every live tensor's size per step makes ~500,000 calls
        calls = 0
        size = tn._LabelSim.size

        def counting(sim, labels):
            nonlocal calls
            calls += 1
            return size(sim, labels)

        monkeypatch.setattr(tn._LabelSim, "size", counting)
        c = Circuit(1000, (Gate(GateKind.H, (0,)), Gate(GateKind.CX, (0, 1))))
        plan = tn.greedy_plan(tn.circuit_to_network(c))
        assert len(plan.steps) == 1001
        assert calls < 10_000

    def test_greedy_on_empty_and_single_tensor_networks(self):
        single = tn.TensorNetwork([tn.Tensor(["a"], np.array([1, 0], dtype=complex))], ["a"])
        for net in (tn.TensorNetwork([], []), single):
            assert tn.greedy_plan(net).steps == rescan_greedy_steps(net) == []

    def test_exhaustive_is_minimal_over_all_plans(self):
        nets = [tn.circuit_to_network(Circuit(3, (
            Gate(GateKind.X, (1,)), Gate(GateKind.H, (2,)), Gate(GateKind.CX, (0, 1)),
        )))]
        nets += [net for net in random_networks(19, 60, 3, 4) if len(net.tensors) <= 6]
        assert any(not net.open_indices for net in nets)
        for net in nets:
            best = min(
                tn.plan_cost(net, tn.ContractionPlan(steps))[0]
                for steps in all_plans(len(net.tensors))
            )
            assert tn.plan_cost(net, tn.exhaustive_optimal_plan(net))[0] == best


class TestExecutePlan:
    def test_bell_contracts_to_state(self):
        net = tn.circuit_to_network(bell_circuit())
        out = tn.execute_plan(net, tn.greedy_plan(net))
        np.testing.assert_allclose(out.data.reshape(-1), BELL_AMPS, atol=1e-12)

    def test_plan_order_independent(self):
        rng = random.Random(5)
        for _ in range(8):
            c = random_circuit(rng, rng.randrange(2, 6), rng.randrange(1, 11))
            net = tn.circuit_to_network(c)
            results = []
            for steps in itertools.islice(all_plans(len(net.tensors)), 2):
                out = tn.execute_plan(net, tn.ContractionPlan(list(steps)))
                results.append(out.data)
            np.testing.assert_allclose(results[0], results[1], atol=1e-10)

    def test_consumed_tensor_raises(self):
        net = tn.circuit_to_network(bell_circuit())
        with pytest.raises(PlanError):
            tn.execute_plan(net, tn.ContractionPlan([(0, 1), (0, 2)]))

    @pytest.fixture
    def contractions(self, monkeypatch) -> list:
        """The pairs of every contract_pair call."""
        calls, contract = [], tn.contract_pair
        monkeypatch.setattr(tn, "contract_pair", lambda a, b: calls.append((a, b)) or contract(a, b))
        return calls

    def test_bad_last_step_raises_before_any_contraction(self, contractions):
        net = tn.circuit_to_network(bell_circuit())
        with pytest.raises(PlanError):
            tn.execute_plan(net, tn.ContractionPlan([(0, 2), (1, 3), (4, 4)]))
        assert contractions == []

    def test_wrong_open_indices_raise_before_any_contraction(self, contractions):
        net = tn.circuit_to_network(bell_circuit())
        net.open_indices = ["x", "y"]
        with pytest.raises(PlanError, match="dangling"):
            tn.execute_plan(net, tn.greedy_plan(net))
        assert contractions == []

    def test_oversized_intermediate_raises_before_allocation(self):
        # two disjoint rank-r tensors whose outer product, at 16 bytes an entry,
        # is past the budget: r = 13, 2^26 entries
        r = next(r for r in range(32) if 16 * 4**r > MAX_BYTES)
        ones = np.ones((2,) * r, dtype=complex)
        net = tn.TensorNetwork(
            [tn.Tensor([f"{side}{q}" for q in range(r)], ones) for side in "ab"],
            [f"{side}{q}" for side in "ab" for q in range(r)],
        )
        assert peak_until_raises(lambda: tn.execute_plan(net, tn.ContractionPlan([(0, 1)]))) < 2**20

    def test_self_pair_step_raises(self):
        net = tn.circuit_to_network(bell_circuit())
        for run in (tn.execute_plan, tn.plan_cost):
            with pytest.raises(PlanError):
                run(net, tn.ContractionPlan([(1, 1)]))


class TestAmplitude:
    def test_bell_amplitudes(self):
        assert tn.amplitude_tn(bell_circuit(), "00") == pytest.approx(INV_SQRT2)
        assert tn.amplitude_tn(bell_circuit(), "10") == pytest.approx(0, abs=1e-12)

    @pytest.mark.parametrize("bits", ["22", "0a", "1 ", "0"])
    def test_rejects_bad_basis(self, bits):
        with pytest.raises(ValueError):
            tn.amplitude_tn(bell_circuit(), bits)

    def test_random_against_dense(self):
        rng = random.Random(11)
        c = random_circuit(rng, 5, 12)
        s = dense.simulate(c)
        for i in range(2**5):
            bits = format(i, "05b")
            assert tn.amplitude_tn(c, bits) == pytest.approx(
                complex(s.amps[i]), abs=1e-9
            )


class TestFullState:
    def test_bell(self):
        np.testing.assert_allclose(tn.full_state_tn(bell_circuit()).amps, BELL_AMPS, atol=1e-12)

    def test_empty(self):
        np.testing.assert_array_equal(
            tn.full_state_tn(Circuit(2)).amps, [1, 0, 0, 0]
        )

    def test_ghz4_matches_dense(self):
        np.testing.assert_allclose(
            tn.full_state_tn(ghz_circuit(4)).amps,
            dense.simulate(ghz_circuit(4)).amps,
            atol=1e-10,
        )


class TestPlanCost:
    def test_single_matrix_contraction(self):
        a = np.ones((2, 2), dtype=complex)
        ta, tb = matrix_tensors(a, a)
        net = tn.TensorNetwork([ta, tb], [ta.indices[0], tb.indices[1]])
        flops, _ = tn.plan_cost(net, tn.ContractionPlan([(0, 1)]))
        assert flops == 4 * 2

    def test_empty_plan(self):
        a = np.ones((2, 2), dtype=complex)
        t = tn.Tensor(["i", "j"], a)
        net = tn.TensorNetwork([t], ["i", "j"])
        assert tn.plan_cost(net, tn.ContractionPlan([])) == (0, 4)

    def test_stats_format(self):
        # the greedy plans and their costs, pinned exactly
        assert tn.stats(bell_circuit()) == "tensors=4 steps=3 flops=28 max_intermediate=16"
        assert tn.stats(ghz_circuit(8)) == "tensors=16 steps=15 flops=876 max_intermediate=256"


class TestGreedyNearOptimal:
    def test_small_circuit_networks(self):
        rng = random.Random(13)
        circuits = [bell_circuit(), ghz_circuit(2), ghz_circuit(3)]
        while len(circuits) < 12:
            n = rng.randrange(1, 4)
            c = random_circuit(rng, n, rng.randrange(0, 8 - n))
            circuits.append(c)
        for c in circuits:
            net = tn.circuit_to_network(c)
            assert len(net.tensors) <= 8
            greedy_flops, _ = tn.plan_cost(net, tn.greedy_plan(net))
            optimal_flops, _ = tn.plan_cost(net, tn.exhaustive_optimal_plan(net))
            assert greedy_flops <= 2 * max(optimal_flops, 1)
