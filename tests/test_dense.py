import functools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import bell_circuit, ghz_circuit, random_circuit, random_gate
from qcdesk.errors import CapacityError
from qcdesk import dense
from qcdesk.ir import Angle, Circuit, Gate, GateKind, gate_arity, gate_matrix

INV_SQRT2 = 1.0 / math.sqrt(2.0)

# hand-built kron oracle, kept independent of the strided kernel
_H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
_CX = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
_I2 = np.eye(2, dtype=complex)


class TestInitialState:
    def test_one_qubit(self):
        np.testing.assert_array_equal(dense.initial_state(1).amps, [1, 0])

    def test_two_qubits(self):
        np.testing.assert_array_equal(dense.initial_state(2).amps, [1, 0, 0, 0])

    def test_capacity_guard(self):
        with pytest.raises(CapacityError):
            dense.initial_state(25)


class TestApplyGate:
    def test_cnot_makes_bell_state(self):
        # control on the more significant qubit, target on the less significant
        s = dense.StateVector(2, np.array([1, 0, 1, 0], dtype=complex) * INV_SQRT2)
        out = dense.apply_gate(s, Gate(GateKind.CX, (1, 0)))
        np.testing.assert_allclose(
            out.amps, np.array([1, 0, 0, 1]) * INV_SQRT2, atol=1e-15
        )

    def test_not(self):
        s = dense.StateVector(1, np.array([1, 0], dtype=complex))
        out = dense.apply_gate(s, Gate(GateKind.X, (0,)))
        np.testing.assert_array_equal(out.amps, [0, 1])

    def test_hadamard_involution(self):
        s = dense.StateVector(1, np.array([1, 0], dtype=complex))
        h = Gate(GateKind.H, (0,))
        out = dense.apply_gate(dense.apply_gate(s, h), h)
        np.testing.assert_allclose(out.amps, [1, 0], atol=1e-12)


class TestSimulate:
    def test_bell(self):
        s = dense.simulate(bell_circuit())
        np.testing.assert_allclose(
            s.amps, np.array([1, 0, 0, 1]) * INV_SQRT2, atol=1e-15
        )

    def test_empty_circuit(self):
        s = dense.simulate(Circuit(3))
        expected = np.zeros(8)
        expected[0] = 1
        np.testing.assert_array_equal(s.amps, expected)

    def test_ghz3_against_kron_oracle(self):
        # H on q2, CX(2,1), CX(1,0) as explicit matrix-vector products
        v = np.zeros(8, dtype=complex)
        v[0] = 1
        v = np.kron(np.kron(_H, _I2), _I2) @ v
        v = np.kron(_CX, _I2) @ v
        v = np.kron(_I2, _CX) @ v
        s = dense.simulate(ghz_circuit(3))
        np.testing.assert_allclose(s.amps, v, atol=1e-14)
        expected = np.zeros(8)
        expected[0] = expected[7] = INV_SQRT2
        np.testing.assert_allclose(s.amps, expected, atol=1e-14)


class TestMeasurement:
    def test_bell_probabilities(self):
        p = dense.measure_probabilities(dense.simulate(bell_circuit()))
        np.testing.assert_allclose(p, [0.5, 0, 0, 0.5], atol=1e-15)
        assert p.sum() == pytest.approx(1.0, abs=1e-10)

    def test_deterministic_state(self):
        p = dense.measure_probabilities(
            dense.StateVector(1, np.array([1, 0], dtype=complex))
        )
        np.testing.assert_array_equal(p, [1, 0])

    def test_hadamard_half_half(self):
        s = dense.apply_gate(dense.initial_state(1), Gate(GateKind.H, (0,)))
        np.testing.assert_allclose(
            dense.measure_probabilities(s), [0.5, 0.5], atol=1e-15
        )


class TestSample:
    def test_deterministic_state_all_shots(self):
        s = dense.StateVector(1, np.array([1, 0], dtype=complex))
        assert dense.sample(s, 100, seed=42) == {"0": 100}

    def test_bell_keys_and_counts(self):
        s = dense.simulate(bell_circuit())
        counts = dense.sample(s, 10_000, seed=1)
        assert set(counts) <= {"00", "11"}
        assert sum(counts.values()) == 10_000
        # binomial 3-sigma bound around 5000 with sigma = 50
        for k in ("00", "11"):
            assert 4850 <= counts[k] <= 5150

    def test_reproducible(self):
        s = dense.simulate(bell_circuit())
        assert dense.sample(s, 1000, seed=9) == dense.sample(s, 1000, seed=9)

    def test_frequencies_converge(self):
        rng = random.Random(5)
        for seed in (0, 1, 2):
            c = random_circuit(rng, 4, 12)
            s = dense.simulate(c)
            probs = dense.measure_probabilities(s)
            counts = dense.sample(s, 100_000, seed=seed)
            freqs = np.zeros_like(probs)
            for bits, k in counts.items():
                freqs[int(bits, 2)] = k / 100_000
            tv = 0.5 * np.abs(freqs - probs).sum()
            assert tv < 0.05


class TestCircuitUnitary:
    def test_single_not(self):
        u = dense.circuit_unitary(Circuit(1, (Gate(GateKind.X, (0,)),)))
        np.testing.assert_array_equal(u, [[0, 1], [1, 0]])

    def test_empty_is_identity(self):
        np.testing.assert_array_equal(dense.circuit_unitary(Circuit(2)), np.eye(4))

    def test_double_hadamard(self):
        h = Gate(GateKind.H, (0,))
        u = dense.circuit_unitary(Circuit(1, (h, h)))
        np.testing.assert_allclose(u, np.eye(2), atol=1e-12)

    def test_capacity_guard(self):
        with pytest.raises(CapacityError):
            dense.circuit_unitary(Circuit(11))


class TestProperties:
    def test_norm_preservation(self):
        rng = random.Random(23)
        for _ in range(30):
            c = random_circuit(rng, rng.randrange(1, 7), rng.randrange(0, 51))
            assert dense.simulate(c).norm() == pytest.approx(1.0, abs=1e-9)

    def test_kernel_matches_unitary_oracle(self):
        rng = random.Random(31)
        np_rng = np.random.default_rng(31)
        for _ in range(60):
            n = rng.randrange(1, 5)
            g = random_gate(rng, n)
            amps = np_rng.normal(size=2**n) + 1j * np_rng.normal(size=2**n)
            amps /= np.linalg.norm(amps)
            s = dense.StateVector(n, amps.copy())
            via_kernel = dense.apply_gate(s, g).amps
            via_matrix = dense.circuit_unitary(Circuit(n, (g,))) @ amps
            np.testing.assert_allclose(via_kernel, via_matrix, atol=1e-12)


def kron_embedding(g: Gate, n: int) -> np.ndarray:
    """g on n qubits as a sum of np.kron chains, one per nonzero of its matrix:
    entry (row, col) puts |row bit><col bit| on each gate qubit, I elsewhere."""
    m = gate_matrix(g)
    k = len(g.qubits)
    out = np.zeros((2**n, 2**n), dtype=complex)
    for row, col in zip(*np.nonzero(m)):
        ops = [_I2] * n  # ops[j] acts on qubit n-1-j
        for j, q in enumerate(g.qubits):
            e = np.zeros((2, 2))
            e[(row >> (k - 1 - j)) & 1, (col >> (k - 1 - j)) & 1] = 1
            ops[n - 1 - q] = e
        out += m[row, col] * functools.reduce(np.kron, ops)
    return out


@st.composite
def gates_on(draw, kind, n_max=6):
    """(gate, n): a gate of this kind, qubits in either order, rational angles."""
    n = draw(st.integers(gate_arity(kind), n_max))
    qubits = tuple(draw(st.permutations(range(n)))[: gate_arity(kind)])
    angle = None
    if kind in (GateKind.RX, GateKind.RZ):
        angle = Angle(draw(st.integers(-16, 16)), draw(st.sampled_from([1, 2, 3, 4, 8, 16])))
    return Gate(kind, qubits, angle), n


class TestInPlaceKernel:
    """The in-place kernel against the kron embedding, which shares no code with it."""

    @pytest.mark.parametrize("kind", list(GateKind))
    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), cols=st.sampled_from([1, 2, 8]),
           slice_amps=st.sampled_from([4, 8, 32, 1 << 15]), seed=st.integers(0, 2**32 - 1))
    def test_matches_kron_embedding(self, kind, data, cols, slice_amps, seed):
        g, n = data.draw(gates_on(kind))
        np_rng = np.random.default_rng(seed)
        buf = np_rng.normal(size=(2**n, cols)) + 1j * np_rng.normal(size=(2**n, cols))
        want = kron_embedding(g, n) @ buf
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dense, "_SLICE", slice_amps)  # small values cross slice boundaries
            dense._apply_in_place(buf, g, n)
        np.testing.assert_allclose(buf, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("kind", [GateKind.CX, GateKind.SWAP])
    @pytest.mark.parametrize("qubits", [(0, 2), (2, 0), (1, 3), (3, 1)])
    def test_two_qubit_orders(self, kind, qubits):
        n = 4
        g = Gate(kind, qubits)
        u = dense.circuit_unitary(Circuit(n, (g,)))
        np.testing.assert_array_equal(u, kron_embedding(g, n))

    @pytest.mark.parametrize("kind", list(GateKind))
    @settings(max_examples=10, deadline=None)
    @given(data=st.data(), seed=st.integers(0, 2**32 - 1))
    def test_apply_gate_leaves_input_unmodified(self, kind, data, seed):
        g, n = data.draw(gates_on(kind))
        np_rng = np.random.default_rng(seed)
        amps = np_rng.normal(size=2**n) + 1j * np_rng.normal(size=2**n)
        before = amps.copy()
        out = dense.apply_gate(dense.StateVector(n, amps), g)
        np.testing.assert_array_equal(amps, before)
        np.testing.assert_allclose(out.amps, kron_embedding(g, n) @ before, rtol=0, atol=1e-12)
