import functools
import importlib
import itertools
import math
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    BELL_AMPS, H_MAT, INV_SQRT2, bell_circuit, circuits, dump_amplitudes, format_then_filter, gates_on, ghz_circuit,
    monomial_prefixed_circuits, peak_until_raises, product_then_monomial_circuits, random_circuit, random_gate,
    traced_peak,
)
from qcdesk.errors import MAX_BYTES, CapacityError
from qcdesk import cli, dense
from qcdesk.ir import Circuit, Gate, GateKind, gate_arity, gate_matrix, index_bits, parse_circuit


# hand-built kron oracle, kept independent of the strided kernel
_CX = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
_I2 = np.eye(2, dtype=complex)


# The widest state and unitary whose buffer (16 bytes an amplitude), plus at
# most half again for the support arrays, fits the budget: 24 and 12 qubits.
MAX_Q = max(n for n in range(64) if 24 * 2**n <= MAX_BYTES)
MAX_UNITARY_Q = max(n for n in range(32) if 24 * 4**n <= MAX_BYTES)
BENCH = Path(__file__).resolve().parent.parent / "bench"


class TestInitialState:
    def test_one_qubit(self):
        np.testing.assert_array_equal(dense.simulate(Circuit(1)).amps, [1, 0])

    def test_two_qubits(self):
        np.testing.assert_array_equal(dense.simulate(Circuit(2)).amps, [1, 0, 0, 0])

    def test_capacity_guard(self):
        with pytest.raises(CapacityError):
            dense.simulate(Circuit(MAX_Q + 1))

    @pytest.mark.parametrize("basis", [-1, 8, 2**40])
    def test_basis_outside_register_raises(self, basis):
        # amps[-1] would wrap to |111>, and the product start would drop high bits
        with pytest.raises(ValueError):
            dense.simulate(Circuit(3), basis)
        with pytest.raises(ValueError):
            dense.simulate(Circuit(3, (Gate(GateKind.H, (0,)),)), basis)

    def test_basis_is_checked_before_allocation(self):
        c = Circuit(MAX_Q, (Gate(GateKind.H, (0,)),))
        assert peak_until_raises(lambda: dense.simulate(c, 2**MAX_Q), ValueError) < 1 << 20


class TestApplyGate:
    def test_cnot_makes_bell_state(self):
        # control on the more significant qubit, target on the less significant
        s = dense.StateVector(2, np.array([1, 0, 1, 0], dtype=complex) * INV_SQRT2)
        out = dense.apply_gate(s, Gate(GateKind.CX, (1, 0)))
        np.testing.assert_allclose(out.amps, BELL_AMPS, atol=1e-15)

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
        np.testing.assert_allclose(s.amps, BELL_AMPS, atol=1e-15)

    def test_empty_circuit(self):
        s = dense.simulate(Circuit(3))
        expected = np.zeros(8)
        expected[0] = 1
        np.testing.assert_array_equal(s.amps, expected)

    def test_ghz3_against_kron_oracle(self):
        # H on q2, CX(2,1), CX(1,0) as explicit matrix-vector products
        v = np.zeros(8, dtype=complex)
        v[0] = 1
        v = np.kron(np.kron(H_MAT, _I2), _I2) @ v
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
        s = dense.apply_gate(dense.simulate(Circuit(1)), Gate(GateKind.H, (0,)))
        np.testing.assert_allclose(
            dense.measure_probabilities(s), [0.5, 0.5], atol=1e-15
        )


def reference_sample(s: dense.StateVector, shots: int, seed: int) -> dict[str, int]:
    """The multinomial drawn over all 2^n probabilities."""
    p = np.abs(s.amps) ** 2
    counts = np.random.default_rng(seed).multinomial(shots, p / p.sum())
    return {index_bits(i, s.n): int(counts[i]) for i in np.flatnonzero(counts)}


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

    @pytest.mark.parametrize("shots", [1, 7, 10_000, 10**12])
    @pytest.mark.parametrize("seed", range(6))
    def test_equals_the_full_draw(self, shots, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 9))
        s = dense.simulate(random_circuit(random.Random(seed), n, 4 * n))
        assert dense.sample(s, shots, seed) == reference_sample(s, shots, seed)

    @pytest.mark.parametrize("shots", [1, 3, 10_000])
    @pytest.mark.parametrize("seed", range(8))
    def test_equals_the_full_draw_with_zero_ends(self, shots, seed):
        # the last category takes the full draw's remainder: here it has probability 0
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 9))
        amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        amps[rng.random(2**n) < 0.6] = 0
        amps[[0, -1]] = 0
        amps[1] = 0.5
        s = dense.StateVector(n, amps / np.linalg.norm(amps))
        got = dense.sample(s, shots, seed)
        assert got == reference_sample(s, shots, seed)
        assert sum(got.values()) == shots

    def test_peak_is_one_probability_array(self):
        # at 2^14 amplitudes numpy does not elide the temporary of a ** 2, so
        # squaring into a second array would peak at 16 bytes an amplitude
        n = 14
        amps = np.zeros(2**n, dtype=complex)
        amps[np.random.default_rng(3).choice(2**n, 8, replace=False)] = 0.5 - 0.5j
        s = dense.StateVector(n, amps / np.linalg.norm(amps))
        peak = traced_peak(lambda: dense.sample(s, 100, 1))
        # the probabilities (8 bytes an amplitude) and the nonzero mask (1)
        assert peak <= 9 * 2**n + (1 << 14)

    def test_statevector_bench_circuit(self, monkeypatch):
        s = dense.simulate(bench_statevector_circuit(monkeypatch, 1))
        assert s.amps[-1] == 0
        assert dense.sample(s, 10_000, 1) == reference_sample(s, 10_000, 1)

    def test_never_reports_a_zero_probability_state(self, monkeypatch):
        # With 2^63 - 1 shots, the full draw's binomial for the last nonzero
        # probability (p / remaining just below 1 after rounding) can hold shots
        # back, and the remainder lands on the last basis state, of probability 0.
        s = dense.simulate(bench_statevector_circuit(monkeypatch, 1))
        shots = 2**63 - 1
        got = dense.sample(s, shots, 1)
        want = reference_sample(s, shots, 1)
        last = index_bits(2**s.n - 1, s.n)
        top = index_bits(int(np.flatnonzero(s.amps)[-1]), s.n)
        want[top] = want.get(top, 0) + want.pop(last, 0)
        assert got == want
        assert sum(got.values()) == shots


class TestAmplitudeDump:
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 7),
        seed=st.integers(0, 2**32 - 1),
        distinct=st.sampled_from([1, 3, 16, 256]),
        chunk=st.sampled_from([4, 8, 32, None]),
        masked=st.booleans(),
    )
    def test_equals_format_then_filter(self, n, seed, distinct, chunk, masked):
        amps = dump_amplitudes(seed, n, distinct)
        lines = format_then_filter(amps + 0.0, n, True).splitlines(keepends=True)
        keep = np.flatnonzero(np.random.default_rng(seed).random(2**n) < 0.5) if masked else None
        with pytest.MonkeyPatch.context() as mp:
            if chunk is not None:
                mp.setattr(dense, "_SLICE", chunk)
            s = dense.StateVector(n, amps) if keep is None else dense.StateVector(n, support=(keep, amps[keep]))
            got = dense.format_amplitude_dump(n, dense.every_amplitude(s.amps) if keep is None else s.entries())
        assert got == "".join(lines if keep is None else [lines[i] for i in keep])

    def test_peak_is_a_small_multiple_of_the_text(self, monkeypatch):
        # All-distinct parts, in chunks of 2^12 of the 2^16 lines: the chunks'
        # texts and their join are twice the text, and the chunk's scratch is
        # small beside it. Formatting the whole state at once peaks near 5x.
        n = 16
        rng = np.random.default_rng(1)
        s = dense.StateVector(n, rng.normal(size=2**n) + 1j * rng.normal(size=2**n))
        monkeypatch.setattr(dense, "_SLICE", 1 << 12)
        text = []
        peak = traced_peak(lambda: text.append(dense.format_amplitude_dump(n, dense.every_amplitude(s.amps))))
        assert peak <= 3 * len(text[0])


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
            dense.circuit_unitary(Circuit(MAX_UNITARY_Q + 1))


class TestProperties:
    def test_norm_preservation(self):
        rng = random.Random(23)
        for _ in range(30):
            c = random_circuit(rng, rng.randrange(1, 7), rng.randrange(0, 51))
            assert np.linalg.norm(dense.simulate(c).amps) == pytest.approx(1.0, abs=1e-9)

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
    return matrix_embedding(gate_matrix(g), g.qubits, n)


def matrix_embedding(m: np.ndarray, qubits: tuple[int, ...], n: int) -> np.ndarray:
    """m over qubits (the first one's bit most significant) on n qubits, as a sum
    of np.kron chains, one per nonzero of m: entry (row, col) puts
    |row bit><col bit| on each of the qubits, I elsewhere."""
    k = len(qubits)
    out = np.zeros((2**n, 2**n), dtype=complex)
    for row, col in zip(*np.nonzero(m)):
        ops = [_I2] * n  # ops[j] acts on qubit n-1-j
        for j, q in enumerate(qubits):
            e = np.zeros((2, 2))
            e[(row >> (k - 1 - j)) & 1, (col >> (k - 1 - j)) & 1] = 1
            ops[n - 1 - q] = e
        out += m[row, col] * functools.reduce(np.kron, ops)
    return out


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
            block = dense._gate_block(g)
            dense._apply_block(buf, block.qubits, block.matrix, n)
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


def per_gate_unitary(gates, n: int) -> np.ndarray:
    u = np.eye(2**n, dtype=complex)
    for g in gates:
        u = kron_embedding(g, n) @ u
    return u


def pattern_array(b) -> np.ndarray:
    """A block's pattern (a bit mask of columns per row) as a 0/1 matrix."""
    return np.array([[row >> c & 1 for c in range(len(b.pattern))] for row in b.pattern])


def count_kernel_passes(mp) -> list:
    """Patch the kernel to record the qubits of each block it applies."""
    passes = []
    kernel = dense._apply_block

    def counting(buf, qubits, m, n):
        passes.append(qubits)
        kernel(buf, qubits, m, n)

    mp.setattr(dense, "_apply_block", counting)
    return passes


def leading_monomial_blocks(c: Circuit) -> int:
    blocks = dense.plan(c)[1]
    return next((i for i, b in enumerate(blocks) if b.density > 1), len(blocks))


def bench_statevector_circuit(mp, seed: int) -> Circuit:
    mp.syspath_prepend(str(BENCH))
    gen = importlib.import_module("gen")
    n, gates = gen.statevector(seed).circuits["sv.qcf"]
    return parse_circuit(gen.render(n, gates))


def planned_blocks(c: Circuit) -> list:
    """(block, the gates fused into it) for each block of dense.plan(c),
    recorded from its calls to _gate_block and _fuse."""
    gates = {}  # id(block) -> its gates; a live block's id names no other
    gate_block, fuse = dense._gate_block, dense._fuse

    def recorded_block(g):
        b = gate_block(g)
        gates[id(b)] = [g]
        return b

    def recorded_fuse(b, g):
        fused = fuse(b, g)
        if fused:
            gates[id(b)] += gates[id(g)]
        return fused

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dense, "_gate_block", recorded_block)
        mp.setattr(dense, "_fuse", recorded_fuse)
        blocks = dense.plan(c)[1]
    return [(b, gates[id(b)]) for b in blocks]


class TestFusedPasses:
    """simulate and circuit_unitary run a product start and fused blocks; the
    per-gate kron embedding shares no code with either."""

    @settings(max_examples=60, deadline=None)
    @given(c=circuits(), data=st.data(), slice_amps=st.sampled_from([4, 8, 32]))
    def test_match_per_gate_product(self, c, data, slice_amps):
        n = c.num_qubits
        basis = data.draw(st.integers(0, 2**n - 1))
        want = per_gate_unitary(c.gates, n)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dense, "_SLICE", slice_amps)  # small values cross slice boundaries
            state = dense.simulate(c, basis).amps
            u = dense.circuit_unitary(c)
        np.testing.assert_allclose(state, want[:, basis], rtol=0, atol=1e-12)
        np.testing.assert_allclose(u, want, rtol=0, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(c=circuits(n_max=4))
    def test_blocks_are_no_denser_than_their_densest_gate(self, c):
        n = c.num_qubits
        for b, gates in planned_blocks(c):
            matrix, pattern = b.matrix, pattern_array(b)
            got = matrix_embedding(matrix, b.qubits, n)
            np.testing.assert_allclose(got, per_gate_unitary(gates, n), rtol=0, atol=1e-12)
            assert set(np.unique(pattern)) <= {0, 1}
            assert np.all(pattern[matrix != 0] == 1)  # the pattern holds every nonzero
            densest = max(np.count_nonzero(gate_matrix(g), axis=1).max() for g in gates)
            assert np.count_nonzero(pattern, axis=1).max() <= densest

    def test_statevector_bench_circuit_runs_in_few_passes(self, monkeypatch):
        # 200 gates in 68 blocks, each a permutation times phases: all of them
        # run on the 2^15-entry support, none as a kernel pass over 2^20
        c = bench_statevector_circuit(monkeypatch, 1)
        passes = count_kernel_passes(monkeypatch)
        dense.simulate(c)
        assert len(c.gates) == 200
        assert leading_monomial_blocks(c) == len(dense.plan(c)[1]) == 68
        assert passes == []

    @pytest.mark.parametrize("case", ["hand", "bench"])
    def test_kernel_runs_the_blocks_from_the_first_denser_one(self, monkeypatch, case):
        cx, h = GateKind.CX, GateKind.H
        if case == "hand":  # h joins the second block; the third is monomial again
            c = Circuit(4, (Gate(cx, (0, 1)), Gate(cx, (1, 2)), Gate(h, (2,)), Gate(cx, (2, 3))))
        else:  # h joins the last block on qubit 0 of the bench circuit
            c = bench_statevector_circuit(monkeypatch, 1)
            c = Circuit(c.num_qubits, c.gates + (Gate(h, (0,)),))
        blocks = dense.plan(c)[1]
        lead = leading_monomial_blocks(c)
        assert 0 < lead < len(blocks)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dense, "_SUPPORT_SHARE", 0)
            want = dense.simulate(c, 1).amps
        passes = count_kernel_passes(monkeypatch)
        got = dense.simulate(c, 1).amps
        assert passes == [b.qubits for b in blocks[lead:]]
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("run", [
        lambda: dense.simulate(Circuit(MAX_Q + 1, (Gate(GateKind.H, (0,)),))),
        lambda: dense.circuit_unitary(Circuit(MAX_UNITARY_Q + 1, (Gate(GateKind.H, (0,)),))),
    ], ids=["simulate", "circuit_unitary"])
    def test_capacity_is_checked_before_allocation(self, run):
        assert peak_until_raises(run) < 1 << 20


class TestSupportPhase:
    """Leading monomial blocks run on the support's (index, value) arrays; the
    kernel-only path (_SUPPORT_SHARE 0) is the oracle, equal value for value."""

    @settings(max_examples=60, deadline=None)
    @given(c=monomial_prefixed_circuits(), data=st.data())
    def test_matches_the_kernel_only_path(self, c, data):
        n = c.num_qubits
        basis = data.draw(st.integers(0, 2**n - 1))
        factors, blocks = dense.plan(c)
        lead = leading_monomial_blocks(c)

        def run(share):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(dense, "_SUPPORT_SHARE", share)
                passes = count_kernel_passes(mp)
                state = dense.simulate(c, basis).amps
                state_passes = len(passes)
                return state, dense.circuit_unitary(c), state_passes, len(passes) - state_passes

        def skipped(support, size):  # the blocks the support phase takes from the kernel
            return lead if support <= size * dense._SUPPORT_SHARE else 0

        state, unitary, state_passes, unitary_passes = run(dense._SUPPORT_SHARE)
        want_state, want_unitary, *kernel_passes = run(0)
        assert kernel_passes == [len(blocks)] * 2
        # the product start's support: the state's column, the whole start
        state_support = math.prod(np.count_nonzero(f[:, (basis >> q) & 1]) for q, f in enumerate(factors))
        unitary_support = math.prod(np.count_nonzero(f) for f in factors)
        assert state_passes == len(blocks) - skipped(state_support, 2**n)
        assert unitary_passes == len(blocks) - skipped(unitary_support, 4**n)
        assert np.array_equal(state, want_state)
        assert np.array_equal(unitary, want_unitary)

    @pytest.mark.parametrize("n, basis, gates", [
        (4, 1, "x 1; t 0; x 0; cx 0 1; x 0; t 0"),
        (5, 3, "t 0; x 0; cx 0 1; rz 1/4 1; x 1"),
    ])
    def test_a_moved_phase_rounds_as_in_the_kernel(self, n, basis, gates):
        # a moved amplitude times a phase, where a product like e^{i pi/4} e^{i pi/4}
        # has a real part of 2.2e-16 without fused multiply-add and 1.8e-16 with
        # it; the kernel's views on qubit 0 interleave, the support holds one entry
        c = parse_circuit(f"qubits {n}\n" + gates.replace("; ", "\n") + "\n")
        got = dense.simulate(c, basis).amps
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dense, "_SUPPORT_SHARE", 0)
            want = dense.simulate(c, basis).amps
        assert np.array_equal(got, want)

    def test_peak_is_the_buffer_plus_the_support_arrays(self, monkeypatch):
        n, superposed = 20, 15
        rng = random.Random(5)
        gates = [Gate(GateKind.H, (q,)) for q in range(superposed)]
        for _ in range(60):
            kind = rng.choice([GateKind.CX, GateKind.T, GateKind.SWAP])
            gates.append(Gate(kind, tuple(rng.sample(range(n), gate_arity(kind)))))
        c = Circuit(n, tuple(gates))
        passes = count_kernel_passes(monkeypatch)
        peak = traced_peak(lambda: dense.simulate(c))
        assert passes == []
        assert 2**superposed <= (2**n) * dense._SUPPORT_SHARE
        # 64 bytes per support entry, as the dense module doc says
        assert peak <= 16 * 2**n + 64 * 2**superposed + (1 << 18)

    def test_full_support_never_takes_the_support_path(self, monkeypatch):
        n = 20
        gates = [Gate(GateKind.H, (q,)) for q in range(n)]
        gates += [Gate(GateKind.CX, (q, q + 1)) for q in range(0, n - 1, 2)]
        gates += [Gate(GateKind.SWAP, (q, q + 1)) for q in range(1, n - 1, 2)]
        c = Circuit(n, tuple(gates))
        passes = count_kernel_passes(monkeypatch)
        peak = traced_peak(lambda: dense.simulate(c))
        assert len(passes) == len(dense.plan(c)[1]) == n - 1
        # the kernel's scratch is O(_SLICE); the support phase would add 40 bytes an amplitude
        assert peak <= 16 * 2**n + 16 * 4 * dense._SLICE + (1 << 18)

    # Exhaustive blocks on a start that plan is patched to return. The kernel
    # also multiplies the entries outside the support, which the support path
    # never writes, so neither path may make a zero of negative sign: 0 * (-1)
    # is -0.0. The factors' phases add up to less than pi/2, so no product in
    # the start has a negative part (an anti-diagonal factor multiplies the
    # start so far by 0), and the blocks' phases are in the first quadrant.
    START = [
        np.array([[0.6, 0.8], [0.8, 0.6]]),  # dense
        np.array([[np.exp(0.1j), 0], [0, 0.5]]),  # diagonal
        np.array([[0.28, 0.96 * np.exp(0.2j)], [0.96, 0.28]]),  # dense
        np.array([[0, np.exp(0.3j)], [1, 0]]),  # anti-diagonal
        np.array([[np.exp(0.4j), 0], [0, 1]]),  # diagonal
        np.array([[0.8, 0.6], [0.6, 0.8 * np.exp(0.5j)]]),  # dense
    ]
    BASIS = 0b101011  # the state's column: one nonzero on qubits 1, 3, 4, two on 0, 2, 5
    PHASES = [np.exp(1j * math.pi * k / 16) for k in (1, 8, 3, 5)]  # the first quadrant

    @classmethod
    def block_matrix(cls, perm: list[int], pattern: str) -> np.ndarray:
        """perm (local value -> local value) times phases, by pattern: none, every
        entry (a diagonal after perm), only the entries perm fixes, or only the
        ones it moves."""
        phases = {
            "none": [1] * len(perm),
            "diagonal": cls.PHASES[: len(perm)],
            "fixed": [p if perm[x] == x else 1 for x, p in enumerate(cls.PHASES[: len(perm)])],
            "moved": [p if perm[x] != x else 1 for x, p in enumerate(cls.PHASES[: len(perm)])],
        }[pattern]
        m = np.zeros((len(perm), len(perm)), dtype=complex)
        m[perm, range(len(perm))] = phases
        return m

    def check_block(self, listed: tuple[int, ...], m: np.ndarray, label: str) -> None:
        """The block m over the qubits listed (the first one's bit most
        significant, as gate_matrix puts it), on the patched start: the support
        path equals the kernel-only path bit for bit, on a state and a unitary."""
        if len(listed) == 2 and listed[0] < listed[1]:  # as _local_block reorders it
            m = m[np.ix_([0, 2, 1, 3], [0, 2, 1, 3])]
        pattern = tuple(sum(1 << c for c in np.flatnonzero(row)) for row in m)
        block = dense._Block(tuple(sorted(listed, reverse=True)), m, pattern, 1)
        c = Circuit(len(self.START))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dense, "plan", lambda _: (list(self.START), [block]))
            passes = count_kernel_passes(mp)
            got = dense.simulate(c, self.BASIS).amps, dense.circuit_unitary(c)
            assert passes == [], label  # both starts are at most an eighth of their buffer
            mp.setattr(dense, "_SUPPORT_SHARE", 0)
            want = dense.simulate(c, self.BASIS).amps, dense.circuit_unitary(c)
        for g, w, start in zip(got, want, ("state", "unitary")):
            assert np.array_equal(g.view(np.uint64), w.view(np.uint64)), f"{label} on the {start}"

    @pytest.mark.parametrize("pattern", ["none", "diagonal", "fixed", "moved"])
    @pytest.mark.parametrize("listed", [(3, 2), (2, 3), (5, 0), (0, 5), (4, 1)])
    def test_every_two_bit_permutation_matches_the_kernel(self, listed, pattern):
        for perm in itertools.permutations(range(4)):
            self.check_block(listed, self.block_matrix(list(perm), pattern), f"perm {perm}, {pattern}")

    @pytest.mark.parametrize("pattern", ["none", "diagonal", "fixed", "moved"])
    @pytest.mark.parametrize("qubit", [0, 3, 5])
    def test_every_one_bit_permutation_matches_the_kernel(self, qubit, pattern):
        for perm in ([0, 1], [1, 0]):
            self.check_block((qubit,), self.block_matrix(perm, pattern), f"perm {perm}, {pattern}")

    @pytest.mark.parametrize("blocks, ending", [
        (1, "support"), (10, "support"), (40, "support"), (10, "buffer"), (40, "buffer"),
    ], ids=["1", "10", "40", "10-buffer", "40-buffer"])
    def test_a_permutation_reads_no_entry(self, monkeypatch, blocks, ending):
        # 2^15 entries: the final index is the only read (the start's values are
        # grown from the factors), and each block with a phase adds one,
        # whatever the run's length. A trailing h on a qubit of the last block
        # ends the run in the buffer: the final index is then the scatter's,
        # and the kernel makes one pass, for the block the h joins
        n, superposed = 18, 15
        rng = random.Random(blocks)
        gates = [Gate(GateKind.H, (q,)) for q in range(superposed)]
        for kind in rng.choices([GateKind.CX, GateKind.SWAP, GateKind.X], k=3 * blocks):
            gates.append(Gate(kind, tuple(rng.sample(range(n), gate_arity(kind)))))
        reads = []
        read = dense._read
        monkeypatch.setattr(dense, "_read", lambda *args: reads.append(args[1]) or read(*args))
        passes = count_kernel_passes(monkeypatch)
        buffered = ending == "buffer"
        assert 2**superposed <= 2**n * dense._SUPPORT_SHARE

        def run_of(gates: list[Gate]) -> list[dense._Block]:
            """Simulate gates, with the trailing h if buffered; the run's blocks."""
            c = Circuit(n, tuple(gates))
            if buffered:
                c = Circuit(n, c.gates + (Gate(GateKind.H, (dense.plan(c)[1][-1].qubits[0],)),))
            plan = dense.plan(c)[1]
            run = plan[: leading_monomial_blocks(c)]
            assert run and len(plan) - len(run) == buffered
            reads.clear()
            passes.clear()
            assert (dense.simulate(c)._support is None) == buffered
            return run

        run_of(gates)
        assert len(reads) == 1 and len(passes) == buffered

        phased = gates + [Gate(GateKind.T, (q,)) for q in range(0, n, 3)]
        blocks_with_phase = sum(np.any(b.matrix[pattern_array(b) == 1] != 1) for b in run_of(phased))
        assert blocks_with_phase > 0
        assert len(reads) == 1 + blocks_with_phase and len(passes) == buffered
        # a phase block reads the bits of its own qubits only: one form each
        assert all(len(forms) <= 2 for forms in reads[:-1])


class TestSupportForm:
    """A state whose blocks are all monomial and whose start's support is at
    most _SUPPORT_SHARE of the buffer is held as its support; the buffer path
    (_SUPPORT_SHARE 0: the product start and the kernel) is the oracle."""

    @staticmethod
    def outputs(c: Circuit, basis: int, share: float, shots: int, seed: int, piece: int, asked: list) -> tuple:
        """The state's form and what every verb reads of it, in pieces of at
        most piece entries: the probabilities, the sample counts, the buffer,
        the compact and --full dumps, every amplitude as entries lists it
        (amplitude's one read) and dense.amplitude at the indices asked.
        Amplitudes are compared as bits, with zeros unsigned: the kernel may
        leave -0.0 where the support path leaves 0.0 (both print as 0). The
        probabilities and the sample are read first: neither builds a
        support's buffer."""
        n = c.num_qubits
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dense, "_SUPPORT_SHARE", share)
            s = dense.simulate(c, basis)
            mp.setattr(dense, "simulate", lambda _: s)
            mp.setattr(dense, "_SLICE", piece)  # after simulate: the kernel's slices stay as they are
            probs = dense.measure_probabilities(s).view(np.uint64).tolist()
            counts = dense.sample(s, shots, seed)
            assert s._support is None or s._amps is None
            listed = np.zeros(2**n, dtype=complex)
            for idx, vals in s.entries():
                listed[idx] = vals
            return s._support is not None, (
                probs,
                counts,
                (s.amps + 0.0).view(np.uint64).tolist(),
                dense.format_amplitude_dump(n, cli._printed(s.entries())),
                dense.format_amplitude_dump(n, dense.every_amplitude(s.amps)),
                (listed + 0.0).view(np.uint64).tolist(),
                (np.array([dense.amplitude(c, index_bits(i, n)) for i in asked]) + 0.0).view(np.uint64).tolist(),
            )

    @settings(max_examples=60, deadline=None)
    @given(c=product_then_monomial_circuits(), data=st.data(), shots=st.sampled_from([1, 1000, 2**63 - 1]),
           seed=st.integers(0, 2**32 - 1), piece=st.sampled_from([4, 32, dense._SLICE]))
    def test_every_output_equals_the_buffer_paths(self, c, data, shots, seed, piece):
        n = c.num_qubits
        basis = data.draw(st.integers(0, 2**n - 1))
        factors, blocks = dense.plan(c)
        support = math.prod(np.count_nonzero(f[:, (basis >> q) & 1]) for q, f in enumerate(factors))
        assert all(b.density == 1 for b in blocks)
        # every index up to 2^8 of them, else 256 drawn ones
        asked = range(2**n) if n <= 8 else data.draw(st.lists(st.integers(0, 2**n - 1), min_size=256, max_size=256))
        held, got = self.outputs(c, basis, dense._SUPPORT_SHARE, shots, seed, piece, asked)
        buffered, want = self.outputs(c, basis, 0, shots, seed, piece, asked)
        assert held == (support <= 2**n * dense._SUPPORT_SHARE) and not buffered
        names = ["probabilities", "sample", "amps", "compact dump", "full dump", "listed amplitudes", "amplitude"]
        for name, g, w in zip(names, got, want):
            assert g == w, name

    def test_the_normalizer_is_the_full_arrays_sum(self, monkeypatch):
        # on the seed-8 bench circuit, the sum over the support alone differs
        # from numpy's pairwise sum over all 2^20 probabilities in the last
        # bits, and dividing by it changes the counts that sample prints
        s = dense.simulate(bench_statevector_circuit(monkeypatch, 8))
        assert s._support is not None
        probs = dense.measure_probabilities(s)
        support = np.flatnonzero(probs)
        assert probs[support].sum() != probs.sum()
        shots, seed = 10_000, 8
        got = dense.sample(s, shots, seed)
        assert got == reference_sample(s, shots, seed)
        on_support = np.random.default_rng(seed).multinomial(shots, probs[support] / probs[support].sum())
        assert got != {index_bits(int(i), s.n): int(k) for i, k in zip(support, on_support) if k}

    def test_indices_are_ascending_and_the_buffer_is_built_once(self, monkeypatch):
        s = dense.simulate(bench_statevector_circuit(monkeypatch, 1))
        idx, vals = s._support
        assert len(idx) == 2**15 and np.all(np.diff(idx) > 0)
        assert s._amps is None
        assert s.amps is s.amps and np.array_equal(np.flatnonzero(s.amps), idx)

    @pytest.mark.parametrize("lo, hi", [(0, 1), (5, 6), (0, 2**20), (2**19, 2**19 + 77), (2**20 - 3, 2**20)])
    def test_entries_of_a_range_are_the_buffers(self, monkeypatch, lo, hi):
        s = dense.simulate(bench_statevector_circuit(monkeypatch, 1))
        for state in (s, dense.StateVector(s.n, s.amps)):
            pieces = list(state.entries(lo, hi))
            idx = np.concatenate([i for i, _ in pieces] or [np.empty(0, dtype=np.intp)])
            want = lo + np.flatnonzero(s.amps[lo:hi])
            assert np.array_equal(idx, want)
            assert all(np.array_equal(v, s.amps[i]) and len(i) <= dense._SLICE for i, v in pieces)
