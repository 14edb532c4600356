import gc
import math
import random
import struct
import weakref
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    BELL_AMPS, DD_POWER, H_MAT, INV_SQRT2, bell_circuit, bell_times_plus, circuits_on, draw_gate, ghz_circuit,
    random_circuit, random_gate, reference_node_count, traced_peak, uncancelled, vector_dd,
)
from qcdesk.errors import WidthMismatchError
from qcdesk import dd, dense
from qcdesk.ir import (
    EQUIVALENCE_TOLERANCE,
    Angle,
    Circuit,
    Gate,
    GateKind,
    Miter,
    gate_arity,
    index_bits,
    miter,
)


class TestVectorDD:
    def test_bell_structure(self):
        backend = dd.DDBackend()
        v = vector_dd(backend, dense.simulate(bell_circuit()).amps)
        assert dd.node_count(v) == 3
        assert v.root.w == pytest.approx(INV_SQRT2)
        # the top node has two distinct successors, each over the lower qubit
        top = v.root.node
        assert top.var == 1
        children = {id(e.node) for e in top.edges}
        assert len(children) == 2
        assert all(e.node.var == 0 for e in top.edges)

    def test_zero_state_one_node_per_level(self):
        backend = dd.DDBackend()
        for n in (1, 4, 8):
            v = vector_dd(backend, dense.simulate(Circuit(n)).amps)
            assert dd.node_count(v) == n
            node = v.root.node
            while node is not None:
                assert node.edges[1] is dd.ZERO_EDGE
                node = node.edges[0].node

    def test_ghz3_node_count_matches_oracle(self):
        s = dense.simulate(ghz_circuit(3))
        v = vector_dd(dd.DDBackend(), s.amps)
        assert dd.node_count(v) == reference_node_count(s.amps) == 5

    @pytest.mark.parametrize("n", range(2, 9))
    def test_ghz_counts(self, n):
        s = dense.simulate(ghz_circuit(n))
        assert dd.node_count(vector_dd(dd.DDBackend(), s.amps)) == reference_node_count(s.amps)
        assert dd.node_count(vector_dd(dd.DDBackend(), s.amps)) == 2 * n - 1

    def test_round_trip_bell(self):
        v = vector_dd(dd.DDBackend(), dense.simulate(bell_circuit()).amps)
        out = dd.DDBackend().dd_to_vector(v)
        np.testing.assert_allclose(out.amps, BELL_AMPS, atol=1e-12)

    def test_round_trip_single_qubit(self):
        v = vector_dd(dd.DDBackend(), np.array([1, 0], dtype=complex))
        np.testing.assert_array_equal(dd.DDBackend().dd_to_vector(v).amps, [1, 0])

    def test_round_trip_random(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            amps = rng.normal(size=16) + 1j * rng.normal(size=16)
            amps /= np.linalg.norm(amps)
            v = vector_dd(dd.DDBackend(), amps)
            np.testing.assert_allclose(dd.DDBackend().dd_to_vector(v).amps, amps, atol=1e-12)


def plain_expand(edge: dd.DDEdge, n: int, cols: int) -> np.ndarray:
    """Oracle: the same products as dd._expand, by plain recursion without sharing."""
    if edge.node is None:
        return np.full((2**n, cols**n), edge.w if n == 0 else 0j)

    def rec(node) -> np.ndarray:
        h, w = 2**node.var, cols**node.var
        out = np.empty((2 * h, cols * w), dtype=complex)
        for k, e in enumerate(node.edges):
            r, c = divmod(k, cols)
            out[r * h : (r + 1) * h, c * w : (c + 1) * w] = (
                e.w if e.node is None else np.multiply(e.w, rec(e.node))
            )
        return out

    # scalar first, as dd._expand multiplies: numpy computes `w * temporary`
    # in place, array first, once the temporary reaches 256 KiB
    return np.multiply(edge.w, rec(edge.node))


def matrix_of(m: dd.MatrixDD) -> np.ndarray:
    return plain_expand(m.root, m.n, 2)


def canonical_gate(backend: dd.DDBackend, g: Gate, n: int) -> dd.MatrixDD:
    """g on n qubits as a canonical matrix DD: its gate DD times the identity."""
    return backend.mult_mm(backend.gate_to_mdd(g, n), backend.identity_mdd(n))


class TestExpand:
    def test_unshared_state_peaks_near_its_result(self):
        # random amplitudes share no sub-vector: a full tree of 2^n - 1 nodes,
        # whose blocks summed over all levels would be n result-sized arrays
        n = 12
        rng = np.random.default_rng(23)
        amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        backend = dd.DDBackend()
        v = vector_dd(backend, amps)
        assert dd.node_count(v) == 2**n - 1
        result = []
        peak = traced_peak(lambda: result.append(backend.dd_to_vector(v).amps))
        out = result[0]
        assert out.nbytes == 16 * 2**n
        assert peak < 4 * out.nbytes
        assert np.array_equal(out, plain_expand(v.root, n, 1).reshape(-1))

    def test_shared_nodes_in_a_vector(self):
        # the node below both top branches has two parents, and |+>'s nodes
        # two adjacent edges each
        n = 6
        c = bell_times_plus(n)
        backend = dd.DDBackend()
        v = backend.simulate(c)
        parents = Counter(child for level in dd._levels(v.root.node) for node in level
                          for child in {e.node for e in node.edges} - {None})
        assert max(parents.values()) == 2
        got = backend.dd_to_vector(v).amps
        assert np.array_equal(got, plain_expand(v.root, n, 1).reshape(-1))
        np.testing.assert_allclose(got, dense.simulate(c).amps, atol=1e-12)

    def test_wide_random_states_bit_for_bit(self):
        # from n = 14 the oracle's blocks are temporaries numpy would multiply
        # array first; both sides must stay scalar first
        n = 16
        rng = random.Random(29)
        for _ in range(10):
            backend = dd.DDBackend()
            v = backend.simulate(random_circuit(rng, n, 40))
            assert np.array_equal(backend.dd_to_vector(v).amps, plain_expand(v.root, n, 1).reshape(-1))


class TestZeroTest:
    """`_is_zero` is the old grid test, both parts rounding to 0 at 10 decimals."""

    @staticmethod
    def grid_zero(w: complex) -> bool:
        return (round(w.real, 10) + 0.0, round(w.imag, 10) + 0.0) == (0.0, 0.0)

    def assert_same(self, xs):
        for x in xs:
            for w in (complex(x, 0.0), complex(0.0, x), complex(x, x)):
                assert dd._is_zero(w) == self.grid_zero(w), w

    def test_neighbours_of_the_threshold(self):
        xs = []
        for t in (5e-11, -5e-11):
            below, above = math.nextafter(t, 0.0), math.nextafter(t, 2 * t)
            xs += [math.nextafter(below, 0.0), below, t, above, math.nextafter(above, 2 * t)]
        self.assert_same(xs)
        assert dd._is_zero(complex(math.nextafter(5e-11, 0.0), 0.0))
        assert not dd._is_zero(complex(0.0, -5e-11))

    def test_special_values(self):
        tiny = math.ulp(0.0)
        xs = [0.0, -0.0, tiny, -tiny, 2.2250738585072014e-308 / 3, math.inf, -math.inf, math.nan]
        self.assert_same(xs)
        assert dd._is_zero(complex(-0.0, tiny))
        assert not dd._is_zero(complex(math.nan, 0.0))
        assert not dd._is_zero(complex(0.0, math.inf))

    def test_seeded_magnitudes_around_the_grid(self):
        rng = random.Random(97)
        xs = [
            rng.choice((1, -1)) * 10 ** rng.uniform(-12, -9) for _ in range(10_000)
        ]
        self.assert_same(xs)
        for _ in range(1000):  # independent parts
            w = complex(rng.choice(xs), rng.choice(xs))
            assert dd._is_zero(w) == self.grid_zero(w), w


class TestNodeKeys:
    """`_make_node` reads each scaled weight's grid key from a memo that lives
    with the backend; every key must be `_key_weight`'s, bit for bit."""

    @staticmethod
    def bits(key):
        """key with each float as its bytes, so -0.0 and nan compare by bits."""
        if isinstance(key, float):
            return struct.pack("<d", key)
        return tuple(map(TestNodeKeys.bits, key)) if isinstance(key, tuple) else key

    def assert_keys_are_the_grid_keys(self, backend):
        for w, k in backend._keys.items():
            assert self.bits(k) == self.bits(dd._key_weight(w)), w
        for key, node in backend._unique.items():
            # the key built without a memo, from the node's stored weights
            fresh = (node.var,) + tuple(
                dd._ZERO_KEY if e is dd.ZERO_EDGE else (dd._key_weight(e.w), id(e.node))
                for e in node.edges
            )
            assert self.bits(key) == self.bits(fresh)

    def test_edge_values(self):
        xs = []
        for k in (-3, -1, 0, 1, 2, 7, 10**9, 10**21):
            t = (k + 0.5) * 1e-10
            below, above = math.nextafter(t, -math.inf), math.nextafter(t, math.inf)
            xs += [math.nextafter(below, -math.inf), below, t, above, math.nextafter(above, math.inf)]
        tiny = math.ulp(0.0)
        xs += [0.0, -0.0, tiny, -tiny, 2.2250738585072014e-308 / 3, 2.2250738585072014e-308]
        xs += [10.0**e for e in range(-12, 13)] + [-1e12, 123456789012.34567, 1e12 + 0.5]
        xs += [math.inf, -math.inf, math.nan]
        weights = [w for x in xs for y in (0.0, -0.0, x, -0.3) for w in (complex(x, y), complex(y, x))]
        backend = dd.DDBackend()
        for _ in range(2):  # the second round finds every finite weight's key in the memo
            for w in weights:
                backend._make_node(0, [dd.DDEdge(1 + 0j, None), dd.DDEdge(w, None)])
                scaled = w / (1 + 0j)  # what the node stores, if it is not zeroed
                if scaled == scaled and not dd._is_zero(scaled):  # not nan: a lookup can hit
                    assert self.bits(backend._keys[scaled]) == self.bits(dd._key_weight(scaled)), w
        self.assert_keys_are_the_grid_keys(backend)

    def test_seeded_corpus(self):
        rng = random.Random(113)
        for _ in range(20):
            n = rng.randrange(1, 6)
            c1, c2 = random_circuit(rng, n, 20), random_circuit(rng, n, 20)
            backend = dd.DDBackend()
            backend.simulate(c1)
            backend.composed_mdd(uncancelled(c1, c2))
            self.assert_keys_are_the_grid_keys(backend)


class TestAmplitude:
    def test_bell_paths(self):
        v = vector_dd(dd.DDBackend(), dense.simulate(bell_circuit()).amps)
        assert dd.DDBackend().get_amplitude(v, "00") == pytest.approx(INV_SQRT2)
        assert dd.DDBackend().get_amplitude(v, "01") == 0
        assert dd.DDBackend().get_amplitude(v, "10") == 0
        assert dd.DDBackend().get_amplitude(v, "11") == pytest.approx(INV_SQRT2)

    @pytest.mark.parametrize("bits", ["22", "0a", "1 ", "0"])
    def test_rejects_bad_basis(self, bits):
        v = vector_dd(dd.DDBackend(), dense.simulate(bell_circuit()).amps)
        with pytest.raises(ValueError):
            dd.DDBackend().get_amplitude(v, bits)

    def test_zero_stub_exact_zero(self):
        v = vector_dd(dd.DDBackend(), dense.simulate(ghz_circuit(4)).amps)
        for bits in ("0001", "0110", "1110"):
            assert dd.DDBackend().get_amplitude(v, bits) == 0


class TestMatrixDD:
    def test_not_single_node(self):
        backend = dd.DDBackend()
        m = canonical_gate(backend, Gate(GateKind.X, (0,)), 1)
        assert dd.node_count(m) == 1
        np.testing.assert_array_equal(
            matrix_of(m), [[0, 1], [1, 0]]
        )

    def test_cnot_matrix(self):
        backend = dd.DDBackend()
        m = canonical_gate(backend, Gate(GateKind.CX, (1, 0)), 2)
        np.testing.assert_array_equal(
            matrix_of(m),
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
        )

    def test_embedded_hadamard_kron_oracle(self):
        backend = dd.DDBackend()
        m = canonical_gate(backend, Gate(GateKind.H, (1,)), 3)
        expected = np.kron(np.kron(np.eye(2), H_MAT), np.eye(2))
        np.testing.assert_allclose(matrix_of(m), expected, atol=1e-12)

    def test_random_embeddings_match_dense(self):
        rng = random.Random(41)
        backend = dd.DDBackend()
        for _ in range(30):
            n = rng.randrange(1, 5)
            g = random_gate(rng, n)
            got = matrix_of(canonical_gate(backend, g, n))
            np.testing.assert_allclose(
                got, dense.circuit_unitary(Circuit(n, (g,))), atol=1e-12
            )

    def test_trace_is_the_dense_trace(self):
        # its two diagonal blocks differ in general, unlike the near-identity U of a verdict
        rng = random.Random(31)
        for _ in range(20):
            c = random_circuit(rng, rng.randrange(1, 6), 20)
            backend = dd.DDBackend()
            assert abs(backend.trace(backend.composed_mdd(Miter(c, len(c.gates)))) - np.trace(dense.circuit_unitary(c))) <= 1e-9


class TestArithmetic:
    def test_cnot_times_plus_state_is_bell(self):
        backend = dd.DDBackend()
        plus = np.array([1, 0, 1, 0], dtype=complex) * INV_SQRT2
        m = backend.gate_to_mdd(Gate(GateKind.CX, (1, 0)), 2)
        v = backend.mult_mv(m, vector_dd(backend, plus))
        expected = vector_dd(backend, dense.simulate(bell_circuit()).amps)
        assert v.root.node is expected.root.node  # same canonical node
        assert v.root.w == pytest.approx(expected.root.w)

    def test_identity_mult_is_identity(self):
        backend = dd.DDBackend()
        rng = np.random.default_rng(2)
        amps = rng.normal(size=8) + 1j * rng.normal(size=8)
        amps /= np.linalg.norm(amps)
        v = vector_dd(backend, amps)
        out = backend.mult_mv(backend.identity_mdd(3), v)
        assert out.root.node is v.root.node

    def test_mult_mv_random_vs_dense(self):
        rng = random.Random(43)
        np_rng = np.random.default_rng(43)
        backend = dd.DDBackend()
        for _ in range(20):
            n = 5
            g = random_gate(rng, n)
            amps = np_rng.normal(size=2**n) + 1j * np_rng.normal(size=2**n)
            amps /= np.linalg.norm(amps)
            s = dense.StateVector(n, amps.copy())
            out = backend.mult_mv(
                backend.gate_to_mdd(g, n), vector_dd(backend, s.amps)
            )
            np.testing.assert_allclose(
                backend.dd_to_vector(out).amps,
                dense.apply_gate(s, g).amps,
                atol=1e-10,
            )

    def test_a_zero_factor_gives_the_zero_edge(self):
        backend = dd.DDBackend()
        zero = dd.VectorDD(2, dd.ZERO_EDGE)
        h = Gate(GateKind.H, (0,))
        m = backend.gate_to_mdd(h, 2)
        assert backend.mult_mv(m, zero).root is dd.ZERO_EDGE
        assert backend.mult_mm(dd.MatrixDD(2, dd.ZERO_EDGE), m).root is dd.ZERO_EDGE
        assert backend.apply_gate(dense._gate_block(h), zero).root is dd.ZERO_EDGE

    def test_mult_mm_involutions(self):
        backend = dd.DDBackend()
        x, h = Gate(GateKind.X, (0,)), Gate(GateKind.H, (0,))
        ident = backend.identity_mdd(1)
        xx = backend.mult_mm(canonical_gate(backend, x, 1), backend.gate_to_mdd(x, 1))
        assert xx.root.node is ident.root.node
        hh = backend.mult_mm(canonical_gate(backend, h, 1), backend.gate_to_mdd(h, 1))
        assert hh.root.node is ident.root.node
        assert hh.root.w == pytest.approx(1.0, abs=1e-12)

    def test_mult_mm_random_vs_dense(self):
        rng = random.Random(47)
        backend = dd.DDBackend()
        for _ in range(15):
            n = 4
            g1, g2 = random_gate(rng, n), random_gate(rng, n)
            # at most one factor may be a gate DD
            got = backend.mult_mm(canonical_gate(backend, g1, n), backend.gate_to_mdd(g2, n))
            expected = dense.circuit_unitary(Circuit(n, (g1,))) @ dense.circuit_unitary(
                Circuit(n, (g2,))
            )
            np.testing.assert_allclose(
                matrix_of(got), expected, atol=1e-10
            )

    def test_circuit_mdd_random_vs_dense(self):
        # multi-gate products through mult_mm
        rng = random.Random(53)
        for _ in range(12):
            c = random_circuit(rng, rng.randrange(1, 6), rng.randrange(0, 31))
            backend = dd.DDBackend()
            np.testing.assert_allclose(
                matrix_of(backend.composed_mdd(Miter(c, len(c.gates)))),
                dense.circuit_unitary(c),
                atol=1e-10,
            )

    def test_composed_mdd_random_pairs_vs_dense(self):
        # U2^dagger U1, built alternately from both ends; widths up to 5,
        # unequal gate counts, and an empty circuit on either side
        rng = random.Random(61)
        for k in range(30):
            n = rng.randrange(1, 6)
            c1 = random_circuit(rng, n, 0 if k == 0 else rng.randrange(0, 25))
            c2 = random_circuit(rng, n, 0 if k == 1 else rng.randrange(0, 25))
            backend = dd.DDBackend()
            expected = dense.circuit_unitary(c2).conj().T @ dense.circuit_unitary(c1)
            u = backend.composed_mdd(uncancelled(c1, c2))
            np.testing.assert_allclose(matrix_of(u), expected, atol=1e-9)

    def test_gate_dds_have_nodes_on_their_qubits_only(self):
        rng = random.Random(37)
        backend = dd.DDBackend()
        for _ in range(60):
            n = rng.randrange(1, 8)
            g = random_gate(rng, n)
            stack, levels = [backend.gate_to_mdd(g, n).root.node], set()
            while stack:
                node = stack.pop()
                if node is not None:
                    levels.add(node.var)
                    stack.extend(e.node for e in node.edges)
            assert levels <= set(g.qubits)
        # the identity has no node at all
        assert backend.gate_to_mdd(Gate(GateKind.RZ, (1,), Angle(0)), 3).root is dd._IDENTITY_EDGE

    def test_composed_mdd_adds_no_zero_operand(self):
        # a zero product comes back as ZERO_EDGE itself, so `_mult` skips it
        # instead of calling `add` only to return the other operand
        rng = random.Random(83)
        calls = zero_operands = 0
        for _ in range(30):
            n = rng.randrange(1, 7)
            c1 = random_circuit(rng, n, rng.randrange(0, 30))
            c2 = random_circuit(rng, n, rng.randrange(0, 30))
            backend = dd.DDBackend()
            with mock.patch.object(backend, "add", wraps=backend.add) as spy:
                backend.composed_mdd(uncancelled(c1, c2))
            for (a, b, _), _ in spy.call_args_list:
                calls += 1
                zero_operands += dd._is_zero(a.w) or dd._is_zero(b.w)
        assert calls > 0
        assert zero_operands == 0

    def test_add_zero_is_identity(self):
        backend = dd.DDBackend()
        v = vector_dd(backend, dense.simulate(bell_circuit()).amps)
        out = backend.add(v.root, dd.ZERO_EDGE, 1)
        assert out.node is v.root.node

    def test_add_basis_terms_gives_bell(self):
        backend = dd.DDBackend()
        a = vector_dd(backend, np.array([1, 0, 0, 0]) * INV_SQRT2)
        b = vector_dd(backend, np.array([0, 0, 0, 1]) * INV_SQRT2)
        out = backend.add(a.root, b.root, 1)
        expected = vector_dd(backend, dense.simulate(bell_circuit()).amps)
        assert out.node is expected.root.node

    def test_add_random_vs_dense(self):
        backend = dd.DDBackend()
        rng = np.random.default_rng(13)
        for _ in range(10):
            x = rng.normal(size=8) + 1j * rng.normal(size=8)
            y = rng.normal(size=8) + 1j * rng.normal(size=8)
            a = vector_dd(backend, x)
            b = vector_dd(backend, y)
            out = dd.VectorDD(3, backend.add(a.root, b.root, 2))
            np.testing.assert_allclose(
                backend.dd_to_vector(out).amps, x + y, atol=1e-10
            )

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 4: add keys its compute table on grid-rounded weights, "
        "so a hit can return the sum for weights that differ below the grid",
    )
    def test_add_hit_is_the_sum_of_its_own_operands(self):
        backend = dd.DDBackend()
        rng = np.random.default_rng(29)
        a, b = (
            vector_dd(backend, rng.normal(size=4) + 1j * rng.normal(size=4)).root
            for _ in range(2)
        )
        backend.add(dd.DDEdge(1 + 0j, a.node), b, 1)
        w = 1 + 4e-11  # the same grid key as 1
        got = backend.dd_to_vector(dd.VectorDD(2, backend.add(dd.DDEdge(w, a.node), b, 1))).amps
        want = w * backend.dd_to_vector(dd.VectorDD(2, dd.DDEdge(1 + 0j, a.node))).amps
        want += backend.dd_to_vector(dd.VectorDD(2, b)).amps
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)


def weight_bits(w: complex) -> bytes:
    return struct.pack("<dd", w.real, w.imag)


class TestFastPaths:
    """A gate DD's leaves end the walk, and the identity laws and the 0-stub skip in `_mult` are exact."""

    def test_identity_cut_off_stops_the_walk(self):
        # x on the top qubit: below it the gate DD is a leaf, the identity
        # there, so the product stops one level down instead of walking 24 levels
        n = 24
        backend = dd.DDBackend()
        v = backend.simulate(Circuit(n))
        m = backend.gate_to_mdd(Gate(GateKind.X, (n - 1,)), n)
        with mock.patch.object(backend, "_mult", wraps=backend._mult) as spy:
            out = backend.mult_mv(m, v)
        assert spy.call_count < 10
        assert backend.get_amplitude(out, "1" + "0" * (n - 1)) == 1
        assert backend.get_amplitude(out, "0" * n) == 0

    def test_identity_laws_match_the_walk_bit_for_bit(self):
        # the walk returns I @ m as m's node with m's weight, bit for bit:
        # every node stores its normalizing edge as exactly 1
        rng = random.Random(97)
        for _ in range(150):
            n = rng.randrange(1, 7)
            backend = dd.DDBackend()
            c = random_circuit(rng, n, 30)
            m = backend.composed_mdd(Miter(c, len(c.gates)))
            v = backend.simulate(random_circuit(rng, n, 30))
            ident = backend.identity_mdd(n)
            products = (backend.mult_mm(ident, m), backend.mult_mm(m, ident), backend.mult_mv(ident, v))
            for want, got in zip((m, m, v), products):
                assert got.root.node is want.root.node
                assert weight_bits(got.root.w) == weight_bits(want.root.w)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_simulate_and_composed_mdd_match_dense(self, data):
        n = data.draw(st.integers(1, 6))
        c1, c2 = data.draw(circuits_on(n, power=DD_POWER)), data.draw(circuits_on(n, power=DD_POWER))
        backend = dd.DDBackend()
        np.testing.assert_allclose(
            backend.dd_to_vector(backend.simulate(c1)).amps,
            dense.simulate(c1).amps,
            rtol=0,
            atol=1e-9,
        )
        expected = dense.circuit_unitary(c2).conj().T @ dense.circuit_unitary(c1)
        u = backend.composed_mdd(uncancelled(c1, c2))
        np.testing.assert_allclose(matrix_of(u), expected, rtol=0, atol=1e-9)


class TestSimulateDD:
    def test_bell(self):
        backend = dd.DDBackend()
        v = backend.simulate(bell_circuit())
        assert dd.node_count(v) == 3
        assert v.root.w == pytest.approx(INV_SQRT2, abs=1e-12)
        np.testing.assert_allclose(backend.dd_to_vector(v).amps, BELL_AMPS, atol=1e-12)

    def test_empty_circuit(self):
        # |0000>: one node per level, its edge 1 a 0-stub, every weight 1
        backend = dd.DDBackend()
        v = backend.simulate(Circuit(4))
        edge, levels = v.root, []
        while edge.node is not None:
            assert edge.w == 1
            assert edge.node.edges[1] is dd.ZERO_EDGE
            levels.append(edge.node.var)
            edge = edge.node.edges[0]
        assert edge.w == 1
        assert levels == [3, 2, 1, 0]
        assert len(backend._unique) == 4

    @staticmethod
    def top_walks(backend: dd.DDBackend, c: Circuit) -> tuple[dd.VectorDD, int]:
        """The state of c and the number of `_mult` walks its simulation began."""
        walks = 0
        mult = backend._mult

        def spy(a, b, level):
            nonlocal walks
            walks += level == c.num_qubits - 1  # only a walk's first call is at the top level
            return mult(a, b, level)

        with mock.patch.object(backend, "_mult", spy):
            return backend.simulate(c), walks

    def test_one_walk_per_planned_block(self):
        # a controlled phase as the banded QFT writes it, rz c; rz q; cx c q;
        # rz q; cx c q, is one block: one walk, not five
        def phase(c: int, q: int, d: int) -> tuple:
            rz = lambda k, q: Gate(GateKind.RZ, (q,), Angle(k, 2 ** (d + 1)))
            return (rz(1, c), rz(1, q), Gate(GateKind.CX, (c, q)), rz(-1, q), Gate(GateKind.CX, (c, q)))

        one = Circuit(2, (Gate(GateKind.H, (0,)), Gate(GateKind.H, (1,))) + phase(0, 1, 2))
        n = 5
        ladder = Circuit(n, tuple(
            g for q in range(n - 1, -1, -1)
            for g in (Gate(GateKind.H, (q,)),) + sum((phase(q - d, q, d) for d in (1, 2) if q - d >= 0), ())
        ))
        assert len(dense.plan(one)[1]) == 1
        assert len(dense.plan(ladder)[1]) < len(ladder.gates) // 4
        for c in (one, ladder):
            backend = dd.DDBackend()
            v, walks = self.top_walks(backend, c)
            assert walks == len(dense.plan(c)[1])
            np.testing.assert_allclose(backend.dd_to_vector(v).amps, dense.simulate(c).amps, rtol=0, atol=1e-12)

    def test_one_qubit_gates_build_one_node_per_level(self):
        # every gate folds into its qubit's factor: the product start is the state
        rng = random.Random(31)
        n = 7
        gates = (random_gate(rng, 1) for _ in range(60))  # one qubit: no two-qubit kinds
        c = Circuit(n, tuple(Gate(g.kind, (rng.randrange(n),), g.angle) for g in gates))
        backend = dd.DDBackend()
        v, walks = self.top_walks(backend, c)
        assert walks == 0
        assert len(backend._unique) == dd.node_count(v) == n
        np.testing.assert_allclose(backend.dd_to_vector(v).amps, dense.simulate(c).amps, rtol=0, atol=1e-12)

    def test_wide_uniform_state_keeps_its_weight(self):
        # |+> on 80 qubits: every amplitude is 2^-40, far below the weight grid,
        # and neither a block applied to it (cx leaves it as it is) nor a gate
        # DD's product with it (x on one qubit, likewise) may zero it
        n = 80
        plus = tuple(Gate(GateKind.H, (q,)) for q in range(n))
        for c in (Circuit(n, plus), Circuit(n, plus + (Gate(GateKind.CX, (0, 1)),))):
            backend = dd.DDBackend()
            v = backend.simulate(c)
            for d in (v, backend.mult_mv(backend.gate_to_mdd(Gate(GateKind.X, (0,)), n), v)):
                assert d.root.w == pytest.approx(2.0**-40, rel=1e-12)
                assert dd.node_count(d) == n
                for bits in ("0" * n, "1" * n, "01" * (n // 2)):
                    assert backend.get_amplitude(d, bits) == pytest.approx(2.0**-40, rel=1e-12)

    def test_unitarity_preserved(self):
        rng = random.Random(59)
        for _ in range(10):
            c = random_circuit(rng, 5, 25)
            backend = dd.DDBackend()
            s = backend.dd_to_vector(backend.simulate(c))
            assert np.linalg.norm(s.amps) == pytest.approx(1.0, abs=1e-9)


class TestCanonicity:
    def test_identical_roots_for_recomputed_state(self):
        backend = dd.DDBackend()
        s = dense.simulate(ghz_circuit(4))
        v1 = vector_dd(backend, s.amps)
        # recompute the same amplitudes through a different arithmetic path
        amps = (s.amps * 3.0) / 3.0
        v2 = vector_dd(backend, amps)
        assert v1.root.node is v2.root.node

    def test_simulation_and_conversion_share_nodes(self):
        backend = dd.DDBackend()
        v1 = backend.simulate(bell_circuit())
        v2 = vector_dd(backend, dense.simulate(bell_circuit()).amps)
        assert v1.root.node is v2.root.node

    def test_no_duplicate_signatures(self):
        rng = random.Random(61)
        backend = dd.DDBackend()
        c = random_circuit(rng, 5, 20)
        v = backend.simulate(c)
        seen = {}
        stack = [v.root.node]
        while stack:
            node = stack.pop()
            if node is None or id(node) in seen.values():
                continue
            sig = (node.var,) + tuple(
                (round(e.w.real, 10), round(e.w.imag, 10), id(e.node))
                for e in node.edges
            )
            assert sig not in seen, "two distinct nodes share a signature"
            seen[sig] = id(node)
            stack.extend(e.node for e in node.edges)

    @staticmethod
    def assert_in_unique_table(backend: dd.DDBackend, d: dd.VectorDD | dd.MatrixDD):
        unique = {id(node) for node in backend._unique.values()}
        assert all(id(node) in unique for level in dd._levels(d.root.node) for node in level)

    def test_block_nodes_never_reach_a_state(self):
        # a block DD's nodes are not hash-consed, so a walk that returned one
        # would leave a node outside the unique table in the state
        rng = random.Random(89)
        for _ in range(30):
            n = rng.randrange(1, 7)
            backend = dd.DDBackend()
            v = backend.simulate(random_circuit(rng, n, 30))
            self.assert_in_unique_table(backend, v)
            for _ in range(5):
                v = backend.apply_gate(dense._gate_block(random_gate(rng, n)), v)
                self.assert_in_unique_table(backend, v)

    def test_block_nodes_never_reach_a_composed_matrix(self):
        # gate DDs multiply onto both sides of the product, from the identity
        # on; rz 0 and rz 2 (2 pi) are the identity, a gate DD with no node
        rng = random.Random(79)
        for _ in range(30):
            n = rng.randrange(1, 7)
            idle = tuple(Gate(GateKind.RZ, (rng.randrange(n),), Angle(k)) for k in (0, 2))
            c = Circuit(n, idle + random_circuit(rng, n, 20).gates + idle)
            for split in (0, len(c.gates) // 2, len(c.gates)):
                backend = dd.DDBackend()
                self.assert_in_unique_table(backend, backend.composed_mdd(Miter(c, split)))


class TestEquivalence:
    def test_self_equivalent(self):
        rng = random.Random(67)
        c = random_circuit(rng, 4, 15)
        result = dd.equivalent_dd(miter(c, c))
        assert result.equivalent
        assert result.phase == pytest.approx(1.0, abs=1e-9)

    def test_double_hadamard_vs_empty(self):
        h = Gate(GateKind.H, (0,))
        result = dd.equivalent_dd(miter(Circuit(1, (h, h)), Circuit(1)))
        assert result.equivalent
        assert result.phase == pytest.approx(1.0, abs=1e-9)

    def test_swapped_cnot_not_equivalent(self):
        bell = bell_circuit()
        swapped = Circuit(
            2, (Gate(GateKind.H, (1,)), Gate(GateKind.CX, (0, 1)))
        )
        assert not dd.equivalent_dd(miter(bell, swapped)).equivalent

    def test_global_phase_detected(self):
        # Z X Z X = -I, so the pair differs from identity only by phase
        seq = Circuit(
            1,
            (
                Gate(GateKind.Z, (0,)),
                Gate(GateKind.X, (0,)),
                Gate(GateKind.Z, (0,)),
                Gate(GateKind.X, (0,)),
            ),
        )
        result = dd.equivalent_dd(miter(seq, Circuit(1)))
        assert result.equivalent
        assert result.phase == pytest.approx(-1.0, abs=1e-9)

    def test_width_mismatch(self):
        with pytest.raises(WidthMismatchError):
            dd.equivalent_dd(miter(Circuit(2), Circuit(3)))

    def test_least_diagonal_matches_dense(self):
        rng = random.Random(71)
        backend = dd.DDBackend()
        for _ in range(20):
            n = rng.randrange(1, 5)
            c = random_circuit(rng, n, rng.randrange(0, 16))
            m = backend.composed_mdd(Miter(c, len(c.gates)))
            diag = np.abs(np.diag(matrix_of(m)))
            # dense's rule: the lowest j within the tolerance of the least
            j = int(np.argmax(diag <= diag.min() + EQUIVALENCE_TOLERANCE))
            assert backend.least_diagonal(m) == index_bits(j, m.n)

    def test_least_diagonal_pads_zero_stubs_and_prefers_zero(self):
        backend = dd.DDBackend()
        # x on the top qubit: both diagonal edges of the root are 0-stubs
        flip = backend.composed_mdd(Miter(Circuit(3, (Gate(GateKind.X, (2,)),)), 1))
        assert backend.least_diagonal(flip) == "000"
        # every diagonal entry of z on qubit 0 has magnitude 1: a tie
        z = backend.composed_mdd(Miter(Circuit(2, (Gate(GateKind.Z, (0,)),)), 1))
        assert backend.least_diagonal(z) == "00"

    def test_not_equivalent_carries_witness(self):
        bell = bell_circuit()
        extra = Circuit(2, bell.gates + (Gate(GateKind.X, (0,)),))
        result = dd.equivalent_dd(miter(bell, extra))
        assert not result.equivalent
        assert result.phase is None
        assert result.witness == "00"  # x on qubit 0 empties the whole diagonal


class TestLifetime:
    def test_backend_is_freed_without_the_cycle_collector(self):
        # a reference cycle through the backend would keep its unique table,
        # compute tables and gate cache alive after the job that used them
        rng = random.Random(83)
        c1, c2 = random_circuit(rng, 4, 20), random_circuit(rng, 4, 12)
        gc.disable()
        try:
            backend = dd.DDBackend()
            ref = weakref.ref(backend)
            v = backend.simulate(c1)
            backend.get_amplitude(v, "0101")
            backend.dd_to_vector(v)
            u = backend.composed_mdd(uncancelled(c1, c2))
            backend.trace(u)
            backend.least_diagonal(u)
            del backend, v, u
            assert ref() is None
        finally:
            gc.enable()

    @pytest.mark.parametrize(
        "call",
        [
            lambda c, c2: dd.state(c),
            lambda c, c2: dd.stats(c),
            lambda c, c2: dd.equivalent_dd(miter(c, c)),
            lambda c, c2: dd.equivalent_dd(miter(c, c2)),
        ],
        ids=["state", "stats", "equivalent_dd-same", "equivalent_dd-differ"],
    )
    def test_calls_leave_no_cyclic_garbage(self, call):
        # a walk written as a closure that calls itself leaves a cycle through
        # its memo behind on every call
        rng = random.Random(89)
        c, c2 = random_circuit(rng, 3, 15), random_circuit(rng, 3, 15)
        assert not dd.equivalent_dd(miter(c, c2)).equivalent  # takes the witness walk
        gc.collect()
        gc.disable()
        try:
            call(c, c2)
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestStats:
    def test_format(self):
        out = dd.stats(bell_circuit())
        assert out.startswith("nodes=3 root_weight=0.70710678118654")

    def test_lines_are_pinned(self):
        # node counts and root weights to the last printed digit
        rng = random.Random(61)
        got = []
        for _ in range(8):
            n = rng.randrange(2, 11)
            got.append(dd.stats(random_circuit(rng, n, rng.randrange(40, 120))))
        assert got == PINNED_STATS


PINNED_STATS = [
    "nodes=27 root_weight=-0.12500000000000006,-0.3017766952966367",
    "nodes=3 root_weight=-0.45043249495181958,-0.11892573582431885",
    "nodes=5 root_weight=-0.30618621784789707,0.5303300858899106",
    "nodes=25 root_weight=0.036611652351681533,-0.088388347648318349",
    "nodes=19 root_weight=-0.078018930083296509,-0.015518930083296458",
    "nodes=17 root_weight=-0.042358142349216685,0.078324885330925825",
    "nodes=19 root_weight=-1.1102230246251565e-16,-0.1508883476483184",
    "nodes=12 root_weight=-0.021225004786385653,-0.073450078293249343",
]


class TestDeepDiagrams:
    def test_whole_diagram_reads_do_not_recurse(self):
        # |0><0| on each of 2,000 qubits: one node per level, twice as many
        # levels as the interpreter's default recursion limit
        n = 2000
        backend = dd.DDBackend()
        edge = dd.DDEdge(1 + 0j, None)
        for level in range(n):
            edge = backend._make_node(level, [edge, dd.ZERO_EDGE, dd.ZERO_EDGE, dd.ZERO_EDGE])
        m = dd.MatrixDD(n, edge)
        assert backend.trace(m) == 1
        assert backend.least_diagonal(m) == "0" * (n - 1) + "1"
        assert dd.node_count(m) == n


class TestComputeTables:
    def test_each_product_starts_from_empty_tables(self):
        rng = random.Random(73)
        n = 4
        c1 = random_circuit(rng, n, 20)
        c2 = Circuit(n, c1.gates + (Gate(GateKind.T, (2,)),))
        backend = dd.DDBackend()
        sizes = []
        mult = backend._mult

        def spy(a, b, level):
            if level == n - 1:  # only a product's first call is at the top level
                sizes.append((len(backend._memo_mult), len(backend._memo_add)))
            return mult(a, b, level)

        with mock.patch.object(backend, "_mult", spy):
            backend.composed_mdd(uncancelled(c1, c2))
        assert len(sizes) == len(c1.gates) + len(c2.gates)
        assert set(sizes) == {(0, 0)}


class TestApplyGate:
    """`apply_gate` walks the state DD with a planned block; on a block of one
    gate, dense's product of the gate with the state is its reference."""

    @staticmethod
    def assert_matches_product(g: Gate, prefix: Circuit):
        backend = dd.DDBackend()
        got = backend.apply_gate(dense._gate_block(g), backend.simulate(prefix))
        want = dense.apply_gate(dense.simulate(prefix), g).amps
        np.testing.assert_allclose(backend.dd_to_vector(got).amps, want, rtol=0, atol=1e-12)
        assert dd.node_count(got) == reference_node_count(want)

    @pytest.mark.parametrize("kind", [k for k in GateKind if gate_arity(k) == 1], ids=lambda k: k.value)
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_one_qubit_gates_match_the_product(self, kind, data):
        n = data.draw(st.integers(1, 6))
        prefix = data.draw(circuits_on(n, max_gates=15, power=DD_POWER))
        self.assert_matches_product(draw_gate(data.draw, kind, n, DD_POWER), prefix)

    @pytest.mark.parametrize("adjacent", [True, False], ids=["adjacent", "apart"])
    @pytest.mark.parametrize("first_above", [True, False], ids=["first_above", "first_below"])
    @pytest.mark.parametrize("kind", [k for k in GateKind if gate_arity(k) == 2], ids=lambda k: k.value)
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_two_qubit_gates_match_the_product(self, kind, first_above, adjacent, data):
        gap = 1 if adjacent else data.draw(st.integers(2, 5))
        n = data.draw(st.integers(gap + 1, 6))
        low = data.draw(st.integers(0, n - 1 - gap))
        qubits = (low + gap, low) if first_above else (low, low + gap)
        self.assert_matches_product(Gate(kind, qubits), data.draw(circuits_on(n, max_gates=15, power=DD_POWER)))

    def test_rejects_a_qubit_outside_the_register(self):
        backend = dd.DDBackend()
        with pytest.raises(ValueError):
            backend.apply_gate(dense._gate_block(Gate(GateKind.CX, (0, 3))), backend.simulate(Circuit(3)))

    def test_simulate_builds_no_gate_dds(self):
        backend = dd.DDBackend()
        c = random_circuit(random.Random(53), 6, 80)
        with (
            mock.patch.object(backend, "gate_to_mdd", wraps=backend.gate_to_mdd) as build,
            mock.patch.object(backend, "mult_mv", wraps=backend.mult_mv) as product,
        ):
            v = backend.simulate(c)
        assert build.call_count == 0
        assert product.call_count == 0
        np.testing.assert_allclose(backend.dd_to_vector(v).amps, dense.simulate(c).amps, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("q", [0, 11, 23])
    def test_x_makes_one_node_per_level_from_its_qubit_up(self, q):
        # the zero state has one node per level; x rebuilds q's and those above
        n = 24
        backend = dd.DDBackend()
        v = backend.simulate(Circuit(n, (Gate(GateKind.X, (q,)),)))
        assert len(backend._unique) <= n + (n - q)
        bits = ["0"] * n
        bits[n - 1 - q] = "1"
        assert backend.get_amplitude(v, "".join(bits)) == 1
