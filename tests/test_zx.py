import math
import random

import numpy as np
import pytest

from conftest import bell_circuit, random_circuit
from qcdesk.errors import CapacityError, WidthMismatchError
from qcdesk import dense, zx
from qcdesk.ir import Angle, Circuit, Gate, GateKind

H_MAT = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)


def assert_proportional(a: np.ndarray, b: np.ndarray, atol: float = 1e-9):
    """Assert a == lambda * b for some nonzero scalar lambda."""
    a = np.asarray(a).reshape(-1)
    b = np.asarray(b).reshape(-1)
    k = int(np.argmax(np.abs(b)))
    assert abs(b[k]) > atol
    lam = a[k] / b[k]
    assert abs(lam) > atol
    np.testing.assert_allclose(a, lam * b, atol=atol)


def wire_diagram() -> tuple[zx.ZXDiagram, int, int]:
    """One input, one output, no spiders yet; returns (diagram, in, out)."""
    d = zx.ZXDiagram()
    i = d.add_boundary("in")
    o = d.add_boundary("out")
    return d, i, o


class TestCircuitToZx:
    def test_bell_gadget(self):
        d = zx.circuit_to_zx(bell_circuit())
        assert d.spider_count() == 2
        assert len(d.edges) == 5
        assert d.hadamard_edge_count() == 1
        colors = sorted(d.color[v].value for v in d.spiders())
        assert colors == ["X", "Z"]

    def test_double_hadamard_leaves_bare_wire(self):
        c = Circuit(1, (Gate(GateKind.H, (0,)), Gate(GateKind.H, (0,))))
        d = zx.circuit_to_zx(c)
        assert d.spider_count() == 0
        assert len(d.edges) == 1
        (u, v, kind), = d.edges.values()
        assert kind == zx.PLAIN

    def test_single_hadamard_is_tagged_edge(self):
        d = zx.circuit_to_zx(Circuit(1, (Gate(GateKind.H, (0,)),)))
        assert d.spider_count() == 0
        assert d.hadamard_edge_count() == 1

    def test_cz_gives_hadamard_edge(self):
        d = zx.circuit_to_zx(Circuit(2, (Gate(GateKind.CZ, (0, 1)),)))
        assert d.spider_count() == 2
        assert all(d.color[v] == zx.SpiderColor.Z for v in d.spiders())
        assert d.hadamard_edge_count() == 1

    def test_boundary_counts(self):
        d = zx.circuit_to_zx(Circuit(3))
        assert len(d.boundary_in) == 3
        assert len(d.boundary_out) == 3


class TestPlugBasisStates:
    def test_inputs_become_state_spiders(self):
        d = zx.plug_basis_states(zx.circuit_to_zx(bell_circuit()), "01")
        assert d.boundary_in == []
        assert d.spider_count() == 4
        phases = sorted(
            str(d.phase[v]) for v in d.spiders() if d.color[v] == zx.SpiderColor.X
        )
        # one input plugged with |0> (phase 0), one with |1> (phase pi),
        # plus the CNOT's phase-free X spider
        assert phases == ["0", "0", "1"]

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            zx.plug_basis_states(zx.circuit_to_zx(bell_circuit()), "0")

    def test_plugged_bell_tensor(self):
        d = zx.plug_basis_states(zx.circuit_to_zx(bell_circuit()), "00")
        t = zx.zx_to_tensor(d)
        assert_proportional(t.data, np.array([1, 0, 0, 1]))


class TestRewrites:
    def test_fusion_adds_phases(self):
        d, i, o = wire_diagram()
        a = d.add_spider(zx.SpiderColor.Z, Angle(1, 4))
        b = d.add_spider(zx.SpiderColor.Z, Angle(1, 4))
        d.add_edge(i, a)
        d.add_edge(a, b)
        d.add_edge(b, o)
        out, steps = zx.apply_rewrites(d)
        assert out.spider_count() == 1
        (v,) = out.spiders()
        assert out.phase[v] == Angle(1, 2)
        assert any(s.rule == zx.RewriteRule.FUSION for s in steps)

    def test_hadamard_pair_cancels_through_spider(self):
        d, i, o = wire_diagram()
        v = d.add_spider(zx.SpiderColor.Z, Angle(0))
        d.add_edge(i, v, zx.HADAMARD)
        d.add_edge(v, o, zx.HADAMARD)
        out, steps = zx.apply_rewrites(d)
        assert out.spider_count() == 0
        assert len(out.edges) == 1
        (_, _, kind), = out.edges.values()
        assert kind == zx.PLAIN
        assert steps[0].rule == zx.RewriteRule.HADAMARD_CANCEL

    def test_identity_spider_removed(self):
        d, i, o = wire_diagram()
        v = d.add_spider(zx.SpiderColor.Z, Angle(0))
        d.add_edge(i, v)
        d.add_edge(v, o, zx.HADAMARD)
        out, steps = zx.apply_rewrites(d)
        assert out.spider_count() == 0
        (_, _, kind), = out.edges.values()
        assert kind == zx.HADAMARD
        assert steps[0].rule == zx.RewriteRule.IDENTITY_REMOVAL

    def test_phase_spider_survives(self):
        d, i, o = wire_diagram()
        v = d.add_spider(zx.SpiderColor.Z, Angle(1, 4))
        d.add_edge(i, v)
        d.add_edge(v, o)
        out, _ = zx.apply_rewrites(d)
        assert out.spider_count() == 1

    def test_plain_self_loop_dropped(self):
        d, i, o = wire_diagram()
        v = d.add_spider(zx.SpiderColor.Z, Angle(1, 4))
        d.add_edge(i, v)
        d.add_edge(v, o)
        d.add_edge(v, v, zx.PLAIN)
        out, steps = zx.apply_rewrites(d)
        (w,) = out.spiders()
        assert out.phase[w] == Angle(1, 4)
        assert any(s.rule == zx.RewriteRule.SELF_LOOP_REMOVAL for s in steps)

    def test_hadamard_self_loop_adds_pi(self):
        d, i, o = wire_diagram()
        v = d.add_spider(zx.SpiderColor.Z, Angle(1, 4))
        d.add_edge(i, v)
        d.add_edge(v, o)
        d.add_edge(v, v, zx.HADAMARD)
        out, _ = zx.apply_rewrites(d)
        (w,) = out.spiders()
        assert out.phase[w] == Angle(1, 4) + Angle(1)

    def test_input_diagram_untouched(self):
        d = zx.circuit_to_zx(bell_circuit())
        before = (d.spider_count(), len(d.edges))
        zx.apply_rewrites(d)
        assert (d.spider_count(), len(d.edges)) == before

    def test_rewrites_preserve_semantics_up_to_scalar(self):
        rng = random.Random(17)
        for _ in range(15):
            c = random_circuit(rng, rng.randrange(1, 4), rng.randrange(0, 9))
            d = zx.to_graph_like(zx.circuit_to_zx(c))
            out, _ = zx.apply_rewrites(d)
            assert_proportional(
                zx.zx_to_tensor(out).data, zx.zx_to_tensor(d).data
            )

    def test_terminates_within_budget(self):
        rng = random.Random(19)
        for _ in range(15):
            c = random_circuit(rng, rng.randrange(1, 5), rng.randrange(0, 15))
            d = zx.to_graph_like(zx.circuit_to_zx(c))
            budget = 4 * (d.spider_count() + len(d.edges)) + 16
            _, steps = zx.apply_rewrites(d)
            assert len(steps) < budget


class TestGraphLike:
    def test_bell_shape(self):
        g = zx.to_graph_like(zx.circuit_to_zx(bell_circuit()))
        assert all(g.color[v] == zx.SpiderColor.Z for v in g.spiders())
        assert g.spider_count() == 2
        assert len(g.edges) == 5
        assert g.hadamard_edge_count() == 4
        # the control spider keeps its plain wire to the top output
        plain_edges = [e for e in g.edges.values() if e[2] == zx.PLAIN]
        (u, v, _), = plain_edges
        assert g.boundary_out[0] in (u, v)

    def test_single_x_spider_flips(self):
        d, i, o = wire_diagram()
        v = d.add_spider(zx.SpiderColor.X, Angle(1))
        d.add_edge(i, v)
        d.add_edge(v, o)
        g = zx.to_graph_like(d)
        (w,) = g.spiders()
        assert g.color[w] == zx.SpiderColor.Z
        assert g.hadamard_edge_count() == 2

    def test_parallel_hadamard_edges_cancel(self):
        d, i, o = wire_diagram()
        a = d.add_spider(zx.SpiderColor.Z, Angle(0))
        b = d.add_spider(zx.SpiderColor.Z, Angle(0))
        d.add_edge(i, a)
        d.add_edge(b, o)
        d.add_edge(a, b, zx.HADAMARD)
        d.add_edge(a, b, zx.HADAMARD)
        d.add_edge(a, b, zx.HADAMARD)
        g = zx.to_graph_like(d)
        assert g.hadamard_edge_count() == 1

    def test_self_loops_and_parallel_hadamards_on_x_spiders(self):
        d, i, o = wire_diagram()
        a = d.add_spider(zx.SpiderColor.X, Angle(1, 4))
        b = d.add_spider(zx.SpiderColor.X, Angle(0))
        d.add_edge(i, a)
        d.add_edge(b, o)
        d.add_edge(a, a)
        d.add_edge(a, a, zx.HADAMARD)
        for _ in range(3):
            d.add_edge(a, b, zx.HADAMARD)
        g = zx.to_graph_like(d)
        assert g.phase[a] == Angle(1, 4) + Angle(1)  # pi added exactly once
        assert g.phase[b] == Angle(0)
        assert not any(u == v for u, v, _ in g.edges.values())
        assert [k for u, v, k in g.edges.values() if {u, v} == {a, b}] == [zx.HADAMARD]
        assert_proportional(zx.zx_to_tensor(g).data, zx.zx_to_tensor(d).data)
        _, steps = zx.apply_rewrites(g)
        assert zx.RewriteRule.SELF_LOOP_REMOVAL not in {s.rule for s in steps}

    def test_preserves_semantics_up_to_scalar(self):
        rng = random.Random(23)
        for _ in range(10):
            c = random_circuit(rng, rng.randrange(1, 4), rng.randrange(0, 9))
            d = zx.circuit_to_zx(c)
            assert_proportional(
                zx.zx_to_tensor(zx.to_graph_like(d)).data, zx.zx_to_tensor(d).data
            )


class TestTensorSemantics:
    def test_phase_free_arity_two_z_is_identity(self):
        d, i, o = wire_diagram()
        v = d.add_spider(zx.SpiderColor.Z, Angle(0))
        d.add_edge(i, v)
        d.add_edge(v, o)
        t = zx.zx_to_tensor(d)
        np.testing.assert_allclose(t.data, np.eye(2), atol=1e-12)

    def test_z_phase_spider_matrix(self):
        d, i, o = wire_diagram()
        v = d.add_spider(zx.SpiderColor.Z, Angle(1, 2))
        d.add_edge(i, v)
        d.add_edge(v, o)
        t = zx.zx_to_tensor(d)
        np.testing.assert_allclose(t.data, np.diag([1, 1j]), atol=1e-12)

    def test_euler_decomposition_of_hadamard(self):
        c = Circuit(
            1,
            (
                Gate(GateKind.S, (0,)),
                Gate(GateKind.RX, (0,), Angle(1, 2)),
                Gate(GateKind.S, (0,)),
            ),
        )
        t = zx.zx_to_tensor(zx.circuit_to_zx(c))
        assert_proportional(t.data, H_MAT)
        lam = t.data[0, 0] * math.sqrt(2)
        assert abs(lam) == pytest.approx(1.0, abs=1e-9)

    def test_bare_hadamard_wire(self):
        d = zx.circuit_to_zx(Circuit(1, (Gate(GateKind.H, (0,)),)))
        np.testing.assert_allclose(zx.zx_to_tensor(d).data, H_MAT, atol=1e-12)

    def test_matches_dense_unitary_up_to_scalar(self):
        rng = random.Random(29)
        for _ in range(15):
            n = rng.randrange(1, 4)
            c = random_circuit(rng, n, rng.randrange(0, 11))
            t = zx.zx_to_tensor(zx.circuit_to_zx(c))
            u = dense.circuit_unitary(c)
            assert_proportional(t.data.reshape(2**n, 2**n), u)

    def test_only_connectivity_matters(self):
        # same wiring built in two different construction orders
        d1, i1, o1 = wire_diagram()
        a = d1.add_spider(zx.SpiderColor.Z, Angle(1, 4))
        d1.add_edge(i1, a)
        d1.add_edge(a, o1, zx.HADAMARD)

        d2 = zx.ZXDiagram()
        b = d2.add_spider(zx.SpiderColor.Z, Angle(1, 4))
        i2 = d2.add_boundary("in")
        o2 = d2.add_boundary("out")
        d2.add_edge(b, o2, zx.HADAMARD)
        d2.add_edge(b, i2)
        np.testing.assert_allclose(
            zx.zx_to_tensor(d1).data, zx.zx_to_tensor(d2).data, atol=1e-12
        )

    def test_capacity_guard(self):
        with pytest.raises(CapacityError):
            zx.zx_to_tensor(zx.circuit_to_zx(Circuit(7)))


class TestEquivalence:
    def test_circuit_vs_itself(self):
        c = bell_circuit()
        res = zx.equivalent_zx(c, c)
        assert res.verdict == zx.ZXVerdict.EQUIVALENT
        assert res.spiders_after == 0

    def test_double_hadamard_vs_empty(self):
        c = Circuit(1, (Gate(GateKind.H, (0,)), Gate(GateKind.H, (0,))))
        assert zx.equivalent_zx(c, Circuit(1)).verdict == zx.ZXVerdict.EQUIVALENT

    def test_cx_pair_vs_empty(self):
        g = Gate(GateKind.CX, (1, 0))
        c = Circuit(2, (g, g))
        assert zx.equivalent_zx(c, Circuit(2)).verdict == zx.ZXVerdict.EQUIVALENT

    def test_different_circuits_inconclusive(self):
        c1 = Circuit(1, (Gate(GateKind.X, (0,)),))
        res = zx.equivalent_zx(c1, Circuit(1))
        assert res.verdict == zx.ZXVerdict.INCONCLUSIVE

    def test_width_mismatch(self):
        with pytest.raises(WidthMismatchError):
            zx.equivalent_zx(Circuit(1), Circuit(2))

    def test_gate_inverse_insertions(self):
        rng = random.Random(31)
        for _ in range(20):
            n = rng.randrange(2, 5)
            base = random_circuit(rng, n, rng.randrange(1, 9))
            pos = rng.randrange(len(base.gates) + 1)
            from qcdesk.ir import adjoint_gate

            g = base.gates[rng.randrange(len(base.gates))]
            padded = Circuit(
                n,
                base.gates[:pos] + (g, adjoint_gate(g)) + base.gates[pos:],
            )
            res = zx.equivalent_zx(base, padded)
            assert res.verdict == zx.ZXVerdict.EQUIVALENT

    def test_stats_format(self):
        res = zx.equivalent_zx(bell_circuit(), Circuit(2))
        line = zx.stats(bell_circuit())
        assert line == (
            f"spiders_before={res.spiders_before} "
            f"spiders_after={res.spiders_after} steps={res.steps}"
        )
