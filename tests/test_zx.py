import itertools
import math
import random
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import H_MAT, bell_circuit, hadamard_edges, random_circuit
from qcdesk.errors import MAX_BYTES, CapacityError, WidthMismatchError
from qcdesk import dense, zx
from qcdesk.ir import Angle, Circuit, Gate, GateKind, adjoint_circuit, miter


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
        assert len(d.edges()) == 5
        assert hadamard_edges(d) == 1
        colors = sorted(d.color[v].value for v in d.spiders())
        assert colors == ["X", "Z"]

    def test_double_hadamard_leaves_bare_wire(self):
        c = Circuit(1, (Gate(GateKind.H, (0,)), Gate(GateKind.H, (0,))))
        d = zx.circuit_to_zx(c)
        assert d.spider_count() == 0
        assert len(d.edges()) == 1
        (u, v, kind), = d.edges()
        assert kind == zx.PLAIN

    def test_single_hadamard_is_tagged_edge(self):
        d = zx.circuit_to_zx(Circuit(1, (Gate(GateKind.H, (0,)),)))
        assert d.spider_count() == 0
        assert hadamard_edges(d) == 1

    def test_cz_gives_hadamard_edge(self):
        d = zx.circuit_to_zx(Circuit(2, (Gate(GateKind.CZ, (0, 1)),)))
        assert d.spider_count() == 2
        assert all(d.color[v] == zx.SpiderColor.Z for v in d.spiders())
        assert hadamard_edges(d) == 1

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

    @pytest.mark.parametrize("bits", ["2x", "0x", "1 "])
    def test_bad_character_rejected(self, bits):
        with pytest.raises(ValueError, match="character"):
            zx.plug_basis_states(zx.circuit_to_zx(bell_circuit()), bits)

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
        assert len(out.edges()) == 1
        (_, _, kind), = out.edges()
        assert kind == zx.PLAIN
        assert steps[0].rule == zx.RewriteRule.HADAMARD_CANCEL

    def test_identity_spider_removed(self):
        d, i, o = wire_diagram()
        v = d.add_spider(zx.SpiderColor.Z, Angle(0))
        d.add_edge(i, v)
        d.add_edge(v, o, zx.HADAMARD)
        out, steps = zx.apply_rewrites(d)
        assert out.spider_count() == 0
        (_, _, kind), = out.edges()
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
        assert d.add_edge(v, v, zx.PLAIN) == zx.RewriteRule.SELF_LOOP_REMOVAL
        out, _ = zx.apply_rewrites(d)
        (w,) = out.spiders()
        assert out.phase[w] == Angle(1, 4)
        assert len(out.edges()) == 2

    def test_hadamard_self_loop_adds_pi(self):
        d, i, o = wire_diagram()
        v = d.add_spider(zx.SpiderColor.Z, Angle(1, 4))
        d.add_edge(i, v)
        d.add_edge(v, o)
        assert d.add_edge(v, v, zx.HADAMARD) == zx.RewriteRule.SELF_LOOP_REMOVAL
        out, _ = zx.apply_rewrites(d)
        (w,) = out.spiders()
        assert out.phase[w] == Angle(1, 4) + Angle(1)

    def test_input_diagram_untouched(self):
        d = zx.to_graph_like(zx.circuit_to_zx(bell_circuit()))
        before = (d.spider_count(), len(d.edges()))
        zx.apply_rewrites(d)
        assert (d.spider_count(), len(d.edges())) == before

    def test_x_spider_rejected(self):
        # colour is handled by to_graph_like alone
        d, i, o = wire_diagram()
        v = d.add_spider(zx.SpiderColor.X, Angle(1))
        d.add_edge(i, v)
        d.add_edge(v, o)
        with pytest.raises(ValueError, match="graph-like"):
            zx.apply_rewrites(d)

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
            budget = 4 * (d.spider_count() + len(d.edges())) + 16
            _, steps = zx.apply_rewrites(d)
            assert len(steps) < budget


def multigraph_tensor(d: zx.ZXDiagram, edge_list: list[tuple[int, int, str]]) -> np.ndarray:
    """The tensor of d's spiders, read before any edge is added, wired by an
    explicit edge list, loops and parallel edges included, as one einsum: each
    edge is a 2x2 matrix (identity or H) between two legs of its own; indices
    boundary_out then boundary_in."""
    letters = iter("abcdefghijklmnopqrstuvwxyz")
    legs: dict[int, list[str]] = {v: [] for v in d.nbrs}
    specs, operands = [], []
    for u, v, kind in edge_list:
        a, b = next(letters), next(letters)
        legs[u].append(a)
        legs[v].append(b)
        specs.append(a + b)
        operands.append(H_MAT if kind == zx.HADAMARD else np.eye(2))
    for v in d.spiders():
        # Z: |0..0> + e^{ia}|1..1>; X: |+..+> + e^{ia}|-..->
        zero, one = np.eye(2) if d.color[v] == zx.SpiderColor.Z else H_MAT
        k = len(legs[v])
        specs.append("".join(legs[v]))
        operands.append(
            reduce(np.multiply.outer, [zero] * k)
            + np.exp(1j * d.phase[v].radians) * reduce(np.multiply.outer, [one] * k)
        )
    out = "".join(legs[b][0] for b in d.boundary_out + d.boundary_in)
    return np.einsum(",".join(specs) + "->" + out, *operands)


class TestEdgeResolution:
    def test_every_loop_and_parallel_edge_keeps_the_multigraph_tensor(self):
        # in -> u -> v -> out, then a second u-v edge or a u-u loop, in all
        # 32 colour x kind cases; the Z frame toggles a kind once per X end
        Z, X = zx.SpiderColor.Z, zx.SpiderColor.X
        P, H = zx.PLAIN, zx.HADAMARD
        R = zx.RewriteRule
        for loop, cu, cv, k1, k2 in itertools.product((False, True), (Z, X), (Z, X), (P, H), (P, H)):
            d, i, o = wire_diagram()
            u = d.add_spider(cu, Angle(1, 4))
            v = d.add_spider(cv, Angle(1, 3))
            edge_list = [(i, u, P), (u, v, k1), (v, o, P), (u, u if loop else v, k2)]
            want = multigraph_tensor(d, edge_list)
            rules = [d.add_edge(*e) for e in edge_list]
            cancel = not loop and k1 == k2 == (H if cu == cv else P)
            assert rules == [None, None, None, R.HADAMARD_CANCEL if cancel else R.SELF_LOOP_REMOVAL]
            assert len(d.edges()) == (2 if cancel else 3)
            assert_proportional(zx.zx_to_tensor(d).data, want)

    def test_second_edge_at_a_boundary_raises(self):
        d, i, o = wire_diagram()
        v = d.add_spider(zx.SpiderColor.Z)
        d.add_edge(i, v)
        with pytest.raises(ValueError, match="boundary"):
            d.add_edge(v, i, zx.HADAMARD)
        with pytest.raises(ValueError, match="boundary"):
            d.add_edge(o, o)


def rules_at_every_state(g: zx.ZXDiagram) -> set[zx.RewriteRule]:
    """Walk the engine's path from g; at each state try every rule on a copy and
    assert that each one that fires keeps the tensor up to a nonzero scalar and
    lowers spider_count() + len(edges()), which is why apply_rewrites ends."""
    fired = set()
    while True:
        before = zx.zx_to_tensor(g).data
        count = g.spider_count() + len(g.edges())
        nxt = None
        for rule in zx._RULES:
            h = g.copy()
            steps = rule(h)
            if steps:
                assert_proportional(zx.zx_to_tensor(h).data, before)
                assert h.spider_count() + len(h.edges()) < count
                fired.update(s.rule for s in steps)
                nxt = nxt or h
        if nxt is None:
            return fired
        g = nxt


class TestRuleSoundness:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 5), mirrored=st.booleans())
    def test_every_rule_keeps_the_tensor_at_every_reached_state(self, seed, n, mirrored):
        # mirrored: c followed by its inverse, the composition equivalent_zx rewrites
        rng = random.Random(seed)
        c = random_circuit(rng, n, rng.randrange(0, 7))
        if mirrored:
            c = Circuit(n, c.gates + adjoint_circuit(c).gates)
        rules_at_every_state(zx.to_graph_like(zx.circuit_to_zx(c)))

    def test_fusion_closing_a_triangle_leaves_a_hadamard_self_loop(self):
        # a -H- v -H- b and a -H- b: cancelling v adds a plain a-b edge beside
        # the hadamard one, which add_edge resolves as the hadamard self-loop
        # that fusing a and b would leave on a
        d, i, o = wire_diagram()
        a = d.add_spider(zx.SpiderColor.Z, Angle(1, 4))
        b = d.add_spider(zx.SpiderColor.Z, Angle(1, 4))
        v = d.add_spider(zx.SpiderColor.Z, Angle(0))
        d.add_edge(i, a)
        d.add_edge(b, o)
        d.add_edge(a, v, zx.HADAMARD)
        d.add_edge(v, b, zx.HADAMARD)
        d.add_edge(a, b, zx.HADAMARD)
        R = zx.RewriteRule
        assert rules_at_every_state(d) == {R.HADAMARD_CANCEL, R.FUSION, R.SELF_LOOP_REMOVAL}


class TestGraphLike:
    def test_bell_shape(self):
        g = zx.to_graph_like(zx.circuit_to_zx(bell_circuit()))
        assert all(g.color[v] == zx.SpiderColor.Z for v in g.spiders())
        assert g.spider_count() == 2
        assert len(g.edges()) == 5
        assert hadamard_edges(g) == 4
        # the control spider keeps its plain wire to the top output
        plain_edges = [e for e in g.edges() if e[2] == zx.PLAIN]
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
        assert hadamard_edges(g) == 2

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
        assert hadamard_edges(g) == 1

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
        assert not any(u == v for u, v, _ in g.edges())
        assert [k for u, v, k in g.edges() if {u, v} == {a, b}] == [zx.HADAMARD]
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
        # bare wires: the result alone, 16 bytes times 4^n, is past the budget
        n = next(n for n in range(32) if 16 * 4**n > MAX_BYTES)
        with pytest.raises(CapacityError):
            zx.zx_to_tensor(zx.circuit_to_zx(Circuit(n)))


class TestEquivalence:
    def test_circuit_vs_itself(self):
        c = bell_circuit()
        res = zx.equivalent_zx(miter(c, c))
        assert res.verdict == zx.ZXVerdict.EQUIVALENT
        assert res.spiders_after == 0

    def test_double_hadamard_vs_empty(self):
        c = Circuit(1, (Gate(GateKind.H, (0,)), Gate(GateKind.H, (0,))))
        assert zx.equivalent_zx(miter(c, Circuit(1))).verdict == zx.ZXVerdict.EQUIVALENT

    def test_cx_pair_vs_empty(self):
        g = Gate(GateKind.CX, (1, 0))
        c = Circuit(2, (g, g))
        assert zx.equivalent_zx(miter(c, Circuit(2))).verdict == zx.ZXVerdict.EQUIVALENT

    def test_different_circuits_inconclusive(self):
        c1 = Circuit(1, (Gate(GateKind.X, (0,)),))
        res = zx.equivalent_zx(miter(c1, Circuit(1)))
        assert res.verdict == zx.ZXVerdict.INCONCLUSIVE

    def test_width_mismatch(self):
        with pytest.raises(WidthMismatchError):
            zx.equivalent_zx(miter(Circuit(1), Circuit(2)))

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
            res = zx.equivalent_zx(miter(base, padded))
            assert res.verdict == zx.ZXVerdict.EQUIVALENT

    def test_stats_format(self):
        res = zx.equivalent_zx(miter(bell_circuit(), Circuit(2)))
        line = zx.stats(bell_circuit())
        assert line == (
            f"spiders_before={res.spiders_before} "
            f"spiders_after={res.spiders_after} steps={res.steps}"
        )

    def test_stats_lines_are_pinned(self):
        # steps= counts each add_edge resolution as a step, so it equals the
        # count of an engine that rewrites loops and parallel edges one step
        # at a time; these lines were taken from such an engine
        rng = random.Random(41)
        got = []
        for k in range(20):
            n = rng.randrange(2, 7)
            c = random_circuit(rng, n, rng.randrange(10, 40))
            if k % 2:
                c = Circuit(n, c.gates + adjoint_circuit(c).gates)
            got.append(zx.stats(c))
        assert got == PINNED_STATS


PINNED_STATS = [
    "spiders_before=22 spiders_after=15 steps=7",
    "spiders_before=74 spiders_after=0 steps=80",
    "spiders_before=16 spiders_after=9 steps=7",
    "spiders_before=86 spiders_after=0 steps=88",
    "spiders_before=31 spiders_after=16 steps=15",
    "spiders_before=60 spiders_after=0 steps=65",
    "spiders_before=35 spiders_after=17 steps=18",
    "spiders_before=26 spiders_after=0 steps=26",
    "spiders_before=48 spiders_after=25 steps=23",
    "spiders_before=26 spiders_after=0 steps=27",
    "spiders_before=27 spiders_after=18 steps=9",
    "spiders_before=60 spiders_after=0 steps=65",
    "spiders_before=17 spiders_after=7 steps=11",
    "spiders_before=42 spiders_after=0 steps=43",
    "spiders_before=19 spiders_after=8 steps=11",
    "spiders_before=90 spiders_after=0 steps=96",
    "spiders_before=46 spiders_after=20 steps=26",
    "spiders_before=48 spiders_after=0 steps=51",
    "spiders_before=25 spiders_after=13 steps=12",
    "spiders_before=56 spiders_after=0 steps=59",
]
