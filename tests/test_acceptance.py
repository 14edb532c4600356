"""End-to-end acceptance checks, one test per criterion.

Each test prints a single `[PASS]`/`[FAIL]` line (visible with `pytest -s`)
in addition to the usual pytest outcome.
"""
import functools
import itertools
import random
import time

import numpy as np
import pytest

from conftest import (
    BELL_AMPS, H_MAT, INV_SQRT2, all_plans, bell_circuit, ghz_circuit, hadamard_edges, mutate_one_gate,
    random_circuit, reference_node_count,
)
from qcdesk import dd, dense, tn, verify, zx
from qcdesk.ir import Angle, Circuit, Gate, GateKind, adjoint_gate, miter
from qcdesk.verify import BackendId, EquivalenceStatus


def _report(label):
    """Decorator printing one pass/fail line per criterion."""

    def wrap(fn):
        @functools.wraps(fn)  # pytest reads fn's fixtures through __wrapped__
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[FAIL] {label}")
                raise
            print(f"[PASS] {label}")

        return run

    return wrap


@_report("1 bell amplitudes agree across dense/dd/tn within 1e-10 in under 1s")
def test_criterion_1_bell_amplitudes():
    start = time.perf_counter()
    for backend in (BackendId.DENSE, BackendId.DD, BackendId.TN):
        s = verify.backend_state(bell_circuit(), backend)
        np.testing.assert_allclose(s.amps, BELL_AMPS, atol=1e-10)
    assert time.perf_counter() - start < 1.0


@_report("2 bell measurement probabilities and seeded sampling")
def test_criterion_2_measurement():
    s = dense.simulate(bell_circuit())
    probs = dense.measure_probabilities(s)
    np.testing.assert_allclose(probs, [0.5, 0, 0, 0.5], atol=1e-10)
    counts = dense.sample(s, 10_000, seed=2024)
    assert set(counts) <= {"00", "11"}
    for key in ("00", "11"):
        assert 4850 <= counts[key] <= 5150


@_report("3 decision diagram structure: bell shape and ghz node-count oracle")
def test_criterion_3_dd_structure():
    bell_dd = dd.DDBackend().simulate(bell_circuit())
    assert dd.node_count(bell_dd) == 3
    assert bell_dd.root.w == pytest.approx(INV_SQRT2, abs=1e-10)
    # the all-zeros amplitude is the bare product of edge weights on its path
    assert dd.DDBackend().get_amplitude(bell_dd, "00") == pytest.approx(INV_SQRT2, abs=1e-10)
    for n in range(2, 9):
        d = dd.DDBackend().simulate(ghz_circuit(n))
        expected = reference_node_count(dense.simulate(ghz_circuit(n)).amps)
        assert dd.node_count(d) == expected


@_report("4 pairwise contraction matches a triple-loop oracle within 1e-12")
def test_criterion_4_tensor_contraction():
    rng = np.random.default_rng(4)
    for _ in range(50):
        dim = int(rng.choice([2, 4]))
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        b = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        expected = np.zeros((dim, dim), dtype=complex)
        for i in range(dim):
            for j in range(dim):
                for k in range(dim):
                    expected[i, j] += a[i, k] * b[k, j]
        if dim == 2:
            ta = tn.Tensor(["i", "k"], a)
            tb = tn.Tensor(["k", "j"], b)
        else:
            ta = tn.Tensor(["i1", "i2", "k1", "k2"], a.reshape(2, 2, 2, 2))
            tb = tn.Tensor(["k1", "k2", "j1", "j2"], b.reshape(2, 2, 2, 2))
        out = tn.contract_pair(ta, tb)
        np.testing.assert_allclose(out.data.reshape(dim, dim), expected, atol=1e-12)
    # the bell network contracts to the bell state
    net = tn.circuit_to_network(bell_circuit())
    result = tn.execute_plan(net, tn.greedy_plan(net))
    np.testing.assert_allclose(result.data.reshape(-1), BELL_AMPS, atol=1e-10)


@_report("5 zx fixtures: plugged-bell rewrite chain, graph-like shape, euler H")
def test_criterion_5_zx_fixtures():
    # chain: plug |00> into the bell diagram, rewrite down to a bare cup
    plugged = zx.plug_basis_states(zx.circuit_to_zx(bell_circuit()), "00")
    assert plugged.spider_count() == 4
    reduced, steps = zx.apply_rewrites(zx.to_graph_like(plugged))
    assert any(s.rule == zx.RewriteRule.FUSION for s in steps)
    assert reduced.spider_count() == 0
    assert len(reduced.edges()) == 1
    (u, v, kind), = reduced.edges()
    assert kind == zx.PLAIN
    assert {u, v} == set(reduced.boundary_out)
    t = zx.zx_to_tensor(plugged)
    scale = t.data.reshape(-1)[0]
    np.testing.assert_allclose(
        t.data.reshape(-1) / scale, [1, 0, 0, 1], atol=1e-9
    )
    # graph-like bell: two Z spiders, four hadamard edges, one plain wire
    g = zx.to_graph_like(zx.circuit_to_zx(bell_circuit()))
    assert g.spider_count() == 2
    assert all(g.color[s] == zx.SpiderColor.Z for s in g.spiders())
    assert hadamard_edges(g) == 4
    # Z(pi/2) X(pi/2) Z(pi/2) has H as its tensor, up to global phase
    c = Circuit(
        1,
        (
            Gate(GateKind.RZ, (0,), Angle(1, 2)),
            Gate(GateKind.RX, (0,), Angle(1, 2)),
            Gate(GateKind.RZ, (0,), Angle(1, 2)),
        ),
    )
    mat = zx.zx_to_tensor(zx.circuit_to_zx(c)).data
    phase = mat[0, 0] / H_MAT[0, 0]
    assert abs(abs(phase) - 1) < 1e-9
    np.testing.assert_allclose(mat, phase * H_MAT, atol=1e-9)


@_report("6 differential suite: 200 random circuits agree across backends")
def test_criterion_6_differential(differential_corpus):
    # every pair of STATE backends, zx tensors up to n = 4, and cross_check's
    # own deviation on the first 15 circuits
    start = time.perf_counter()
    for k, (c, states) in enumerate(differential_corpus):
        deviation = max(float(np.max(np.abs(a - b))) for a, b in itertools.combinations(states.values(), 2))
        assert deviation <= 1e-9
        if k < 15:
            assert verify.cross_check(c, 1e-9) == verify.CrossCheckReport(deviation, 1e-9, True)
        if c.num_qubits <= 4:
            u = dense.circuit_unitary(c)
            t = zx.zx_to_tensor(zx.circuit_to_zx(c)).data.reshape(u.shape)
            top = np.unravel_index(np.argmax(np.abs(u)), u.shape)
            scale = t[top] / u[top]
            assert abs(scale) > 1e-9
            assert float(np.max(np.abs(t - scale * u))) <= 1e-9
    assert time.perf_counter() - start < 120.0


@_report("7 equivalence: inverse insertions accepted, mutations rejected")
def test_criterion_7_equivalence():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randrange(2, 6)
        base = random_circuit(rng, n, rng.randrange(1, 13))
        g = base.gates[rng.randrange(len(base.gates))]
        pos = rng.randrange(len(base.gates) + 1)
        padded = Circuit(
            n, base.gates[:pos] + (g, adjoint_gate(g)) + base.gates[pos:]
        )
        dd_verdict = verify.check_equivalence(base, padded, BackendId.DD)
        assert dd_verdict.status == EquivalenceStatus.EQUIVALENT
        zx_result = zx.equivalent_zx(miter(base, padded))
        assert zx_result.verdict == zx.ZXVerdict.EQUIVALENT
    for _ in range(50):
        n = rng.randrange(2, 6)
        base = random_circuit(rng, n, rng.randrange(1, 13))
        mutated = mutate_one_gate(rng, base)
        dense_verdict = verify.check_equivalence(base, mutated, BackendId.DENSE)
        assert dense_verdict.status == EquivalenceStatus.NOT_EQUIVALENT
        dd_verdict = verify.check_equivalence(base, mutated, BackendId.DD)
        assert dd_verdict.status == EquivalenceStatus.NOT_EQUIVALENT
        assert zx.equivalent_zx(miter(base, mutated)).verdict != zx.ZXVerdict.EQUIVALENT
        # the reported witness is a basis input the circuits truly disagree on
        witness = dense_verdict.witness
        assert witness is not None
        col = int(witness, 2)
        u1 = dense.circuit_unitary(base)[:, col]
        u2 = dense.circuit_unitary(mutated)[:, col]
        assert float(np.max(np.abs(u2 - dense_verdict.phase * u1))) > 1e-9


@_report("8 plan quality: greedy within 2x optimal, results plan-independent")
def test_criterion_8_plan_quality():
    rng = random.Random(8)
    circuits = [bell_circuit(), ghz_circuit(2), ghz_circuit(3), Circuit(1)]
    while len(circuits) < 20:
        n = rng.randrange(1, 4)
        circuits.append(random_circuit(rng, n, rng.randrange(0, 8 - n)))
    for c in circuits:
        net = tn.circuit_to_network(c)
        assert len(net.tensors) <= 8
        greedy = tn.greedy_plan(net)
        optimal = tn.exhaustive_optimal_plan(net)
        greedy_flops, _ = tn.plan_cost(net, greedy)
        optimal_flops, _ = tn.plan_cost(net, optimal)
        assert greedy_flops <= 2 * max(optimal_flops, 1)
        reference = tn.execute_plan(net, greedy).data
        for steps in itertools.islice(all_plans(len(net.tensors)), 3):
            other = tn.execute_plan(net, tn.ContractionPlan(list(steps))).data
            np.testing.assert_allclose(other, reference, atol=1e-10)
