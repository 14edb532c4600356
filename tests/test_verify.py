import random

import numpy as np
import pytest

from conftest import bell_circuit, ghz_circuit, random_circuit
from qcdesk.errors import CapacityError, WidthMismatchError
from qcdesk import cli, dense, verify
from qcdesk.ir import Angle, Circuit, Gate, GateKind, adjoint_gate, index_bits, render_circuit
from qcdesk.verify import BackendId, EquivalenceStatus


def _mutate_or_insert(rng: random.Random, c: Circuit) -> Circuit:
    """c with one gate replaced, or with one z, s or cz inserted."""
    n = c.num_qubits
    if rng.random() < 0.5:
        i = rng.randrange(len(c.gates))
        g = c.gates[i]
        kind = GateKind.X if g.kind == GateKind.H else GateKind.H
        return Circuit(n, c.gates[:i] + (Gate(kind, (g.qubits[0],)),) + c.gates[i + 1 :])
    kinds = [GateKind.Z, GateKind.S] + ([GateKind.CZ] if n >= 2 else [])
    kind = rng.choice(kinds)
    qubits = tuple(rng.sample(range(n), 2 if kind == GateKind.CZ else 1))
    pos = rng.randrange(len(c.gates) + 1)
    return Circuit(n, c.gates[:pos] + (Gate(kind, qubits),) + c.gates[pos:])


class TestBackendState:
    @pytest.mark.parametrize("backend", [BackendId.DENSE, BackendId.DD, BackendId.TN])
    def test_bell_agrees(self, backend):
        s = verify.backend_state(bell_circuit(), backend)
        np.testing.assert_allclose(
            s.amps, np.array([1, 0, 0, 1]) / np.sqrt(2), atol=1e-10
        )

    def test_zx_rejected(self):
        with pytest.raises(ValueError):
            verify.backend_state(bell_circuit(), BackendId.ZX)


# |amplitude of 1> = sin(pi / 2^37), about 2.3e-11: above simulate's compact
# threshold, below the dd weight grid (ROADMAP item 1)
TINY_RX = "qubits 1\nrx 1/68719476736 0\n"
DD_GRID = "dd zeroes weights below 5e-11 (ROADMAP item 1)"


def _table_circuits() -> list[Circuit]:
    rng = random.Random(41)
    return [random_circuit(rng, rng.randrange(1, 6), rng.randrange(0, 25)) for _ in range(30)]


def _compact_dump(tmp_path, capsys, text: str, backend: str) -> dict[str, complex]:
    """The lines `simulate --backend <backend>` prints for text, by basis string."""
    path = tmp_path / "c.qcf"
    path.write_text(text)
    assert cli.run(["simulate", "--backend", backend, str(path)]) == 0
    rows = (line.split() for line in capsys.readouterr().out.splitlines())
    return {bits: complex(float(re), float(im)) for bits, re, im in rows}


class TestBackendTables:
    @pytest.mark.parametrize("backend", [b.value for b in verify.STATE])
    def test_simulate_prints_the_dense_line_set(self, tmp_path, capsys, backend):
        for c in _table_circuits():
            want = _compact_dump(tmp_path, capsys, render_circuit(c), "dense")
            got = _compact_dump(tmp_path, capsys, render_circuit(c), backend)
            assert got.keys() == want.keys()
            for bits, a in want.items():
                assert abs(got[bits] - a) <= 1e-9

    @pytest.mark.parametrize(
        "backend",
        [b.value for b in verify.STATE if b != BackendId.DD]
        + [pytest.param("dd", marks=pytest.mark.xfail(strict=True, reason=DD_GRID))],
    )
    def test_tiny_amplitude_is_printed(self, tmp_path, capsys, backend):
        assert _compact_dump(tmp_path, capsys, TINY_RX, backend).keys() == {"0", "1"}

    @pytest.mark.parametrize("backend", list(verify.AMPLITUDE), ids=lambda b: b.value)
    def test_amplitude_matches_state(self, backend):
        for c in _table_circuits():
            amps = verify.STATE[backend](c).amps
            for i, a in enumerate(amps):
                bits = index_bits(i, c.num_qubits)
                assert abs(verify.AMPLITUDE[backend](c, bits) - a) <= 1e-9


class TestCrossCheck:
    def test_bell_passes(self):
        report = verify.cross_check(bell_circuit(), 1e-10)
        assert report.passed
        assert report.max_deviation <= 1e-10

    def test_random_circuits_pass(self):
        rng = random.Random(3)
        for _ in range(15):
            c = random_circuit(rng, rng.randrange(1, 6), rng.randrange(0, 21))
            assert verify.cross_check(c, 1e-8).passed

    def test_capacity_guard(self):
        with pytest.raises(CapacityError):
            verify.cross_check(Circuit(13), 1e-8)


class TestDenseEquivalence:
    def test_identical(self):
        v = verify.check_equivalence(bell_circuit(), bell_circuit(), BackendId.DENSE)
        assert v.status == EquivalenceStatus.EQUIVALENT
        assert v.witness is None

    def test_global_phase_ignored(self):
        # Z X Z X = -identity
        gates = (
            Gate(GateKind.Z, (0,)),
            Gate(GateKind.X, (0,)),
            Gate(GateKind.Z, (0,)),
            Gate(GateKind.X, (0,)),
        )
        v = verify.check_equivalence(Circuit(1, gates), Circuit(1), BackendId.DENSE)
        assert v.status == EquivalenceStatus.EQUIVALENT
        assert v.phase == pytest.approx(-1)

    def test_witness_is_real_counterexample(self):
        c1 = ghz_circuit(3)
        c2 = Circuit(3, c1.gates + (Gate(GateKind.X, (1,)),))
        v = verify.check_equivalence(c1, c2, BackendId.DENSE)
        assert v.status == EquivalenceStatus.NOT_EQUIVALENT
        assert v.witness is not None
        col = int(v.witness, 2)
        u1 = dense.circuit_unitary(c1)[:, col]
        u2 = dense.circuit_unitary(c2)[:, col]
        assert float(np.max(np.abs(u2 - v.phase * u1))) > 1e-9

    def test_width_mismatch(self):
        with pytest.raises(WidthMismatchError):
            verify.check_equivalence(Circuit(1), Circuit(2), BackendId.DENSE)


class TestDdEquivalence:
    def test_hadamard_pair_vs_empty(self):
        c = Circuit(1, (Gate(GateKind.H, (0,)), Gate(GateKind.H, (0,))))
        v = verify.check_equivalence(c, Circuit(1), BackendId.DD)
        assert v.status == EquivalenceStatus.EQUIVALENT
        assert v.method == BackendId.DD

    def test_not_equivalent_carries_witness(self):
        c1 = bell_circuit()
        c2 = Circuit(2, (Gate(GateKind.H, (0,)), Gate(GateKind.CX, (0, 1))))
        v = verify.check_equivalence(c1, c2, BackendId.DD)
        assert v.status == EquivalenceStatus.NOT_EQUIVALENT
        assert v.witness is not None

    def test_witness_has_least_output_fidelity(self):
        # |(U2^dagger U1)[j, j]|^2 is the fidelity of the two outputs on |j>;
        # dd reads the witness off the composed DD, dense off the two unitaries
        rng = random.Random(31)
        for _ in range(40):
            n = rng.randrange(1, 6)
            c1 = random_circuit(rng, n, rng.randrange(4, 25))
            c2 = _mutate_or_insert(rng, c1)
            u = dense.circuit_unitary(c2).conj().T @ dense.circuit_unitary(c1)
            fidelity = np.abs(np.diag(u)) ** 2
            for method in (BackendId.DD, BackendId.DENSE):
                v = verify.check_equivalence(c1, c2, method)
                assert v.status == EquivalenceStatus.NOT_EQUIVALENT
                assert len(v.witness) == n
                assert fidelity[int(v.witness, 2)] == pytest.approx(fidelity.min(), abs=1e-9)

    def test_wide_witness_needs_no_dense_simulation(self, monkeypatch):
        rng = random.Random(5)
        c1 = random_circuit(rng, 11, 24)
        c2 = Circuit(11, c1.gates[:9] + (Gate(GateKind.X, (4,)),) + c1.gates[10:])

        def refuse(*args, **kwargs):
            raise AssertionError("the dd method must not run dense code")

        monkeypatch.setattr(dense, "circuit_unitary", refuse)
        monkeypatch.setattr(dense, "simulate", refuse)
        v = verify.check_equivalence(c1, c2, BackendId.DD)
        monkeypatch.undo()
        assert v.status == EquivalenceStatus.NOT_EQUIVALENT
        basis = int(v.witness, 2)
        s1 = dense.simulate(c1, basis).amps
        s2 = dense.simulate(c2, basis).amps
        assert abs(np.vdot(s1, s2)) ** 2 < 1 - 1e-9

    def test_relative_phase_still_gets_a_basis_witness(self):
        # cz and the empty circuit agree on every basis input up to phase, so
        # no basis state tells them apart; the verdict still names one
        cz = Circuit(2, (Gate(GateKind.CZ, (0, 1)),))
        v = verify.check_equivalence(cz, Circuit(2), BackendId.DD)
        assert v.status == EquivalenceStatus.NOT_EQUIVALENT
        assert len(v.witness) == 2 and set(v.witness) <= {"0", "1"}

    def test_agrees_with_dense_on_random_pairs(self):
        rng = random.Random(7)
        for _ in range(20):
            n = rng.randrange(1, 5)
            c1 = random_circuit(rng, n, rng.randrange(0, 11))
            c2 = random_circuit(rng, n, rng.randrange(0, 11))
            via_dd = verify.check_equivalence(c1, c2, BackendId.DD)
            via_dense = verify.check_equivalence(c1, c2, BackendId.DENSE)
            assert via_dd.status == via_dense.status


class TestZxEquivalence:
    def test_direct_success_without_fallback(self):
        v = verify.check_equivalence(bell_circuit(), bell_circuit(), BackendId.ZX)
        assert v.status == EquivalenceStatus.EQUIVALENT
        assert not v.fallback_used

    def test_fallback_resolves_phase_pair(self):
        # rz then its inverse reduces to a phase-free wire only if fusion fires;
        # circuits the rewriter cannot finish are settled densely instead
        c1 = Circuit(1, (Gate(GateKind.RZ, (0,), Angle(1, 3)),))
        c2 = Circuit(1, (Gate(GateKind.RZ, (0,), Angle(1, 4)),))
        v = verify.check_equivalence(c1, c2, BackendId.ZX)
        assert v.status == EquivalenceStatus.NOT_EQUIVALENT
        assert v.method == BackendId.ZX
        assert v.fallback_used
        assert v.witness is not None

    def test_never_claims_equivalence_wrongly(self):
        rng = random.Random(11)
        for _ in range(20):
            n = rng.randrange(1, 4)
            c1 = random_circuit(rng, n, rng.randrange(1, 9))
            # flip one gate into something different
            i = rng.randrange(len(c1.gates))
            g = c1.gates[i]
            repl = Gate(
                GateKind.X if g.kind != GateKind.X else GateKind.H, (g.qubits[0],)
            )
            c2 = Circuit(n, c1.gates[:i] + (repl,) + c1.gates[i + 1 :])
            dense_v = verify.check_equivalence(c1, c2, BackendId.DENSE)
            zx_v = verify.check_equivalence(c1, c2, BackendId.ZX)
            if dense_v.status == EquivalenceStatus.NOT_EQUIVALENT:
                assert zx_v.status != EquivalenceStatus.EQUIVALENT


class TestVerdictReport:
    def test_equivalent_report(self):
        v = verify.check_equivalence(bell_circuit(), bell_circuit(), BackendId.DENSE)
        assert v.report() == "verdict=equivalent method=dense"

    def test_not_equivalent_report_includes_witness(self):
        c2 = Circuit(2, bell_circuit().gates + (Gate(GateKind.X, (0,)),))
        v = verify.check_equivalence(bell_circuit(), c2, BackendId.DENSE)
        assert v.report().startswith("verdict=not_equivalent method=dense witness=")

    def test_fallback_is_reported(self):
        c1 = Circuit(1, (Gate(GateKind.RZ, (0,), Angle(1, 3)),))
        v = verify.check_equivalence(c1, Circuit(1), BackendId.ZX)
        if v.fallback_used:
            assert v.report().endswith("fallback=dense")


class TestInsertionPairs:
    def test_inverse_padding_is_equivalent_everywhere(self):
        rng = random.Random(13)
        for _ in range(10):
            n = rng.randrange(2, 5)
            base = random_circuit(rng, n, rng.randrange(1, 9))
            g = base.gates[rng.randrange(len(base.gates))]
            pos = rng.randrange(len(base.gates) + 1)
            padded = Circuit(
                n, base.gates[:pos] + (g, adjoint_gate(g)) + base.gates[pos:]
            )
            for method in (BackendId.DENSE, BackendId.DD, BackendId.ZX):
                v = verify.check_equivalence(base, padded, method)
                assert v.status == EquivalenceStatus.EQUIVALENT
