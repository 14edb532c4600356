import contextlib
import io
import random
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import BELL_AMPS, bell_circuit, ghz_circuit, mutate_one_gate, random_circuit, traced_peak, uncancelled
from qcdesk.errors import MAX_BYTES, CapacityError, WidthMismatchError
from qcdesk import cli, dd, dense, verify
from qcdesk.ir import (
    Angle,
    Circuit,
    Gate,
    GateKind,
    Miter,
    adjoint_circuit,
    adjoint_gate,
    index_bits,
    miter,
    parse_circuit,
    render_circuit,
)
from qcdesk.verify import BackendId, EquivalenceStatus


def _mutate_or_insert(rng: random.Random, c: Circuit) -> Circuit:
    """c with one gate replaced, or with one z, s or cz inserted."""
    if rng.random() < 0.5:
        return mutate_one_gate(rng, c)
    return _insert_one(rng, c, (GateKind.Z, GateKind.S, GateKind.CZ))


def _insert_one(rng: random.Random, c: Circuit, kinds: tuple[GateKind, ...]) -> Circuit:
    """c with one gate of a kind drawn from kinds (cz only on 2+ qubits) inserted."""
    n = c.num_qubits
    kind = rng.choice([k for k in kinds if k != GateKind.CZ or n >= 2])
    qubits = tuple(rng.sample(range(n), 2 if kind == GateKind.CZ else 1))
    pos = rng.randrange(len(c.gates) + 1)
    return Circuit(n, c.gates[:pos] + (Gate(kind, qubits),) + c.gates[pos:])


def _rewritten(c: Circuit) -> Circuit:
    """c with gates replaced by sequences equal to them up to global phase."""

    def rewrite(g: Gate) -> tuple[Gate, ...]:
        q = g.qubits
        if g.kind == GateKind.SWAP:
            a, b = q
            return (Gate(GateKind.CX, (a, b)), Gate(GateKind.CX, (b, a)), Gate(GateKind.CX, (a, b)))
        if g.kind == GateKind.CZ:
            a, b = q
            h = Gate(GateKind.H, (b,))
            return (h, Gate(GateKind.CX, (a, b)), h)
        if g.kind == GateKind.Y:  # Z X = i Y
            return (Gate(GateKind.X, q), Gate(GateKind.Z, q))
        if g.kind == GateKind.X:
            h = Gate(GateKind.H, q)
            return (h, Gate(GateKind.Z, q), h)
        if g.kind == GateKind.S:
            return (Gate(GateKind.T, q), Gate(GateKind.T, q))
        if g.kind == GateKind.T:
            return (Gate(GateKind.RZ, q, Angle(1, 4)),)
        return (g,)

    return Circuit(c.num_qubits, tuple(h for g in c.gates for h in rewrite(g)))


class TestBackendState:
    @pytest.mark.parametrize("backend", [BackendId.DENSE, BackendId.DD, BackendId.TN])
    def test_bell_agrees(self, backend):
        s = verify.STATE[backend](bell_circuit())
        np.testing.assert_allclose(s.amps, BELL_AMPS, atol=1e-10)

    def test_zx_rejected(self, tmp_path, capsys):
        # zx holds no state: simulate offers it as no choice
        assert BackendId.ZX not in verify.STATE
        (tmp_path / "bell.qcf").write_text(render_circuit(bell_circuit()))
        assert cli.run(["simulate", "--backend", "zx", str(tmp_path / "bell.qcf")]) == cli.EXIT_USAGE
        assert "invalid choice: 'zx'" in capsys.readouterr().err


# |amplitude of 1> = sin(pi / 2^37), about 2.3e-11: above simulate's compact
# threshold, below the dd weight grid (ROADMAP item 4)
TINY_RX = "qubits 1\nrx 1/68719476736 0\n"
DD_GRID = "dd zeroes weights below 5e-11 (ROADMAP item 4)"


def _compact_dump(path, backend: str) -> dict[str, complex]:
    """The lines `simulate --backend <backend>` prints for the file at path, by basis string."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.run(["simulate", "--backend", backend, str(path)]) == 0
    rows = (line.split() for line in out.getvalue().splitlines())
    return {bits: complex(float(re), float(im)) for bits, re, im in rows}


@pytest.fixture(scope="module")
def table_files(differential_corpus, tmp_path_factory):
    """The first 30 corpus circuits as files, each with the lines dense prints for it."""
    d = tmp_path_factory.mktemp("tables")
    files = []
    for k, (c, _) in enumerate(differential_corpus[:30]):
        path = d / f"c{k}.qcf"
        path.write_text(render_circuit(c))
        files.append((path, _compact_dump(path, "dense")))
    return files


class TestBackendTables:
    @pytest.mark.parametrize("backend", [b.value for b in verify.STATE])
    def test_simulate_prints_the_dense_line_set(self, table_files, backend):
        for path, want in table_files:
            got = _compact_dump(path, backend)
            assert got.keys() == want.keys()
            for bits, a in want.items():
                assert abs(got[bits] - a) <= 1e-9

    @pytest.mark.parametrize(
        "backend",
        [b.value for b in verify.STATE if b != BackendId.DD]
        + [pytest.param("dd", marks=pytest.mark.xfail(strict=True, reason=DD_GRID))],
    )
    def test_tiny_amplitude_is_printed(self, tmp_path, backend):
        (tmp_path / "c.qcf").write_text(TINY_RX)
        assert _compact_dump(tmp_path / "c.qcf", backend).keys() == {"0", "1"}

    @pytest.mark.parametrize("backend", list(verify.AMPLITUDE), ids=lambda b: b.value)
    def test_amplitude_matches_state(self, differential_corpus, backend):
        # every basis string of the first 30 corpus circuits, against the dense state
        for c, states in differential_corpus[:30]:
            for i, a in enumerate(states[BackendId.DENSE]):
                assert abs(verify.AMPLITUDE[backend](c, index_bits(i, c.num_qubits)) - a) <= 1e-9


class TestCrossCheck:
    def test_bell_passes(self):
        report = verify.cross_check(bell_circuit(), 1e-10)
        assert report.passed
        assert report.max_deviation <= 1e-10

    def test_capacity_guard(self):
        # one state per backend and one pair's difference and magnitudes: 72
        # bytes an amplitude, so the first width past the budget is 23
        n = next(n for n in range(64) if (16 * len(verify.STATE) + 24) * 2**n > MAX_BYTES)
        with pytest.raises(CapacityError):
            verify.cross_check(Circuit(n), 1e-8)


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

    def test_decides_on_one_composed_unitary(self, monkeypatch):
        # one circuit_unitary call, on the miter: c1 against c2's inverse,
        # where all of c1 cancels and only c2's extra x is left
        calls = []
        real = dense.circuit_unitary
        monkeypatch.setattr(dense, "circuit_unitary", lambda c: calls.append(c) or real(c))
        c1 = ghz_circuit(3)
        c2 = Circuit(3, (Gate(GateKind.X, (1,)),) + c1.gates)
        v = verify.check_equivalence(c1, c2, BackendId.DENSE)
        assert v.status == EquivalenceStatus.NOT_EQUIVALENT
        assert [c.gates for c in calls] == [miter(c1, c2).circuit.gates]
        assert miter(c1, c2).circuit.gates == (Gate(GateKind.X, (1,)),)

    @pytest.mark.parametrize("method", [BackendId.DENSE, BackendId.ZX])
    def test_witness_is_the_lowest_tied_input(self, monkeypatch, method):
        # U = cx(4, 0): |U_jj| = 0 for all 16 inputs j >= 16, exactly in the
        # miter and up to rounding noise in the full composition, where the
        # least entry is j = 24; the witness is the lowest tied input either way
        c1 = random_circuit(random.Random(5), 5, 40)
        c2 = Circuit(5, (Gate(GateKind.CX, (4, 0)),) + c1.gates)
        assert verify.check_equivalence(c1, c2, method).witness == "10000"
        monkeypatch.setattr(verify, "miter", uncancelled)
        assert verify.check_equivalence(c1, c2, method).witness == "10000"

    def test_peak_memory_is_near_one_unitary(self):
        # U2^dagger U1 is the only 2^n x 2^n array; the rest is the kernel's
        # scratch and |U - t I| a slice of rows at a time
        n = 10
        rng = random.Random(41)
        c1 = random_circuit(rng, n, 60)
        for c2 in (c1, random_circuit(rng, n, 60)):
            assert traced_peak(lambda: verify._dense_equivalence(miter(c1, c2))) <= 1.1 * 16 * 4**n


class TestOneVerdictRule:
    """dense, dd and zx decide with one rule on U = U2^dagger U1: equivalent
    iff max |U - t I| <= tolerance, where t = tr U / |tr U|."""

    @pytest.mark.parametrize("k", range(1, 41))
    @pytest.mark.parametrize("n", [1, 3, 6])
    def test_methods_agree_on_small_rotations(self, n, k):
        # U is rz(-pi/2^k) on the top qubit (rx for n = 1), so max |U - t I|
        # is about pi/2^(k+1): above the 1e-9 tolerance up to k = 30
        h = Gate(GateKind.H, (0,))
        c1 = Circuit(n, (h,))
        c2 = Circuit(n, (h, Gate(GateKind.RZ, (n - 1,), Angle(1, 2**k))))
        want = EquivalenceStatus.NOT_EQUIVALENT if k <= 30 else EquivalenceStatus.EQUIVALENT
        for method in (BackendId.DENSE, BackendId.DD, BackendId.ZX):
            assert verify.check_equivalence(c1, c2, method).status == want, method

    def test_a_zero_trace_takes_t_as_1(self):
        # U = x has trace 0, so t = 1 and the verdict's phase is conj(t) = 1
        v = verify.check_equivalence(Circuit(1, (Gate(GateKind.X, (0,)),)), Circuit(1), BackendId.DENSE)
        assert (v.status, v.phase) == (EquivalenceStatus.NOT_EQUIVALENT, 1)

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 4: with first-nonzero normalization an edge weight can be "
        "far below the entries of its block, and _make_node drops it as zero",
    )
    def test_dd_keeps_a_block_with_a_small_first_entry(self):
        # max |U - t I| is 2.9e-9; while composing, an off-diagonal block of
        # entries near 4e-9 gets an edge weight near 1e-17 (first entry times
        # the small factors above it) over node weights near 3e8, and the
        # zero test on edge weights drops the block
        text = (
            "qubits 2\nsdg 0\nh 0\nswap 0 1\ntdg 1\nh 0\ncx 0 1\n{}"
            "rz 0 0\nrx 1/2 1\nx 1\nsdg 0\nz 1\nrz 1 0\nrx 4/3 0\n"
        )
        c1 = parse_circuit(text.format(""))
        c2 = parse_circuit(text.format("rz 1/536870912 1\n"))
        want = EquivalenceStatus.NOT_EQUIVALENT
        assert verify.check_equivalence(c1, c2, BackendId.DENSE).status == want
        assert verify.check_equivalence(c1, c2, BackendId.DD).status == want


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

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 5), rewrite=st.booleans())
    def test_matches_dense_on_mutated_and_rewritten_pairs(self, seed, n, rewrite):
        rng = random.Random(seed)
        c1 = random_circuit(rng, n, rng.randrange(1, 25))
        c2 = _rewritten(c1) if rewrite else _mutate_or_insert(rng, c1)
        via_dd = verify.check_equivalence(c1, c2, BackendId.DD)
        via_dense = verify._dense_equivalence(miter(c1, c2))
        assert via_dd.status == via_dense.status
        if rewrite:
            assert via_dd.status == EquivalenceStatus.EQUIVALENT
        if via_dd.status == EquivalenceStatus.EQUIVALENT:
            # both report p with U2 = p U1
            assert abs(via_dd.phase - via_dense.phase) < 1e-9
        else:
            u = dense.circuit_unitary(c2).conj().T @ dense.circuit_unitary(c1)
            fidelity = np.abs(np.diag(u)) ** 2
            assert fidelity[int(via_dd.witness, 2)] <= fidelity.min() + 1e-9

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 5))
    @example(seed=57, n=3)  # tied |U_jj| that dd once broke by rounding noise
    def test_dd_and_dense_give_one_verdict_and_witness(self, seed, n):
        # c against c with one gate inserted, and that against a rewriting of
        # itself: the same status and witness, and the same phase when both carry one
        rng = random.Random(seed)
        c = random_circuit(rng, n, rng.randrange(1, 25))
        kinds = (GateKind.Z, GateKind.S, GateKind.T, GateKind.X, GateKind.CZ)
        inserted = _insert_one(rng, c, kinds)
        for c1, c2 in ((c, inserted), (inserted, _rewritten(inserted))):
            via_dd = verify.check_equivalence(c1, c2, BackendId.DD)
            via_dense = verify.check_equivalence(c1, c2, BackendId.DENSE)
            assert (via_dd.status, via_dd.witness) == (via_dense.status, via_dense.witness)
            if via_dd.phase is not None:
                assert abs(via_dd.phase - via_dense.phase) < 1e-9

    def test_lines_are_pinned(self):
        # rewritten, mutated and unrelated pairs, as `verify --method dd` prints them
        rng = random.Random(67)
        got = []
        for k in range(12):
            n = rng.randrange(2, 9)
            c1 = random_circuit(rng, n, rng.randrange(10, 40))
            if k % 3 == 0:
                c2 = _rewritten(c1)
            elif k % 3 == 1:
                c2 = _mutate_or_insert(rng, c1)
            else:
                c2 = random_circuit(rng, n, rng.randrange(10, 40))
            got.append(verify.check_equivalence(c1, c2, BackendId.DD).report())
        assert got == PINNED_DD_VERDICTS

    def test_a_miter_that_cancels_multiplies_nothing(self, tmp_path, capsys):
        # c against c with a block and its inverse inserted: every gate of the
        # miter cancels, so nothing is multiplied
        rng = random.Random(101)
        c = random_circuit(rng, 12, 60)
        block = random_circuit(rng, 12, 10)
        k = rng.randrange(len(c.gates) + 1)
        padded = Circuit(12, c.gates[:k] + block.gates + adjoint_circuit(block).gates + c.gates[k:])
        a, b = tmp_path / "a.qcf", tmp_path / "b.qcf"
        a.write_text(render_circuit(c))
        b.write_text(render_circuit(padded))
        spy = mock.patch.object(
            dd.DDBackend, "mult_mm", autospec=True, side_effect=dd.DDBackend.mult_mm
        )
        with spy as mult_mm:
            assert cli.run(["verify", "--method", "dd", str(a), str(b)]) == cli.EXIT_OK
        assert capsys.readouterr().out == "verdict=equivalent method=dd\n"
        assert mult_mm.call_count == 0

    def test_agrees_with_dense_on_random_pairs(self):
        rng = random.Random(7)
        for _ in range(20):
            n = rng.randrange(1, 5)
            c1 = random_circuit(rng, n, rng.randrange(0, 11))
            c2 = random_circuit(rng, n, rng.randrange(0, 11))
            via_dd = verify.check_equivalence(c1, c2, BackendId.DD)
            via_dense = verify.check_equivalence(c1, c2, BackendId.DENSE)
            assert via_dd.status == via_dense.status


PINNED_DD_VERDICTS = [
    "verdict=equivalent method=dd",
    "verdict=not_equivalent method=dd witness=00000",
    "verdict=not_equivalent method=dd witness=0000",
    "verdict=equivalent method=dd",
    "verdict=not_equivalent method=dd witness=00",
    "verdict=not_equivalent method=dd witness=00000000",
    "verdict=equivalent method=dd",
    "verdict=not_equivalent method=dd witness=0000",
    "verdict=not_equivalent method=dd witness=0000000",
    "verdict=equivalent method=dd",
    "verdict=not_equivalent method=dd witness=00000",
    "verdict=not_equivalent method=dd witness=01",
]


class TestWideWitness:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_dd_witness_at_16_qubits_is_certified_by_dense(self, seed):
        # an inserted h or x leaves U2^dagger U1 off-diagonal, so some input's
        # two outputs overlap by less than 1, and the witness must be one of them
        rng = random.Random(seed)
        c1 = random_circuit(rng, 16, 60)
        c2 = _insert_one(rng, c1, (GateKind.H, GateKind.X))
        v = verify.check_equivalence(c1, c2, BackendId.DD)
        assert v.status == EquivalenceStatus.NOT_EQUIVALENT
        b = int(v.witness, 2)
        fidelity = abs(np.vdot(dense.simulate(c1, b).amps, dense.simulate(c2, b).amps)) ** 2
        assert fidelity < 1 - 1e-9
        assert verify.check_equivalence(c1, c2, BackendId.ZX).witness == v.witness


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


class TestOneMiter:
    S, Z = Gate(GateKind.S, (0,)), Gate(GateKind.Z, (0,))
    RZ3, RZ4 = Gate(GateKind.RZ, (0,), Angle(1, 3)), Gate(GateKind.RZ, (0,), Angle(1, 4))

    @pytest.fixture
    def miter_calls(self, monkeypatch) -> list:
        """The (c1, c2) of every miter call, wherever qcdesk binds it."""
        calls = []
        real = verify.miter

        def counted(a: Circuit, b: Circuit) -> Miter:
            calls.append((a, b))
            return real(a, b)

        for name, module in list(sys.modules.items()):
            if name.startswith("qcdesk") and getattr(module, "miter", None) is real:
                monkeypatch.setattr(module, "miter", counted)
        return calls

    @pytest.mark.parametrize(
        "c1, c2, method, fallback",
        [
            (Circuit(1, (S, S)), Circuit(1, (Z,)), BackendId.DENSE, False),
            (Circuit(1, (S, S)), Circuit(1, (Z,)), BackendId.DD, False),
            (Circuit(1, (S, S)), Circuit(1, (Z,)), BackendId.ZX, False),  # zx decides
            (Circuit(1, (RZ3,)), Circuit(1, (RZ4,)), BackendId.ZX, True),  # zx falls back
            (bell_circuit(), bell_circuit(), BackendId.DD, False),  # empty miter
        ],
    )
    def test_each_job_builds_it_once(self, miter_calls, c1, c2, method, fallback):
        v = verify.check_equivalence(c1, c2, method)
        assert v.fallback_used == fallback
        assert miter_calls == [(c1, c2)]

    @pytest.mark.parametrize("c2", [Circuit(3), bell_circuit()], ids=["other-width", "same-width"])
    def test_an_unsupported_method_is_refused_before_it(self, miter_calls, c2):
        with pytest.raises(ValueError, match="unsupported equivalence method"):
            verify.check_equivalence(bell_circuit(), c2, BackendId.TN)
        assert miter_calls == []

    @pytest.mark.parametrize("n", [13, 40])
    @pytest.mark.parametrize("method", ["dense", "dd", "zx"])
    def test_an_empty_miter_is_equivalent_at_any_width(self, tmp_path, capsys, n, method):
        # past dense's memory budget: decided before any backend runs
        rng = random.Random(n)
        c = Circuit(n, ghz_circuit(n).gates + random_circuit(rng, n, 30).gates)
        block = random_circuit(rng, n, 8)
        padded = Circuit(n, c.gates[:5] + block.gates + adjoint_circuit(block).gates + c.gates[5:])
        a, b = tmp_path / "a.qcf", tmp_path / "b.qcf"
        a.write_text(render_circuit(c))
        b.write_text(render_circuit(padded))
        for files in ([a, a], [a, b]):
            assert cli.run(["verify", "--method", method, *map(str, files)]) == cli.EXIT_OK
            assert capsys.readouterr().out == f"verdict=equivalent method={method}\n"
        v = verify.check_equivalence(c, padded, BackendId(method))
        assert (v.status, v.phase, v.witness, v.fallback_used) == (
            EquivalenceStatus.EQUIVALENT,
            1,
            None,
            False,
        )


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
            assert v.report().endswith("fallback=dd")


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
