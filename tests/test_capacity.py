"""The capacity model: every input-sized allocation is reserved against
errors.MAX_BYTES before it is made.

Each reserving site is held to its word on seeded inputs: its traced peak is
at most the bytes it reserved plus 1 MiB. One width past each boundary raises
CapacityError with a traced peak under 1 MiB, and the widths the budget admits
beyond the old qubit ceilings run."""
import random

import pytest

from conftest import bell_times_plus, ghz_circuit, peak_until_raises, random_circuit, traced_peak
from qcdesk import cli, dd, dense, errors, tn, verify, zx
from qcdesk.errors import MAX_BYTES
from qcdesk.ir import Angle, Circuit, Gate, GateKind, render_circuit

MIB = 1 << 20
H, CX, T, SWAP = GateKind.H, GateKind.CX, GateKind.T, GateKind.SWAP


@pytest.fixture
def reserved(monkeypatch):
    """The bytes of every reservation made, in order."""
    made = []

    def record(nbytes, what):
        made.append(nbytes)
        errors.reserve(nbytes, what)

    for module in (dense, dd, tn, zx, verify):
        monkeypatch.setattr(module, "reserve", record)
    return made


def support_eighth(n: int, seed: int) -> Circuit:
    """h on n - 3 qubits, then permutations and phases: an eighth of the
    amplitudes are nonzero, so dense runs on the support."""
    rng = random.Random(seed)
    gates = [Gate(H, (q,)) for q in range(n - 3)]
    for _ in range(40):
        kind = rng.choice([CX, T, SWAP])
        gates.append(Gate(kind, tuple(rng.sample(range(n), 2 if kind != T else 1))))
    return Circuit(n, tuple(gates))


def plus_state(n: int) -> Circuit:
    return Circuit(n, tuple(Gate(H, (q,)) for q in range(n)))


STATES = {
    "ghz20": ghz_circuit(20),
    "support20": support_eighth(20, 1),
    "plus20": plus_state(20),
    "random20": random_circuit(random.Random(7), 20, 30),
    "random14": random_circuit(random.Random(8), 14, 80),
    "random16": random_circuit(random.Random(9), 16, 100),
}


class TestReservationsCoverThePeak:
    @pytest.mark.parametrize("name", STATES)
    def test_dense_state(self, reserved, name):
        peak = traced_peak(lambda: dense.simulate(STATES[name]))
        assert len(reserved) == 1
        assert peak <= reserved[0] + MIB

    def test_dense_apply_gate(self, reserved):
        s = dense.simulate(STATES["random20"])
        reserved.clear()
        peak = traced_peak(lambda: dense.apply_gate(s, Gate(H, (3,))))
        assert peak <= reserved[0] + MIB

    @pytest.mark.parametrize("n, seed", [(6, 1), (8, 2), (10, 3)])
    def test_dense_unitary(self, reserved, n, seed):
        c = random_circuit(random.Random(seed), n, 60)
        peak = traced_peak(lambda: dense.circuit_unitary(c))
        assert peak <= reserved[0] + MIB

    @pytest.mark.parametrize("name", ["ghz20", "support20"])
    def test_dense_support_state(self, reserved, name):
        # the reservation is the buffer's, which amps would build, but only the
        # support's arrays exist: at most 64 bytes an entry
        states = []
        peak = traced_peak(lambda: states.append(dense.simulate(STATES[name])))
        s = states[0]
        support = len(s._support[0])
        assert reserved == [16 * 2**20 + max(24 * dense._SLICE, 64 * support)]
        assert peak <= 64 * support + MIB
        peak = traced_peak(lambda: s.amps)
        assert len(reserved) == 2 and peak <= reserved[1] + MIB

    @pytest.mark.parametrize("c, shots", [
        (STATES["ghz20"], 10_000), (STATES["support20"], 10_000), (STATES["plus20"], 10_000),
        (plus_state(16), 2**63 - 1),
    ], ids=["ghz20", "support20", "plus20", "plus16-every-outcome"])
    def test_dense_sample(self, reserved, c, shots):
        s = dense.simulate(c)
        reserved.clear()
        peak = traced_peak(lambda: dense.sample(s, shots, 1))
        # sample's two reservations count the state, which exists before tracing
        # starts; between them measure_probabilities reserves its own
        assert len(reserved) == 3 and reserved[1] == 8 * 2**s.n + 41 * dense._SLICE
        assert peak <= max(reserved) - s.nbytes + MIB

    @pytest.mark.parametrize("name", ["ghz20", "plus20"])
    def test_dense_measure_probabilities(self, reserved, name):
        # ghz20 is held on its support, which is read a piece at a time without
        # building its buffer; plus20 is a buffer
        s = dense.simulate(STATES[name])
        reserved.clear()
        peak = traced_peak(lambda: dense.measure_probabilities(s))
        assert len(reserved) == 1
        assert peak <= reserved[0] + MIB

    @pytest.mark.parametrize("backend", ["dd", "dense"])
    def test_compact_filter_works_a_piece_at_a_time(self, backend):
        # 2^20 amplitudes, 2 printed: a filter over the whole state would take
        # 9 bytes an amplitude (9 MiB), one piece at a time takes O(_SLICE)
        s = verify.STATE[verify.BackendId(backend)](STATES["ghz20"])
        text = []
        peak = traced_peak(lambda: text.append(dense.format_amplitude_dump(s.n, cli._printed(s.entries()))))
        assert text[0].count("\n") == 2
        assert peak <= 64 * dense._SLICE

    @pytest.mark.parametrize("name", ["ghz20", "plus20", "random14", "random16"])
    def test_dd_state(self, reserved, name):
        backend = dd.DDBackend()
        v = backend.simulate(STATES[name])
        peak = traced_peak(lambda: backend.dd_to_vector(v))
        assert len(reserved) == 1
        assert peak <= reserved[0] + MIB

    @pytest.mark.parametrize("c, kept", [(bell_times_plus(20), 2**18), (STATES["plus20"], 0)])
    def test_dd_counts_blocks_kept_while_others_are_built(self, reserved, c, kept):
        # a node with two parents is kept while the second parent's block is
        # built; a node whose uses are adjacent edges of one parent is not
        backend = dd.DDBackend()
        v = backend.simulate(c)
        peak = traced_peak(lambda: backend.dd_to_vector(v))
        assert reserved == [16 * (2 * 2**20 + kept)]
        assert peak <= reserved[0] + MIB

    @pytest.mark.parametrize("name", ["ghz20", "random14"])
    def test_tn_full_state(self, reserved, name):
        peak = traced_peak(lambda: tn.full_state_tn(STATES[name]))
        assert len(reserved) == 2  # the state and its copy, then the plan
        assert peak <= max(reserved) + MIB

    @pytest.mark.parametrize("seed", range(5))
    def test_tn_seeded_plans(self, reserved, seed):
        # not the greedy order: each step joins a random live tensor to a random
        # one it shares an index with, over an 18-qubit state's network
        rng = random.Random(seed)
        net = tn.circuit_to_network(random_circuit(rng, 18, 60))
        live = {i: set(t.indices) for i, t in enumerate(net.tensors)}
        steps = []
        while len(live) > 1:
            i = rng.choice(sorted(live))
            others = [j for j in sorted(live) if j != i]
            j = rng.choice([j for j in others if live[i] & live[j]] or others)
            live[len(net.tensors) + len(steps)] = live.pop(i) ^ live.pop(j)
            steps.append((i, j))
        peak = traced_peak(lambda: tn.execute_plan(net, tn.ContractionPlan(steps)))
        assert 16 * 2**18 <= reserved[0] <= MAX_BYTES
        assert peak <= reserved[0] + MIB

    @pytest.mark.parametrize("c", [random_circuit(random.Random(5), 9, 40), ghz_circuit(9)])
    def test_zx_open_diagram(self, reserved, c):
        d = zx.circuit_to_zx(c)
        peak = traced_peak(lambda: zx.zx_to_tensor(d))
        assert peak <= max(reserved) + MIB
        assert max(reserved) >= 16 * 4**9  # the 18-index result

    @pytest.mark.parametrize("color", [zx.SpiderColor.Z, zx.SpiderColor.X])
    def test_zx_wide_spider(self, reserved, color):
        d = star(18, color)
        peak = traced_peak(lambda: zx.zx_to_tensor(d))
        assert peak <= max(reserved) + MIB
        assert reserved[0] >= 16 * 2**18

    @pytest.mark.parametrize("name", ["ghz20", "random14"])
    def test_cross_check(self, reserved, name):
        # its own states and difference, plus the largest backend's reservation
        peak = traced_peak(lambda: verify.cross_check(STATES[name], 1e-8))
        assert peak <= reserved[0] + max(reserved[1:]) + MIB


def star(degree: int, color: zx.SpiderColor = zx.SpiderColor.Z) -> zx.ZXDiagram:
    """A closed diagram: one spider joined to `degree` phase-free Z spiders."""
    d = zx.ZXDiagram()
    hub = d.add_spider(color, Angle(1, 4))
    for _ in range(degree):
        d.add_edge(hub, d.add_spider(zx.SpiderColor.Z))
    return d


class TestPastTheBudget:
    """One width past each boundary raises before anything input-sized exists."""

    def test_dense_state(self):
        n = next(n for n in range(64) if 16 * 2**n > MAX_BYTES)  # the buffer alone
        assert peak_until_raises(lambda: dense.simulate(ghz_circuit(n))) < MIB

    def test_dense_unitary(self):
        n = next(n for n in range(32) if 16 * 4**n > MAX_BYTES)
        assert peak_until_raises(lambda: dense.circuit_unitary(ghz_circuit(n))) < MIB

    def test_dd_state(self):
        # two 16-byte arrays of 2^n amplitudes: 24 qubits fit, 25 do not
        n = next(n for n in range(64) if 32 * 2**n > MAX_BYTES)
        backend = dd.DDBackend()
        v = backend.simulate(ghz_circuit(n))
        assert peak_until_raises(lambda: backend.dd_to_vector(v)) < MIB

    def test_tn_full_state(self):
        n = next(n for n in range(64) if 32 * 2**n > MAX_BYTES)
        assert peak_until_raises(lambda: tn.full_state_tn(ghz_circuit(n))) < MIB

    def test_zx_spider_is_reserved_before_it_is_built(self):
        # one Z spider joined to 25 others: its tensor alone is 512 MiB
        assert peak_until_raises(lambda: zx.zx_to_tensor(star(25))) < MIB

    def test_cross_check(self):
        n = next(n for n in range(64) if (16 * len(verify.STATE) + 24) * 2**n > MAX_BYTES)
        assert peak_until_raises(lambda: verify.cross_check(Circuit(n), 1e-8)) < MIB

    def test_the_message_names_the_bytes_and_the_budget(self, tmp_path, capsys):
        path = tmp_path / "wide.qcf"
        path.write_text("qubits 25\nh 0\n")
        assert cli.run(["simulate", "--backend", "dense", str(path)]) == 70
        needs = 16 * 2**25 + 24 * dense._SLICE  # the buffer and the kernel's scratch
        want = f"error: 25-qubit dense state needs {needs} bytes; the budget is {MAX_BYTES}\n"
        assert capsys.readouterr().err == want


class TestNewReach:
    def test_tn_simulates_ghz22_as_dense_prints_it(self, tmp_path, capsys):
        path = tmp_path / "ghz22.qcf"
        path.write_text(render_circuit(ghz_circuit(22)))
        outs = []
        for backend in ("dense", "tn"):
            assert cli.run(["simulate", "--backend", backend, str(path)]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]
        assert outs[0].count("\n") == 2

    def test_dense_verifies_11_qubits_as_dd_does(self, tmp_path, capsys):
        rng = random.Random(11)
        c1 = random_circuit(rng, 11, 20)
        c2 = Circuit(11, c1.gates[:7] + (Gate(GateKind.Z, (3,)),) + c1.gates[7:])
        files = []
        for name, c in (("a.qcf", c1), ("b.qcf", c2)):
            (tmp_path / name).write_text(render_circuit(c))
            files.append(str(tmp_path / name))
        results = []
        for method in ("dd", "dense"):
            rc = cli.run(["verify", "--method", method, *files])
            results.append((rc, capsys.readouterr().out.replace(f"method={method}", "")))
        assert results[0] == results[1]
        assert results[0][0] == cli.EXIT_NOT_EQUIVALENT

    def test_zx_falls_back_to_dd_past_10_qubits(self, tmp_path, capsys):
        c1 = random_circuit(random.Random(12), 11, 20)
        c2 = Circuit(11, c1.gates + (Gate(GateKind.T, (0,)),))
        files = []
        for name, c in (("a.qcf", c1), ("b.qcf", c2)):
            (tmp_path / name).write_text(render_circuit(c))
            files.append(str(tmp_path / name))
        assert cli.run(["verify", "--method", "dd", *files]) == cli.EXIT_NOT_EQUIVALENT
        dd_line = capsys.readouterr().out
        assert cli.run(["verify", "--method", "zx", *files]) == cli.EXIT_NOT_EQUIVALENT
        zx_line = capsys.readouterr().out
        assert zx_line == dd_line.replace("method=dd", "method=zx").replace("\n", " fallback=dd\n")
