import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import H_MAT, random_circuit, random_gate
from qcdesk.errors import ParseError, WidthMismatchError
from qcdesk.ir import (
    PARAMETRIC_KINDS,
    TWO_QUBIT_KINDS,
    Angle,
    Circuit,
    Gate,
    GateKind,
    Miter,
    adjoint_circuit,
    adjoint_gate,
    gate_arity,
    gate_matrix,
    miter,
    parse_circuit,
    render_circuit,
)
from qcdesk import dense


@st.composite
def spelled_circuits(draw):
    """(QCF text, the circuit it spells): every gate kind, unreduced angles of
    any sign, comment and blank lines and indentation mixed in."""
    n = draw(st.integers(1, 5))
    kinds = [k for k in GateKind if n >= 2 or k not in TWO_QUBIT_KINDS]
    filler = st.lists(st.sampled_from(["", "   ", "# note", "  # rx 1/2 0", "#qubits 9"]), max_size=2)
    lines = draw(filler) + [f"qubits {n}"]
    gates = []
    for kind in draw(st.lists(st.sampled_from(kinds), max_size=12)):
        qubits = tuple(draw(st.permutations(range(n)))[: gate_arity(kind)])
        tokens = [kind.value]
        angle = None
        if kind in PARAMETRIC_KINDS:
            num = draw(st.integers(-1000, 1000))
            den = draw(st.integers(-64, 64).filter(bool))
            angle = Angle(num, den)
            tokens.append(str(num) if den == 1 and draw(st.booleans()) else f"{num}/{den}")
        tokens += map(str, qubits)
        gates.append(Gate(kind, qubits, angle))
        lines += draw(filler) + [" " * draw(st.integers(0, 2)) + " ".join(tokens)]
    return "\n".join(lines) + "\n", Circuit(n, tuple(gates))


class TestAngle:
    def test_reduced_modulo_two_pi(self):
        assert Angle(5, 2) == Angle(1, 2)
        assert Angle(-1, 2) == Angle(3, 2)
        assert Angle(4) == Angle(0)

    def test_lowest_terms(self):
        a = Angle(2, 4)
        assert (a.numerator, a.denominator) == (1, 2)

    def test_radians(self):
        assert Angle(1, 2).radians == pytest.approx(math.pi / 2)

    def test_addition_and_negation(self):
        assert Angle(1, 4) + Angle(1, 4) == Angle(1, 2)
        assert -Angle(1, 4) == Angle(7, 4)

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.one_of(st.integers(-70, 70), st.integers(-(2**70), 2**70)),
        d=st.one_of(st.integers(-70, 70), st.integers(-(2**40), 2**40)),
    )
    @example(n=0, d=-7)
    @example(n=3, d=-6)  # -1/2 is 3/2 modulo 2
    @example(n=-4, d=-8)
    @example(n=1, d=0)
    @example(n=0, d=0)
    def test_matches_the_fraction_definition(self, n, d):
        # pi * n/d reduced modulo 2 pi is Fraction(n, d) % 2, in lowest terms
        if d == 0:
            with pytest.raises(ValueError):
                Angle(n, d)
            return
        f = Fraction(n, d) % 2
        a = Angle(n, d)
        assert (a.numerator, a.denominator) == (f.numerator, f.denominator)
        assert type(a.numerator) is int and type(a.denominator) is int
        g = (f + Fraction(3, d)) % 2
        b = a + Angle(3, d)
        assert (b.numerator, b.denominator) == (g.numerator, g.denominator)


class TestParse:
    def test_basic_circuit(self):
        c = parse_circuit("qubits 2\nh 0\ncx 0 1")
        assert c == Circuit(
            2, (Gate(GateKind.H, (0,)), Gate(GateKind.CX, (0, 1)))
        )

    def test_rational_angle(self):
        c = parse_circuit("qubits 1\nrz 1/2 0")
        assert c == Circuit(1, (Gate(GateKind.RZ, (0,), Angle(1, 2)),))

    def test_unknown_mnemonic(self):
        with pytest.raises(ParseError) as exc:
            parse_circuit("qubits 1\nfoo 0")
        assert exc.value.line == 2

    def test_comments_and_blanks_ignored(self):
        c = parse_circuit("# a comment\n\nqubits 1\n# another\nx 0\n")
        assert len(c.gates) == 1

    def test_missing_header(self):
        with pytest.raises(ParseError):
            parse_circuit("h 0\n")

    def test_index_out_of_range(self):
        with pytest.raises(ParseError) as exc:
            parse_circuit("qubits 2\nx 2")
        assert exc.value.line == 2

    def test_malformed_angle(self):
        with pytest.raises(ParseError):
            parse_circuit("qubits 1\nrz pi/2 0")

    @pytest.mark.parametrize(
        "text, line",
        [
            ("qubits \uff13\nh 0", 1),  # fullwidth digit
            ("qubits +3\nh 0", 1),
            ("qubits 1_0\nh 0", 1),
            ("qubits -3\nh 0", 1),
            ("qubits 3\nh \uff12", 2),
            ("qubits 3\nh +2", 2),
            ("qubits 3\nh -0", 2),
            ("qubits 12\ncx 1 1_0", 2),
            ("qubits 3\nh \u0662", 2),  # Arabic-Indic digit
            ("qubits 1\nrz 1_0/4 0", 2),
            ("qubits 1\nrz 1/+4 0", 2),
            ("qubits 1\nrz +1 0", 2),
            ("qubits 1\nrz --1/4 0", 2),
            ("qubits 1\nrz 1/-\uff14 0", 2),
            ("qubits 1\nrz \u00b9/4 0", 2),  # superscript one
            ("qubits 1\nrz -/4 0", 2),
            ("qubits " + "1" * 4301 + "\nh 0", 1),  # past int()'s digit limit
            ("qubits 3\nh " + "1" * 4301, 2),
            ("qubits 1\nrz " + "1" * 4301 + "/4 0", 2),
        ],
    )
    def test_integers_are_ascii_digits(self, text, line):
        with pytest.raises(ParseError) as exc:
            parse_circuit(text)
        assert exc.value.line == line

    def test_angle_parts_keep_one_minus(self):
        c = parse_circuit("qubits 1\nrz -1/4 0\nrx 1/-4 0\nrz -3 0\nrz 007/008 0")
        assert [g.angle for g in c.gates] == [Angle(-1, 4), Angle(1, -4), Angle(-3), Angle(7, 8)]

    def test_duplicate_qubits_rejected(self):
        with pytest.raises(ParseError):
            parse_circuit("qubits 2\ncx 0 0")

    def test_round_trip(self):
        rng = random.Random(7)
        for _ in range(25):
            c = random_circuit(rng, rng.randrange(1, 6), rng.randrange(0, 15))
            assert parse_circuit(render_circuit(c)) == c

    @settings(max_examples=40, deadline=None)
    @given(spelled=spelled_circuits())
    def test_round_trip_property(self, spelled):
        text, c = spelled
        assert parse_circuit(text) == c
        rendered = render_circuit(c)
        assert parse_circuit(rendered) == c
        assert render_circuit(parse_circuit(rendered)) == rendered


class TestGateMatrix:
    # each fixed kind's matrix, bit for bit
    LITERALS = {
        GateKind.X: np.array([[0, 1], [1, 0]], dtype=complex),
        GateKind.Y: np.array([[0, -1j], [1j, 0]], dtype=complex),
        GateKind.Z: np.array([[1, 0], [0, -1]], dtype=complex),
        GateKind.H: H_MAT,
        GateKind.S: np.array([[1, 0], [0, 1j]], dtype=complex),
        GateKind.SDG: np.array([[1, 0], [0, -1j]], dtype=complex),
        GateKind.T: np.array([[1, 0], [0, np.exp(1j * math.pi / 4)]], dtype=complex),
        GateKind.TDG: np.array([[1, 0], [0, np.exp(-1j * math.pi / 4)]], dtype=complex),
        GateKind.CX: np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex),
        GateKind.CZ: np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, -1]], dtype=complex),
        GateKind.SWAP: np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex),
    }

    @pytest.mark.parametrize("kind", list(GateKind), ids=lambda k: k.value)
    def test_table_row(self, kind):
        """The adjoint inverts the gate, the matrix's side is 2^arity, and a
        fixed kind's matrix is its literal; rx and rz on seeded angles."""
        rng = random.Random(kind.value)
        angles = [Angle(rng.randint(-999, 999), rng.choice([1, 2, 3, 8, 7, 2**30])) for _ in range(20)]
        qubits = tuple(range(gate_arity(kind)))
        assert set(self.LITERALS) == set(GateKind) - PARAMETRIC_KINDS
        for angle in angles if kind in PARAMETRIC_KINDS else [None]:
            g = Gate(kind, qubits, angle)
            m = gate_matrix(g)
            assert m.shape == (2 ** gate_arity(kind),) * 2
            # an angle and its negation reach radians apart, each within about
            # 2 ulps of 2 pi: their product is 1 within a few 1e-16 (worst seen 1.2e-15)
            atol = 1e-15 if angle is None else 4e-15
            np.testing.assert_allclose(gate_matrix(adjoint_gate(g)) @ m, np.eye(len(m)), rtol=0, atol=atol)
            if angle is None:
                assert m.dtype == complex and m.tobytes() == self.LITERALS[kind].tobytes()

    def test_all_kinds_unitary(self):
        rng = random.Random(3)
        for _ in range(200):
            g = random_gate(rng, 3)
            m = gate_matrix(g)
            np.testing.assert_allclose(
                m @ m.conj().T, np.eye(m.shape[0]), atol=1e-12
            )


class TestAdjoint:
    def test_self_inverse_gates(self):
        c = Circuit(2, (Gate(GateKind.H, (0,)), Gate(GateKind.CX, (0, 1))))
        assert adjoint_circuit(c).gates == (
            Gate(GateKind.CX, (0, 1)),
            Gate(GateKind.H, (0,)),
        )

    def test_s_dagger(self):
        c = Circuit(1, (Gate(GateKind.S, (0,)),))
        assert adjoint_circuit(c).gates == (Gate(GateKind.SDG, (0,)),)

    def test_angle_negation(self):
        c = Circuit(1, (Gate(GateKind.RZ, (0,), Angle(1, 4)),))
        assert adjoint_circuit(c).gates == (Gate(GateKind.RZ, (0,), Angle(-1, 4)),)

    def test_simulate_then_adjoint_returns_initial(self):
        rng = random.Random(11)
        for _ in range(20):
            n = rng.randrange(1, 6)
            c = random_circuit(rng, n, rng.randrange(0, 30))
            round_trip = Circuit(n, c.gates + adjoint_circuit(c).gates)
            s = dense.simulate(round_trip)
            expected = np.zeros(2**n)
            expected[0] = 1.0
            np.testing.assert_allclose(s.amps, expected, atol=1e-10)


def edited(rng: random.Random, gates: tuple, n: int, edits: int) -> tuple:
    """gates with `edits` edits: a gate redrawn or an inverse pair g g^dagger inserted."""
    gates = list(gates)
    for _ in range(edits):
        i = rng.randrange(len(gates) + 1)
        if gates and rng.random() < 0.5:
            gates[min(i, len(gates) - 1)] = random_gate(rng, n)
        else:
            g = random_gate(rng, n)
            gates[i:i] = [g, adjoint_gate(g)]
    return tuple(gates[:20])


def eager_miter(c1: Circuit, c2: Circuit) -> Miter:
    """The miter's cancellation rule with every inverse computed up front."""
    kept: list = []
    latest: list[list[int]] = [[] for _ in range(c1.num_qubits)]
    steps = [(0, g, adjoint_gate(g)) for g in c1.gates]
    steps += [(1, adjoint_gate(g), g) for g in reversed(c2.gates)]
    for side, g, inverse in steps:
        near = max((latest[q][-1] for q in g.qubits if latest[q]), default=None)
        if near is not None and kept[near][1] == inverse:
            kept[near] = None
            for q in g.qubits:
                latest[q].pop()
            continue
        for q in g.qubits:
            latest[q].append(len(kept))
        kept.append((side, g))
    live = [k for k in kept if k is not None]
    split = sum(side == 0 for side, _ in live)
    return Miter(Circuit(c1.num_qubits, tuple(g for _, g in live)), split)


class TestMiter:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 5), edits=st.integers(0, 20))
    def test_same_unitary_as_the_full_composition(self, seed, n, edits):
        # c2 is c1 with up to `edits` gates redrawn, so pairs meet as g g^dagger
        rng = random.Random(seed)
        c1 = random_circuit(rng, n, rng.randrange(21))
        gates = list(c1.gates)
        for _ in range(edits if gates else 0):
            gates[rng.randrange(len(gates))] = random_gate(rng, n)
        c2 = Circuit(n, gates)
        full = Circuit(n, c1.gates + adjoint_circuit(c2).gates)
        np.testing.assert_allclose(
            dense.circuit_unitary(miter(c1, c2).circuit),
            dense.circuit_unitary(full),
            rtol=0,
            atol=1e-12,
        )

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 5), edits=st.integers(0, 6))
    def test_halves_are_the_miter(self, seed, n, edits):
        # c2 is c1 with gates redrawn and inverse pairs inserted, so gates
        # cancel within each circuit and across the two
        rng = random.Random(seed)
        c1 = random_circuit(rng, n, rng.randrange(21))
        c2 = Circuit(n, edited(rng, c1.gates, n, edits))
        m = miter(c1, c2)
        h1 = Circuit(n, m.circuit.gates[: m.split])  # the kept gates of c1
        h2 = adjoint_circuit(Circuit(n, m.circuit.gates[m.split :]))  # of c2, in its order
        u = dense.circuit_unitary
        np.testing.assert_allclose(
            u(h2).conj().T @ u(h1), u(c2).conj().T @ u(c1), rtol=0, atol=1e-12
        )
        assert m.circuit.gates == h1.gates + adjoint_circuit(h2).gates
        for half, whole in ((h1, c1), (h2, c2)):
            rest = iter(whole.gates)
            assert all(any(g == h for h in rest) for g in half.gates)  # a subsequence

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 5), edits=st.integers(0, 8))
    def test_matches_the_eager_rule(self, seed, n, edits):
        # inverse pairs, rx and rz among them, inserted into both circuits, so
        # gates cancel inside c1, inside c2 and across the two
        rng = random.Random(seed)
        c1 = Circuit(n, edited(rng, random_circuit(rng, n, rng.randrange(16)).gates, n, edits))
        c2 = Circuit(n, edited(rng, c1.gates, n, edits))
        assert miter(c1, c2) == eager_miter(c1, c2)

    def test_rotations_cancel_inside_c2_then_across(self):
        rx, h = Gate(GateKind.RX, (0,), Angle(1, 4)), Gate(GateKind.H, (1,))
        rz, rzdg = Gate(GateKind.RZ, (0,), Angle(3, 8)), Gate(GateKind.RZ, (0,), Angle(-3, 8))
        # rz rz^dagger cancel inside c2, then rx and h across
        c1, c2 = Circuit(2, (rx, h)), Circuit(2, (h, rx, rz, rzdg))
        assert miter(c1, c2) == eager_miter(c1, c2) == Miter(Circuit(2), 0)
        # rx^dagger is not rx: nothing cancels across, and c2's inverses follow c1
        c2 = Circuit(2, (Gate(GateKind.RX, (0,), Angle(-1, 4)),))
        assert miter(Circuit(2, (rx,)), c2) == Miter(Circuit(2, (rx, rx)), 1)

    def test_halves_of_a_pair_that_cancels_across(self):
        t, h, cx = Gate(GateKind.T, (0,)), Gate(GateKind.H, (1,)), Gate(GateKind.CX, (0, 1))
        # c1 = t h cx, c2 = h cx: the cx pair and then h pair cancel across, t stays
        assert miter(Circuit(2, (t, h, cx)), Circuit(2, (h, cx))) == Miter(Circuit(2, (t,)), 1)
        # c2 = t tdg cx h: h cancels across, then the pair inside c2
        tdg = Gate(GateKind.TDG, (0,))
        assert miter(Circuit(2, (h,)), Circuit(2, (t, tdg, cx, h))) == Miter(
            Circuit(2, (cx,)), 0
        )

    @settings(max_examples=40, deadline=None)
    @given(spelled=spelled_circuits())
    def test_circuit_against_itself_is_empty(self, spelled):
        c = spelled[1]
        assert miter(c, c).circuit.gates == ()

    def test_pair_apart_on_other_qubits_cancels(self):
        t, tdg = Gate(GateKind.T, (0,)), Gate(GateKind.TDG, (0,))
        cx, between = Gate(GateKind.CX, (0, 1)), (Gate(GateKind.H, (2,)), Gate(GateKind.CZ, (1, 2)))
        assert miter(Circuit(3, (t,) + between), Circuit(3, (t,))).circuit.gates == between
        assert miter(Circuit(3, (cx, between[0], cx)), Circuit(3)).circuit.gates == between[:1]
        assert miter(Circuit(3, (t, between[0], tdg)), Circuit(3)).circuit.gates == between[:1]

    def test_gate_in_between_on_the_same_qubit_blocks(self):
        x, z = Gate(GateKind.X, (0,)), Gate(GateKind.Z, (0,))
        assert miter(Circuit(1, (x, z, x)), Circuit(1)).circuit.gates == (x, z, x)
        # cx(0, 1) and cx(1, 0) are different gates
        pair = (Gate(GateKind.CX, (0, 1)), Gate(GateKind.CX, (1, 0)))
        assert miter(Circuit(2, pair), Circuit(2)).circuit.gates == pair

    def test_width_mismatch(self):
        with pytest.raises(WidthMismatchError):
            miter(Circuit(1), Circuit(2))
