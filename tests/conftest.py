"""Shared test oracles, one definition each: seeded random circuits and
hypothesis circuit strategies, reference circuits, the reference amplitude
dump, the DD node-count oracle, a vector DD builder, a ZX Hadamard-edge count,
every contraction plan, traced memory peaks, and the seeded differential
corpus that every backend is checked against."""
import functools
import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import strategies as st

from qcdesk import cli, dd, verify, zx
from qcdesk.errors import CapacityError
from qcdesk.ir import Angle, Circuit, Gate, GateKind, Miter, adjoint_circuit, gate_arity

INV_SQRT2 = 1.0 / math.sqrt(2.0)
BELL_AMPS = np.array([1, 0, 0, 1]) * INV_SQRT2  # bell_circuit's state
H_MAT = np.array([[1, 1], [1, -1]], dtype=complex) * INV_SQRT2

SINGLE_QUBIT_KINDS = [
    GateKind.X,
    GateKind.Y,
    GateKind.Z,
    GateKind.H,
    GateKind.S,
    GateKind.SDG,
    GateKind.T,
    GateKind.TDG,
]
TWO_QUBIT_KINDS = [GateKind.CX, GateKind.CZ, GateKind.SWAP]
PARAMETRIC_KINDS = [GateKind.RX, GateKind.RZ]


def random_gate(rng: random.Random, n: int) -> Gate:
    r = rng.random()
    if r < 0.25 and n >= 2:
        return Gate(rng.choice(TWO_QUBIT_KINDS), tuple(rng.sample(range(n), 2)))
    if r < 0.45:
        angle = Angle(rng.randrange(-8, 8), rng.choice([1, 2, 3, 4, 8]))
        return Gate(rng.choice(PARAMETRIC_KINDS), (rng.randrange(n),), angle)
    return Gate(rng.choice(SINGLE_QUBIT_KINDS), (rng.randrange(n),))


def random_circuit(rng: random.Random, n: int, depth: int) -> Circuit:
    return Circuit(n, tuple(random_gate(rng, n) for _ in range(depth)))


def mutate_one_gate(rng: random.Random, c: Circuit) -> Circuit:
    """c with a random gate swapped for h, or x where it was h: a provably different unitary."""
    i = rng.randrange(len(c.gates))
    g = c.gates[i]
    kind = GateKind.X if g.kind == GateKind.H else GateKind.H
    return Circuit(c.num_qubits, c.gates[:i] + (Gate(kind, (g.qubits[0],)),) + c.gates[i + 1 :])


def uncancelled(c1: Circuit, c2: Circuit) -> Miter:
    """c1 then adjoint_circuit(c2) with no pair cancelled."""
    return Miter(Circuit(c1.num_qubits, c1.gates + adjoint_circuit(c2).gates), len(c1.gates))


def bell_circuit() -> Circuit:
    # H and control on qubit 1 so the more significant line drives the CNOT
    return Circuit(2, (Gate(GateKind.H, (1,)), Gate(GateKind.CX, (1, 0))))


def ghz_circuit(n: int) -> Circuit:
    gates = [Gate(GateKind.H, (n - 1,))]
    for q in range(n - 1, 0, -1):
        gates.append(Gate(GateKind.CX, (q, q - 1)))
    return Circuit(n, tuple(gates))


def bell_times_plus(n: int) -> Circuit:
    """A Bell pair on the top two qubits, |+> below: both top branches share
    the node below them, which the expander keeps for its second parent."""
    top = (Gate(GateKind.H, (n - 1,)), Gate(GateKind.CX, (n - 1, n - 2)))
    return Circuit(n, top + tuple(Gate(GateKind.H, (q,)) for q in range(n - 2)))


def format_then_filter(amps: np.ndarray, n: int, full: bool) -> str:
    """The dump as first formatted in full and then filtered on its own text."""
    lines = [f"{format(i, f'0{n}b')} {a.real:.17g} {a.imag:.17g}" for i, a in enumerate(amps)]
    return "".join(
        ln + "\n"
        for ln in lines
        if full or abs(complex(*map(float, ln.split()[1:]))) > cli._COMPACT_EPS
    )


def dump_amplitudes(seed: int, n: int, distinct: int) -> np.ndarray:
    """2^n amplitudes whose parts are drawn from `distinct` random values
    (either sign, magnitudes 1e-330 to 10, so subnormals and underflowed zeros
    too) and from -0.0, 0.0, +-5e-324 and values on and just around the compact
    threshold."""
    rng = np.random.default_rng(seed)
    eps = cli._COMPACT_EPS
    special = [0.0, -0.0, 5e-324, -5e-324, eps, -eps, np.nextafter(eps, 0), np.nextafter(eps, 1), 0.6 * eps]
    pool = np.concatenate([rng.choice([-1.0, 1.0], distinct) * 10.0 ** rng.uniform(-330, 1, distinct), special])
    return rng.choice(pool, 2 ** (n + 1)).view(complex)


# DD strategies draw angles down to pi / 2^4 only: a finer rx can leave a
# first entry near 1e-8 that normalizes a node to weights near 1e8, and the
# DD then drops a block (ROADMAP item 4, exact numerics).
DD_POWER = 4


@functools.lru_cache(maxsize=None)
def _angles(power: int):
    """k pi / d with |k| <= 16 and d a power of two from 1 down to 2^power, or
    odd (3, 5, 7), all equally likely; shrinking goes to 0."""
    dens = tuple(2**m for m in range(power + 1)) + (3, 5, 7)
    return st.sampled_from(tuple(Angle(k, d) for d in dens for k in sorted(range(-16, 17), key=abs)))


@functools.lru_cache(maxsize=None)
def _placements(n: int, arity: int):
    """The qubits of a gate on n qubits, a pair in either order."""
    return st.sampled_from(tuple(itertools.permutations(range(n), arity)))


def draw_gate(draw, kind: GateKind, n: int, power: int = 60) -> Gate:
    """A gate of this kind on n qubits; rx and rz take an angle of _angles(power)."""
    angle = draw(_angles(power)) if kind in PARAMETRIC_KINDS else None
    return Gate(kind, draw(_placements(n, gate_arity(kind))), angle)


def draw_gates(draw, n: int, kinds, max_gates: int, power: int = 60) -> list[Gate]:
    """0 to max_gates gates of those kinds that fit on n qubits (see draw_gate)."""
    kinds = st.sampled_from([k for k in kinds if gate_arity(k) <= n])
    return [draw_gate(draw, draw(kinds), n, power) for _ in range(draw(st.integers(0, max_gates)))]


@st.composite
def gates_on(draw, kind: GateKind, n_max: int = 6):
    """(gate, n): a gate of this kind on n <= n_max qubits."""
    n = draw(st.integers(gate_arity(kind), n_max))
    return draw_gate(draw, kind, n), n


@st.composite
def circuits_on(draw, n: int, max_gates: int = 25, power: int = 60):
    """Circuits on n qubits over every gate kind (see draw_gates)."""
    return Circuit(n, tuple(draw_gates(draw, n, list(GateKind), max_gates, power)))


@st.composite
def circuits(draw, n_max: int = 6, max_gates: int = 30):
    """Circuits on 1..n_max qubits over every gate kind."""
    return draw(circuits_on(draw(st.integers(1, n_max)), max_gates))


MONOMIAL_KINDS = [GateKind.X, GateKind.CX, GateKind.SWAP, GateKind.CZ, GateKind.S, GateKind.T, GateKind.RZ]


@st.composite
def product_then_monomial_circuits(draw, n_max: int = 12):
    """h or rx on k of n qubits (k drawn from 0..n, so the product start's
    support falls on both sides of an eighth), one-qubit gates of every kind,
    then permutation and phase gates only: every block after the start is
    monomial."""
    n = draw(st.integers(1, n_max))
    superposed = draw(st.permutations(range(n)))[: draw(st.integers(0, n))]
    gates = [draw_gate(draw, draw(st.sampled_from([GateKind.H, GateKind.RX])), 1) for _ in superposed]
    gates = [Gate(g.kind, (q,), g.angle) for g, q in zip(gates, superposed)]
    one_qubit = [k for k in GateKind if gate_arity(k) == 1]
    return Circuit(n, tuple(gates + draw_gates(draw, n, one_qubit, n) + draw_gates(draw, n, MONOMIAL_KINDS, 30)))


@st.composite
def monomial_prefixed_circuits(draw, n_max: int = 6):
    """Permutation and phase gates, then gates of every kind."""
    n = draw(st.integers(1, n_max))
    gates = draw_gates(draw, n, MONOMIAL_KINDS, 20) + draw_gates(draw, n, list(GateKind), 10)
    return Circuit(n, tuple(gates))


def reference_node_count(amps) -> int:
    """The node count a canonical vector DD of amps must have: recursive
    halving with first-nonzero normalization, counting distinct (level,
    normalized successor) signatures."""
    amps = np.asarray(amps, dtype=complex)
    nodes: dict = {}

    def build(vec, level):
        if level < 0:
            w = complex(vec[0])
            return (w, None) if abs(w) > 1e-12 else (0j, None)
        half = len(vec) // 2
        w0, k0 = build(vec[:half], level - 1)
        w1, k1 = build(vec[half:], level - 1)
        if w0 == 0 and w1 == 0:
            return (0j, None)
        norm = w0 if w0 != 0 else w1
        a, b = w0 / norm, w1 / norm
        sig = (level, round(a.real, 10), round(a.imag, 10), k0, round(b.real, 10), round(b.imag, 10), k1)
        return (norm, nodes.setdefault(sig, len(nodes)))

    build(amps, int(math.log2(len(amps))) - 1)
    return len(nodes)


def vector_dd(backend: dd.DDBackend, amps) -> dd.VectorDD:
    """The vector DD of 2^n amplitudes, built bottom-up through the backend's
    _make_node: each level pairs adjacent edges of the level below."""
    edges = [dd.ZERO_EDGE if dd._is_zero(w) else dd.DDEdge(w, None) for w in np.asarray(amps, dtype=complex).tolist()]
    n = len(edges).bit_length() - 1
    for level in range(n):
        edges = [backend._make_node(level, edges[k : k + 2]) for k in range(0, len(edges), 2)]
    return dd.VectorDD(n, edges[0])


def hadamard_edges(d: zx.ZXDiagram) -> int:
    return sum(kind == zx.HADAMARD for _, _, kind in d.edges())


def all_plans(num_tensors: int):
    """Every valid pairwise contraction order over the given tensor ids."""

    def rec(ids, next_id):
        if len(ids) == 1:
            yield []
            return
        for x, y in itertools.combinations(sorted(ids), 2):
            for tail in rec((ids - {x, y}) | {next_id}, next_id + 1):
                yield [(x, y)] + tail

    yield from rec(set(range(num_tensors)), num_tensors)


def traced_peak(fn) -> int:
    """Traced peak bytes while fn() runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def peak_until_raises(fn, exc=CapacityError) -> int:
    """Traced peak bytes of fn(), which must raise exc."""

    def raising():
        with pytest.raises(exc):
            fn()

    return traced_peak(raising)


@pytest.fixture(scope="session")
def differential_corpus() -> list[tuple[Circuit, dict]]:
    """200 seeded random circuits (1-6 qubits, 0-20 gates), each with the state
    of every STATE backend, keyed by BackendId: computed once per session."""
    rng = random.Random(6)
    corpus = []
    for _ in range(200):
        n = rng.randrange(1, 7)
        c = random_circuit(rng, n, rng.randrange(0, 21))
        corpus.append((c, {b: state(c).amps for b, state in verify.STATE.items()}))
    return corpus
