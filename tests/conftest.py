"""Shared helpers: seeded random circuit generation, reference circuits and
the reference amplitude dump."""
import random

import numpy as np

from qcdesk import cli
from qcdesk.ir import Angle, Circuit, Gate, GateKind

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


def bell_circuit() -> Circuit:
    # H and control on qubit 1 so the more significant line drives the CNOT
    return Circuit(2, (Gate(GateKind.H, (1,)), Gate(GateKind.CX, (1, 0))))


def ghz_circuit(n: int) -> Circuit:
    gates = [Gate(GateKind.H, (n - 1,))]
    for q in range(n - 1, 0, -1):
        gates.append(Gate(GateKind.CX, (q, q - 1)))
    return Circuit(n, tuple(gates))


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
