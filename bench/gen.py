"""Seeded circuit families for the benchmark workloads.

Everything here is plain Python and independent of qcdesk: a gate is a tuple
``(name, qubits, angle)`` with the angle a Fraction in units of pi (or None),
and circuits reach the program only as QCF text written by ``render``.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from reference import gate_matrix, proportional

ONE_QUBIT = ("x", "y", "z", "h", "s", "sdg", "t", "tdg")
TWO_QUBIT = ("cx", "cz", "swap")
PARAMETRIC = ("rx", "rz")
# gates that can split one basis state into two; everything else maps a basis
# state to a multiple of one basis state
BRANCHING = frozenset({"h", "rx"})
ADJOINT = {"s": "sdg", "sdg": "s", "t": "tdg", "tdg": "t"}

PAIR_CLASSES = ("inverse_padded", "identity_rewritten", "gate_mutated", "phase_mutated")
EQUIVALENT_CLASSES = frozenset({"inverse_padded", "identity_rewritten"})


def random_angle(rng: random.Random) -> Fraction:
    """k/2^m of pi with k odd, so never 0 and never a multiple of pi."""
    m = rng.choice((1, 2, 3))
    return Fraction(rng.randrange(-(2**m) + 1, 2**m, 2), 2**m)


def random_gate(rng: random.Random, n: int, branching: bool = True) -> tuple:
    while True:
        r = rng.random()
        if r < 0.25:
            g = (rng.choice(TWO_QUBIT), tuple(rng.sample(range(n), 2)), None)
        elif r < 0.45:
            g = (rng.choice(PARAMETRIC), (rng.randrange(n),), random_angle(rng))
        else:
            g = (rng.choice(ONE_QUBIT), (rng.randrange(n),), None)
        if branching or g[0] not in BRANCHING:
            return g


def random_circuit(rng: random.Random, n: int, count: int, max_branching: int | None = None) -> list:
    gates = []
    budget = count if max_branching is None else max_branching
    for _ in range(count):
        g = random_gate(rng, n, branching=budget > 0)
        budget -= g[0] in BRANCHING
        gates.append(g)
    return gates


def layered_circuit(rng: random.Random, n: int, count: int, max_branching: int | None = None) -> list:
    """Brickwork: a random one-qubit gate on every qubit, then two-qubit gates on
    alternating neighbour pairs; truncated to `count` gates."""
    gates = []
    layer = 0
    budget = count if max_branching is None else max_branching
    while len(gates) < count:
        for q in range(n):
            while True:
                if rng.random() < 0.2:
                    g = (rng.choice(PARAMETRIC), (q,), random_angle(rng))
                else:
                    g = (rng.choice(ONE_QUBIT), (q,), None)
                if budget > 0 or g[0] not in BRANCHING:
                    break
            budget -= g[0] in BRANCHING
            gates.append(g)
        for q in range(layer % 2, n - 1, 2):
            pair = (q, q + 1) if rng.random() < 0.5 else (q + 1, q)
            gates.append((rng.choice(TWO_QUBIT), pair, None))
        layer += 1
    return gates[:count]


def adjoint(gates: list) -> list:
    out = []
    for name, qubits, angle in reversed(gates):
        if name in PARAMETRIC:
            out.append((name, qubits, -angle))
        else:
            out.append((ADJOINT.get(name, name), qubits, None))
    return out


def render(n: int, gates: list) -> str:
    lines = [f"qubits {n}"]
    for name, qubits, angle in gates:
        parts = [name]
        if angle is not None:
            parts.append(str(angle.numerator) if angle.denominator == 1 else f"{angle.numerator}/{angle.denominator}")
        parts.extend(str(q) for q in qubits)
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


# ---- fixed families --------------------------------------------------------


def ghz(n: int) -> list:
    return [("h", (n - 1,), None)] + [("cx", (q, q - 1), None) for q in range(n - 1, 0, -1)]


def qft_ladder(n: int, x_bits: str, band: int) -> list:
    """Banded QFT on the basis state |x_bits>: per qubit an h, then controlled
    phases pi/2^d from the `band` qubits below it, each written as
    ``rz t/2 c; rz t/2 q; cx c q; rz -t/2 q; cx c q`` (t = 1/2^d of pi)."""
    gates = [("x", (n - 1 - i,), None) for i, b in enumerate(x_bits) if b == "1"]
    for q in range(n - 1, -1, -1):
        gates.append(("h", (q,), None))
        for d in range(1, band + 1):
            c = q - d
            if c < 0:
                break
            half = Fraction(1, 2 ** (d + 1))
            gates += [
                ("rz", (c,), half),
                ("rz", (q,), half),
                ("cx", (c, q), None),
                ("rz", (q,), -half),
                ("cx", (c, q), None),
            ]
    return gates


# ---- equivalence pairs -----------------------------------------------------


def _rewrite(g: tuple) -> list:
    """Identities that hold up to global phase; swap and y defeat the ZX rules."""
    name, q, _ = g
    if name == "swap":
        a, b = q
        return [("cx", (a, b), None), ("cx", (b, a), None), ("cx", (a, b), None)]
    if name == "y":  # Y = -i Z X
        return [("x", q, None), ("z", q, None)]
    if name == "cz":
        a, b = q
        return [("h", (b,), None), ("cx", (a, b), None), ("h", (b,), None)]
    if name == "s":
        return [("t", q, None), ("t", q, None)]
    return [g]


def _mutation(rng: random.Random, g: tuple) -> tuple:
    """A different gate on the same qubits whose matrix is not a multiple of g's,
    so the mutated circuit cannot be equivalent."""
    name, q, _ = g
    if len(q) == 2:
        pool = [(k, q, None) for k in TWO_QUBIT]
    else:
        pool = [(k, q, None) for k in ONE_QUBIT] + [(k, q, random_angle(rng)) for k in PARAMETRIC]
    m = gate_matrix(g)
    pool = [c for c in pool if not proportional(gate_matrix(c), m)]
    return rng.choice(pool)


def make_pair(
    rng: random.Random, n: int, count: int, cls: str, at_start: bool = False
) -> tuple[list, list]:
    """(c1, c2) of the given class; `at_start` puts a phase mutation first."""
    c1 = layered_circuit(rng, n, count)
    if cls == "inverse_padded":
        pos = rng.randrange(len(c1) + 1)
        shift = rng.randrange(n - 2)  # a brickwork block on three neighbouring qubits
        block = [(k, tuple(q + shift for q in qs), a) for k, qs, a in layered_circuit(rng, 3, 8)]
        return c1, c1[:pos] + block + adjoint(block) + c1[pos:]
    if cls == "identity_rewritten":
        for name in ("swap", "y"):  # make sure both ZX-hard identities occur
            if not any(g[0] == name for g in c1):
                q = tuple(rng.sample(range(n), 2 if name == "swap" else 1))
                c1.insert(rng.randrange(len(c1) + 1), (name, q, None))
        return c1, [h for g in c1 for h in _rewrite(g)]
    if cls == "gate_mutated":
        i = rng.randrange(len(c1))
        return c1, c1[:i] + [_mutation(rng, c1[i])] + c1[i + 1 :]
    if cls == "phase_mutated":
        pos = rng.randrange(len(c1) + 1)
        kind = rng.choice(("z", "s", "cz"))
        if at_start:
            pos, kind = 0, "z"
        q = tuple(rng.sample(range(n), 2 if kind == "cz" else 1))
        return c1, c1[:pos] + [(kind, q, None)] + c1[pos:]
    raise ValueError(f"unknown pair class {cls!r}")


# ---- workloads -------------------------------------------------------------


@dataclass
class Job:
    """One CLI invocation; `files` name circuits of the workload."""

    verb: str  # "<verb>.<backend>" label used for per-verb timings
    args: list[str]
    files: list[str]
    basis: str | None = None  # appended as --basis; None until the reference picks it

    def argv(self, directory) -> list[str]:
        basis = ["--basis", self.basis] if self.basis is not None else []
        return self.args + basis + [str(directory / f) for f in self.files]


@dataclass
class Workload:
    circuits: dict[str, tuple[int, list]] = field(default_factory=dict)
    jobs: list[Job] = field(default_factory=list)
    # pair name -> (class, file1, file2)
    pairs: dict[str, tuple[str, str, str]] = field(default_factory=dict)

    def write(self, directory) -> None:
        for name, (n, gates) in self.circuits.items():
            (directory / name).write_text(render(n, gates))


STATEVECTOR_QUBITS = 20
STATEVECTOR_GATES = 200
STATEVECTOR_SUPERPOSED = 15
SAMPLE_SHOTS = 10_000
EQUIV_SIZES = (6, 8, 10)
EQUIV_GATES = 60
EQUIV_WIDE = 11  # past dense.MAX_UNITARY_QUBITS: no dense, and verify's witness search
EQUIV_WIDE_GATES = 24  # that search simulates both circuits on all 2^11 inputs
UNITARY_CEILING = 10
AMPLITUDE_QFT_SIZES = (16, 20, 24)
AMPLITUDE_WIDE = 24
QFT_BAND = 3
WIDE_RANDOM_GATES = 200
WIDE_RANDOM_BRANCHING = 12


def statevector(seed: int) -> Workload:
    rng = random.Random(f"statevector:{seed}")
    w = Workload()
    n = STATEVECTOR_QUBITS
    # h on a fixed number of qubits, then phase and permutation gates only:
    # exactly 2^k amplitudes are nonzero, so simulate prints the same number
    # of lines on every seed (with h/rx throughout, 8k to 1M lines by seed).
    k = STATEVECTOR_SUPERPOSED
    gates = [("h", (q,), None) for q in sorted(rng.sample(range(n), k))]
    gates += random_circuit(rng, n, STATEVECTOR_GATES - k, max_branching=0)
    w.circuits["sv.qcf"] = (n, gates)
    w.jobs = [
        Job("simulate.dense", ["simulate", "--backend", "dense"], ["sv.qcf"]),
        Job("sample.dense", ["sample", "--shots", str(SAMPLE_SHOTS), "--seed", str(seed)], ["sv.qcf"]),
        Job("amplitude.dense", ["amplitude", "--backend", "dense"], ["sv.qcf"]),
    ]
    return w


def equivalence(seed: int) -> Workload:
    rng = random.Random(f"equivalence:{seed}")
    w = Workload()
    specs = [(n, cls) for n in EQUIV_SIZES for cls in PAIR_CLASSES]
    # A z before the first gate makes every basis input give outputs equal up
    # to a phase, so verify's witness search past the unitary ceiling scans
    # all 2^n inputs: its worst case, and the same amount of work on every seed.
    specs.append((EQUIV_WIDE, "phase_mutated"))
    for k, (n, cls) in enumerate(specs):
        wide = n > UNITARY_CEILING
        c1, c2 = make_pair(rng, n, EQUIV_WIDE_GATES if wide else EQUIV_GATES, cls, at_start=wide)
        name = f"p{k:02d}_{cls}_{n}"
        f1, f2 = f"{name}_a.qcf", f"{name}_b.qcf"
        w.circuits[f1] = (n, c1)
        w.circuits[f2] = (n, c2)
        w.pairs[name] = (cls, f1, f2)
        methods = ("dd", "zx", "dense") if n <= UNITARY_CEILING else ("dd", "zx")
        for m in methods:
            w.jobs.append(Job(f"verify.{m}", ["verify", "--method", m], [f1, f2]))
    return w


def amplitude(seed: int) -> Workload:
    rng = random.Random(f"amplitude:{seed}")
    w = Workload()
    n = AMPLITUDE_WIDE
    w.circuits["ghz.qcf"] = (n, ghz(n))
    queries = [("ghz.qcf", rng.choice(("0" * n, "1" * n)))]
    for m in AMPLITUDE_QFT_SIZES:
        ones = set(rng.sample(range(m), m // 2))  # fixed count: x gates add tensors
        x = "".join("1" if i in ones else "0" for i in range(m))
        name = f"qft{m}_{x}.qcf"  # the input basis state is part of the name
        w.circuits[name] = (m, qft_ladder(m, x, QFT_BAND))
        queries.append((name, format(rng.randrange(2**m), f"0{m}b")))
    w.circuits["wide.qcf"] = (n, layered_circuit(rng, n, WIDE_RANDOM_GATES, WIDE_RANDOM_BRANCHING))
    queries.append(("wide.qcf", None))  # basis picked from the reference support
    for name, basis in queries:
        for backend in ("tn", "dd"):
            w.jobs.append(Job(f"amplitude.{backend}", ["amplitude", "--backend", backend], [name], basis))
    return w


def warmup(seed: int) -> Workload:
    """Tiny circuits that touch every verb and backend once, for set-up."""
    rng = random.Random(f"warmup:{seed}")
    w = Workload()
    c1, c2 = make_pair(rng, 3, 12, "inverse_padded")
    w.circuits["w_a.qcf"] = (3, c1)
    w.circuits["w_b.qcf"] = (3, c2)
    return w


WORKLOADS = {"statevector": statevector, "equivalence": equivalence, "amplitude": amplitude}

