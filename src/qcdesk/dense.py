"""Ground-truth array backend: state vectors and strided gate kernels.

Gate kernels update the amplitude buffer in place. A gate on k qubits views
the buffer as 2^k strided blocks, one per basis value of its qubits, and
rewrites each block as the combination of blocks that the nonzeros of its
gate-matrix row name: diagonal gates only scale, permutation gates only copy.
The blocks are walked in slices of at most _SLICE amplitudes, so peak memory
is the buffer plus O(_SLICE) scratch.
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError
from .ir import Angle, Circuit, Gate, GateKind, gate_arity, gate_matrix, index_bits
from .ir import check_basis

MAX_STATE_QUBITS = 24
MAX_UNITARY_QUBITS = 10

_SLICE = 1 << 15  # amplitudes per kernel step


@dataclass
class StateVector:
    n: int
    amps: np.ndarray  # 2^n complex amplitudes, index = basis value with q_{n-1} msb

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))


def initial_state(n: int, basis: int = 0) -> StateVector:
    """The basis state |basis> on n qubits."""
    if n < 1:
        raise ValueError("need at least one qubit")
    if n > MAX_STATE_QUBITS:
        raise CapacityError(f"{n} qubits exceeds state-vector ceiling {MAX_STATE_QUBITS}")
    amps = np.zeros(2**n, dtype=complex)
    amps[basis] = 1.0
    return StateVector(n, amps)


@functools.lru_cache(maxsize=1024)
def _program(kind: GateKind, angle: Angle | None, first_is_lower: bool):
    """Sparse rows of a gate matrix, as steps over the kernel's blocks.

    Blocks are numbered in axis order (the higher qubit's bit most
    significant); gate_matrix numbers them with the first listed qubit most
    significant, which differs when that qubit is the lower one. Returns
    (rows, saved): each row is (out, terms) with terms (src, coeff, slot),
    diagonal term first; slot >= 0 reads the copy saved before the block was
    overwritten. Rows that are the identity are left out.
    """
    k = gate_arity(kind)
    m = gate_matrix(Gate(kind, tuple(range(k)), angle))
    if first_is_lower:
        m = m[np.ix_([0, 2, 1, 3], [0, 2, 1, 3])]
    # rows are written in ascending order, so a block read by a later row
    # must be saved before its own row overwrites it
    saved = tuple(c for c in range(2**k) if any(m[r, c] != 0 for r in range(c + 1, 2**k)))
    rows = []
    for r in range(2**k):
        cols = sorted(np.flatnonzero(m[r]).tolist(), key=lambda c: c != r)
        if cols == [r] and m[r, r] == 1:
            continue
        rows.append((r, tuple((c, complex(m[r, c]), saved.index(c) if c < r else -1) for c in cols)))
    return tuple(rows), saved


@functools.lru_cache(maxsize=1024)
def _block_indices(shape: tuple[int, ...], slice_amps: int) -> tuple[tuple[tuple, ...], ...]:
    """For a view of shape (hi, 2, lo) or (hi, 2, mid, 2, lo): per slice of at
    most slice_amps amplitudes, the index of each of its 2^k blocks."""
    k = len(shape) // 2
    free = shape[0::2]
    limit = slice_amps >> k
    # the innermost free axes that fit are taken whole, the next one is
    # stepped, the ones outside it are walked one index at a time
    axis, inner = len(free), 1
    while axis > 0 and inner * free[axis - 1] <= limit:
        axis -= 1
        inner *= free[axis]
    if axis == 0:
        pieces = [(slice(None),) * len(free)]
    else:
        step = limit // inner
        tail = (slice(None),) * (len(free) - axis)
        pieces = [
            outer + (slice(j, j + step),) + tail
            for outer in itertools.product(*map(range, free[: axis - 1]))
            for j in range(0, free[axis - 1], step)
        ]
    bits = list(itertools.product((0, 1), repeat=k))
    return tuple(
        tuple(sum(zip(p, b), ()) + (p[-1],) for b in bits) for p in pieces
    )


def _apply_in_place(buf: np.ndarray, g: Gate, n: int) -> None:
    """Apply g in place to a C-contiguous complex buffer of 2^n rows, one per
    basis value (q_{n-1} most significant), of buf.size / 2^n columns each;
    the column count is a power of two, so every slice has the same shape.

    A state vector is one column; a unitary under construction is 2^n.
    """
    qs = g.qubits
    width = buf.size >> n
    if len(qs) == 1:
        q = qs[0]
        shape = (1 << (n - 1 - q), 2, (1 << q) * width)
    else:
        hq, lq = max(qs), min(qs)
        shape = (1 << (n - 1 - hq), 2, 1 << (hq - lq - 1), 2, (1 << lq) * width)
    rows, saved = _program(g.kind, g.angle, qs[0] < qs[-1])
    if not rows:
        return
    view = buf.reshape(shape)
    indices = _block_indices(shape, _SLICE)
    # one slot per saved block, then one for the products of multi-term rows
    scratch = np.empty((len(saved) + 1,) + view[indices[0][0]].shape, dtype=buf.dtype)
    tmp = scratch[-1]
    for index in indices:
        blocks = [view[ix] for ix in index]
        for slot, c in enumerate(saved):
            np.copyto(scratch[slot], blocks[c])
        for r, terms in rows:
            dst = blocks[r]
            c, coeff, slot = terms[0]
            src = scratch[slot] if slot >= 0 else blocks[c]
            if coeff != 1:
                np.multiply(src, coeff, out=dst)
            elif src is not dst:
                np.copyto(dst, src)
            for c, coeff, slot in terms[1:]:
                src = scratch[slot] if slot >= 0 else blocks[c]
                np.multiply(src, coeff, out=tmp)
                dst += tmp


def apply_gate(s: StateVector, g: Gate) -> StateVector:
    """The state after g; s itself is left unchanged."""
    if any(q >= s.n for q in g.qubits):
        raise ValueError("gate qubit outside register")
    amps = np.array(s.amps, dtype=complex)
    _apply_in_place(amps, g, s.n)
    return StateVector(s.n, amps)


def simulate(c: Circuit, basis: int = 0) -> StateVector:
    """Run c on the basis state |basis>, updating one buffer gate by gate."""
    s = initial_state(c.num_qubits, basis)
    for g in c.gates:
        _apply_in_place(s.amps, g, s.n)
    return s


def amplitude(c: Circuit, bits: str) -> complex:
    check_basis(bits, c.num_qubits)
    return complex(simulate(c).amps[int(bits, 2)])


def measure_probabilities(s: StateVector) -> np.ndarray:
    return np.abs(s.amps) ** 2


def sample(s: StateVector, shots: int, seed: int) -> dict[str, int]:
    """Seeded i.i.d. measurement outcomes; returns only basis states that occur."""
    if shots < 1:
        raise ValueError("shots must be positive")
    probs = measure_probabilities(s)
    probs = probs / probs.sum()
    rng = np.random.default_rng(seed)
    counts = rng.multinomial(shots, probs)
    return {index_bits(i, s.n): int(counts[i]) for i in np.flatnonzero(counts).tolist()}


def circuit_unitary(c: Circuit) -> np.ndarray:
    """2^n x 2^n unitary of the whole circuit, later gates on the left."""
    n = c.num_qubits
    if n > MAX_UNITARY_QUBITS:
        raise CapacityError(f"{n} qubits exceeds unitary ceiling {MAX_UNITARY_QUBITS}")
    u = np.eye(2**n, dtype=complex)
    for g in c.gates:
        _apply_in_place(u, g, n)
    return u


def embedded_gate_unitary(g: Gate, n: int) -> np.ndarray:
    """Gate embedded in the n-qubit identity (n <= 10)."""
    return circuit_unitary(Circuit(n, (g,)))


def format_amplitude_dump(s: StateVector, keep: np.ndarray | None = None) -> str:
    """One '<bits> <re> <im>' line per basis state, or per index in keep
    (ascending), 17 significant digits. Zeros print as 0, never -0."""
    if keep is None:
        keep, amps = range(len(s.amps)), s.amps
    else:
        keep, amps = keep.tolist(), s.amps[keep]
    return "".join(
        f"{index_bits(i, s.n)} {a.real + 0.0:.17g} {a.imag + 0.0:.17g}\n"
        for i, a in zip(keep, amps.tolist())
    )
