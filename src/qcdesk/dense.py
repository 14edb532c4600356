"""Ground-truth array backend: state vectors and strided gate kernels.

simulate and circuit_unitary fill one buffer of 2^n rows (one column for a
state, 2^n for a unitary) in few passes. It starts as the Kronecker product of
one 2x2 factor per qubit, the one-qubit gates before its first two-qubit gate
(for a state, the column at the input's bit). A later gate joins the latest
block on its qubits (no later block touches them) if the two span at most two
qubits and their structural product has at most the denser one's nonzeros per row.

The kernel applies one block in place. A block on k qubits views the buffer
as 2^k strided blocks, one per basis value of its qubits, and rewrites each as
the combination of blocks that the nonzeros of its matrix row name: diagonal
blocks only scale, permutation blocks only copy. The blocks are walked in
slices of at most _SLICE amplitudes, so the kernel needs O(_SLICE) scratch.

A block with one nonzero per row (a permutation times phases) sends each
amplitude to one place. While the leading blocks are such and the product
start's support (its factors' nonzero counts multiplied) is at most
_SUPPORT_SHARE of the buffer, they run on the support alone, as (index, value)
arrays gathered at the Kronecker sum of the factors' nonzero offsets. Every
permutation of one or two bits is an affine map over GF(2), so the run moves
each index bit to an affine function of the start's bits. Each qubit's bit is
kept as such a form, an int, and a block's permutation rewrites the forms of
its qubits: O(n) bookkeeping, with no pass over the support. A block with a
phase other than 1 reads its qubits' current bits from their forms, one pass,
and scales the values as the kernel would, to the bit. The final index array
is built once and the values scattered once. Before it allocates, _fill
reserves (errors.reserve) what it holds at its peak: 16 bytes per amplitude of
the buffer, plus the larger of the kernel's scratch (at most 2^k + 1 blocks of
_SLICE >> k amplitudes, so 24 * _SLICE bytes) and 64 bytes per support entry
(so at most half the buffer again; the support arrays take 56).

format_amplitude_dump takes the printed indices in chunks of at most _SLICE.
In each chunk it formats every distinct real and imaginary part once
(np.unique) and gathers the strings back, and it gathers the bit labels from
two tables of 2^(n/2) halves, so its scratch is O(_SLICE) beyond the text.
sample draws the multinomial over the support (the nonzero probabilities),
each divided by the full array's sum, so each is the full draw's to the bit.
numpy's binomial step draws nothing for a zero probability, so the counts
equal the full draw's, with one exception: that draw gives its last category
the remainder, so when the last basis state has probability 0 it could land
there the shots that rounding (about 1e-16 per shot) held back from the last
nonzero one, which gets them here.
"""
from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import reserve
from .ir import Angle, Circuit, Gate, GateKind, check_basis, gate_arity, gate_matrix, index_bits

_SLICE = 1 << 15  # amplitudes per kernel step
_SUPPORT_SHARE = 1 / 8  # largest support, as a share of the buffer, run as index arrays
_I2 = np.eye(2, dtype=complex)


@dataclass
class StateVector:
    n: int
    amps: np.ndarray  # 2^n complex amplitudes, index = basis value with q_{n-1} msb

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))


@dataclass
class _Block:  # gates fused into one kernel pass
    qubits: tuple[int, ...]  # descending; the first one's bit is most significant
    stack: np.ndarray  # [the product of the gates, its structural nonzeros as 0/1]
    density: int  # most nonzeros in a row of stack[1]


@functools.lru_cache(maxsize=1024)
def _local_stack(kind: GateKind, angle: Angle | None, first_is_lower: bool):
    """(stack, density) of a gate with the higher qubit's bit most significant;
    gate_matrix puts the first listed qubit's there."""
    m = gate_matrix(Gate(kind, tuple(range(gate_arity(kind))), angle))
    m = m[np.ix_([0, 2, 1, 3], [0, 2, 1, 3])] if first_is_lower else m
    stack = np.stack([m, m != 0])
    stack.flags.writeable = False  # cached: every block of this gate shares it
    return stack, int(np.count_nonzero(m, axis=1).max())


def _gate_block(g: Gate) -> _Block:
    stack, density = _local_stack(g.kind, g.angle, g.qubits[0] < g.qubits[-1])
    return _Block(tuple(sorted(g.qubits, reverse=True)), stack, density)


def _embed(b: _Block, onto: tuple[int, ...]) -> np.ndarray:
    """b's stack over onto, a superset of its qubits: kron(B, I) or kron(I, B)."""
    if b.qubits == onto:
        return b.stack
    x, y = (b.stack, _I2) if b.qubits[0] == onto[0] else (_I2, b.stack)
    return (x[..., :, None, :, None] * y[..., None, :, None, :]).reshape(2, 4, 4)


def _fuse(b: _Block, g: _Block) -> bool:
    """Fold g, applied after b, into b if the rule in the module doc allows it."""
    onto = tuple(sorted({*b.qubits, *g.qubits}, reverse=True))
    if len(onto) > 2:
        return False
    stack = _embed(g, onto) @ _embed(b, onto)
    stack[1] = stack[1] != 0
    density = int(stack[1].real.sum(1).max())
    if density > max(b.density, g.density):
        return False
    b.qubits, b.stack, b.density = onto, stack, density
    return True


def _plan(c: Circuit) -> tuple[list[np.ndarray], list[_Block]]:
    """c's product-start factors (2x2, one per qubit) and fused blocks in order."""
    factors = [_I2] * c.num_qubits
    blocks: list[_Block] = []
    last: dict[int, int] = {}  # qubit -> index of the latest block on it
    for g in c.gates:
        b = _gate_block(g)
        if len(b.qubits) == 1 and b.qubits[0] not in last:
            factors[b.qubits[0]] = b.stack[0] @ factors[b.qubits[0]]
            continue
        j = max((last[q] for q in b.qubits if q in last), default=None)
        if j is None or not _fuse(blocks[j], b):
            j = len(blocks)
            blocks.append(b)
        for q in b.qubits:  # the block's other qubit may have a later block
            last[q] = j
    return factors, blocks


@functools.lru_cache(maxsize=1024)
def _program(entries: tuple[complex, ...]):
    """Sparse rows of a block matrix (row-major, axis order) as steps over the
    kernel's blocks: (rows, saved). Each row is (out, terms) with terms (src,
    coeff, slot), diagonal term first; slot >= 0 reads the copy saved before
    the block was overwritten. Rows that are the identity are left out."""
    d = 2 if len(entries) == 4 else 4
    m = [entries[r * d : (r + 1) * d] for r in range(d)]
    # rows are written in ascending order, so a block read by a later row
    # must be saved before its own row overwrites it
    saved = tuple(c for c in range(d) if any(m[r][c] for r in range(c + 1, d)))
    rows = []
    for r in range(d):
        cols = sorted((c for c in range(d) if m[r][c]), key=lambda c: c != r)
        if cols == [r] and m[r][r] == 1:
            continue
        rows.append((r, tuple((c, m[r][c], saved.index(c) if c < r else -1) for c in cols)))
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


def _apply_block(buf: np.ndarray, qubits: tuple[int, ...], m: np.ndarray, n: int) -> None:
    """Apply m, a matrix over qubits in axis order, in place to a C-contiguous
    complex buffer of 2^n rows, one per basis value (q_{n-1} most significant),
    of buf.size / 2^n columns each: 1 for a state, 2^n for a unitary. The
    column count is a power of two, so every slice has the same shape."""
    rows, saved = _program(tuple(m.ravel().tolist()))
    if not rows:
        return
    shape, top = (), n  # (hi, 2, lo) or (hi, 2, mid, 2, lo)
    for q in qubits:
        shape, top = shape + (1 << (top - 1 - q), 2), q
    shape += ((1 << top) * (buf.size >> n),)
    view = buf.reshape(shape)
    indices = _block_indices(shape, _SLICE)
    # one slot per saved block, then one for products: a multi-term row's, and a
    # moved block's if lo = 1. Then the blocks interleave, and numpy rounds a
    # product whose output interleaves with its input apart (off its vector loop)
    scratch = np.empty((len(saved) + 1,) + view[indices[0][0]].shape, dtype=buf.dtype)
    tmp = scratch[-1]
    interleaved = shape[-1] == 1
    for index in indices:
        blocks = [view[ix] for ix in index]
        for slot, c in enumerate(saved):
            np.copyto(scratch[slot], blocks[c])
        for r, terms in rows:
            dst = blocks[r]
            c, coeff, slot = terms[0]
            src = scratch[slot] if slot >= 0 else blocks[c]
            if coeff != 1:
                src = np.multiply(src, coeff, out=tmp if interleaved and src is not dst else dst)
            if src is not dst:
                np.copyto(dst, src)
            for c, coeff, slot in terms[1:]:
                src = scratch[slot] if slot >= 0 else blocks[c]
                np.multiply(src, coeff, out=tmp)
                dst += tmp


def _fill(c: Circuit, basis: int | None, what: str) -> np.ndarray:
    """c's unitary, or only its column basis, in a new buffer of 2^n rows. The
    product start grows level by level: the new blocks are written from the
    block built so far, which is scaled last."""
    n = c.num_qubits
    factors, blocks = _plan(c)
    if basis is not None:
        factors = [f[:, (basis >> q) & 1, None] for q, f in enumerate(factors)]
    shape = (2**n,) if basis is not None else (2**n, 2**n)
    run = list(itertools.takewhile(lambda b: b.density == 1, blocks))
    support = math.prod(map(np.count_nonzero, factors))
    if not run or support > math.prod(shape) * _SUPPORT_SHARE:
        run, support = [], 0
    reserve(16 * math.prod(shape) + max(24 * _SLICE, 64 * support), what)
    buf = np.zeros(shape, dtype=complex)
    grid = buf.reshape(len(buf), -1)
    grid[0, 0] = rows = cols = 1
    for f in factors:  # factor q on bit q
        old = grid[:rows, :cols]
        for i, j in itertools.product(*map(range, f.shape)):
            if (i, j) != (0, 0) and f[i, j] != 0:
                np.multiply(old, f[i, j], out=grid[i * rows : (i + 1) * rows, j * cols : (j + 1) * cols])
        if f[0, 0] != 1:
            old *= f[0, 0]
        rows, cols = rows * f.shape[0], cols * f.shape[1]
    if run:
        _run_on_support(buf.reshape(-1), factors, run, n)
    for b in blocks[len(run):]:
        _apply_block(buf, b.qubits, b.stack[0], n)
    return buf


def _run_on_support(flat: np.ndarray, factors: list[np.ndarray], run: list[_Block], n: int) -> None:
    """Apply the monomial blocks run to the support of flat, the product start
    of factors, as the module doc says."""
    shift = flat.size.bit_length() - 1 - n  # qubit q is row bit q, flat bit q + shift
    # factor q's nonzeros, in the order the support lists them: (row bit, column offset)
    starts = [[(i, j << q) for i, j in zip(*np.nonzero(f))] for q, f in enumerate(factors)]
    forms = [2 << q for q in range(n)]  # each qubit's bit is the start's
    idx = _read(starts, forms, np.empty(math.prod(map(len, starts)), dtype=np.intp), shift)
    vals, flat[idx] = flat[idx], 0
    # every phase block reuses these: a new array per block, its pages faulted
    # in afresh, took longer than the multiply itself
    scaled, spare = np.empty_like(vals), np.empty_like(vals)
    for b in run:
        cols = b.stack[0].T.tolist()
        perm = [next(r for r, x in enumerate(col) if x) for col in cols]  # local value -> its row
        coef = [col[r] for col, r in zip(cols, perm)]
        old = [forms[q] for q in reversed(b.qubits)]  # local bit t is old[t]
        if coef != [1] * len(coef):  # vals first and a separate output, as the kernel's src * coeff:
            # `vals *=` on one entry and `vals * temporary` (numpy may swap it) round apart
            # the indices are in range; "clip" skips the copy that take's bounds check makes
            np.take(coef, _read(starts, old, idx), out=scaled, mode="clip")
            vals, spare = np.multiply(vals, scaled, out=spare), vals
        # perm is affine: bit t of perm[x] is bit t of perm[0], plus x_s for each
        # s whose unit vector perm moves onto a value with bit t set
        for t, q in enumerate(reversed(b.qubits)):
            forms[q] = perm[0] >> t & 1
            for s, form in enumerate(old):
                if (perm[1 << s] ^ perm[0]) >> t & 1:
                    forms[q] ^= form
    flat[_read(starts, forms, idx, shift)] = vals


def _read(starts: list[list[tuple[int, int]]], forms: list[int], out: np.ndarray, shift: int | None = None) -> np.ndarray:
    """Evaluate forms on every support entry, into out: bit t of an entry's
    result is forms[t] (bit 0 a constant, bit q + 1 the coefficient of the
    start's row bit q) over GF(2). With a shift, bit t goes to bit t + shift and
    the entry's column offset is added: its flat index. Each factor's nonzeros
    contribute offsets that are XORed, in the support's Kronecker order."""
    at = 0 if shift is None else shift
    # the start bits any form reads; all of them with a shift, whose forms are invertible
    spread = functools.reduce(operator.or_, forms, 0) >> 1
    value = sum((form & 1) << (t + at) for t, form in enumerate(forms))
    steps = []  # (count, offsets) per factor; all-zero offsets repeat the entries
    for q, nonzeros in enumerate(starts):
        offsets = [0] * len(nonzeros)
        if spread >> q & 1:
            image = sum((form >> (q + 1) & 1) << (t + at) for t, form in enumerate(forms))
            offsets = [(image if i else 0) | (0 if shift is None else col) for i, col in nonzeros]
        if len(offsets) == 1:
            value ^= offsets[0]
        elif steps and not any(offsets) and not any(steps[-1][1]):  # repeat once for both
            steps[-1] = (steps[-1][0] * len(offsets), [0])
        else:
            steps.append((len(offsets), offsets))
    out[0], size = value, 1
    for count, offsets in steps:  # the first factor's nonzeros vary fastest
        rest = out[size : size * count].reshape(count - 1, size)
        if any(offsets):
            for row, offset in zip(rest, offsets[1:]):
                np.bitwise_xor(out[:size], offset, out=row)
            if offsets[0]:
                out[:size] ^= offsets[0]
        else:
            rest[...] = out[:size]
        size *= count
    return out


def apply_gate(s: StateVector, g: Gate) -> StateVector:
    """The state after g; s itself is left unchanged."""
    if any(q >= s.n for q in g.qubits):
        raise ValueError("gate qubit outside register")
    reserve(16 * 2**s.n + 24 * _SLICE, f"{s.n}-qubit dense state")
    amps = np.array(s.amps, dtype=complex)
    b = _gate_block(g)
    _apply_block(amps, b.qubits, b.stack[0], s.n)
    return StateVector(s.n, amps)


def simulate(c: Circuit, basis: int = 0) -> StateVector:
    """Run c on the basis state |basis>."""
    n = c.num_qubits
    if not 0 <= basis < 2**n:
        raise ValueError(f"basis {basis} outside [0, 2^{n})")
    return StateVector(n, _fill(c, basis, f"{n}-qubit dense state"))


def amplitude(c: Circuit, bits: str) -> complex:
    check_basis(bits, c.num_qubits)
    return complex(simulate(c).amps[int(bits, 2)])


def measure_probabilities(s: StateVector) -> np.ndarray:
    probs = np.abs(s.amps)
    return np.square(probs, out=probs)  # as ** 2, without a second array


def sample(s: StateVector, shots: int, seed: int) -> dict[str, int]:
    """Seeded i.i.d. measurement outcomes; returns only basis states that occur."""
    if shots < 1:
        raise ValueError("shots must be positive")
    probs = measure_probabilities(s)
    support = np.flatnonzero(probs != 0)  # a bool mask scans faster than floats
    rng = np.random.default_rng(seed)
    counts = rng.multinomial(shots, probs[support] / probs.sum())
    hit = np.flatnonzero(counts)
    high, low = _bit_labels(s.n)(support[hit])
    return dict(zip((high + low).tolist(), counts[hit].tolist()))


def circuit_unitary(c: Circuit) -> np.ndarray:
    """2^n x 2^n unitary of the whole circuit, later gates on the left."""
    return _fill(c, None, f"{c.num_qubits}-qubit dense unitary")


def _bit_labels(n: int):
    """The map from an index array to index_bits(i, n) for each i, as two object
    arrays (high and low bits) that sum elementwise to the labels. Both are
    gathered from tables of at most 2^ceil(n/2) strings."""
    low = n // 2
    high = np.array([index_bits(i, n - low) for i in range(1 << (n - low))], dtype=object)
    lows = np.array([index_bits(i, low)[:low] for i in range(1 << low)], dtype=object)
    return lambda idx: (high[idx >> low], lows[idx & ((1 << low) - 1)])


def _formatted(parts: np.ndarray, end: str) -> np.ndarray:
    """f" {x:.17g}{end}" for each x in parts, each distinct value formatted once."""
    values, inverse = np.unique(parts + 0.0, return_inverse=True)
    return np.array([f" {x:.17g}{end}" for x in values.tolist()], dtype=object)[inverse]


def format_amplitude_dump(s: StateVector, keep: np.ndarray | None = None) -> str:
    """One '<bits> <re> <im>' line per basis state, or per index in keep
    (ascending), 17 significant digits. Zeros print as 0, never -0."""
    size = len(s.amps) if keep is None else len(keep)
    labels = _bit_labels(s.n)
    chunks = []
    for lo in range(0, size, _SLICE):
        idx = np.arange(lo, min(lo + _SLICE, size)) if keep is None else keep[lo : lo + _SLICE]
        amps = s.amps[idx]
        cells = np.empty((len(idx), 4), dtype=object)  # a line is its cells joined
        cells[:, 0], cells[:, 1] = labels(idx)
        cells[:, 2] = _formatted(amps.real, "")
        cells[:, 3] = _formatted(amps.imag, "\n")
        chunks.append("".join(cells.ravel().tolist()))
    return "".join(chunks)
