"""Ground-truth array backend: state vectors and strided gate kernels.

A StateVector holds the amplitudes of n qubits in one of two forms: a buffer
of all 2^n of them, or a support, its indices (ascending) and their values,
every other amplitude 0. entries(lo, hi) reads both forms alike: it yields
(ascending index, values) pieces of at most _SLICE entries that list every
nonzero amplitude with index in [lo, hi), a buffer's nonzeros or a support's
entries; an index it does not list is 0. The compact dump, amplitude and
measure_probabilities, which sample reads, read states through it alone. amps
builds a support's buffer once and keeps it, for --full and cross_check.

simulate and circuit_unitary share one front end, _evolve, which picks the
form from the shape and the plan alone. The run is the plan's leading
monomial blocks (one nonzero per row: a permutation times phases). When the
product start's support is at most _SUPPORT_SHARE of the buffer, and the run
is not empty or the plan is a state's with no block, the start is grown on
its support and the run applies there. A state whose every block is in the
run ends there: simulate returns the support and builds no buffer. Any other
run is scattered once into a zeroed buffer, and the kernel applies the rest.
Otherwise the start grows in the buffer and the kernel applies every block.

The plan. simulate and circuit_unitary start from the Kronecker product of one
2x2 factor per qubit, the one-qubit gates before its first two-qubit gate (for
a state, the column at the input's bit). A later gate joins the latest block
on its qubits (no later block touches them) if the two span at most two qubits
and their structural product has at most the denser one's nonzeros per row.
That product is worked out on the blocks' 0/1 patterns (_fused_pattern), and
the matrices are multiplied only when the rule allows it. dd simulates the
same plan (plan), one walk of its state DD per block.

The kernel applies one block to a buffer in place. A block on k qubits views
the buffer as 2^k strided blocks, one per basis value of its qubits, and
rewrites each as the combination of blocks that the nonzeros of its matrix row
name: diagonal blocks only scale, permutation blocks only copy. The blocks are
walked in slices of at most _SLICE amplitudes, so its scratch is O(_SLICE).

The support. Monomial blocks send each amplitude to one place, so they run on
(index, value) arrays of the product start's support, its factors' nonzero
counts multiplied. Every permutation of one or two bits is an affine map over
GF(2), so the run moves each index bit to an affine function of the start's
bits. Each qubit's bit is kept as such a form, an int, and a block's
permutation rewrites the forms of its qubits: O(n) bookkeeping, with no pass
over the support. A block with a phase other than 1 reads its qubits' current
bits from their forms, one pass, and scales the values as the kernel would, to
the bit. The final indices are built once: a support state's are sorted, a
buffer's are where the values scatter to. The start values are grown from the
factors (2x1 columns or 2x2 matrices) with the multiplications of the
buffer's level-by-level growth, in the same order.

Reservations (errors.reserve), each before its allocation:
- _evolve, for simulate and circuit_unitary, 16 bytes per amplitude of the
  buffer plus the larger of the kernel's scratch (at most 2^k + 1 blocks of
  _SLICE >> k amplitudes, so 24 * _SLICE bytes) and 64 bytes per support
  entry (the support arrays take at most 56). A support state reserves the
  same as the buffer would, so a state has one width limit in either form;
- amps of a support, its buffer beside the support's arrays;
- measure_probabilities, its 2^n probabilities and a piece with its |values|^2;
- sample, the state and 2^n probabilities with their nonzero mask, then 24
  bytes per nonzero probability (index, probability, count) and 200 per
  outcome it can return (at most shots of them: a label, a count, a dict
  entry).
Reading entries allocates O(_SLICE) beyond the state (a piece's mask,
indices and values), so the compact dump's filter, which works a piece at a
time, allocates nothing the size of the state.

format_amplitude_dump formats every distinct real and imaginary part of a
piece once (np.unique) and gathers the strings back, and it gathers the bit
labels from two tables of 2^(n/2) halves, so its scratch is O(_SLICE) beyond
the text. sample draws the multinomial over the nonzero probabilities, each
divided by the pairwise sum of all 2^n (numpy's, zeros included, which a sum
over the support alone misses in the last bits), so each is the full draw's
to the bit. numpy's binomial step draws nothing for a zero probability, so
the counts equal the full draw's, with one exception: that draw gives its
last category the remainder, so when the last basis state has probability 0
it could land there the shots that rounding (about 1e-16 per shot) held back
from the last nonzero one, which gets them here.
"""
from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import reserve
from .ir import Angle, Circuit, Gate, GateKind, check_basis, gate_arity, gate_matrix

_SLICE = 1 << 15  # amplitudes per kernel step, entries per piece
_SUPPORT_SHARE = 1 / 8  # largest support, as a share of the buffer, run as index arrays
_I2 = np.eye(2, dtype=complex)


class StateVector:
    """The amplitudes of n qubits, index = basis value with q_{n-1} msb: all 2^n
    in amps, or a support (ascending indices, their values) with 0 elsewhere."""

    def __init__(self, n: int, amps: np.ndarray | None = None, support: tuple[np.ndarray, np.ndarray] | None = None):
        self.n = n
        self._amps = amps
        self._support = support

    @property
    def amps(self) -> np.ndarray:
        """All 2^n amplitudes; a support scatters into a buffer once and keeps it."""
        if self._amps is None:
            idx, vals = self._support
            reserve(16 * 2**self.n + idx.nbytes + vals.nbytes, f"{self.n}-qubit dense state")
            self._amps = np.zeros(2**self.n, dtype=complex)
            self._amps[idx] = vals
        return self._amps

    @property
    def nbytes(self) -> int:
        held = [self._amps, *(self._support or ())]
        return sum(a.nbytes for a in held if a is not None)

    def entries(self, lo: int = 0, hi: int | None = None):
        """(ascending index, values) pieces of at most _SLICE entries that list
        every nonzero amplitude with index in [lo, hi): a buffer's nonzeros, or
        the support's entries, which may hold a zero. The rest are 0."""
        hi = 2**self.n if hi is None else hi
        if self._support is None:
            for a in range(lo, hi, _SLICE):
                part = self._amps[a : min(a + _SLICE, hi)]
                nz = np.flatnonzero(part != 0)  # a bool mask scans faster than complex
                if len(nz):
                    yield nz + a, part[nz]
            return
        idx, vals = self._support
        a, b = np.searchsorted(idx, (lo, hi)).tolist()
        for k in range(a, b, _SLICE):
            yield idx[k : min(k + _SLICE, b)], vals[k : min(k + _SLICE, b)]


@dataclass
class _Block:  # gates fused into one kernel pass
    qubits: tuple[int, ...]  # descending; the first one's bit is most significant
    matrix: np.ndarray  # the product of the gates
    pattern: tuple[int, ...]  # its structural nonzeros: per row, a bit mask of the columns
    density: int  # most nonzeros in a row of pattern


@functools.lru_cache(maxsize=1024)
def _local_block(kind: GateKind, angle: Angle | None, first_is_lower: bool):
    """(matrix, pattern, density) of a gate with the higher qubit's bit most
    significant; gate_matrix puts the first listed qubit's there."""
    m = gate_matrix(Gate(kind, tuple(range(gate_arity(kind))), angle))
    m = m[np.ix_([0, 2, 1, 3], [0, 2, 1, 3])] if first_is_lower else m
    m.flags.writeable = False  # cached: every block of this gate shares it
    pattern = tuple(sum(1 << c for c in np.flatnonzero(row).tolist()) for row in m)
    return m, pattern, max(map(int.bit_count, pattern))


def _gate_block(g: Gate) -> _Block:
    return _Block(tuple(sorted(g.qubits, reverse=True)), *_local_block(g.kind, g.angle, g.qubits[0] < g.qubits[-1]))


def _side(qubits: tuple[int, ...], onto: tuple[int, ...]) -> int:
    """Where a block on qubits sits in onto: 0 on all of it, 1 on its high qubit
    (kron(B, I)), 2 on its low one (kron(I, B))."""
    return 0 if qubits == onto else 1 if qubits[0] == onto[0] else 2


def _embed(m: np.ndarray, side: int) -> np.ndarray:
    """m over two qubits, placed as _side says."""
    if side == 0:
        return m
    x, y = (m, _I2) if side == 1 else (_I2, m)
    return (x[:, None, :, None] * y[None, :, None, :]).reshape(4, 4)


def _embed_pattern(p: tuple[int, ...], side: int) -> tuple[int, ...]:
    """A pattern over two qubits, placed as _side says."""
    if side == 0:
        return p
    if side == 1:  # row 2i + k holds columns 2j + k, j in row i
        return tuple(((p[i] & 1) | (p[i] & 2) << 1) << k for i in (0, 1) for k in (0, 1))
    return tuple(p[i] << 2 * k for k in (0, 1) for i in (0, 1))  # row 2k + i: columns 2k + j


@functools.lru_cache(maxsize=4096)
def _fused_pattern(b: tuple[int, ...], b_side: int, g: tuple[int, ...], g_side: int) -> tuple[int, ...]:
    """The structural product of g's pattern after b's, each placed as _side says:
    row r holds every column of the rows of b that row r of g names."""
    b, g = _embed_pattern(b, b_side), _embed_pattern(g, g_side)
    return tuple(functools.reduce(operator.or_, (b[k] for k in range(len(b)) if row >> k & 1), 0) for row in g)


def _fuse(b: _Block, g: _Block) -> bool:
    """Fold g, applied after b, into b if the rule in the module doc allows it."""
    onto = tuple(sorted({*b.qubits, *g.qubits}, reverse=True))
    if len(onto) > 2:
        return False
    b_side, g_side = _side(b.qubits, onto), _side(g.qubits, onto)
    pattern = _fused_pattern(b.pattern, b_side, g.pattern, g_side)
    density = max(map(int.bit_count, pattern))
    if density > max(b.density, g.density):
        return False
    b.matrix = _embed(g.matrix, g_side) @ _embed(b.matrix, b_side)
    b.qubits, b.pattern, b.density = onto, pattern, density
    return True


def plan(c: Circuit) -> tuple[list[np.ndarray], list[_Block]]:
    """c's product-start factors (2x2, one per qubit) and fused blocks in order."""
    factors = [_I2] * c.num_qubits
    blocks: list[_Block] = []
    last: dict[int, int] = {}  # qubit -> index of the latest block on it
    for g in c.gates:
        b = _gate_block(g)
        if len(b.qubits) == 1 and b.qubits[0] not in last:
            factors[b.qubits[0]] = b.matrix @ factors[b.qubits[0]]
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


def _evolve(factors: list[np.ndarray], blocks: list[_Block], shape: tuple[int, ...], what: str):
    """The product start of factors (2x1 columns for a state, 2x2 for a unitary)
    with blocks applied: (None, (ascending index, values)) for a state held as
    its support, else (a new buffer of shape, None), as the module doc says."""
    n, size = len(factors), math.prod(shape)
    run = list(itertools.takewhile(lambda b: b.density == 1, blocks))
    held = len(shape) == 1 and len(run) == len(blocks)  # a state that ends on its support
    support = math.prod(map(np.count_nonzero, factors))
    on_support = bool(run or held) and support <= size * _SUPPORT_SHARE
    if not on_support:
        run, support = [], 0  # the start grows in the buffer, and the kernel runs every block
    reserve(16 * size + max(24 * _SLICE, 64 * support), what)
    if on_support:
        starts = _starts(factors)
        idx = np.empty(support, dtype=np.intp)
        forms, vals = _run(starts, n, run, idx, *_start_values(factors))
        _read(starts, forms, idx, size.bit_length() - 1 - n)  # qubit q is row bit q, flat bit q + shift
        if held:
            # each index sorted with its position in its low bits: cheaper than an argsort
            width = len(idx).bit_length()
            idx <<= width
            idx |= np.arange(len(idx))
            idx.sort()
            order = idx & ((1 << width) - 1)
            idx >>= width
            return None, (idx, vals[order])
        buf = np.zeros(shape, dtype=complex)
        buf.reshape(-1)[idx] = vals
        del idx, vals  # before the kernel's scratch
    else:
        buf = np.zeros(shape, dtype=complex)
        grid = buf.reshape(len(buf), -1)
        grid[0, 0] = rows = cols = 1
        for f in factors:  # factor q on bit q, grown level by level; the block so far is scaled last
            old = grid[:rows, :cols]
            for i, j in itertools.product(*map(range, f.shape)):
                if (i, j) != (0, 0) and f[i, j] != 0:
                    np.multiply(old, f[i, j], out=grid[i * rows : (i + 1) * rows, j * cols : (j + 1) * cols])
            if f[0, 0] != 1:
                old *= f[0, 0]
            rows, cols = rows * f.shape[0], cols * f.shape[1]
    for b in blocks[len(run):]:
        _apply_block(buf, b.qubits, b.matrix, n)
    return buf, None


def _starts(factors: list[np.ndarray]) -> list[list[tuple[int, int]]]:
    """Each factor's nonzeros, in the order the support lists them: (row bit,
    column offset); factor q's column is bit q of the column."""
    return [[(i, j << q) for i, j in zip(*np.nonzero(f))] for q, f in enumerate(factors)]


def _start_values(factors: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """The product start of factors on its support, in _read's order (factor
    0's nonzeros vary fastest, each factor's in row-major order), and a spare
    array of the same size. Each value is multiplied as _evolve's grid grows it:
    each nonzero times the start so far, but a 1 at (0, 0) copies it."""
    vals, spare = (np.empty(math.prod(map(np.count_nonzero, factors)), dtype=complex) for _ in range(2))
    vals[0], size = 1, 1
    for f in factors:
        entries = f.ravel().tolist()  # row-major
        nonzeros, lead = [x for x in entries if x], entries[0] == 1
        if lead and len(nonzeros) == 1:
            continue
        for k, x in enumerate(nonzeros):
            out = spare[k * size : (k + 1) * size]
            if k or not lead:
                np.multiply(vals[:size], x, out=out)
            else:
                np.copyto(out, vals[:size])
        vals, spare, size = spare, vals, size * len(nonzeros)
    return vals, spare


def _run(starts, n: int, run: list[_Block], idx: np.ndarray, vals: np.ndarray, spare: np.ndarray):
    """Apply the monomial blocks run to vals, the values of the start whose
    nonzeros are starts, as the module doc says: (the qubits' forms, the
    values). idx and spare are scratch of the support's size."""
    forms = [2 << q for q in range(n)]  # each qubit's bit is the start's
    # every phase block reuses these: a new array per block, its pages faulted
    # in afresh, took longer than the multiply itself
    scaled = np.empty_like(vals)
    for b in run:
        cols = b.matrix.T.tolist()
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
    return forms, vals


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
    steps = []  # (count, offsets) per factor with several nonzeros; None repeats the entries
    for q, nonzeros in enumerate(starts):
        if spread >> q & 1:
            image = sum((form >> (q + 1) & 1) << (t + at) for t, form in enumerate(forms))
            offsets = [(image if i else 0) | (0 if shift is None else col) for i, col in nonzeros]
            if len(offsets) == 1:
                value ^= offsets[0]
            else:
                steps.append((len(offsets), offsets))
        elif len(nonzeros) > 1:  # a factor no form reads
            if steps and steps[-1][1] is None:  # repeat once for both
                steps[-1] = (steps[-1][0] * len(nonzeros), None)
            else:
                steps.append((len(nonzeros), None))
    out[0], size = value, 1
    for count, offsets in steps:  # the first factor's nonzeros vary fastest
        rest = out[size : size * count].reshape(count - 1, size)
        if offsets is None:
            rest[...] = out[:size]
        else:
            for row, offset in zip(rest, offsets[1:]):
                np.bitwise_xor(out[:size], offset, out=row)
            if offsets[0]:
                out[:size] ^= offsets[0]
        size *= count
    return out


def apply_gate(s: StateVector, g: Gate) -> StateVector:
    """The state after g; s itself is left unchanged."""
    if any(q >= s.n for q in g.qubits):
        raise ValueError("gate qubit outside register")
    reserve(16 * 2**s.n + 24 * _SLICE, f"{s.n}-qubit dense state")
    amps = np.array(s.amps, dtype=complex)
    b = _gate_block(g)
    _apply_block(amps, b.qubits, b.matrix, s.n)
    return StateVector(s.n, amps)


def simulate(c: Circuit, basis: int = 0) -> StateVector:
    """Run c on the basis state |basis>: a support or a buffer, as the module doc says."""
    n = c.num_qubits
    if not 0 <= basis < 2**n:
        raise ValueError(f"basis {basis} outside [0, 2^{n})")
    factors, blocks = plan(c)
    factors = [f[:, (basis >> q) & 1, None] for q, f in enumerate(factors)]
    return StateVector(n, *_evolve(factors, blocks, (2**n,), f"{n}-qubit dense state"))


def amplitude(c: Circuit, bits: str) -> complex:
    check_basis(bits, c.num_qubits)
    i = int(bits, 2)
    listed = [vals for _, vals in simulate(c).entries(i, i + 1)]
    return complex(listed[0][0]) if listed else 0j


def measure_probabilities(s: StateVector) -> np.ndarray:
    """|a|^2 of all 2^n amplitudes, read from entries a piece at a time."""
    reserve(8 * 2**s.n + 41 * _SLICE, f"probabilities of a {s.n}-qubit dense state")
    probs = np.zeros(2**s.n)
    for idx, vals in s.entries():
        p = np.abs(vals)
        probs[idx] = np.square(p, out=p)  # as ** 2, without a second array
    return probs


def sample(s: StateVector, shots: int, seed: int) -> dict[str, int]:
    """Seeded i.i.d. measurement outcomes; returns only basis states that occur."""
    if shots < 1:
        raise ValueError("shots must be positive")
    what = f"sampling a {s.n}-qubit dense state"
    reserve(s.nbytes + 9 * 2**s.n + 41 * _SLICE, what)  # and a piece with its mask and |values|^2
    probs = measure_probabilities(s)  # all of them: the full draw divides by their sum
    nonzero = probs != 0  # a bool mask scans faster than floats
    count = np.count_nonzero(nonzero)
    reserve(s.nbytes + 9 * 2**s.n + 24 * count + 200 * min(shots, count), what)
    support = np.flatnonzero(nonzero)
    del nonzero  # before the arrays of the draw
    pvals = probs[support]
    pvals /= probs.sum()  # as probs[support] / probs.sum(), without a second array
    counts = np.random.default_rng(seed).multinomial(shots, pvals)
    hit = np.flatnonzero(counts)
    high, low = _bit_labels(s.n)(support[hit])
    return dict(zip((high + low).tolist(), counts[hit].tolist()))


def circuit_unitary(c: Circuit) -> np.ndarray:
    """2^n x 2^n unitary of the whole circuit, later gates on the left."""
    n = c.num_qubits
    return _evolve(*plan(c), (2**n, 2**n), f"{n}-qubit dense unitary")[0]


def _bit_labels(n: int):
    """The map from an index array to index_bits(i, n) for each i, as two object
    arrays (high and low bits) that sum elementwise to the labels. Both are
    gathered from tables of at most 2^ceil(n/2) strings."""
    low = n // 2
    tables = [[""]]  # tables[k][i] is index_bits(i, k), grown a leading bit at a time
    for _ in range(n - low):
        tables.append(["0" + x for x in tables[-1]] + ["1" + x for x in tables[-1]])
    high, lows = (np.array(tables[k], dtype=object) for k in (n - low, low))
    return lambda idx: (high[idx >> low], lows[idx & ((1 << low) - 1)])


def _formatted(parts: np.ndarray, end: str) -> np.ndarray:
    """f" {x:.17g}{end}" for each x in parts, each distinct value formatted once."""
    values, inverse = np.unique(parts + 0.0, return_inverse=True)
    return np.array([f" {x:.17g}{end}" for x in values.tolist()], dtype=object)[inverse]


def every_amplitude(amps: np.ndarray):
    """(index, values) pieces of at most _SLICE over all of amps, zeros included."""
    for a in range(0, len(amps), _SLICE):
        yield np.arange(a, min(a + _SLICE, len(amps))), amps[a : a + _SLICE]


def format_amplitude_dump(n: int, pieces) -> str:
    """One '<bits> <re> <im>' line per entry of pieces, (ascending index, values)
    pairs of an n-qubit state as StateVector.entries yields them, 17
    significant digits. Zeros print as 0, never -0."""
    labels = _bit_labels(n)
    chunks = []
    for idx, amps in pieces:
        cells = np.empty((len(idx), 4), dtype=object)  # a line is its cells joined
        cells[:, 0], cells[:, 1] = labels(idx)
        cells[:, 2] = _formatted(amps.real, "")
        cells[:, 3] = _formatted(amps.imag, "\n")
        chunks.append("".join(cells.ravel().tolist()))
    return "".join(chunks)
