"""Reference results computed without qcdesk.

Own gate matrices and two small simulators: a dense one for n <= 20 and a
sparse one for wide circuits that branch little. Conventions follow the QCF
format: qubit i has significance i, the first listed qubit of a gate is the
most significant bit of its local space, angles are in units of pi, and
``rz a = diag(1, e^{i pi a})``, ``rx a = H rz(a) H``.
"""
from __future__ import annotations

import cmath
import math

import numpy as np

_R = 1 / math.sqrt(2)
_FIXED = {
    "x": [[0, 1], [1, 0]],
    "y": [[0, -1j], [1j, 0]],
    "z": [[1, 0], [0, -1]],
    "h": [[_R, _R], [_R, -_R]],
    "s": [[1, 0], [0, 1j]],
    "sdg": [[1, 0], [0, -1j]],
    "t": [[1, 0], [0, cmath.exp(1j * math.pi / 4)]],
    "tdg": [[1, 0], [0, cmath.exp(-1j * math.pi / 4)]],
    "cx": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
    "cz": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, -1]],
    "swap": [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]],
}

MAX_DENSE_QUBITS = 20


def gate_matrix(g: tuple) -> np.ndarray:
    name, _, angle = g
    if name in _FIXED:
        return np.array(_FIXED[name], dtype=complex)
    p = cmath.exp(1j * math.pi * float(angle))
    if name == "rz":
        return np.array([[1, 0], [0, p]], dtype=complex)
    if name == "rx":
        return 0.5 * np.array([[1 + p, 1 - p], [1 - p, 1 + p]], dtype=complex)
    raise ValueError(f"unknown gate {name!r}")


def proportional(a: np.ndarray, b: np.ndarray) -> bool:
    """True when the unitaries a and b differ only by a global phase."""
    return abs(abs(np.vdot(a, b)) - a.shape[0]) < 1e-9


# ---- dense reference -------------------------------------------------------


def simulate_basis(n: int, gates: list, index: int = 0) -> np.ndarray:
    """State vector of the circuit applied to basis state |index>."""
    if n > MAX_DENSE_QUBITS:
        raise ValueError(f"dense reference limited to {MAX_DENSE_QUBITS} qubits")
    psi = np.zeros(2**n, dtype=complex)
    psi[index] = 1.0
    psi = psi.reshape((2,) * n)
    for g in gates:
        m = gate_matrix(g)
        axes = [n - 1 - q for q in g[1]]
        k = len(axes)
        # slice of psi for each local basis value, first listed qubit most significant
        views = []
        for local in range(2**k):
            idx = [slice(None)] * n
            for p, ax in enumerate(axes):
                idx[ax] = (local >> (k - 1 - p)) & 1
            views.append(tuple(idx))
        old = [psi[v].copy() for v in views]
        for i, v in enumerate(views):
            acc = None
            for j in range(2**k):
                if m[i, j] != 0:
                    term = m[i, j] * old[j]
                    acc = term if acc is None else acc + term
            psi[v] = 0 if acc is None else acc
    return psi.reshape(-1)


# ---- sparse reference ------------------------------------------------------


def simulate_sparse(n: int, gates: list) -> dict[int, complex]:
    """Nonzero amplitudes of the circuit on |0...0>, as {basis index: amplitude}.

    Cost grows with the support, so this is for circuits with few h/rx gates.
    """
    idx = np.zeros(1, dtype=np.int64)
    amp = np.ones(1, dtype=complex)
    for g in gates:
        m = gate_matrix(g)
        qs = g[1]
        k = len(qs)
        local = np.zeros_like(idx)
        for q in qs:
            local = (local << 1) | ((idx >> q) & 1)
        cleared = idx.copy()
        for q in qs:
            cleared &= ~np.int64(1 << q)
        out_idx, out_amp = [], []
        for i in range(2**k):
            coeff = m[i][local]
            keep = coeff != 0
            if not keep.any():
                continue
            bits = np.int64(0)
            for p, q in enumerate(qs):
                if (i >> (k - 1 - p)) & 1:
                    bits |= np.int64(1 << q)
            out_idx.append(cleared[keep] | bits)
            out_amp.append(amp[keep] * coeff[keep])
        idx = np.concatenate(out_idx)
        amp = np.concatenate(out_amp)
        idx, inv = np.unique(idx, return_inverse=True)
        amp = np.bincount(inv, amp.real, len(idx)) + 1j * np.bincount(inv, amp.imag, len(idx))
        keep = np.abs(amp) > 1e-14
        idx, amp = idx[keep], amp[keep]
    return dict(zip(idx.tolist(), amp.tolist()))


# ---- closed forms ----------------------------------------------------------


def ghz_amplitude(bits: str) -> complex:
    return complex(_R) if set(bits) == {"0"} or set(bits) == {"1"} else 0j


def qft_ladder_amplitude(x_bits: str, band: int, y_bits: str) -> complex:
    """<y| banded-QFT |x> for gen.qft_ladder: a product state, qubit q ending in
    (|0> + (-1)^{x_q} e^{i pi sum_d x_{q-d} / 2^d} |1>) / sqrt(2)."""
    n = len(x_bits)
    x = [int(x_bits[n - 1 - q]) for q in range(n)]
    amp = 1 + 0j
    for q in range(n):
        if y_bits[n - 1 - q] == "1":
            phase = math.pi * x[q] + sum(
                math.pi * x[q - d] / 2**d for d in range(1, band + 1) if q - d >= 0
            )
            amp *= cmath.exp(1j * phase)
        amp *= _R
    return amp
