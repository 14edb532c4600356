"""Cross-backend differential checks and unified equivalence verdicts."""
from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .errors import reserve
from . import dd, dense, tn, zx
from .ir import EQUIVALENCE_TOLERANCE, Circuit, Miter, index_bits, miter


class BackendId(Enum):
    DENSE = "dense"
    DD = "dd"
    TN = "tn"
    ZX = "zx"


class EquivalenceStatus(Enum):
    EQUIVALENT = "equivalent"
    NOT_EQUIVALENT = "not_equivalent"


@dataclass
class EquivalenceVerdict:
    status: EquivalenceStatus
    method: BackendId
    # basis input j of least |U_jj| for U = U2^dagger U1: the one whose two
    # outputs overlap least. Every method takes the lowest j within
    # EQUIVALENCE_TOLERANCE of the least, dd off the composed DD, dense off U.
    witness: str | None = None
    phase: complex | None = None
    fallback_used: bool = False

    def report(self) -> str:
        parts = [f"verdict={self.status.value}", f"method={self.method.value}"]
        if self.witness is not None:
            parts.append(f"witness={self.witness}")
        if self.fallback_used:
            parts.append("fallback=dd")
        return " ".join(parts)


@dataclass
class CrossCheckReport:
    max_deviation: float
    tolerance: float
    passed: bool


def backend_state(c: Circuit, backend: BackendId) -> dense.StateVector:
    if backend not in STATE:
        raise ValueError(f"backend {backend} cannot produce a state vector")
    return STATE[backend](c)


def cross_check(c: Circuit, tolerance: float) -> CrossCheckReport:
    """Simulate with every STATE backend; pass iff all amplitudes pairwise agree.
    It holds one state per backend, and one pair's difference and magnitudes."""
    n = c.num_qubits
    reserve((16 * len(STATE) + 24) * 2**n, f"cross-check of {len(STATE)} {n}-qubit states")
    states = [state(c).amps for state in STATE.values()]
    max_dev = 0.0
    for i in range(len(states)):
        for j in range(i + 1, len(states)):
            max_dev = max(max_dev, float(np.max(np.abs(states[i] - states[j]))))
    return CrossCheckReport(max_dev, tolerance, max_dev <= tolerance)


def _dense_equivalence(m: Miter) -> EquivalenceVerdict:
    u = dense.circuit_unitary(m.circuit)  # U = U2^dagger U1
    n = m.circuit.num_qubits
    tr = complex(np.trace(u))
    t = tr / abs(tr) if tr else 1 + 0j
    overlap = np.abs(np.diagonal(u))  # |<U2 e_j|U1 e_j>| per input j
    u.flat[:: len(u) + 1] -= t  # U - t I in place: no second 2^n x 2^n array
    phase = t.conjugate()  # U2 = p U1 makes U = conj(p) I
    rows = max(1, dense._SLICE >> n)  # |U - t I| a slice of rows at a time
    worst = max(float(np.abs(u[r : r + rows]).max()) for r in range(0, len(u), rows))
    if worst <= EQUIVALENCE_TOLERANCE:
        return EquivalenceVerdict(EquivalenceStatus.EQUIVALENT, BackendId.DENSE, phase=phase)
    tied = overlap <= overlap.min() + EQUIVALENCE_TOLERANCE  # rounding noise breaks no ties
    witness = index_bits(int(np.argmax(tied)), n)
    return EquivalenceVerdict(
        EquivalenceStatus.NOT_EQUIVALENT, BackendId.DENSE, witness=witness, phase=phase
    )


def _dd_equivalence(m: Miter) -> EquivalenceVerdict:
    result = dd.equivalent_dd(m)
    status = EquivalenceStatus.EQUIVALENT if result.equivalent else EquivalenceStatus.NOT_EQUIVALENT
    return EquivalenceVerdict(status, BackendId.DD, witness=result.witness, phase=result.phase)


def _zx_equivalence(m: Miter) -> EquivalenceVerdict:
    if zx.equivalent_zx(m).verdict == zx.ZXVerdict.EQUIVALENT:
        return EquivalenceVerdict(EquivalenceStatus.EQUIVALENT, BackendId.ZX)
    return replace(_dd_equivalence(m), method=BackendId.ZX, fallback_used=True)


# Which backend serves which verb, keyed in BackendId order; the CLI's choices are
# the keys. bench/spans.py wraps functions by attribute, so entries hold none of
# those (dd.equivalent_dd, zx.equivalent_zx, ...) and call them through their module.
STATE = {BackendId.DENSE: dense.simulate, BackendId.DD: dd.state, BackendId.TN: tn.full_state_tn}
AMPLITUDE = {
    BackendId.DENSE: dense.amplitude,
    BackendId.DD: dd.amplitude,
    BackendId.TN: tn.amplitude_tn,
}
STATS = {BackendId.DD: dd.stats, BackendId.TN: tn.stats, BackendId.ZX: zx.stats}
EQUIVALENCE = {
    BackendId.DENSE: _dense_equivalence,
    BackendId.DD: _dd_equivalence,
    BackendId.ZX: _zx_equivalence,
}


def check_equivalence(c1: Circuit, c2: Circuit, method: BackendId) -> EquivalenceVerdict:
    if method not in EQUIVALENCE:
        raise ValueError(f"unsupported equivalence method {method}")
    m = miter(c1, c2)  # built once per job, for the method and its fallback
    if not m.circuit.gates:  # U2^dagger U1 = I exactly, at any width
        return EquivalenceVerdict(EquivalenceStatus.EQUIVALENT, method, phase=1 + 0j)
    return EQUIVALENCE[method](m)
