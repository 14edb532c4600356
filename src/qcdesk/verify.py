"""Cross-backend differential checks and unified equivalence verdicts."""
from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .errors import CapacityError, WidthMismatchError
from . import dd, dense, tn, zx
from .ir import Circuit, index_bits

MAX_CROSS_CHECK_QUBITS = 12
DEFAULT_TOLERANCE = 1e-9


class BackendId(Enum):
    DENSE = "dense"
    DD = "dd"
    TN = "tn"
    ZX = "zx"


class EquivalenceStatus(Enum):
    EQUIVALENT = "equivalent"
    NOT_EQUIVALENT = "not_equivalent"
    INCONCLUSIVE = "inconclusive"


@dataclass
class EquivalenceVerdict:
    status: EquivalenceStatus
    method: BackendId
    # basis input showing a difference: for dd, the one whose two outputs
    # overlap least, read off the composed DD
    witness: str | None = None
    phase: complex | None = None
    fallback_used: bool = False

    def report(self) -> str:
        parts = [f"verdict={self.status.value}", f"method={self.method.value}"]
        if self.witness is not None:
            parts.append(f"witness={self.witness}")
        if self.fallback_used:
            parts.append("fallback=dense")
        return " ".join(parts)


@dataclass
class CrossCheckReport:
    max_deviation: float
    tolerance: float
    passed: bool


def backend_state(c: Circuit, backend: BackendId) -> dense.StateVector:
    if backend == BackendId.DENSE:
        return dense.simulate(c)
    if backend == BackendId.DD:
        b = dd.DDBackend()
        return b.dd_to_vector(b.simulate(c))
    if backend == BackendId.TN:
        return tn.full_state_tn(c)
    raise ValueError(f"backend {backend} cannot produce a state vector")


def cross_check(c: Circuit, tolerance: float) -> CrossCheckReport:
    """Simulate with dense, dd, and tn; pass iff all amplitudes pairwise agree."""
    if c.num_qubits > MAX_CROSS_CHECK_QUBITS:
        raise CapacityError(
            f"{c.num_qubits} qubits exceeds cross-check ceiling {MAX_CROSS_CHECK_QUBITS}"
        )
    states = [
        backend_state(c, b).amps for b in (BackendId.DENSE, BackendId.DD, BackendId.TN)
    ]
    max_dev = 0.0
    for i in range(len(states)):
        for j in range(i + 1, len(states)):
            max_dev = max(max_dev, float(np.max(np.abs(states[i] - states[j]))))
    return CrossCheckReport(max_dev, tolerance, max_dev <= tolerance)


def _dense_equivalence(
    c1: Circuit, c2: Circuit, tolerance: float
) -> EquivalenceVerdict:
    u1 = dense.circuit_unitary(c1)
    u2 = dense.circuit_unitary(c2)
    k = np.unravel_index(np.argmax(np.abs(u1)), u1.shape)
    phase = u2[k] / u1[k]
    if abs(phase) > 0:
        phase = phase / abs(phase)
    else:
        phase = 1.0 + 0j
    # align in place: no 2^n x 2^n temporaries beyond diff
    u1 *= phase
    u2 -= u1
    diff = np.abs(u2)
    if float(diff.max()) <= tolerance:
        return EquivalenceVerdict(
            EquivalenceStatus.EQUIVALENT, BackendId.DENSE, phase=complex(phase)
        )
    col = int(np.argmax(diff.max(axis=0)))
    witness = index_bits(col, c1.num_qubits)
    return EquivalenceVerdict(
        EquivalenceStatus.NOT_EQUIVALENT,
        BackendId.DENSE,
        witness=witness,
        phase=complex(phase),
    )


def check_equivalence(
    c1: Circuit, c2: Circuit, method: BackendId, tolerance: float = DEFAULT_TOLERANCE
) -> EquivalenceVerdict:
    if c1.num_qubits != c2.num_qubits:
        raise WidthMismatchError("circuits have different widths")
    if method == BackendId.DENSE:
        return _dense_equivalence(c1, c2, tolerance)
    if method == BackendId.DD:
        result = dd.equivalent_dd(c1, c2, tolerance)
        status = (
            EquivalenceStatus.EQUIVALENT
            if result.equivalent
            else EquivalenceStatus.NOT_EQUIVALENT
        )
        return EquivalenceVerdict(
            status, BackendId.DD, witness=result.witness, phase=result.phase
        )
    if method == BackendId.ZX:
        if zx.equivalent_zx(c1, c2).verdict == zx.ZXVerdict.EQUIVALENT:
            return EquivalenceVerdict(EquivalenceStatus.EQUIVALENT, BackendId.ZX)
        if c1.num_qubits > dense.MAX_UNITARY_QUBITS:
            return EquivalenceVerdict(EquivalenceStatus.INCONCLUSIVE, BackendId.ZX)
        fallback = _dense_equivalence(c1, c2, tolerance)
        return replace(fallback, method=BackendId.ZX, fallback_used=True)
    raise ValueError(f"unsupported equivalence method {method}")
