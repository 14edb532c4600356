"""Output checks against references that do not come from the backend under test.

Each check takes the text a CLI job printed and returns None when it agrees
with the reference, or a one-line reason when it does not.
"""
from __future__ import annotations

import math

import numpy as np

from reference import simulate_basis

AMP_TOL = 1e-9
WITNESS_TOL = 1e-9  # verify's default tolerance
MARGINAL_SIGMAS = 6.0


def check_simulate(text: str, ref: np.ndarray, n: int) -> str | None:
    """Compact dump: every amplitude above AMP_TOL printed, in basis order,
    each within AMP_TOL of the reference."""
    tokens = text.split()
    if len(tokens) % 3:
        return "simulate: malformed line"
    bits = tokens[0::3]
    if any(len(b) != n for b in bits):
        return "simulate: basis string of wrong length"
    idx = np.array([int(b, 2) for b in bits], dtype=np.int64)
    if len(idx) > 1 and not np.all(np.diff(idx) > 0):
        return "simulate: lines not in basis order"
    vals = np.array(tokens[1::3], dtype=float) + 1j * np.array(tokens[2::3], dtype=float)
    if len(idx) and float(np.max(np.abs(vals - ref[idx]))) > AMP_TOL:
        return "simulate: amplitude differs from reference"
    missing = np.setdiff1d(np.flatnonzero(np.abs(ref) > AMP_TOL), idx)
    if len(missing):
        return f"simulate: {len(missing)} nonzero amplitudes missing"
    return None


def check_amplitude(text: str, bits: str, want: complex) -> str | None:
    parts = text.split()
    if len(parts) != 3 or parts[0] != bits:
        return "amplitude: malformed output"
    got = complex(float(parts[1]), float(parts[2]))
    if abs(got - want) > AMP_TOL:
        return f"amplitude: {got} differs from reference {want}"
    return None


def check_sample(text: str, probs: np.ndarray, shots: int, n: int) -> str | None:
    """Totals, support, and each qubit's marginal within MARGINAL_SIGMAS."""
    parts = text.split()
    if len(parts) % 2:
        return "sample: malformed line"
    bits = parts[0::2]
    if any(len(b) != n for b in bits):
        return "sample: basis string of wrong length"
    idx = np.array([int(b, 2) for b in bits], dtype=np.int64)
    counts = np.array(parts[1::2], dtype=np.int64)
    if int(counts.sum()) != shots or np.any(counts <= 0):
        return f"sample: counts sum to {int(counts.sum())}, not {shots}"
    if np.any(probs[idx] < 1e-12):
        return "sample: outcome outside the reference support"
    for q in range(n):
        p = float(probs[(np.arange(len(probs)) >> q) & 1 == 1].sum())
        seen = float(counts[(idx >> q) & 1 == 1].sum()) / shots
        if abs(seen - p) > MARGINAL_SIGMAS * math.sqrt(p * (1 - p) / shots) + 1e-9:
            return f"sample: qubit {q} marginal {seen:.4f}, reference {p:.4f}"
    return None


def parse_verdict(text: str) -> dict:
    fields = dict(tok.split("=", 1) for tok in text.split() if "=" in tok)
    return {
        "status": fields.get("verdict"),
        "method": fields.get("method"),
        "witness": fields.get("witness"),
        "fallback": "fallback" in fields,
    }


_EXIT = {"equivalent": 0, "not_equivalent": 1, "inconclusive": 2}


def check_verify(text: str, rc: int, method: str, equivalent: bool) -> str | None:
    """Exit code and verdict against the answer known by construction.
    INCONCLUSIVE is allowed; an invalid witness is reported separately."""
    v = parse_verdict(text)
    if v["status"] not in _EXIT or v["method"] != method:
        return f"verify: malformed report {text.strip()!r}"
    if rc != _EXIT[v["status"]]:
        return f"verify: exit code {rc} for verdict {v['status']}"
    if v["status"] == ("not_equivalent" if equivalent else "equivalent"):
        return f"verify: verdict {v['status']} contradicts construction"
    return None


def witness_valid(n: int, c1: list, c2: list, witness: str | None) -> bool:
    """True when the two circuits' outputs on |witness> have fidelity below
    1 - WITNESS_TOL, re-simulated with the reference simulator."""
    if witness is None or len(witness) != n or set(witness) - {"0", "1"}:
        return False
    b = int(witness, 2)
    s1 = simulate_basis(n, c1, b)
    s2 = simulate_basis(n, c2, b)
    return bool(abs(np.vdot(s1, s2)) ** 2 < 1 - WITNESS_TOL)
