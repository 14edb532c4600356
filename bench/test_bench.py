"""Tests of the benchmark itself: python3 -m pytest bench -q"""
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import check  # noqa: E402
import gen  # noqa: E402
import reference  # noqa: E402


def rendered(w: gen.Workload) -> dict:
    return {name: gen.render(n, gates) for name, (n, gates) in w.circuits.items()}


def unitary(n: int, gates: list) -> np.ndarray:
    return np.stack([reference.simulate_basis(n, gates, b) for b in range(2**n)], axis=1)


@pytest.mark.parametrize("name", sorted(gen.WORKLOADS))
def test_generation_is_deterministic_per_seed(name):
    make = gen.WORKLOADS[name]
    a, b, c = make(7), make(7), make(8)
    assert rendered(a) == rendered(b)
    assert [(j.verb, j.args, j.files, j.basis) for j in a.jobs] == [
        (j.verb, j.args, j.files, j.basis) for j in b.jobs
    ]
    assert rendered(a) != rendered(c)


@pytest.mark.parametrize("cls", gen.PAIR_CLASSES)
@pytest.mark.parametrize("seed", range(4))
def test_pair_classes_hold_by_construction(cls, seed):
    rng = random.Random(seed)
    c1, c2 = gen.make_pair(rng, 4, 20, cls, at_start=seed % 2 == 1)
    same = reference.proportional(unitary(4, c1), unitary(4, c2))
    assert same == (cls in gen.EQUIVALENT_CLASSES)


def test_phase_at_start_leaves_every_basis_output_parallel():
    c1, c2 = gen.make_pair(random.Random(3), 4, 20, "phase_mutated", at_start=True)
    for b in range(16):
        overlap = np.vdot(reference.simulate_basis(4, c1, b), reference.simulate_basis(4, c2, b))
        assert abs(abs(overlap) - 1) < 1e-12


def test_closed_forms_match_dense_reference():
    state = reference.simulate_basis(5, gen.ghz(5))
    for i in range(32):
        assert abs(state[i] - reference.ghz_amplitude(format(i, "05b"))) < 1e-12
    x = "10110"
    state = reference.simulate_basis(5, gen.qft_ladder(5, x, 3))
    for i in range(32):
        assert abs(state[i] - reference.qft_ladder_amplitude(x, 3, format(i, "05b"))) < 1e-12


def test_sparse_reference_matches_dense():
    rng = random.Random(1)
    gates = gen.random_circuit(rng, 6, 60, max_branching=5)
    dense = reference.simulate_basis(6, gates)
    sparse = np.zeros(64, dtype=complex)
    for i, a in reference.simulate_sparse(6, gates).items():
        sparse[i] = a
    assert np.max(np.abs(dense - sparse)) < 1e-12


BELL = [("h", (1,), None), ("cx", (1, 0), None)]
R = 2**-0.5


def test_checker_rejects_corrupted_amplitude():
    assert check.check_amplitude(f"11 {R!r} 0\n", "11", R) is None
    assert check.check_amplitude(f"11 {R + 1e-6!r} 0\n", "11", R) is not None
    assert check.check_amplitude(f"10 {R!r} 0\n", "11", R) is not None
    ref = reference.simulate_basis(2, BELL)
    good = f"00 {R!r} 0\n11 {R!r} 0\n"
    assert check.check_simulate(good, ref, 2) is None
    assert check.check_simulate(f"00 {R!r} 0\n11 {-R!r} 0\n", ref, 2) is not None
    assert check.check_simulate(f"00 {R!r} 0\n", ref, 2) is not None


def test_checker_rejects_bad_samples():
    probs = np.abs(reference.simulate_basis(2, BELL)) ** 2
    assert check.check_sample("00 5010\n11 4990\n", probs, 10000, 2) is None
    assert check.check_sample("00 5010\n11 4989\n", probs, 10000, 2) is not None
    assert check.check_sample("00 5000\n01 10\n11 4990\n", probs, 10000, 2) is not None
    assert check.check_sample("00 9000\n11 1000\n", probs, 10000, 2) is not None


def test_checker_rejects_flipped_verdict():
    assert check.check_verify("verdict=equivalent method=dd\n", 0, "dd", True) is None
    assert check.check_verify("verdict=inconclusive method=zx\n", 2, "zx", True) is None
    flipped = "verdict=not_equivalent method=dd witness=00\n"
    assert check.check_verify(flipped, 1, "dd", True) is not None
    assert check.check_verify("verdict=equivalent method=dd\n", 0, "dd", False) is not None
    assert check.check_verify("verdict=equivalent method=dd\n", 1, "dd", True) is not None


def test_checker_rejects_invalid_witness():
    cz = [("cz", (1, 0), None)]
    # cz against the empty circuit differs only by a phase on |11>
    assert not check.witness_valid(2, cz, [], "11")
    assert not check.witness_valid(2, cz, [], None)
    assert check.witness_valid(2, [("x", (0,), None)], [], "00")


def test_exits_nonzero_without_the_program(tmp_path):
    (tmp_path / "bench").mkdir()
    for f in BENCH.glob("*.py"):
        (tmp_path / "bench" / f.name).write_text(f.read_text())
    argv = [sys.executable, "bench/run.py", "--workload", "amplitude", "--seed", "1", "--seconds", "1"]
    proc = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
