import contextlib
import io
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import INV_SQRT2, dump_amplitudes, format_then_filter, random_circuit
from qcdesk import cli, dense, verify
from qcdesk.ir import render_circuit

BELL = "qubits 2\nh 1\ncx 1 0\n"


@pytest.fixture
def bell_file(tmp_path):
    path = tmp_path / "bell.qcf"
    path.write_text(BELL)
    return str(path)


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestSimulate:
    def test_bell_compact(self, bell_file, capsys):
        assert cli.run(["simulate", "--backend", "dense", bell_file]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2
        assert lines[0].split()[0] == "00"
        assert lines[1].split()[0] == "11"
        assert float(lines[0].split()[1]) == pytest.approx(INV_SQRT2)

    def test_bell_full(self, bell_file, capsys):
        assert cli.run(["simulate", "--backend", "dense", "--full", bell_file]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [ln.split()[0] for ln in lines] == ["00", "01", "10", "11"]
        assert lines[0].startswith("00 0.70710678")

    @pytest.mark.parametrize("backend", ["dense", "dd", "tn"])
    def test_backends_agree(self, bell_file, capsys, backend):
        assert cli.run(["simulate", "--backend", backend, "--full", bell_file]) == 0
        lines = capsys.readouterr().out.splitlines()
        amps = [complex(*map(float, ln.split()[1:])) for ln in lines]
        assert amps[0] == pytest.approx(INV_SQRT2, abs=1e-10)
        assert amps[1] == pytest.approx(0, abs=1e-10)
        assert amps[3] == pytest.approx(INV_SQRT2, abs=1e-10)


class TestAmplitudeDump:
    N = 6

    def amplitudes(self, seed: int) -> np.ndarray:
        """Magnitudes from 1e-16 to 1, exact zeros of both signs, and
        components on and just around the compact threshold."""
        rng = np.random.default_rng(seed)
        size = 2**self.N
        amps = (rng.normal(size=size) + 1j * rng.normal(size=size)) * 10.0 ** rng.uniform(-16, 0, size)
        eps = cli._COMPACT_EPS
        edge = [eps, np.nextafter(eps, 0), np.nextafter(eps, 1), -eps, 0.6 * eps, 0.8 * eps]
        for i in rng.choice(size, 24, replace=False):
            amps[i] = complex(rng.choice(edge + [0.0, -0.0]), rng.choice(edge + [0.0, -0.0]))
        return amps

    @pytest.mark.parametrize("full", [False, True])
    @pytest.mark.parametrize("seed", range(5))
    def test_equals_format_then_filter(self, tmp_path, capsys, monkeypatch, full, seed):
        amps = self.amplitudes(seed)
        monkeypatch.setitem(verify.STATE, verify.BackendId.DENSE, lambda c: dense.StateVector(self.N, amps))
        path = write(tmp_path, "wide.qcf", f"qubits {self.N}\n")
        assert cli.run(["simulate", "--backend", "dense", path] + ["--full"] * full) == 0
        out = capsys.readouterr().out
        assert "-0" not in out.split()
        assert out == format_then_filter(amps + 0.0, self.N, full)
        # the input holds -0.0 components, which the old format printed as -0
        assert any(np.signbit(amps.real[amps.real == 0]))

    @pytest.mark.parametrize("re, im", [(r * 1e-12, i * 1.585e-20) for r in (1, -1) for i in (1, -1)])
    @pytest.mark.parametrize("swap", [False, True])
    def test_magnitude_just_above_the_threshold_is_printed(self, tmp_path, capsys, monkeypatch, re, im, swap):
        # np.abs reads these magnitudes as 1e-12, not above it; correctly rounded
        # (abs(), np.hypot) they are 1.0000000000000002e-12
        a = complex(im, re) if swap else complex(re, im)
        assert abs(a) > cli._COMPACT_EPS
        monkeypatch.setitem(verify.STATE, verify.BackendId.DENSE, lambda c: dense.StateVector(1, np.array([0, a])))
        assert cli.run(["simulate", "--backend", "dense", write(tmp_path, "one.qcf", "qubits 1\n")]) == 0
        assert capsys.readouterr().out == f"1 {a.real:.17g} {a.imag:.17g}\n"

    @settings(max_examples=60, deadline=None)
    @example(n=2, seed=813772289, distinct=1, chunk=4, full=False)  # np.abs read one line's magnitude low
    @given(
        n=st.integers(1, 7),
        seed=st.integers(0, 2**32 - 1),
        distinct=st.sampled_from([1, 3, 16, 256]),
        chunk=st.sampled_from([4, 8, 32, None]),
        full=st.booleans(),
    )
    def test_chunked_dump_equals_format_then_filter(self, tmp_path_factory, n, seed, distinct, chunk, full):
        # few distinct parts (many lines share each string) up to all distinct,
        # and dumps that span several chunks and end inside one
        amps = dump_amplitudes(seed, n, distinct)
        path = write(tmp_path_factory.mktemp("dump"), "any.qcf", "qubits 1\n")
        out = io.StringIO()
        with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(out):
            mp.setitem(verify.STATE, verify.BackendId.DENSE, lambda c: dense.StateVector(n, amps))
            if chunk is not None:
                mp.setattr(dense, "_SLICE", chunk)
            assert cli.run(["simulate", "--backend", "dense", path] + ["--full"] * full) == 0
        assert out.getvalue() == format_then_filter(amps + 0.0, n, full)


class TestSupportStates:
    """h on 9 of 12 qubits, then permutations and phases: dense holds the state
    as its support (an eighth of the buffer). Every verb prints what it prints
    with _SUPPORT_SHARE 0, where the state is the kernel's buffer."""

    @staticmethod
    def circuit() -> str:
        rng = random.Random(12)
        lines = ["qubits 12"] + [f"h {q}" for q in range(9)]
        for _ in range(60):
            kind = rng.choice(["cx", "swap", "cz", "t", "x", "rz 3/8"])
            qubits = rng.sample(range(12), 2 if kind in ("cx", "swap", "cz") else 1)
            lines.append(f"{kind} {' '.join(map(str, qubits))}")
        return "\n".join(lines) + "\n"

    def test_every_verb_prints_what_the_buffer_path_prints(self, tmp_path, capsys):
        path = write(tmp_path, "support.qcf", self.circuit())
        state = dense.simulate(cli._load(path))
        support = set(state._support[0].tolist())
        assert len(support) == 2**9
        bases = sorted(support)[:: 2**7] + sorted(set(range(2**12)) - support)[:3]  # inside and outside
        argvs = [["simulate", "--backend", "dense", path], ["simulate", "--backend", "dense", "--full", path]]
        argvs += [["sample", "--shots", str(shots), "--seed", "3", path] for shots in (1000, 2**63 - 1)]
        argvs += [["amplitude", "--backend", "dense", "--basis", format(i, "012b"), path] for i in bases]
        outs = {}
        for share in (dense._SUPPORT_SHARE, 0):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(dense, "_SUPPORT_SHARE", share)
                for argv in argvs:
                    assert cli.run(argv) == 0
                    outs.setdefault(share, []).append(capsys.readouterr().out)
        assert outs[dense._SUPPORT_SHARE] == outs[0]
        assert outs[0][0].count("\n") == 2**9 and outs[0][1].count("\n") == 2**12


class TestAmplitude:
    @pytest.mark.parametrize("backend", ["dense", "dd", "tn"])
    def test_bell_amplitude(self, bell_file, capsys, backend):
        assert cli.run(["amplitude", "--backend", backend, "--basis", "11", bell_file]) == 0
        bits, re, im = capsys.readouterr().out.split()
        assert bits == "11"
        assert float(re) == pytest.approx(INV_SQRT2, abs=1e-10)
        assert float(im) == pytest.approx(0, abs=1e-10)

    @pytest.mark.parametrize("backend", ["dense", "dd", "tn"])
    def test_zero_prints_unsigned(self, tmp_path, capsys, backend):
        # z on |0> leaves a -0.0 at basis 1 in the dense kernel
        path = write(tmp_path, "z.qcf", "qubits 1\nz 0\n")
        assert cli.run(["amplitude", "--backend", backend, "--basis", "1", path]) == 0
        assert capsys.readouterr().out == "1 0 0\n"

    def test_bad_basis_is_usage_error(self, bell_file, capsys):
        assert cli.run(["amplitude", "--backend", "dense", "--basis", "2", bell_file]) == 64


class TestSample:
    def test_counts_sum_to_shots(self, bell_file, capsys):
        assert cli.run(["sample", "--shots", "1000", "--seed", "7", bell_file]) == 0
        lines = capsys.readouterr().out.splitlines()
        counts = {ln.split()[0]: int(ln.split()[1]) for ln in lines}
        assert set(counts) <= {"00", "11"}
        assert sum(counts.values()) == 1000

    def test_seed_reproducible(self, bell_file, capsys):
        cli.run(["sample", "--shots", "500", "--seed", "3", bell_file])
        first = capsys.readouterr().out
        cli.run(["sample", "--shots", "500", "--seed", "3", bell_file])
        assert capsys.readouterr().out == first

    @pytest.mark.parametrize(
        "shots, seed",
        [("0", "1"), ("-5", "1"), ("10", "-1"), ("ten", "1"), ("100000000000000000000", "1"), (str(2**63), "1")],
    )
    def test_out_of_range_is_usage_error(self, bell_file, capsys, shots, seed):
        assert cli.run(["sample", "--shots", shots, "--seed", seed, bell_file]) == 64
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert captured.out == ""

    def test_most_shots_numpy_can_count(self, bell_file, capsys):
        assert cli.run(["sample", "--shots", str(2**63 - 1), "--seed", "1", bell_file]) == 0
        counts = [int(ln.split()[1]) for ln in capsys.readouterr().out.splitlines()]
        assert sum(counts) == 2**63 - 1

    @pytest.mark.parametrize("shots, seed", [(1, 0), (1000, 5), (100_000, 2)])
    def test_bytes_equal_one_print_per_line(self, tmp_path, capsys, shots, seed):
        c = random_circuit(random.Random(seed), 6, 30)
        path = write(tmp_path, "c.qcf", render_circuit(c))
        assert cli.run(["sample", "--shots", str(shots), "--seed", str(seed), path]) == 0
        got = capsys.readouterr().out
        counts = dense.sample(dense.simulate(c), shots, seed)
        for bits in sorted(counts):
            print(f"{bits} {counts[bits]}")
        assert got == capsys.readouterr().out


class TestVerify:
    @pytest.mark.parametrize("method", ["dense", "dd", "zx"])
    def test_equivalent(self, tmp_path, capsys, method, bell_file):
        other = write(tmp_path, "same.qcf", BELL)
        code = cli.run(["verify", "--method", method, bell_file, other])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("verdict=equivalent")

    def test_not_equivalent(self, tmp_path, capsys, bell_file):
        other = write(tmp_path, "flipped.qcf", BELL + "x 0\n")
        code = cli.run(["verify", "--method", "dense", bell_file, other])
        out = capsys.readouterr().out
        assert code == 1
        assert "witness=" in out

    def test_zx_fallback_reported(self, tmp_path, capsys):
        a = write(tmp_path, "a.qcf", "qubits 1\nrz 1/3 0\n")
        b = write(tmp_path, "b.qcf", "qubits 1\nrz 1/4 0\n")
        code = cli.run(["verify", "--method", "zx", a, b])
        out = capsys.readouterr().out
        assert code == 1
        assert "fallback=dd" in out

    @pytest.mark.parametrize("method", ["dd", "zx"])
    @pytest.mark.parametrize("tail, code", [("", cli.EXIT_OK), ("x 5\n", cli.EXIT_NOT_EQUIVALENT)])
    def test_ghz40_pair_is_decided(self, tmp_path, capsys, method, tail, code):
        # the second circuit writes each cx as h, cz, h on the target
        ladder = range(39, 0, -1)
        a = write(tmp_path, "a.qcf", "qubits 40\nh 39\n" + "".join(f"cx {q} {q - 1}\n" for q in ladder))
        hczh = "".join(f"h {q - 1}\ncz {q} {q - 1}\nh {q - 1}\n" for q in ladder)
        b = write(tmp_path, "b.qcf", "qubits 40\nh 39\n" + hczh + tail)
        assert cli.run(["verify", "--method", method, a, b]) == code
        verdict = "equivalent" if code == cli.EXIT_OK else "not_equivalent"
        assert capsys.readouterr().out.startswith(f"verdict={verdict} method={method}")


class TestStats:
    def test_dd(self, bell_file, capsys):
        assert cli.run(["stats", "--backend", "dd", bell_file]) == 0
        assert "nodes=" in capsys.readouterr().out

    def test_tn(self, bell_file, capsys):
        assert cli.run(["stats", "--backend", "tn", bell_file]) == 0
        out = capsys.readouterr().out
        assert out.startswith("tensors=")
        assert "flops=" in out

    def test_zx(self, bell_file, capsys):
        assert cli.run(["stats", "--backend", "zx", bell_file]) == 0
        assert capsys.readouterr().out.startswith("spiders_before=")

    def test_zx_reports_the_circuit_itself(self, tmp_path, capsys):
        # not the miter of the circuit with the empty one, which cancels t; tdg
        path = write(tmp_path, "ttdg.qcf", "qubits 1\nt 0\ntdg 0\n")
        assert cli.run(["stats", "--backend", "zx", path]) == 0
        assert capsys.readouterr().out == "spiders_before=2 spiders_after=0 steps=2\n"

    def test_tn_prints_sizes_past_the_int_digit_limit(self, tmp_path, capsys):
        # max_intermediate is 2^15000, 4,516 digits: past str(int)'s 4,300
        path = write(tmp_path, "idle.qcf", "qubits 15000\n")
        assert cli.run(["stats", "--backend", "tn", path]) == 0
        out = capsys.readouterr().out
        assert out.startswith("tensors=15000 steps=14999 ")
        digits = out.split("max_intermediate=")[1].rstrip("\n")
        assert len(digits) == 4516
        assert int(digits[-30:]) == pow(2, 15000, 10**30)

    def test_dense_rejected(self, bell_file, capsys):
        assert cli.run(["stats", "--backend", "dense", bell_file]) == 64

    @pytest.mark.parametrize("backend", ["dd", "tn", "zx"])
    def test_zero_prints_unsigned(self, tmp_path, capsys, backend):
        # y|0> = i|1>: the dd root weight is i, whose real part comes out -0.0
        path = write(tmp_path, "y.qcf", "qubits 1\ny 0\n")
        assert cli.run(["stats", "--backend", backend, path]) == 0
        out = capsys.readouterr().out
        assert "-0" not in out.replace("=", " ").replace(",", " ").split(), out
        if backend == "dd":
            assert out == "nodes=1 root_weight=0,1\n"


class TestErrorPaths:
    def test_unknown_verb(self, capsys):
        assert cli.run(["frobnicate"]) == 64

    def test_missing_file(self, capsys):
        assert cli.run(["simulate", "--backend", "dense", "/nope/missing.qcf"]) == 64

    def test_directory_is_usage_error(self, tmp_path, capsys, bell_file):
        assert cli.run(["verify", "--method", "dd", str(tmp_path), bell_file]) == 64
        assert capsys.readouterr().err.startswith("error: ")

    def test_non_utf8_file_is_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.qcf"
        bad.write_bytes(b"\xff\xfe")
        assert cli.run(["simulate", "--backend", "dense", str(bad)]) == 65
        assert capsys.readouterr().err.startswith("error: ")

    def test_parse_error(self, tmp_path, capsys):
        bad = write(tmp_path, "bad.qcf", "qubits 1\nfoo 0\n")
        assert cli.run(["simulate", "--backend", "dense", bad]) == 65
        assert "error:" in capsys.readouterr().err

    # a fullwidth digit, and more digits than int() converts: exit 1 would read as a verdict
    @pytest.mark.parametrize("count", ["\uff12", "2" * 4301])
    def test_bad_qubit_count_is_parse_error(self, tmp_path, capsys, bell_file, count):
        bad = tmp_path / "wide.qcf"
        bad.write_bytes(f"qubits {count}\nh 1\ncx 1 0\n".encode())
        assert cli.run(["verify", "--method", "dd", bell_file, str(bad)]) == 65
        assert capsys.readouterr().err == f"error: {bad}: line 1: bad qubit count {count!r}\n"

    @pytest.mark.parametrize("content", [b"\xff\xfe", b"qubits 2\nfoo 0\n"])
    def test_bad_second_input_is_named(self, tmp_path, capsys, bell_file, content):
        bad = tmp_path / "second.qcf"
        bad.write_bytes(content)
        assert cli.run(["verify", "--method", "dd", bell_file, str(bad)]) == 65
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert str(bad) in err

    def test_capacity_error(self, tmp_path, capsys):
        big = write(tmp_path, "big.qcf", "qubits 30\n")
        assert cli.run(["simulate", "--backend", "dense", big]) == 70

    @pytest.mark.parametrize(
        "table, argv",
        [
            (verify.EQUIVALENCE, ["verify", "--method", "dense"]),
            (verify.STATE, ["simulate", "--backend", "dense"]),
        ],
    )
    def test_memory_error_is_capacity(
        self, monkeypatch, tmp_path, capsys, bell_file, table, argv
    ):
        # exit 1 would read as NOT_EQUIVALENT
        def exhausted(*args):
            raise MemoryError

        monkeypatch.setitem(table, verify.BackendId.DENSE, exhausted)
        # two equal circuits make an empty miter, which verify decides without a backend
        files = [bell_file]
        if argv[0] == "verify":
            files.append(write(tmp_path, "x.qcf", "qubits 2\nx 0\n"))
        assert cli.run(argv + files) == 70
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    def test_recursion_error_is_capacity(self, tmp_path, capsys):
        # DD walks recurse once per level; exit 1 would read as NOT_EQUIVALENT
        wide = write(tmp_path, "wide.qcf", "qubits 2000\nh 0\ncx 0 1\n")
        assert cli.run(["stats", "--backend", "dd", wide]) == 70
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1

    def test_width_mismatch_is_usage(self, tmp_path, capsys, bell_file):
        one = write(tmp_path, "one.qcf", "qubits 1\nx 0\n")
        assert cli.run(["verify", "--method", "dense", bell_file, one]) == 64


class TestOneParser:
    def test_calls_in_one_process_print_what_fresh_processes_print(self, bell_file, capsys):
        # the parser is built once per process: a usage error and --full must
        # leave nothing behind for the next call
        calls = [
            ["simulate", "--full", "--backend", "dense"],  # no file: a usage error
            ["simulate", "--backend", "dense", "--full", bell_file],
            ["simulate", "--backend", "dense", bell_file],
        ]
        src = str(Path(cli.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": src}
        script = "import sys; from qcdesk import cli; sys.exit(cli.run(sys.argv[1:]))"
        for argv in calls:
            fresh = subprocess.run(
                [sys.executable, "-c", script, *argv],
                env=env,
                capture_output=True,
                text=True,
                timeout=60,
            )
            rc = cli.run(argv)
            captured = capsys.readouterr()
            assert (rc, captured.out, captured.err) == (fresh.returncode, fresh.stdout, fresh.stderr)
        assert rc == 0 and captured.out.count("\n") == 2  # compact after --full


class TestBackendChoices:
    @pytest.mark.parametrize(
        "argv, choices",
        [
            (["simulate", "--backend"], "'dense', 'dd', 'tn'"),
            (["amplitude", "--basis", "0", "--backend"], "'dense', 'dd', 'tn'"),
            (["verify", "--method"], "'dense', 'dd', 'zx'"),
            (["stats", "--backend"], "'dd', 'tn', 'zx'"),
        ],
    )
    def test_choices_in_order(self, capsys, argv, choices):
        assert cli.run(argv + ["bogus", "a.qcf", "b.qcf"]) == 64
        err = capsys.readouterr().err
        assert err == f"error: argument {argv[-1]}: invalid choice: 'bogus' (choose from {choices})\n"

    def test_amplitude_rejects_zx(self, bell_file, capsys):
        assert cli.run(["amplitude", "--backend", "zx", "--basis", "00", bell_file]) == 64
        assert capsys.readouterr().err == (
            "error: argument --backend: invalid choice: 'zx' (choose from 'dense', 'dd', 'tn')\n"
        )
