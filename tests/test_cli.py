import math

import numpy as np
import pytest

from qcdesk import cli, dense

BELL = "qubits 2\nh 1\ncx 1 0\n"
INV_SQRT2 = 1.0 / math.sqrt(2.0)


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


def format_then_filter(amps: np.ndarray, n: int, full: bool) -> str:
    """The dump as first formatted in full and then filtered on its own text."""
    lines = [f"{format(i, f'0{n}b')} {a.real:.17g} {a.imag:.17g}" for i, a in enumerate(amps)]
    return "".join(
        ln + "\n"
        for ln in lines
        if full or abs(complex(*map(float, ln.split()[1:]))) > cli._COMPACT_EPS
    )


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
        monkeypatch.setattr(cli, "backend_state", lambda c, b: dense.StateVector(self.N, amps))
        path = write(tmp_path, "wide.qcf", f"qubits {self.N}\n")
        assert cli.run(["simulate", "--backend", "dense", path] + ["--full"] * full) == 0
        out = capsys.readouterr().out
        assert "-0" not in out.split()
        assert out == format_then_filter(amps + 0.0, self.N, full)
        # the input holds -0.0 components, which the old format printed as -0
        assert any(np.signbit(amps.real[amps.real == 0]))


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
        "shots, seed", [("0", "1"), ("-5", "1"), ("10", "-1"), ("ten", "1")]
    )
    def test_out_of_range_is_usage_error(self, bell_file, capsys, shots, seed):
        assert cli.run(["sample", "--shots", shots, "--seed", seed, bell_file]) == 64
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert captured.out == ""


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
        assert "fallback=dense" in out


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

    def test_width_mismatch_is_usage(self, tmp_path, capsys, bell_file):
        one = write(tmp_path, "one.qcf", "qubits 1\nx 0\n")
        assert cli.run(["verify", "--method", "dense", bell_file, one]) == 64


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
