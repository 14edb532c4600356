"""Command-line front end: simulate, amplitude, sample, verify, stats."""
from __future__ import annotations

import argparse
import sys

import numpy as np

from .errors import CapacityError, ParseError, QcdeskError
from . import dense, verify
from .ir import Circuit, check_basis, parse_circuit
from .verify import BackendId, EquivalenceStatus, check_equivalence

EXIT_OK = 0
EXIT_NOT_EQUIVALENT = 1
EXIT_USAGE = 64
EXIT_PARSE = 65
EXIT_CAPACITY = 70

# without --full, a line is printed when its correctly rounded magnitude exceeds
# this. np.abs can read a few ulps low, so it only picks the candidates, from a
# threshold about 9 ulps lower, and np.hypot (correctly rounded) decides on them.
_COMPACT_EPS = 1e-12
_CANDIDATE_EPS = _COMPACT_EPS * (1 - 2**-49)
# numpy's multinomial counts shots in an int64
_MAX_SHOTS = 2**63 - 1


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _at_least(low: int, high: int | None = None):
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(f"must be at most {high}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in its invalid-value message
    return parse


def _build_parser() -> _Parser:
    p = _Parser(prog="qcdesk", description="Quantum circuit toolkit (QCF input files)")
    sub = p.add_subparsers(dest="verb", required=True)

    sim = sub.add_parser("simulate", help="print the amplitude dump of a circuit")
    sim.add_argument("--backend", choices=[b.value for b in verify.STATE], required=True)
    sim.add_argument("--full", action="store_true", help="print all 2^n lines")
    sim.add_argument("file")
    sim.set_defaults(handler=_cmd_simulate)

    amp = sub.add_parser("amplitude", help="print one amplitude")
    amp.add_argument("--backend", choices=[b.value for b in verify.AMPLITUDE], required=True)
    amp.add_argument("--basis", required=True, metavar="BITS")
    amp.add_argument("file")
    amp.set_defaults(handler=_cmd_amplitude)

    smp = sub.add_parser("sample", help="seeded measurement sampling (dense backend)")
    smp.add_argument("--shots", type=_at_least(1, _MAX_SHOTS), required=True)
    smp.add_argument("--seed", type=_at_least(0), required=True)
    smp.add_argument("file")
    smp.set_defaults(handler=_cmd_sample)

    ver = sub.add_parser("verify", help="equivalence-check two circuits")
    ver.add_argument("--method", choices=[b.value for b in verify.EQUIVALENCE], required=True)
    ver.add_argument("file1")
    ver.add_argument("file2")
    ver.set_defaults(handler=_cmd_verify)

    st = sub.add_parser("stats", help="backend statistics for a circuit")
    st.add_argument("--backend", choices=[b.value for b in verify.STATS], required=True)
    st.add_argument("file")
    st.set_defaults(handler=_cmd_stats)
    return p


class _BadInput(QcdeskError):
    """An input file that is not UTF-8 QCF; the message names the file."""


def _load(path: str) -> Circuit:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_circuit(fh.read())
    except (ParseError, UnicodeDecodeError) as exc:
        raise _BadInput(f"{path}: {exc}") from exc


def _printed(pieces):
    """The entries of pieces that the compact dump prints, a piece at a time."""
    for idx, vals in pieces:
        keep = np.flatnonzero(np.abs(vals) > _CANDIDATE_EPS)
        keep = keep[np.hypot(vals.real[keep], vals.imag[keep]) > _COMPACT_EPS]
        yield idx[keep], vals[keep]


def _cmd_simulate(args) -> int:
    s = verify.STATE[BackendId(args.backend)](_load(args.file))
    # --full lists every basis state: a support state scatters into its buffer
    pieces = dense.every_amplitude(s.amps) if args.full else _printed(s.entries())
    sys.stdout.write(dense.format_amplitude_dump(s.n, pieces))
    return EXIT_OK


def _cmd_amplitude(args) -> int:
    c = _load(args.file)
    bits = args.basis
    try:
        check_basis(bits, c.num_qubits)
    except ValueError:
        print(f"error: bad basis state {bits!r}", file=sys.stderr)
        return EXIT_USAGE
    a = verify.AMPLITUDE[BackendId(args.backend)](c, bits)
    print(f"{bits} {a.real + 0.0:.17g} {a.imag + 0.0:.17g}")  # zeros print as 0, never -0
    return EXIT_OK


def _cmd_sample(args) -> int:
    c = _load(args.file)
    counts = dense.sample(dense.simulate(c), args.shots, args.seed)
    sys.stdout.write("".join([f"{bits} {counts[bits]}\n" for bits in sorted(counts)]))
    return EXIT_OK


def _cmd_verify(args) -> int:
    c1 = _load(args.file1)
    c2 = _load(args.file2)
    verdict = check_equivalence(c1, c2, BackendId(args.method))
    print(verdict.report())
    return EXIT_OK if verdict.status == EquivalenceStatus.EQUIVALENT else EXIT_NOT_EQUIVALENT


def _cmd_stats(args) -> int:
    print(verify.STATS[BackendId(args.backend)](_load(args.file)))
    return EXIT_OK


# built once per process: parse_args leaves the parser as it found it
_PARSER = _build_parser()


def run(argv: list[str]) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code)
    try:
        return args.handler(args)
    except _BadInput as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except MemoryError:  # a ceiling that did not fire: never exit as a verdict
        print("error: out of memory", file=sys.stderr)
        return EXIT_CAPACITY
    except RecursionError:  # DD walks recurse once per qubit
        print("error: circuit too wide for a recursive walk", file=sys.stderr)
        return EXIT_CAPACITY
    except OSError as exc:  # missing, a directory, unreadable
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except QcdeskError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main():
    raise SystemExit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
