"""Command-line front end: simulate, amplitude, sample, verify, stats."""
from __future__ import annotations

import argparse
import sys

import numpy as np

from .errors import CapacityError, ParseError, QcdeskError
from . import dense, verify
from .ir import Circuit, check_basis, parse_circuit
from .verify import BackendId, EquivalenceStatus, backend_state, check_equivalence

EXIT_OK = 0
EXIT_NOT_EQUIVALENT = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 64
EXIT_PARSE = 65
EXIT_CAPACITY = 70

# printed amplitudes below this magnitude are suppressed without --full
_COMPACT_EPS = 1e-12


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _at_least(low: int):
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
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

    amp = sub.add_parser("amplitude", help="print one amplitude")
    amp.add_argument("--backend", choices=[b.value for b in verify.AMPLITUDE], required=True)
    amp.add_argument("--basis", required=True, metavar="BITS")
    amp.add_argument("file")

    smp = sub.add_parser("sample", help="seeded measurement sampling (dense backend)")
    smp.add_argument("--shots", type=_at_least(1), required=True)
    smp.add_argument("--seed", type=_at_least(0), required=True)
    smp.add_argument("file")

    ver = sub.add_parser("verify", help="equivalence-check two circuits")
    ver.add_argument("--method", choices=[b.value for b in verify.EQUIVALENCE], required=True)
    ver.add_argument("file1")
    ver.add_argument("file2")

    st = sub.add_parser("stats", help="backend statistics for a circuit")
    st.add_argument("--backend", choices=[b.value for b in verify.STATS], required=True)
    st.add_argument("file")
    return p


class _BadInput(QcdeskError):
    """An input file that is not UTF-8 QCF; the message names the file."""


def _load(path: str) -> Circuit:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_circuit(fh.read())
    except (ParseError, UnicodeDecodeError) as exc:
        raise _BadInput(f"{path}: {exc}") from exc


def _cmd_simulate(args) -> int:
    s = backend_state(_load(args.file), BackendId(args.backend))
    keep = None if args.full else np.flatnonzero(np.abs(s.amps) > _COMPACT_EPS)
    sys.stdout.write(dense.format_amplitude_dump(s, keep))
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
    for bits in sorted(counts):
        print(f"{bits} {counts[bits]}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    c1 = _load(args.file1)
    c2 = _load(args.file2)
    verdict = check_equivalence(c1, c2, BackendId(args.method))
    print(verdict.report())
    if verdict.status == EquivalenceStatus.EQUIVALENT:
        return EXIT_OK
    if verdict.status == EquivalenceStatus.NOT_EQUIVALENT:
        return EXIT_NOT_EQUIVALENT
    return EXIT_INCONCLUSIVE


def _cmd_stats(args) -> int:
    print(verify.STATS[BackendId(args.backend)](_load(args.file)))
    return EXIT_OK


def run(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code)
    handlers = {
        "simulate": _cmd_simulate,
        "amplitude": _cmd_amplitude,
        "sample": _cmd_sample,
        "verify": _cmd_verify,
        "stats": _cmd_stats,
    }
    try:
        return handlers[args.verb](args)
    except _BadInput as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
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
