#!/usr/bin/env python3
"""Compare qcdesk's outputs with those of another checkout, job by job.

    python3 tools/identity_corpus.py --parent ../qcdesk-parent [--seeds 1 2 3 11 17]

The corpus is ROADMAP.md's identity corpus. Its circuits are generated once,
from the seeds, by this tree's bench/gen.py into a temporary directory. Every
job then runs in-process through ``qcdesk.cli.run``: once with this tree's
src/ and once with the parent's, each in a subprocess of its own. Stdout (by
hash), stderr and the exit code are compared per job. Sections, per seed:

  equivalence  every verify job of gen.equivalence
  zx-stats     stats --backend zx on each circuit of gen.equivalence
  amplitude    every amplitude job of gen.amplitude (the wide circuit's basis is seeded)
  amp-stats    stats --backend dd|tn on each circuit of gen.amplitude
  simulate     simulate --backend dense|dd|tn, compact and --full, on 64
               gen.random_circuit circuits (n = 2..12, 0-60 gates, half of them
               without branching gates)
  sample       sample --shots 10000 --seed <seed> on the same 64 circuits
  statevector  every job of gen.statevector (simulate --backend dense, sample,
               amplitude --backend dense): n = 20 with 2^15 nonzeros, all of
               whose blocks run on the support; the amplitude's basis is a
               seeded nonzero of bench/reference.py's state

Prints identical/total per section and the first differing job of each, and
exits 1 if any job differs. The first SHOW differing jobs are then run again on
both sides with stdout kept, and each is printed with both sides' exit codes,
stderr and first differing stdout line.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import random
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))
import gen  # noqa: E402  (bench/ is not a package)
import reference  # noqa: E402

SEEDS = (1, 2, 3, 11, 17)
SIMULATE_CIRCUITS = 64  # per seed
SHOW = 5  # differing jobs printed in full


def corpus(seed: int, d: Path) -> list[tuple[str, list[str]]]:
    """(section, argv) of every job of one seed; writes its circuits into d."""
    jobs = []
    w = gen.equivalence(seed)
    w.write(d)
    jobs += [("equivalence", job.argv(d)) for job in w.jobs]
    jobs += [("zx-stats", ["stats", "--backend", "zx", str(d / f)]) for f in w.circuits]

    rng = random.Random(f"identity:{seed}")
    w = gen.amplitude(seed)
    w.write(d)
    for job in w.jobs:
        if job.basis is None:
            n = w.circuits[job.files[0]][0]
            job.basis = format(rng.randrange(2**n), f"0{n}b")
        jobs.append(("amplitude", job.argv(d)))
    jobs += [("amp-stats", ["stats", "--backend", b, str(d / f)]) for f in w.circuits for b in ("dd", "tn")]

    for k in range(SIMULATE_CIRCUITS):
        n = rng.randrange(2, 13)
        gates = gen.random_circuit(rng, n, rng.randrange(61), max_branching=0 if k % 2 else None)
        path = d / f"sim{k:02d}.qcf"
        path.write_text(gen.render(n, gates))
        for backend in ("dense", "dd", "tn"):
            for full in ([], ["--full"]):
                jobs.append(("simulate", ["simulate", "--backend", backend, *full, str(path)]))
        jobs.append(("sample", ["sample", "--shots", str(gen.SAMPLE_SHOTS), "--seed", str(seed), str(path)]))

    w = gen.statevector(seed)
    w.write(d)
    n, gates = w.circuits["sv.qcf"]
    support = reference.simulate_basis(n, gates).nonzero()[0]
    for job in w.jobs:
        if job.verb == "amplitude.dense":
            job.basis = format(int(support[rng.randrange(len(support))]), f"0{n}b")
        jobs.append(("statevector", job.argv(d)))
    return jobs


def worker(src: str, jobs_file: str, full: bool) -> None:
    """Runs each job of jobs_file with qcdesk from src; prints one JSON list of
    [exit code, stdout hash (stdout itself if full), stderr] per job."""
    sys.path.insert(0, src)
    from qcdesk import cli

    results = []
    for _, argv in json.loads(Path(jobs_file).read_text()):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.run(argv)
        text = out.getvalue()
        results.append([rc, text if full else hashlib.sha256(text.encode()).hexdigest(), err.getvalue()])
    print(json.dumps(results))


def outputs(tree: Path, jobs_file: Path, full: bool = False) -> list:
    proc = subprocess.run(
        [sys.executable, __file__, "--worker", str(tree / "src"), str(jobs_file), *(["--full"] * full)],
        capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout)


def show(jobs: list, parent: Path, jobs_file: Path, tmp: str) -> None:
    """Runs jobs on both sides with stdout kept; prints how each differs."""
    jobs_file.write_text(json.dumps(jobs))
    for (section, job), (rc, out, err), (prc, pout, perr) in zip(
        jobs, outputs(ROOT, jobs_file, True), outputs(parent, jobs_file, True)
    ):
        print(f"[{section}] {' '.join(job).replace(tmp + '/', '')}")
        print(f"  exit: {rc}, parent {prc}")
        print(f"  stderr: {err!r}, parent {perr!r}")
        end = ["<end of output>"]  # so a side that stops early differs there
        ours, theirs = out.splitlines() + end, pout.splitlines() + end
        k = next((i for i, (a, b) in enumerate(zip(ours, theirs)) if a != b), None)
        if k is not None:
            print(f"  stdout line {k + 1}: {ours[k]!r}, parent {theirs[k]!r}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", type=Path, help="checkout to compare with (its src/ is imported)")
    p.add_argument("--seeds", type=int, nargs="+", default=list(SEEDS))
    p.add_argument("--worker", nargs=2, metavar=("SRC", "JOBS"), help=argparse.SUPPRESS)
    p.add_argument("--full", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.worker:
        worker(*args.worker, args.full)
        return 0
    if args.parent is None:
        p.error("--parent is required")
    with tempfile.TemporaryDirectory() as tmp:
        jobs = []
        for seed in args.seeds:
            d = Path(tmp) / f"seed{seed}"
            d.mkdir()
            jobs += corpus(seed, d)
        jobs_file = Path(tmp) / "jobs.json"
        jobs_file.write_text(json.dumps(jobs))
        ours, theirs = outputs(ROOT, jobs_file), outputs(args.parent.resolve(), jobs_file)
        sections: dict[str, list] = {}
        differing = []
        for (section, job), a, b in zip(jobs, ours, theirs):
            tally = sections.setdefault(section, [0, 0, None])
            tally[0] += a == b
            tally[1] += 1
            if a != b:
                differing.append((section, job))
                if tally[2] is None:
                    tally[2] = f"{' '.join(job).replace(tmp + '/', '')}: {a} != parent {b}"
        for section, (same, total, first) in sections.items():
            print(f"{section}: {same}/{total} identical" + (f"; first differing: {first}" if first else ""))
        if differing:
            show(differing[:SHOW], args.parent.resolve(), jobs_file, tmp)
    return 0 if all(same == total for same, total, _ in sections.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
