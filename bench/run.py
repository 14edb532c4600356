#!/usr/bin/env python3
"""qcdesk benchmark: seeded CLI workloads, timed end to end, traced per layer.

    python3 bench/run.py --workload statevector --seed 1 --seconds 15 --trace 0

Run from the repository root; qcdesk is imported from ./src. The workload's
circuits are generated from --seed into .bench_run/, and every job is
one in-process ``qcdesk.cli.run(argv)`` call with stdout going to a hashing
sink (a closed loop with one client). Whole passes over the job list repeat
until --seconds have elapsed and at least two passes have run. Outputs are
checked against references computed before timing (see check.py).

--trace 0 prints the end-to-end metrics: setup_s (median of SETUP_REPEATS
set-ups: input generation, a fresh import of qcdesk, one tiny warm-up job per
verb), workload_s (median wall time of one pass over the job list) and
peak_rss_mb (the process's peak resident memory, read before any check that
allocates). --trace 1 alternates untraced passes with traced ones, in which
spans and counters are recorded around the calls into each layer (see
spans.py), and prints the per-layer metrics; the spans of one traced pass go
to .bench_out/. The last stdout line is the JSON result; the line before it
holds the details (host record, per-verb timings with sample counts, shares).
"""
from __future__ import annotations

import os

# one client on a shared host: keep BLAS to one thread (at most nproc)
BLAS_THREADS = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import contextlib
import dataclasses
import gzip
import hashlib
import importlib
import io
import json
import platform
import random
import resource
import shutil
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

import check
import gen
import reference
import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 9
MIN_PASSES = 2  # so each job's time is a median of at least two
SPOT_CHECKS = 3
TRACED_MODULES = ("ir", "dense", "dd", "tn", "zx", "verify")  # cli.run is the root span
SPAN_METRICS = {  # per-layer metric -> span whose self time it sums
    "ir.parse_s": "ir.parse",
    "ir.gate_matrix_s": "ir.gate_matrix",
    "dense.apply_gate_s": "dense.apply_gate",
    "dense.circuit_unitary_s": "dense.circuit_unitary",
    "dense.sample_s": "dense.sample",
    "dense.format_dump_s": "dense.format_dump",
    "cli.self_s": "cli",
    "dd.gate_to_mdd_s": "dd.gate_to_mdd",
    "dd.mult_mm_s": "dd.mult_mm",
    "dd.mult_mv_s": "dd.mult_mv",
    "dd.trace_s": "dd.trace",
    "tn.circuit_to_network_s": "tn.circuit_to_network",
    "tn.greedy_plan_s": "tn.greedy_plan",
    "tn.execute_plan_s": "tn.execute_plan",
    "zx.circuit_to_zx_s": "zx.circuit_to_zx",
    "zx.to_graph_like_s": "zx.to_graph_like",
    "zx.apply_rewrites_s": "zx.apply_rewrites",
}
COUNT_METRICS = (
    "dense.amp_updates",
    "dense.bytes_moved_computed",
    "dd.unique_nodes",
    "dd.result_nodes",
    "tn.plan_flops",
    "tn.max_intermediate",
    "zx.rewrite_steps",
    "zx.spiders_after",
)
ZX_RULES = ("fusion", "color_change", "identity_removal", "hadamard_cancel", "self_loop_removal")
VERBS = (
    "simulate.dense",
    "sample.dense",
    "amplitude.dense",
    "amplitude.tn",
    "amplitude.dd",
    "verify.dd",
    "verify.zx",
    "verify.dense",
)
# per-verb metric names; sample runs on dense only, so it has no backend suffix
VERB_METRIC = {v: ("sample_s" if v == "sample.dense" else f"{v}_s") for v in VERBS}


class HashSink:
    """File-like stdout replacement: hashes everything, optionally keeps it."""

    def __init__(self, keep: bool):
        self.h = hashlib.blake2b(digest_size=16)
        self.kept = io.StringIO() if keep else None

    def write(self, s: str) -> int:
        self.h.update(s.encode())
        if self.kept is not None:
            self.kept.write(s)
        return len(s)

    def flush(self) -> None:
        pass

    def text(self) -> str:
        return self.kept.getvalue() if self.kept is not None else ""


# ---- host record -----------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _copy_bandwidth(nbytes: int = 64 * 2**20, repeats: int = 5) -> float:
    """Median bytes/s of np.copyto over nbytes arrays, counting read + write."""
    src = np.ones(nbytes // 8)
    dst = np.empty_like(src)
    rates = []
    for _ in range(repeats):
        t = time.perf_counter()
        np.copyto(dst, src)
        rates.append(2 * nbytes / (time.perf_counter() - t))
    return statistics.median(rates)


def host_record(loadavg: tuple) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": int(BLAS_THREADS),
        "loadavg_start": list(loadavg),
        "copy_bytes_per_s": _copy_bandwidth(),
        "copy_array_bytes": 64 * 2**20,
    }


# ---- set-up ----------------------------------------------------------------


def _warmup_argvs(verbs: set[str], d: Path) -> list[list[str]]:
    a, b = str(d / "w_a.qcf"), str(d / "w_b.qcf")
    out = []
    for v in sorted(verbs):
        verb, backend = v.split(".")
        if verb == "simulate":
            out.append(["simulate", "--backend", backend, a])
        elif verb == "sample":
            out.append(["sample", "--shots", "100", "--seed", "1", a])
        elif verb == "amplitude":
            out.append(["amplitude", "--backend", backend, "--basis", "000", a])
        else:
            out.append(["verify", "--method", backend, a, b])
    return out


def setup_once(name: str, seed: int, d: Path):
    """Generate and write the inputs, import qcdesk afresh, run a warm-up job
    per verb on tiny circuits. Returns (seconds, workload, cli module)."""
    t = time.perf_counter()
    w = gen.WORKLOADS[name](seed)
    w.write(d)
    gen.warmup(seed).write(d)
    for m in [m for m in sys.modules if m == "qcdesk" or m.startswith("qcdesk.")]:
        del sys.modules[m]
    cli = importlib.import_module("qcdesk.cli")
    for argv in _warmup_argvs({j.verb for j in w.jobs}, d):
        sink = HashSink(False)
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            rc = cli.run(argv)
        if rc not in (0, 1, 2):
            raise RuntimeError(f"warm-up job {argv} exited {rc}")
    return time.perf_counter() - t, w, cli


# ---- references (computed before timing) ------------------------------------


def references(name: str, seed: int, w: gen.Workload) -> dict[int, dict]:
    """Per-job reference data, by job index; also fills in the basis of
    queries that need one picked from the reference."""
    rng = random.Random(f"reference:{name}:{seed}")
    refs: dict[int, dict] = {}
    if name == "statevector":
        n, gates = w.circuits["sv.qcf"]
        state = reference.simulate_basis(n, gates)
        support = np.flatnonzero(np.abs(state) > 1e-6)
        spots = [int(i) for i in rng.sample(list(support), min(SPOT_CHECKS, len(support)))]
        for k, job in enumerate(w.jobs):
            if job.verb == "amplitude.dense":
                job.basis = format(spots[0], f"0{n}b")
            refs[k] = {"n": n, "state": state, "probs": np.abs(state) ** 2, "spots": spots}
    elif name == "equivalence":
        for k, job in enumerate(w.jobs):
            cls = w.pairs[job.files[0][: -len("_a.qcf")]][0]
            refs[k] = {"equivalent": cls in gen.EQUIVALENT_CLASSES}
    else:
        wants: dict[tuple[str, str | None], tuple[str, complex]] = {}
        for k, job in enumerate(w.jobs):
            fname = job.files[0]
            n, gates = w.circuits[fname]
            key = (fname, job.basis)
            if key not in wants:
                if fname.startswith("ghz"):
                    wants[key] = (job.basis, reference.ghz_amplitude(job.basis))
                elif fname.startswith("qft"):
                    x = fname.split("_")[1].split(".")[0]
                    wants[key] = (job.basis, reference.qft_ladder_amplitude(x, gen.QFT_BAND, job.basis))
                else:
                    amps = reference.simulate_sparse(n, gates)
                    i = rng.choice(sorted(amps))
                    wants[key] = (format(i, f"0{n}b"), amps[i])
            job.basis, want = wants[key]
            refs[k] = {"want": want}
    return refs


def spot_check_reference(w: gen.Workload, ref: dict) -> list[str]:
    """The dense reference agrees with tn.amplitude_tn on seeded basis states.
    Run after timing, since tensor contraction at n = 20 raises peak memory."""
    from qcdesk import tn
    from qcdesk.ir import parse_circuit

    n, gates = w.circuits["sv.qcf"]
    circuit = parse_circuit(gen.render(n, gates))
    return [
        f"reference and tn.amplitude_tn differ at basis index {i}"
        for i in ref["spots"]
        if abs(tn.amplitude_tn(circuit, format(i, f"0{n}b")) - ref["state"][i]) > check.AMP_TOL
    ]


def check_output(name: str, job: gen.Job, ref: dict, rc: int, text: str) -> str | None:
    if name == "equivalence":
        return check.check_verify(text, rc, job.verb.split(".")[1], ref["equivalent"])
    if rc != 0:
        return f"exit code {rc}"
    if job.verb == "simulate.dense":
        return check.check_simulate(text, ref["state"], ref["n"])
    if job.verb == "sample.dense":
        return check.check_sample(text, ref["probs"], gen.SAMPLE_SHOTS, ref["n"])
    want = ref["want"] if "want" in ref else ref["state"][int(job.basis, 2)]
    return check.check_amplitude(text, job.basis, want)


# ---- timed passes ------------------------------------------------------------


def run_pass(cli, w: gen.Workload, d: Path, first: dict, tracer=None) -> tuple[float, list]:
    """One pass over the job list; keeps the output of each job's first run."""
    results = []
    t_pass = time.perf_counter()
    for k, job in enumerate(w.jobs):
        out = HashSink(keep=k not in first)
        err = HashSink(keep=True)
        argv = job.argv(d)
        t = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if tracer is None:
                rc = cli.run(argv)
            else:
                tracer.start_job(k)
                rc = tracer.span("cli", cli.run, argv)
                tracer.end_job()
        dt = time.perf_counter() - t
        if k not in first:
            first[k] = (rc, out.text(), out.h.hexdigest(), err.text())
        results.append((k, dt, rc, out.h.hexdigest()))
    return time.perf_counter() - t_pass, results


def median(xs):
    return statistics.median(xs) if xs else 0.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    loadavg = os.getloadavg()
    if not (SRC / "qcdesk" / "__init__.py").is_file():
        print(f"error: no qcdesk sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    work_root = ROOT / ".bench_run"
    d = work_root / f"{args.workload}-{args.seed}-{os.getpid()}"
    d.mkdir(parents=True, exist_ok=True)
    try:
        return _run(args, d, loadavg)
    finally:
        shutil.rmtree(d, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_root.rmdir()


def _run(args, d: Path, loadavg: tuple) -> int:
    setup_times = []
    for _ in range(SETUP_REPEATS):
        dt, w, cli = setup_once(args.workload, args.seed, d)
        setup_times.append(dt)
    import qcdesk

    if not Path(qcdesk.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: qcdesk imported from {qcdesk.__file__}, not {SRC}", file=sys.stderr)
        return 2
    refs = references(args.workload, args.seed, w)

    first: dict = {}
    untraced: list[tuple[float, list]] = []
    traced: list[tuple[float, list, spans.Tracer]] = []
    mods = {m: importlib.import_module(f"qcdesk.{m}") for m in TRACED_MODULES}
    start = time.perf_counter()
    while True:
        untraced.append(run_pass(cli, w, d, first))
        if args.trace:
            tracer = spans.Tracer(mods)
            tracer.install()
            try:
                t, results = run_pass(cli, w, d, first, tracer)
            finally:
                tracer.uninstall()
            traced.append((t, results, tracer))
        if time.perf_counter() - start >= args.seconds and len(untraced) >= MIN_PASSES:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    host = host_record(loadavg)  # after the RSS reading: the bandwidth probe allocates
    problems = spot_check_reference(w, refs[0]) if args.workload == "statevector" else []

    # ---- checks ----
    verdict_of: dict[int, str | None] = {}
    for k, (rc, text, _, err) in first.items():
        verdict_of[k] = check_output(args.workload, w.jobs[k], refs[k], rc, text)
        if verdict_of[k] is None and err:
            verdict_of[k] = f"stderr: {err.strip()[:200]}"
    all_results = [r for _, rs in untraced for r in rs] + [r for _, rs, _ in traced for r in rs]
    failed = sum(
        1
        for k, _, rc, digest in all_results
        if verdict_of[k] is not None or rc != first[k][0] or digest != first[k][2]
    )
    attempted = len(all_results)
    failures = sorted({f"job {k} {w.jobs[k].verb}: {msg}" for k, msg in verdict_of.items() if msg})

    # ---- per-verb timings (untraced passes) ----
    per_verb: dict[str, list[float]] = defaultdict(list)
    for _, rs in untraced:
        for k, dt, _, _ in rs:
            per_verb[w.jobs[k].verb].append(dt)
    verb_detail = {
        v: {"median_s": median(ts), "min_s": min(ts), "max_s": max(ts), "samples": len(ts)}
        for v, ts in sorted(per_verb.items())
    }
    shares = equivalence_shares(args.workload, w, first)
    pass_times = [t for t, _ in untraced]
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "host": host,
        "passes": len(untraced),
        "traced_passes": len(traced),
        "jobs_per_pass": len(w.jobs),
        "setup_s": setup_times,
        "pass_s": pass_times,
        "verbs": verb_detail,
        "shares": shares,
        "failures": failures,
        "reference_problems": problems,
    }

    if args.trace:
        metrics = layer_metrics(traced, pass_times, per_verb, shares)
        detail["traced_pass_s"] = [t for t, _, _ in traced]
        spans_file = write_spans(args, traced[0][2])
        detail["spans_file"] = str(spans_file.relative_to(ROOT))
    else:
        metrics = {
            "setup_s": {"value": median(setup_times), "unit": "s"},
            "workload_s": {"value": median(pass_times), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    print(json.dumps(detail))
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def equivalence_shares(name: str, w: gen.Workload, first: dict) -> dict:
    """zx decided share, witness validity and fallback share from the outputs."""
    if name != "equivalence":
        return {}
    zx_equiv = zx_decided = zx_jobs = fallbacks = witnesses = valid = 0
    for k, (rc, text, _, _) in first.items():
        job = w.jobs[k]
        cls, f1, f2 = w.pairs[job.files[0][: -len("_a.qcf")]]
        v = check.parse_verdict(text)
        if job.verb == "verify.zx":
            zx_jobs += 1
            fallbacks += v["fallback"]
            if cls in gen.EQUIVALENT_CLASSES:
                zx_equiv += 1
                zx_decided += v["status"] == "equivalent" and not v["fallback"]
        if v["status"] == "not_equivalent":
            n, g1 = w.circuits[f1]
            witnesses += 1
            valid += check.witness_valid(n, g1, w.circuits[f2][1], v["witness"])
    return {
        "verify.zx_decided_share": zx_decided / zx_equiv,
        "verify.witness_valid_share": valid / witnesses if witnesses else 0.0,
        "verify.fallback_share": fallbacks / zx_jobs,
        "zx_decided": [zx_decided, zx_equiv],
        "witness_valid": [valid, witnesses],
    }


def layer_metrics(traced, pass_times, per_verb, shares) -> dict:
    per_pass: list[dict[str, float]] = []
    for t, _, tracer in traced:
        selfs = spans.self_times(tracer.spans)
        m = {metric: selfs.get(span, 0.0) for metric, span in SPAN_METRICS.items()}
        m.update({c: tracer.counters.get(c, 0.0) for c in COUNT_METRICS})
        m.update({f"zx.rule.{r}": tracer.rules.get(r, 0) for r in ZX_RULES})
        m["verify.decide_s"], m["verify.witness_s"] = spans.verify_split(tracer.spans)
        m["workload_traced_s"] = t
        per_pass.append(m)
    agg = {k: median([p[k] for p in per_pass]) for k in per_pass[0]}
    agg["dense.bytes_per_s_computed"] = (
        agg["dense.bytes_moved_computed"] / agg["dense.apply_gate_s"] if agg["dense.apply_gate_s"] else 0.0
    )
    agg["tn.flops_per_s"] = agg["tn.plan_flops"] / agg["tn.execute_plan_s"] if agg["tn.execute_plan_s"] else 0.0
    agg["trace.overhead_s"] = agg.pop("workload_traced_s") - median(pass_times)
    for v in VERBS:
        agg[VERB_METRIC[v]] = median(per_verb.get(v, []))
    for s in ("verify.zx_decided_share", "verify.witness_valid_share", "verify.fallback_share"):
        agg[s] = shares.get(s, 0.0)
    metrics = {}
    for k, v in agg.items():
        unit = unit_of(k)
        metrics[k] = {"value": int(v) if unit in ("count", "flops", "bytes") else v, "unit": unit}
    return metrics


_UNITS = {
    "dense.bytes_moved_computed": "bytes",
    "dense.bytes_per_s_computed": "bytes/s",
    "tn.plan_flops": "flops",
    "tn.flops_per_s": "flops/s",
}


def unit_of(metric: str) -> str:
    if metric in _UNITS:
        return _UNITS[metric]
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_share"):
        return "share"
    return "count"


def write_spans(args, tracer) -> Path:
    """Spans and counters of one traced pass, as gzipped JSON lines."""
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    path = out / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        for s in tracer.spans:
            fh.write(json.dumps(dataclasses.asdict(s)) + "\n")
        fh.write(json.dumps({"counters": dict(tracer.counters), "zx_rules": dict(tracer.rules)}) + "\n")
    return path


if __name__ == "__main__":
    sys.exit(main())
