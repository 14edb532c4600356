"""Spans and counters around the calls into each qcdesk layer.

While a ``Tracer`` is installed, the public functions listed in ``_TARGETS``
are replaced, wherever a qcdesk module binds them, by wrappers that record a
span (name, start, end, parent span, job id) and update counters. Uninstalling
puts the original objects back. Nothing in qcdesk is edited.
"""
from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

# (module, attribute, span name); DDBackend methods are wrapped on the class
_TARGETS = [
    ("ir", "parse_circuit", "ir.parse"),
    ("ir", "gate_matrix", "ir.gate_matrix"),
    ("dense", "apply_gate", "dense.apply_gate"),
    ("dense", "circuit_unitary", "dense.circuit_unitary"),
    ("dense", "sample", "dense.sample"),
    ("dense", "format_amplitude_dump", "dense.format_dump"),
    ("dd", "DDBackend.gate_to_mdd", "dd.gate_to_mdd"),
    ("dd", "DDBackend.mult_mm", "dd.mult_mm"),
    ("dd", "DDBackend.mult_mv", "dd.mult_mv"),
    ("dd", "DDBackend.trace", "dd.trace"),
    ("dd", "DDBackend.get_amplitude", "dd.get_amplitude"),
    ("dd", "equivalent_dd", "dd.equivalent_dd"),
    ("tn", "circuit_to_network", "tn.circuit_to_network"),
    ("tn", "greedy_plan", "tn.greedy_plan"),
    ("tn", "execute_plan", "tn.execute_plan"),
    ("zx", "circuit_to_zx", "zx.circuit_to_zx"),
    ("zx", "to_graph_like", "zx.to_graph_like"),
    ("zx", "apply_rewrites", "zx.apply_rewrites"),
    ("zx", "equivalent_zx", "zx.equivalent_zx"),
    ("verify", "check_equivalence", "verify.check_equivalence"),
]
# the decision call inside verify.check_equivalence, per method; the dense
# method decides and finds its witness in one call
DECISION_SPANS = ("dd.equivalent_dd", "zx.equivalent_zx")
BYTES_PER_AMP = 16  # complex128


@dataclass(slots=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    job: int


class Tracer:
    def __init__(self, qcdesk_modules: dict):
        self.mods = qcdesk_modules  # short name -> module, e.g. "dd" -> qcdesk.dd
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.rules: dict[str, int] = defaultdict(int)
        self.job = -1
        self._job_unique: dict[int, int] = {}  # DDBackend id -> unique-table size
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # ---- spans -------------------------------------------------------------

    def span(self, name: str, fn, *args, **kwargs):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        rec = Span(sid, name, time.perf_counter(), 0.0, parent, self.job)
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.end = time.perf_counter()
            self._stack.pop()

    # ---- counters, read at the same call boundaries --------------------------

    def _count(self, name: str, args: tuple, result) -> None:
        c = self.counters
        if name == "dense.apply_gate":
            amps = 2 ** args[0].n
            c["dense.amp_updates"] += amps
            c["dense.bytes_moved_computed"] += 2 * BYTES_PER_AMP * amps  # read + write
        elif name == "tn.greedy_plan":
            flops, biggest = self.mods["tn"].plan_cost(args[0], result)
            c["tn.plan_flops"] += flops
            c["tn.max_intermediate"] = max(c["tn.max_intermediate"], biggest)
        elif name == "zx.apply_rewrites":
            reduced, steps = result
            c["zx.rewrite_steps"] += len(steps)
            c["zx.spiders_after"] += reduced.spider_count()
            for step in steps:
                self.rules[step.rule.value] += 1
        elif name in ("dd.trace", "dd.get_amplitude"):
            # the final DD of each job; canonical DDs give the same count every run
            c["dd.result_nodes"] += self.mods["dd"].node_count(args[1])
        if name.startswith("dd.") and name != "dd.equivalent_dd":
            unique = getattr(args[0], "_unique", None)
            if unique is not None:
                self._job_unique[id(args[0])] = len(unique)

    def start_job(self, job: int) -> None:
        self.job = job
        self._job_unique = {}

    def end_job(self) -> None:
        # unique-table size each DDBackend reached in the job, summed
        self.counters["dd.unique_nodes"] += sum(self._job_unique.values())

    # ---- install / uninstall -----------------------------------------------

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = tracer.span(name, fn, *args, **kwargs)
            tracer._count(name, args, result)
            return result

        return wrapper

    def install(self) -> None:
        for modname, attr, name in _TARGETS:
            mod = self.mods[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name, None)
                fn = getattr(cls, meth, None) if cls is not None else None
                if fn is not None:
                    self._replace(cls, meth, fn, self._wrap(name, fn))
                continue
            fn = getattr(mod, attr, None)
            if fn is None:
                continue
            wrapper = self._wrap(name, fn)
            # every qcdesk module that bound the function by name, e.g. `from .ir import gate_matrix`
            for m in list(sys.modules.values()):
                if getattr(m, "__name__", "").startswith("qcdesk") and getattr(m, attr, None) is fn:
                    self._replace(m, attr, fn, wrapper)

    def _replace(self, owner, attr: str, original, wrapper) -> None:
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def self_times(spans: list[Span]) -> dict[str, float]:
    """Total self time per span name: duration minus time covered by children."""
    child = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.end - s.start
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        out[s.name] += (s.end - s.start) - child[s.id]
    return out


def verify_split(spans: list[Span]) -> tuple[float, float]:
    """(decision time, witness time) summed over verify.check_equivalence spans."""
    decision: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.name in DECISION_SPANS and s.parent is not None:
            decision[s.parent] += s.end - s.start
    decide = witness = 0.0
    for s in spans:
        if s.name == "verify.check_equivalence":
            total = s.end - s.start
            d = decision.get(s.id, total)
            decide += d
            witness += total - d
    return decide, witness
