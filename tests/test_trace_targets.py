"""The names the benchmark tracer wraps must exist in qcdesk.

``bench/spans.py`` skips a missing name silently, so a rename would zero that
layer's metrics without any failure; this test turns it into one.
"""
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


spans = _load_spans()


@pytest.mark.parametrize("modname, attr, name", spans._TARGETS)
def test_target_resolves(modname, attr, name):
    owner = importlib.import_module(f"qcdesk.{modname}")
    for part in attr.split("."):  # a method is looked up on its class
        assert hasattr(owner, part), f"{name}: qcdesk.{modname} has no {attr}"
        owner = getattr(owner, part)
    assert callable(owner)


def test_decision_spans_are_targets():
    names = {name for _, _, name in spans._TARGETS}
    assert set(spans.DECISION_SPANS) <= names


def test_table_calls_reach_the_wrapped_names(tmp_path, capsys):
    """Calls dispatched through verify's backend tables still pass through the
    names the tracer replaced, so a table that held a traced function itself
    (bound before install) would lose these spans."""
    from qcdesk import cli

    a = tmp_path / "a.qcf"
    a.write_text("qubits 2\nh 1\ncx 1 0\n")
    b = tmp_path / "b.qcf"
    b.write_text("qubits 2\nh 1\ncx 1 0\nx 0\n")
    mods = {m: importlib.import_module(f"qcdesk.{m}") for m, _, _ in spans._TARGETS}
    tracer = spans.Tracer(mods)
    tracer.install()
    try:
        for backend in ("dd", "tn"):
            assert cli.run(["amplitude", "--backend", backend, "--basis", "11", str(a)]) == 0
        for method in ("dd", "zx"):
            assert cli.run(["verify", "--method", method, str(a), str(b)]) == 1
    finally:
        tracer.uninstall()
    capsys.readouterr()
    names = {s.id: s.name for s in tracer.spans}
    recorded = set(names.values())
    assert {"dd.get_amplitude", "tn.greedy_plan"} <= recorded
    for decision in ("dd.equivalent_dd", "zx.equivalent_zx"):
        parents = {names.get(s.parent) for s in tracer.spans if s.name == decision}
        assert parents == {"verify.check_equivalence"}, decision
