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
