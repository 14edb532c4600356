"""Every def and class in src/qcdesk has a caller outside the tests.

A name counts as used when src/ (outside the name's own definition), bench/
or tools/ refers to it. A method, or a def nested in another, is referred to
by its name: as a name, an attribute, an imported name, or a part of a string
of dotted names (a span target, an __all__ entry). A module-level def or
class is matched by its module too, so that another module's def of the same
name is no caller: it is referred to by a name in its own module, an import
from its module, `<module>.<name>`, or a dotted string naming both, such as
the span "dense.apply_gate". Dunder methods are called by Python itself. An
oracle that only tests call stays when its test is the point of keeping it;
ORACLES names that test.

Each source mutant of tools/mutants.py names a string that occurs exactly
once in its file, so a change to the source that orphans a mutant fails here,
not only in the mutant run."""
import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# name -> the test that makes it an oracle
ORACLES = {
    "zx_to_tensor": "tests/test_zx.py::TestRewrites::test_rewrites_preserve_semantics_up_to_scalar",
    "exhaustive_optimal_plan": "tests/test_acceptance.py::test_criterion_8_plan_quality",
    "plug_basis_states": "tests/test_acceptance.py::test_criterion_5_zx_fixtures",
}


def references(tree: ast.AST) -> list[tuple[str | None, str, int]]:
    """(qualifier, name, line) of every reference in tree. The qualifier is
    None for a plain name, the module of an import, the name left of an
    attribute's dot or of a dotted string's part ("" if there is none)."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.append((None, node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            left = node.value
            qualifier = left.id if isinstance(left, ast.Name) else getattr(left, "attr", "")
            found.append((qualifier, node.attr, node.lineno))
        elif isinstance(node, ast.ImportFrom):
            module = (node.module or "").split(".")[-1]
            found.extend((module, alias.name, node.lineno) for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                found.extend(zip([""] + parts, parts, [node.lineno] * len(parts)))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            parts = node.value.split(".")
            if all(part.isidentifier() for part in parts):
                found.extend(zip([""] + parts, parts, [node.lineno] * len(parts)))
    return found


def unused() -> list[str]:
    files = sorted(path for top in ("src", "bench", "tools") for path in (ROOT / top).rglob("*.py"))
    refs = {path: references(ast.parse(path.read_text())) for path in files}
    out = []
    for path in sorted((ROOT / "src/qcdesk").glob("*.py")):
        tree = ast.parse(path.read_text())
        for d in ast.walk(tree):
            if not isinstance(d, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if d.name.startswith("__") and d.name.endswith("__"):
                continue
            top = d in tree.body
            if not any(
                name == d.name
                and (other != path or not d.lineno <= line <= d.end_lineno)
                and (not top or qualifier == path.stem or (qualifier is None and other == path))
                for other, found in refs.items()
                for qualifier, name, line in found
            ):
                out.append(f"{path.name}: {d.name}")
    return out


def test_every_def_has_a_caller_outside_the_tests():
    assert [u for u in unused() if u.split(": ")[1] not in ORACLES] == []


def test_each_oracle_is_unused_and_its_test_calls_it():
    # an oracle that gains a caller leaves the list; one whose test is gone is no oracle
    assert sorted(u.split(": ")[1] for u in unused()) == sorted(ORACLES)
    for name, test in ORACLES.items():
        file, *path = test.split("::")
        node = ast.parse((ROOT / file).read_text())
        for part in path:
            (node,) = [d for d in node.body if isinstance(d, (ast.FunctionDef, ast.ClassDef)) and d.name == part]
        assert name in {n for _, n, _ in references(node)}, test


def test_each_mutant_string_occurs_once():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools/mutants.py")
    mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)
    assert mutants.orphans(ROOT) == []
