#!/usr/bin/env python3
"""Run tier-1 against a fixed list of source mutants; each must be killed.

    python3 tools/mutants.py

The tree is copied once into a temporary directory, so this checkout's
.hypothesis database and caches stay as they are. Each mutant replaces one
string, which must occur exactly once in its file under src/qcdesk/, runs the
tier-1 command with -x on a fresh hypothesis database, and is restored. A
mutant is killed when tier-1 fails (or runs past TIMEOUT seconds). Prints
killed or survived per mutant, and exits 1 if any survives: a check that
would catch the change has been lost, or the list holds a mutant that no
output can show, which does not belong in it.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors", "-x"]
TIMEOUT = 600

# (file under src/qcdesk, old, new)
MUTANTS = [
    # the verdict rule: dense, dd and the empty miter
    ("verify.py", "t = tr / abs(tr) if tr else 1 + 0j", "t = tr / abs(tr) if tr else 1j"),
    ("verify.py", "if worst <= EQUIVALENCE_TOLERANCE:", "if worst <= 1e-6:"),
    ("verify.py", "phase = t.conjugate()  # U2", "phase = t  # U2"),
    ("verify.py", "overlap <= overlap.min() + EQUIVALENCE_TOLERANCE", "overlap <= overlap.min()"),
    ("verify.py", "u.flat[:: len(u) + 1] -= t", "u.flat[:: len(u)] -= t"),
    ("verify.py", "if not m.circuit.gates:", "if len(m.circuit.gates) < 2:"),
    ("verify.py", "for j in range(i + 1, len(states)):", "for j in range(i + 2, len(states)):"),
    ("dd.py", "_magnitudes(diff.node, max, 1)", "_magnitudes(diff.node, min, 1)"),
    ("dd.py", "return DDEquivalence(True, t.conjugate())", "return DDEquivalence(True, t)"),
    ("dd.py", "DDEdge(-t, backend.identity_mdd(n)", "DDEdge(t, backend.identity_mdd(n)"),
    ("dd.py", "return e0.w * t[e0.node] + e3.w * t[e3.node]", "return e0.w * t[e0.node] + e3.w * t[e0.node]"),
    ("dd.py", "bound = scale * least[node] + EQUIVALENCE_TOLERANCE", "bound = scale * least[node]"),
    # the miter's cancellation
    ("ir.py", "near = max((latest[q][-1]", "near = min((latest[q][-1]"),
    ("ir.py", "                latest[q].pop()", "                latest[q].clear()"),
    ("ir.py", "split = sum(g is not None for g in gates[: len(c1.gates)])", "split = len(c1.gates)"),
    # DD zero tests, normalization and arithmetic
    ("dd.py", "_ZERO_BELOW = 5e-11", "_ZERO_BELOW = 5e-10"),
    ("dd.py", "abs(w.real) < _ZERO_BELOW and abs(w.imag)", "abs(w.real) < _ZERO_BELOW or abs(w.imag)"),
    ("dd.py", "if e is ZERO_EDGE or _is_zero(e.w):", "if e is ZERO_EDGE:"),
    ("dd.py", "                w = e.w / norm", "                w = e.w * norm"),
    ("dd.py", "_GRID_DECIMALS = 10", "_GRID_DECIMALS = 6"),
    ("dd.py", "            w = a.w + b.w", "            w = a.w - b.w"),
    # the one product walk: a block node above its qubit, on either side,
    # and a leaf of a block DD, on either side
    ("dd.py", "            if an.var < level:", "            if an.var <= level:"),
    ("dd.py", "            elif bn.var < level:", "            elif bn.var <= level:"),
    ("dd.py", "else DDEdge(a.w * b.w, b.node)", "else DDEdge(b.w, b.node)"),
    ("dd.py", "else DDEdge(a.w * b.w, an)", "else DDEdge(a.w, an)"),
    # the level-by-level expansion: a node's block offset and its edges' weights
    ("dd.py", "half = top[(2 * slot + k) * h : (2 * slot + k + 1) * h]", "half = top[(slot + k) * h : (slot + k + 1) * h]"),
    ("dd.py", "np.multiply(e.w, below[child : child + h], out=half)",
     "np.multiply(node.edges[0].w, below[child : child + h], out=half)"),
    # DD simulation of the plan: the start's column and the block DD's split order
    ("dd.py", "DDEdge(x, node) for x in f[:, 0]", "DDEdge(x, node) for x in f[:, 1]"),
    ("dd.py", "bit = 1 << (len(qubits) - 1)", "bit = 1"),
    # the dense kernel's index arithmetic and the product start
    ("dense.py", "shape + (1 << (top - 1 - q), 2), q", "shape + (1 << (top - q), 2), q"),
    ("dense.py", "for r in range(c + 1, d)))", "for r in range(c + 2, d)))"),
    ("dense.py", "if cols == [r] and m[r][r] == 1:", "if cols == [r]:"),
    ("dense.py", "for j in range(0, free[axis - 1], step)", "for j in range(0, free[axis - 1] - 1, step)"),
    ("dense.py", "interleaved = shape[-1] == 1", "interleaved = False"),
    ("dense.py", "f[:, (basis >> q) & 1, None]", "f[:, basis & 1, None]"),
    ("dense.py", "            old *= f[0, 0]", "            old += 0"),
    # the front end's one decision: a state ends on its support only if every block is monomial
    ("dense.py", "held = len(shape) == 1 and len(run) == len(blocks)", "held = len(shape) == 1"),
    # the scatter into the buffer: a unitary's row bits sit above its column bits
    ("dense.py", "_read(starts, forms, idx, size.bit_length() - 1 - n)", "_read(starts, forms, idx, 0)"),
    # the support state: its start, its sorted index, the normalizer and lookups
    ("dense.py", "if k or not lead:", "if k:"),
    ("dense.py", "    idx.sort()\n", ""),
    ("dense.py", "pvals /= probs.sum()", "pvals /= pvals.sum()"),
    # the one probability path: |a|^2, not |a|
    ("dense.py", "probs[idx] = np.square(p, out=p)", "probs[idx] = p"),
    ("dense.py", "np.searchsorted(idx, (lo, hi))", "np.searchsorted(idx, (lo, hi + 1))"),
    # the GF(2) forms of the support phase
    ("dense.py", "forms = [2 << q for q in range(n)]", "forms = [1 << q for q in range(n)]"),
    ("dense.py", "forms[q] = perm[0] >> t & 1", "forms[q] = 0"),
    ("dense.py", "if (perm[1 << s] ^ perm[0]) >> t & 1:", "if perm[1 << s] >> t & 1:"),
    ("dense.py", "value = sum((form & 1) << (t + at) for", "value = 0 * sum((form & 1) << (t + at) for"),
    ("dense.py", "offsets = [(image if i else 0)", "offsets = [(0 if i else image)"),
    ("dense.py", "if coef != [1] * len(coef):", "if coef[0] != 1:"),
    # the TN plan check and cost
    ("tn.py", "if i == j or i not in self.live", "if i not in self.live"),
    ("tn.py", "if sorted(net.open_indices) != sorted(dangling):", "if len(net.open_indices) != len(dangling):"),
    ("tn.py", "self.flops += size << len(shared)", "self.flops += size"),
    ("tn.py", "perm = [result.indices.index(l) for l in net.open_indices]", "perm = list(range(len(result.indices)))"),
    # the ZX rules and tensor semantics
    ("zx.py", "if d.phase[v].is_zero() and len(d.nbrs[v]) == 2:", "if len(d.nbrs[v]) == 2:"),
    ("zx.py", "d.add_edge(a, b, PLAIN if ka == kb else HADAMARD)", "d.add_edge(a, b, PLAIN)"),
    ("zx.py", "d.phase[u] += d.phase[v]", "d.phase[u] = d.phase[v]"),
    ("zx.py", "            if kind == HADAMARD:\n                self.phase[u] += _PI",
     "            if kind == PLAIN:\n                self.phase[u] += _PI"),
    ("zx.py", "        if old != kind:\n            self.phase[u] += _PI",
     "        if old == kind:\n            self.phase[u] += _PI"),
    ("zx.py", "g.nbrs[v][w] = g.nbrs[w][v] = _toggle(kind)", "g.nbrs[v][w] = g.nbrs[w][v] = kind"),
    ("zx.py", "+= np.exp(1j * phase.radians)", "+= np.exp(-1j * phase.radians)"),
    # the gate tables: ir's rows, zx's gadgets and two-qubit entries
    ("ir.py", "GateKind.S: (GateKind.SDG,", "GateKind.S: (GateKind.S,"),
    ("ir.py", "np.diag([1, 1, 1, -1])", "np.diag([1, 1, -1, 1])"),
    ("ir.py", "None if g.angle is None else -g.angle", "g.angle"),
    ("zx.py", "GateKind.RX: ((SpiderColor.X, None),)", "GateKind.RX: ((SpiderColor.Z, None),)"),
    ("zx.py", "GateKind.CZ: (SpiderColor.Z, HADAMARD)", "GateKind.CZ: (SpiderColor.Z, PLAIN)"),
    ("zx.py", "GateKind.CX: (SpiderColor.X, PLAIN)", "GateKind.CX: (SpiderColor.Z, PLAIN)"),
    # the compact rule: correctly rounded magnitudes
    ("cli.py", "np.hypot(vals.real, vals.imag) > _COMPACT_EPS", "np.abs(vals) > _COMPACT_EPS"),
]


def orphans(root: Path) -> list[str]:
    """A line for each mutant whose string does not occur exactly once in its file under root."""
    found = []
    for file, old, _ in MUTANTS:
        count = (root / "src/qcdesk" / file).read_text().count(old)
        if count != 1:
            found.append(f"{file}: {old!r} occurs {count} times, not once")
    return found


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="qcdesk-mutants-") as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
            ".git", ".hypothesis", ".pytest_cache", "__pycache__", ".bench_run", ".bench_out"))
        missing = orphans(tree)
        for line in missing:
            print(f"error: {line}", file=sys.stderr)
        if missing:
            return 2
        env = dict(os.environ, PYTHONPATH="src" + os.pathsep + os.environ.get("PYTHONPATH", ""))
        survived = 0
        for k, (file, old, new) in enumerate(MUTANTS, 1):
            path = tree / "src/qcdesk" / file
            original = path.read_text()
            path.write_text(original.replace(old, new))
            shutil.rmtree(tree / ".hypothesis", ignore_errors=True)
            try:
                failed = subprocess.run(TIER1, cwd=tree, env=env, stdout=subprocess.DEVNULL,
                                        stderr=subprocess.DEVNULL, timeout=TIMEOUT).returncode != 0
            except subprocess.TimeoutExpired:
                failed = True
            finally:
                path.write_text(original)
            survived += not failed
            change = f"{old!r} -> {new!r}".replace("\\n", " ")
            print(f"{k:2d} {'killed  ' if failed else 'SURVIVED'} {file}: {change}", flush=True)
        print(f"{len(MUTANTS) - survived} of {len(MUTANTS)} mutants killed")
        return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
