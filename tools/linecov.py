"""Lines of src/visplit that tier-1 never runs, and why each one stays.

Runs the tier-1 suite in this process under a ``sys.settrace`` collector
that records line events only in frames whose code lives in
``src/visplit``, then compares them with every line the compiled modules
can execute. Each missed line is kept for a reason: an abstract method's
``NotImplementedError``, a ``__repr__``, the ``__main__`` guard, or a
self-check listed in ``KEPT`` that fires only when an invariant breaks. A
missed line with no reason is reported and fails the run: test it or
delete it.

    python tools/linecov.py     # writes tools/linecov.json

Standard library only, besides the pytest that tier-1 itself runs under.
Tracing makes tier-1 about twice as slow: 105-126 s against 54 s on a
two-core host. Not part of tier-1.
"""

from __future__ import annotations

import ast
import json
import os
import sys
import threading
import time
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "visplit"
RECORD = ROOT / "tools" / "linecov.json"
PYTEST_ARGS = ["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors"]

# Missed lines that no rule in ``reason`` covers, each with why it stays, by
# (file, enclosing function, stripped line text).
KEPT = {
    ("__init__.py", "__dir__", "return sorted(set(globals()) | set(__all__))"):
        "runs in the fresh interpreter of tests/test_imports.py::test_lazy_exports_resolve, "
        "which an in-process collector cannot see",
    ("checks.py", "check_innerloop", "worst_exit = max(worst_exit, 1.0)"):
        "self-check: run_inner from an infeasible point always projects at least once",
    ("oracle.py", "qp_project",
     'raise InfeasibleConstraint("zero-normal halfspace with negative offset")'):
        "self-check: a Halfspace that is not the whole space has a normal of positive length",
    ("oracle.py", "feasible_points", 'raise ConfigError("sampler produced an infeasible point")'):
        "self-check: each family's sampler draws inside its own set",
    ("oracle.py", "reference_solution", 'raise ConfigError("stationarity solve failed")'):
        "self-check: fires when the a3 solve leaves a residual above 1e-8 of the size of "
        "M x and c",
}


def executable_lines(path: Path) -> set[int]:
    """Every line number that some code object compiled from ``path`` can run."""
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    lines = set()
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def run_traced() -> tuple[int, dict[str, set[int]]]:
    """Tier-1's exit code, and the lines it ran in each file of ``SRC``."""
    import pytest

    # Every executable line is a key from the start, so marking one run is a
    # store into an existing slot: tracing allocates nothing while tests
    # measure their heap.
    hits = {p.name: dict.fromkeys(executable_lines(p), False) for p in SRC.glob("*.py")}
    prefix = str(SRC.resolve()) + os.sep
    files: dict[str, dict[int, bool] | None] = {}

    def local(frame, event, arg):
        if event == "line":
            files[frame.f_code.co_filename][frame.f_lineno] = True
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in files:
            path = os.path.realpath(name)
            files[name] = hits.get(path[len(prefix):]) if path.startswith(prefix) else None
        lines = files[name]
        if lines is None:
            return None
        lines[frame.f_lineno] = True
        return local

    cwd = os.getcwd()
    os.chdir(ROOT)
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(PYTEST_ARGS)
    finally:
        sys.settrace(None)
        threading.settrace(None)
        os.chdir(cwd)
    return int(code), {file: {n for n, ran in lines.items() if ran} for file, lines in hits.items()}


def _scopes(tree: ast.AST):
    """(first line, last line, qualified name, node) of every def, class and ``__main__`` guard."""
    out = []

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}{child.name}"
                out.append((child.lineno, child.end_lineno, name, child))
                walk(child, name + ".")
            elif isinstance(child, ast.If) and ast.unparse(child.test) == "__name__ == '__main__'":
                out.append((child.lineno, child.end_lineno, "__main__", child))
            else:
                walk(child, prefix)

    walk(tree, "")
    return out


def reason(file: str, scope: str, text: str) -> str | None:
    """Why a missed line stays, or None when nothing explains it."""
    if text.startswith("raise NotImplementedError"):
        return "abstract method: every subclass overrides it"
    if scope.endswith("__repr__"):
        return "repr: for display only"
    if scope == "__main__":
        return "__main__ guard: runs only as a script"
    return KEPT.get((file, scope, text))


def missed_lines(hits: dict[str, set[int]]) -> tuple[int, list[dict]]:
    total, missed = 0, []
    for path in sorted(SRC.glob("*.py")):
        file = path.name
        source = path.read_text(encoding="utf-8")
        text = source.splitlines()
        scopes = _scopes(ast.parse(source))
        lines = executable_lines(path)
        total += len(lines)
        for line in sorted(lines - hits.get(file, set())):
            inner = [s for s in scopes if s[0] <= line <= s[1]]
            scope = max(inner, key=lambda s: s[0])[2] if inner else "<module>"
            stripped = text[line - 1].strip()
            missed.append({
                "file": file, "line": line, "scope": scope, "text": stripped,
                "reason": reason(file, scope, stripped),
            })
    return total, missed


def main() -> int:
    start = time.perf_counter()
    code, hits = run_traced()
    total, missed = missed_lines(hits)
    unexplained = [m for m in missed if m["reason"] is None]
    record = {
        "pytest_exit_code": code,
        "seconds": round(time.perf_counter() - start, 1),
        "executable_lines": total,
        "missed_lines": len(missed),
        "unexplained_lines": len(unexplained),
        "missed": missed,
    }
    RECORD.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for m in unexplained:
        print(f"unexplained: {m['file']}:{m['line']} ({m['scope']}) {m['text']}")
    print(f"{len(missed)} of {total} lines missed, {len(unexplained)} unexplained; "
          f"tier-1 exit {code}; wrote {RECORD.relative_to(ROOT)}")
    return 1 if code or unexplained else 0


if __name__ == "__main__":
    sys.exit(main())
