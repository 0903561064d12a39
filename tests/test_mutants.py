"""The mutant list of tools/mutants.py against the package it mutates.

Each mutant target must occur exactly once in all of src/visplit, and the
module that holds it is the file the mutant is applied to. A refactor that
rewrites a mutated line makes its target miss, and one that repeats it in
another module makes it ambiguous; tools/mutants.py would then refuse to
run, and this test says so at once instead. Moving a kernel between modules
needs no edit of the list.
"""

import importlib.util
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
KERNELS = {
    "_advance", "_diagnose", "_kept_rows", "_run_inner", "_feasible_shortcut", "_project_pair",
    "Constraint._separator", "Constraint._dist_upper", "Halfspace._project",
    "BallSet._project", "BallSet._distance", "NormFunction._value", "cli._execute_run",
    "_floats", "as_point", "norm", "difference", "as_dim", "_diagonal", "_symmetric_part",
    "AffineOperator._select", "ScaledOperator._select", "sum_select", "Quadratic._value",
    "NormFunction._subgradient", "MaxOfAffine._value", "MaxOfAffine._subgradient",
    "Constraint.__init__", "_ball_solution", "_rows_solution", "_solve", "vi_gap", "qp_project",
    "reference_solution", "probe_affine", "_feasible_point", "AffineOperator._setup",
    "Quadratic.half_sq_distance", "Quadratic.ball_gauge",
}


def _mutants():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _package_copy(tmp_path):
    """A copy of the package's sources under ``tmp_path``, as check_targets reads them."""
    shutil.copytree(ROOT / "src" / "visplit", tmp_path / "src" / "visplit",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return tmp_path / "src" / "visplit"


def test_every_mutant_target_occurs_exactly_once():
    mutants = _mutants()
    assert mutants.check_targets(ROOT) == []
    assert len(mutants.MUTANTS) >= 74
    assert {m.kernel for m in mutants.MUTANTS} == KERNELS
    assert "--ignore=tests/test_mutants.py" in mutants.PYTEST_ARGS


def test_a_target_twinned_in_another_module_is_reported(tmp_path):
    mutants = _mutants()
    package = _package_copy(tmp_path)
    (target,) = [m.target for m in mutants.MUTANTS if m.id == "A05"]
    with open(package / "oracle.py", "a", encoding="utf-8") as f:
        f.write(f"\n\ndef _twin(beta, probe):\n    {target}\n    return alpha\n")
    assert mutants.check_targets(tmp_path) == [
        "A05: target occurs 2 times in src/visplit/oracle.py, src/visplit/solver.py"
    ]


def test_a_kernel_moved_to_another_module_needs_no_edit(tmp_path):
    mutants = _mutants()
    package = _package_copy(tmp_path)
    oracle = (package / "oracle.py").read_text(encoding="utf-8")
    start = oracle.index("def _ball_solution(")
    end = oracle.index("def _rows_solution(")
    kernel = oracle[start:end]
    assert "for _ in range(200):" in kernel
    (package / "oracle.py").write_text(oracle[:start] + oracle[end:], encoding="utf-8")
    with open(package / "space.py", "a", encoding="utf-8") as f:
        f.write("\n\n" + kernel)
    assert mutants.check_targets(tmp_path) == []
