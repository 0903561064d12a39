"""The mutant list of tools/mutants.py against the sources it mutates.

A refactor that moves or rewrites a mutated line makes its target miss, and
tools/mutants.py would then refuse to run; this test says so at once instead.
"""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
KERNELS = {
    "_advance", "_diagnose", "_kept_rows", "_run_inner", "_feasible_shortcut", "_project_pair",
    "Constraint._separator", "Constraint._dist_upper", "Halfspace._project",
    "BallSet._project", "BallSet._distance", "NormFunction._value", "cli._execute_run",
    "_floats", "as_point", "norm", "difference", "as_dim", "_diagonal", "_symmetric_part",
    "AffineOperator._select", "ScaledOperator._select", "sum_select", "Quadratic._value",
    "NormFunction._subgradient", "MaxOfAffine._value", "MaxOfAffine._subgradient",
    "Constraint.__init__", "_ball_solution",
}


def _mutants():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_mutant_target_occurs_exactly_once():
    mutants = _mutants()
    assert mutants.check_targets(ROOT) == []
    assert len(mutants.MUTANTS) >= 74
    assert {m.kernel for m in mutants.MUTANTS} == KERNELS
    assert set(mutants.KERNELS) == KERNELS | {d.kernel for d in mutants.DELETED}
    assert "--ignore=tests/test_mutants.py" in mutants.PYTEST_ARGS
