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
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
KERNELS = {
    "_advance", "_diagnose", "_kept_rows", "_run_inner", "_feasible_shortcut", "_project_pair",
    "Constraint._separator", "Constraint._dist_upper", "Halfspace._project",
    "BallSet._project", "BallSet._distance", "NormFunction._value", "cli._execute_run",
    "cli._check_outdir",
    "_floats", "as_point", "norm", "difference", "as_dim", "_diagonal", "_symmetric_part",
    "AffineOperator._select", "ScaledOperator._select", "sum_select", "Quadratic._value",
    "NormFunction._subgradient", "MaxOfAffine._value", "MaxOfAffine._subgradient",
    "Constraint.__init__", "_ball_solution", "_rows_solution", "_solve", "vi_gap", "qp_project",
    "reference_solution", "probe_affine", "_family", "AffineOperator._setup",
    "Quadratic.half_sq_distance", "Quadratic.ball_gauge", "_fields", "_frozen",
    "grid_vi_solution", "StepsizeSchedule", "PowerStepsize", "ConstantStepsize",
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


RECORDED = "tests/test_golden.py::test_every_reported_number_matches_the_golden_table"


def _stub_runs(monkeypatch, mutants, outcomes):
    """Stub the mutant's copy to the package alone and each pytest run to the
    next of ``outcomes`` (exit code, output); return the argument lists run."""
    calls = []

    def run(args, **kwargs):
        calls.append(args[1:])
        return subprocess.CompletedProcess(args, *outcomes[len(calls) - 1])

    monkeypatch.setattr(mutants, "_copy_checkout", _package_copy)
    monkeypatch.setattr(subprocess, "run", run)
    return calls


def test_a_recorded_failure_that_still_fails_kills_without_the_suite(monkeypatch):
    mutants = _mutants()
    calls = _stub_runs(monkeypatch, mutants, [(1, f"FAILED {RECORDED} - AssertionError\n")])
    record = mutants.run_mutant(mutants.MUTANTS[0], RECORDED)
    assert calls == [[*mutants.FIRST_ARGS, RECORDED]]
    assert (record["verdict"], record["first_failure"]) == ("killed", RECORDED)


@pytest.mark.parametrize("code, out", [
    (0, "1 passed\n"),
    (1, "FAILED tests/test_space.py::test_other - AssertionError\n"),
    (4, "ERROR: not found: " + RECORDED + "\n"),
], ids=["passes", "another-fails", "gone"])
def test_a_recorded_failure_that_does_not_fail_falls_through_to_the_suite(monkeypatch, code,
                                                                            out):
    mutants = _mutants()
    new = "tests/test_cli.py::test_check_command"
    calls = _stub_runs(monkeypatch, mutants, [(code, out), (1, f"FAILED {new} - Error\n")])
    record = mutants.run_mutant(mutants.MUTANTS[0], RECORDED)
    assert calls == [[*mutants.FIRST_ARGS, RECORDED], mutants.PYTEST_ARGS]
    assert (record["verdict"], record["first_failure"]) == ("killed", new)


@pytest.mark.parametrize("recorded", [None, "timeout after 600 s"], ids=["none", "not-a-test"])
def test_a_mutant_without_a_recorded_test_runs_the_suite(monkeypatch, recorded):
    mutants = _mutants()
    calls = _stub_runs(monkeypatch, mutants, [(0, "640 passed\n")])
    record = mutants.run_mutant(mutants.MUTANTS[0], recorded)
    assert calls == [mutants.PYTEST_ARGS]
    assert (record["verdict"], record["first_failure"]) == ("survived", None)
