"""Import boundaries: what ``import visplit``, ``import visplit.cli`` and a run load.

Each check runs in a fresh interpreter, so modules this test process has
already imported cannot hide an eager import.
"""

import os
import subprocess
import sys

import visplit

SRC = os.path.dirname(os.path.dirname(os.path.abspath(visplit.__file__)))


def _python(code: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


def test_import_visplit_loads_no_oracle_problems_or_checks():
    loaded = _python(
        "import sys, visplit\n"
        "for m in ('visplit.oracle', 'visplit.problems', 'visplit.checks'):\n"
        "    print(m in sys.modules)"
    )
    assert loaded == ["False"] * 3


def test_import_cli_loads_no_oracle_checks_or_thread_pool():
    loaded = _python(
        "import sys, visplit.cli\n"
        "for m in ('visplit.oracle', 'visplit.checks', 'concurrent.futures', 'dataclasses'):\n"
        "    print(m in sys.modules)"
    )
    assert loaded == ["False"] * 4


def test_a_solver_run_loads_only_the_solver_modules():
    # The paper's step needs each operator's selection, the constraint's
    # subgradient and halfspace projections; the families' oracles and sets,
    # the reference oracle and the CLI stay unloaded and uncompiled.
    loaded = _python(
        "import sys\n"
        "from visplit import AffineOperator, Constraint, PowerStepsize, Problem, Quadratic\n"
        "from visplit import solver\n"
        "problem = Problem(\n"
        "    operators=(AffineOperator([[0.0, 1.0], [-1.0, 0.0]]),),\n"
        "    constraint=Constraint(Quadratic.ball_gauge([0.0, 0.0], 1.0),\n"
        "                          slater_point=[0.0, 0.0]),\n"
        "    label='hand_built',\n"
        ")\n"
        "state = solver.run(problem, PowerStepsize(1.0, 0.6), x0=[2.0, 0.0], max_outer=20)\n"
        "print(state.k)\n"
        "print(*sorted(m for m in sys.modules if m.startswith('visplit.')))"
    )
    assert loaded == [
        "20", "visplit.constraints", "visplit.errors", "visplit.innerloop",
        "visplit.operators", "visplit.solver", "visplit.space",
    ]


def test_a_visplit_run_loads_only_the_run_modules(tmp_path):
    # One config through `visplit run` builds a family and runs the solver;
    # the reference oracle and the check sweeps stay unloaded.
    cfg = tmp_path / "a2.json"
    cfg.write_text('{"family": "a2", "max_outer": 5}')
    loaded = _python(
        "import contextlib, io, sys\n"
        "from visplit.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = main(['run', {str(cfg)!r}, '--output', {str(tmp_path / 'out')!r}])\n"
        "print(code)\n"
        "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'visplit'))"
    )
    assert loaded == [
        "0", "visplit", "visplit.cli", "visplit.constraints", "visplit.errors",
        "visplit.innerloop", "visplit.operators", "visplit.problems", "visplit.solver",
        "visplit.space",
    ]


def test_lazy_exports_resolve():
    out = _python(
        "import visplit\n"
        "for name in visplit.__all__:\n"
        "    getattr(visplit, name)\n"
        "print(set(visplit.__all__) <= set(dir(visplit)))\n"
        "try:\n"
        "    visplit.nonexistent\n"
        "except AttributeError:\n"
        "    print('AttributeError')\n"
        "from visplit import problems\n"
        "print(problems.build is visplit.build)\n"
        "ns = {}\n"
        "exec('from visplit import *', ns)\n"
        "print(set(visplit.__all__) <= set(ns))"
    )
    assert out == ["True", "AttributeError", "True", "True"]


def test_benchmark_tracer_instruments_every_name_it_patches():
    # perfbench/tracer.py patches solver, innerloop, constraints, problems
    # and cli callables by attribute name, so a renamed or deleted name
    # breaks the benchmark's traced pass (`--trace 1`) with an AttributeError.
    perfbench = os.path.join(os.path.dirname(SRC), "perfbench")
    out = _python(
        "import sys\n"
        "sys.dont_write_bytecode = True\n"
        f"sys.path.insert(0, {perfbench!r})\n"
        "import tracer\n"
        "from visplit import problems, solver\n"
        "tr = tracer.Tracer()\n"
        "tracer.instrument(tr)\n"
        "state = solver.run(problems.build('a1', {}), solver.PowerStepsize(1.0, 1.0),\n"
        "                   x0=[2.0, 3.0], max_outer=50)\n"
        "names = {span[0] for span in tr.spans}\n"
        "print(state.k)\n"
        "for name in ('problems.build', 'solver.run'):\n"
        "    print(name in names)"
    )
    assert out == ["50", "True", "True"]
