"""One-line mutants of visplit's step kernels, of the operator and space
kernels they call, of the oracle's reference routes and of the summability
class each schedule declares, each run against tier-1 alone.

A mutant replaces one piece of text in ``src/visplit``: a constant tweak, a
flipped comparison, or a dropped term, branch, copy or conversion of a
user's value. Each target must occur exactly once in the whole package, or
nothing runs; the module that holds it is the one mutated, so a kernel may
move between modules with no edit here. The script copies the checkout to a
fresh temporary directory per mutant, applies the mutant there (never in
the checkout), and runs tests there under a timeout, failure first: the
test that ``mutants.json`` records as the mutant's first failure runs alone,
and the mutant is killed when that run exits 1 naming that test as failing.
Any other outcome (the test passes, is gone, or there is no record) falls
through to the tier-1 suite with ``-x -p no:cacheprovider``, leaving out
only ``tests/test_mutants.py``, which checks this list against the sources,
and the suite's first failure is recorded. A mutant is killed when a run
fails; one that passes the whole suite is either marked equivalent with its
reason in ``MUTANTS`` or reported as a survivor to pin. ``DELETED`` lists
code that was removed, because earlier survivors showed no test could see
it or because its job went; its text must occur nowhere in the package.

    python tools/mutants.py            # all mutants; writes tools/mutants.json
    python tools/mutants.py P03 I01    # only these; prints, writes nothing

Standard library only. On a two-core host a mutant killed by its recorded
test takes 1-6 s, one that runs the suite 15-53 s, and the list about 11
minutes (671 s; it took 3,262 s when every mutant ran the suite).
"""

from __future__ import annotations

import json
import os
import platform
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
RECORD = ROOT / "tools" / "mutants.json"
TIMEOUT_S = 600
# Tier-1 but the list's own check, which every applied mutant fails by design.
PYTEST_ARGS = ["-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
               "--continue-on-collection-errors", "--ignore=tests/test_mutants.py"]
# One recorded test alone, tried before the suite.
FIRST_ARGS = ["-m", "pytest", "-q", "-p", "no:cacheprovider"]

PACKAGE = "src/visplit"


class Mutant(NamedTuple):
    id: str
    kernel: str
    kind: str  # constant, comparison, term, branch, copy or conversion
    target: str
    replacement: str
    equivalent: str = ""  # why a surviving mutant is kept, if it is


class Deleted(NamedTuple):
    id: str
    kernel: str
    text: str
    reason: str


MUTANTS = (
    Mutant("A01", "_advance", "comparison", "z0 = z if cz <= 0 else", "z0 = z if cz < 0 else"),
    Mutant("A02", "_advance", "comparison", "    elif cz <= 0:\n", "    elif cz < 0:\n"),
    Mutant("A03", "_advance", "term", "z, cz, theta * beta, max_inner", "z, cz, beta, max_inner"),
    Mutant("A04", "_advance", "constant", "probe = max(1.0, *norms)", "probe = max(0.5, *norms)"),
    Mutant("A05", "_advance", "term", "alpha = beta / probe", "alpha = beta"),
    Mutant("A06", "_advance", "constant", "    points = [z0]\n    eta = 1.0\n",
           "    points = [z0]\n    eta = 0.5\n"),
    Mutant("A07", "_advance", "term", "eta = max(eta, norm(u))", "eta = max(1.0, norm(u))"),
    Mutant("A08", "_advance", "branch", "region._project(points[-1] - alpha * u)",
           "(points[-1] - alpha * u)"),
    Mutant("A09", "_advance", "term", "sigma = state.sigma + alpha", "sigma = alpha"),
    Mutant("A10", "_advance", "branch", "if not np.isfinite(z_next).all():", "if False:"),
    Mutant("A11", "_advance", "branch", "if not all(map(math.isfinite, norms)):", "if False:"),
    Mutant("A12", "_advance", "term", "if not (beta > 0 and math.isfinite(beta)):",
           "if not math.isfinite(beta):"),
    Mutant("A15", "_advance", "conversion", "    beta = float(beta)\n", ""),
    Mutant("A16", "_advance", "branch", "if alpha == 0.0:", "if False:"),
    Mutant("A17", "_advance", "conversion",
           "else _intake(region._project(z), problem.dim, region)", "else region._project(z)"),
    Mutant("A18", "_advance", "conversion", "norm(_intake(op._select(z0), problem.dim, op))",
           "norm(op._select(z0))"),
    Mutant("A19", "_advance", "conversion", "u = _intake(op._select(points[-1]), problem.dim, op)",
           "u = op._select(points[-1])"),
    Mutant("A20", "_advance", "conversion",
           "_intake(region._project(points[-1] - alpha * u), problem.dim, region)",
           "region._project(points[-1] - alpha * u)"),
    Mutant("A21", "_advance", "branch",
           "else _intake(region._project(z), problem.dim, region)",
           "else np.asarray(region._project(z), dtype=float)"),
    Mutant("A22", "_advance", "branch", "norm(_intake(op._select(z0), problem.dim, op))",
           "norm(np.asarray(op._select(z0), dtype=float))"),
    Mutant("A23", "_advance", "branch", "u = _intake(op._select(points[-1]), problem.dim, op)",
           "u = np.asarray(op._select(points[-1]), dtype=float)"),
    Mutant("A24", "_advance", "branch",
           "_intake(region._project(points[-1] - alpha * u), problem.dim, region)",
           "np.asarray(region._project(points[-1] - alpha * u), dtype=float)"),
    Mutant("D01", "_diagnose", "term", "gap - (j - i) * step_bound", "gap - step_bound"),
    Mutant("D02", "_diagnose", "constant", "    drift = 0.0\n", "    drift = -math.inf\n"),
    Mutant("D03", "_diagnose", "branch",
           "for j in range(i + 1, len(points)):\n            gap = norm(",
           "for j in range(i + 1, min(i + 2, len(points))):\n            gap = norm("),
    Mutant("D04", "_diagnose", "term", "region._distance(p) for p in points)",
           "region._distance(p) for p in points[1:])"),
    Mutant("D05", "_diagnose", "comparison", "step.eta > 10.0 * step.probe",
           "step.eta >= 10.0 * step.probe"),
    Mutant("D06", "_diagnose", "constant", "step.eta > 10.0 * step.probe",
           "step.eta > 100.0 * step.probe"),
    Mutant("D07", "_diagnose", "term", "(m - 1) * problem._eta_bar", "m * problem._eta_bar"),
    Mutant("D08", "_diagnose", "term", "2.0 * theta * problem._u_bar", "2.0 * problem._u_bar"),
    Mutant("D09", "_diagnose", "term", "before = norm(step.z - xs) ** 2",
           "before = norm(points[0] - xs) ** 2"),
    Mutant("D10", "_diagnose", "conversion", "containment = float(max(", "containment = (max("),
    Mutant("K01", "_kept_rows", "term", "step.k % cadence", "k % cadence"),
    Mutant("K02", "_kept_rows", "branch", "elif target_dist", "if target_dist"),
    Mutant("K03", "_kept_rows", "comparison", "elif k == max_outer - 1", "elif k == max_outer"),
    Mutant("K04", "_kept_rows", "term", "state.stop_reason = stop",
           "state.stop_reason = state.stop_reason or stop"),
    Mutant("I01", "_run_inner", "comparison", "if bound <= tol:", "if bound < tol:"),
    Mutant("I02", "_run_inner", "term", "_project_pair(sep, y, y0)", "_project_pair(sep, y, y)"),
    Mutant("I03", "_run_inner", "constant", "InnerResult(y_next, sep, j + 1, bound)",
           "InnerResult(y_next, sep, j, bound)"),
    Mutant("I04", "_run_inner", "branch", "        y = y_next\n", ""),
    Mutant("F01", "_feasible_shortcut", "copy", "InnerResult(z.copy(), sep, 0, 0.0)",
           "InnerResult(z, sep, 0, 0.0)"),
    Mutant("F02", "_feasible_shortcut", "comparison", "constraint._whole_space if cz < 0 else",
           "constraint._whole_space if cz <= 0 else"),
    Mutant("P01", "_project_pair", "branch",
           "    if dd == 0.0:\n        return sep._project(w)\n", "",
           equivalent="with w == z the localizer is the whole space, and case 2 returns the same "
           "sep._project(w) bit for bit. Kept as a fast path: every feasibility loop starts "
           "here, and without it that projection took 7.3-8.5 us instead of 2.7-2.9 us (dim 10, "
           "two-core host); skew_orbit, which starts a loop on every step, ran 24.8k/23.3k/24.4k "
           "steps_per_s without it against 27.1k/27.3k/30.1k in three alternated 4 s runs, with "
           "its digest c40cfd1c688d6adf unchanged"),
    Mutant("P02", "_project_pair", "branch",
           "if sep._distance(q) <= tol and loc._distance(q) <= tol:", "if True:"),
    Mutant("P03", "_project_pair", "term", "tol = 1e-10 * max(norm(w), norm(z))",
           "tol = 1e-10 * norm(w)"),
    Mutant("P04", "_project_pair", "constant", "tol = 1e-10 *", "tol = 1e-7 *"),
    Mutant("P05", "_project_pair", "branch",
           "    if loc._distance(p) <= tol:\n        return p\n", ""),
    Mutant("P06", "_project_pair", "branch",
           "    if sep._distance(z) <= tol:\n        return z.copy()\n", ""),
    Mutant("P07", "_project_pair", "copy", "        return z.copy()\n", "        return z\n"),
    Mutant("P08", "_project_pair", "term", "    a -= (float(a @ d) / dd) * d\n", ""),
    Mutant("P09", "_project_pair", "constant", "slope > 1e-14 * sep._sq", "slope > 1e-6 * sep._sq"),
    Mutant("P10", "_project_pair", "constant", "max(norm(w), norm(z))",
           "max(1.0, norm(w), norm(z))"),
    Mutant("S01", "Constraint._separator", "comparison", "if cy > 0.0:", "if cy >= 0.0:"),
    Mutant("S02", "Constraint._separator", "term", "float(g @ y) - float(cy))",
           "float(g @ y) + float(cy))"),
    Mutant("S03", "Constraint._separator", "branch", "if not math.isfinite(cy):", "if False:"),
    Mutant("S04", "Constraint._separator", "conversion", "float(g @ y) - float(cy))",
           "float(g @ y) - cy)"),
    Mutant("U01", "Constraint._dist_upper", "comparison", "if cy <= 0.0:", "if cy < 0.0:"),
    Mutant("U02", "Constraint._dist_upper", "constant", "cy / (cy - self._slater_value)",
           "cy / (cy - 2.0 * self._slater_value)"),
    Mutant("U03", "Constraint._dist_upper", "branch", "if not math.isfinite(bound):", "if False:"),
    Mutant("U04", "Constraint._dist_upper", "conversion",
           "return float(self.exact_set._distance(y))", "return self.exact_set._distance(y)"),
    Mutant("U05", "Constraint._dist_upper", "conversion", "        cy = float(cy)\n", ""),
    Mutant("W01", "Constraint.__init__", "conversion", "self._slater_value = float(cw)",
           "self._slater_value = cw"),
    Mutant("H01", "Halfspace._project", "comparison", "if r <= 0.0:", "if r < 0.0:"),
    Mutant("H02", "Halfspace._project", "branch",
           "        if self._sq == 0.0:\n            return y.copy()\n        r = self",
           "        r = self"),
    Mutant("H03", "Halfspace._project", "term", "return y - (r / self._sq) * self.normal",
           "return y - r * self.normal"),
    Mutant("B01", "BallSet._project", "comparison", "if s * r <= self.radius:",
           "if s * r < self.radius:"),
    Mutant("B02", "BallSet._project", "term", "if s * r <= self.radius:", "if r <= self.radius:"),
    Mutant("B03", "BallSet._project", "term", "self.center + (self.radius / r) * d",
           "self.center + self.radius * d"),
    Mutant("B04", "BallSet._distance", "term", "max(0.0, s * r - self.radius)",
           "max(0.0, r - self.radius)"),
    Mutant("N01", "NormFunction._value", "term", "self.scale * s * r", "self.scale * r"),
    Mutant("N02", "NormFunction._value", "term", "self.scale * s * r", "self.scale * (s * r)"),
    Mutant("C01", "cli._execute_run", "constant", "stress = -np.inf, -np.inf, 0",
           "stress = 0.0, 0.0, 0",
           equivalent="every run keeps its final row, and every check's containment and "
           "drift_excess are at least 0.0, so the fold's start never reaches the summary"),
    Mutant("C02", "cli._execute_run", "term", "containment = max(containment, check.containment)",
           "containment = check.containment"),
    Mutant("C03", "cli._execute_run", "term", "drift = max(drift, check.drift_excess)",
           "drift = check.drift_excess"),
    Mutant("C04", "cli._execute_run", "term", "stress += check.eta_stress",
           "stress = check.eta_stress"),
    Mutant("C05", "cli._check_outdir", "branch",
           "        if os.path.lexists(path) and not os.path.isdir(path):\n",
           "        if False:\n"),
    Mutant("C06", "cli._check_outdir", "term", "for path in (ancestor, *(",
           "for path in (outdir, *("),
    Mutant("C07", "cli._check_outdir", "term",
           "for path in (ancestor, *(os.path.join(outdir, label) for label in labels)):",
           "for path in (ancestor,):"),
    Mutant("C08", "cli._check_outdir", "comparison", "while not os.path.lexists(ancestor):",
           "while not os.path.isdir(ancestor):"),
    Mutant("C09", "cli._check_outdir", "branch",
           "        if os.path.lexists(path) and not os.path.isfile(path):\n",
           "        if False:\n"),
    Mutant("Z01", "norm", "branch", "    if sq != math.inf:\n", "    if True:\n"),
    Mutant("Z02", "norm", "branch", "return top if top == math.inf else top * norm(x / top)",
           "return top * norm(x / top)"),
    Mutant("Z03", "difference", "branch", "    if r != math.inf:\n", "    if True:\n"),
    Mutant("Z04", "difference", "term",
           "s = max(float(np.max(np.abs(y))), float(np.max(np.abs(c))))",
           "s = float(np.max(np.abs(y)))"),
    Mutant("Z05", "difference", "term", "d = y / s - c / s", "d = (y - c) / s"),
    Mutant("Z07", "as_point", "branch", "    if not np.isfinite(p).all():\n        raise NonFiniteValue(f\"{name} has",
           "    if False:\n        raise NonFiniteValue(f\"{name} has"),
    Mutant("Z08", "_floats", "branch",
           "if not (isinstance(x, np.ndarray) and x.dtype.kind in \"fiu\"):", "if True:",
           equivalent="every entry of a float, int or uint array is a real number and no bool, "
           "so the entry check passes on it; the fast path skips it because as_point runs on "
           "every public call: _floats of a float64 array took 0.49 us with it against 5.5 us "
           "without at dim 2, and 0.46 us against 358 us at dim 500 (timeit, best of 5, "
           "two-core host)"),
    Mutant("Z10", "as_dim", "comparison", "    if dim < 1:\n", "    if dim < 0:\n"),
    Mutant("O01", "_diagonal", "branch", "if np.count_nonzero(A) != np.count_nonzero(d):",
           "if True:"),
    Mutant("O02", "MaxOfAffine._subgradient", "copy", "return self.rows[i].copy()",
           "return self.rows[i]"),
    Mutant("O03", "_symmetric_part", "branch", "    if not np.all(np.isfinite(sym)):\n",
           "    if False:\n"),
    Mutant("O05", "sum_select", "branch", "        if op.dim != out.size:\n", "        if False:\n"),
    Mutant("O06", "AffineOperator._select", "term", "return (self._diag * x + 0.0) + self.offset",
           "return self._diag * x + self.offset"),
    Mutant("O07", "_diagonal", "copy", "    return d.copy()\n", "    return d\n"),
    Mutant("O08", "_symmetric_part", "branch",
           "    with np.errstate(over=\"ignore\"):\n        sym = 0.5 * (A + A.T)",
           "    if True:\n        sym = 0.5 * (A + A.T)"),
    Mutant("O14", "ScaledOperator._select", "term", "return self.factor * self.base._select(x)",
           "return self.base._select(x)"),
    Mutant("O16", "Quadratic._value", "constant", "float(0.5 * x * g._diag @ x",
           "float(x * g._diag @ x"),
    Mutant("O17", "NormFunction._subgradient", "branch", "        if r == 0.0:\n", "        if False:\n"),
    Mutant("O18", "MaxOfAffine._value", "copy", "return float(np.max(self.rows @ x - self.rhs))",
           "return np.max(self.rows @ x - self.rhs)"),
    Mutant("O19", "MaxOfAffine._subgradient", "term", "np.argmax(self.rows @ x - self.rhs)",
           "np.argmax(self.rows @ x)"),
    Mutant("O20", "Quadratic._value", "branch", "        if self._center is not None:\n",
           "        if False:\n"),
    Mutant("O21", "AffineOperator._setup", "constant", "if not lo >= _PSD_TOL * max(1.0, top):",
           "if not lo >= _PSD_TOL:"),
    Mutant("O22", "Quadratic.half_sq_distance", "branch",
           "if not (constant < math.inf and np.isfinite(b).all()):", "if False:"),
    Mutant("O23", "Quadratic.ball_gauge", "branch", "        if not constant < math.inf:\n",
           "        if False:\n"),
    Mutant("R01", "_ball_solution", "constant", "for _ in range(200):", "for _ in range(30):"),
    Mutant("R02", "_rows_solution", "branch", "if len(sel) and float(np.min(mu)) < -1e-9:",
           "if False:"),
    Mutant("R03", "_rows_solution", "branch",
           "if count and not float(np.max(R @ x - d)) <= 1e-9 * reach:", "if False:"),
    Mutant("R04", "_solve", "branch",
           "raise ConfigError(f\"{route} reference route: {exc}\") from exc", "raise"),
    Mutant("R05", "vi_gap", "term", "worst = np.minimum(worst, float(u @ (d / r)))",
           "worst = np.maximum(worst, float(u @ (d / r)))"),
    Mutant("R06", "qp_project", "branch", "if float(np.max(A @ x - b)) <= tol:", "if True:"),
    Mutant("R07", "qp_project", "constant", "for _ in range(3):", "for _ in range(1):"),
    Mutant("R08", "_rows_solution", "branch",
           "if not float(np.max(np.abs(K @ sol - rside))) / reach <= 1e-8 * s:", "if False:"),
    Mutant("R09", "_rows_solution", "constant", "float(np.min(mu)) < -1e-9",
           "float(np.min(mu)) < -1e-3"),
    Mutant("R10", "qp_project", "constant", "tol = 1e-9 * max(", "tol = 1e-6 * max("),
    Mutant("R11", "vi_gap", "constant", "    worst = np.inf\n", "    worst = 0.0\n"),
    Mutant("R12", "reference_solution", "constant", "not norm(M @ x + c) <= tol",
           "not norm(M @ x + c) <= 1e-8"),
    Mutant("R13", "reference_solution", "constant",
           "value <= 1e-8 or value / slope <= 1e-8 * reach", "value <= 1e-8"),
    Mutant("R14", "reference_solution", "constant", "if not gap >= -tol:",
           "if not gap >= -1e-8:"),
    Mutant("R15", "probe_affine", "constant",
           "t = 1.0 if top <= 1.0 else 2.0 ** min(math.frexp(top)[1], 1023)", "t = 1.0"),
    Mutant("R16", "probe_affine", "term", "1e-8 * max(1.0, float(np.max(np.abs(M))), top)",
           "1e-8 * max(1.0, float(np.max(np.abs(M))))"),
    Mutant("R17", "reference_solution", "branch", "    if not terms < math.inf:\n",
           "    if False:\n"),
    Mutant("R18", "vi_gap", "term", "float(u @ (d / r))", "float(u @ d)"),
    Mutant("R19", "vi_gap", "branch", "        if r > 0.0:\n            worst",
           "        if True:\n            worst"),
    Mutant("R20", "vi_gap", "term", "worst = np.minimum(worst,", "worst = min(worst,"),
    Mutant("R21", "probe_affine", "branch", "    if not np.isfinite(M).all():\n",
           "    if False:\n"),
    Mutant("R22", "_rows_solution", "comparison",
           "if not float(np.max(np.abs(K @ sol - rside))) / reach <= 1e-8 * s:\n"
           "                continue\n"
           "            if len(sel) and float(np.min(mu)) < -1e-9:\n"
           "                continue\n"
           "            if count and not float(np.max(R @ x - d)) <= 1e-9 * reach:",
           "if float(np.max(np.abs(K @ sol - rside))) / reach > 1e-8 * s:\n"
           "                continue\n"
           "            if len(sel) and float(np.min(mu)) < -1e-9:\n"
           "                continue\n"
           "            if count and float(np.max(R @ x - d)) > 1e-9 * reach:"),
    Mutant("R23", "_family", "constant", "row = np.eye(1, dim)", "row = -np.eye(1, dim)"),
    Mutant("R24", "_family", "constant", "(lambda M, c: np.zeros(dim))",
           "(lambda M, c: np.ones(dim))"),
    Mutant("R25", "_family", "term", "Z = np.vstack([np.eye(L.shape[1]), L])",
           "Z = np.vstack([np.eye(L.shape[1]), -L])"),
    Mutant("R26", "_family", "term", '_solve(M, -c, "a3")', '_solve(M, c, "a3")'),
    Mutant("R27", "_ball_solution", "constant", "if norm(x_free - center) <= radius:",
           "if norm(x_free - center) <= radius + 1e-12:"),
    Mutant("R28", "_rows_solution", "constant",
           "s = max(1.0, float(np.max(np.abs(c))) / scale)", "s = 1.0"),
    Mutant("R29", "_rows_solution", "term",
           "float(np.max(np.abs(K @ sol - rside))) / reach <= 1e-8 * s",
           "float(np.max(np.abs(K @ sol - rside))) <= 1e-8 * scale"),
    Mutant("R30", "_rows_solution", "term",
           "[s * Rs, np.zeros((len(sel), len(sel)))]])\n"
           "        rside = np.concatenate([-c, s * d[sel]])",
           "[Rs, np.zeros((len(sel), len(sel)))]])\n"
           "        rside = np.concatenate([-c, d[sel]])"),
    Mutant("R31", "_rows_solution", "term", "reach = max(scale, float(np.max(np.abs(x))))",
           "reach = scale"),
    Mutant("R32", "_fields", "branch", "        if key not in meta:\n", "        if False:\n"),
    Mutant("R33", "grid_vi_solution", "branch", "    if not count <= _MAX_GRID_POINTS:\n",
           "    if False:\n"),
    Mutant("R34", "grid_vi_solution", "comparison", "np.argmin([best_res, res[i]]) == 1",
           "res[i] <= best_res"),
    Mutant("R35", "grid_vi_solution", "comparison", "i = int(np.argmin(res))",
           "i = len(res) - 1 - int(np.argmin(res[::-1]))"),
    Mutant("R36", "grid_vi_solution", "branch", "    if not (xs.size and ys.size):\n",
           "    if False:\n"),
    Mutant("R37", "_rows_solution", "comparison", "for _ in range(2 if s > 1.0 else 0):",
           "for _ in range(2 if s >= 1.0 else 0):"),
    Mutant("R38", "_rows_solution", "branch", "for _ in range(2 if s > 1.0 else 0):",
           "for _ in range(0):"),
    Mutant("M01", "_frozen", "conversion", 'value = _floats(value, f"meta.{key}", "list").copy()',
           "value = np.array(value, dtype=float)"),
    Mutant("G01", "_family", "term", "r = radius * rng.uniform() ** (1.0 / dim)",
           "r = radius * rng.uniform()"),
    Mutant("G02", "_family", "term", "lambda rng: lo + rng.uniform(size=dim) * (hi - lo)",
           "lambda rng: lo + rng.uniform(size=dim) * hi"),
    Mutant("G03", "_family", "comparison", "t_max = min(ts) if ts else 1.0",
           "t_max = max(ts) if ts else 1.0"),
    Mutant("G04", "_family", "term", "p[0] = -abs(p[0])", "p[0] = abs(p[0])"),
    Mutant("G05", "_family", "branch",
           '    if family == "a1":\n'
           '        return (lambda rng: np.zeros(dim)), (lambda M, c: np.zeros(dim))\n', ""),
    Mutant("G06", "_family", "term", "return np.concatenate([x, L @ x])",
           "return np.concatenate([x, -(L @ x)])"),
    Mutant("G07", "_family", "constant", "(lambda rng: rng.standard_normal(dim))",
           "(lambda rng: rng.uniform(-1.0, 1.0, dim))"),
    Mutant("T01", "StepsizeSchedule", "constant", "stepsum_divergent = None",
           "stepsum_divergent = True"),
    Mutant("T02", "StepsizeSchedule", "constant", "sqsum_convergent = None",
           "sqsum_convergent = True"),
    Mutant("T03", "PowerStepsize", "constant", 'kind = "power"\n    stepsum_divergent = True',
           'kind = "power"\n    stepsum_divergent = None'),
    Mutant("T04", "PowerStepsize", "constant", "sqsum_convergent = True",
           "sqsum_convergent = None"),
    Mutant("T05", "ConstantStepsize", "constant", 'kind = "constant"\n    stepsum_divergent = True',
           'kind = "constant"\n    stepsum_divergent = False'),
    Mutant("T06", "ConstantStepsize", "constant", "sqsum_convergent = False",
           "sqsum_convergent = True"),
)

# Code that went: earlier mutants showed it equivalent, or it lost its job.
DELETED = (
    Deleted("X01", "_diagnose", "max(float(region._distance(p)) for p in points)",
            "a float() on every distance is one per cycle point; the containment, their "
            "max, is converted once instead (D10)"),
    Deleted("X02", "_advance",
            "StepSnapshot(k, z.copy(), z0.copy(), z_next.copy(), region, inner_iters)",
            "a step replaces the state's points and writes none of them in place, so the "
            "snapshot keeps the step's own arrays instead of three copies"),
    Deleted("A13", "_advance", "state.snapshots.append(step)",
            "the snapshots hook went: outer_step returns the Step, so no step appends it"),
    Deleted("A14", "_advance", "if state.snapshots is not None:",
            "the snapshots hook went: outer_step returns the Step, so no step appends it"),
    Deleted("O04", "EmbeddedOperator.__init__", "if start < 0 or start + base.dim > dim:",
            "EmbeddedOperator went: the a2 and a3 blocks are diagonal AffineOperators on the "
            "stacked space, whose zero diagonal entries set the block"),
    Deleted("O15", "EmbeddedOperator._select",
            "out[self.start : self.start + self.base.dim] = block",
            "EmbeddedOperator went: a diagonal AffineOperator's selection is +0.0 outside its "
            "block, as the zero-filled array was"),
)


def _sources(root: Path) -> dict[str, str]:
    """The text of every module of the package under ``root``, by path from ``root``."""
    return {path.relative_to(root).as_posix(): path.read_text(encoding="utf-8")
            for path in sorted((root / PACKAGE).rglob("*.py"))}


def _homes(sources: dict[str, str], text: str) -> list[str]:
    """The path of each occurrence of ``text`` in ``sources``, once per occurrence."""
    return [path for path, source in sources.items() for _ in range(source.count(text))]


def check_targets(root: Path = ROOT) -> list[str]:
    """The problems of the lists against the package under ``root``: a mutant
    target that does not occur exactly once in all of it, a deleted text that
    occurs anywhere in it, an id used twice, or a replacement equal to its
    target."""
    problems = []
    ids = [m.id for m in MUTANTS] + [d.id for d in DELETED]
    problems += [f"id {i} is used twice" for i in sorted({i for i in ids if ids.count(i) > 1})]
    sources = _sources(root)
    for m in MUTANTS:
        homes = _homes(sources, m.target)
        if len(homes) != 1:
            problems.append(f"{m.id}: target occurs {len(homes)} times in "
                            f"{', '.join(homes) or PACKAGE}")
        if m.replacement == m.target:
            problems.append(f"{m.id}: replacement equals target")
    for d in DELETED:
        homes = _homes(sources, d.text)
        if homes:
            problems.append(f"{d.id}: deleted text is back in {', '.join(dict.fromkeys(homes))}")
    return problems


def _copy_checkout(dest: Path) -> None:
    ignore = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache", "runs",
                                    ".perfbench_out", "*.egg-info")
    shutil.copytree(ROOT, dest, ignore=ignore)


def _pytest(args: list[str], copy: Path, env: dict) -> tuple[int | None, str, list[str]]:
    """Run pytest in ``copy``: its exit code (None on timeout), output and failing test ids."""
    try:
        proc = subprocess.run([sys.executable, *args], cwd=copy, env=env,
                              capture_output=True, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, f"timeout after {TIMEOUT_S} s", []
    return proc.returncode, proc.stdout, re.findall(r"^(?:FAILED|ERROR) (\S+)", proc.stdout,
                                                    re.MULTILINE)


def run_mutant(m: Mutant, first: str | None = None) -> dict:
    """Apply ``m`` to a fresh copy of the checkout and run ``first``, its recorded
    first failing test, alone there; unless that kills it, run tier-1."""
    with tempfile.TemporaryDirectory(prefix="visplit-mutant-") as tmp:
        copy = Path(tmp) / "repo"
        _copy_checkout(copy)
        sources = _sources(copy)
        (home,) = _homes(sources, m.target)  # one, as check_targets requires
        (copy / home).write_text(sources[home].replace(m.target, m.replacement), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
        t0 = time.perf_counter()
        killed_first = False
        if first and re.fullmatch(r"tests/\S+::\S+", first):
            code, out, failed = _pytest([*FIRST_ARGS, first], copy, env)
            killed_first = code == 1 and first in failed
        if not killed_first:
            code, out, failed = _pytest(PYTEST_ARGS, copy, env)
        seconds = time.perf_counter() - t0
    if code == 0:
        verdict = "equivalent, kept" if m.equivalent else "survived"
    else:
        verdict = "killed"
    record = {
        "id": m.id,
        "kernel": m.kernel,
        "path": home,
        "kind": m.kind,
        "target": m.target,
        "replacement": m.replacement,
        "verdict": verdict,
        "first_failure": failed[0] if failed else (None if code == 0 else out[-200:]),
        "seconds": round(seconds, 1),
    }
    if m.equivalent:
        record["reason"] = m.equivalent
    return record


def main(argv: list[str]) -> int:
    problems = check_targets()
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 2
    chosen = [m for m in MUTANTS if not argv or m.id in argv]
    unknown = set(argv) - {m.id for m in MUTANTS}
    if unknown:
        print(f"unknown mutant ids: {' '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    last = json.loads(RECORD.read_text(encoding="utf-8"))["mutants"]
    recorded = {r["id"]: r["first_failure"] for r in last if r["verdict"] == "killed"}
    records = []
    t0 = time.perf_counter()
    for m in chosen:
        rec = run_mutant(m, recorded.get(m.id))
        records.append(rec)
        print(f"{m.id} {rec['verdict']:17s} {rec['seconds']:6.1f} s  {rec['first_failure'] or ''}",
              flush=True)
    if not argv:
        deleted = [{"id": d.id, "kernel": d.kernel, "deleted": d.text,
                    "verdict": "deleted", "reason": d.reason} for d in DELETED]
        verdicts = [r["verdict"] for r in records + deleted]
        RECORD.write_text(json.dumps({
            "command": "python -m pytest " + " ".join(PYTEST_ARGS[2:]),
            "first_command": "python -m pytest " + " ".join(FIRST_ARGS[2:]) + " FIRST_FAILURE",
            "python": platform.python_version(),
            "cpus": os.cpu_count(),
            "wall_seconds": round(time.perf_counter() - t0),
            "counts": {v: verdicts.count(v) for v in sorted(set(verdicts))},
            "mutants": records + deleted,
        }, indent=2) + "\n", encoding="utf-8")
    return 1 if any(r["verdict"] == "survived" for r in records) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
