"""Span tracer for the traced run, applied to visplit from the outside.

``instrument`` replaces public callables of the imported visplit modules
with wrappers that record a span per call: name, start, end, the span that
was open when it began (its parent) and the outer step it belongs to. Spans
are kept in memory and written once, when the benchmark ends. Nothing in
``src/`` knows about the tracer; the wrappers live in this process only.

Counting rules: a span's self time is its duration minus its children's.
``calls`` counts only outermost calls of a name (a ScaledOperator.select
that calls AffineOperator.select is one selection), while self time sums
over every span of the name. The span names are the layer names of the
package: ``space``, ``operators``, ``constraints``, ``innerloop``,
``solver``, ``problems`` and ``cli``.
"""

from __future__ import annotations

import gzip
import time

import numpy as np

LAYERS = ("space", "operators", "constraints", "innerloop", "solver", "problems", "cli")

# Dense matrix-vector products per call, as functions of the instance. The
# flop and byte counts derived from them are computed, not measured.
MATVECS = {
    ("AffineOperator", "select"): lambda o: [o.matrix.shape],
    ("Quadratic", "value"): lambda o: [o.Q.shape],
    ("Quadratic", "subgradient"): lambda o: [o.Q.shape],
    ("MaxOfAffine", "value"): lambda o: [o.rows.shape],
    ("MaxOfAffine", "subgradient"): lambda o: [o.rows.shape],
    ("_GraphResidual", "value"): lambda o: [o.matrix.shape],
    ("_GraphResidual", "subgradient"): lambda o: [o.matrix.shape] * 2,
    ("_SaddleCoupling", "select"): lambda o: [o.matrix.shape] * 2,
    ("GraphSet", "project"): lambda o: [o._solve.shape, o.matrix.shape, o.matrix.shape],
}


class Tracer:
    """In-memory spans plus the counters that are cheapest to take at the call."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, step id]
        self.stack = []
        self.step = -1
        self.step_points = set()
        self.fn_repeats = 0
        self.inner_iterations = []
        self.budget_failures = 0
        self.flops = 0
        self.bytes = 0
        self.retained = 0
        self.run_steps = 0

    def wrap(self, name, fn, before=None, after=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            rec = [name, 0.0, 0.0, parent, self.step]
            stack.append(len(spans))
            spans.append(rec)
            if before is not None:
                before(args, parent)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if after is not None:
                after(args, out)
            return out

        return traced

    # Hooks -------------------------------------------------------------

    def _note_point(self, args, parent):
        """Count gauge evaluations at a point already seen in this outer step."""
        if parent >= 0 and self.spans[parent][0] == "operators.fn_value":
            return
        key = (id(args[0]), np.asarray(args[1], dtype=float).tobytes())
        if key in self.step_points:
            self.fn_repeats += 1
        else:
            self.step_points.add(key)

    def _matvec_hook(self, shapes_of):
        def after(args, out):
            for rows, cols in shapes_of(args[0]):
                self.flops += 2 * rows * cols
                self.bytes += 8 * (rows * cols + rows + cols)

        return after

    def _outer_step(self, fn):
        inner = self.wrap("solver.outer_step", fn)

        def step(*args, **kwargs):
            self.step += 1
            self.step_points.clear()
            try:
                return inner(*args, **kwargs)
            finally:
                self.step = -1

        return step

    def _run_inner(self, fn, budget_error):
        def counted(*args, **kwargs):
            try:
                res = fn(*args, **kwargs)
            except budget_error:
                self.budget_failures += 1
                raise
            self.inner_iterations.append(res.iterations)
            return res

        return self.wrap("innerloop.run_inner", counted)

    def _run_done(self, args, state):
        self.retained += len(state.trace) + len(state.cycle_checks)
        self.run_steps += state.k

    # Report ------------------------------------------------------------

    def report(self, solve_s: float, info: dict, rebuild_s: float) -> dict:
        """Per-layer metrics of the traced pass, keyed by their benchmark names."""
        spans = self.spans
        n = len(spans)
        dur = [s[2] - s[1] for s in spans]
        child = [0.0] * n
        for i, s in enumerate(spans):
            if s[3] >= 0:
                child[s[3]] += dur[i]
        calls, self_s, layer_s = {}, {}, dict.fromkeys(LAYERS, 0.0)
        for i, s in enumerate(spans):
            name, parent = s[0], s[3]
            own = dur[i] - child[i]
            self_s[name] = self_s.get(name, 0.0) + own
            layer_s[name.split(".", 1)[0]] += own
            if parent < 0 or spans[parent][0] != name:
                calls[name] = calls.get(name, 0) + 1

        # Stages of the outer step: children that run before its first
        # selection are the feasibility stage; selections and region
        # projections after it are the cycle; the rest are diagnostics.
        stage = {"feasibility": 0.0, "cycle": 0.0, "diagnostics": 0.0}
        cycling = set()
        step_dur, cli_self = [], 0.0
        for i, s in enumerate(spans):
            name, parent = s[0], s[3]
            if name == "solver.outer_step":
                step_dur.append(dur[i])
            elif name == "cli.main":
                cli_self += dur[i]
            if parent < 0:
                continue
            pname = spans[parent][0]
            if pname == "cli.main" and name in ("problems.build", "solver.run"):
                cli_self -= dur[i]
            if pname != "solver.outer_step":
                continue
            if name == "operators.select":
                cycling.add(parent)
            if parent not in cycling:
                stage["feasibility"] += dur[i]
            elif name in ("operators.select", "constraints.halfspace_project",
                          "constraints.exact_project"):
                stage["cycle"] += dur[i]
            else:
                stage["diagnostics"] += dur[i]

        steps = max(len(step_dur), 1)
        per_step = 1e6 / steps

        def c(name):
            return calls.get(name, 0) / steps

        def us(name):
            return self_s.get(name, 0.0) * per_step

        fn_calls = calls.get("operators.fn_value", 0)
        inner_calls = calls.get("innerloop.run_inner", 0)
        iters = self.inner_iterations
        out = {
            "space.as_point.calls_per_step": c("space.as_point"),
            "space.as_point.self_us_per_step": us("space.as_point"),
            "operators.select.calls_per_step": c("operators.select"),
            "operators.select.self_us_per_step": us("operators.select"),
            "operators.fn_value.calls_per_step": c("operators.fn_value"),
            "operators.fn_value.self_us_per_step": us("operators.fn_value"),
            "operators.fn_value.repeat_share": self.fn_repeats / fn_calls if fn_calls else 0.0,
            "operators.fn_subgradient.calls_per_step": c("operators.fn_subgradient"),
            "operators.matvec_flops_per_step": self.flops / steps,
            "operators.matvec_bytes_per_step": self.bytes / steps,
            "constraints.separator_at.calls_per_step": c("constraints.separator_at"),
            "constraints.separator_at.self_us_per_step": us("constraints.separator_at"),
            "constraints.dist_upper.calls_per_step": c("constraints.dist_upper"),
            "constraints.dist_upper.self_us_per_step": us("constraints.dist_upper"),
            "constraints.project_halfspace_pair.calls_per_step":
                c("constraints.project_halfspace_pair"),
            "constraints.project_halfspace_pair.self_us_per_step":
                us("constraints.project_halfspace_pair"),
            "constraints.halfspace_project.calls_per_step": c("constraints.halfspace_project"),
            "constraints.region_distance.calls_per_step": c("constraints.region_distance"),
            "innerloop.run_inner.share_of_steps": inner_calls / steps,
            "innerloop.projections_per_call.mean": float(np.mean(iters)) if iters else 0.0,
            "innerloop.projections_per_call.max": max(iters, default=0),
            "innerloop.run_inner.self_us_per_call":
                self_s.get("innerloop.run_inner", 0.0) * 1e6 / inner_calls if inner_calls else 0.0,
            "innerloop.feasible_shortcut.calls_per_step": c("innerloop.feasible_shortcut"),
            "innerloop.budget_failures": self.budget_failures,
            "solver.outer_steps": len(step_dur),
            "solver.stage.feasibility_us_per_step": stage["feasibility"] * per_step,
            "solver.stage.cycle_us_per_step": stage["cycle"] * per_step,
            "solver.stage.diagnostics_us_per_step": stage["diagnostics"] * per_step,
            "solver.outer_step.self_us_per_step": us("solver.outer_step"),
            "solver.outer_step.p50_us": float(np.percentile(step_dur, 50)) * 1e6 if step_dur else 0.0,
            "solver.outer_step.p99_us": float(np.percentile(step_dur, 99)) * 1e6 if step_dur else 0.0,
            "solver.retained_records_per_step": self.retained / max(self.run_steps, 1),
            "problems.build_s": (
                sum(d for d, s in zip(dur, spans) if s[0] == "problems.build")
                if "problems.build" in calls else rebuild_s
            ),
            "cli.self_s": cli_self,
            "cli.trace_bytes": info.get("trace_bytes", 0),
            "trace.solve_s": solve_s,
            "trace.accounted_share": sum(layer_s.values()) / solve_s,
        }
        for layer in LAYERS:
            out[f"{layer}.self_us_per_step"] = layer_s[layer] * per_step
        return out

    def write(self, path: str) -> None:
        """Write every span as CSV (times in seconds from the first span)."""
        base = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("index,name,start_s,end_s,parent,step\n")
            for i, (name, t0, t1, parent, step) in enumerate(self.spans):
                fh.write(f"{i},{name},{t0 - base:.9f},{t1 - base:.9f},{parent},{step}\n")


def instrument(tr: Tracer) -> None:
    """Wrap visplit's public callables in this process so every call is a span."""
    from visplit import cli, constraints, innerloop, operators, problems, solver, space
    from visplit.errors import IterationBudgetExceeded

    original = space.as_point
    point = tr.wrap("space.as_point", original)
    for mod in (space, constraints, operators, innerloop, solver, problems):
        if getattr(mod, "as_point", None) is original:
            mod.as_point = point

    def wrap_methods(base, spans_by_method, hooks=None):
        for mod in (operators, constraints, problems):
            for cls in vars(mod).values():
                if not (isinstance(cls, type) and issubclass(cls, base)):
                    continue
                if cls.__module__ != mod.__name__:
                    continue
                for meth, span in spans_by_method.items():
                    if meth not in cls.__dict__:
                        continue
                    after = None
                    shapes = MATVECS.get((cls.__name__, meth))
                    if shapes is not None:
                        after = tr._matvec_hook(shapes)
                    before = (hooks or {}).get(meth)
                    setattr(cls, meth, tr.wrap(span, cls.__dict__[meth], before, after))

    wrap_methods(operators.Operator, {"select": "operators.select"})
    wrap_methods(
        operators.ConvexFunction,
        {"value": "operators.fn_value", "subgradient": "operators.fn_subgradient"},
        hooks={"value": tr._note_point},
    )
    wrap_methods(
        constraints.Constraint,
        {
            "value": "constraints.value",
            "subgradient": "constraints.subgradient",
            "dist_upper": "constraints.dist_upper",
            "separator_at": "constraints.separator_at",
        },
    )
    wrap_methods(
        constraints.Halfspace,
        {"project": "constraints.halfspace_project", "distance": "constraints.region_distance"},
    )
    wrap_methods(
        constraints.ExactSet,
        {"project": "constraints.exact_project", "distance": "constraints.region_distance"},
    )

    pair = tr.wrap("constraints.project_halfspace_pair", constraints.project_halfspace_pair)
    constraints.project_halfspace_pair = innerloop.project_halfspace_pair = pair
    solver.run_inner = innerloop.run_inner = tr._run_inner(innerloop.run_inner, IterationBudgetExceeded)
    shortcut = tr.wrap("innerloop.feasible_shortcut", innerloop.feasible_shortcut)
    solver.feasible_shortcut = innerloop.feasible_shortcut = shortcut
    solver.outer_step = tr._outer_step(solver.outer_step)
    solver.run = cli.run = tr.wrap("solver.run", solver.run, after=tr._run_done)
    problems.build = tr.wrap("problems.build", problems.build)
    cli.main = tr.wrap("cli.main", cli.main)
