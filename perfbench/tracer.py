"""Outside-in tracing of bspde: spans recorded around the calls into each
layer, at the names the callers bind, plus the per-layer table built from them.

Nothing inside ``src/bspde`` records anything: the tracer replaces bindings
such as ``bspde.solver.difference_stack_arrays`` with a wrapper for the
duration of a traced run and puts every original back afterwards.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time

# (owner, attribute) bindings per span name; owners are resolved lazily so
# importing this module does not import bspde or numpy.
BINDINGS = {
    "cli.config": [("bspde.cli", "load_config"), ("bspde.cli", "resolve")],
    "cli.command": [
        ("bspde.cli.COMMANDS", command)
        for command in ("solve", "converge", "compare", "check-malliavin")
    ],
    "analysis.study": [
        ("bspde.cli", "convergence_study"),
        ("bspde.cli", "compare_algorithms"),
        ("bspde.cli", "build_malliavin_lattices"),
    ],
    "analysis.identity_check": [("bspde.cli", "check_representation_identity")],
    "analysis.discrete_error": [("bspde.analysis", "discrete_error")],
    "analysis.malliavin_solve": [("bspde.analysis", "solve_malliavin_system")],
    "solver.solve": [("bspde.cli", "solve"), ("bspde.analysis", "solve")],
    "solver.export": [("bspde.cli", "export_lattice_csv")],
    "model.driver": [
        ("bspde.solver", "evaluate_driver"),
        ("bspde.solver", "evaluate_diffusion_driver"),
        ("bspde.analysis", "evaluate_diffusion_driver"),
    ],
    "model.jacobians": [("bspde.analysis", "operator_jacobians")],
    "grid.difference_stack": [
        ("bspde.solver", "difference_stack_arrays"),
        ("bspde.analysis", "difference_stack_arrays"),
    ],
    "stochastics.simulate_increments": [
        ("bspde.solver", "simulate_increments"),
        ("bspde.analysis", "simulate_increments"),
    ],
    "stochastics.condexp": [
        ("bspde.stochastics.ConditionalEstimator", "cond_mean"),
        ("bspde.stochastics.ConditionalEstimator", "cond_mean_times_dw"),
    ],
    "stochastics.lstsq": [("numpy.linalg", "lstsq")],
}


def _resolve_owner(path: str):
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr)
        return obj
    raise ModuleNotFoundError(path)


def _nbytes(stacks) -> int:
    return sum(arr.nbytes for stack in stacks for arr in stack.values())


def _span_attrs(name: str, args, result) -> dict:
    """Counts recorded at the boundary, from the call's arguments and result."""
    if name == "stochastics.condexp":
        return {"entries": int(args[1].size)}
    if name == "grid.difference_stack":
        return {"entries": sum(int(arr.size) for arr in result.values())}
    if name == "solver.solve":
        n0 = args[1].n0
        two = args[2].algorithm == "two"
        return {
            "steps": n0,
            "fp_steps": n0 if two else 0,
            "fp_iterations": sum(result.fp_iterations),
            "lattice_bytes": _nbytes([result.V, result.Vbar]),
        }
    if name == "analysis.malliavin_solve":
        system, base = args[0], args[1]
        return {
            "steps": base.partition.n0 - system.theta_index,
            "lattice_bytes": _nbytes([result.D_V, result.D_Vbar]),
        }
    if name == "solver.export":
        return {"bytes": os.path.getsize(args[1]) + os.path.getsize(args[2])}
    if name == "analysis.identity_check":
        return {"rows": len(result.rows)}
    return {}


class Tracer:
    """Records spans (name, start, end, parent, run id) in memory.

    Use as a context manager: entering installs the wrappers, leaving puts
    back every original binding, in reverse order of installation.
    """

    def __init__(self, run_id: str, clock=time.perf_counter):
        self.run_id = run_id
        self.clock = clock
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def open(self, name: str) -> dict:
        span = {
            "id": len(self.spans),
            "name": name,
            "start": self.clock(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "run": self.run_id,
        }
        self.spans.append(span)
        self._stack.append(span["id"])
        return span

    def close(self, span: dict) -> None:
        span["end"] = self.clock()
        self._stack.pop()

    def _wrapper(self, name: str, original):
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = tracer.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(span)
            span.update(_span_attrs(name, args, result))
            return result

        return traced

    def wrap(self, owner, attr: str, name: str) -> None:
        """Replace ``owner.attr`` (or ``owner[attr]`` for a dict) with a traced wrapper."""
        if isinstance(owner, dict):
            original = owner[attr]
            owner[attr] = self._wrapper(name, original)
        else:
            original = vars(owner)[attr]
            setattr(owner, attr, self._wrapper(name, original))
        self._patches.append((owner, attr, original))

    def install(self) -> None:
        for name, bindings in BINDINGS.items():
            for owner_path, attr in bindings:
                self.wrap(_resolve_owner(owner_path), attr, name)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        try:
            self.install()
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span duration minus the part of its interval that child spans cover."""
    children: dict[int, list[dict]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(span)
    out = {}
    for span in spans:
        start, end = span["start"], span["end"]
        covered = 0.0
        reach = start
        for child in sorted(children.get(span["id"], []), key=lambda s: s["start"]):
            lo, hi = max(child["start"], reach), min(child["end"], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[span["id"]] = (end - start) - covered
    return out


# Per-layer metric names and units, in report order.
LAYER_METRICS = {
    "stochastics.simulate_increments.s": "s",
    "stochastics.condexp.calls": "count",
    "stochastics.condexp.s": "s",
    "stochastics.condexp.entries": "count",
    "stochastics.lstsq.calls": "count",
    "stochastics.lstsq.s": "s",
    "stochastics.fits_per_step": "ratio",
    "grid.difference_stack.calls": "count",
    "grid.difference_stack.s": "s",
    "grid.difference_stack.entries": "count",
    "model.driver.calls": "count",
    "model.driver.s": "s",
    "model.jacobians.s": "s",
    "solver.solve.calls": "count",
    "solver.solve.s": "s",
    "solver.steps": "count",
    "solver.fp_iterations": "count",
    "solver.fp_retries": "count",
    "solver.fp_iterations_per_step": "ratio",
    "solver.lattice_mb": "MB",
    "solver.export.s": "s",
    "solver.export.bytes": "bytes",
    "solver.export.mb_per_s": "MB/s",
    "analysis.discrete_error.calls": "count",
    "analysis.discrete_error.s": "s",
    "analysis.malliavin_solve.calls": "count",
    "analysis.malliavin_solve.s": "s",
    "analysis.malliavin_solve.inclusive_s": "s",
    "analysis.malliavin_steps": "count",
    "analysis.malliavin_lattice_mb": "MB",
    "analysis.identity_check.s": "s",
    "analysis.identity_rows": "count",
    "analysis.study.s": "s",
    "cli.config.s": "s",
    "cli.command.s": "s",
    "cli.output.bytes": "bytes",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


def layer_metrics(spans: list[dict], output_bytes: int) -> dict[str, float]:
    """The per-layer table of one traced run; ``trace.*`` is filled by the caller.

    Times are self times, except ``analysis.malliavin_solve.inclusive_s``.
    """
    selfs = self_times(spans)
    calls: dict[str, int] = {}
    secs: dict[str, float] = {}
    totals: dict[str, float] = {}
    for span in spans:
        name = span["name"]
        calls[name] = calls.get(name, 0) + 1
        secs[name] = secs.get(name, 0.0) + selfs[span["id"]]
        for key, value in span.items():
            if key not in ("id", "name", "start", "end", "parent", "run"):
                totals[f"{name}.{key}"] = totals.get(f"{name}.{key}", 0) + value

    def total(key):
        return totals.get(key, 0)

    solver_steps = total("solver.solve.steps")
    malliavin_steps = total("analysis.malliavin_solve.steps")
    fp_iterations = total("solver.solve.fp_iterations")
    fp_steps = total("solver.solve.fp_steps")
    lattices = [s.get("lattice_bytes", 0) for s in spans if s["name"] == "solver.solve"]
    export_s = secs.get("solver.export", 0.0)
    export_bytes = total("solver.export.bytes")
    mb = 1e6
    out = {
        "stochastics.simulate_increments.s": secs.get("stochastics.simulate_increments", 0.0),
        "stochastics.condexp.calls": calls.get("stochastics.condexp", 0),
        "stochastics.condexp.s": secs.get("stochastics.condexp", 0.0),
        "stochastics.condexp.entries": total("stochastics.condexp.entries"),
        "stochastics.lstsq.calls": calls.get("stochastics.lstsq", 0),
        "stochastics.lstsq.s": secs.get("stochastics.lstsq", 0.0),
        "stochastics.fits_per_step": calls.get("stochastics.lstsq", 0)
        / max(solver_steps + malliavin_steps, 1),
        "grid.difference_stack.calls": calls.get("grid.difference_stack", 0),
        "grid.difference_stack.s": secs.get("grid.difference_stack", 0.0),
        "grid.difference_stack.entries": total("grid.difference_stack.entries"),
        "model.driver.calls": calls.get("model.driver", 0),
        "model.driver.s": secs.get("model.driver", 0.0),
        "model.jacobians.s": secs.get("model.jacobians", 0.0),
        "solver.solve.calls": calls.get("solver.solve", 0),
        "solver.solve.s": secs.get("solver.solve", 0.0),
        "solver.steps": solver_steps,
        "solver.fp_iterations": fp_iterations,
        "solver.fp_retries": fp_iterations - fp_steps,
        "solver.fp_iterations_per_step": fp_iterations / fp_steps if fp_steps else 0.0,
        "solver.lattice_mb": max(lattices, default=0) / mb,
        "solver.export.s": export_s,
        "solver.export.bytes": export_bytes,
        "solver.export.mb_per_s": export_bytes / mb / export_s if export_s else 0.0,
        "analysis.discrete_error.calls": calls.get("analysis.discrete_error", 0),
        "analysis.discrete_error.s": secs.get("analysis.discrete_error", 0.0),
        "analysis.malliavin_solve.calls": calls.get("analysis.malliavin_solve", 0),
        "analysis.malliavin_solve.s": secs.get("analysis.malliavin_solve", 0.0),
        "analysis.malliavin_solve.inclusive_s": sum(
            s["end"] - s["start"] for s in spans if s["name"] == "analysis.malliavin_solve"
        ),
        "analysis.malliavin_steps": malliavin_steps,
        "analysis.malliavin_lattice_mb": total("analysis.malliavin_solve.lattice_bytes") / mb,
        "analysis.identity_check.s": secs.get("analysis.identity_check", 0.0),
        "analysis.identity_rows": total("analysis.identity_check.rows"),
        "analysis.study.s": secs.get("analysis.study", 0.0),
        "cli.config.s": secs.get("cli.config", 0.0),
        "cli.command.s": secs.get("cli.command", 0.0),
        "cli.output.bytes": output_bytes,
    }
    return out
