"""Config-driven batch front-end.

Subcommands: solve | converge | compare | check-malliavin.
Exit codes: 0 ok, 2 config error, 3 numerical failure.

Every run echoes the fully resolved configuration (all defaults materialized)
and a manifest with seed, wall time, peak RSS and library version (and, for
solve, the time of the solve and of the export).  Data
artifacts are deterministic functions of (config, seed, library version).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

import jsonschema

from . import __version__
from .analysis import (
    # unused here, but perfbench/tracer.py binds its analysis.study span to
    # this name in bspde.cli (tests/test_tracer_bindings.py checks it resolves)
    build_malliavin_lattices,
    check_representation_identity,
    compare_algorithms,
    convergence_study,
    fit_loglog,
)
from .errors import (
    BspdeError,
    CapacityError,
    ConfigError,
    DivergenceError,
    FixedPointDivergenceError,
    OperatorEvaluationError,
    SingularDesignError,
)
from .grid import Partition, build_partition, refine_partition
from .model import BUILTIN_NAMES, BUILTIN_PARAMS, builtin_problem
from .solver import ALGORITHMS, SolverConfig, export_lattice_csv, solve
from .stochastics import ESTIMATOR_KINDS, EstimatorSpec

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

NUMERICAL_ERRORS = (
    DivergenceError,
    FixedPointDivergenceError,
    OperatorEvaluationError,
    CapacityError,
    SingularDesignError,
)

_PARTITION_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["T", "n0", "edges", "counts"],
    "properties": {
        "T": {"type": "number", "exclusiveMinimum": 0},
        "n0": {"type": "integer", "minimum": 1},
        "edges": {"type": "array", "minItems": 1, "maxItems": 3,
                  "items": {"type": "number", "exclusiveMinimum": 0}},
        "counts": {"type": "array", "minItems": 1, "maxItems": 3,
                   "items": {"type": "integer", "minimum": 1}},
    },
}

CONFIG_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["problem", "solver"],
    "properties": {
        "problem": {
            "type": "object",
            "additionalProperties": False,
            "required": ["name"],
            "properties": {
                "name": {"enum": list(BUILTIN_NAMES)},
                "params": {
                    "type": "object",
                    "additionalProperties": {"type": "number"},
                },
            },
        },
        "partition": _PARTITION_SCHEMA,
        "ladder": {
            "type": "object",
            "additionalProperties": False,
            "required": ["base", "levels"],
            "properties": {
                "base": _PARTITION_SCHEMA,
                "levels": {"type": "integer", "minimum": 1},
            },
        },
        "solver": {
            "type": "object",
            "additionalProperties": False,
            "required": ["samples"],
            "properties": {
                "algorithm": {"enum": list(ALGORITHMS)},
                "M": {"type": ["integer", "null"], "minimum": 0},
                "samples": {"type": "integer", "minimum": 1},
                "estimator": {
                    "type": "object",
                    "additionalProperties": False,
                    "properties": {
                        "kind": {"enum": list(ESTIMATOR_KINDS)},
                        "degree": {"type": "integer", "minimum": 0},
                        "ridge": {"type": ["number", "null"], "minimum": 0},
                    },
                },
                "fp_tolerance": {"type": "number", "exclusiveMinimum": 0},
                "fp_max_iters": {"type": "integer", "minimum": 1},
                "paper_literal_stencil": {"type": "boolean"},
                "dump_coefficients": {"type": "boolean"},
            },
        },
        "seed": {"type": "integer", "minimum": 0},
        "output": {
            "type": "object",
            "additionalProperties": False,
            "properties": {"directory": {"type": "string"}},
        },
    },
}

_DEFAULTS = {
    "problem": {"params": {}},
    "solver": {
        "algorithm": "one",
        "M": None,
        "estimator": {"kind": "analytic", "degree": 3, "ridge": None},
        "fp_tolerance": 1e-10,
        "fp_max_iters": 50,
        "paper_literal_stencil": False,
        "dump_coefficients": False,
    },
    "seed": 0,
    "output": {"directory": "out"},
}


def _merge_defaults(config: dict, defaults: dict) -> dict:
    out = dict(config)
    for key, val in defaults.items():
        if key not in out:
            out[key] = val
        elif isinstance(val, dict) and isinstance(out[key], dict):
            out[key] = _merge_defaults(out[key], val)
    return out


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    try:
        jsonschema.validate(raw, CONFIG_SCHEMA)
    except jsonschema.ValidationError as exc:
        path_str = "/".join(str(part) for part in exc.absolute_path) or "<root>"
        raise ConfigError(f"config schema violation at {path_str}: {exc.message}") from exc
    if ("partition" in raw) == ("ladder" in raw):
        raise ConfigError("config must declare exactly one of 'partition' or 'ladder'")
    return _merge_defaults(raw, _DEFAULTS)


def _build_partition(block: dict) -> Partition:
    return build_partition(block["T"], block["n0"], block["edges"], block["counts"])


def resolve(config: dict):
    """Materialize problem, partitions, and solver config from a validated dict."""
    params = dict(config["problem"].get("params", {}))
    if "partition" in config:
        partitions = [_build_partition(config["partition"])]
    else:
        base = _build_partition(config["ladder"]["base"])
        partitions = [base]
        for _ in range(config["ladder"]["levels"] - 1):
            partitions.append(refine_partition(partitions[-1]))
    # built-ins whose closed forms depend on the horizon get it from the grid
    name = config["problem"]["name"]
    T = partitions[0].T
    if "terminal_time" in BUILTIN_PARAMS[name]:
        params.setdefault("terminal_time", T)
        if params["terminal_time"] != T:
            raise ConfigError(
                f"problem param terminal_time = {params['terminal_time']!r} differs from the grid's T = {T!r}"
            )
    spec = builtin_problem(name, params)
    sol = config["solver"]
    est = sol["estimator"]
    solver_config = SolverConfig(
        algorithm=sol["algorithm"],
        samples=sol["samples"],
        estimator=EstimatorSpec(kind=est["kind"], degree=est["degree"], ridge=est["ridge"]),
        M=sol["M"],
        fp_tolerance=sol["fp_tolerance"],
        fp_max_iters=sol["fp_max_iters"],
        seed=config["seed"],
        paper_literal_stencil=sol["paper_literal_stencil"],
        record_coefficients=sol["dump_coefficients"],
    )
    return spec, partitions, solver_config


def _write_json(path, payload) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _fmt(v) -> str:
    if v is None:
        return ""
    return format(v, ".17g") if isinstance(v, float) else str(v)


def _emit_run_records(outdir, config, started, command, stage_s=None) -> None:
    _write_json(os.path.join(outdir, "resolved_config.json"), config)
    manifest = {
        "command": command,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "seed": config["seed"],
        "wall_time_s": round(time.perf_counter() - started, 6),
        "version": __version__,
    }
    if stage_s is not None:
        manifest["stage_s"] = {name: round(s, 6) for name, s in stage_s.items()}
    _write_json(os.path.join(outdir, "manifest.json"), manifest)


def cmd_solve(config: dict, args, outdir: str) -> int:
    started = time.perf_counter()
    spec, partitions, solver_config = resolve(config)
    if len(partitions) != 1:
        raise ConfigError("solve expects a single partition, not a ladder")
    lattice = solve(spec, partitions[0], solver_config)
    solved = time.perf_counter()
    export_lattice_csv(
        lattice,
        os.path.join(outdir, "solution_v.csv"),
        os.path.join(outdir, "solution_vbar.csv"),
    )
    exported = time.perf_counter()
    if lattice.coefficient_records is not None:
        with open(os.path.join(outdir, "coefficients.csv"), "w") as fh:
            fh.write("step,operation,component,multi_index,exponents,coefficient\n")
            for rec in lattice.coefficient_records:
                exps = "|".join(str(e) for e in rec.exponents)
                fh.write(
                    f"{rec.step},{rec.operation},{rec.column},0,{exps},{_fmt(rec.value)}\n"
                )
    stage_s = {"solve": solved - started, "export": exported - solved}
    _emit_run_records(outdir, config, started, "solve", stage_s)
    print(f"solve ok: {lattice.sample_count} samples, {partitions[0].n0} steps -> {outdir}")
    return EXIT_OK


def _criterion_rows(path, rows) -> None:
    with open(path, "w") as fh:
        fh.write("mesh_size,err_V_sq,err_Vbar_sq,total,stderr_total,samples,seed,algorithm\n")
        for mesh, report, seed, algorithm in rows:
            fh.write(
                f"{_fmt(mesh)},{_fmt(sum(report.err_V_sq.values()))},"
                f"{_fmt(sum(report.err_Vbar_sq.values()))},{_fmt(report.total)},"
                f"{_fmt(report.stderr_total)},{report.samples},{seed},{algorithm}\n"
            )


def cmd_converge(config: dict, args, outdir: str) -> int:
    started = time.perf_counter()
    spec, partitions, solver_config = resolve(config)
    if len(partitions) < 3:
        raise ConfigError("converge needs a ladder with at least 3 levels")
    fit = convergence_study(spec, partitions, solver_config)
    rows = [
        (part.mesh_size, rep, config["seed"], solver_config.algorithm)
        for part, rep in zip(partitions, fit.reports)
    ]
    _criterion_rows(os.path.join(outdir, "convergence.csv"), rows)
    _emit_run_records(outdir, config, started, "converge")
    if fit.degenerate:
        print("converge: degenerate (errors at machine-zero); no slope fitted")
    else:
        print(f"converge: fitted slope {fit.slope:.4f} over {len(partitions)} levels")
    return EXIT_OK


def cmd_compare(config: dict, args, outdir: str) -> int:
    started = time.perf_counter()
    spec, partitions, solver_config = resolve(config)
    rows = []
    points = []
    for part in partitions:
        report = compare_algorithms(spec, part, solver_config)
        rows.append((part.mesh_size, report, config["seed"], "one-vs-two"))
        points.append((part.mesh_size, report.total))
    _criterion_rows(os.path.join(outdir, "compare.csv"), rows)
    _emit_run_records(outdir, config, started, "compare")
    if len(points) >= 3:
        slope, *_rest, degenerate = fit_loglog(points)
        if degenerate:
            print("compare: degenerate (discrepancy at machine-zero)")
        else:
            print(f"compare: discrepancy slope {slope:.4f}")
    else:
        print(f"compare: total discrepancy {points[0][1]:.6e}")
    return EXIT_OK


def cmd_check_malliavin(config: dict, args, outdir: str) -> int:
    started = time.perf_counter()
    spec, partitions, solver_config = resolve(config)
    if len(partitions) != 1:
        raise ConfigError("check-malliavin expects a single partition")
    base = solve(spec, partitions[0], solver_config)
    report = check_representation_identity(spec, base)
    header_x = ",".join(f"x{l+1}" for l in range(spec.p))
    with open(os.path.join(outdir, "malliavin.csv"), "w") as fh:
        fh.write(f"t,{header_x},c,multi_index,mean_lhs,mean_rhs,var_lhs,var_rhs,zscore\n")
        for row in report.rows:
            xs = ",".join(_fmt(v) for v in row.x)
            tag = "-".join(map(str, row.multi_index))
            if spec.q * spec.d > 1:
                tag += f"/r{row.component[0]}i{row.component[1]}"
            fh.write(
                f"{_fmt(row.t)},{xs},{row.c},{tag},{_fmt(row.mean_lhs)},"
                f"{_fmt(row.mean_rhs)},{_fmt(row.var_lhs)},{_fmt(row.var_rhs)},"
                f"{_fmt(row.zscore)}\n"
            )
    _emit_run_records(outdir, config, started, "check-malliavin")
    print(f"check-malliavin: max |z| = {report.max_abs_z:.4f} over {len(report.rows)} nodes")
    return EXIT_OK


COMMANDS = {
    "solve": cmd_solve,
    "converge": cmd_converge,
    "compare": cmd_compare,
    "check-malliavin": cmd_check_malliavin,
}


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bspde",
        description="Backward-scheme solver and verification harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", required=True, help="experiment config (JSON)")
        cmd.add_argument("--out", default=None, help="output directory override")
        cmd.add_argument("--seed", type=int, default=None, help="seed override")
        cmd.add_argument(
            "--paper-literal-stencil",
            action="store_true",
            help="use the sign-reversed right-boundary stencil for comparison runs",
        )
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        config = load_config(args.config)
        if args.seed is not None:
            config["seed"] = args.seed
        if args.paper_literal_stencil:
            config["solver"]["paper_literal_stencil"] = True
        outdir = args.out or config["output"]["directory"]
        config["output"]["directory"] = outdir
        os.makedirs(outdir, exist_ok=True)
        return COMMANDS[args.command](config, args, outdir)
    except NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except BspdeError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
