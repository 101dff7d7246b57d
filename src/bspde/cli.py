"""Config-driven batch front-end.

Subcommands: solve | converge | compare | check-malliavin.
Exit codes: 0 ok, 2 config error, 3 numerical failure.

The config is JSON.  This module checks only its shape (see `load_config`);
each value is checked by the library constructor that receives it.  Every run
echoes the fully resolved configuration (all defaults materialized) and a
manifest with seed, wall time, peak RSS and library version (and, for solve,
the time of the solve and of the export).  Data artifacts are deterministic
functions of (config, seed, library version).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import resource
import sys
import time

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
    check_value,
)
from .grid import build_partition, refine_partition
from .model import builtin_problem
from .solver import SolverConfig, export_lattice_csv, solve
from .stochastics import EstimatorSpec

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

NUMERICAL_ERRORS = (
    DivergenceError,
    FixedPointDivergenceError,
    OperatorEvaluationError,
    CapacityError,
)

# each block's required and optional keys; the library's constructors check the values
_KEYS = {
    "config": (("problem", "solver"), ("partition", "ladder", "seed", "output")),
    "problem": (("name",), ("params",)),
    "partition": (("T", "n0", "edges", "counts"), ()),
    "ladder": (("base", "levels"), ()),
    "solver": (("samples",), ("algorithm", "M", "estimator", "fp_tolerance", "fp_max_iters",
                              "paper_literal_stencil", "dump_coefficients")),
    "estimator": ((), ("kind", "degree")),
    "output": ((), ("directory",)),
}


def _block(value, kind: str, where: str) -> dict:
    """value, if it is an object with every key that kind requires and no other."""
    required, optional = _KEYS[kind]
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be an object, got {value!r}")
    for key in required:
        if key not in value:
            raise ConfigError(f"{where} lacks the required key {key!r}")
    for key in value:
        if key not in required + optional:
            raise ConfigError(f"{where} has an unknown key {key!r}")
    return value


def _solver_config(config: dict) -> SolverConfig:
    block = _block(config["solver"], "solver", "solver")
    estimator = _block(block.get("estimator", {}), "estimator", "solver.estimator")
    fields = {key: value for key, value in block.items() if key != "estimator"}
    if "seed" in config:
        fields["seed"] = config["seed"]
    return SolverConfig(estimator=EstimatorSpec(**estimator), **fields)


def load_config(path: str) -> dict:
    """The config at path, with every default materialized.

    Checked here is only what the file alone decides: each block's keys, one
    of partition or ladder, ladder.levels, problem.params being an object and
    output.directory a string.  The solver block and the seed are checked by
    constructing the SolverConfig whose fields the echo reads back, so the
    solver's defaults live only in the dataclasses; `resolve` checks the
    problem and the partitions by building them.
    """
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    config = _block(raw, "config", "config")
    problem = {"params": {}, **_block(config["problem"], "problem", "problem")}
    if not isinstance(problem["params"], dict):
        raise ConfigError(f"problem.params must be an object, got {problem['params']!r}")
    if ("partition" in config) == ("ladder" in config):
        raise ConfigError("config must declare exactly one of 'partition' or 'ladder'")
    if "partition" in config:
        _block(config["partition"], "partition", "partition")
    else:
        ladder = _block(config["ladder"], "ladder", "ladder")
        _block(ladder["base"], "partition", "ladder.base")
        check_value("ladder.levels", ladder["levels"], "integer", 1)
    output = {"directory": "out", **_block(config.get("output", {}), "output", "output")}
    if not isinstance(output["directory"], str):
        raise ConfigError(f"output.directory must be a string, got {output['directory']!r}")
    solver_config = _solver_config(config)
    fields = dataclasses.asdict(solver_config)
    solver = {key: fields[key] for key in sum(_KEYS["solver"], ())}
    return {**config, "problem": problem, "solver": solver, "seed": solver_config.seed, "output": output}


def resolve(config: dict):
    """Problem, partitions and solver config of a dict that `load_config`
    returned; the library's constructors check every value as they build."""
    if "partition" in config:
        partitions = [build_partition(**config["partition"])]
    else:
        base = build_partition(**config["ladder"]["base"])
        partitions = [base]
        for _ in range(config["ladder"]["levels"] - 1):
            partitions.append(refine_partition(partitions[-1]))
    return builtin_problem(**config["problem"]), partitions, _solver_config(config)


def _write_json(path, payload) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _fmt(v) -> str:
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
    os.makedirs(outdir, exist_ok=True)
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
    fit = convergence_study(spec, partitions, solver_config)
    os.makedirs(outdir, exist_ok=True)
    rows = [
        (part.mesh_size, rep, config["seed"], solver_config.algorithm)
        for part, rep in zip(partitions, fit.reports)
    ]
    _criterion_rows(os.path.join(outdir, "convergence.csv"), rows)
    _emit_run_records(outdir, config, started, "converge")
    if fit.slope is None:
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
    os.makedirs(outdir, exist_ok=True)
    _criterion_rows(os.path.join(outdir, "compare.csv"), rows)
    _emit_run_records(outdir, config, started, "compare")
    if len(points) >= 3:
        slope = fit_loglog(points)
        if slope is None:
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
    report = check_representation_identity(spec, partitions[0], solver_config)
    os.makedirs(outdir, exist_ok=True)
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
        if config["solver"]["dump_coefficients"] and args.command != "solve":
            raise ConfigError(f"solver.dump_coefficients: only solve writes coefficients.csv, not {args.command}")
        outdir = args.out or config["output"]["directory"]
        config["output"]["directory"] = outdir
        return COMMANDS[args.command](config, args, outdir)
    except NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except BspdeError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
