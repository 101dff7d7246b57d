"""One measured run of one workload, in a fresh process.

    python3 perfbench/worker.py --workload NAME --command SUBCOMMAND \
        --config PATH --out DIR --record PATH [--trace] [--setup-only]

Times set-up from before ``import bspde`` until ``resolve`` returns inside the
subcommand handler, then the rest of ``bspde.cli.main`` (solves, in-program
checks, output files) as ``wall_s``.  Peak RSS is read before the output
checks run, so the checks do not count towards it.  The record (timings, check
results, spans when traced) is written as JSON to ``--record``.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from bspde import cli  # noqa: E402


def _dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(path, f)) for f in os.listdir(path))


def run(args) -> dict:
    record = {"workload": args.workload, "traced": args.trace}
    resolved_at = []
    real_resolve = cli.resolve

    def resolve(config):
        out = real_resolve(config)
        resolved_at.append(time.perf_counter())
        return out

    command = args.command
    real_handler = cli.COMMANDS[command]

    def setup_only(config, _args, _outdir):
        cli.resolve(config)
        return cli.EXIT_OK

    cli.resolve = resolve
    if args.setup_only:
        cli.COMMANDS[command] = setup_only
    argv = [command, "--config", args.config, "--out", args.out]
    tracer = None
    try:
        if args.trace:
            from tracer import Tracer

            with Tracer(run_id=os.path.basename(args.out)) as tracer:
                root = tracer.open("cli.main")
                try:
                    code = cli.main(argv)
                finally:
                    tracer.close(root)
        else:
            code = cli.main(argv)
    finally:
        cli.resolve = real_resolve
        cli.COMMANDS[command] = real_handler
    end = time.perf_counter()
    record["exit_code"] = code
    record["setup_s"] = resolved_at[0] - _T0
    record["wall_s"] = end - resolved_at[0]
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if code != cli.EXIT_OK or args.setup_only:
        return record
    record["output_bytes"] = _dir_bytes(args.out)
    if tracer is not None:
        from tracer import layer_metrics

        tracer.dump(os.path.splitext(args.record)[0] + "-spans.json")
        record["layers"] = layer_metrics(tracer.spans, record["output_bytes"])
    with open(os.path.join(args.out, "resolved_config.json")) as fh:
        record["resolved_config"] = json.load(fh)
    from workloads import CHECKS, CheckFailed

    with open(args.config) as fh:
        config = json.load(fh)
    try:
        record["check"] = CHECKS[args.workload](config, args.out)
    except CheckFailed as exc:
        record["check_error"] = str(exc)
    return record


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--command", required=True)
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--record", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    try:
        record = run(args)
        status = 0 if record["exit_code"] == 0 else 1
    except Exception as exc:  # reported in the record, counted as a failed run
        record = {"workload": args.workload, "error": f"{type(exc).__name__}: {exc}",
                  "traceback": traceback.format_exc()}
        status = 1
    with open(args.record, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
