"""Benchmark of the bspde CLI: one workload per invocation.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Workloads are defined in ``workloads.json`` (converge, compare, malliavin,
solve_export).  Load model: a closed loop with one client.  Each measured
run of the subcommand is a fresh process (``worker.py``) with BLAS pinned to
one thread; runs follow one another while another whole run is expected to
end within ``--seconds``, and at least ``MIN_INSTANCES`` are made.  Set-up is
also measured in ``SETUP_PROBES`` processes that stop right after ``resolve``.
Every run's outputs are checked; a run fails on a non-zero exit, an exception
or a failed check.

With ``--trace 0`` the end-to-end metrics are medians over the runs.  With
``--trace 1`` the first run is traced (spans around the calls into each bspde
module, see ``tracer.py``) and the per-layer table of that run is reported;
``trace.overhead_s`` is its ``wall_s`` minus the untraced median.

Everything is written under ``.perfbench_out/`` in the checkout; the last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
WORKER = os.path.join(HERE, "worker.py")

BLAS_THREADS = 1
SETUP_PROBES = 3
MIN_INSTANCES = 1
# No new run starts after this many seconds, and every run is killed at the
# hard limit, so one invocation ends within 180 s even if the program slows.
LAST_START_S = 120.0
HARD_LIMIT_S = 170.0

END_TO_END = {
    "wall_s": "s",
    "sample_steps_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

sys.path.insert(0, HERE)
from tracer import LAYER_METRICS  # noqa: E402
from workloads import WORKLOADS, make_config, sample_steps  # noqa: E402


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def source_digest() -> str:
    """Digest of the bspde sources, which identifies the code in a checkout without git."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "bspde")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def run_info(seed: int) -> dict:
    import numpy
    import scipy

    sha = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
        sha = proc.stdout.strip() or sha
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": sha,
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "seed": seed,
        "load_model": "closed loop, one client, one fresh process per run",
    }


class Runner:
    """Starts worker processes for one workload and collects their records."""

    def __init__(self, workload: str, rundir: str, config_path: str, started: float):
        self.workload = workload
        self.command = WORKLOADS[workload]["command"]
        self.rundir = rundir
        self.config_path = config_path
        self.started = started
        self.count = 0

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def spawn(self, trace: bool = False, setup_only: bool = False) -> dict:
        self.count += 1
        tag = f"{'setup' if setup_only else 'run'}{self.count:03d}"
        out = os.path.join(self.rundir, tag)
        record_path = out + ".json"
        cmd = [
            sys.executable, WORKER, "--workload", self.workload, "--command", self.command,
            "--config", self.config_path, "--out", out, "--record", record_path,
        ]
        cmd += ["--trace"] * trace + ["--setup-only"] * setup_only
        timeout = max(HARD_LIMIT_S - self.elapsed(), 1.0)
        try:
            proc = subprocess.run(cmd, env=child_env(), capture_output=True, text=True,
                                  timeout=timeout)
        except subprocess.TimeoutExpired:
            return {"tag": tag, "error": f"killed after {timeout:.0f} s"}
        finally:
            shutil.rmtree(out, ignore_errors=True)
        try:
            with open(record_path) as fh:
                record = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            record = {"error": f"no record from the run: {exc}"}
        record["tag"] = tag
        record["status"] = proc.returncode
        if proc.returncode != 0:
            record["stderr"] = proc.stderr[-4000:]
        return record


def failure(record: dict) -> str | None:
    """Why a run failed, or None when it succeeded and its outputs passed."""
    if "error" in record:
        return record["error"]
    if record.get("status") != 0 or record.get("exit_code") != 0:
        return f"exit code {record.get('exit_code', record.get('status'))}"
    if "check_error" in record:
        return f"output check: {record['check_error']}"
    if "check" not in record:
        return "outputs were not checked"
    return None


def consistency_failures(workload: str, config: dict, records: list[dict]) -> list[str]:
    """Runs of one config must give one verify_err and, for exports, one digest,
    also across invocations of the same sources (kept in a ledger)."""
    checks = [r["check"] for r in records if failure(r) is None]
    problems = []
    if len({c["verify_err"] for c in checks}) > 1:
        problems.append("verify_err differs between runs of one seed")
    digests = {c["digest"] for c in checks if "digest" in c}
    if len(digests) > 1:
        problems.append("export digest differs between runs of one seed")
    if len(digests) == 1:
        ledger_path = os.path.join(OUT, "digests.json")
        ledger = {}
        if os.path.exists(ledger_path):
            with open(ledger_path) as fh:
                ledger = json.load(fh)
        key = hashlib.sha256(
            json.dumps([source_digest(), workload, config], sort_keys=True).encode()
        ).hexdigest()
        digest = digests.pop()
        if ledger.setdefault(key, digest) != digest:
            problems.append("export digest differs from an earlier run of these sources")
        with open(ledger_path, "w") as fh:
            json.dump(ledger, fh, indent=1, sort_keys=True)
    return problems


def summarize(workload: str, config: dict, setups: list[dict], runs: list[dict],
              traced: dict | None = None) -> dict:
    """Failures over every run, the traced one included; timings from the
    untraced runs only."""
    checked = runs + ([traced] if traced else [])
    ok = [r for r in checked if failure(r) is None]
    problems = consistency_failures(workload, config, checked)
    failed = min(len(checked) - len(ok) + (1 if problems and ok else 0), len(checked))
    summary = {
        "attempted": len(checked),
        "failed": failed,
        "error_rate": failed / len(checked),
        "verify_err": ok[0]["check"]["verify_err"] if ok else None,
        "problems": problems + [f"{r['tag']}: {failure(r)}" for r in checked if failure(r)],
    }
    timed = [r for r in runs if "wall_s" in r]
    if timed:
        work = sample_steps(workload, config)
        walls = [r["wall_s"] for r in timed]
        summary["runs"] = len(timed)
        summary["metrics"] = {
            "wall_s": statistics.median(walls),
            "sample_steps_per_s": statistics.median(work / w for w in walls),
            "setup_s": statistics.median(r["setup_s"] for r in setups + timed if "setup_s" in r),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in timed),
        }
    return summary


def print_table(workload: str, summary: dict) -> None:
    print(f"workload {workload}: {summary.get('runs', 0)} runs, "
          f"{summary['attempted'] - summary['failed']}/{summary['attempted']} correct")
    rows = [(name, summary["metrics"][name], unit)
            for name, unit in END_TO_END.items() if "metrics" in summary]
    rows += [("error_rate", summary["error_rate"], "fraction"),
             ("verify_err", summary["verify_err"], "1")]
    for name, value, unit in rows:
        print(f"  {name:<22} {value!s:>24} {unit}")
    for problem in summary["problems"]:
        print(f"  FAILED {problem}")


def benchmark(workload: str, seed: int, seconds: float, trace: bool, tiny: bool) -> dict:
    started = time.monotonic()
    rundir = os.path.join(OUT, f"{workload}-seed{seed}-trace{int(trace)}")
    shutil.rmtree(rundir, ignore_errors=True)
    os.makedirs(rundir)
    config = make_config(workload, seed, tiny=tiny)
    config_path = os.path.join(rundir, "config.json")
    with open(config_path, "w") as fh:
        json.dump(config, fh, indent=1)
    runner = Runner(workload, rundir, config_path, started)

    # Discarded: byte-compiles the sources and warms the file cache, which
    # users pay once, not on every run.
    runner.spawn(setup_only=True)
    setups = [runner.spawn(setup_only=True) for _ in range(SETUP_PROBES)]
    bad_setup = [failure(r) for r in setups if "setup_s" not in r]
    if bad_setup:
        raise RuntimeError(f"set-up failed: {bad_setup[0]}")

    traced = runner.spawn(trace=True) if trace else None
    # Whole runs that fit in the window, judged by the median run so far; the
    # window is not stretched, so a slower program gets fewer runs.
    measure_start = time.monotonic()
    runs, durations = [], []
    while len(runs) < MIN_INSTANCES or (
        time.monotonic() - measure_start + statistics.median(durations) <= seconds
        and runner.elapsed() < LAST_START_S
    ):
        begin = time.monotonic()
        runs.append(runner.spawn())
        durations.append(time.monotonic() - begin)
    summary = summarize(workload, config, setups, runs, traced)
    result = {
        "workload": workload,
        "info": run_info(seed),
        "config": config,
        "resolved_config": next((r["resolved_config"] for r in runs if "resolved_config" in r),
                                None),
        "why": WORKLOADS[workload]["why"],
        "seconds": seconds,
        "summary": summary,
        "records": setups + runs + ([traced] if traced else []),
    }
    if traced and "layers" in traced and "metrics" in summary:
        layers = dict(traced["layers"])
        layers["trace.wall_s"] = traced["wall_s"]
        layers["trace.overhead_s"] = traced["wall_s"] - summary["metrics"]["wall_s"]
        result["layers"] = layers
    with open(os.path.join(rundir, "result.json"), "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smallest passing configs, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not os.path.isfile(os.path.join(SRC, "bspde", "cli.py")):
        print(f"no bspde sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2

    result = benchmark(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    summary = result["summary"]
    print_table(args.workload, summary)
    if args.trace:
        if "layers" not in result:
            print("traced run failed; no per-layer table", file=sys.stderr)
            return 1
        values, units = result["layers"], LAYER_METRICS
        for name in units:
            print(f"  {name:<40} {values[name]!s:>24} {units[name]}")
    else:
        if "metrics" not in summary:
            print("no run finished; no end-to-end metrics", file=sys.stderr)
            return 1
        values, units = summary["metrics"], END_TO_END
    print(json.dumps({
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
