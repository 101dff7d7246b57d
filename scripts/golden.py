#!/usr/bin/env python3
"""Golden CLI outputs, for checking that a change keeps every CSV
byte-identical, or within a stated tolerance.

    PYTHONPATH=src python3 scripts/golden.py save DIR                         # record
    PYTHONPATH=src python3 scripts/golden.py check DIR                        # bit-exact
    PYTHONPATH=src python3 scripts/golden.py compare DIR --rtol R [--atol A]  # tolerance

The runs are the shipped configs in scripts/configs/*.json and the four
perfbench workload configs at seed 42.  `save` writes DIR/golden.json, which
maps "<run>/<file>.csv" to the sha256 of that file, and keeps the CSVs
themselves under DIR/csv/.  `check` repeats the runs in a temporary directory
and exits 1 if any CSV is missing, new or different.  `compare` repeats them
and prints, per file, the largest relative difference |a - b| / max(|a|, |b|)
and the largest absolute difference |a - b| over the numeric cells (0 where
a == b).  A cell passes when |a - b| <= A + R * max(|a|, |b|); the floor A
(default 0) lets cells that are pure roundoff around zero pass.  `compare`
exits 1 if a file is missing or new, if its header, row count or a
non-numeric cell differs, or if any of its cells does not pass.
"""

import argparse
import csv
import glob
import hashlib
import itertools
import json
import math
import os
import shutil
import sys
import tempfile

from bspde.cli import main as cli_main

HERE = os.path.dirname(os.path.abspath(__file__))
SEED = 42

# subcommand by the config blocks it needs
_COMMANDS = {
    "compare_linear": "compare",
    "compare_linear_m2_literal": "compare",
    "heat_one_step": "solve",
    "linear_scalar_converge": "converge",
    "linear_scalar_converge_literal": "converge",
    "malliavin_linear": "check-malliavin",
    "malliavin_linear_literal": "check-malliavin",
    "malliavin_martingale_m2": "check-malliavin",
    "regression_solve": "solve",
    "zero_solve": "solve",
}


def _runs():
    """(name, subcommand, config dict) for every golden run."""
    for path in sorted(glob.glob(os.path.join(HERE, "configs", "*.json"))):
        name = os.path.splitext(os.path.basename(path))[0]
        with open(path) as fh:
            yield name, _COMMANDS[name], json.load(fh)
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "perfbench"))
    import workloads

    for name in sorted(workloads.WORKLOADS):
        command = workloads.WORKLOADS[name]["command"]
        yield f"perfbench_{name}", command, workloads.make_config(name, SEED)


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def run_all(workdir: str) -> dict:
    """Run every golden config under workdir; map each CSV's key to its path."""
    out = {}
    for name, command, config in _runs():
        rundir = os.path.join(workdir, name)
        os.makedirs(rundir)
        cfg_path = os.path.join(rundir, "config.json")
        with open(cfg_path, "w") as fh:
            json.dump(config, fh)
        code = cli_main([command, "--config", cfg_path, "--out", os.path.join(rundir, "out")])
        if code != 0:
            raise SystemExit(f"{name}: bspde {command} exited with {code}")
        for path in sorted(glob.glob(os.path.join(rundir, "out", "*.csv"))):
            out[f"{name}/{os.path.basename(path)}"] = path
    return out


def _cell_difference(a: str, b: str) -> tuple[float, float]:
    """|a - b| and max(|a|, |b|) of two numeric cells: (0, 0) when they are
    equal, (inf, inf) when the difference is not finite.  ValueError if either
    is not numeric and they differ."""
    if a == b:
        return 0.0, 0.0
    x, y = float(a), float(b)
    if x == y or (math.isnan(x) and math.isnan(y)):
        return 0.0, 0.0
    diff = abs(x - y)
    if not math.isfinite(diff):
        return math.inf, math.inf
    return diff, max(abs(x), abs(y))


def file_differences(got: str, want: str, rtol: float = 0.0, atol: float = 0.0):
    """(largest relative, largest absolute difference, cells over tolerance)
    over the cells of two CSVs of one layout; ValueError if the layouts differ.
    """
    worst_rel = worst_abs = 0.0
    over = 0
    with open(got, newline="") as fg, open(want, newline="") as fw:
        got_rows, want_rows = csv.reader(fg), csv.reader(fw)
        if next(got_rows, None) != next(want_rows, None):
            raise ValueError("header differs")
        for n, (g, w) in enumerate(itertools.zip_longest(got_rows, want_rows), start=2):
            if g is None or w is None:
                raise ValueError("row count differs")
            if len(g) != len(w):
                raise ValueError(f"row {n} has {len(g)} cells, expected {len(w)}")
            try:
                cells = [_cell_difference(a, b) for a, b in zip(g, w)]
            except ValueError:
                raise ValueError(f"row {n}: a non-numeric cell differs") from None
            for diff, scale in cells:
                if diff == 0.0:
                    continue
                worst_abs = max(worst_abs, diff)
                worst_rel = max(worst_rel, diff / scale if math.isfinite(diff) else math.inf)
                if not (math.isfinite(diff) and diff <= atol + rtol * scale):
                    over += 1
    return worst_rel, worst_abs, over


def _check(want: dict, got: dict) -> int:
    """Digest comparison; prints one line per missing, new or differing CSV."""
    bad = 0
    for key in sorted(want.keys() | got.keys()):
        if key not in got:
            print(f"missing  {key}")
        elif key not in want:
            print(f"new      {key}")
        elif got[key] != want[key]:
            print(f"differs  {key}")
        else:
            continue
        bad += 1
    same = sum(1 for key, digest in want.items() if got.get(key) == digest)
    print(f"{same} identical, {bad} different")
    return 1 if bad else 0


def _compare(golden_dir: str, got: dict, rtol: float, atol: float) -> int:
    """Tolerance comparison; prints every CSV's largest relative and absolute
    difference and the number of its cells over the tolerance."""
    want = {
        os.path.relpath(path, golden_dir): path
        for path in glob.glob(os.path.join(golden_dir, "*", "*.csv"))
    }
    bad = 0
    for key in sorted(want.keys() | got.keys()):
        if key not in got:
            print(f"missing  {key}")
        elif key not in want:
            print(f"new      {key}")
        else:
            try:
                rel, diff, over = file_differences(got[key], want[key], rtol, atol)
            except ValueError as exc:
                print(f"layout   {key}: {exc}")
            else:
                print(f"{'over' if over else 'ok':8} {key}: max relative difference "
                      f"{rel:.3e}, max absolute difference {diff:.3e}"
                      + (f", {over} cells over" if over else ""))
                if not over:
                    continue
        bad += 1
    total = len(want.keys() | got.keys())
    print(f"{total - bad} within rtol {rtol:g} atol {atol:g}, {bad} not")
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("action", choices=["save", "check", "compare"])
    parser.add_argument("dir", help="directory holding golden.json and csv/")
    parser.add_argument(
        "--rtol", type=float, default=0.0,
        help="compare: relative tolerance R per cell (default 0)",
    )
    parser.add_argument(
        "--atol", type=float, default=0.0,
        help="compare: absolute floor A per cell, |a-b| <= A + R*max(|a|,|b|) (default 0)",
    )
    args = parser.parse_args(argv)
    record = os.path.join(args.dir, "golden.json")
    csv_dir = os.path.join(args.dir, "csv")
    with tempfile.TemporaryDirectory() as workdir:
        got = run_all(workdir)
        if args.action == "compare":
            return _compare(csv_dir, got, args.rtol, args.atol)
        digests = {key: _sha256(path) for key, path in got.items()}
        if args.action == "check":
            with open(record) as fh:
                return _check(json.load(fh), digests)
        os.makedirs(args.dir, exist_ok=True)
        shutil.rmtree(csv_dir, ignore_errors=True)
        for key, path in got.items():
            os.makedirs(os.path.dirname(os.path.join(csv_dir, key)), exist_ok=True)
            shutil.copyfile(path, os.path.join(csv_dir, key))
        with open(record, "w") as fh:
            json.dump(digests, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"saved {len(digests)} digests and CSVs to {args.dir}")
        return 0


if __name__ == "__main__":
    sys.exit(main())
