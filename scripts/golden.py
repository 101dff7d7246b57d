#!/usr/bin/env python3
"""Golden CSV digests of the CLI, for checking that a change keeps every
output byte-identical.

    PYTHONPATH=src python3 scripts/golden.py save DIR    # record digests
    PYTHONPATH=src python3 scripts/golden.py check DIR   # re-run and compare

The runs are the shipped configs in scripts/configs/*.json and the four
perfbench workload configs at seed 42.  `save` writes DIR/golden.json, which
maps "<run>/<file>.csv" to the sha256 of that file; `check` repeats the runs
in a temporary directory and exits 1 if any CSV is missing, new or different.
"""

import argparse
import glob
import hashlib
import json
import os
import sys
import tempfile

from bspde.cli import main as cli_main

HERE = os.path.dirname(os.path.abspath(__file__))
SEED = 42

# subcommand by the config blocks it needs
_COMMANDS = {
    "compare_linear": "compare",
    "heat_one_step": "solve",
    "linear_scalar_converge": "converge",
    "malliavin_linear": "check-malliavin",
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


def digests(workdir: str) -> dict:
    """Run every golden config under workdir and hash the CSVs it writes."""
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
        for csv in sorted(glob.glob(os.path.join(rundir, "out", "*.csv"))):
            out[f"{name}/{os.path.basename(csv)}"] = _sha256(csv)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("action", choices=["save", "check"])
    parser.add_argument("dir", help="directory holding golden.json")
    args = parser.parse_args(argv)
    record = os.path.join(args.dir, "golden.json")
    with tempfile.TemporaryDirectory() as workdir:
        got = digests(workdir)
    if args.action == "save":
        os.makedirs(args.dir, exist_ok=True)
        with open(record, "w") as fh:
            json.dump(got, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"saved {len(got)} digests to {record}")
        return 0
    with open(record) as fh:
        want = json.load(fh)
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


if __name__ == "__main__":
    sys.exit(main())
