"""Workload definitions: configs generated from a seed, work counts, and the
checks that decide whether a run's outputs are correct.

The workload record (config template, reason, stressed layer, metrics an
estimator-only change should leave alone) lives in ``workloads.json``.
"""

from __future__ import annotations

import copy
import csv
import hashlib
import json
import math
import os

HERE = os.path.dirname(os.path.abspath(__file__))

with open(os.path.join(HERE, "workloads.json")) as _fh:
    WORKLOADS = json.load(_fh)

# Smallest configs on which every output check still passes; used by the
# benchmark's own smoke test, never by a measured run.
TINY_SOLVER = {
    "converge": {"samples": 4000},
    "compare": {"samples": 500},
    "malliavin": {"samples": 500},
    "solve_export": {"samples": 20},
}


class CheckFailed(Exception):
    """An output of the program is missing or wrong."""


def make_config(name: str, seed: int, tiny: bool = False) -> dict:
    """The CLI config of a workload: its template plus the seed."""
    config = copy.deepcopy(WORKLOADS[name]["config"])
    if tiny:
        config["solver"].update(TINY_SOLVER[name])
    config["seed"] = int(seed)
    return config


def _partitions(config: dict) -> list[dict]:
    if "partition" in config:
        return [config["partition"]]
    base = config["ladder"]["base"]
    return [
        dict(base, n0=base["n0"] * 2**k, counts=[c * 2**k for c in base["counts"]])
        for k in range(config["ladder"]["levels"])
    ]


def sample_steps(name: str, config: dict) -> int:
    """Samples x backward steps summed over the workload's base solves.

    The Malliavin per-theta solves are overhead of the identity check, not
    base work; ``compare`` solves every level with both algorithms.
    """
    solves_per_level = 2 if WORKLOADS[name]["command"] == "compare" else 1
    steps = sum(part["n0"] for part in _partitions(config))
    return config["solver"]["samples"] * steps * solves_per_level


def _rows(path: str) -> list[dict]:
    if not os.path.exists(path):
        raise CheckFailed(f"missing output {os.path.basename(path)}")
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def loglog_slope(points) -> float:
    """Ordinary least-squares slope of log(err) against log(mesh)."""
    xs = [math.log(m) for m, _ in points]
    ys = [math.log(e) for _, e in points]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx


def _criterion(path: str, levels: int) -> tuple[float, float]:
    rows = _rows(path)
    if len(rows) != levels:
        raise CheckFailed(f"{os.path.basename(path)} has {len(rows)} levels, expected {levels}")
    points = [(float(r["mesh_size"]), float(r["total"])) for r in rows]
    if any(not e > 0 for _, e in points):
        raise CheckFailed(f"{os.path.basename(path)} has a non-positive error total")
    return loglog_slope(points), points[-1][1]


def check_converge(config: dict, outdir: str) -> dict:
    slope, finest = _criterion(os.path.join(outdir, "convergence.csv"), config["ladder"]["levels"])
    if not 0.7 <= slope <= 1.3:
        raise CheckFailed(f"convergence slope {slope:.4f} outside [0.7, 1.3]")
    return {"verify_err": finest, "slope": slope}


def check_compare(config: dict, outdir: str) -> dict:
    slope, finest = _criterion(os.path.join(outdir, "compare.csv"), config["ladder"]["levels"])
    if not slope >= 0.7:
        raise CheckFailed(f"discrepancy slope {slope:.4f} below 0.7")
    return {"verify_err": finest, "slope": slope}


def check_malliavin(config: dict, outdir: str) -> dict:
    rows = _rows(os.path.join(outdir, "malliavin.csv"))
    part = config["partition"]
    points = math.prod(c + 1 for c in part["counts"])
    expected = part["n0"] * points
    if len(rows) != expected:
        raise CheckFailed(f"malliavin.csv has {len(rows)} rows, expected {expected}")
    max_z = max(abs(float(r["zscore"])) for r in rows)
    if not max_z < 3.0:
        raise CheckFailed(f"identity check max |z| = {max_z:.4f}, not below 3")
    return {"verify_err": max_z}


def _digest(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
    return h.hexdigest()


def check_solve_export(config: dict, outdir: str) -> dict:
    """Row counts, a digest, and the order-zero values on paths regenerated
    from the seed.

    The driver of linear_scalar is V, so the explicit scheme's exact discrete
    solution is (1 + dt)^(n0 - j) x W(t_j), which the analytic estimator
    reproduces to roundoff; ``verify_err`` is the distance to the continuous
    closed form e^(T - t) x W(t), i.e. mostly the time-discretisation error.
    """
    import numpy as np

    from bspde import build_partition, simulate_increments

    part_cfg = config["partition"]
    part = build_partition(part_cfg["T"], part_cfg["n0"], part_cfg["edges"], part_cfg["counts"])
    S = config["solver"]["samples"]
    orders = config["solver"]["M"] + 1  # p = 1: one multi-index per order
    expected = S * (part.n0 + 1) * part.num_points * orders
    paths = [os.path.join(outdir, f) for f in ("solution_v.csv", "solution_vbar.csv")]
    for path in paths:
        if not os.path.exists(path):
            raise CheckFailed(f"missing output {os.path.basename(path)}")
        with open(path, "rb") as fh:
            rows = sum(block.count(b"\n") for block in iter(lambda: fh.read(1 << 20), b"")) - 1
        if rows != expected:
            raise CheckFailed(f"{os.path.basename(path)} has {rows} rows, expected {expected}")

    # columns: sample, j, t, x1, c, multi_index, component, value
    table = np.loadtxt(paths[0], delimiter=",", skiprows=1, max_rows=expected // orders)
    if not np.all(table[:, 4] == 0):
        raise CheckFailed("solution_v.csv does not start with the order-zero rows")
    sample = table[:, 0].astype(int)
    j = table[:, 1].astype(int)
    t, x, value = table[:, 2], table[:, 3], table[:, 7]
    w = simulate_increments(part, 1, S, config["seed"]).W[sample, j, 0]
    discrete = (1.0 + part.T / part.n0) ** (part.n0 - j) * x * w
    scheme_err = float(np.max(np.abs(value - discrete)))
    if not scheme_err <= 1e-10 * max(float(np.max(np.abs(discrete))), 1.0):
        raise CheckFailed(f"order-zero values deviate from the explicit scheme by {scheme_err:.3e}")
    err = float(np.max(np.abs(value - np.exp(part.T - t) * x * w)))
    return {"verify_err": err, "scheme_err": scheme_err, "digest": _digest(paths)}


CHECKS = {
    "converge": check_converge,
    "compare": check_compare,
    "malliavin": check_malliavin,
    "solve_export": check_solve_export,
}
