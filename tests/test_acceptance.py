"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Criterion 3b checks the noise-free heat problem against the closed
form of the one-sided difference scheme itself, not against the PDE's value,
which that scheme cannot reach at its grid; see its docstring and the
README's limitations section.
"""

import itertools
import json
import math
import time

import numpy as np

from bspde import (
    EstimatorSpec,
    NormWeights,
    SolverConfig,
    build_malliavin_lattices,
    build_partition,
    builtin_problem,
    check_representation_identity,
    compare_algorithms,
    convergence_study,
    difference_stack_arrays,
    enumerate_multi_indices,
    increment_regularity,
    multi_index_key,
    simulate_increments,
    solve,
    terminal_stage,
)
from bspde.analysis import fit_loglog
from bspde.model import zero_key
from bspde.stochastics import ConditionalEstimator, _design_matrix, monomial_exponents

from oracles import condexp_nested, permute_future_increments


def report(num, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} {label}: {status}  {detail}")
    return ok


def ladder(levels=(4, 8, 16, 32), edge=0.03):
    return [build_partition(1.0, n0, [edge], [1]) for n0 in levels]


def test_criterion_1_convergence_rate():
    """Total squared-error criterion decays at first order in the mesh."""
    started = time.perf_counter()
    spec = builtin_problem("linear_scalar")
    fit = convergence_study(spec, ladder(), SolverConfig(samples=100_000, seed=42))
    elapsed = time.perf_counter() - started
    ok = fit.slope is not None and 0.7 <= fit.slope <= 1.3
    assert report(
        1, "convergence rate", ok,
        f"slope={fit.slope:.3f} over meshes {[f'{m:.4g}' for m, _ in fit.points]} "
        f"({elapsed:.1f}s)",
    )


def test_criterion_2_martingale_exactness():
    """No time-discretization error when both operators vanish."""
    spec = builtin_problem("martingale")
    part = build_partition(1.0, 8, [1.0], [2])
    lat = solve(spec, part, SolverConfig(samples=100_000, seed=42))
    x = part.points[..., 0]
    V, Vbar = lat.V[zero_key(1)], lat.Vbar[zero_key(1)]
    v_err = float(np.max(np.abs(V - x[None, None, :, None] * lat.paths.W[:, :, None, :])))
    vbar_err = float(np.max(np.abs(Vbar[:, : part.n0, ..., 0] - x[None, None, :, None])))
    ok = v_err < 1e-10 and vbar_err < 1e-10
    assert report(2, "martingale exactness", ok, f"|V-xW|={v_err:.2e} |Vbar-x|={vbar_err:.2e}")


def test_criterion_3a_deterministic_reduction_spread():
    """Noise-free problems keep exactly zero spread across the ensemble."""
    spreads = {}
    for name, params in (("zero", {"value": 7.0}), ("heat", {"a": 1.0})):
        spec = builtin_problem(name, params)
        part = build_partition(1.0, 32, [1.0], [8])
        lat = solve(spec, part, SolverConfig(samples=100, seed=42))
        V, Vbar = lat.V[zero_key(1)], lat.Vbar[zero_key(1)]
        spread = float(np.max(V.max(axis=0) - V.min(axis=0)))
        spread = max(spread, float(np.max(Vbar.max(axis=0) - Vbar.min(axis=0))))
        spreads[name] = spread
    ok = all(s == 0.0 for s in spreads.values())
    assert report(3, "deterministic reduction (spread)", ok, f"spreads={spreads}")


def test_criterion_3b_heat_value_accuracy():
    """Noise-free heat reduces to the closed form of the one-sided scheme.

    The heat field is the same on every sample, and a conditional mean
    returns such a field unchanged, so algorithm one is the recursion
    V(t_{j-1}) = (I + dt/2 D^2) V(t_j) from V(T) = exp(a x), where D is the
    documented first difference: forward on every row, backward on the last.
    The value is therefore (I + dt/2 D^2)^(n0-j) exp(a x) on every slice,
    and Vbar is exactly 0, as it is for the PDE.  The reference builds D
    here, independently of bspde.grid.

    The PDE value exp(a x + a^2 (T-t)/2) is not the target.  Even without
    the boundary row and rounding, the one-sided symbol mu^2 with
    mu = (e^{ah}-1)/h gives (1 + dt mu^2/2)^32 = 1.7548 against
    exp(0.5) = 1.6487 at h = 1/8, 6.4% off.  The boundary row makes it
    explode: the largest eigenvalue of D^2/2 is 1/(2 h^2) = 32, and the
    scheme reaches V(0,0) = 1.39e14 here; a finer grid is worse (n_1 = 16
    gives about 1e32).  The gap to exp(0.5) is printed for information only;
    see the README's limitations section.
    """
    a, T, n0, n1 = 1.0, 1.0, 32, 8
    spec = builtin_problem("heat", {"a": a})
    part = build_partition(T, n0, [1.0], [n1])
    lat = solve(spec, part, SolverConfig(samples=100, seed=42))

    h, dt = 1.0 / n1, T / n0
    D = (np.eye(n1 + 1, k=1) - np.eye(n1 + 1)) / h
    D[-1, -2:] = [-1.0 / h, 1.0 / h]
    step = np.eye(n1 + 1) + 0.5 * dt * (D @ D)
    ref = np.empty((n0 + 1, n1 + 1))
    ref[n0] = np.exp(a * np.linspace(0.0, 1.0, n1 + 1))
    for j in range(n0, 0, -1):
        ref[j - 1] = step @ ref[j]

    V = lat.V[zero_key(1)][..., 0]
    rel = float(np.max(np.abs(V - ref) / np.abs(ref)))
    vbar_max = float(np.max(np.abs(lat.Vbar[zero_key(1)][:, :n0])))
    value = float(V[0, 0, 0])
    target = math.exp(0.5 * a * a * T)
    ok = bool(np.all(np.abs(V - ref) <= 1e-10 * np.abs(ref))) and vbar_max == 0.0
    assert report(
        3, "deterministic reduction (heat value)", ok,
        f"max rel |V-ref|={rel:.2e} max|Vbar|={vbar_max:.1e} "
        f"V(0,0)={value:.6g} (info: exp(0.5)={target:.6g}, "
        f"gap={abs(value - target) / target:.2e})",
    )


def test_criterion_4_estimator_oracle_equivalence():
    """The shipped regression estimator agrees with brute-force branching."""
    S = 100_000
    part = build_partition(1.0, 2, [1.0], [1])
    paths = simulate_increments(part, 1, S, seed=42)
    w1, w2 = paths.W[:, 1, 0], paths.W[:, 2, 0]
    rng = np.random.Generator(np.random.Philox(key=777))
    est = ConditionalEstimator(EstimatorSpec(kind="regression", degree=3), paths)
    exps = monomial_exponents(3, 1)
    phi = _design_matrix(w1[:, None], exps, float(part.time_points[1]))
    gram_inv = np.linalg.inv(phi.T @ phi)
    probes = slice(0, 96)
    phi_probe_mean = phi[probes].mean(axis=0)

    worst = 0.0
    for _ in range(20):
        coeffs = rng.uniform(-1.0, 1.0, size=4)

        def g(w):
            return coeffs[0] + coeffs[1] * w + coeffs[2] * w**2 + coeffs[3] * w**3

        targets = g(w2)
        fitted = est.cond_mean(targets, 2)
        resid_var = float(np.var(targets - fitted, ddof=exps.shape[0]))
        var_reg_mean = float(phi_probe_mean @ gram_inv @ phi_probe_mean) * resid_var

        nested, se = condexp_nested(
            lambda w: g(w[..., 0]), w1[probes], variance=0.5,
            inner_count=10_000, seed=4242,
        )
        diff = fitted[probes] - nested
        se_mean_nested = math.sqrt(float(np.sum(se**2))) / se.size
        z = abs(float(diff.mean())) / math.sqrt(var_reg_mean + se_mean_nested**2)
        worst = max(worst, z)
    ok = worst < 3.0
    assert report(4, "estimator oracle equivalence", ok, f"max|z|={worst:.2f} over 20 targets")


def test_criterion_5_malliavin_identity():
    """Integrand moments match diagonal Malliavin derivative plus diffusion."""
    worst = {}
    for name in ("martingale", "linear_scalar"):
        spec = builtin_problem(name)
        part = build_partition(1.0, 16, [0.5], [1])
        rep = check_representation_identity(spec, part, SolverConfig(samples=10_000, seed=42))
        worst[name] = rep.max_abs_z
    ok = all(z < 3.0 for z in worst.values())
    assert report(5, "Malliavin representation identity", ok, f"max|z|={worst}")


def test_criterion_6_algorithm_agreement():
    """Scheme discrepancy decays at least linearly in the mesh."""
    started = time.perf_counter()
    spec = builtin_problem("linear_scalar")
    pts = []
    for part in ladder():
        rep = compare_algorithms(spec, part, SolverConfig(samples=100_000, seed=42))
        pts.append((part.mesh_size, rep.total))
    slope = fit_loglog(pts)
    elapsed = time.perf_counter() - started
    ok = slope is not None and slope >= 0.7
    assert report(6, "algorithm agreement", ok, f"slope={slope:.3f} ({elapsed:.1f}s)")


def test_criterion_7_property_battery(tmp_path):
    """Compact re-run of the structural property suite."""
    checks = {}

    # affine exactness of the stencils, boundaries included
    part = build_partition(1.0, 2, [1.5], [5])
    x = part.points[..., 0]
    stack = difference_stack_arrays((3.0 * x - 1.0)[:, None], 2, part)
    checks["affine_exactness"] = (
        np.allclose(stack[(1, (1,))], 3.0, atol=1e-12)
        and np.allclose(stack[(2, (2,))], 0.0, atol=1e-12)
    )

    # multi-index ordering vs brute force for c <= 6, p <= 3
    ok = True
    for c in range(7):
        for p in range(1, 4):
            mi = enumerate_multi_indices(c, p)
            brute = {t for t in itertools.product(range(c + 1), repeat=p) if sum(t) == c}
            keys = [multi_index_key(idx, c) for idx in mi]
            ok &= set(mi) == brute and len(mi) == math.comb(c + p - 1, p - 1)
            ok &= keys == sorted(keys)
    checks["multi_index_ordering"] = ok

    # weight normalization and decay
    w = NormWeights.for_domain([1.0, 2.0], 6)
    checks["weight_decay"] = w.xi[0] == 1.0 and bool(np.all(np.diff(w.log_xi) < 0))

    # terminal slice consistency, bitwise
    spec = builtin_problem("martingale")
    part = build_partition(1.0, 4, [1.0], [2])
    paths = simulate_increments(part, 1, 200, seed=1)
    lat = solve(spec, part, SolverConfig(samples=200, seed=1), paths)
    v_stack, vbar_stack = terminal_stage(spec, part, paths)
    lat_v, lat_vbar = lat.stacks(lat.V, part.n0), lat.stacks(lat.Vbar, part.n0)
    checks["terminal_consistency"] = all(
        np.array_equal(lat_v[k], v) for k, v in v_stack.items()
    ) and all(np.array_equal(lat_vbar[k], v) for k, v in vbar_stack.items())

    # Malliavin zero block before the branch time
    base = solve(spec, part, SolverConfig(samples=200, seed=1), paths)
    mall = dict(build_malliavin_lattices(base, [2]))
    checks["malliavin_zero_block"] = bool(
        np.all(mall[2].D_V[(0, (0,))][:, :2] == 0.0)
        and np.all(mall[2].D_Vbar[(0, (0,))][:, :2] == 0.0)
    )

    # adaptedness: shuffling future increments leaves earlier values alone
    lin = builtin_problem("linear_scalar")
    part6 = build_partition(1.0, 6, [0.5], [1])
    cfg = SolverConfig(samples=2000, seed=23)
    base_paths = simulate_increments(part6, 1, 2000, seed=23)
    a = solve(lin, part6, cfg, base_paths)
    perm = np.random.default_rng(1).permutation(2000)
    b = solve(lin, part6, cfg, permute_future_increments(base_paths, 3, perm))
    checks["adaptedness"] = float(
        np.max(np.abs(a.V[zero_key(1)][:, :4] - b.V[zero_key(1)][:, :4]))
    ) < 1e-10

    # bit determinism: two runs of the same config
    from bspde.cli import main as cli_main

    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "problem": {"name": "martingale"},
        "partition": {"T": 1.0, "n0": 4, "edges": [1.0], "counts": [2]},
        "solver": {"samples": 50},
        "seed": 7,
    }))
    outs = []
    for tag in ("first", "second"):
        out = tmp_path / tag
        cli_main(["solve", "--config", str(cfg_path), "--out", str(out)])
        outs.append((out / "solution_v.csv").read_bytes())
    checks["bit_determinism"] = outs[0] == outs[1]

    ok = all(checks.values())
    assert report(7, "property battery", ok, str({k: bool(v) for k, v in checks.items()}))


def test_criterion_8_time_increment_regularity():
    """Squared solution increments grow at most linearly in the lag."""
    spec = builtin_problem("linear_scalar")
    part = build_partition(1.0, 16, [0.5], [1])
    lat = solve(spec, part, SolverConfig(samples=20_000, seed=42))
    _, _, slope = increment_regularity(lat)
    ok = slope is not None and slope <= 1.3
    assert report(8, "time-increment regularity", ok, f"slope={slope:.3f}")
