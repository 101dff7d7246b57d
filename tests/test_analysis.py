
from dataclasses import replace

import numpy as np
import pytest

from bspde import (
    DivergenceError,
    InvalidPartitionError,
    ReferenceRequiredError,
    SolverConfig,
    build_malliavin_lattices,
    build_malliavin_system,
    build_partition,
    builtin_problem,
    check_representation_identity,
    compare_algorithms,
    convergence_study,
    discrete_error,
    increment_regularity,
    simulate_increments,
    solve_algorithm_one,
    solve_malliavin_system,
)
from bspde.analysis import fit_loglog


def ladder(edge=0.03, count=1, levels=(4, 8, 16, 32)):
    return [build_partition(1.0, n0, [edge], [count]) for n0 in levels]


def lin_spec():
    return builtin_problem("linear_scalar", {"terminal_time": 1.0})


# ---------------------------------------------------------------------------
# discrete error criterion
# ---------------------------------------------------------------------------


def test_discrete_error_self_is_zero():
    spec = lin_spec()
    part = build_partition(1.0, 4, [0.5], [1])
    lat = solve_algorithm_one(spec, part, SolverConfig(samples=200, seed=1))
    report = discrete_error(lat, lat)
    assert report.total == 0.0


def test_discrete_error_symmetric_between_lattices():
    spec = lin_spec()
    part = build_partition(1.0, 4, [0.5], [1])
    paths = simulate_increments(part, 1, 400, seed=2)
    a = solve_algorithm_one(spec, part, SolverConfig(samples=400, seed=2), paths)
    b = solve_algorithm_one(
        spec, part, SolverConfig(samples=400, seed=2, estimator=a.config.estimator), paths
    )
    from bspde import solve_algorithm_two

    c = solve_algorithm_two(
        spec, part, SolverConfig(algorithm="two", samples=400, seed=2), paths
    )
    assert discrete_error(a, c).total == pytest.approx(discrete_error(c, a).total, rel=1e-12)


def test_discrete_error_zero_problem_is_exact():
    spec = builtin_problem("zero", {"value": 7.0})
    part = build_partition(1.0, 4, [1.0], [2])
    lat = solve_algorithm_one(spec, part, SolverConfig(samples=100, seed=3))
    report = discrete_error(lat, spec)
    assert report.total == 0.0


def test_discrete_error_martingale_is_float_exact():
    spec = builtin_problem("martingale")
    part = build_partition(1.0, 8, [1.0], [2])
    lat = solve_algorithm_one(spec, part, SolverConfig(samples=1000, seed=4))
    # the martingale fixture's integrand is constant in time, so even the
    # within-interval read points agree; only V picks up the Brownian motion
    # between read points
    report = discrete_error(lat, spec)
    assert sum(report.err_Vbar_sq.values()) < 1e-25
    assert report.err_V_sq[0] > 0.01  # E[(x dW)^2] term from the extension reads


def test_discrete_error_report_structure():
    spec = lin_spec()
    part = build_partition(1.0, 8, [0.03], [1])
    lat = solve_algorithm_one(spec, part, SolverConfig(samples=2000, seed=5))
    report = discrete_error(lat, spec)
    assert report.total == pytest.approx(
        sum(report.err_V_sq.values()) + sum(report.err_Vbar_sq.values()), rel=1e-12
    )
    assert report.samples == 2000
    assert report.mesh_size == part.mesh_size
    assert all(v >= 0 for v in report.err_V_sq.values())
    assert report.stderr_total >= 0


def test_discrete_error_regression_fixture():
    # frozen value from this suite's own first run; guards against criterion
    # drift (seeded, deterministic)
    spec = lin_spec()
    part = build_partition(1.0, 8, [0.03], [1])
    lat = solve_algorithm_one(spec, part, SolverConfig(samples=20000, seed=11))
    report = discrete_error(lat, spec)
    assert report.total == pytest.approx(6.649427e-04, rel=1e-4)


def test_discrete_error_requires_usable_reference():
    spec = builtin_problem("martingale")
    part = build_partition(1.0, 4, [1.0], [2])
    lat = solve_algorithm_one(spec, part, SolverConfig(samples=50, seed=6))
    with pytest.raises(InvalidPartitionError):
        discrete_error(lat, "not a reference")


def test_fine_time_lattice_as_reference():
    # a deterministic problem solved on a 4x finer time grid serves as the
    # reference for the coarse run; shared spatial bias cancels
    spec = builtin_problem("zero", {"value": 2.0, "slope": 1.0})
    coarse = build_partition(1.0, 4, [1.0], [2])
    fine = build_partition(1.0, 16, [1.0], [2])
    cfg = SolverConfig(samples=20, seed=7)
    lat_c = solve_algorithm_one(spec, coarse, cfg)
    lat_f = solve_algorithm_one(spec, fine, cfg)
    report = discrete_error(lat_c, lat_f)
    assert report.total == 0.0  # scheme exact on this fixture at any grid


# ---------------------------------------------------------------------------
# convergence studies
# ---------------------------------------------------------------------------


def test_convergence_slope_linear_scalar():
    fit = convergence_study(lin_spec(), ladder(), SolverConfig(samples=20000, seed=11))
    assert not fit.degenerate
    assert 0.7 <= fit.slope <= 1.3
    totals = [e for _, e in fit.points]
    assert all(a > b for a, b in zip(totals, totals[1:]))


def test_convergence_slope_reproducible_across_seeds():
    slopes = []
    for seed in (11, 12, 13):
        fit = convergence_study(lin_spec(), ladder(), SolverConfig(samples=20000, seed=seed))
        slopes.append(fit.slope)
    assert max(slopes) - min(slopes) < 0.1


def test_convergence_degenerate_flag_on_exact_problem():
    spec = builtin_problem("zero", {"value": 1.0})
    fit = convergence_study(spec, ladder(edge=0.1, count=1, levels=(2, 4, 8)),
                            SolverConfig(samples=50, seed=1))
    assert fit.degenerate
    assert fit.slope is None


def test_convergence_validation():
    with pytest.raises(InvalidPartitionError):
        convergence_study(lin_spec(), ladder(levels=(4, 8)), SolverConfig(samples=100))
    with pytest.raises(InvalidPartitionError):
        convergence_study(lin_spec(), ladder(levels=(8, 4, 16)), SolverConfig(samples=100))
    no_ref = builtin_problem("martingale")
    from dataclasses import replace

    with pytest.raises(ReferenceRequiredError):
        convergence_study(replace(no_ref, analytic_reference=None), ladder(),
                          SolverConfig(samples=100))


def test_compare_algorithms_zero_discrepancy_on_exact_fixture():
    spec = builtin_problem("zero", {"value": 4.0})
    part = build_partition(1.0, 4, [1.0], [2])
    report = compare_algorithms(spec, part, SolverConfig(samples=50, seed=9))
    assert report.total == 0.0


def test_compare_algorithms_discrepancy_shrinks():
    pts = []
    for part in ladder(levels=(4, 8, 16)):
        report = compare_algorithms(lin_spec(), part, SolverConfig(samples=4000, seed=10))
        pts.append((part.mesh_size, report.total))
    slope, *_ = fit_loglog(pts)
    assert slope >= 0.7


# ---------------------------------------------------------------------------
# time-increment regularity
# ---------------------------------------------------------------------------


def test_increment_regularity_slope():
    spec = lin_spec()
    part = build_partition(1.0, 16, [0.5], [1])
    lat = solve_algorithm_one(spec, part, SolverConfig(samples=5000, seed=13))
    lags, moments, slope = increment_regularity(lat)
    assert len(lags) == 15 * 14 // 2 + 15
    assert slope is not None and slope <= 1.3


# ---------------------------------------------------------------------------
# Malliavin subsystem
# ---------------------------------------------------------------------------


def test_malliavin_zero_driver_propagates_terminal_gradient():
    spec = builtin_problem("martingale")
    part = build_partition(1.0, 6, [0.5], [1])
    base = solve_algorithm_one(spec, part, SolverConfig(samples=500, seed=15))
    system = build_malliavin_system(spec, base, theta_index=2)
    mall = solve_malliavin_system(system, base)
    x = part.points[..., 0]
    for j in range(2, part.n0 + 1):
        vals = mall.D_V[(0, (0,))][:, j, :, 0, 0]
        assert np.max(np.abs(vals - x[None, :])) < 1e-12


def test_malliavin_zero_block_before_theta():
    spec = lin_spec()
    part = build_partition(1.0, 6, [0.5], [1])
    base = solve_algorithm_one(spec, part, SolverConfig(samples=300, seed=16))
    mall = build_malliavin_lattices(spec, base, [3])
    for key in mall[3].D_V:
        assert np.array_equal(mall[3].D_V[key][:, :3], np.zeros_like(mall[3].D_V[key][:, :3]))
        assert np.array_equal(mall[3].D_Vbar[key][:, :3], np.zeros_like(mall[3].D_Vbar[key][:, :3]))


def test_malliavin_linear_scalar_matches_closed_form():
    spec = lin_spec()
    part = build_partition(1.0, 16, [0.5], [1])
    base = solve_algorithm_one(spec, part, SolverConfig(samples=500, seed=17))
    mall = build_malliavin_lattices(spec, base, [0])
    t = part.time_points
    x = 0.5
    expect = np.exp(1.0 - t) * x
    got = mall[0].D_V[(0, (0,))][0, :, 1, 0, 0]
    assert np.max(np.abs(got - expect) / expect) < 0.05


def test_representation_identity_on_builtins():
    for name, params in (("martingale", {}), ("linear_scalar", {"terminal_time": 1.0})):
        spec = builtin_problem(name, params)
        part = build_partition(1.0, 8, [0.5], [1])
        base = solve_algorithm_one(spec, part, SolverConfig(samples=1000, seed=18))
        report = check_representation_identity(spec, base)
        assert report.passed(3.0), (name, report.max_abs_z)
        assert report.max_abs_z == 0.0  # both sides coincide exactly here


def test_representation_identity_requires_all_thetas():
    spec = builtin_problem("martingale")
    part = build_partition(1.0, 4, [0.5], [1])
    base = solve_algorithm_one(spec, part, SolverConfig(samples=100, seed=19))
    partial = build_malliavin_lattices(spec, base, [0, 1])
    with pytest.raises(InvalidPartitionError, match="missing"):
        check_representation_identity(spec, base, partial)


def test_malliavin_non_finite_terminal_gradient_raises():
    spec = lin_spec()
    part = build_partition(1.0, 4, [0.5], [1])
    base = solve_algorithm_one(spec, part, SolverConfig(samples=100, seed=21))
    system = build_malliavin_system(spec, base, theta_index=0)
    terminal = system.terminal.copy()
    terminal[7, 1, 0, 0] = np.inf
    with pytest.raises(DivergenceError, match="non-finite"):
        solve_malliavin_system(replace(system, terminal=terminal), base)


def test_malliavin_theta_validation():
    spec = builtin_problem("martingale")
    part = build_partition(1.0, 4, [0.5], [1])
    base = solve_algorithm_one(spec, part, SolverConfig(samples=100, seed=20))
    with pytest.raises(InvalidPartitionError):
        build_malliavin_system(spec, base, theta_index=9)
