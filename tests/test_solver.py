import copy
import struct
import sys
import tracemalloc

import numpy as np
import pytest

from bspde import (
    CapacityError,
    DivergenceError,
    EstimatorSpec,
    FixedPointDivergenceError,
    InvalidPartitionError,
    ProblemSpec,
    SolverConfig,
    build_partition,
    builtin_problem,
    build_malliavin_lattices,
    build_malliavin_system,
    export_lattice_csv,
    permute_future_increments,
    reference_step_residual,
    simulate_increments,
    solve,
    solve_malliavin_system,
    stochastics,
    terminal_stage,
)
from bspde.errors import check_finite
from bspde.model import zero_key
from bspde.solver import _SAMPLE, _row_template


def small_partition(n0=4, edge=1.0, count=2, T=1.0):
    return build_partition(T, n0, [edge], [count])


# ---------------------------------------------------------------------------
# exactness on the noiseless and martingale fixtures
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("algorithm", ["one", "two"])
def test_zero_problem_exact_every_step(algorithm):
    spec = builtin_problem("zero", {"value": 7.0})
    part = small_partition()
    lat = solve(spec, part, SolverConfig(algorithm=algorithm, samples=50, seed=1))
    V, Vbar = lat.V[zero_key(1)], lat.Vbar[zero_key(1)]
    assert np.array_equal(V, np.full_like(V, 7.0))
    assert np.array_equal(Vbar, np.zeros_like(Vbar))
    if algorithm == "two":
        assert lat.fp_iterations == [1] * part.n0  # nothing to iterate on


def test_martingale_exact_values_and_integrand():
    spec = builtin_problem("martingale")
    part = small_partition()
    lat = solve(spec, part, SolverConfig(samples=2000, seed=7))
    x = part.points[..., 0]
    ref = x[None, None, :, None] * lat.paths.W[:, :, None, :]
    assert np.max(np.abs(lat.V[zero_key(1)] - ref)) < 1e-12
    computed = lat.Vbar[zero_key(1)][:, : part.n0, ..., 0]
    assert np.max(np.abs(computed - x[None, None, :, None])) < 1e-12


def test_linear_scalar_algorithm_two_contracts():
    spec = builtin_problem("linear_scalar")
    part = small_partition(n0=4, edge=0.5, count=1)
    lat = solve(spec, part, SolverConfig(algorithm="two", samples=500, seed=3))
    # the inner map has contraction factor dt = 0.25; convergence is geometric
    # (the very first backward step from a conditionally centered state can
    # land on the fixed point immediately)
    assert all(1 <= it <= 30 for it in lat.fp_iterations)
    assert max(lat.fp_iterations) >= 5
    # the implicit recursion has the exact per-step factor 1/(1 - dt)
    dt = 0.25
    alpha = np.array([(1.0 / (1.0 - dt)) ** (part.n0 - j) for j in range(part.n0 + 1)])
    x = part.points[..., 0]
    expect = alpha[None, :, None, None] * x[None, None, :, None] * lat.paths.W[:, :, None, :]
    assert np.max(np.abs(lat.V[zero_key(1)] - expect)) < 1e-8


# ---------------------------------------------------------------------------
# terminal stage
# ---------------------------------------------------------------------------


def test_terminal_stage_affine_field():
    spec = builtin_problem("zero", {"value": 0.0, "slope": 1.0})  # h(x) = x
    part = small_partition()
    paths = simulate_increments(part, 1, 10, seed=2)
    v_stack, vbar_stack = terminal_stage(spec, part, paths, M=1)
    x = part.points[..., 0]
    assert np.allclose(v_stack[(0, (0,))][0, :, 0], x)
    assert np.allclose(v_stack[(1, (1,))], 1.0)
    assert np.array_equal(vbar_stack[(0, (0,))], np.zeros_like(vbar_stack[(0, (0,))]))


def test_terminal_stage_scales_with_realized_endpoint():
    spec = builtin_problem("martingale")
    part = small_partition()
    paths = simulate_increments(part, 1, 64, seed=5)
    v_stack, _ = terminal_stage(spec, part, paths)
    w_T = paths.W[:, -1, 0]
    x = part.points[..., 0]
    assert np.allclose(v_stack[(0, (0,))][..., 0], w_T[:, None] * x[None, :])


def test_terminal_stage_heat_gradient_first_order():
    spec = builtin_problem("heat", {"a": 1.0})
    part = build_partition(1.0, 2, [1.0], [8])
    paths = simulate_increments(part, 1, 3, seed=5)
    v_stack, _ = terminal_stage(spec, part, paths, M=1)
    x = part.points[..., 0]
    d1 = v_stack[(1, (1,))][0, :, 0]
    assert np.max(np.abs(d1 - np.exp(x))) < np.exp(1.0) * part.spacings[0]


def test_lattice_terminal_slice_matches_terminal_stage_bitwise():
    spec = builtin_problem("martingale")
    part = small_partition()
    paths = simulate_increments(part, 1, 100, seed=11)
    cfg = SolverConfig(samples=100, seed=11)
    lat = solve(spec, part, cfg, paths)
    v_stack, vbar_stack = terminal_stage(spec, part, paths)
    for key, arr in v_stack.items():
        assert np.array_equal(lat.stacks(lat.V, part.n0)[key], arr)
    for key, arr in vbar_stack.items():
        assert np.array_equal(lat.stacks(lat.Vbar, part.n0)[key], arr)


# ---------------------------------------------------------------------------
# structural invariants
# ---------------------------------------------------------------------------


def test_stored_stacks_satisfy_stencil_recursion():
    from bspde.grid import difference_stack_arrays

    spec = builtin_problem("heat", {"a": 1.0})
    part = build_partition(1.0, 2, [2.0], [4])
    lat = solve(spec, part, SolverConfig(samples=8, seed=1))
    for j in range(part.n0 + 1):
        rebuilt = difference_stack_arrays(lat.V[zero_key(1)][:, j], lat.M, part, batch_ndim=1)
        derived = lat.stacks(lat.V, j)
        assert derived.keys() == rebuilt.keys()
        for key, arr in rebuilt.items():
            assert np.array_equal(derived[key], arr)


def test_lattices_store_order_zero_only():
    spec = builtin_problem("heat", {"a": 1.0})
    part = build_partition(1.0, 2, [2.0], [4])
    lat = solve(spec, part, SolverConfig(samples=8, seed=1, M=2))
    assert list(lat.V) == list(lat.Vbar) == [(0, (0,))]
    mall = dict(build_malliavin_lattices(lat, [0]))[0]
    assert list(mall.D_V) == list(mall.D_Vbar) == [(0, (0,))]
    assert [c for c, _ in lat.stacks(lat.V, 0)] == [0, 1, 2]


@pytest.mark.parametrize("algorithm", ["one", "two"])
def test_every_time_slice_is_contiguous(algorithm):
    spec = builtin_problem("linear_scalar")
    part = small_partition(n0=4)
    lat = solve(spec, part, SolverConfig(algorithm=algorithm, samples=20, seed=2, M=1))
    mall = dict(build_malliavin_lattices(lat, [2]))[2]
    families = [lat.V, lat.Vbar, mall.D_V, mall.D_Vbar]
    shapes = [(20, 5, 3, 1), (20, 5, 3, 1, 1), (20, 5, 3, 1, 1), (20, 5, 3, 1, 1, 1)]
    for family, shape in zip(families, shapes):
        (arr,) = family.values()
        assert arr.shape == shape  # the logical (S, n0+1, ...) layout is kept
        assert all(arr[:, j].flags.c_contiguous for j in range(part.n0 + 1))


@pytest.mark.parametrize("algorithm", ["one", "two"])
def test_each_basis_index_built_once_per_solve(monkeypatch, algorithm):
    built = []
    design_matrix = stochastics._design_matrix

    def counting(states, exponents, t):
        built.append(states)
        return design_matrix(states, exponents, t)

    monkeypatch.setattr(stochastics, "_design_matrix", counting)
    part = small_partition(n0=8)
    solve(builtin_problem("linear_scalar"), part, SolverConfig(algorithm=algorithm, samples=200, seed=3))
    assert len(built) == part.n0 + 1


@pytest.mark.parametrize("algorithm,fits_per_step", [("one", 3), ("two", 2)])
def test_one_factor_per_fit_index_and_one_small_lstsq_per_fit(monkeypatch, algorithm, fits_per_step):
    # the factor is LAPACK's dgeqrf on the (S, B) fit basis; its workspace
    # queries (lwork = -1) factor nothing and are not counted
    qr_inputs, lstsq_inputs = [], []
    geqrf, lstsq = stochastics.lapack_lite.dgeqrf, np.linalg.lstsq

    def counting_geqrf(m, n, *args):
        if args[-2] != -1:
            qr_inputs.append((m, n))
        return geqrf(m, n, *args)

    def counting_lstsq(a, b, *args, **kwargs):
        lstsq_inputs.append(a.shape)
        return lstsq(a, b, *args, **kwargs)

    monkeypatch.setattr(stochastics.lapack_lite, "dgeqrf", counting_geqrf)
    monkeypatch.setattr(np.linalg, "lstsq", counting_lstsq)
    part = small_partition(n0=8)
    solve(builtin_problem("linear_scalar"), part, SolverConfig(algorithm=algorithm, samples=200, seed=3))
    B = EstimatorSpec().basis_size(1)
    assert qr_inputs == [(200, B)] * part.n0
    assert lstsq_inputs == [(B, B)] * (fits_per_step * part.n0)


def test_solve_with_a_given_estimator_refuses_other_paths_and_specs():
    spec, part = builtin_problem("linear_scalar"), small_partition(n0=4)
    config = SolverConfig(algorithm="two", samples=200, seed=3)
    paths = simulate_increments(part, 1, 200, seed=3)
    own = stochastics.ConditionalEstimator(config.estimator, paths)
    shared = solve(spec, part, config, paths, estimator=own)
    fresh = solve(spec, part, config, paths)
    assert np.array_equal(shared.V[zero_key(1)], fresh.V[zero_key(1)])
    assert np.array_equal(shared.Vbar[zero_key(1)], fresh.Vbar[zero_key(1)])
    same_draws = simulate_increments(part, 1, 200, seed=3)
    for est in (
        stochastics.ConditionalEstimator(config.estimator, same_draws),
        stochastics.ConditionalEstimator(EstimatorSpec(degree=2), paths),
    ):
        with pytest.raises(InvalidPartitionError, match="estimator is bound to other paths"):
            solve(spec, part, config, paths, estimator=est)


def test_deterministic_problems_have_zero_sample_spread():
    for name, params in (("zero", {"value": 3.0}), ("heat", {"a": 1.0})):
        spec = builtin_problem(name, params)
        part = build_partition(1.0, 4, [2.0], [2])
        lat = solve(spec, part, SolverConfig(samples=100, seed=9))
        V = lat.V[zero_key(1)]
        spread = V.max(axis=0) - V.min(axis=0)
        assert np.max(spread) == 0.0


def test_adaptedness_under_future_increment_shuffle():
    # exchanging increments after t_{j*} across samples must not change
    # anything computed at or before t_{j*}; with the moment-exact estimator
    # the fitted one-step functions are ensemble-independent so this holds
    # to linear-algebra roundoff
    spec = builtin_problem("linear_scalar")
    part = small_partition(n0=6, edge=0.5, count=1)
    S = 3000
    cfg = SolverConfig(samples=S, seed=23)
    paths = simulate_increments(part, 1, S, seed=23)
    base = solve(spec, part, cfg, paths)
    j_star = 3
    perm = np.random.default_rng(1).permutation(S)
    shuffled = solve(
        spec, part, cfg, permute_future_increments(paths, j_star, perm)
    )
    for j in range(j_star + 1):
        diff = np.max(np.abs(base.V[zero_key(1)][:, j] - shuffled.V[zero_key(1)][:, j]))
        assert diff < 1e-10, f"step {j} changed by {diff}"


def test_solver_determinism_bitwise():
    spec = builtin_problem("linear_scalar")
    part = small_partition()
    cfg = SolverConfig(samples=500, seed=31)
    a = solve(spec, part, cfg)
    b = solve(spec, part, cfg)
    assert np.array_equal(a.V[zero_key(1)], b.V[zero_key(1)])
    assert np.array_equal(a.Vbar[zero_key(1)], b.Vbar[zero_key(1)])


def test_solve_dispatch_and_config_validation():
    spec = builtin_problem("zero")
    part = small_partition()
    lat = solve(spec, part, SolverConfig(algorithm="two", samples=20, seed=1))
    assert lat.fp_iterations
    with pytest.raises(InvalidPartitionError):
        SolverConfig(algorithm="three")
    # types are checked beside bounds: "no" is truthy, and 50.0 is not an integer
    with pytest.raises(InvalidPartitionError, match="samples must be an integer"):
        SolverConfig(samples=50.0)
    with pytest.raises(InvalidPartitionError, match="paper_literal_stencil must be true or false"):
        SolverConfig(paper_literal_stencil="no")
    with pytest.raises(InvalidPartitionError, match="need seed >= 0"):
        SolverConfig(seed=-1)
    with pytest.raises(InvalidPartitionError, match="M must be an integer"):
        SolverConfig(M=True)
    with pytest.raises(InvalidPartitionError, match="estimator must be an EstimatorSpec, got 'analytic'"):
        SolverConfig(estimator="analytic")
    numpy_config = SolverConfig(
        samples=np.int64(20), M=np.int64(0), fp_tolerance=np.float64(1e-9), seed=np.int64(1),
        paper_literal_stencil=np.False_,
    )
    assert numpy_config.samples == 20
    with pytest.raises(InvalidPartitionError):
        # 3 samples cannot support the degree-3 default basis
        solve(spec, part, SolverConfig(samples=3))
    heat = builtin_problem("heat")
    with pytest.raises(InvalidPartitionError):
        # M below the operators' requirement
        solve(heat, part, SolverConfig(samples=20, M=1))


@pytest.mark.parametrize("study", [solve, reference_step_residual])
@pytest.mark.parametrize(
    "paths_n0, paths_d, want",
    [
        # finer paths would be read at the wrong times, coarser ones out of range
        pytest.param(8, 1, r"d=1 on the time grid \[0\. +0\.125", id="finer-time-grid"),
        pytest.param(2, 1, r"d=1 on the time grid \[0\. +0\.5 +1\. *\]", id="coarser-time-grid"),
        pytest.param(4, 2, r"simulated with d=2 .* needs d=1", id="brownian-dimension"),
    ],
)
def test_paths_of_another_time_grid_or_dimension_are_refused(study, paths_n0, paths_d, want):
    spec = builtin_problem("linear_scalar")
    part = small_partition(n0=4)
    paths = simulate_increments(small_partition(n0=paths_n0), paths_d, 40, seed=3)
    with pytest.raises(InvalidPartitionError, match=want) as err:
        study(spec, part, SolverConfig(samples=40, seed=3), paths=paths)
    assert "needs d=1 on [0.   0.25 0.5  0.75 1.  ]" in str(err.value)


@pytest.mark.parametrize("name", ["linear_scalar", "heat"])
def test_a_problem_of_another_spatial_dimension_is_refused(name):
    # once a bare KeyError from the operators, which read stack keys of p = 1
    part = build_partition(1.0, 4, [1.0, 1.0], [2, 2])
    with pytest.raises(InvalidPartitionError, match=f"problem '{name}' has p=1, the grid p=2"):
        solve(builtin_problem(name), part, SolverConfig(samples=50))


def test_capacity_budget_counts_only_the_stored_lattice():
    # 100 samples x 5 times x 2 points x (V + Vbar) = 2 000 lattice entries,
    # against 100 x 4 = 400 path entries
    spec = builtin_problem("linear_scalar")
    part = small_partition(n0=4, edge=0.5, count=1)
    cfg = SolverConfig(samples=100, seed=1, max_entries=1000)
    with pytest.raises(CapacityError, match="lattice would hold 2000"):
        solve(spec, part, cfg)
    slices = []
    lat = solve(spec, part, cfg, observe=lambda j, v, vbar: slices.append(j))
    assert slices == list(range(part.n0, -1, -1))
    assert lat.V == lat.Vbar == {}


def test_capacity_budget_counts_order_zero_at_M_2():
    # 100 samples x 5 times x 3 points x (V + Vbar) = 3 000 stored entries;
    # the three stack entries at M = 2 are derived, not stored
    spec = builtin_problem("linear_scalar")
    lat = solve(spec, small_partition(n0=4), SolverConfig(samples=100, seed=1, M=2, max_entries=4000))
    assert sum(arr.size for arr in (*lat.V.values(), *lat.Vbar.values())) == 3000
    with pytest.raises(CapacityError, match="lattice would hold 3000"):
        solve(spec, small_partition(n0=4), SolverConfig(samples=100, M=2, max_entries=2999))


@pytest.mark.parametrize("march", ["one", "two", "malliavin"])
def test_observer_may_keep_every_stack_it_is_handed(march):
    # linear_scalar's driver returns its input stack entry, so a step that
    # summed into the driver's result, or into a slice it handed over, would
    # change a stack that the observer keeps
    spec = builtin_problem("linear_scalar")
    part = small_partition(n0=4)
    config = SolverConfig(samples=200, seed=4, M=1, algorithm="one" if march == "malliavin" else march)
    kept = []

    def observe(j, v_stack, vbar_stack):
        kept.append(((v_stack, vbar_stack), copy.deepcopy((v_stack, vbar_stack))))

    if march == "malliavin":
        base = solve(spec, part, config)
        solve_malliavin_system(build_malliavin_system(base, 0), base, observe=observe)
    else:
        solve(spec, part, config, observe=observe)
    assert len(kept) == part.n0 + 1
    for stacks, copies in kept:
        for stack, copied in zip(stacks, copies):
            assert stack.keys() == copied.keys()
            for key, arr in stack.items():
                np.testing.assert_array_equal(arr, copied[key])


def test_observed_march_holds_about_six_slices():
    # beyond the paths, a step holds the last slice's V and Vbar, the
    # estimator's targets and outputs, and the next slice as it is made: about
    # 5.6 slices of S x G x q float64.  Keeping the terminal stacks for the
    # whole march and summing the integrand into new arrays reads 9.6
    spec = builtin_problem("linear_scalar")
    part = build_partition(1.0, 16, [0.03], [16])
    config = SolverConfig(samples=2000, seed=40)
    paths = simulate_increments(part, spec.d, config.samples, config.seed)
    tracemalloc.start()
    try:
        solve(spec, part, config, paths, observe=lambda j, v_stack, vbar_stack: None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (config.samples * part.num_points * spec.q * 8) < 7


def _export_peak(tmp_path, samples):
    spec = builtin_problem("linear_scalar")
    lat = solve(spec, small_partition(n0=2, count=4), SolverConfig(samples=samples, seed=2, M=2))
    tracemalloc.start()
    try:
        export_lattice_csv(lat, tmp_path / "v.csv", tmp_path / "vbar.csv")
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_export_memory_does_not_grow_with_the_sample_count(tmp_path, monkeypatch):
    # blocks of 4 samples (4 x 3 times x 5 points); deriving the whole lattice's
    # two higher orders would grow the peak about 5-fold from 50 to 400 samples
    monkeypatch.setattr("bspde.solver._EXPORT_BLOCK_ENTRIES", 60)
    assert _export_peak(tmp_path, 400) < 1.2 * _export_peak(tmp_path, 50)


# ---------------------------------------------------------------------------
# failure modes
# ---------------------------------------------------------------------------


def test_fixed_point_divergence_for_large_steps():
    # driver Lipschitz constant 1 with dt = 2 gives an expanding inner map;
    # two steps are needed so the iteration starts away from its fixed point
    spec = builtin_problem("linear_scalar")
    part = build_partition(4.0, 2, [0.5], [1])
    with pytest.raises(FixedPointDivergenceError, match="shrink dt"):
        solve(spec, part, SolverConfig(algorithm="two", samples=50, seed=2))


def test_heat_fixed_point_stalls_at_marginal_contraction():
    # dt / (2 h^2) = 1 at n0=32, n_1=8 on a unit edge: the inner iteration
    # neither contracts nor diverges, so the stage must fail loudly
    spec = builtin_problem("heat", {"a": 1.0})
    part = build_partition(1.0, 32, [1.0], [8])
    with pytest.raises(FixedPointDivergenceError):
        solve(spec, part, SolverConfig(algorithm="two", samples=10, seed=2))


def test_divergence_error_names_the_step():
    # a finite driver whose Euler target overflows must fail loudly with the
    # offending step in the message
    spec = ProblemSpec(
        name="overflow", p=1, q=1, d=1, k=0, m=0, n=0,
        driver=lambda t, x, v, vbar: v[(0, (0,))],
        diffusion=lambda t, x, v: np.zeros(v[(0, (0,))].shape + (1,)),
        terminal=lambda x, w: np.full(
            np.broadcast_shapes(x[..., 0:1].shape, (w[..., 0:1] * x[..., 0:1]).shape), 8e307
        ),
    )
    part = small_partition(n0=2)
    with np.errstate(over="ignore"), pytest.raises(DivergenceError, match="j0=1"):
        solve(spec, part, SolverConfig(samples=8, seed=1))


def test_implicit_stage_non_finite_iterate_names_the_step():
    # a finite driver whose implicit-stage iterate E[V|F] + dt L overflows:
    # 1e308 + 0.5 * 1.7e308 is past the largest double at the first iterate
    spec = ProblemSpec(
        name="overflow", p=1, q=1, d=1, k=0, m=0, n=0,
        driver=lambda t, x, v, vbar: np.full_like(v[(0, (0,))], 1.7e308),
        diffusion=lambda t, x, v: np.zeros(v[(0, (0,))].shape + (1,)),
        terminal=lambda x, w: np.full(
            np.broadcast_shapes(x[..., 0:1].shape, (w[..., 0:1] * x[..., 0:1]).shape), 1e308
        ),
    )
    part = small_partition(n0=2)
    with np.errstate(over="ignore"), pytest.raises(
        DivergenceError, match=r"implicit-stage iterate became non-finite at time step j0=2"
    ):
        solve(spec, part, SolverConfig(algorithm="two", samples=8, seed=1))


@pytest.mark.parametrize("base_shape, nan_at, shape", [
    ((1, 3, 1, 2), (0, 2, 0, 1), (4, 3, 5, 2)), ((3,), (1,), (2, 3)), ((2, 1), (1, 0), (2, 6)),
])
def test_check_finite_on_a_broadcast_names_what_its_copy_names(base_shape, nan_at, shape):
    # one entry along each zero-stride axis is scanned; the message and the
    # first offending index are those of the materialized array
    base = np.zeros(base_shape)
    base[nan_at] = np.nan
    broadcast = np.broadcast_to(base, shape)
    messages = []
    for values in (broadcast, broadcast.copy()):
        with pytest.raises(DivergenceError) as info:
            check_finite(values, DivergenceError, "field", "step 1")
        messages.append(str(info.value))
    assert messages[0] == messages[1]
    finite = np.broadcast_to(np.ones(base_shape), shape)
    assert check_finite(finite, DivergenceError, "field", "step 1").shape == shape


# ---------------------------------------------------------------------------
# single-step consistency of the references
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name,params", [
    ("zero", {"value": 2.0}),
    ("martingale", {}),
    ("linear_scalar", {}),
    ("heat", {"a": 1.0}),
])
def test_reference_single_step_residual_shrinks(name, params):
    spec = builtin_problem(name, params)
    pts = []
    for level in range(3):
        factor = 2**level
        part = build_partition(1.0, 4 * factor, [1.0], [4 * factor])
        cfg = SolverConfig(samples=2000, seed=13)
        res = reference_step_residual(spec, part, cfg)
        pts.append((part.mesh_size, res))
    if all(r < 1e-13 for _, r in pts):
        return  # scheme is exact on this fixture
    ratio = pts[0][1] / pts[-1][1]
    assert ratio > 2.0, pts  # residual shrinks at least linearly over 4x refinement


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------


def test_export_lattice_csv(tmp_path):
    spec = builtin_problem("zero", {"value": 7.0})
    part = small_partition(n0=2)
    lat = solve(spec, part, SolverConfig(samples=4, seed=1))
    v_path = tmp_path / "v.csv"
    vbar_path = tmp_path / "vbar.csv"
    export_lattice_csv(lat, v_path, vbar_path)
    v_lines = v_path.read_text().splitlines()
    assert v_lines[0] == "sample,j,t,x1,c,multi_index,component,value"
    assert len(v_lines) == 1 + 4 * 3 * 3  # samples * times * grid points
    assert all(line.endswith(",7") for line in v_lines[1:])
    vbar_lines = vbar_path.read_text().splitlines()
    assert vbar_lines[0] == "sample,j,t,x1,c,multi_index,component,dcomponent,value"
    assert all(line.endswith(",0") for line in vbar_lines[1:])


_SPECIAL_VALUES = [-0.0, float("inf"), -float("inf"), float("nan"), 5e-324,
                   sys.float_info.max, 1e16, 0.1]


def test_export_special_values_round_trip(tmp_path):
    """Each value cell is `format(v, ".17g")` of the stored double and parses
    back to it bit for bit, sign of zero included.  `repr` and `str` spell
    -0.0, 5e-324, 1e16 and 0.1 differently."""
    spec = builtin_problem("zero", {"value": 7.0})
    lat = solve(spec, small_partition(n0=2), SolverConfig(samples=4, seed=1))
    V0 = lat.V[zero_key(1)]
    V0[...] = np.resize(np.array(_SPECIAL_VALUES), V0.shape)
    export_lattice_csv(lat, tmp_path / "v.csv", tmp_path / "vbar.csv")
    cells = [line.rsplit(",", 1)[1] for line in (tmp_path / "v.csv").read_text().splitlines()[1:]]
    # M = 0: the order-zero rows only, sample by sample in the array's own order
    stored = V0.reshape(-1).tolist()
    assert len(cells) == len(stored)
    for cell, value in zip(cells, stored):
        assert cell == format(value, ".17g")
        assert struct.pack("<d", float(cell)) == struct.pack("<d", value)
    bits = {struct.pack("<d", v) for v in stored}
    assert bits == {struct.pack("<d", v) for v in _SPECIAL_VALUES}


def test_row_template_writes_percent_literally():
    middles = [",a%b,", ",%s%%d,", ",,"]
    template = _row_template(middles)
    rows = template.replace(_SAMPLE, "12") % (1.5, -0.0, float("nan"))
    assert rows == "12,a%b,1.5\n12,%s%%d,-0\n12,,nan\n"
    with pytest.raises(ValueError, match="sample slot"):
        _row_template([f",{_SAMPLE},"])


def _export_row_by_row(lattice, v_path, vbar_path):
    """Reference writer: one formatted row per value, every order of the
    lattice's derived stacks."""

    def fmt(v):
        return format(v, ".17g")

    part = lattice.partition
    S, q, d = lattice.sample_count, lattice.spec.q, lattice.spec.d
    coords = part.points.reshape(-1, part.p)
    grid_n = coords.shape[0]
    header_x = ",".join(f"x{l+1}" for l in range(part.p))
    def whole(family):  # each slice's stack, entries stacked along the time axis
        slices = [lattice.stacks(family, j) for j in range(part.n0 + 1)]
        return {key: np.stack([st[key] for st in slices], axis=1) for key in slices[0]}

    V, Vbar = whole(lattice.V), whole(lattice.Vbar)
    with open(v_path, "w") as fv:
        fv.write(f"sample,j,t,{header_x},c,multi_index,component,value\n")
        for key in sorted(V):
            c, idx = key
            tag = "-".join(map(str, idx))
            flat = V[key].reshape(S, part.n0 + 1, grid_n, q)
            for s in range(S):
                for j in range(part.n0 + 1):
                    t = part.time_points[j]
                    for g in range(grid_n):
                        xs = ",".join(fmt(x) for x in coords[g])
                        for r in range(q):
                            fv.write(f"{s},{j},{fmt(t)},{xs},{c},{tag},{r},{fmt(flat[s, j, g, r])}\n")
    with open(vbar_path, "w") as fb:
        fb.write(f"sample,j,t,{header_x},c,multi_index,component,dcomponent,value\n")
        for key in sorted(Vbar):
            c, idx = key
            tag = "-".join(map(str, idx))
            flat = Vbar[key].reshape(S, part.n0 + 1, grid_n, q, d)
            for s in range(S):
                for j in range(part.n0 + 1):
                    t = part.time_points[j]
                    for g in range(grid_n):
                        xs = ",".join(fmt(x) for x in coords[g])
                        for r in range(q):
                            for i in range(d):
                                fb.write(
                                    f"{s},{j},{fmt(t)},{xs},{c},{tag},{r},{i},"
                                    f"{fmt(flat[s, j, g, r, i])}\n"
                                )


def test_export_matches_row_by_row_writer_p2_q2_d2(tmp_path):
    def driver(t, x, v, vbar):
        return 0.5 * v[(0, (0, 0))] + 0.1 * vbar[(0, (0, 0))][..., 1]

    def diffusion(t, x, v):
        return 0.2 * v[(0, (0, 0))][..., None] * np.array([1.0, -0.5])

    def terminal(x, w):
        a = np.sin(x[..., 0]) * w[..., 0] + x[..., 1] ** 2 * w[..., 1]
        b = np.cos(x[..., 1]) * (1.0 + x[..., 0] * w[..., 0])
        return np.stack([a, b], axis=-1)

    spec = ProblemSpec(
        name="p2q2d2", p=2, q=2, d=2, k=0, m=0, n=0,
        driver=driver, diffusion=diffusion, terminal=terminal,
    )
    part = build_partition(1.0, 2, [1.0, 0.5], [2, 2])
    lat = solve(spec, part, SolverConfig(samples=12, seed=4, M=2))
    export_lattice_csv(lat, tmp_path / "v.csv", tmp_path / "vbar.csv")
    _export_row_by_row(lat, tmp_path / "v_ref.csv", tmp_path / "vbar_ref.csv")
    for name in ("v", "vbar"):
        got = (tmp_path / f"{name}.csv").read_bytes()
        assert got == (tmp_path / f"{name}_ref.csv").read_bytes()
    # 6 stack entries (orders 0..2 in two dims) x 12 samples x 3 times x 9 points
    assert got.count(b"\n") == 1 + 6 * 12 * 3 * 9 * 2 * 2
