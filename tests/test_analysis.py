
import functools
import math
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from bspde import (
    CapacityError,
    DivergenceError,
    EstimatorSpec,
    InvalidPartitionError,
    OperatorEvaluationError,
    ProblemSpec,
    ReferenceRequiredError,
    SolverConfig,
    analysis,
    build_malliavin_lattices,
    build_malliavin_system,
    build_partition,
    builtin_problem,
    check_representation_identity,
    compare_algorithms,
    convergence_study,
    difference_stack_arrays,
    discrete_error,
    enumerate_multi_indices,
    export_lattice_csv,
    increment_regularity,
    reference_step_residual,
    simulate_increments,
    solve,
    solve_malliavin_system,
    solver,
    stochastics,
)
from bspde.analysis import ErrorReport, IdentityRow, fit_loglog
from bspde.model import OperatorJacobians, evaluate_diffusion_driver, operator_jacobians, zero_key


def ladder(edge=0.03, count=1, levels=(4, 8, 16, 32)):
    return [build_partition(1.0, n0, [edge], [count]) for n0 in levels]


def lin_spec():
    return builtin_problem("linear_scalar")


# ---------------------------------------------------------------------------
# discrete error criterion
# ---------------------------------------------------------------------------


def test_discrete_error_self_is_zero():
    spec = lin_spec()
    part = build_partition(1.0, 4, [0.5], [1])
    lat = solve(spec, part, SolverConfig(samples=200, seed=1))
    report = discrete_error(lat, lat)
    assert report.total == 0.0


def test_discrete_error_symmetric_between_lattices():
    spec = lin_spec()
    part = build_partition(1.0, 4, [0.5], [1])
    paths = simulate_increments(part, 1, 400, seed=2)
    a = solve(spec, part, SolverConfig(samples=400, seed=2), paths)
    b = solve(
        spec, part, SolverConfig(samples=400, seed=2, estimator=a.config.estimator), paths
    )
    c = solve(
        spec, part, SolverConfig(algorithm="two", samples=400, seed=2), paths
    )
    assert discrete_error(a, c).total == pytest.approx(discrete_error(c, a).total, rel=1e-12)


def test_discrete_error_zero_problem_is_exact():
    spec = builtin_problem("zero", {"value": 7.0})
    part = build_partition(1.0, 4, [1.0], [2])
    lat = solve(spec, part, SolverConfig(samples=100, seed=3))
    report = discrete_error(lat, spec)
    assert report.total == 0.0


def test_discrete_error_martingale_is_float_exact():
    spec = builtin_problem("martingale")
    part = build_partition(1.0, 8, [1.0], [2])
    lat = solve(spec, part, SolverConfig(samples=1000, seed=4))
    # the martingale fixture's integrand is constant in time, so even the
    # within-interval read points agree; only V picks up the Brownian motion
    # between read points
    report = discrete_error(lat, spec)
    assert sum(report.err_Vbar_sq.values()) < 1e-25
    assert report.err_V_sq[0] > 0.01  # E[(x dW)^2] term from the extension reads


def test_discrete_error_report_structure():
    spec = lin_spec()
    part = build_partition(1.0, 8, [0.03], [1])
    lat = solve(spec, part, SolverConfig(samples=2000, seed=5))
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
    lat = solve(spec, part, SolverConfig(samples=20000, seed=11))
    report = discrete_error(lat, spec)
    assert report.total == pytest.approx(6.649427e-04, rel=1e-4)


def test_discrete_error_requires_usable_reference():
    spec = builtin_problem("martingale")
    part = build_partition(1.0, 4, [1.0], [2])
    lat = solve(spec, part, SolverConfig(samples=50, seed=6))
    with pytest.raises(InvalidPartitionError):
        discrete_error(lat, "not a reference")


def test_discrete_error_refuses_orders_above_the_lattice():
    spec = builtin_problem("martingale")
    part = build_partition(1.0, 4, [1.0], [2])
    lat = solve(spec, part, SolverConfig(samples=50, seed=6))
    with pytest.raises(InvalidPartitionError, match="exceeds the lattice order"):
        discrete_error(lat, spec, M=lat.M + 1)


def _two_components(lattice, offset):
    """The lattice as component 0 of a q = 2 lattice on its paths, whose component 1 is offset."""
    key = zero_key(1)
    v, vbar = lattice.V[key], lattice.Vbar[key]
    return replace(
        lattice, spec=replace(lattice.spec, q=2),
        V={key: np.concatenate([v, v + offset], axis=-1)},
        Vbar={key: np.concatenate([vbar, vbar + offset], axis=-2)},
    )


@pytest.fixture(scope="module")
def misuse_lattices():
    spec = builtin_problem("martingale")
    part = build_partition(1.0, 4, [1.0], [2])
    M0 = solve(spec, part, SolverConfig(samples=50, seed=6))
    return {
        "spec": spec,
        "M0": M0,
        "M2": solve(spec, part, SolverConfig(samples=50, seed=6, M=2)),
        "S40": solve(spec, part, SolverConfig(samples=40, seed=6)),
        "q2": _two_components(M0, 5.0),
    }


_CRITERION_MISUSES = {
    # each raised a bare KeyError, a numpy ValueError or a ZeroDivisionError, or
    # compared component 0 only and returned a number
    "reference-of-lower-order": (lambda l: discrete_error(l["M2"], l["M0"]), r"order >= M=2 .* has 0 and"),
    "reference-of-other-sample-count": (lambda l: discrete_error(l["M0"], l["S40"]), "50 samples, has 0 and 40"),
    "reference-problem-of-other-q": (
        lambda l: discrete_error(l["q2"], l["spec"]), r"\(p, q, d\) = \(1, 1, 1\), the lattice's \(1, 2, 1\)"
    ),
    "reference-lattice-of-other-q": (
        lambda l: discrete_error(l["q2"], l["M0"]), r"\(p, q, d\) = \(1, 1, 1\), the lattice's \(1, 2, 1\)"
    ),
    "reference-problem-of-other-d": (
        lambda l: discrete_error(l["M0"], _p2q2d2_spec()), r"\(p, q, d\) = \(2, 2, 2\), the lattice's \(1, 1, 1\)"
    ),
    "negative-M": (lambda l: discrete_error(l["M0"], l["spec"], M=-1), "need M >= 0"),
    "regularity-above-the-lattice-order": (
        lambda l: increment_regularity(l["M0"], M=1), "M=1 exceeds the lattice order 0"
    ),
}


@pytest.mark.parametrize("misuse", sorted(_CRITERION_MISUSES))
def test_criterion_refuses_what_it_cannot_read(misuse_lattices, misuse):
    call, message = _CRITERION_MISUSES[misuse]
    with pytest.raises(InvalidPartitionError, match=message):
        call(misuse_lattices)


@pytest.mark.parametrize("study", ["discrete_error", "convergence_study"])
def test_non_finite_analytic_reference_is_a_numerical_error(study):
    # a NaN reference once left each term at its -1.0 start value: a negative
    # total, and on a ladder a fit called "degenerate"
    spec = replace(lin_spec(), analytic_reference=lambda t, T, x, w: (np.full_like(w, np.nan), 0.0))
    config = SolverConfig(samples=50, seed=1)
    with pytest.raises(OperatorEvaluationError, match=r"criterion sample mean became non-finite at grid time j=\d"):
        if study == "discrete_error":
            discrete_error(solve(spec, build_partition(1.0, 4, [1.0], [2]), config), spec)
        else:
            convergence_study(spec, ladder(levels=(4, 8, 16)), config)


def test_fine_time_lattice_as_reference():
    # a deterministic problem solved on a 4x finer time grid serves as the
    # reference for the coarse run; shared spatial bias cancels
    spec = builtin_problem("zero", {"value": 2.0, "slope": 1.0})
    coarse = build_partition(1.0, 4, [1.0], [2])
    fine = build_partition(1.0, 16, [1.0], [2])
    cfg = SolverConfig(samples=20, seed=7)
    lat_c = solve(spec, coarse, cfg)
    lat_f = solve(spec, fine, cfg)
    report = discrete_error(lat_c, lat_f)
    assert report.total == 0.0  # scheme exact on this fixture at any grid


def _discrete_error_oracle(lattice, reference, M=None):
    """The criterion as a loop over read points (all "at t_j", then all "just
    before t_j"), each reference slice built afresh; a strictly larger mean
    replaces the kept term, so the first worst read point wins."""
    M = lattice.M if M is None else M
    part, p, S = lattice.partition, lattice.spec.p, lattice.sample_count
    n0 = part.n0
    lit = lattice.config.paper_literal_stencil

    def restencil(arr, M_ref):
        return difference_stack_arrays(arr, M_ref, part, batch_ndim=1, paper_literal=lit)

    if isinstance(reference, ProblemSpec):
        spec = reference

        def ref_slices(j, left):
            w = lattice.paths.W[:, j, :].reshape(S, *([1] * p), spec.d)
            V, Vbar = spec.analytic_reference(float(part.time_points[j]), part.T, part.points, w)
            shape = (S,) + part.grid_shape + (spec.q,)
            V = np.broadcast_to(np.asarray(V, dtype=float), shape).copy()
            Vbar = np.broadcast_to(np.asarray(Vbar, dtype=float), shape + (spec.d,)).copy()
            return restencil(V, lattice.M), restencil(Vbar, lattice.M)
    else:
        ref_times = list(reference.partition.time_points)

        def ref_slices(j, left):
            i = int(np.argmin(np.abs(np.array(ref_times) - part.time_points[j]))) - left
            return reference.stacks(reference.V, i), reference.stacks(reference.Vbar, i)

    def deviation(lat_sl, ref_sl, c):
        worst = None
        for idx in enumerate_multi_indices(c, p):
            diff = np.abs(ref_sl[(c, idx)] - lat_sl[(c, idx)])
            while diff.ndim > 1 + p:
                diff = diff.max(axis=-1)
            worst = diff if worst is None else np.maximum(worst, diff)
        return worst**2

    reads = [(j, False, j) for j in range(n0)] + [(j, True, j - 1) for j in range(1, n0 + 1)]
    best = {(fam, c): (-1.0, None) for fam in ("V", "Vbar") for c in range(M + 1)}
    for j, left, j_st in reads:
        refV, refVbar = ref_slices(j, left)
        latV, latVbar = lattice.stacks(lattice.V, j_st), lattice.stacks(lattice.Vbar, j_st)
        for fam, ref_sl, lat_sl in (("V", refV, latV), ("Vbar", refVbar, latVbar)):
            for c in range(M + 1):
                sq = deviation(lat_sl, ref_sl, c)
                mean = sq.mean(axis=0)
                worst_x = float(mean.max())
                if worst_x > best[fam, c][0]:
                    gx = int(np.argmax(mean.reshape(-1)))
                    flat = sq.reshape(S, -1)
                    se = float(flat[:, gx].std(ddof=1) / math.sqrt(S)) if S > 1 else 0.0
                    best[fam, c] = (worst_x, se)
    orders = range(M + 1)
    return ErrorReport(
        err_V_sq={c: best["V", c][0] for c in orders},
        err_Vbar_sq={c: best["Vbar", c][0] for c in orders},
        stderr_V={c: best["V", c][1] for c in orders},
        stderr_Vbar={c: best["Vbar", c][1] for c in orders},
        mesh_size=part.mesh_size,
        samples=S,
    )


def _p2q2d2_spec():
    def driver(t, x, v, vbar):
        return 0.5 * v[(0, (0, 0))] + 0.1 * vbar[(0, (0, 0))][..., 1]

    def diffusion(t, x, v):
        return 0.2 * v[(0, (0, 0))][..., None] * np.array([1.0, -0.5])

    def terminal(x, w):
        a = np.sin(x[..., 0]) * w[..., 0] + x[..., 1] ** 2 * w[..., 1]
        b = np.cos(x[..., 1]) * (1.0 + x[..., 0] * w[..., 0])
        return np.stack([a, b], axis=-1)

    def reference(t, T, x, w):
        # not the solution: any smooth field of (t, x, W) exercises the criterion
        V = terminal(x, w) * np.exp(1.0 - t)
        Vbar = V[..., None] * np.array([0.3, -0.7]) + t * x[..., :1, None]
        return V, Vbar

    return ProblemSpec(
        name="p2q2d2", p=2, q=2, d=2, k=0, m=0, n=0,
        driver=driver, diffusion=diffusion, terminal=terminal, analytic_reference=reference,
    )


def _oracle_cases():
    lin = lin_spec()
    part = build_partition(1.0, 8, [0.5], [2])
    cfg = SolverConfig(samples=300, seed=21, M=2)
    paths = simulate_increments(part, 1, 300, seed=21)
    one = solve(lin, part, cfg, paths)
    two = solve(lin, part, replace(cfg, algorithm="two"), paths)
    fine = solve(lin, build_partition(1.0, 32, [0.5], [2]), cfg)
    p2 = build_partition(1.0, 4, [1.0, 0.5], [2, 2])
    spec2 = _p2q2d2_spec()
    lat2 = solve(spec2, p2, SolverConfig(samples=40, seed=22, M=2))
    zero = builtin_problem("zero", {"value": 3.0, "slope": 1.0})
    mart = builtin_problem("martingale")
    tie = build_partition(1.0, 4, [1.0], [2])
    return {
        "linear_scalar_analytic": (one, lin),
        "linear_scalar_analytic_order_0": (one, lin, 0),
        "one_against_two": (one, two),
        "coarse_against_fine": (one, fine),
        "p2q2d2_M2_analytic": (lat2, spec2),
        "zero_ties": (solve(zero, tie, SolverConfig(samples=30, seed=23)), zero),
        "martingale_ties": (solve(mart, tie, SolverConfig(samples=30, seed=24)), mart),
    }


@pytest.fixture(scope="module")
def oracle_cases():
    return _oracle_cases()


@pytest.mark.parametrize("chunk_entries", [1, 7 * 4 * 3, None])
@pytest.mark.parametrize("case", [
    "linear_scalar_analytic", "linear_scalar_analytic_order_0", "one_against_two",
    "coarse_against_fine", "p2q2d2_M2_analytic", "zero_ties", "martingale_ties",
])
def test_discrete_error_matches_read_point_loop(oracle_cases, case, chunk_entries, monkeypatch):
    # chunk_entries 1 reduces one sample per chunk; the middle value takes
    # 7 samples per chunk where a grid time has 4 terms on 3 points (the
    # order-0 case), leaving a partial last chunk; None keeps the default size
    if chunk_entries is not None:
        monkeypatch.setattr(analysis, "_CHUNK_ENTRIES", chunk_entries)
    lattice, reference, *M = oracle_cases[case]
    got = discrete_error(lattice, reference, *M)
    want = _discrete_error_oracle(lattice, reference, *M)
    for name in ("err_V_sq", "err_Vbar_sq", "stderr_V", "stderr_Vbar", "mesh_size", "samples"):
        assert getattr(got, name) == getattr(want, name), name


def test_tied_read_points_keep_the_first_in_read_order():
    # a zero-problem lattice with crafted V slices, per sample: (3, 4, 3, 4)
    # at both grid points at t = 0, and (5, 0, 5, 0) at the first point,
    # (3, 4, 3, 4) at the second at t = 1/2; references 3.5, 0 and 4.5 at
    # t = 0, 1/2, 1.  "at t_1" (read point 1) and "just before t_1" (read
    # point 2, reached first in the pass) tie at 12.5, and so do the two grid
    # points of "at t_1", each with a different spread: the report must take
    # the spread of "at t_1" at the first grid point
    spec = builtin_problem("zero", {"value": 0.0})
    lat = solve(spec, build_partition(1.0, 2, [1.0], [1]), SolverConfig(samples=4))
    lat.V[(0, (0,))][:, 0] = np.array([3.0, 4.0, 3.0, 4.0])[:, None, None]
    lat.V[(0, (0,))][:, 1] = np.array([[5.0, 3.0], [0.0, 4.0], [5.0, 3.0], [0.0, 4.0]])[..., None]
    levels = {0.0: 3.5, 0.5: 0.0, 1.0: 4.5}

    def reference(t, T, x, w):
        V = np.full(np.broadcast_shapes(x[..., 0:1].shape, w[..., 0:1].shape), levels[t])
        return V, np.zeros(V.shape + (1,))

    spec = replace(spec, analytic_reference=reference)
    report = discrete_error(lat, spec)
    assert report.err_V_sq[0] == 12.5
    # std(25, 0, 25, 0) / 2, not std(9, 16, 9, 16) / 2 = 2.02
    assert report.stderr_V[0] == pytest.approx(7.2168783648703)
    assert report == _discrete_error_oracle(lat, spec)


def test_analytic_reference_evaluated_once_per_grid_time():
    calls = []
    spec = lin_spec()
    reference = spec.analytic_reference

    def counting(t, T, x, w):
        calls.append(t)
        return reference(t, T, x, w)

    spec = replace(spec, analytic_reference=counting)
    part = build_partition(1.0, 8, [0.5], [1])
    lat = solve(spec, part, SolverConfig(samples=100, seed=25, M=1))
    discrete_error(lat, spec)
    assert sorted(calls) == list(part.time_points)  # n0 + 1 calls, one per grid time


def test_reference_lattice_slices_derived_once():
    spec = lin_spec()
    part = build_partition(1.0, 8, [0.5], [1])
    cfg = SolverConfig(samples=100, seed=26)
    lat = solve(spec, part, cfg)
    ref = solve(spec, part, cfg)
    read = []
    derive = ref.stacks
    ref.stacks = lambda family, j=None: read.append(j) or derive(family, j)
    discrete_error(lat, ref)
    # slices 0..n0-1 serve both "at t_j" and, one step later, "just before t_{j+1}"
    assert sorted(read) == sorted(list(range(part.n0)) * 2)


def _assert_same_report(got, want):
    for name in ErrorReport.__dataclass_fields__:
        assert getattr(got, name) == getattr(want, name), name


def _stream_case(name):
    """(spec, partition, config) of a small solve of the named problem."""
    if name == "p2q2d2":
        return _p2q2d2_spec(), build_partition(1.0, 4, [1.0, 0.5], [2, 2]), SolverConfig(
            samples=60, seed=41, M=2
        )
    params = {"value": 3.0, "slope": 1.0} if name == "zero" else {}
    # edge 1 keeps the heat driver's fixed point a contraction at dt = 1/6
    part = build_partition(1.0, 6, [1.0], [2])
    return builtin_problem(name, params), part, SolverConfig(samples=150, seed=42)


@pytest.mark.parametrize("kind", ["analytic", "regression"])
@pytest.mark.parametrize("algorithm", ["one", "two"])
@pytest.mark.parametrize("name", ["zero", "martingale", "linear_scalar", "heat", "p2q2d2"])
def test_streamed_error_equals_stored(name, algorithm, kind, monkeypatch):
    # the criterion fed by the backward march, slice n0 first, against the
    # criterion fed the stored lattice, replayed in the march's order from
    # slice n0-1; 50 chunk entries take a few samples per chunk and leave a
    # partial last chunk
    monkeypatch.setattr(analysis, "_CHUNK_ENTRIES", 50)
    spec, part, config = _stream_case(name)
    config = replace(config, algorithm=algorithm, estimator=EstimatorSpec(kind=kind))
    paths = simulate_increments(part, spec.d, config.samples, config.seed)
    want = discrete_error(analysis.solve(spec, part, config, paths), spec)
    M, restencil, _ = analysis._setup(spec, part, config, paths)
    criterion = analysis._Criterion(spec, part, paths, restencil, M)
    analysis.solve(spec, part, config, paths, observe=criterion.feed)
    _assert_same_report(criterion.report(), want)


def test_solve_with_an_observer_stores_nothing():
    spec, part, config = _stream_case("linear_scalar")
    stored = analysis.solve(spec, part, config)
    seen = []
    streamed = analysis.solve(
        spec, part, config, observe=lambda j, v, vbar: seen.append((j, v, vbar))
    )
    assert streamed.V == {} and streamed.Vbar == {}
    assert [j for j, _, _ in seen] == list(range(part.n0, -1, -1))
    for j, v, vbar in seen:
        for key, arr in stored.stacks(stored.V, j).items():
            assert np.array_equal(v[key], arr)
        for key, arr in stored.stacks(stored.Vbar, j).items():
            assert np.array_equal(vbar[key], arr)


_STORED_LATTICE_READERS = {
    "discrete_error": lambda spec, lat, tmp: discrete_error(lat, spec),
    "export_lattice_csv": lambda spec, lat, tmp: export_lattice_csv(lat, tmp / "v", tmp / "vbar"),
    "increment_regularity": lambda spec, lat, tmp: increment_regularity(lat),
}


@pytest.mark.parametrize("reader", sorted(_STORED_LATTICE_READERS))
def test_streamed_lattice_is_refused_by_every_reader(reader, tmp_path):
    # a solve with an observer stores no slice; a reader of stored slices
    # names that, rather than failing on the first missing key
    spec, part, config = _stream_case("linear_scalar")
    streamed = analysis.solve(spec, part, config, observe=lambda j, v, vbar: None)
    with pytest.raises(InvalidPartitionError, match="observe="):
        _STORED_LATTICE_READERS[reader](spec, streamed, tmp_path)
    assert list(tmp_path.iterdir()) == []  # the export wrote no file


def test_criterion_needs_every_grid_time():
    # the criterion takes slices in the backward march's order n0, ..., 0:
    # a skipped slice or one out of that order is refused at its feed, and a
    # report before slice 0 names the slices still to come
    spec, part, config = _stream_case("linear_scalar")
    lattice = analysis.solve(spec, part, config)
    criterion = analysis._Criterion(spec, part, lattice.paths, lattice.restencil, lattice.M)

    def feed(*slices):
        for j in slices:
            criterion.feed(j, lattice.stacks(lattice.V, j), lattice.stacks(lattice.Vbar, j))

    feed(6, 5, 4)
    with pytest.raises(InvalidPartitionError, match="fed slice 2 where .* has slice 3 next"):
        feed(2)
    feed(3)
    with pytest.raises(InvalidPartitionError, match=r"not fed the slices \[2, 1, 0\]"):
        criterion.report()
    criterion = analysis._Criterion(spec, part, lattice.paths, lattice.restencil, lattice.M)
    with pytest.raises(InvalidPartitionError, match="fed slice 0 where .* has slice 5 next"):
        feed(0)


# ---------------------------------------------------------------------------
# convergence studies
# ---------------------------------------------------------------------------


def test_convergence_slope_linear_scalar():
    fit = convergence_study(lin_spec(), ladder(), SolverConfig(samples=20000, seed=11))
    assert fit.slope is not None
    assert 0.7 <= fit.slope <= 1.3
    totals = [e for _, e in fit.points]
    assert all(a > b for a, b in zip(totals, totals[1:]))


def test_convergence_slope_reproducible_across_seeds():
    slopes = []
    for seed in (11, 12, 13):
        fit = convergence_study(lin_spec(), ladder(), SolverConfig(samples=20000, seed=seed))
        slopes.append(fit.slope)
    assert max(slopes) - min(slopes) < 0.1


def test_convergence_study_frees_a_level_before_the_next(monkeypatch):
    # the previous level's paths (and the criterion holding them) must be
    # dead by the time the next level draws its own
    drawn = []

    def draw(*args):
        assert all(ref() is None for ref in drawn)
        paths = simulate_increments(*args)
        drawn.append(weakref.ref(paths))
        return paths

    monkeypatch.setattr(solver, "simulate_increments", draw)
    convergence_study(lin_spec(), ladder(levels=(4, 8, 16)), SolverConfig(samples=200, seed=1))
    assert len(drawn) == 3


def test_convergence_study_refuses_a_low_order_before_any_draw(monkeypatch):
    # each level draws through the run set-up, which refuses an M below the
    # operators' orders first; watched at both modules' bindings of the draw
    drawn = []

    def draw(*args):
        drawn.append(args)
        return simulate_increments(*args)

    for module in (solver, analysis):
        monkeypatch.setattr(module, "simulate_increments", draw)
    with pytest.raises(InvalidPartitionError, match="below the operators' requirement 2"):
        convergence_study(builtin_problem("heat"), ladder(levels=(4, 8, 16)), SolverConfig(samples=100, M=1))
    assert drawn == []


def test_convergence_degenerate_flag_on_exact_problem():
    spec = builtin_problem("zero", {"value": 1.0})
    fit = convergence_study(spec, ladder(edge=0.1, count=1, levels=(2, 4, 8)),
                            SolverConfig(samples=50, seed=1))
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


def test_convergence_study_frees_each_level_before_the_next_solve(monkeypatch):
    alive_at_start = []
    held = []
    solve = analysis.solve

    def tracking(*args, **kwargs):
        alive_at_start.append([r() is not None for r in held])
        lattice = solve(*args, **kwargs)
        held.append(weakref.ref(lattice))
        return lattice

    monkeypatch.setattr(analysis, "solve", tracking)
    convergence_study(lin_spec(), ladder(levels=(2, 4, 8)), SolverConfig(samples=200, seed=27))
    assert alive_at_start == [[], [False], [False, False]]


@pytest.mark.parametrize("chunk_entries", [50, None])
def test_convergence_study_reports_equal_stored_criteria(chunk_entries, monkeypatch):
    if chunk_entries is not None:
        monkeypatch.setattr(analysis, "_CHUNK_ENTRIES", chunk_entries)
    spec, config = lin_spec(), SolverConfig(samples=500, seed=28)
    parts = ladder(levels=(2, 4, 8))
    fit = convergence_study(spec, parts, config)
    for part, report in zip(parts, fit.reports):
        _assert_same_report(report, discrete_error(analysis.solve(spec, part, config), spec))


def _convergence_study_peak(finest):
    # the paths grow with n0 whatever the criterion does (S*n0*d entries); on
    # 17 grid points a march step's slices outweigh them, while a stored
    # lattice would add 2 x 17 entries per sample and time step
    spec, config = lin_spec(), SolverConfig(samples=2000, seed=40)
    parts = [build_partition(1.0, n0, [0.03], [16]) for n0 in (4, 8, 16, 32) if n0 <= finest]
    tracemalloc.start()
    try:
        convergence_study(spec, parts, config)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_convergence_study_memory_does_not_grow_with_the_finest_level():
    # a stored finest lattice would grow the peak about 1.7-fold
    assert _convergence_study_peak(32) < 1.3 * _convergence_study_peak(16)


@pytest.mark.parametrize("chunk_entries", [50, None])
@pytest.mark.parametrize("name", ["zero", "martingale", "linear_scalar", "heat", "p2q2d2"])
def test_compare_algorithms_equals_stored_criterion(name, chunk_entries, monkeypatch):
    if chunk_entries is not None:
        monkeypatch.setattr(analysis, "_CHUNK_ENTRIES", chunk_entries)
    spec, part, config = _stream_case(name)
    paths = simulate_increments(part, spec.d, config.samples, config.seed)
    one = analysis.solve(spec, part, replace(config, algorithm="one"), paths)
    two = analysis.solve(spec, part, replace(config, algorithm="two"), paths)
    want = discrete_error(one, two)
    got = compare_algorithms(spec, part, config, paths)
    _assert_same_report(got, want)
    if name == "zero":
        assert got.total == 0.0


def test_compare_algorithms_stores_no_lattice(monkeypatch):
    # one algorithm-two solve per comparison, with an observer: algorithm one
    # is stepped inside it, so neither scheme's lattice is stored
    returned = []
    solve = analysis.solve

    def tracking(*args, **kwargs):
        returned.append(solve(*args, **kwargs))
        return returned[-1]

    monkeypatch.setattr(analysis, "solve", tracking)
    part = build_partition(1.0, 6, [0.5], [1])
    compare_algorithms(lin_spec(), part, SolverConfig(samples=200, seed=29))
    assert [lattice.config.algorithm for lattice in returned] == ["two"]
    assert returned[0].V == {} and returned[0].Vbar == {}


def test_compare_algorithms_shares_one_estimator(monkeypatch):
    # algorithm one conditions with algorithm two's estimator: each grid
    # index's basis is built once and each fit index factored once, where an
    # estimator per scheme builds 2 (n0 + 1) bases and makes 2 n0 factors
    built, factored = [], []
    design_matrix, geqrf = stochastics._design_matrix, stochastics.lapack_lite.dgeqrf

    def counting_design(states, exponents, t):
        built.append(t)
        return design_matrix(states, exponents, t)

    def counting_geqrf(m, n, *args):
        if args[-2] != -1:  # not a workspace query
            factored.append((m, n))
        return geqrf(m, n, *args)

    monkeypatch.setattr(stochastics, "_design_matrix", counting_design)
    monkeypatch.setattr(stochastics.lapack_lite, "dgeqrf", counting_geqrf)
    part = build_partition(1.0, 4, [0.5], [1])
    compare_algorithms(lin_spec(), part, SolverConfig(samples=200, seed=29))
    assert sorted(built) == sorted(part.time_points)
    assert factored == [(200, EstimatorSpec().basis_size(1))] * part.n0


def _compare_algorithms_peak(n0):
    # the paths grow with n0 (S*n0*d entries) whatever the comparison holds;
    # on 17 grid points a stored lattice would add 2 x 17 entries per sample
    # and time step, and grow the peak about 1.7-fold from n0 = 16 to 32
    part = build_partition(1.0, n0, [0.03], [16])
    tracemalloc.start()
    try:
        compare_algorithms(lin_spec(), part, SolverConfig(samples=500, seed=30))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_compare_algorithms_memory_does_not_grow_with_the_time_grid():
    assert _compare_algorithms_peak(32) < 1.3 * _compare_algorithms_peak(16)


def test_compare_algorithms_zero_discrepancy_on_exact_fixture():
    spec = builtin_problem("zero", {"value": 4.0})
    part = build_partition(1.0, 4, [1.0], [2])
    report = compare_algorithms(spec, part, SolverConfig(samples=50, seed=9))
    assert report.total == 0.0


def test_reference_step_residual_checks_the_lattice_order():
    # heat's operators need M = 2; a smaller M is refused as solve refuses it
    part = build_partition(1.0, 4, [1.0], [2])
    spec = builtin_problem("heat")
    with pytest.raises(InvalidPartitionError, match="M=0"):
        reference_step_residual(spec, part, SolverConfig(samples=50, M=0))
    with pytest.raises(InvalidPartitionError, match="M=0"):
        analysis.solve(spec, part, SolverConfig(samples=50, M=0))


_ENTRY_POINTS = {
    "solve": analysis.solve,
    "check_representation_identity": check_representation_identity,
    "compare_algorithms": compare_algorithms,
    "convergence_study": lambda spec, part, config: convergence_study(spec, ladder(levels=(4, 8, 16)), config),
    "reference_step_residual": reference_step_residual,
}


@pytest.mark.parametrize("entry", sorted(_ENTRY_POINTS))
def test_every_entry_point_refuses_fewer_samples_than_the_basis(entry):
    # 3 samples cannot fit the degree-3 default basis of 4 functions; the
    # residual once returned a number from the underdetermined fit
    part = build_partition(1.0, 4, [1.0], [2])
    with pytest.raises(InvalidPartitionError, match="basis size 4"):
        _ENTRY_POINTS[entry](lin_spec(), part, SolverConfig(samples=3))


@pytest.mark.parametrize("entry", sorted(_ENTRY_POINTS))
@pytest.mark.parametrize("case", ["grid-of-other-p", "M-below-the-operators"])
def test_every_entry_point_refuses_bad_input_before_any_draw(entry, case, monkeypatch):
    def draw(*args, **kwargs):
        raise AssertionError("paths were drawn")

    monkeypatch.setattr(solver, "simulate_increments", draw)
    part = build_partition(1.0, 4, [1.0], [2])
    if case == "grid-of-other-p":
        spec, config, match = _p2q2d2_spec(), SolverConfig(samples=10), "p=2, the grid p=1"
    else:
        spec, config, match = builtin_problem("heat"), SolverConfig(samples=10, M=1), "M=1 is below"
    with pytest.raises(InvalidPartitionError, match=match):
        _ENTRY_POINTS[entry](spec, part, config)


@pytest.mark.parametrize(
    "entry", ["check_representation_identity", "compare_algorithms", "reference_step_residual", "solve"]
)
def test_every_entry_point_names_paths_of_another_sample_count(entry):
    # compare_algorithms once built its estimator before checking its paths,
    # and refused these as "need samples >= basis size 4"
    part = build_partition(1.0, 4, [1.0], [2])
    paths = simulate_increments(part, 1, 3, seed=0)
    with pytest.raises(InvalidPartitionError, match="paths carry 3 samples, config expects 50"):
        _ENTRY_POINTS[entry](lin_spec(), part, SolverConfig(samples=50), paths=paths)


@pytest.mark.parametrize("j0", [0, -1, 5])
def test_reference_step_residual_refuses_a_j0_that_is_no_backward_step(j0):
    # 0 and -1 once read the terminal slice through negative indices, 5 raised IndexError
    part = build_partition(1.0, 4, [1.0], [2])
    with pytest.raises(InvalidPartitionError, match=rf"j0 = {j0} .* n0 = 4"):
        reference_step_residual(lin_spec(), part, SolverConfig(samples=50, seed=1), j0=j0)


@pytest.mark.parametrize("study", [check_representation_identity, compare_algorithms, reference_step_residual])
def test_path_simulation_respects_the_capacity_budget(study):
    # 100 samples x 4 steps x 1 component = 400 path entries, one over the budget
    part = build_partition(1.0, 4, [0.5], [1])
    with pytest.raises(CapacityError, match=r"S\*n0\*d"):
        study(lin_spec(), part, SolverConfig(samples=100, max_entries=399))


def test_compare_algorithms_discrepancy_shrinks():
    pts = []
    for part in ladder(levels=(4, 8, 16)):
        report = compare_algorithms(lin_spec(), part, SolverConfig(samples=4000, seed=10))
        pts.append((part.mesh_size, report.total))
    slope = fit_loglog(pts)
    assert slope >= 0.7


# ---------------------------------------------------------------------------
# time-increment regularity
# ---------------------------------------------------------------------------


def test_increment_regularity_slope():
    spec = lin_spec()
    part = build_partition(1.0, 16, [0.5], [1])
    lat = solve(spec, part, SolverConfig(samples=5000, seed=13))
    lags, moments, slope = increment_regularity(lat)
    assert len(lags) == 15 * 14 // 2 + 15
    assert slope is not None and slope <= 1.3


def _increment_regularity_oracle(lattice, M):
    """(lags, moments) of increment_regularity, one stack entry at a time."""
    n0, times, S = lattice.partition.n0, lattice.partition.time_points, lattice.sample_count
    V = [lattice.stacks(lattice.V, j) for j in range(n0)]
    lags, moments = [], []
    for j1 in range(n0):
        for j2 in range(j1 + 1, n0):
            worst = None
            for c in range(M + 1):
                for idx in enumerate_multi_indices(c, lattice.spec.p):
                    diff = np.abs(V[j2][(c, idx)] - V[j1][(c, idx)]).reshape(S, -1).max(axis=1)
                    worst = diff if worst is None else np.maximum(worst, diff)
            lags.append(float(times[j2] - times[j1]))
            moments.append(float((worst**2).mean()))
    return np.array(lags), np.array(moments)


@pytest.mark.parametrize("name, M", [("linear_scalar", 0), ("p2q2d2", 2)])
def test_increment_regularity_matches_per_entry_loop(name, M):
    # the criterion's deviation kernel, whose lone scalar entry keeps its
    # sign, gives the per-entry loop's max-abs increments bit for bit
    spec, part, config = _stream_case(name)
    lattice = solve(spec, part, replace(config, M=M))
    lags, moments, _ = increment_regularity(lattice)
    want_lags, want_moments = _increment_regularity_oracle(lattice, M)
    assert np.array_equal(lags, want_lags)
    assert np.array_equal(moments, want_moments)


# ---------------------------------------------------------------------------
# Malliavin subsystem
# ---------------------------------------------------------------------------


def test_malliavin_zero_driver_propagates_terminal_gradient():
    spec = builtin_problem("martingale")
    part = build_partition(1.0, 6, [0.5], [1])
    base = solve(spec, part, SolverConfig(samples=500, seed=15))
    system = build_malliavin_system(base, theta_index=2)
    mall = solve_malliavin_system(system, base)
    x = part.points[..., 0]
    for j in range(2, part.n0 + 1):
        vals = mall.D_V[(0, (0,))][:, j, :, 0, 0]
        assert np.max(np.abs(vals - x[None, :])) < 1e-12


def test_malliavin_zero_block_before_theta():
    spec = lin_spec()
    part = build_partition(1.0, 6, [0.5], [1])
    base = solve(spec, part, SolverConfig(samples=300, seed=16))
    mall = dict(build_malliavin_lattices(base, [3]))
    for key in mall[3].D_V:
        assert np.array_equal(mall[3].D_V[key][:, :3], np.zeros_like(mall[3].D_V[key][:, :3]))
        assert np.array_equal(mall[3].D_Vbar[key][:, :3], np.zeros_like(mall[3].D_Vbar[key][:, :3]))


def test_malliavin_linear_scalar_matches_closed_form():
    spec = lin_spec()
    part = build_partition(1.0, 16, [0.5], [1])
    base = solve(spec, part, SolverConfig(samples=500, seed=17))
    mall = dict(build_malliavin_lattices(base, [0]))
    t = part.time_points
    x = 0.5
    expect = np.exp(1.0 - t) * x
    got = mall[0].D_V[(0, (0,))][0, :, 1, 0, 0]
    assert np.max(np.abs(got - expect) / expect) < 0.05


def test_representation_identity_on_builtins():
    for name in ("martingale", "linear_scalar"):
        spec = builtin_problem(name)
        part = build_partition(1.0, 8, [0.5], [1])
        report = check_representation_identity(spec, part, SolverConfig(samples=1000, seed=18))
        assert report.passed(), (name, report.max_abs_z)
        assert report.max_abs_z == 0.0  # both sides coincide exactly here


def test_malliavin_non_finite_terminal_gradient_raises():
    spec = lin_spec()
    part = build_partition(1.0, 4, [0.5], [1])
    base = solve(spec, part, SolverConfig(samples=100, seed=21))
    system = build_malliavin_system(base, theta_index=0)
    terminal = system.terminal.copy()
    terminal[7, 1, 0, 0] = np.inf
    with pytest.raises(DivergenceError, match="non-finite"):
        solve_malliavin_system(replace(system, terminal=terminal), base)


@pytest.mark.parametrize("name", ["martingale", "linear_scalar"])
def test_terminal_gradient_is_a_writeable_owned_array(name):
    # the problem hands out a read-only broadcast; the Malliavin terminal
    # condition must still be an array of its own
    spec = builtin_problem(name)
    part = build_partition(1.0, 4, [0.5], [1])
    base = solve(spec, part, SolverConfig(samples=30, seed=22))
    assert not spec.terminal_w_gradient(part.points, base.paths.W[:, -1, None, :]).flags.writeable
    grad = analysis._terminal_gradient(base)
    assert grad.shape == (30,) + part.grid_shape + (1, 1)
    assert grad.flags.writeable and grad.flags.owndata
    assert np.array_equal(grad[..., 0, 0], np.broadcast_to(part.points[..., 0], (30,) + part.grid_shape))


def test_malliavin_theta_validation():
    spec = builtin_problem("martingale")
    part = build_partition(1.0, 4, [0.5], [1])
    base = solve(spec, part, SolverConfig(samples=100, seed=20))
    with pytest.raises(InvalidPartitionError):
        build_malliavin_system(base, theta_index=9)


def _moment_z_oracle(lhs, rhs, floor):
    """Per-node moment comparison of two strided sample vectors, as the
    identity check computed it node by node; the jitter scale is floored at
    1e-12 and at floor."""
    S = lhs.shape[0]
    m_l, m_r = float(lhs.mean()), float(rhs.mean())
    v_l = float(lhs.var(ddof=1)) if S > 1 else 0.0
    v_r = float(rhs.var(ddof=1)) if S > 1 else 0.0
    scale = max(abs(m_l), abs(m_r), math.sqrt(v_l), math.sqrt(v_r), 1e-12, floor)
    se_mean = math.sqrt((v_l + v_r) / S)
    dm = m_l - m_r
    if abs(dm) <= 1e-10 * scale:
        z_mean = 0.0
    elif se_mean == 0.0:
        z_mean = math.inf
    else:
        z_mean = dm / se_mean

    def var_se(x, v):
        if S < 2:
            return 0.0
        m4 = float(((x - x.mean()) ** 4).mean())
        return math.sqrt(max(m4 - v**2, 0.0) / S)

    se_var = math.hypot(var_se(lhs, v_l), var_se(rhs, v_r))
    dv = v_l - v_r
    if abs(dv) <= 1e-10 * scale**2:
        z_var = 0.0
    elif se_var == 0.0:
        z_var = math.inf
    else:
        z_var = dv / se_var
    return m_l, m_r, v_l, v_r, max(abs(z_mean), abs(z_var))


def _identity_oracle(spec, base):
    """(rows, max |z|) of the per-node loop over every held per-theta lattice."""
    part, p = base.partition, spec.p
    qd = spec.q * spec.d
    malliavin = dict(build_malliavin_lattices(base))
    coords = part.points.reshape(-1, p)
    rows, worst = [], 0.0
    for j in range(part.n0):
        t = float(part.time_points[j])
        diffusion = evaluate_diffusion_driver(spec, t, part.points, base.stacks(base.V, j))
        J_stack = difference_stack_arrays(
            diffusion, base.M, part, batch_ndim=1,
            paper_literal=base.config.paper_literal_stencil,
        )
        Vbar, D_V = base.stacks(base.Vbar, j), base.stacks(malliavin[j].D_V, j)
        scale0 = {}  # order-zero jitter scale per (grid point, component)
        for c in range(base.M + 1):
            for idx in enumerate_multi_indices(c, p):
                # a difference of multi-index idx divides by prod_l h_l^idx_l
                h_idx = math.prod(h**i for h, i in zip(part.spacings, idx))
                S = Vbar[(c, idx)].shape[0]
                lhs = Vbar[(c, idx)].reshape(S, -1, qd)
                rhs = (D_V[(c, idx)] + J_stack[(c, idx)]).reshape(S, -1, qd)
                for g in range(lhs.shape[1]):
                    for comp in range(qd):
                        floor = scale0[g, comp] / h_idx if c else 0.0
                        *moments, z = _moment_z_oracle(lhs[:, g, comp], rhs[:, g, comp], floor)
                        if c == 0:
                            m_l, m_r, v_l, v_r = moments
                            scale0[g, comp] = max(
                                abs(m_l), abs(m_r), math.sqrt(v_l), math.sqrt(v_r), 1e-12
                            )
                        x = tuple(float(v) for v in coords[g])
                        component = (comp // spec.d, comp % spec.d)
                        rows.append(IdentityRow(t, x, c, idx, component, *moments, z))
                        worst = max(worst, abs(z))
    return rows, worst


def _identity_case(name, S):
    if name == "p2q2d2":
        spec, part, M = _p2q2d2_spec(), build_partition(1.0, 3, [1.0, 0.5], [2, 2]), 2
    elif name == "heat_M2":
        spec, part, M = builtin_problem("heat", {"a": 1.0}), build_partition(1.0, 3, [1.0], [2]), 2
    else:
        spec, part, M = builtin_problem(name), build_partition(1.0, 4, [0.5], [1]), None
    # below the default basis size, the degree-0 basis (the sample mean) still solves
    estimator = EstimatorSpec(degree=3 if S >= 10 else 0)
    config = SolverConfig(samples=S, seed=31, M=M, estimator=estimator)
    return spec, solve(spec, part, config)


@pytest.mark.parametrize("S", [1, 2, 500])
@pytest.mark.parametrize("name", ["martingale", "linear_scalar", "heat_M2", "p2q2d2"])
def test_vectorised_identity_check_matches_per_node_loop(name, S):
    spec, base = _identity_case(name, S)
    rows, worst = _identity_oracle(spec, base)
    report = check_representation_identity(base.spec, base.partition, base.config, base.paths)
    assert len(report.rows) == len(rows)
    for got, want in zip(report.rows, rows):
        for field in IdentityRow.__dataclass_fields__:
            assert getattr(got, field) == getattr(want, field), (field, got, want)
    assert report.max_abs_z == worst


def test_identity_check_stores_no_malliavin_lattice(monkeypatch):
    spec = lin_spec()
    part = build_partition(1.0, 6, [0.5], [1])
    calls = []
    solve_system = analysis.solve_malliavin_system

    def tracking(system, base, **kwargs):
        lattice = solve_system(system, base, **kwargs)
        calls.append((system.theta_index, kwargs.get("observe"), lattice.D_V, lattice.D_Vbar))
        return lattice

    monkeypatch.setattr(analysis, "solve_malliavin_system", tracking)
    check_representation_identity(spec, part, SolverConfig(samples=200, seed=32))
    # each theta = j solve runs when the base march reaches j: in march order
    assert [theta for theta, *_ in calls] == list(range(part.n0 - 1, -1, -1))
    for _, observe, D_V, D_Vbar in calls:
        assert callable(observe)
        assert D_V == {} and D_Vbar == {}


def test_malliavin_stream_rejects_a_theta_off_the_time_grid():
    spec = builtin_problem("martingale")
    base = solve(spec, build_partition(1.0, 4, [0.5], [1]), SolverConfig(samples=50))
    stream = build_malliavin_lattices(base, [0, 9])
    assert next(stream)[0] == 0
    with pytest.raises(InvalidPartitionError, match="outside the time grid"):
        next(stream)


@functools.lru_cache(maxsize=None)
def _identity_check_peak(n0):
    """The traced peak of the check's own march, with its paths drawn before."""
    spec = lin_spec()
    part = build_partition(1.0, n0, [0.5], [1])
    config = SolverConfig(samples=2000, seed=34)
    paths = simulate_increments(part, spec.d, config.samples, config.seed)
    tracemalloc.start()
    try:
        check_representation_identity(spec, part, config, paths)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_identity_check_memory_grows_linearly_in_n0():
    # n0 held per-theta lattices would grow the peak about fourfold
    assert _identity_check_peak(16) < 2.5 * _identity_check_peak(8)


def test_identity_check_memory_is_flat_in_n0():
    # no lattice is stored, base or Malliavin, and the frozen Jacobians are
    # broadcasts, so only per-slice buffers remain: the peak does not grow with n0
    assert _identity_check_peak(32) < 1.3 * _identity_check_peak(8)


def test_identity_check_holds_no_base_lattice():
    # the base march hands each slice to the check and stores none: the
    # check's peak (0.25 of one stored base lattice, order zero of V and Vbar
    # at every grid time) stays far below that lattice, where a solve before
    # the check peaks at 1.17 of it
    spec, part = lin_spec(), build_partition(1.0, 32, [0.5], [1])
    lattice_bytes = 2000 * (part.n0 + 1) * part.num_points * spec.q * (1 + spec.d) * 8
    assert _identity_check_peak(32) < 0.375 * lattice_bytes


@pytest.mark.parametrize("name", ["martingale", "linear_scalar"])
def test_malliavin_solve_with_observer_stores_nothing(name):
    spec = builtin_problem(name)
    part = build_partition(1.0, 5, [1.0], [2])
    base = solve(spec, part, SolverConfig(samples=60, seed=35, M=1))
    system = build_malliavin_system(base, theta_index=2)
    stored = solve_malliavin_system(system, base)
    seen = []
    streamed = solve_malliavin_system(
        system, base, observe=lambda j, u_stack, ubar_stack: seen.append((j, u_stack, ubar_stack))
    )
    assert streamed.D_V == {} and streamed.D_Vbar == {}
    assert [j for j, *_ in seen] == [5, 4, 3, 2]
    for j, u_stack, ubar_stack in seen:
        pairs = ((u_stack, base.stacks(stored.D_V, j)), (ubar_stack, base.stacks(stored.D_Vbar, j)))
        for got, want in pairs:
            assert got.keys() == want.keys()
            for key in want:
                assert np.array_equal(got[key], want[key]), (j, key)


@pytest.mark.parametrize("name", ["zero", "martingale", "linear_scalar", "heat"])
@pytest.mark.parametrize("extra_order", [0, 1])
def test_builtin_analytic_jacobians_are_read_only_broadcasts(name, extra_order):
    spec = builtin_problem(name)
    part = build_partition(1.0, 2, [1.0], [3])
    M = spec.M + extra_order
    rng = np.random.default_rng(36)
    S, G = 4, part.num_points
    v = difference_stack_arrays(rng.standard_normal((S, G, 1)), M, part, batch_ndim=1)
    vbar = difference_stack_arrays(rng.standard_normal((S, G, 1, 1)), M, part, batch_ndim=1)
    jac = operator_jacobians(spec, 0.5, part.points, v, vbar)
    full = OperatorJacobians(
        *({key: np.array(arr) for key, arr in family.items()}
          for family in (jac.dL_dv, jac.dL_dvbar, jac.dJ_dv))
    )
    for family in (jac.dL_dv, jac.dL_dvbar, jac.dJ_dv):
        assert family and not any(arr.flags.writeable for arr in family.values())
    u = difference_stack_arrays(rng.standard_normal((S, G, 1, 1)), M, part, batch_ndim=1)
    ubar = difference_stack_arrays(rng.standard_normal((S, G, 1, 1, 1)), M, part, batch_ndim=1)
    assert np.array_equal(analysis._linear_driver(jac, u, ubar), analysis._linear_driver(full, u, ubar))
    assert np.array_equal(analysis._linear_diffusion(jac, u), analysis._linear_diffusion(full, u))


def test_identity_check_has_no_false_infinite_z_on_derivative_rows():
    # roundoff in the second difference of Vbar (mean -2e-14 against an exact
    # 0, both variances 0) once read as an infinite z
    spec = builtin_problem("martingale")
    part = build_partition(1.0, 8, [1.0], [4])
    report = check_representation_identity(spec, part, SolverConfig(samples=500, seed=42, M=2))
    assert max(abs(row.mean_lhs - row.mean_rhs) for row in report.rows if row.c == 2) > 0
    assert report.max_abs_z == 0


def test_identity_check_runs_when_the_diffusion_reads_more_orders_than_the_driver():
    # k = m = 0 but n = 1: the frozen diffusion Jacobian once received only
    # the driver's orders, and the check raised KeyError (1, (1,))
    spec = ProblemSpec(
        name="gradient_diffusion", p=1, q=1, d=1, k=0, m=0, n=1,
        driver=lambda t, x, v, vbar: 0.0 * v[(0, (0,))],
        diffusion=lambda t, x, v: 0.1 * v[(1, (1,))][..., None],
        terminal=lambda x, w: x[..., 0:1] * w[..., 0:1],
    )
    part = build_partition(1.0, 4, [1.0], [4])
    base = solve(spec, part, SolverConfig(samples=200, seed=0))
    report = check_representation_identity(base.spec, base.partition, base.config, base.paths)
    assert len(report.rows) == part.n0 * part.num_points * (spec.M + 1)
    assert report.max_abs_z == 0
    v, vbar = base.stacks(base.V, 0), base.stacks(base.Vbar, 0)
    jac = operator_jacobians(spec, 0.0, part.points, v, vbar)
    assert sorted(c for c, _ in jac.dJ_dv) == [0, 1]
    assert sorted(c for c, _ in jac.dL_dv) == sorted(c for c, _ in jac.dL_dvbar) == [0]


def test_moment_z_floor_forgives_jitter_but_not_a_real_gap():
    exact, jitter, gap = (0.0, 0.0, 0.0), (-2e-14, 0.0, 0.0), (0.1, 0.0, 0.0)
    assert analysis._moment_z(500, jitter, exact, floor=0.0) == math.inf
    assert analysis._moment_z(500, jitter, exact, floor=4.0) == 0.0
    assert analysis._moment_z(500, gap, exact, floor=4.0) == math.inf
