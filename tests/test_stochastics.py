import math
import tracemalloc

import numpy as np
import pytest
from numpy.polynomial.hermite_e import hermeval

from bspde import (
    CapacityError,
    EstimatorSpec,
    InvalidPartitionError,
    SingularDesignError,
    SolverConfig,
    build_partition,
    builtin_problem,
    condexp_nested,
    permute_future_increments,
    simulate_increments,
    solve,
    stochastics,
)
from bspde.model import zero_key
from bspde.stochastics import (
    BrownianPaths,
    ConditionalEstimator,
    _design_matrix,
    monomial_exponents,
)


def one_step_partition(T=1.0):
    return build_partition(T, 1, [1.0], [1])


def test_paths_shapes_and_start_at_zero():
    part = build_partition(1.0, 4, [1.0], [2])
    paths = simulate_increments(part, 2, 100, seed=1)
    assert np.diff(paths.W, axis=1).shape == (100, 4, 2)
    assert paths.W.shape == (100, 5, 2)
    assert np.array_equal(paths.W[:, 0, :], np.zeros((100, 2)))
    assert np.allclose(paths.W[:, -1, :], np.diff(paths.W, axis=1).sum(axis=1))


def test_paths_deterministic_regeneration():
    part = build_partition(1.0, 8, [1.0], [2])
    a = simulate_increments(part, 1, 500, seed=42)
    b = simulate_increments(part, 1, 500, seed=42)
    assert np.array_equal(np.diff(a.W, axis=1), np.diff(b.W, axis=1))
    c = simulate_increments(part, 1, 500, seed=43)
    assert not np.array_equal(np.diff(a.W, axis=1), np.diff(c.W, axis=1))


def test_paths_moments_at_five_sigma():
    part = one_step_partition()
    S = 100_000
    dw = np.diff(simulate_increments(part, 1, S, seed=42).W, axis=1)[:, 0, 0]
    assert abs(dw.mean()) < 5.0 / math.sqrt(S)
    assert abs(dw.var(ddof=1) - 1.0) < 5.0 * math.sqrt(2.0 / (S - 1))


def test_paths_hold_no_transient_beside_the_returned_arrays():
    # the Gaussians are scaled in place into the increments, and the uniforms
    # are freed before W is allocated: the peak is W and the increments it sums
    part = build_partition(1.0, 32, [1.0], [1])
    tracemalloc.start()
    try:
        paths = simulate_increments(part, 1, 20_000, seed=42)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * (paths.W.nbytes + 20_000 * 32 * 1 * 8)


def test_paths_hold_w_only():
    # the increments are dropped on return: what stays allocated is W
    part = build_partition(1.0, 32, [1.0], [1])
    tracemalloc.start()
    try:
        paths = simulate_increments(part, 1, 20_000, seed=42)
        current = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert current <= 1.05 * paths.W.nbytes


def test_paths_capacity_budget():
    part = build_partition(1.0, 4, [1.0], [2])
    with pytest.raises(CapacityError):
        simulate_increments(part, 1, 10_000, seed=0, max_entries=1000)


def test_paths_invalid_args():
    part = one_step_partition()
    with pytest.raises(InvalidPartitionError):
        simulate_increments(part, 0, 10, seed=0)
    with pytest.raises(InvalidPartitionError):
        simulate_increments(part, 1, 0, seed=0)


# ---------------------------------------------------------------------------
# inverse normal CDF (Cephes ndtri, the algorithm scipy ships)
# ---------------------------------------------------------------------------
_EXPM2 = 0.13533528323661269189  # Cephes' e^-2, the central branch's edge
_BLOCK = stochastics._NDTRI_BLOCK


def _uniforms(n, seed=42):
    u = np.random.Generator(np.random.Philox(key=seed)).random(n)
    return np.maximum(u, 2.0**-54)


def _branch_edges():
    # e^-2 and 1 - e^-2 bound the central branch; x = sqrt(-2 log y) is 8.0
    # exactly at e^-32 and its neighbours, and below 8 from e^-32 (1 + 1e-14);
    # 2^-54 is the lifted u = 0 and 1 - 2^-53 the largest uniform
    edges = [_EXPM2, 1.0 - _EXPM2, math.exp(-32.0)]
    neighbours = [np.nextafter(e, toward) for e in edges for toward in (0.0, 1.0)]
    more = [math.exp(-32.0) * (1.0 + 1e-14), 2.0**-54, 1.0 - 2.0**-53, 0.5, np.nextafter(0.5, 0.0)]
    return np.array(edges + neighbours + more)


def test_ndtri_port_equals_scipy_bitwise_in_the_centre_and_to_1e_15_in_the_tails():
    special = pytest.importorskip("scipy.special")
    u = np.concatenate([_uniforms(200_000), _branch_edges()])
    got, want = stochastics._ndtri(u), special.ndtri(u)
    central = (u > _EXPM2) & (u <= 1.0 - _EXPM2)
    assert np.array_equal(got[central], want[central])
    # only numpy's SIMD log can round a tail value apart from libm's
    assert np.all(np.abs(got - want) <= 1e-15 * np.abs(want))
    assert np.mean(got == want) > 0.999


def test_ndtri_port_takes_cephes_branches_at_their_edges(monkeypatch):
    # with P0 = 0 the central branch gives s2pi (u - 1/2) exactly, and with
    # P2 = 0 only the far tail (x >= 8) moves: to x - log(x) / x
    u = _branch_edges()
    y = np.minimum(u, 1.0 - u)
    x = np.sqrt(-2.0 * np.log(y))
    far = x >= 8.0
    assert far.sum() == 5 and np.sum(x == 8.0) == 3
    before = stochastics._ndtri(u)
    monkeypatch.setattr(stochastics, "_P0", (0.0,) * len(stochastics._P0))
    monkeypatch.setattr(stochastics, "_P2", (0.0,) * len(stochastics._P2))
    after = stochastics._ndtri(u)
    central = (u > _EXPM2) & (u <= 1.0 - _EXPM2)
    assert central.sum() == 5
    assert np.array_equal(after == stochastics._S2PI * (u - 0.5), central)
    assert np.array_equal((after != before)[~central], far[~central])
    assert np.all(np.sign(before) == np.sign(u - 0.5))


@pytest.mark.parametrize("shape", [(_BLOCK + 3,), (3, _BLOCK // 2 + 1, 2)])
def test_ndtri_port_across_a_block_boundary(shape):
    # each block's buffers are reused: a value must not depend on its block,
    # and the tail values of one block must not leak into the next
    special = pytest.importorskip("scipy.special")
    u = _uniforms(math.prod(shape)).reshape(shape)
    u.reshape(-1)[_BLOCK - 2 : _BLOCK + 2] = [1e-3, 0.4, 1.0 - 1e-3, 0.6]
    got, want = stochastics._ndtri(u), special.ndtri(u)
    assert got.shape == shape
    assert np.all(np.abs(got - want) <= 1e-15 * np.abs(want))
    rest = u.reshape(-1)[_BLOCK - 2 :]
    assert np.array_equal(stochastics._ndtri(rest), got.reshape(-1)[_BLOCK - 2 :])


# ---------------------------------------------------------------------------
# regression estimator
# ---------------------------------------------------------------------------


def two_step_paths(S, seed=0):
    # uniform two-step grid puts W(1/2), W(1) at indices 1, 2
    paths = simulate_increments(build_partition(1.0, 2, [1.0], [1]), 1, S, seed)
    return paths, paths.W[:, 1, 0], paths.W[:, 2, 0]


def regression(paths, degree, ridge=None):
    # cond_mean(targets, j0) projects on polynomials of W(t_{j0-1})
    spec = EstimatorSpec(kind="regression", degree=degree, ridge=ridge)
    return ConditionalEstimator(spec, paths)


def test_regression_recovers_martingale_projection():
    paths, w1, w2 = two_step_paths(40_000, seed=3)
    fitted = regression(paths, 1).cond_mean(w2, 2)
    assert np.max(np.abs(fitted - w1)) < 0.1
    assert abs(np.mean(fitted - w1)) < 0.02


def test_regression_constant_targets():
    paths, w1, _ = two_step_paths(5000, seed=4)
    targets = np.full_like(w1, 3.7)
    for ridge in (0.0, None):
        assert np.array_equal(regression(paths, 3, ridge).cond_mean(targets, 2), targets)
    # the default ridge (1e-8 * S) is applied, and shrinks at that scale
    exact = regression(paths, 2, 0.0).cond_mean(w1**2, 2)
    shrunk = regression(paths, 2).cond_mean(w1**2, 2)
    assert not np.array_equal(shrunk, exact)
    assert np.max(np.abs(shrunk - exact)) < 1e-5


def test_regression_in_span_reproduction():
    paths, w1, _ = two_step_paths(5000, seed=5)
    targets = w1**2
    fitted = regression(paths, 2, 0.0).cond_mean(targets, 2)
    assert np.max(np.abs(fitted - targets)) < 1e-8


def test_regression_singular_design_advises_ridge():
    # two distinct state values cannot support a quadratic basis
    w = np.zeros((100, 3, 1))
    w[:, 1, 0] = np.tile([0.0, 1.0], 50)
    paths = BrownianPaths(
        partition=build_partition(1.0, 2, [1.0], [1]), d=1, seed=0, W=w,
    )
    targets = np.arange(100.0)
    with pytest.raises(SingularDesignError, match="ridge"):
        regression(paths, 2, 0.0).cond_mean(targets, 2)
    fitted = regression(paths, 2).cond_mean(targets, 2)
    assert fitted.shape == targets.shape


def test_projection_idempotence():
    paths, _, w2 = two_step_paths(5000, seed=6)
    est = regression(paths, 3, 0.0)
    once = est.cond_mean(w2**2, 2)
    twice = est.cond_mean(once, 2)
    assert np.max(np.abs(twice - once)) < 1e-10


def test_tower_property_in_mean():
    # projecting in two stages agrees with one stage; the sample means agree
    # exactly because regression residuals are orthogonal to the intercept
    part = build_partition(1.0, 3, [1.0], [1])
    paths = simulate_increments(part, 1, 30_000, seed=7)
    w3 = paths.W[:, 3, 0]
    est = regression(paths, 2, 0.0)
    stage2 = est.cond_mean(w3**2, 3)
    twice = est.cond_mean(stage2, 2)
    once = est.cond_mean(w3**2, 2)
    diff = twice - once
    assert abs(diff.mean()) < 1e-10
    z = diff.mean() / (diff.std(ddof=1) / math.sqrt(diff.size) + 1e-300)
    assert abs(z) < 3.0


# ---------------------------------------------------------------------------
# nested oracle
# ---------------------------------------------------------------------------


def test_nested_martingale_property():
    states = np.linspace(-2, 2, 41)
    est, se = condexp_nested(
        lambda w: w[..., 0], states, variance=0.5, inner_count=4000, seed=11,
    )
    assert np.max(np.abs(est - states)) < 5.0 * np.max(se) + 1e-12


def test_nested_second_moment_identity():
    # E[W(T)^2 | W(t)=w] = w^2 + (T - t)
    states = np.linspace(-1.5, 1.5, 31)
    var = 0.75
    est, _ = condexp_nested(lambda w: w[..., 0] ** 2, states, var, inner_count=20_000, seed=12)
    expected = states**2 + var
    assert np.max(np.abs(est - expected)) < 0.1


def test_nested_deterministic_functional_zero_variance():
    states = np.zeros(5)
    est, se = condexp_nested(
        lambda w: np.full(w.shape[:-1], 2.5), states, 1.0, inner_count=100, seed=13,
    )
    assert np.array_equal(est, np.full(5, 2.5))
    assert np.array_equal(se, np.zeros(5))


def test_nested_capacity_and_validation():
    with pytest.raises(CapacityError):
        condexp_nested(lambda w: w[..., 0], np.zeros(100), 1.0, 10_000, 0, max_entries=10)
    with pytest.raises(InvalidPartitionError):
        condexp_nested(lambda w: w[..., 0], np.zeros(10), 1.0, 0, 0)


@pytest.mark.parametrize("variance", [-1.0, math.nan, math.inf, "0.5"])
def test_nested_refuses_a_negative_or_non_finite_variance(variance):
    # a negative variance has no square root, and a non-finite one makes every estimate NaN
    with pytest.raises(InvalidPartitionError, match="variance"):
        condexp_nested(lambda w: w[..., 0], np.zeros(10), variance, 10, 0)


def test_oracle_consistency_regression_vs_nested():
    # polynomial targets of the next state: regression with enough degree
    # agrees with brute-force branching within combined Monte Carlo error
    part = build_partition(1.0, 2, [1.0], [1])
    S = 50_000
    paths = simulate_increments(part, 1, S, seed=21)
    w1, w2 = paths.W[:, 1, 0], paths.W[:, 2, 0]
    targets = 0.3 * w2**2 - 1.2 * w2 + 0.5
    fitted = regression(paths, 3).cond_mean(targets, 2)
    probes = slice(0, 64)
    nested, se = condexp_nested(
        lambda w: 0.3 * w[..., 0] ** 2 - 1.2 * w[..., 0] + 0.5,
        w1[probes], variance=0.5, inner_count=20_000, seed=22,
    )
    diff = fitted[probes] - nested
    combined = np.sqrt(se**2 + (np.std(diff, ddof=1) / math.sqrt(diff.size)) ** 2)
    z = np.abs(diff.mean()) / max(np.mean(combined), 1e-12)
    assert z < 3.0


# ---------------------------------------------------------------------------
# solver-facing estimator engine
# ---------------------------------------------------------------------------


def test_analytic_estimator_exact_gaussian_identities():
    part = build_partition(1.0, 4, [1.0], [1])
    paths = simulate_increments(part, 1, 4000, seed=31)
    est = ConditionalEstimator(EstimatorSpec(kind="analytic", degree=3), paths)
    j0 = 3
    w_prev = paths.W[:, j0 - 1, 0]
    w_next = paths.W[:, j0, 0]
    dt = float(part.time_increments[j0 - 1])
    # E[W(t_j0) | F] = W(t_{j0-1}), exactly, because the target is in span
    out = est.cond_mean(w_next[:, None], j0)[:, 0]
    assert np.max(np.abs(out - w_prev)) < 1e-12
    # E[W(t_j0)^2 | F] = W^2 + dt
    out = est.cond_mean((w_next**2)[:, None], j0)[:, 0]
    assert np.max(np.abs(out - (w_prev**2 + dt))) < 1e-11
    # E[W(t_j0) dW | F] = dt
    out = est.cond_mean_times_dw(w_next[:, None], j0)[:, 0, 0]
    assert np.max(np.abs(out - dt)) < 1e-12
    # constants short-circuit to exact values
    const = np.full((4000, 1), 2.5)
    assert np.array_equal(est.cond_mean(const, j0), const)
    assert np.array_equal(est.cond_mean_times_dw(const, j0), np.zeros((4000, 1, 1)))


from hypothesis import given, settings
from hypothesis import strategies as st


@settings(max_examples=20, deadline=None)
@given(
    c0=st.floats(-2, 2), c1=st.floats(-2, 2),
    c2=st.floats(-2, 2), c3=st.floats(-2, 2),
)
def test_analytic_estimator_matches_hand_gaussian_identities(c0, c1, c2, c3):
    # independent oracle: E[(w+Z)^k] for Z ~ N(0, dt) expanded by hand up to
    # cubic order, against the estimator's Hermite coefficients
    part = build_partition(1.0, 2, [1.0], [1])
    paths = simulate_increments(part, 1, 2000, seed=41)
    est = ConditionalEstimator(EstimatorSpec(kind="analytic", degree=3), paths)
    w_prev, w_next = paths.W[:, 1, 0], paths.W[:, 2, 0]
    dt = 0.5
    target = c0 + c1 * w_next + c2 * w_next**2 + c3 * w_next**3
    got = est.cond_mean(target[:, None], 2)[:, 0]
    expected = (
        c0 + c1 * w_prev + c2 * (w_prev**2 + dt) + c3 * (w_prev**3 + 3 * dt * w_prev)
    )
    scale = 1.0 + np.max(np.abs(expected))
    assert np.max(np.abs(got - expected)) < 1e-9 * scale
    got_dw = est.cond_mean_times_dw(target[:, None], 2)[:, 0, 0]
    expected_dw = dt * (c1 + 2 * c2 * w_prev + 3 * c3 * (w_prev**2 + dt))
    assert np.max(np.abs(got_dw - expected_dw)) < 1e-9 * scale


def _march_targets(paths, j0):
    """Three (S, 2, 3) targets at W(t_j0), d = 2: two with constant columns,
    one with none."""
    w0, w1 = paths.W[:, j0, 0], paths.W[:, j0, 1]
    ones = np.ones_like(w0)
    cols = [
        [w0 * w1 + j0, 1.5 * ones, w0**2, -2.0 * ones, np.sin(w1), w0 - w1],
        [np.exp(w0), 0.0 * ones, w1**3, w0 * w1**2, 3.0 * ones, w1],
        [w0 + 0.5, w0, w1 * j0, w1**2 - w0, w0 * w1, np.cos(w0)],
    ]
    return [np.stack(c, axis=1).reshape(-1, 2, 3) for c in cols]


@pytest.mark.parametrize("kind", ["analytic", "regression"])
def test_shared_basis_matches_fresh_estimator_per_call(kind):
    # one estimator driven in a backward march order (each index is the apply
    # basis of one step and the fit basis of the next) against a fresh
    # estimator per call: results and coefficient records must be identical
    part = build_partition(1.0, 4, [1.0], [1])
    paths = simulate_increments(part, 2, 400, seed=17)
    spec = EstimatorSpec(kind=kind, degree=2)
    shared = ConditionalEstimator(spec, paths, record_coefficients=True)
    fresh_records = []
    for j0 in range(part.n0, 0, -1):
        mean_t, v_t, l_t = _march_targets(paths, j0)
        for method, target in (
            ("cond_mean", mean_t), ("cond_mean_times_dw", v_t), ("cond_mean_times_dw", l_t)
        ):
            fresh = ConditionalEstimator(spec, paths, record_coefficients=True)
            got = getattr(shared, method)(target, j0)
            assert np.array_equal(got, getattr(fresh, method)(target, j0))
            fresh_records += fresh.records
            j, phi = shared._basis_slot
            want = _design_matrix(paths.W[:, j, :], shared.exponents, part.time_points[j])
            assert np.array_equal(phi, want)
        # the apply index is held; the analytic kind holds its fit index's factor
        assert shared._basis_slot[0] == j0 - 1
        assert shared._factor_slot[0] == (j0 if kind == "analytic" else None)
    assert shared.records == fresh_records
    # the shared basis is read-only
    phi = shared._basis(1)
    assert not phi.flags.writeable
    with pytest.raises(ValueError):
        phi[0, 0] = 1.0


def _pow_design_matrix(states, exponents):
    # the libm-pow monomial basis, which the Hermite basis equals at t = 0
    return np.prod(states[:, None, :] ** exponents[None, :, :], axis=2)


def _gaussian_moment(k, var):
    """E[Z^k] for Z ~ N(0, var)."""
    if k % 2 == 1:
        return 0.0
    return var ** (k // 2) * math.prod(range(1, k, 2)) if k else 1.0


def _transfer_matrix(exponents, var, extra):
    """T with E[m_alpha(w+Z) * Z^extra] = sum_beta T[beta, alpha] * m_beta(w)
    for monomials m: the binomial expansion of (w+Z)^alpha against independent
    N(0, var) components, an oracle independent of the Hermite basis."""
    B = exponents.shape[0]
    T = np.zeros((B, B))
    index_of = {tuple(row): i for i, row in enumerate(exponents)}
    for a_i, alpha in enumerate(exponents):
        for beta in np.ndindex(*(alpha + 1)):
            coeff = 1.0
            for l in range(len(alpha)):
                coeff *= math.comb(int(alpha[l]), int(beta[l]))
                coeff *= _gaussian_moment(int(alpha[l] - beta[l] + extra[l]), var)
            T[index_of[tuple(beta)], a_i] += coeff
    return T


def _monomial_condexp(exponents, w_next, w_prev, targets, var, extra):
    """E[targets * dW^extra | W(t_prev)] through a monomial least-squares fit
    in W(t_next) and the Gaussian transfer matrix."""
    coef = np.linalg.lstsq(_pow_design_matrix(w_next, exponents), targets, rcond=None)[0]
    return _pow_design_matrix(w_prev, exponents) @ (_transfer_matrix(exponents, var, extra) @ coef)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("degree", [0, 1, 3, 5])
def test_design_matrix_matches_pow_build(d, degree):
    paths = simulate_increments(build_partition(1.0, 4, [1.0], [1]), d, 2000, seed=23)
    states = paths.W[:, 3, :]  # a strided view, as the estimator passes it
    assert not states.flags.c_contiguous
    exps = monomial_exponents(degree, d)
    phi = _design_matrix(states, exps, 0.0)
    oracle = _pow_design_matrix(states, exps)
    assert phi.shape == oracle.shape == (2000, math.comb(degree + d, d))
    for b, row in enumerate(exps):
        if row.sum() == 0:
            assert np.array_equal(phi[:, b], np.ones(2000))
        elif row.sum() == 1:
            assert np.array_equal(phi[:, b], states[:, np.argmax(row)])
    # at t = 0, column b is the monomial of row b, within a few ulp of pow
    assert np.all(np.abs(phi - oracle) <= 1e-14 * np.abs(oracle))


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("degree", [0, 1, 2, 3, 4, 5])
def test_design_matrix_matches_hermeval(d, degree):
    # He_n(x, t) = t^(n/2) He_n(x / sqrt(t)), with numpy's probabilists' He_n
    part = build_partition(1.0, 4, [1.0], [1])
    paths = simulate_increments(part, d, 2000, seed=23)
    t = float(part.time_points[3])
    states = paths.W[:, 3, :]
    exps = monomial_exponents(degree, d)
    phi = _design_matrix(states, exps, t)
    oracle = np.ones(phi.shape)
    for b, row in enumerate(exps):
        for i, n in enumerate(row):
            oracle[:, b] *= t ** (n / 2) * hermeval(states[:, i] / math.sqrt(t), np.eye(n + 1)[n])
        if row.sum() == 1:  # x exactly
            assert np.array_equal(phi[:, b], states[:, np.argmax(row)])
    assert np.all(np.abs(phi - oracle) <= 1e-13 * np.max(np.abs(oracle), axis=0))


def test_design_matrix_degree_zero_and_zero_states():
    states = np.zeros((5, 2))
    for t in (0.0, 0.5):
        assert np.array_equal(_design_matrix(states, monomial_exponents(0, 2), t), np.ones((5, 1)))
    phi = _design_matrix(states, monomial_exponents(2, 2), 0.0)
    assert np.array_equal(phi, _pow_design_matrix(states, monomial_exponents(2, 2)))
    # He_2(0, t) = -t, so the rows are [1, 0, 0, -t, 0, -t] in exponent order
    phi = _design_matrix(states, monomial_exponents(2, 2), 0.5)
    assert np.array_equal(phi, np.tile([1.0, 0.0, 0.0, -0.5, 0.0, -0.5], (5, 1)))


def test_column_equal_in_first_rows_is_still_fitted():
    # the constant-column screen looks at two rows first; a column that only
    # varies further down must still be fitted, not copied from row 0
    part = build_partition(1.0, 2, [1.0], [1])
    paths = simulate_increments(part, 1, 300, seed=8)
    est = ConditionalEstimator(EstimatorSpec(kind="analytic", degree=3), paths)
    target = paths.W[:, 2, 0] ** 2
    target[1] = target[0]
    targets = np.stack([target, np.full_like(target, 2.0)], axis=1)
    got = est.cond_mean(targets, 2)
    # the estimator's factored fit of every column: lstsq on R of phi = Q R,
    # with phi's cutoff, and one product over both columns, applied unchanged
    # on the Hermite basis at the previous time
    q, r = np.linalg.qr(_design_matrix(paths.W[:, 2, :], est.exponents, 1.0))
    coef = np.linalg.lstsq(r, q.T @ targets, rcond=np.finfo(float).eps * 300)[0]
    expected = _design_matrix(paths.W[:, 1, :], est.exponents, 0.5) @ coef
    assert np.array_equal(got[:, 0], expected[:, 0])
    assert np.array_equal(got[:, 1], np.full_like(target, 2.0))
    # and the independent monomial oracle
    w_next, w_prev = paths.W[:, 2, :], paths.W[:, 1, :]
    oracle = _monomial_condexp(est.exponents, w_next, w_prev, target, 0.5, np.zeros(1, dtype=int))
    assert np.max(np.abs(got[:, 0] - oracle)) <= 1e-12 * np.max(np.abs(oracle))


def _targets(paths, j0, with_constant):
    """(S, 3, 2) targets at W(t_j0): smooth, polynomial and, optionally,
    constant columns (2.5 at [0, 1], zero at [2, 0]), which are fitted with
    the rest and then overwritten."""
    w = paths.W[:, j0, :]
    s = w.sum(axis=1)
    cols = [np.sin(s), s**2 - w[:, 0], np.exp(0.3 * w[:, -1]), w[:, 0] * s, np.cos(s), s + 1.0]
    if with_constant:
        cols[1] = np.full_like(s, 2.5)
        cols[4] = np.zeros_like(s)
    return np.stack(cols, axis=1).reshape(-1, 3, 2)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("with_constant", [False, True])
def test_factored_fit_matches_full_lstsq(d, with_constant):
    part = build_partition(1.0, 2, [1.0], [1])
    paths = simulate_increments(part, d, 3000, seed=29)
    est = ConditionalEstimator(EstimatorSpec(kind="analytic", degree=3), paths)
    targets = _targets(paths, 2, with_constant)
    flat = targets.reshape(3000, -1)
    phi = _design_matrix(paths.W[:, 2, :], est.exponents, 1.0)
    full = np.linalg.lstsq(phi, flat, rcond=None)[0]
    coef = est._analytic_fit(flat, 2, "mean", None)
    assert np.max(np.abs(coef - full)) <= 1e-12 * max(1.0, np.max(np.abs(full)))
    fitted = phi @ coef
    assert np.max(np.abs(fitted - phi @ full)) <= 1e-12 * np.max(np.abs(flat))
    # the conditional mean through the monomial oracle, to the same tolerance
    w_next, w_prev = paths.W[:, 2, :], paths.W[:, 1, :]
    want = _monomial_condexp(est.exponents, w_next, w_prev, flat, 0.5, np.zeros(d, dtype=int))
    want = want.reshape(targets.shape)
    assert np.max(np.abs(est.cond_mean(targets, 2) - want)) <= 1e-12 * np.max(np.abs(want))


def _two_valued_paths(S=200):
    # W(t_2) takes two values, so the degree-3 basis there has rank 2
    w = np.zeros((S, 3, 1))
    w[:, 1, 0] = 0.4
    w[:, 2, 0] = np.where(np.arange(S) % 2 == 0, -0.7, 1.3)
    return BrownianPaths(partition=build_partition(1.0, 2, [1.0], [1]), d=1, seed=0, W=w)


@pytest.mark.parametrize("d", [1, 2, 3, "rank 2"])
def test_factor_is_numpy_qr_bit_for_bit(d):
    # the in-place LAPACK factor against np.linalg.qr of the same basis, at
    # both fit indices: Q C-ordered and ==, R ==, and the second factor
    # written into the first's buffer
    paths = _two_valued_paths() if d == "rank 2" else simulate_increments(
        build_partition(1.0, 2, [1.0], [1]), d, 500, seed=37
    )
    est = ConditionalEstimator(EstimatorSpec(kind="analytic", degree=3), paths)
    held = None
    for j in (2, 1):
        want_q, want_r = np.linalg.qr(_design_matrix(paths.W[:, j, :], est.exponents, j / 2))
        q, r = est._factor(j)
        assert q.flags.c_contiguous and np.array_equal(q, want_q) and np.array_equal(r, want_r)
        assert held is None or q is held
        held = q


@pytest.mark.parametrize("routine", ["dgeqrf", "dorgqr"])
def test_factor_raises_on_lapack_error(monkeypatch, routine):
    monkeypatch.setattr(stochastics.lapack_lite, routine, lambda *args: {"info": -4})
    paths = simulate_increments(build_partition(1.0, 2, [1.0], [1]), 1, 50, seed=37)
    est = ConditionalEstimator(EstimatorSpec(kind="analytic", degree=3), paths)
    with pytest.raises(np.linalg.LinAlgError, match="info=-4"):
        est._factor(2)


def test_factored_fit_rank_deficient_gives_minimum_norm():
    # states with two distinct values: the degree-3 basis has rank 2, and
    # the fit must return lstsq's minimum-norm coefficients, not any solution
    paths = _two_valued_paths()
    S, w = paths.sample_count, paths.W
    est = ConditionalEstimator(EstimatorSpec(kind="analytic", degree=3), paths)
    y = np.stack([np.where(w[:, 2, 0] < 0, 2.0, -1.0) + 0.1 * np.arange(S) / S, w[:, 2, 0]], axis=1)
    phi = _design_matrix(w[:, 2, :], est.exponents, 1.0)
    assert np.linalg.matrix_rank(phi) == 2
    coef = est._analytic_fit(y, 2, "mean", None)
    min_norm = np.linalg.pinv(phi) @ y
    assert np.max(np.abs(coef - min_norm)) <= 1e-12 * np.max(np.abs(min_norm))
    assert np.max(np.abs(coef - np.linalg.lstsq(phi, y, rcond=None)[0])) <= 1e-12 * np.max(np.abs(min_norm))


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("with_constant", [False, True])
def test_times_dw_matches_per_component_oracle(d, with_constant):
    # the estimator applies all d components in one product over G*d columns;
    # the oracle applies each component on its own, so a wrong interleave of
    # the (G, d) output fails here
    part = build_partition(1.0, 2, [1.0], [1])
    paths = simulate_increments(part, d, 3000, seed=31)
    est = ConditionalEstimator(EstimatorSpec(kind="analytic", degree=3), paths)
    targets = _targets(paths, 2, with_constant)
    got = est.cond_mean_times_dw(targets, 2)
    assert got.shape == targets.shape + (d,)
    flat = targets.reshape(3000, -1)
    w_next, w_prev = paths.W[:, 2, :], paths.W[:, 1, :]
    var = float(part.time_increments[1])
    for i in range(d):
        want = _monomial_condexp(est.exponents, w_next, w_prev, flat, var, np.eye(d, dtype=int)[i])
        want = want.reshape(targets.shape)
        assert np.max(np.abs(got[..., i] - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))
    if with_constant:
        for kind in ("analytic", "regression"):
            est = ConditionalEstimator(EstimatorSpec(kind=kind, degree=3), paths)
            dw = est.cond_mean_times_dw(targets, 2)
            assert np.array_equal(dw[:, 0, 1], np.zeros((3000, d)))
            assert np.array_equal(dw[:, 2, 0], np.zeros((3000, d)))
            mean = est.cond_mean(targets, 2)
            assert np.array_equal(mean[:, 0, 1], np.full(3000, 2.5))
            assert np.array_equal(mean[:, 2, 0], np.zeros(3000))


def test_regression_first_step_is_the_sample_mean():
    # at j0 = 1 every state is W(0) = 0: the regression kind's projection is
    # the sample mean, applied as the coefficient of He_0 = 1
    part = build_partition(1.0, 2, [1.0], [1])
    paths = simulate_increments(part, 2, 500, seed=41)
    est = ConditionalEstimator(EstimatorSpec(kind="regression"), paths, record_coefficients=True)
    w = paths.W[:, 1, :]
    targets = np.stack([np.sin(w[:, 0]), np.full(500, 3.0), w[:, 0] * w[:, 1]], axis=1)
    mean = est.cond_mean(targets, 1)
    assert np.array_equal(mean, np.broadcast_to(targets.mean(axis=0), targets.shape))
    dw = est.cond_mean_times_dw(targets, 1)
    for i in range(2):
        want = (targets * np.diff(paths.W, axis=1)[:, 0, i : i + 1]).mean(axis=0)
        want[1] = 0.0
        assert np.array_equal(dw[..., i], np.broadcast_to(want, targets.shape))
    assert est.records == []  # no fit, no coefficients


def test_regression_dw_moment_reads_the_increment_of_w():
    # W(t_1) = 0.4 on every path: at j0 = 2 the projection is again the sample
    # mean, and the dW moment must use W(t_2) - W(t_1), not W(t_2)
    part = build_partition(1.0, 2, [1.0], [1])
    S = 400
    w = np.zeros((S, 3, 2))
    w[:, 1] = 0.4
    w[:, 2] = 0.4 + np.random.default_rng(3).normal(0.0, math.sqrt(0.5), (S, 2))
    paths = BrownianPaths(partition=part, d=2, seed=0, W=w)
    targets = np.stack([np.cos(w[:, 2, 0]), w[:, 2, 0] * w[:, 2, 1]], axis=1)
    dw = ConditionalEstimator(EstimatorSpec(kind="regression"), paths).cond_mean_times_dw(targets, 2)
    for i in range(2):
        want = (targets * (w[:, 2, i : i + 1] - w[:, 1, i : i + 1])).mean(axis=0)
        assert np.array_equal(dw[..., i], np.broadcast_to(want, targets.shape))


def _record_values(records):
    """Coefficient values by (operation, column), in exponent order."""
    values = {}
    for rec in records:
        values.setdefault((rec.operation, rec.column), []).append(rec.value)
    return {key: np.array(v) for key, v in values.items()}


@pytest.mark.parametrize("kind", ["analytic", "regression"])
def test_coefficient_labels_use_original_columns(kind):
    part = build_partition(1.0, 2, [1.0], [1])
    paths = simulate_increments(part, 1, 200, seed=5)
    w = paths.W[:, 2, 0]
    targets = np.stack([np.full_like(w, 4.0), w, w**2], axis=1)  # column 0 constant
    spec = EstimatorSpec(kind=kind)
    est = ConditionalEstimator(spec, paths, record_coefficients=True)
    for method in ("cond_mean", "cond_mean_times_dw"):
        est.records.clear()
        getattr(est, method)(targets, 2)
        got = _record_values(est.records)
        assert {column for _, column in got} == {"1", "2"}
        # each column's coefficients are those of a fit of it alone
        for (op, column), values in got.items():
            alone = ConditionalEstimator(spec, paths, record_coefficients=True)
            getattr(alone, method)(targets[:, [int(column)]], 2)
            want = _record_values(alone.records)[(op, "0")]
            assert np.max(np.abs(values - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))


def test_analytic_fit_makes_one_lstsq_call(monkeypatch):
    # one lstsq per analytic fit, none for an all-constant target
    calls = []
    lstsq = np.linalg.lstsq

    def counting(*args, **kwargs):
        calls.append(1)
        return lstsq(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", counting)
    part = build_partition(1.0, 2, [1.0], [1])
    paths = simulate_increments(part, 2, 500, seed=37)
    est = ConditionalEstimator(EstimatorSpec(kind="analytic", degree=3), paths)
    constant = np.stack([np.full(500, 1.5), np.zeros(500), np.full(500, -2.0)], axis=1)
    assert np.array_equal(est.cond_mean(constant, 2), constant)
    assert np.array_equal(est.cond_mean_times_dw(constant, 2), np.zeros((500, 3, 2)))
    assert calls == []
    mixed = constant.copy()
    mixed[:, 1] = paths.W[:, 2, 0] * paths.W[:, 2, 1]
    est.cond_mean(mixed, 2)
    assert len(calls) == 1
    est.cond_mean_times_dw(mixed, 2)  # one fit serves both components
    assert len(calls) == 2


def test_regression_checks_each_index_rank_once(monkeypatch):
    # without ridge the normal matrix of each fit index is formed and its rank
    # checked once, though each explicit step makes three regression fits on it
    calls = []
    matrix_rank = np.linalg.matrix_rank

    def counting(*args, **kwargs):
        calls.append(1)
        return matrix_rank(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "matrix_rank", counting)
    part = build_partition(1.0, 8, [0.5], [1])
    spec = EstimatorSpec(kind="regression", degree=3, ridge=0.0)
    lattice = solve(
        builtin_problem("linear_scalar"), part, SolverConfig(samples=500, seed=38, estimator=spec)
    )
    # steps j0 = 8..2 fit on W(t_{j0-1}); the step from j0 = 1 takes the sample mean
    assert len(calls) == part.n0 - 1
    assert np.all(np.isfinite(lattice.V[zero_key(1)]))


def test_nested_kind_rejected_inside_schemes():
    # condexp_nested is a standalone oracle, not an estimator kind
    with pytest.raises(InvalidPartitionError, match="kind"):
        EstimatorSpec(kind="nested")


def test_estimator_spec_validation():
    with pytest.raises(InvalidPartitionError):
        EstimatorSpec(kind="bogus")
    with pytest.raises(InvalidPartitionError):
        EstimatorSpec(degree=-1)
    with pytest.raises(InvalidPartitionError):
        EstimatorSpec(ridge=-0.5)
    with pytest.raises(InvalidPartitionError, match="degree must be an integer"):
        EstimatorSpec(degree=2.0)
    with pytest.raises(InvalidPartitionError, match="ridge must be a number"):
        EstimatorSpec(ridge=True)
    assert EstimatorSpec(degree=np.int64(2), ridge=np.float64(0.0)).basis_size(1) == 3
    assert EstimatorSpec(degree=3).basis_size(1) == 4
    assert EstimatorSpec(degree=3).basis_size(2) == 10


def test_permute_future_increments_keeps_past():
    part = build_partition(1.0, 4, [1.0], [1])
    paths = simulate_increments(part, 1, 50, seed=9)
    perm = np.random.default_rng(0).permutation(50)
    shuffled = permute_future_increments(paths, 2, perm)
    assert np.array_equal(np.diff(shuffled.W, axis=1)[:, :2], np.diff(paths.W, axis=1)[:, :2])
    assert np.array_equal(shuffled.W[:, :3], paths.W[:, :3])
    assert not np.array_equal(np.diff(shuffled.W, axis=1)[:, 2:], np.diff(paths.W, axis=1)[:, 2:])


_NOT_MEASURE_PRESERVING = {
    "all-zeros": (2, np.zeros(50, dtype=int), "permutation"),  # every sample gets sample 0's future
    "short": (2, np.arange(5), "permutation"),
    "float": (2, np.arange(50.0), "permutation"),
    "column": (2, np.arange(50)[:, None], "permutation"),
    "step-negative": (-1, np.arange(50), "from_step"),
    "step-past-n0": (5, np.arange(50), "from_step"),
}


@pytest.mark.parametrize("case", sorted(_NOT_MEASURE_PRESERVING))
def test_permute_future_increments_refuses_what_is_not_a_rearrangement(case):
    from_step, permutation, name = _NOT_MEASURE_PRESERVING[case]
    paths = simulate_increments(build_partition(1.0, 4, [1.0], [1]), 1, 50, seed=9)
    with pytest.raises(InvalidPartitionError, match=name):
        permute_future_increments(paths, from_step, permutation)
    # from_step = n0 is the last step it accepts, and rearranges nothing
    assert np.array_equal(permute_future_increments(paths, 4, np.arange(50)[::-1]).W, paths.W)


@pytest.mark.parametrize("from_step", [0, 2, 3])
def test_permute_future_increments_keeps_past_w_bitwise(from_step):
    part = build_partition(1.0, 4, [1.0], [1])
    paths = simulate_increments(part, 2, 50, seed=9)
    perm = np.random.default_rng(1).permutation(50)
    shuffled = permute_future_increments(paths, from_step, perm)
    assert shuffled.W[:, : from_step + 1].tobytes() == paths.W[:, : from_step + 1].tobytes()
    future = np.diff(paths.W, axis=1)[perm, from_step:]
    assert np.allclose(np.diff(shuffled.W, axis=1)[:, from_step:], future, rtol=0.0, atol=1e-14)
    assert not shuffled.W.flags.writeable
