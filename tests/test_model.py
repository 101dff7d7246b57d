import math
from dataclasses import replace

import numpy as np
import pytest

from bspde import (
    InvalidPartitionError,
    OperatorEvaluationError,
    ProblemSpec,
    SolverConfig,
    analysis,
    build_partition,
    builtin_problem,
    operator_jacobians,
    simulate_increments,
    solve,
)
from bspde.model import BUILTIN_NAMES, evaluate_diffusion_driver, evaluate_driver

ALL_BUILTINS = (
    ("zero", {"value": 7.0}),
    ("martingale", {}),
    ("linear_scalar", {}),
    ("heat", {"a": 1.0}),
)


def scalar_args(t=0.0, v0=0.0, v2=None, vbar0=0.0):
    """(t, x, v, vbar) at one sample and one grid point."""
    x = np.array([[0.5]])
    v = {(0, (0,)): np.array([[v0]])}
    if v2 is not None:
        v[(1, (1,))] = np.array([[0.0]])
        v[(2, (2,))] = np.array([[v2]])
    vbar = {(0, (0,)): np.array([[[vbar0]]])}
    return t, x, v, vbar


def test_builtin_names():
    for name, params in ALL_BUILTINS:
        spec = builtin_problem(name, params)
        assert spec.name == name
        assert spec.M == (2 if name == "heat" else 0)
    with pytest.raises(InvalidPartitionError):
        builtin_problem("nope")


@pytest.mark.parametrize("T", [1.0, 2.0])
def test_reference_terminal_consistency(T):
    # the reference a run reads at its last grid time, on its grid's horizon,
    # must coincide with the terminal field; every built-in is made without params
    part = build_partition(T, 2, [1.0], [4])
    paths = simulate_increments(part, 1, 16, seed=3)
    w = paths.W[:, -1].reshape(16, 1, 1)
    for name in BUILTIN_NAMES:
        spec = builtin_problem(name)
        V, _ = analysis._reference_stacks(spec, part, paths, part.n0, lambda field: field)
        assert np.max(np.abs(V - spec.terminal(part.points, w))) < 1e-12, name


def _copying_reference(name, T, t, x, w):
    # the formulas that copied a broadcast Vbar, kept as the oracle
    if name == "martingale":
        V = x[..., 0:1] * w[..., 0:1]
        Vbar = np.broadcast_to(x[..., 0:1, None], V.shape + (1,)).copy()
    else:
        scale = math.exp(T - t)
        V = scale * x[..., 0:1] * w[..., 0:1]
        Vbar = np.broadcast_to(scale * x[..., 0:1, None], V.shape + (1,)).copy()
    return V, Vbar


@pytest.mark.parametrize("name", ["martingale", "linear_scalar"])
@pytest.mark.parametrize("edges,counts", [([1.0], [4]), ([1.0, 2.0], [3, 2])])
def test_reference_matches_copying_formula_bitwise(name, edges, counts):
    T = 1.5
    spec = builtin_problem(name)
    part = build_partition(T, 4, edges, counts)
    w = np.random.default_rng(9).normal(size=(50,) + (1,) * part.p + (1,))
    for t in part.time_points:
        V, Vbar = spec.analytic_reference(float(t), T, part.points, w)
        want_V, want_Vbar = _copying_reference(name, T, float(t), part.points, w)
        assert V.shape == want_V.shape and Vbar.shape == want_Vbar.shape
        assert np.array_equal(V, want_V) and np.array_equal(Vbar, want_Vbar)


@pytest.mark.parametrize("name", ["martingale", "linear_scalar"])
@pytest.mark.parametrize("edges,counts", [([1.0], [4]), ([1.0, 2.0], [3, 2])])
def test_terminal_gradient_matches_copying_formula_bitwise(name, edges, counts):
    # the gradient is a read-only broadcast; the copying formula is the oracle
    spec = builtin_problem(name)
    part = build_partition(1.0, 4, edges, counts)
    x = part.points
    w = np.random.default_rng(11).normal(size=(50,) + (1,) * part.p + (1,))
    want = np.broadcast_to(x[..., 0:1, None], (x[..., 0:1] * w[..., 0:1]).shape + (1,)).copy()
    got = spec.terminal_w_gradient(x, w)
    assert got.shape == want.shape and np.array_equal(got, want)


def test_evaluate_driver_examples():
    zero = builtin_problem("zero")
    assert evaluate_driver(zero, *scalar_args(v0=9.9)) == pytest.approx(0.0)
    lin = builtin_problem("linear_scalar")
    assert evaluate_driver(lin, *scalar_args(v0=2.5))[0, 0] == pytest.approx(2.5)
    heat = builtin_problem("heat")
    assert evaluate_driver(heat, *scalar_args(v0=1.0, v2=4.0))[0, 0] == pytest.approx(2.0)


def test_evaluate_diffusion_driver_examples():
    zero = builtin_problem("zero")
    out = evaluate_diffusion_driver(zero, *scalar_args(v0=3.0)[:3])
    assert out.shape == (1, 1, 1) and out[0, 0, 0] == 0.0

    def diffusion_is_v(t, x, v):
        return v[(0, (0,))][..., None]

    spec = ProblemSpec(
        name="j_is_v", p=1, q=1, d=1, k=0, m=0, n=0,
        driver=lambda t, x, v, vbar: np.zeros_like(v[(0, (0,))]),
        diffusion=diffusion_is_v,
        terminal=lambda x, w: x[..., 0:1] * w[..., 0:1],
    )
    out = evaluate_diffusion_driver(spec, *scalar_args(v0=3.0)[:3])
    assert out[0, 0, 0] == pytest.approx(3.0)


def test_driver_nonfinite_raises_with_context():
    spec = ProblemSpec(
        name="bad", p=1, q=1, d=1, k=0, m=0, n=0,
        driver=lambda t, x, v, vbar: np.full_like(v[(0, (0,))], np.inf),
        diffusion=lambda t, x, v: np.zeros(v[(0, (0,))].shape + (1,)),
        terminal=lambda x, w: x[..., 0:1] * w[..., 0:1],
    )
    with pytest.raises(OperatorEvaluationError, match="t=0.25"):
        evaluate_driver(spec, *scalar_args(t=0.25, v0=1.0))


# ---------------------------------------------------------------------------
# jacobians
# ---------------------------------------------------------------------------


def differenced(spec):
    """The spec without analytic Jacobians, so that operator_jacobians differences."""
    return replace(spec, driver_jacobian=None, diffusion_jacobian=None)


def test_jacobians_identity_driver():
    lin = builtin_problem("linear_scalar")
    args = scalar_args(v0=2.0)
    for spec in (lin, differenced(lin)):
        jac = operator_jacobians(spec, *args)
        assert jac.dL_dv[(0, (0,))].ravel()[0] == pytest.approx(1.0, abs=1e-8)
        assert np.allclose(jac.dL_dvbar[(0, (0,))], 0.0, atol=1e-8)
        assert np.allclose(jac.dJ_dv[(0, (0,))], 0.0, atol=1e-8)


def test_jacobians_heat_driver():
    heat = builtin_problem("heat")
    args = scalar_args(v0=1.0, v2=4.0)
    for spec in (heat, differenced(heat)):
        jac = operator_jacobians(spec, *args)
        assert jac.dL_dv[(2, (2,))].ravel()[0] == pytest.approx(0.5, abs=1e-8)
        assert np.allclose(jac.dL_dv[(0, (0,))], 0.0, atol=1e-8)


def test_jacobians_product_rule_by_finite_differences():
    spec = ProblemSpec(
        name="prod", p=1, q=1, d=1, k=0, m=0, n=0,
        driver=lambda t, x, v, vbar: v[(0, (0,))] * vbar[(0, (0,))][..., 0],
        diffusion=lambda t, x, v: np.zeros(v[(0, (0,))].shape + (1,)),
        terminal=lambda x, w: x[..., 0:1] * w[..., 0:1],
    )
    args = scalar_args(v0=2.0, vbar0=3.0)
    jac = operator_jacobians(spec, *args)
    assert jac.dL_dv[(0, (0,))].ravel()[0] == pytest.approx(3.0, abs=1e-8)
    assert jac.dL_dvbar[(0, (0,))].ravel()[0] == pytest.approx(2.0, abs=1e-8)


def test_finite_differences_match_analytic_on_builtins():
    args = scalar_args(v0=1.3, v2=0.7, vbar0=-0.4)
    for name, params in ALL_BUILTINS:
        spec = builtin_problem(name, params)
        use = scalar_args(v0=1.3, v2=0.7 if name == "heat" else None, vbar0=-0.4)
        exact = operator_jacobians(spec, *use)
        approx = operator_jacobians(differenced(spec), *use)
        for key in exact.dL_dv:
            assert np.allclose(exact.dL_dv[key], approx.dL_dv[key], atol=1e-6), name


# q = 2, d = 2 linear operators of the order-0 and order-1 entries, with
# distinct coefficients, so that any swap of Jacobian axes changes an entry
_KEYS = ((0, (0,)), (1, (1,)))
_A = {key: np.arange(1.0, 5.0).reshape(2, 2) / (4 + c) for c, key in enumerate(_KEYS)}  # [r, r']
_B = {key: np.arange(1.0, 9.0).reshape(2, 2, 2) / (8 + c) for c, key in enumerate(_KEYS)}  # [r, r', i]
_C = {key: -np.arange(1.0, 9.0).reshape(2, 2, 2) / (9 + c) for c, key in enumerate(_KEYS)}  # [r, i, r']
_G = np.array([[0.5, -1.5], [2.0, 0.25]])  # [r, i]


def _linear_q2d2_spec():
    def driver(t, x, v, vbar):
        return sum(
            np.einsum("rs,...s->...r", _A[key], v[key])
            + np.einsum("rsi,...si->...r", _B[key], vbar[key])
            for key in _KEYS
        )

    def diffusion(t, x, v):
        return sum(np.einsum("ris,...s->...ri", _C[key], v[key]) for key in _KEYS)

    def terminal(x, w):
        return np.einsum("ri,...i->...r", _G, w) + x[..., 0:1]

    return ProblemSpec(
        name="linear_q2d2", p=1, q=2, d=2, k=1, m=1, n=1,
        driver=driver, diffusion=diffusion, terminal=terminal,
    )


def test_finite_difference_layout_on_several_components():
    spec = _linear_q2d2_spec()
    rng = np.random.default_rng(12)
    S, G = 3, 4
    x = np.linspace(-1.0, 1.0, G)[:, None]
    v = {key: rng.standard_normal((S, G, 2)) for key in _KEYS}
    vbar = {key: rng.standard_normal((S, G, 2, 2)) for key in _KEYS}
    jac = operator_jacobians(spec, 0.5, x, v, vbar)
    for family, coeffs in ((jac.dL_dv, _A), (jac.dL_dvbar, _B), (jac.dJ_dv, _C)):
        assert family.keys() == set(_KEYS)
        for key, want in coeffs.items():
            assert family[key].shape == (S, G) + want.shape
            assert np.max(np.abs(family[key] - want)) < 1e-8, key

    part = build_partition(1.0, 2, [1.0], [3])
    base = solve(spec, part, SolverConfig(samples=12, seed=3))
    grad = analysis._terminal_gradient(base)
    assert grad.shape == (12,) + part.grid_shape + (2, 2)
    assert np.max(np.abs(grad - _G)) < 1e-8
