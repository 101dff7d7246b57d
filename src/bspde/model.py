"""Problem specifications: dimensions, derivative orders, the drift and
diffusion operators, terminal fields, and built-in analytically solvable
instances used for verification.

Operator callbacks are plain vectorized functions.  Conventions:

* ``x`` is the lattice coordinate array of shape grid_shape + (p,);
* derivative bundles are dicts keyed by (order, multi-index) holding arrays
  of shape batch + grid_shape + (q,) for the solution and
  batch + grid_shape + (q, d) for its martingale-integrand companion;
* ``driver(t, x, v, vbar)`` returns batch + grid_shape + (q,);
* ``diffusion(t, x, v)`` returns batch + grid_shape + (q, d);
* ``terminal(x, w)`` receives the terminal Brownian state ``w`` with shape
  (S, 1, ..., 1, d) ready to broadcast against ``x`` and returns
  (S,) + grid_shape + (q,).

Each operator reads its own orders.  `evaluate_driver`,
`evaluate_diffusion_driver` and `operator_jacobians` take whole stacks and
slice them: the driver and its Jacobians receive ``v`` at orders <= k and
``vbar`` at orders <= m, the diffusion driver and its Jacobians ``v`` at
orders <= n.

Callbacks must be deterministic, re-entrant, total functions of their
arguments; specs are immutable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidPartitionError, OperatorEvaluationError
from .grid import StackKey

BUILTIN_NAMES = ("zero", "martingale", "linear_scalar", "heat")


@dataclass(frozen=True)
class ProblemSpec:
    name: str
    p: int
    q: int
    d: int
    k: int  # highest solution-derivative order the driver reads
    m: int  # highest integrand-derivative order the driver reads
    n: int  # highest solution-derivative order the diffusion driver reads
    driver: callable
    diffusion: callable
    terminal: callable
    analytic_reference: callable | None = None
    terminal_w_gradient: callable | None = None
    driver_jacobian: callable | None = None
    diffusion_jacobian: callable | None = None

    @property
    def M(self) -> int:
        return max(self.k, self.m, self.n)


def _upto(stack: dict[StackKey, np.ndarray], c_max: int) -> dict[StackKey, np.ndarray]:
    return {key: arr for key, arr in stack.items() if key[0] <= c_max}


def _check_finite(values: np.ndarray, t, x, what: str) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(values)):
        bad = np.argwhere(~np.isfinite(values))
        first = tuple(int(i) for i in bad[0])
        raise OperatorEvaluationError(
            f"{what} produced a non-finite value at t={t!r}, entry index {first}"
        )
    return values


def evaluate_driver(spec: ProblemSpec, t, x: np.ndarray, v: dict, vbar: dict) -> np.ndarray:
    out = spec.driver(t, x, _upto(v, spec.k), _upto(vbar, spec.m))
    return _check_finite(out, t, x, "driver")


def evaluate_diffusion_driver(spec: ProblemSpec, t, x: np.ndarray, v: dict) -> np.ndarray:
    out = spec.diffusion(t, x, _upto(v, spec.n))
    return _check_finite(out, t, x, "diffusion driver")


def zero_key(p: int) -> StackKey:
    return (0, (0,) * p)


# The built-ins' analytic Jacobians are constants, handed out as read-only
# broadcasts of one scalar each: freezing them along a solve allocates nothing.
def _zero_jac_v(v: dict, q: int) -> dict:
    return {key: np.broadcast_to(0.0, arr.shape + (q,)) for key, arr in v.items()}


def _zero_jac_vbar(vbar: dict, q: int, d: int) -> dict:
    return {key: np.broadcast_to(0.0, arr.shape[:-2] + (q, q, d)) for key, arr in vbar.items()}


def _zero_jac_diffusion(v: dict, q: int, d: int) -> dict:
    return {key: np.broadcast_to(0.0, arr.shape[:-1] + (q, d, q)) for key, arr in v.items()}


# ---------------------------------------------------------------------------
# Built-in problems
# ---------------------------------------------------------------------------


def builtin_problem(name: str, params: dict | None = None) -> ProblemSpec:
    """Analytically solvable fixtures.

    zero          V(t,x) = value + slope*x_1,            Vbar = 0
    martingale    V(t,x) = x_1 * W(t),                   Vbar = x_1
    linear_scalar V(t,x) = exp(T-t) * x_1 * W(t),        Vbar = exp(T-t) * x_1
    heat          V(t,x) = exp(a*x_1 + a^2 (T-t)/2),     Vbar = 0
    """
    params = dict(params or {})
    if name == "zero":
        return _zero_problem(params)
    if name == "martingale":
        return _martingale_problem(params)
    if name == "linear_scalar":
        return _linear_scalar_problem(params)
    if name == "heat":
        return _heat_problem(params)
    raise InvalidPartitionError(f"unknown builtin problem {name!r}; choose from {BUILTIN_NAMES}")


def _zero_drift(t, x, v, vbar):
    base = next(iter(v.values()))
    return np.zeros_like(base)


def _zero_diffusion_for(d):
    def diffusion(t, x, v):
        base = next(iter(v.values()))
        return np.zeros(base.shape + (d,))

    return diffusion


def _zero_problem(params: dict) -> ProblemSpec:
    value = float(params.get("value", 7.0))
    slope = float(params.get("slope", 0.0))

    def terminal(x, w):
        h = value + slope * x[..., 0]
        return np.broadcast_to(h, np.broadcast_shapes(h.shape, w[..., 0].shape))[..., None]

    def reference(t, x, w):
        V = terminal(x, w)
        return V, np.zeros(V.shape + (1,))

    def terminal_grad(x, w):
        V = terminal(x, w)
        return np.zeros(V.shape + (1,))

    return ProblemSpec(
        name="zero",
        p=1, q=1, d=1, k=0, m=0, n=0,
        driver=_zero_drift,
        diffusion=_zero_diffusion_for(1),
        terminal=terminal,
        analytic_reference=reference,
        terminal_w_gradient=terminal_grad,
        driver_jacobian=lambda t, x, v, vbar: (_zero_jac_v(v, 1), _zero_jac_vbar(vbar, 1, 1)),
        diffusion_jacobian=lambda t, x, v: _zero_jac_diffusion(v, 1, 1),
    )


def _martingale_problem(params: dict) -> ProblemSpec:
    def terminal(x, w):
        return x[..., 0:1] * w[..., 0:1]

    def reference(t, x, w):
        # grid axis innermost; Vbar is a read-only broadcast
        V = (x[..., 0] * w[..., 0])[..., None]
        return V, np.broadcast_to(x[..., 0:1, None], V.shape + (1,))

    def terminal_grad(x, w):
        # a read-only broadcast; its consumers copy it into their own arrays
        V = x[..., 0:1] * w[..., 0:1]
        return np.broadcast_to(x[..., 0:1, None], V.shape + (1,))

    return ProblemSpec(
        name="martingale",
        p=1, q=1, d=1, k=0, m=0, n=0,
        driver=_zero_drift,
        diffusion=_zero_diffusion_for(1),
        terminal=terminal,
        analytic_reference=reference,
        terminal_w_gradient=terminal_grad,
        driver_jacobian=lambda t, x, v, vbar: (_zero_jac_v(v, 1), _zero_jac_vbar(vbar, 1, 1)),
        diffusion_jacobian=lambda t, x, v: _zero_jac_diffusion(v, 1, 1),
    )


def _linear_scalar_problem(params: dict) -> ProblemSpec:
    T = float(params.get("terminal_time", 1.0))

    def driver(t, x, v, vbar):
        return v[(0, (0,))]

    def terminal(x, w):
        return x[..., 0:1] * w[..., 0:1]

    def reference(t, x, w):
        scale = math.exp(T - t) if np.isscalar(t) else np.exp(T - t)
        # grid axis innermost; Vbar is a read-only broadcast
        V = (scale * x[..., 0] * w[..., 0])[..., None]
        return V, np.broadcast_to(scale * x[..., 0:1, None], V.shape + (1,))

    def terminal_grad(x, w):
        # a read-only broadcast; its consumers copy it into their own arrays
        V = x[..., 0:1] * w[..., 0:1]
        return np.broadcast_to(x[..., 0:1, None], V.shape + (1,))

    def jac_driver(t, x, v, vbar):
        jv = {key: np.broadcast_to(float(key == (0, (0,))), arr.shape + (1,)) for key, arr in v.items()}
        return jv, _zero_jac_vbar(vbar, 1, 1)

    return ProblemSpec(
        name="linear_scalar",
        p=1, q=1, d=1, k=0, m=0, n=0,
        driver=driver,
        diffusion=_zero_diffusion_for(1),
        terminal=terminal,
        analytic_reference=reference,
        terminal_w_gradient=terminal_grad,
        driver_jacobian=jac_driver,
        diffusion_jacobian=lambda t, x, v: _zero_jac_diffusion(v, 1, 1),
    )


def _heat_problem(params: dict) -> ProblemSpec:
    a = float(params.get("a", 1.0))
    T = float(params.get("terminal_time", 1.0))

    def driver(t, x, v, vbar):
        return 0.5 * v[(2, (2,))]

    def terminal(x, w):
        h = np.exp(a * x[..., 0])
        return np.broadcast_to(h, np.broadcast_shapes(h.shape, w[..., 0].shape))[..., None]

    def reference(t, x, w):
        V = np.exp(a * x[..., 0] + 0.5 * a * a * (T - t))
        V = np.broadcast_to(V, np.broadcast_shapes(V.shape, w[..., 0].shape))[..., None]
        return V, np.zeros(V.shape + (1,))

    def jac_driver(t, x, v, vbar):
        jv = {key: np.broadcast_to(0.5 * (key == (2, (2,))), arr.shape + (1,)) for key, arr in v.items()}
        return jv, _zero_jac_vbar(vbar, 1, 1)

    return ProblemSpec(
        name="heat",
        p=1, q=1, d=1, k=2, m=0, n=0,
        driver=driver,
        diffusion=_zero_diffusion_for(1),
        terminal=terminal,
        analytic_reference=reference,
        terminal_w_gradient=lambda x, w: np.zeros(terminal(x, w).shape + (1,)),
        driver_jacobian=jac_driver,
        diffusion_jacobian=lambda t, x, v: _zero_jac_diffusion(v, 1, 1),
    )


# ---------------------------------------------------------------------------
# Operator Jacobians
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OperatorJacobians:
    """Partial derivatives of the drift/diffusion drivers per argument entry.

    dL_dv[(c, idx)][..., r, r']      = d driver_r / d v^{(c,idx)}_{r'}
    dL_dvbar[(c, idx)][..., r, r', i] = d driver_r / d vbar^{(c,idx)}_{r',i}
    dJ_dv[(c, idx)][..., r, i, r']   = d diffusion_{r,i} / d v^{(c,idx)}_{r'}
    """

    dL_dv: dict[StackKey, np.ndarray]
    dL_dvbar: dict[StackKey, np.ndarray]
    dJ_dv: dict[StackKey, np.ndarray]


def operator_jacobians(
    spec: ProblemSpec,
    t,
    x: np.ndarray,
    v: dict,
    vbar: dict,
    h: float = 1e-6,
    use_analytic: bool = True,
) -> OperatorJacobians:
    """Central finite differences per argument entry; analytic overrides win.

    Each Jacobian covers the orders its operator reads (see the module
    docstring).  The step is h * max(1, |entry|), balancing truncation
    against roundoff.
    """
    v_L, vbar_L, v_J = _upto(v, spec.k), _upto(vbar, spec.m), _upto(v, spec.n)
    if use_analytic and spec.driver_jacobian is not None and spec.diffusion_jacobian is not None:
        jv, jb = spec.driver_jacobian(t, x, v_L, vbar_L)
        jj = spec.diffusion_jacobian(t, x, v_J)
        return OperatorJacobians(dL_dv=jv, dL_dvbar=jb, dJ_dv=jj)

    q = spec.q
    d = spec.d

    def fd(eval_fn, bundle, key, comp_index, out_comp_ndim):
        base = bundle[key]
        sel = (Ellipsis,) + comp_index
        step = h * np.maximum(1.0, np.abs(base[sel]))
        pert = np.zeros_like(base)
        pert[sel] = step
        up = dict(bundle)
        down = dict(bundle)
        up[key] = base + pert
        down[key] = base - pert
        denom = (2.0 * step)[(Ellipsis,) + (None,) * out_comp_ndim]
        return _check_finite((eval_fn(up) - eval_fn(down)) / denom, t, x, "jacobian")

    def eval_L(v=None, vbar=None):
        return spec.driver(t, x, v or v_L, vbar or vbar_L)

    dL_dv = {}
    for key, arr in v_L.items():
        jac = np.zeros(arr.shape + (q,))
        for r_prime in range(q):
            jac[..., :, r_prime] = fd(lambda b: eval_L(v=b), v_L, key, (r_prime,), 1)
        dL_dv[key] = jac

    dL_dvbar = {}
    for key, arr in vbar_L.items():
        jac = np.zeros(arr.shape[:-2] + (q, q, d))
        for r_prime in range(q):
            for i in range(d):
                jac[..., :, r_prime, i] = fd(
                    lambda b: eval_L(vbar=b), vbar_L, key, (r_prime, i), 1
                )
        dL_dvbar[key] = jac

    dJ_dv = {}
    for key, arr in v_J.items():
        jac = np.zeros(arr.shape[:-1] + (q, d, q))
        for r_prime in range(q):
            jac[..., :, :, r_prime] = fd(
                lambda b: spec.diffusion(t, x, b), v_J, key, (r_prime,), 2
            )
        dJ_dv[key] = jac

    return OperatorJacobians(dL_dv=dL_dv, dL_dvbar=dL_dvbar, dJ_dv=dJ_dv)
