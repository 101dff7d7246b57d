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
  (S,) + grid_shape + (q,);
* ``analytic_reference(t, T, x, w)`` receives the time t, the horizon T of
  the partition it is read on (its last grid time) and ``w`` = W(t) shaped
  as for ``terminal``, and returns (V, Vbar) at t, each broadcastable to the
  lattice's slice shapes.

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

from .errors import ConfigError, InvalidPartitionError, OperatorEvaluationError, check_finite, check_value
from .grid import StackKey

# the params each built-in reads
BUILTIN_PARAMS = {
    "zero": ("value", "slope"),
    "martingale": (),
    "linear_scalar": (),
    "heat": ("a",),
}
BUILTIN_NAMES = tuple(BUILTIN_PARAMS)


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


def evaluate_driver(spec: ProblemSpec, t, x: np.ndarray, v: dict, vbar: dict) -> np.ndarray:
    out = spec.driver(t, x, _upto(v, spec.k), _upto(vbar, spec.m))
    return check_finite(out, OperatorEvaluationError, "driver", f"t={t!r}")


def evaluate_diffusion_driver(spec: ProblemSpec, t, x: np.ndarray, v: dict) -> np.ndarray:
    out = spec.diffusion(t, x, _upto(v, spec.n))
    return check_finite(out, OperatorEvaluationError, "diffusion driver", f"t={t!r}")


def zero_key(p: int) -> StackKey:
    return (0, (0,) * p)


# ---------------------------------------------------------------------------
# Built-in problems
# ---------------------------------------------------------------------------


def builtin_problem(name: str, params: dict | None = None) -> ProblemSpec:
    """Analytically solvable fixtures.

    zero          V(t,x) = value + slope*x_1,            Vbar = 0
    martingale    V(t,x) = x_1 * W(t),                   Vbar = x_1
    linear_scalar V(t,x) = exp(T-t) * x_1 * W(t),        Vbar = exp(T-t) * x_1
    heat          V(t,x) = exp(a*x_1 + a^2 (T-t)/2),     Vbar = 0

    martingale is linear_scalar at rate 0.  A param the built-in does not
    read, and one that is not a number, is refused.
    """
    if name not in BUILTIN_NAMES:
        raise InvalidPartitionError(f"unknown builtin problem name {name!r}; choose from {BUILTIN_NAMES}")
    params = dict(params or {})
    reads = BUILTIN_PARAMS[name]
    for key, value in params.items():
        if key not in reads:
            raise ConfigError(
                f"builtin problem {name!r} reads no param {key!r}; it reads {', '.join(reads) or 'none'}"
            )
        check_value(f"param {key}", value, "number")
    if name == "zero":
        return _zero_problem(params)
    if name == "heat":
        return _heat_problem(params)
    return _exponential_problem(name, 0.0 if name == "martingale" else 1.0)


# Every built-in is scalar (p = q = d = 1), has J = 0, and a driver that is
# a constant times one stack entry.  J and their analytic Jacobians are
# constants, handed out as read-only broadcasts of one scalar each: a step's
# J and the Jacobians frozen along a solve allocate nothing.
def _zero_drift(t, x, v, vbar):
    return np.zeros_like(v[(0, (0,))])


def _zero_diffusion(t, x, v):
    return np.broadcast_to(0.0, v[(0, (0,))].shape + (1,))


def _zero_diffusion_jacobian(t, x, v):
    return {key: np.broadcast_to(0.0, arr.shape + (1, 1)) for key, arr in v.items()}


def _driver_jacobian(entry: StackKey, coeff: float):
    """The Jacobians of the driver coeff * v[entry]."""

    def jacobian(t, x, v, vbar):
        jv = {key: np.broadcast_to(coeff * (key == entry), arr.shape + (1,)) for key, arr in v.items()}
        return jv, {key: np.broadcast_to(0.0, arr.shape + (1,)) for key, arr in vbar.items()}

    return jacobian


def _zero_problem(params: dict) -> ProblemSpec:
    value = float(params.get("value", 7.0))
    slope = float(params.get("slope", 0.0))

    def terminal(x, w):
        h = value + slope * x[..., 0]
        return np.broadcast_to(h, np.broadcast_shapes(h.shape, w[..., 0].shape))[..., None]

    def reference(t, T, x, w):
        V = terminal(x, w)
        return V, np.zeros(V.shape + (1,))

    return ProblemSpec(
        name="zero",
        p=1, q=1, d=1, k=0, m=0, n=0,
        driver=_zero_drift,
        diffusion=_zero_diffusion,
        terminal=terminal,
        analytic_reference=reference,
        terminal_w_gradient=lambda x, w: np.zeros(terminal(x, w).shape + (1,)),
        driver_jacobian=_driver_jacobian((0, (0,)), 0.0),
        diffusion_jacobian=_zero_diffusion_jacobian,
    )


def _exponential_problem(name: str, rate: float) -> ProblemSpec:
    """L = rate*V (rate 0 or 1), J = 0, H = x_1*W(T): V = exp(rate(T-t)) x_1 W(t)."""

    def driver(t, x, v, vbar):
        # rate*v without a multiply: at rate 1 the stack entry itself
        return v[(0, (0,))] if rate else _zero_drift(t, x, v, vbar)

    def terminal(x, w):
        return x[..., 0:1] * w[..., 0:1]

    def reference(t, T, x, w):
        scale = math.exp(rate * (T - t)) if np.isscalar(t) else np.exp(rate * (T - t))
        # grid axis innermost; Vbar is a read-only broadcast
        V = (scale * x[..., 0] * w[..., 0])[..., None]
        return V, np.broadcast_to(scale * x[..., 0:1, None], V.shape + (1,))

    def terminal_grad(x, w):
        # a read-only broadcast; its consumers copy it into their own arrays
        V = x[..., 0:1] * w[..., 0:1]
        return np.broadcast_to(x[..., 0:1, None], V.shape + (1,))

    return ProblemSpec(
        name=name,
        p=1, q=1, d=1, k=0, m=0, n=0,
        driver=driver,
        diffusion=_zero_diffusion,
        terminal=terminal,
        analytic_reference=reference,
        terminal_w_gradient=terminal_grad,
        driver_jacobian=_driver_jacobian((0, (0,)), rate),
        diffusion_jacobian=_zero_diffusion_jacobian,
    )


def _heat_problem(params: dict) -> ProblemSpec:
    a = float(params.get("a", 1.0))

    def driver(t, x, v, vbar):
        return 0.5 * v[(2, (2,))]

    def terminal(x, w):
        h = np.exp(a * x[..., 0])
        return np.broadcast_to(h, np.broadcast_shapes(h.shape, w[..., 0].shape))[..., None]

    def reference(t, T, x, w):
        V = np.exp(a * x[..., 0] + 0.5 * a * a * (T - t))
        V = np.broadcast_to(V, np.broadcast_shapes(V.shape, w[..., 0].shape))[..., None]
        return V, np.zeros(V.shape + (1,))

    return ProblemSpec(
        name="heat",
        p=1, q=1, d=1, k=2, m=0, n=0,
        driver=driver,
        diffusion=_zero_diffusion,
        terminal=terminal,
        analytic_reference=reference,
        terminal_w_gradient=lambda x, w: np.zeros(terminal(x, w).shape + (1,)),
        driver_jacobian=_driver_jacobian((2, (2,)), 0.5),
        diffusion_jacobian=_zero_diffusion_jacobian,
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


def central_jacobian(f, arg: np.ndarray, n_in: int) -> np.ndarray:
    """Central differences of f along each of the last n_in component axes of arg.

    The step for an entry is 1e-6 * max(1, |entry|), balancing truncation
    against roundoff.  The result stacks the differenced components after
    f's own axes: shape f(arg).shape + arg.shape[-n_in:].
    """
    components = arg.shape[arg.ndim - n_in:]
    jac = None
    for comp in np.ndindex(*components):
        sel = (Ellipsis,) + comp
        step = 1e-6 * np.maximum(1.0, np.abs(arg[sel]))
        pert = np.zeros_like(arg)
        pert[sel] = step
        diff = f(arg + pert) - f(arg - pert)
        column = diff / (2.0 * step)[(Ellipsis,) + (None,) * (diff.ndim - step.ndim)]
        if jac is None:
            jac = np.empty(column.shape + components)
        jac[sel] = column
    return jac


def operator_jacobians(spec: ProblemSpec, t, x: np.ndarray, v: dict, vbar: dict) -> OperatorJacobians:
    """Analytic Jacobians when the problem supplies both, else `central_jacobian`
    per stack entry.  Each Jacobian covers the orders its operator reads (see
    the module docstring).
    """
    v_L, vbar_L, v_J = _upto(v, spec.k), _upto(vbar, spec.m), _upto(v, spec.n)
    if spec.driver_jacobian is not None and spec.diffusion_jacobian is not None:
        jv, jb = spec.driver_jacobian(t, x, v_L, vbar_L)
        jj = spec.diffusion_jacobian(t, x, v_J)
        return OperatorJacobians(dL_dv=jv, dL_dvbar=jb, dJ_dv=jj)

    def differenced(bundle, n_in, f):
        # f(key, a) is the operator with bundle[key] replaced by a
        return {
            key: check_finite(central_jacobian(lambda a: f(key, a), arr, n_in),
                              OperatorEvaluationError, "jacobian", f"t={t!r}")
            for key, arr in bundle.items()
        }

    return OperatorJacobians(
        dL_dv=differenced(v_L, 1, lambda key, a: spec.driver(t, x, {**v_L, key: a}, vbar_L)),
        dL_dvbar=differenced(vbar_L, 2, lambda key, a: spec.driver(t, x, v_L, {**vbar_L, key: a})),
        dJ_dv=differenced(v_J, 1, lambda key, a: spec.diffusion(t, x, {**v_J, key: a})),
    )
