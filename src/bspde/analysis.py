"""Discrete error criterion, convergence-rate studies, and the linearized
first-order Malliavin diagnostic with its representation-identity check.

The error criterion sums, over derivative orders c, the worst grid point's
worst-in-time mean squared deviation of the lattice from a reference, for the
solution and its martingale integrand separately.  "Worst in time" probes the
piecewise-constant extension of the lattice everywhere on [0, T): at each grid
time the slice there is compared against the reference, and just before each
grid time the *previous* slice is compared against the reference there.
The second family of read points is what resolves the within-interval drift of
the true solution; against a stochastic reference it contributes the Brownian
modulus of continuity, which is exactly the first-order term the criterion is
designed to expose.  The terminal integrand slice (identically zero by
construction) lies outside the extension and is never read.

The criterion is an accumulator fed the lattice one slice at a time, in
either time order.  Grid time j reads slices j-1 and j only, so it is
evaluated as soon as both have arrived, and the accumulator holds a two-slice
window.  `discrete_error` feeds it the stored slices of a lattice; the
convergence study and the scheme comparison feed it each slice as the
backward march makes it (`solve(..., observe=...)`), so no lattice of the
solve they measure is ever stored.  The reference at t_j is built once and
serves both read points there, "at t_j" against slice j and "just before
t_j" against slice j-1.  The per-sample deviation is the squared difference,
reduced over components with max.  The sample means of both read points are
taken together, in cache-sized chunks of samples whose running sums add the
samples one after another, exactly as a mean over the sample axis does, and
each term is attained at the first worst read point in a fixed numbering;
so the report is bit-identical to a per-read-point loop, whichever order the
slices come in.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .errors import InvalidPartitionError, ReferenceRequiredError
from .grid import Partition, StackKey, difference_stack_arrays, enumerate_multi_indices
from .model import (
    OperatorJacobians,
    ProblemSpec,
    evaluate_diffusion_driver,
    evaluate_driver,
    operator_arguments,
    operator_jacobians,
    zero_key,
)
from .solver import (
    SolutionLattice,
    SolverConfig,
    _explicit_step,
    _march,
    _resolve_order,
    _restenciler,
    _terminal_stacks,
    solve,
)
from .stochastics import BrownianPaths, ConditionalEstimator, simulate_increments


# ---------------------------------------------------------------------------
# Reference adapters
# ---------------------------------------------------------------------------


def _reference_stacks(spec, partition, paths, j: int, M: int, paper_literal: bool):
    """Analytic reference at grid time j along the paths, with difference stacks."""
    S = paths.sample_count
    w = paths.W[:, j, :].reshape(S, *([1] * partition.p), spec.d)
    V, Vbar = spec.analytic_reference(float(partition.time_points[j]), partition.points, w)
    shape = (S,) + partition.grid_shape + (spec.q,)
    V, Vbar = np.asarray(V, dtype=float), np.asarray(Vbar, dtype=float)
    # only a broadcast result is copied out; the stacks are never written
    if V.shape != shape:
        V = np.broadcast_to(V, shape).copy()
    if Vbar.shape != shape + (spec.d,):
        Vbar = np.broadcast_to(Vbar, shape + (spec.d,)).copy()
    restencil = _restenciler(M, partition, paper_literal)
    return restencil(V), restencil(Vbar)


class _AnalyticReference:
    """Continuous-time reference evaluated along the solve's own paths.

    `key(j, left)` names the reference slice read at grid time j (just before
    it when left is true) and `derive(key)` builds that slice's V and Vbar
    stacks, with the solve's order M and stencil; reads that share a key
    share one derivation.
    """

    def __init__(self, spec: ProblemSpec, partition: Partition, paths, M: int, paper_literal):
        if spec.analytic_reference is None:
            raise ReferenceRequiredError(
                f"problem {spec.name!r} does not supply an analytic reference"
            )
        self.derive = partial(
            _reference_stacks, spec, partition, paths, M=M, paper_literal=paper_literal
        )

    def key(self, j: int, left: bool) -> int:
        # the reference is continuous in time: its left limit is its value
        return j


class _LatticeReference:
    """Another lattice (same spatial grid, compatible time grid) as reference,
    with the same `key`/`derive` reads as `_AnalyticReference`.
    """

    def __init__(self, reference: SolutionLattice, partition: Partition):
        if reference.partition.grid_shape != partition.grid_shape:
            raise InvalidPartitionError("reference lattice must share the spatial grid")
        ref_times = reference.partition.time_points
        self.index_map = []
        for t in partition.time_points:
            hits = np.where(np.isclose(ref_times, t, rtol=0, atol=1e-12))[0]
            if hits.size != 1:
                raise InvalidPartitionError(
                    f"reference time grid does not contain t={t}; refine by integer factors"
                )
            self.index_map.append(int(hits[0]))
        self.reference = reference

    def key(self, j: int, left: bool) -> int:
        # piecewise-constant extension: value just before t_j is the previous slice
        return self.index_map[j] - left

    def derive(self, ref_j: int):
        ref = self.reference
        return ref.stacks(ref.V, ref_j), ref.stacks(ref.Vbar, ref_j)


def _as_reference(reference, partition: Partition, paths, M: int, paper_literal: bool):
    if isinstance(reference, SolutionLattice):
        return _LatticeReference(reference, partition)
    if isinstance(reference, ProblemSpec):
        return _AnalyticReference(reference, partition, paths, M, paper_literal)
    raise InvalidPartitionError(
        "reference must be a SolutionLattice or a ProblemSpec with analytic_reference"
    )


# ---------------------------------------------------------------------------
# Discrete error criterion
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ErrorReport:
    """Per-order squared-error terms of the discrete criterion.

    Each term is max over grid points of the worst read-point mean of the
    squared max-abs entry deviation; total is their sum over orders and over
    the solution/integrand families.  Standard errors are the Monte Carlo
    errors of the mean at the attaining (read point, grid point): the first
    worst read point, all "at" reads before all "left_limit" reads, and on it
    the first worst grid point.
    """

    err_V_sq: dict[int, float]
    err_Vbar_sq: dict[int, float]
    stderr_V: dict[int, float]
    stderr_Vbar: dict[int, float]
    mesh_size: float
    samples: int

    @property
    def total(self) -> float:
        return sum(self.err_V_sq.values()) + sum(self.err_Vbar_sq.values())

    @property
    def stderr_total(self) -> float:
        return math.sqrt(
            sum(se**2 for se in self.stderr_V.values())
            + sum(se**2 for se in self.stderr_Vbar.values())
        )


# Entries per chunk of the sample-mean reduction: a chunk's squared deviations
# stay in cache while they are formed and added to the running sums.
_CHUNK_ENTRIES = 1 << 16


def _entry_pairs(ref_slice: dict, lattice_slice: dict, c: int, p: int, G: int):
    """(reference, lattice) arrays of every order-c entry, each (S, G, components)."""
    return [
        tuple(arr.reshape(arr.shape[0], G, -1) for arr in (ref_slice[key], lattice_slice[key]))
        for key in ((c, idx) for idx in enumerate_multi_indices(c, p).indices)
    ]


def _squared_deviation_into(out: np.ndarray, pairs) -> None:
    """out[...] = per-sample max over entry pairs and components of the squared
    difference, shape (rows, G).  Squares are monotone, so this is the square
    of the max-abs difference.
    """
    for n, (ref, lat) in enumerate(pairs):
        if n == 0 and ref.shape[-1] == 1:
            np.subtract(ref[..., 0], lat[..., 0], out=out)
            np.multiply(out, out, out=out)
            continue
        sq = ref - lat
        sq = np.multiply(sq, sq, out=sq).max(axis=-1)
        if n == 0:
            out[...] = sq
        else:
            np.maximum(out, sq, out=out)


def _sample_means(term_pairs, S: int, G: int) -> np.ndarray:
    """Sample means of the squared deviations of every term, given as its
    list of entry pairs, shape (len(term_pairs), G).

    The samples are taken in chunks small enough to stay in cache.  A chunk
    holds one sample per row, with the terms interleaved innermost so that
    each term's (samples, G) block is written in one strided pass, and row 0
    carries the running sums: one axis-0 reduction per chunk adds each
    column's samples one after another, exactly as a mean over the whole
    sample axis does.
    """
    rows = min(S, max(1, _CHUNK_ENTRIES // (len(term_pairs) * G)))
    block = np.zeros((rows + 1, G, len(term_pairs)))
    for lo in range(0, S, rows):
        n = min(rows, S - lo)
        for k, pairs in enumerate(term_pairs):
            chunk = [(r[lo : lo + n], l[lo : lo + n]) for r, l in pairs]
            _squared_deviation_into(block[1 : n + 1, :, k], chunk)
        block[0] = np.add.reduce(block[: n + 1], axis=0)
    return (block[0] / S).T


class _Criterion:
    """The discrete error criterion, fed the lattice one slice at a time.

    `feed(j, v_stack, vbar_stack)` takes the difference stacks of the slice
    at grid time j.  Slices come one grid time apart, in either time order;
    the terminal slice n0, which is never read, may be fed or left out.
    Grid time j reads slices j-1 and j (those in 0..n0-1) and is evaluated as
    soon as both have arrived, so only the last slice fed is kept for the
    next: a two-slice window.  The reference slices of one grid time are kept
    for the next, which shares at most those.  Read points are numbered all
    "at t_j" first, then all "just before t_j", and each term is attained at
    the first worst read point in that order whatever order the slices come
    in.  `report()` needs every grid time evaluated.
    """

    def __init__(self, reference, partition: Partition, paths: BrownianPaths,
                 lattice_M: int, paper_literal: bool, M: int | None = None):
        M = lattice_M if M is None else M
        if M > lattice_M:
            raise InvalidPartitionError(f"M={M} exceeds the lattice order {lattice_M}")
        self.ref = _as_reference(reference, partition, paths, lattice_M, paper_literal)
        self.partition = partition
        self.S = paths.sample_count
        self.orders = range(M + 1)
        self.terms = [(f, c) for f in range(2) for c in self.orders]  # f: 0 for V, 1 for Vbar
        # per term: (worst mean, -read point, stderr); the first worst read point wins
        self.best = {term: (-1.0, 0, None) for term in self.terms}
        self.pending = set(range(partition.n0 + 1))  # grid times not yet evaluated
        self.window = {}  # slice index -> (V stack, Vbar stack)
        self.refs = {}  # reference key -> (V stack, Vbar stack)

    def feed(self, j: int, v_stack, vbar_stack) -> None:
        n0 = self.partition.n0
        if j == n0:
            return
        self.window[j] = (v_stack, vbar_stack)
        for g in (j, j + 1):
            if g in self.pending and all(
                s in self.window for s in (g - 1, g) if 0 <= s < n0
            ):
                self._evaluate(g)
                self.pending.remove(g)
        self.window = {j: self.window[j]}

    def _evaluate(self, j: int) -> None:
        """Both read points of grid time j: "just before t_j" against slice j-1
        and "at t_j" against slice j, their sample means taken together."""
        part, S = self.partition, self.S
        n0, p, G = part.n0, part.p, part.num_points
        reads = [
            (r, self.ref.key(j, left), j_st)
            for r, left, j_st in ((n0 + j - 1, True, j - 1), (j, False, j))
            if 0 <= j_st < n0
        ]
        keys = dict.fromkeys(key for _, key, _ in reads)
        self.refs = {k: self.refs[k] if k in self.refs else self.ref.derive(k) for k in keys}
        per_read = []  # (read point, its entry pairs per term)
        for r, key, j_st in reads:
            ref_sl, lat_sl = self.refs[key], self.window[j_st]
            per_read.append((r, [_entry_pairs(ref_sl[f], lat_sl[f], c, p, G) for f, c in self.terms]))
        means = _sample_means([pairs for _, per_term in per_read for pairs in per_term], S, G)
        for (r, per_term), read_means in zip(per_read, means.reshape(len(reads), -1, G)):
            for term, pairs, mean in zip(self.terms, per_term, read_means):
                worst = float(mean.max())
                if (worst, -r) > self.best[term][:2]:
                    gx = int(np.argmax(mean))
                    column = np.empty((S, 1))
                    at_gx = [(a[:, gx : gx + 1], b[:, gx : gx + 1]) for a, b in pairs]
                    _squared_deviation_into(column, at_gx)
                    se = float(column[:, 0].std(ddof=1) / math.sqrt(S)) if S > 1 else 0.0
                    self.best[term] = (worst, -r, se)

    def report(self) -> ErrorReport:
        if self.pending:
            raise InvalidPartitionError(
                f"the criterion was not fed the slices of grid times {sorted(self.pending)}"
            )
        best, orders = self.best, self.orders
        return ErrorReport(
            err_V_sq={c: best[0, c][0] for c in orders},
            err_Vbar_sq={c: best[1, c][0] for c in orders},
            stderr_V={c: best[0, c][2] for c in orders},
            stderr_Vbar={c: best[1, c][2] for c in orders},
            mesh_size=self.partition.mesh_size,
            samples=self.S,
        )


def discrete_error(lattice: SolutionLattice, reference, M: int | None = None) -> ErrorReport:
    """Discrete squared-error criterion of the lattice against a reference.

    reference: a ProblemSpec carrying an analytic reference (evaluated along
    the lattice's sample paths) or another SolutionLattice on the same spatial
    grid whose time grid contains this lattice's grid times.  The stored
    slices 0..n0-1 are fed to the criterion in time order, each derived once.
    """
    criterion = _Criterion(
        reference, lattice.partition, lattice.paths, lattice.M,
        lattice.config.paper_literal_stencil, M,
    )
    for j in range(lattice.partition.n0):
        criterion.feed(j, lattice.stacks(lattice.V, j), lattice.stacks(lattice.Vbar, j))
    return criterion.report()


def _streamed_error(spec, partition, config, reference, paths=None) -> ErrorReport:
    """Criterion of a solve against the reference, fed each slice as the
    backward march makes it, so no slice is stored; without paths the
    solve's own are simulated.
    """
    if paths is None:
        paths = simulate_increments(
            partition, spec.d, config.samples, config.seed, config.max_entries
        )
    criterion = _Criterion(
        reference, partition, paths, _resolve_order(spec, config), config.paper_literal_stencil
    )
    solve(spec, partition, config, paths, observe=criterion.feed)
    return criterion.report()


# ---------------------------------------------------------------------------
# Convergence studies
# ---------------------------------------------------------------------------

DEGENERATE_FLOOR = 1e-16


@dataclass(frozen=True)
class ConvergenceFit:
    points: tuple[tuple[float, float], ...]  # (mesh_size, total error)
    slope: float | None
    intercept: float | None
    residuals: tuple[float, ...]
    degenerate: bool
    reports: tuple[ErrorReport, ...]


def fit_loglog(points) -> tuple[float | None, float | None, tuple[float, ...], bool]:
    """Least-squares slope of log(err) vs log(mesh); degenerate if errs vanish."""
    meshes = np.array([m for m, _ in points])
    errs = np.array([e for _, e in points])
    if np.all(errs < DEGENERATE_FLOOR):
        return None, None, (), True
    if np.any(errs <= 0):
        raise InvalidPartitionError("cannot fit a rate through zero/negative errors")
    lx, ly = np.log(meshes), np.log(errs)
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    return float(slope), float(intercept), tuple(float(r) for r in resid), False


def convergence_study(
    spec: ProblemSpec,
    partitions,
    config: SolverConfig,
) -> ConvergenceFit:
    """Solve on each partition (same samples and seed) and fit the error rate.

    Each level simulates its paths, and its criterion against the analytic
    reference is fed by the backward march, so no level's lattice is stored.
    """
    partitions = list(partitions)
    if len(partitions) < 3:
        raise InvalidPartitionError("need at least 3 partition levels for a rate fit")
    meshes = [p.mesh_size for p in partitions]
    if not all(a > b for a, b in zip(meshes, meshes[1:])):
        raise InvalidPartitionError("partition mesh sizes must decrease strictly")
    if spec.analytic_reference is None:
        raise ReferenceRequiredError(
            f"convergence_study needs an analytic reference; {spec.name!r} has none"
        )
    reports = [_streamed_error(spec, part, config, spec) for part in partitions]
    points = [(part.mesh_size, report.total) for part, report in zip(partitions, reports)]
    slope, intercept, resid, degenerate = fit_loglog(points)
    return ConvergenceFit(
        points=tuple(points),
        slope=slope,
        intercept=intercept,
        residuals=resid,
        degenerate=degenerate,
        reports=tuple(reports),
    )


def compare_algorithms(
    spec: ProblemSpec,
    partition: Partition,
    config: SolverConfig,
    paths: BrownianPaths | None = None,
) -> ErrorReport:
    """Criterion-style discrepancy between the two schemes on shared paths:
    algorithm two's lattice is stored, and algorithm one's slices are fed to
    the criterion against it as they are made.
    """
    if paths is None:
        paths = simulate_increments(partition, spec.d, config.samples, config.seed, config.max_entries)
    lat_two = solve(spec, partition, replace(config, algorithm="two"), paths)
    return _streamed_error(spec, partition, replace(config, algorithm="one"), lat_two, paths)


def reference_step_residual(
    spec: ProblemSpec,
    partition: Partition,
    config: SolverConfig,
    j0: int | None = None,
    paths: BrownianPaths | None = None,
) -> float:
    """Residual of one implicit-form backward step applied to the reference.

    Plugs the analytic reference into
        V(t_{j0-1}) - E[V(t_j0)|F] - dt * L(t_{j0-1}, x, V(t_{j0-1}))
    (order-zero component, max-abs over samples and grid) and returns it.
    Consistency of the scheme means this shrinks with the mesh.
    """
    if spec.analytic_reference is None:
        raise ReferenceRequiredError(f"{spec.name!r} has no analytic reference")
    M = _resolve_order(spec, config)
    j0 = partition.n0 if j0 is None else j0
    if paths is None:
        paths = simulate_increments(partition, spec.d, config.samples, config.seed, config.max_entries)
    est = ConditionalEstimator(config.estimator, paths)
    lit = config.paper_literal_stencil
    v_next, _ = _reference_stacks(spec, partition, paths, j0, M, lit)
    v_prev, vbar_prev = _reference_stacks(spec, partition, paths, j0 - 1, M, lit)
    zkey = zero_key(spec.p)
    cond = est.cond_mean(v_next[zkey], j0)
    dt = float(partition.time_increments[j0 - 1])
    args = operator_arguments(
        float(partition.time_points[j0 - 1]), partition, v_prev, vbar_prev, spec.k, spec.m
    )
    residual = v_prev[zkey] - cond - dt * evaluate_driver(spec, args)
    return float(np.max(np.abs(residual)))


# ---------------------------------------------------------------------------
# Time-increment regularity
# ---------------------------------------------------------------------------


def increment_regularity(lattice: SolutionLattice, M: int | None = None):
    """Mean squared sup-norm increments E max|V(t)-V(s)|^2 over grid lags.

    Returns (lags, moments, slope) with one entry per ordered grid-time pair
    drawn from the stored slices 0..n0-1 and a log-log least-squares slope.
    """
    M = lattice.M if M is None else M
    p = lattice.spec.p
    n0 = lattice.partition.n0
    times = lattice.partition.time_points
    S = lattice.sample_count
    V = lattice.stacks(lattice.V)
    lags, moments = [], []
    for j1 in range(n0):
        for j2 in range(j1 + 1, n0):
            worst = None
            for c in range(M + 1):
                for idx in enumerate_multi_indices(c, p).indices:
                    diff = np.abs(V[(c, idx)][:, j2] - V[(c, idx)][:, j1])
                    diff = diff.reshape(S, -1).max(axis=1)
                    worst = diff if worst is None else np.maximum(worst, diff)
            lags.append(float(times[j2] - times[j1]))
            moments.append(float((worst**2).mean()))
    lags = np.array(lags)
    moments = np.array(moments)
    good = moments > 0
    if good.sum() < 2:
        return lags, moments, None
    slope = float(np.polyfit(np.log(lags[good]), np.log(moments[good]), 1)[0])
    return lags, moments, slope


# ---------------------------------------------------------------------------
# First-order Malliavin diagnostic
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MalliavinSystem:
    """Linear backward system for the Malliavin derivative at one branch time.

    Coefficients are the operator Jacobians frozen along the base solve's
    sample paths; the terminal condition is the gradient of the terminal field
    in the terminal Brownian state.
    """

    theta_index: int
    terminal: np.ndarray  # (S,) + grid + (q, d)
    coefficients: dict[int, OperatorJacobians]  # time index -> Jacobians

    def __post_init__(self):
        if self.theta_index not in self.coefficients:
            raise InvalidPartitionError(f"theta index {self.theta_index} outside the time grid")


@dataclass
class MalliavinLattice:
    """D_theta V and D_theta Vbar on the solution lattice; zero before theta.

    Like the base lattice's fields they hold order zero only; the base
    lattice's `stacks` derives their higher orders.  They share its layout:
    logical shape (S, n0+1) + grid + components, stored time-major, so each
    slice is contiguous, the slices before theta are never written, and a
    whole-lattice `reshape` copies.
    """

    theta_index: int
    partition: Partition
    D_V: dict[StackKey, np.ndarray]  # order zero: (S, n0+1) + grid + (q, d)
    D_Vbar: dict[StackKey, np.ndarray]  # order zero: (S, n0+1) + grid + (q, d, d)


def _terminal_gradient(spec: ProblemSpec, base: SolutionLattice, h: float = 1e-6) -> np.ndarray:
    part = base.partition
    S = base.sample_count
    w_T = base.paths.W[:, -1, :].reshape(S, *([1] * part.p), spec.d)
    if spec.terminal_w_gradient is not None:
        g = spec.terminal_w_gradient(part.points, w_T)
        return np.broadcast_to(
            np.asarray(g, dtype=float), (S,) + part.grid_shape + (spec.q, spec.d)
        ).copy()
    grad = np.empty((S,) + part.grid_shape + (spec.q, spec.d))
    for i in range(spec.d):
        step = h * np.maximum(1.0, np.abs(w_T[..., i]))
        up = w_T.copy()
        dn = w_T.copy()
        up[..., i] += step
        dn[..., i] -= step
        diff = (spec.terminal(part.points, up) - spec.terminal(part.points, dn))
        grad[..., i] = diff / (2.0 * step)[..., None]
    return grad


def build_malliavin_system(
    spec: ProblemSpec, base: SolutionLattice, theta_index: int
) -> MalliavinSystem:
    """The linear system at one branch time: the terminal gradient, and the
    operator Jacobians frozen along the base solve at every grid time.
    """
    part = base.partition
    coefficients = {}
    for j in range(part.n0 + 1):
        v, vbar = base.stacks(base.V, j), base.stacks(base.Vbar, j)
        args = operator_arguments(float(part.time_points[j]), part, v, vbar, spec.k, spec.m)
        coefficients[j] = operator_jacobians(spec, args)
    return MalliavinSystem(theta_index, _terminal_gradient(spec, base), coefficients)


def _linear_driver(jac: OperatorJacobians, u_stack, ubar_stack) -> np.ndarray:
    out = None
    for key, coeff in jac.dL_dv.items():
        term = np.einsum("...rs,...sj->...rj", coeff, u_stack[key])
        out = term if out is None else out + term
    for key, coeff in jac.dL_dvbar.items():
        term = np.einsum("...rsi,...sij->...rj", coeff, ubar_stack[key])
        out = out + term
    return out


def _linear_diffusion(jac: OperatorJacobians, u_stack) -> np.ndarray:
    out = None
    for key, coeff in jac.dJ_dv.items():
        term = np.einsum("...ris,...sj->...rij", coeff, u_stack[key])
        out = term if out is None else out + term
    return out


def solve_malliavin_system(
    system: MalliavinSystem, base: SolutionLattice, *, observe=None
) -> MalliavinLattice:
    """Backward solve of the frozen linear system with the explicit scheme.

    Reuses the base solve's paths and estimator configuration; coefficients
    enter as per-sample exogenous data.  Values at grid times before the
    branch time are exactly zero.  With observe, nothing is stored, as in
    `solve`: observe(j, u_stack, ubar_stack) is handed the difference stacks
    of D_V and D_Vbar at j = n0, n0-1, ..., theta, and D_V and D_Vbar are empty.
    """
    part = base.partition
    coeffs = system.coefficients
    restencil = _restenciler(base.M, part, base.config.paper_literal_stencil)
    step = partial(
        _explicit_step,
        part,
        ConditionalEstimator(base.config.estimator, base.paths),
        restencil,
        lambda j, u_stack, ubar_stack: _linear_driver(coeffs[j], u_stack, ubar_stack),
        lambda j, u_stack: _linear_diffusion(coeffs[j], u_stack),
    )
    terminal = _terminal_stacks(system.terminal, part.n0, base.spec.d, restencil)
    D_V, D_Vbar = _march(part, system.theta_index, terminal, step, observe)
    return MalliavinLattice(
        theta_index=system.theta_index, partition=part, D_V=D_V, D_Vbar=D_Vbar
    )


def build_malliavin_lattices(
    spec: ProblemSpec,
    base: SolutionLattice,
    theta_indices=None,
) -> Iterator[tuple[int, MalliavinLattice]]:
    """Yield (theta, MalliavinLattice) for every requested branch time
    (default: 0..n0-1, in order), each solved when it is pulled.

    The terminal gradient and the frozen coefficients do not depend on theta:
    they are built once, on the first pull, as a theta = 0 system with a
    read-only terminal, and each solve runs on a copy with its own theta.
    The stream keeps no lattice it has yielded, so a consumer that drops each
    one before pulling the next holds one per-theta lattice at a time.
    """
    if theta_indices is None:
        theta_indices = range(base.partition.n0)
    system = build_malliavin_system(spec, base, 0)
    system.terminal.flags.writeable = False
    for theta in theta_indices:
        yield theta, solve_malliavin_system(replace(system, theta_index=theta), base)


# ---------------------------------------------------------------------------
# Representation identity check
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IdentityRow:
    time_index: int
    t: float
    x: tuple[float, ...]
    c: int
    multi_index: tuple[int, ...]
    component: tuple[int, int]
    mean_lhs: float
    mean_rhs: float
    var_lhs: float
    var_rhs: float
    zscore: float


@dataclass(frozen=True)
class IdentityReport:
    rows: tuple[IdentityRow, ...]
    max_abs_z: float

    def passed(self, z_tol: float = 3.0) -> bool:
        return self.max_abs_z < z_tol


def _node_moments(block: np.ndarray) -> list[tuple[float, float, float]]:
    """(mean, ddof=1 variance, fourth central moment) of each row of a
    C-contiguous (nodes, S) block; the variance and moment are 0 when S < 2.

    Each row is reduced along the last axis, the same pairwise sum that a 1-D
    reduction of that node's samples makes, so the moments are bit-identical
    to per-node reductions (reducing along axis 0 of an (S, nodes) block is not).
    """
    mean = block.mean(axis=-1)
    if block.shape[1] < 2:
        return [(m, 0.0, 0.0) for m in mean.tolist()]
    m4 = ((block - mean[:, None]) ** 4).mean(axis=-1)
    return list(zip(mean.tolist(), block.var(axis=-1, ddof=1).tolist(), m4.tolist()))


def _z(diff: float, se: float, tol: float) -> float:
    if abs(diff) <= tol:
        return 0.0  # numerically identical; float jitter is not evidence
    return diff / se if se != 0.0 else math.inf


def _moment_scale(lhs: tuple, rhs: tuple) -> float:
    (m_l, v_l, _), (m_r, v_r, _) = lhs, rhs
    return max(abs(m_l), abs(m_r), math.sqrt(v_l), math.sqrt(v_r), 1e-12)


def _moment_z(S: int, lhs: tuple, rhs: tuple, floor: float) -> float:
    """Conservative |z| of a first-two-moment comparison of two samples of
    size S, each given as (mean, ddof=1 variance, fourth central moment).
    Differences below 1e-10 of the samples' scale, floored at `floor`, count
    as float jitter.
    """
    (m_l, v_l, _), (m_r, v_r, _) = lhs, rhs
    scale = max(_moment_scale(lhs, rhs), floor)
    z_mean = _z(m_l - m_r, math.sqrt((v_l + v_r) / S), 1e-10 * scale)
    var_se = [math.sqrt(max(m4 - v**2, 0.0) / S) if S > 1 else 0.0 for _, v, m4 in (lhs, rhs)]
    z_var = _z(v_l - v_r, math.hypot(*var_se), 1e-10 * scale**2)
    return max(abs(z_mean), abs(z_var))


def _identity_rows_at(spec, base: SolutionLattice, j: int, D_V: dict) -> list:
    """The IdentityRows of grid time j, read from D_V, the difference stack of
    slice j of the theta = j Malliavin solve.

    Each (c, multi_index) entry's two sides are copied into C-contiguous
    (nodes, S) blocks, nodes ordered grid point first, then component.  A
    difference of multi-index idx amplifies the roundoff of the order-zero
    values by 1 / prod_l h_l^{idx_l}, so its rows' jitter scale is floored by
    the same node's order-zero scale times that factor.
    """
    part, t, S = base.partition, float(base.partition.time_points[j]), base.sample_count
    args = operator_arguments(t, part, base.stacks(base.V, j), {}, spec.n, -1)
    lit = base.config.paper_literal_stencil
    J_stack = difference_stack_arrays(
        evaluate_diffusion_driver(spec, args), base.M, part, batch_ndim=1, paper_literal=lit
    )
    Vbar = base.stacks(base.Vbar, j)
    coords = [tuple(x) for x in part.points.reshape(-1, spec.p).tolist()]
    rows = []
    for (c, idx), J in J_stack.items():
        lhs = _node_moments(np.ascontiguousarray(Vbar[c, idx].reshape(S, -1).T))
        rhs = _node_moments(np.ascontiguousarray((D_V[c, idx] + J).reshape(S, -1).T))
        if c == 0:  # the stack's first entry
            scale0 = [_moment_scale(left, right) for left, right in zip(lhs, rhs)]
        h_idx = math.prod(h**i for h, i in zip(part.spacings, idx))
        for node, (left, right) in enumerate(zip(lhs, rhs)):
            g, comp = divmod(node, spec.q * spec.d)
            z = _moment_z(S, left, right, scale0[node] / h_idx)
            moments = (left[0], right[0], left[1], right[1], z)
            rows.append(IdentityRow(j, t, coords[g], c, idx, divmod(comp, spec.d), *moments))
    return rows


def check_representation_identity(spec: ProblemSpec, base: SolutionLattice) -> IdentityReport:
    """Moment comparison of Vbar against the diagonal Malliavin derivative
    plus the diffusion driver, at every grid time and grid point.

    Grid time j reads slice j of the theta = j solve, the last slice that
    solve's march hands over; the solves share one theta = 0 system, as in
    `build_malliavin_lattices`, and run with an observer that keeps only that
    slice's D_V stack, so no Malliavin lattice is stored.

    Only the first two moments are compared; the underlying statement is an
    equality in distribution, and matching means and variances at every node
    already rules out sign and scaling mistakes at Monte Carlo resolution.
    """
    system = build_malliavin_system(spec, base, 0)
    system.terminal.flags.writeable = False
    rows = []
    for j in range(base.partition.n0):
        last = {}
        solve_malliavin_system(
            replace(system, theta_index=j), base,
            observe=lambda i, u_stack, ubar_stack: last.update(D_V=u_stack),
        )
        rows += _identity_rows_at(spec, base, j, last["D_V"])
    return IdentityReport(tuple(rows), max([0.0] + [abs(row.zscore) for row in rows]))
