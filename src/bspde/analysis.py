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
backward march makes it (`solve(..., observe=...)`), so neither stores a
lattice: the comparison steps algorithm one inside algorithm two's solve,
against algorithm two's two latest slices.  The reference at t_j is built
once and serves both read points there, "at t_j" against slice j and "just
before t_j" against slice j-1.  The per-sample deviation is the squared
difference, reduced over components with max.  The sample means of both read points are
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

from .errors import InvalidPartitionError, OperatorEvaluationError, ReferenceRequiredError
from .errors import check_finite, check_value
from .grid import Partition, StackKey, difference_stack_arrays, enumerate_multi_indices
from .model import (
    OperatorJacobians,
    ProblemSpec,
    central_jacobian,
    evaluate_diffusion_driver,
    evaluate_driver,
    operator_jacobians,
    zero_key,
)
from .solver import (
    SolutionLattice,
    SolverConfig,
    _explicit_step,
    _march,
    _operators,
    _setup,
    _terminal_stacks,
    solve,
)
from .stochastics import BrownianPaths, ConditionalEstimator, simulate_increments


# ---------------------------------------------------------------------------
# References
# ---------------------------------------------------------------------------


def _reference_stacks(spec, partition, paths, j: int, restencil):
    """Analytic reference at grid time j along the paths, on the partition's
    horizon, with the run's difference stacks."""
    S = paths.sample_count
    w = paths.W[:, j, :].reshape(S, *([1] * partition.p), spec.d)
    V, Vbar = spec.analytic_reference(float(partition.time_points[j]), partition.T, partition.points, w)
    shape = (S,) + partition.grid_shape + (spec.q,)
    V, Vbar = np.asarray(V, dtype=float), np.asarray(Vbar, dtype=float)
    # only a broadcast result is copied out; the stacks are never written
    if V.shape != shape:
        V = np.broadcast_to(V, shape).copy()
    if Vbar.shape != shape + (spec.d,):
        Vbar = np.broadcast_to(Vbar, shape + (spec.d,)).copy()
    return restencil(V), restencil(Vbar)


def _reference_reader(reference, partition: Partition, paths, restencil, M: int):
    """(key, derive) reads of a reference: `key(j, left)` names the reference
    slice read at grid time j (just before it when left is true) and
    `derive(key)` builds that slice's V and Vbar stacks; reads that share a
    key share one derivation.

    A ProblemSpec's continuous-time reference is evaluated along the run's own
    paths and differenced with the run's stencil; another SolutionLattice
    (same spatial grid, compatible time grid) is read through its own stacks;
    a dict maps grid times of the run's own grid to their (V, Vbar) stacks.
    A lattice is refused unless it carries orders 0..M and the run's samples.
    """
    if isinstance(reference, dict):
        return (lambda j, left: j - left), reference.__getitem__
    if isinstance(reference, ProblemSpec):
        if reference.analytic_reference is None:
            raise ReferenceRequiredError(
                f"problem {reference.name!r} does not supply an analytic reference"
            )
        # the reference is continuous in time: its left limit is its value
        return (lambda j, left: j), partial(
            _reference_stacks, reference, partition, paths, restencil=restencil
        )
    if not isinstance(reference, SolutionLattice):
        raise InvalidPartitionError(
            "reference must be a SolutionLattice, a dict of slices or a ProblemSpec "
            "with analytic_reference"
        )
    if reference.partition.grid_shape != partition.grid_shape:
        raise InvalidPartitionError("reference lattice must share the spatial grid")
    if reference.M < M or reference.sample_count != paths.sample_count:
        raise InvalidPartitionError(f"reference lattice needs order >= M={M} and {paths.sample_count} "
                                    f"samples, has {reference.M} and {reference.sample_count}")
    ref_times = reference.partition.time_points
    index_map = []
    for t in partition.time_points:
        hits = np.where(np.isclose(ref_times, t, rtol=0, atol=1e-12))[0]
        if hits.size != 1:
            raise InvalidPartitionError(
                f"reference time grid does not contain t={t}; refine by integer factors"
            )
        index_map.append(int(hits[0]))

    def derive(ref_j: int):
        return reference.stacks(reference.V, ref_j), reference.stacks(reference.Vbar, ref_j)

    # piecewise-constant extension: value just before t_j is the previous slice
    return (lambda j, left: index_map[j] - left), derive


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
        for key in ((c, idx) for idx in enumerate_multi_indices(c, p))
    ]


def _deviation_into(out: np.ndarray, pairs) -> None:
    """out[...] = per-sample max-abs difference over entry pairs and components,
    shape (rows, G); a lone single-component pair keeps its sign, which the
    square hides.  Squares are monotone, so its square is the max of the squares.
    """
    if len(pairs) == 1 and pairs[0][0].shape[-1] == 1:
        np.subtract(pairs[0][0][..., 0], pairs[0][1][..., 0], out=out)
        return
    for n, (ref, lat) in enumerate(pairs):
        dev = ref - lat
        dev = np.abs(dev, out=dev).max(axis=-1)
        if n == 0:
            out[...] = dev
        else:
            np.maximum(out, dev, out=out)


def _sample_means(term_pairs, S: int, G: int) -> np.ndarray:
    """Sample means of the squared deviations of every term, given as its
    list of entry pairs, shape (len(term_pairs), G).

    The samples are taken in chunks small enough to stay in cache.  A chunk
    holds one sample per row, with the terms interleaved innermost so that
    each term's (samples, G) block is written in one strided pass, and row 0
    carries the running sums.  A copy of the rows with 1.0 in row 0 makes one
    einsum square and add each column's samples one after another onto its
    sum, exactly as a mean over the whole sample axis does; it runs in that
    order because there are always at least two columns (two families).
    """
    rows = min(S, max(1, _CHUNK_ENTRIES // (len(term_pairs) * G)))
    block, weights = np.empty((2, rows + 1, G * len(term_pairs)))
    weights[0], sums = 1.0, np.zeros(block.shape[1])
    for lo in range(0, S, rows):
        n = min(rows, S - lo)
        for k, pairs in enumerate(term_pairs):
            chunk = [(r[lo : lo + n], l[lo : lo + n]) for r, l in pairs]
            _deviation_into(block[1 : n + 1, k :: len(term_pairs)], chunk)
        block[0], weights[1 : n + 1] = sums, block[1 : n + 1]
        np.einsum("ij,ij->j", block[: n + 1], weights[: n + 1], out=sums)  # einsum zeroes out first
    return (sums.reshape(G, -1) / S).T


class _Criterion:
    """The discrete error criterion, fed the lattice one slice at a time.

    `feed(j, v_stack, vbar_stack)` takes the difference stacks of the slice
    at grid time j.  Slices come one grid time apart, in either time order;
    the terminal slice n0, which is never read, may be fed or left out.
    Grid time j reads slices j-1 and j (those in 0..n0-1) and is evaluated as
    soon as both have arrived, so only the last slice fed is kept for the
    next: a two-slice window.  After its evaluation, grid time j keeps only
    the reference slices that a neighbouring grid time still to come reads
    (none of an analytic reference or a finer lattice, slice j-1 or j of a
    reference on the run's own time grid), so no slice that the next grid
    time does not read is alive while it derives its own.  Read points are
    numbered all "at t_j" first, then all "just before t_j", and each term is
    attained at the first worst read point in that order whatever order the
    slices come in.  `report()` needs every grid time evaluated.  The terms
    are orders 0..M, and an analytic reference is differenced with
    `restencil`, the run's own stencil map.
    """

    def __init__(self, reference, partition: Partition, paths: BrownianPaths, restencil, M: int):
        self.ref_key, self.derive = _reference_reader(reference, partition, paths, restencil, M)
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
            if g in self.pending and all(s in self.window for s in (g - 1, g) if 0 <= s < n0):
                self._evaluate(g)
                self.pending.remove(g)
        self.window = {j: self.window[j]}

    def _evaluate(self, j: int) -> None:
        """Both read points of grid time j: "just before t_j" against slice j-1
        and "at t_j" against slice j, their sample means taken together."""
        part, S = self.partition, self.S
        n0, p, G = part.n0, part.p, part.num_points
        reads = [
            (r, self.ref_key(j, left), j_st)
            for r, left, j_st in ((n0 + j - 1, True, j - 1), (j, False, j))
            if 0 <= j_st < n0
        ]
        keys = dict.fromkeys(key for _, key, _ in reads)
        self.refs = {k: self.refs[k] if k in self.refs else self.derive(k) for k in keys}
        per_read = []  # (read point, its entry pairs per term)
        for r, key, j_st in reads:
            ref_sl, lat_sl = self.refs[key], self.window[j_st]
            per_read.append((r, [_entry_pairs(ref_sl[f], lat_sl[f], c, p, G) for f, c in self.terms]))
        means = _sample_means([pairs for _, per_term in per_read for pairs in per_term], S, G)
        check_finite(means, OperatorEvaluationError, "a criterion sample mean", f"grid time j={j}")
        for (r, per_term), read_means in zip(per_read, means.reshape(len(reads), -1, G)):
            for term, pairs, mean in zip(self.terms, per_term, read_means):
                worst = float(mean.max())
                if (worst, -r) > self.best[term][:2]:
                    gx = int(np.argmax(mean))
                    column = np.empty((S, 1))
                    at_gx = [(a[:, gx : gx + 1], b[:, gx : gx + 1]) for a, b in pairs]
                    _deviation_into(column, at_gx)
                    column *= column
                    se = float(column[:, 0].std(ddof=1) / math.sqrt(S)) if S > 1 else 0.0
                    self.best[term] = (worst, -r, se)
        # keep only the slices that a neighbouring grid time still to come reads
        near = {self.ref_key(g, left) for g in (j - 1, j + 1) if g in self.pending for left in (False, True)}
        self.refs = {k: stacks for k, stacks in self.refs.items() if k in near}

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


def _lattice_order(lattice: SolutionLattice, M: int | None) -> int:
    """M, by default the lattice's order, refused outside 0..lattice.M."""
    M = lattice.M if M is None else check_value("M", M, "integer", 0)
    if M > lattice.M:
        raise InvalidPartitionError(f"M={M} exceeds the lattice order {lattice.M}")
    return M


def discrete_error(lattice: SolutionLattice, reference, M: int | None = None) -> ErrorReport:
    """Discrete squared-error criterion of the lattice against a reference.

    reference: a ProblemSpec carrying an analytic reference (evaluated along
    the lattice's sample paths) or another SolutionLattice on the same spatial
    grid whose time grid contains this lattice's grid times.  The stored
    slices 0..n0-1 are fed to the criterion in time order, each derived once.
    The criterion sums orders 0..M, at most the lattice's own order.
    """
    M = _lattice_order(lattice, M)
    criterion = _Criterion(reference, lattice.partition, lattice.paths, lattice.restencil, M)
    for j in range(lattice.partition.n0):
        criterion.feed(j, lattice.stacks(lattice.V, j), lattice.stacks(lattice.Vbar, j))
    return criterion.report()


# ---------------------------------------------------------------------------
# Convergence studies
# ---------------------------------------------------------------------------

DEGENERATE_FLOOR = 1e-16


@dataclass(frozen=True)
class ConvergenceFit:
    points: tuple[tuple[float, float], ...]  # (mesh_size, total error)
    slope: float | None
    degenerate: bool
    reports: tuple[ErrorReport, ...]


def fit_loglog(points) -> tuple[float | None, bool]:
    """(least-squares slope of log(err) vs log(mesh), False), or (None, True) if errs vanish."""
    meshes = np.array([m for m, _ in points])
    errs = np.array([e for _, e in points])
    if np.all(errs < DEGENERATE_FLOOR):
        return None, True
    if np.any(errs <= 0):
        raise InvalidPartitionError("cannot fit a rate through zero/negative errors")
    return float(np.polyfit(np.log(meshes), np.log(errs), 1)[0]), False


def convergence_study(spec: ProblemSpec, partitions, config: SolverConfig) -> ConvergenceFit:
    """Solve on each partition (same samples and seed) and fit the error rate.

    Each level's criterion against the analytic reference is fed by the backward
    march on its own paths; neither outlives the level, and no lattice is stored.
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
    reports = []
    for part in partitions:
        paths = simulate_increments(part, spec.d, config.samples, config.seed, config.max_entries)
        M, restencil, paths = _setup(spec, part, config, paths)
        criterion = _Criterion(spec, part, paths, restencil, M)
        solve(spec, part, config, paths, observe=criterion.feed)
        reports.append(criterion.report())
        del paths, criterion
    points = [(part.mesh_size, report.total) for part, report in zip(partitions, reports)]
    return ConvergenceFit(tuple(points), *fit_loglog(points), reports=tuple(reports))


def compare_algorithms(
    spec: ProblemSpec,
    partition: Partition,
    config: SolverConfig,
    paths: BrownianPaths | None = None,
) -> ErrorReport:
    """Criterion-style discrepancy of algorithm one against algorithm two on
    shared paths, marched in lockstep so that no lattice is stored: one
    algorithm-two solve's observer keeps its stacks at grid times j and j+1,
    starts algorithm one from the terminal stacks the schemes share, steps it
    j+1 -> j with algorithm two's estimator, which has made each index's basis
    and factor by then, and feeds its stacks at j to the criterion.
    """
    M, restencil, paths = _setup(spec, partition, config, paths)
    est = ConditionalEstimator(config.estimator, paths)
    step = partial(_explicit_step, partition, est, restencil, *_operators(spec, partition))
    two = {}  # algorithm two's (V stack, Vbar stack) at grid times j and j+1
    criterion = _Criterion(two, partition, paths, restencil, M)
    one = []  # algorithm one's (V stack, Vbar stack) at the last grid time

    def observe(j, v_stack, vbar_stack):
        two.pop(j + 2, None)
        two[j] = (v_stack, vbar_stack)
        one[:] = two[j] if j == partition.n0 else step(j + 1, *one)
        criterion.feed(j, *one)

    solve(spec, partition, replace(config, algorithm="two"), paths, observe=observe, estimator=est)
    return criterion.report()


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
    j0 = partition.n0 if j0 is None else j0
    if not 1 <= j0 <= partition.n0:
        raise InvalidPartitionError(f"j0 = {j0} is no backward step; need 1 <= j0 <= n0 = {partition.n0}")
    _, restencil, paths = _setup(spec, partition, config, paths)
    est = ConditionalEstimator(config.estimator, paths)
    v_next, _ = _reference_stacks(spec, partition, paths, j0, restencil)
    v_prev, vbar_prev = _reference_stacks(spec, partition, paths, j0 - 1, restencil)
    zkey = zero_key(spec.p)
    cond = est.cond_mean(v_next[zkey], j0)
    dt = float(partition.time_increments[j0 - 1])
    L = evaluate_driver(spec, float(partition.time_points[j0 - 1]), partition.points, v_prev, vbar_prev)
    residual = v_prev[zkey] - cond - dt * L
    return float(np.max(np.abs(residual)))


# ---------------------------------------------------------------------------
# Time-increment regularity
# ---------------------------------------------------------------------------


def increment_regularity(lattice: SolutionLattice, M: int | None = None):
    """Mean squared sup-norm increments E max|V(t)-V(s)|^2 over grid lags.

    Returns (lags, moments, slope) with one entry per ordered grid-time pair
    drawn from the stored slices 0..n0-1 and a log-log least-squares slope.
    """
    M = _lattice_order(lattice, M)
    p = lattice.spec.p
    n0 = lattice.partition.n0
    times = lattice.partition.time_points
    S = lattice.sample_count
    V = [lattice.stacks(lattice.V, j) for j in range(n0)]
    lags, moments = [], []
    for j1 in range(n0):
        for j2 in range(j1 + 1, n0):
            worst = None
            for c in range(M + 1):
                for idx in enumerate_multi_indices(c, p):
                    diff = np.abs(V[j2][(c, idx)] - V[j1][(c, idx)])
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

    D_V: dict[StackKey, np.ndarray]  # order zero: (S, n0+1) + grid + (q, d)
    D_Vbar: dict[StackKey, np.ndarray]  # order zero: (S, n0+1) + grid + (q, d, d)


def _terminal_gradient(base: SolutionLattice) -> np.ndarray:
    spec, part = base.spec, base.partition
    S = base.sample_count
    w_T = base.paths.W[:, -1, :].reshape(S, *([1] * part.p), spec.d)
    if spec.terminal_w_gradient is None:
        return central_jacobian(lambda w: spec.terminal(part.points, w), w_T, 1)
    g = spec.terminal_w_gradient(part.points, w_T)
    return np.broadcast_to(
        np.asarray(g, dtype=float), (S,) + part.grid_shape + (spec.q, spec.d)
    ).copy()


def build_malliavin_system(base: SolutionLattice, theta_index: int) -> MalliavinSystem:
    """The linear system of the problem base solved, at one branch time: the
    terminal gradient, read-only so that systems copied to other branch times
    can share it, and the operator Jacobians frozen along the base solve at
    every grid time.
    """
    part = base.partition
    coefficients = {
        j: operator_jacobians(
            base.spec, float(part.time_points[j]), part.points,
            base.stacks(base.V, j), base.stacks(base.Vbar, j),
        )
        for j in range(part.n0 + 1)
    }
    terminal = _terminal_gradient(base)
    terminal.flags.writeable = False
    return MalliavinSystem(theta_index, terminal, coefficients)


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
    restencil = base.restencil
    step = partial(
        _explicit_step,
        part,
        ConditionalEstimator(base.config.estimator, base.paths),
        restencil,
        lambda j, u_stack, ubar_stack: _linear_driver(coeffs[j], u_stack, ubar_stack),
        lambda j, u_stack: _linear_diffusion(coeffs[j], u_stack),
    )
    D_V, D_Vbar = _march(
        part, system.theta_index,
        _terminal_stacks(system.terminal, part.n0, base.spec.d, restencil), step, observe,
    )
    return MalliavinLattice(D_V=D_V, D_Vbar=D_Vbar)


def build_malliavin_lattices(
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
    system = build_malliavin_system(base, 0)
    for theta in theta_indices:
        yield theta, solve_malliavin_system(replace(system, theta_index=theta), base)


# ---------------------------------------------------------------------------
# Representation identity check
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IdentityRow:
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
    reduction of that node's samples makes, so the mean and variance are
    bit-identical to per-node reductions (reducing along axis 0 of an (S, nodes)
    block is not).  m4 squares the centred block twice in place, rounding
    twice where `** 4` rounds once, so its last bits may differ from `** 4`'s.
    """
    mean = block.mean(axis=-1)
    if block.shape[1] < 2:
        return [(m, 0.0, 0.0) for m in mean.tolist()]
    m4 = np.square(np.square(dev := block - mean[:, None], out=dev), out=dev).mean(axis=-1)
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


def _identity_rows_at(base: SolutionLattice, j: int, D_V: dict) -> list:
    """The IdentityRows of grid time j, read from D_V, the difference stack of
    slice j of the theta = j Malliavin solve.

    Each (c, multi_index) entry's two sides are copied into C-contiguous
    (nodes, S) blocks, nodes ordered grid point first, then component.  A
    difference of multi-index idx amplifies the roundoff of the order-zero
    values by 1 / prod_l h_l^{idx_l}, so its rows' jitter scale is floored by
    the same node's order-zero scale times that factor.
    """
    spec, part, S = base.spec, base.partition, base.sample_count
    t = float(part.time_points[j])
    diffusion = evaluate_diffusion_driver(spec, t, part.points, base.stacks(base.V, j))
    lit = base.config.paper_literal_stencil
    J_stack = difference_stack_arrays(diffusion, base.M, part, batch_ndim=1, paper_literal=lit)
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
            rows.append(IdentityRow(t, coords[g], c, idx, divmod(comp, spec.d), *moments))
    return rows


def check_representation_identity(base: SolutionLattice) -> IdentityReport:
    """Moment comparison of Vbar against the diagonal Malliavin derivative
    plus the diffusion driver, at every grid time and grid point of the
    problem base solved.

    Grid time j reads slice j of the theta = j solve, the last slice that
    solve's march hands over; the solves share one theta = 0 system, as in
    `build_malliavin_lattices`, and run with an observer that keeps only that
    slice's D_V stack, so no Malliavin lattice is stored.

    Only the first two moments are compared; the underlying statement is an
    equality in distribution, and matching means and variances at every node
    already rules out sign and scaling mistakes at Monte Carlo resolution.
    """
    system = build_malliavin_system(base, 0)
    rows = []
    for j in range(base.partition.n0):
        last = {}
        solve_malliavin_system(
            replace(system, theta_index=j), base,
            observe=lambda i, u_stack, ubar_stack: last.update(D_V=u_stack),
        )
        rows += _identity_rows_at(base, j, last["D_V"])
    return IdentityReport(tuple(rows), max([0.0] + [abs(row.zscore) for row in rows]))
