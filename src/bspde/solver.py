"""The two completely discrete backward schemes over a Monte Carlo ensemble.

Scheme one is explicit: each step conditions the sum of the next-time value
and the drift contribution, then assembles the martingale integrand from
increment moments plus the diffusion driver.  Scheme two makes the drift
implicit at the left time point and resolves it by fixed-point iteration.
The two share everything but that step: `solve` builds the paths, the
estimator, the stencil and the terminal slice once, and marches backward with
the step that `config.algorithm` names, `_explicit_step` or `_implicit_step`.

Derivative stacks are rebuilt from the order-zero field after every update.
Because every estimator here is a linear map across the sample cross-section
applied identically at each grid point, and the difference stencils are linear
maps across grid points applied identically to each sample, the two commute:
updating order zero and re-differencing gives exactly the same stacks as
updating every order separately.  Lattices therefore store order zero only;
`SolutionLattice.stacks` derives the higher orders of one slice when something
reads them, and the export derives them one block of samples at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .errors import (
    CapacityError,
    DivergenceError,
    FixedPointDivergenceError,
    InvalidPartitionError,
    check_finite,
    check_value,
)
from .grid import Partition, StackKey, difference_stack_arrays
from .model import ProblemSpec, evaluate_diffusion_driver, evaluate_driver, zero_key
from .stochastics import (
    DEFAULT_CAPACITY,
    BrownianPaths,
    ConditionalEstimator,
    EstimatorSpec,
    simulate_increments,
)

ALGORITHMS = ("one", "two")


@dataclass(frozen=True)
class SolverConfig:
    algorithm: str = "one"
    samples: int = 1000
    estimator: EstimatorSpec = field(default_factory=EstimatorSpec)
    M: int | None = None  # None: use the problem's max operator order
    fp_tolerance: float = 1e-10
    fp_max_iters: int = 50
    seed: int = 0
    paper_literal_stencil: bool = False
    dump_coefficients: bool = False
    max_entries: int = DEFAULT_CAPACITY

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise InvalidPartitionError(f"algorithm must be one of {ALGORITHMS}")
        check_value("samples", self.samples, "integer", 1)
        if not isinstance(self.estimator, EstimatorSpec):
            raise InvalidPartitionError(f"estimator must be an EstimatorSpec, got {self.estimator!r}")
        check_value("M", self.M, "integer", 0, optional=True)
        check_value("fp_tolerance", self.fp_tolerance, "number", 0, strict=True)
        check_value("fp_max_iters", self.fp_max_iters, "integer", 1)
        check_value("seed", self.seed, "integer", 0)
        check_value("paper_literal_stencil", self.paper_literal_stencil, "flag")
        check_value("dump_coefficients", self.dump_coefficients, "flag")
        check_value("max_entries", self.max_entries, "integer", 1)


@dataclass
class SolutionLattice:
    """Per-sample, per-time, per-grid-point values of V and Vbar.

    V and Vbar hold the order-zero entry only; `stacks` derives orders 0..M.
    Reads between grid times follow the piecewise-constant convention: the
    lattice value at t in [t_{j-1}, t_j) is the slice stored at t_{j-1}.

    Each array has the logical shape (S, n0+1) + grid + components, indexed
    V[:, j] for the slice at grid time j, but is stored time-major: it is a
    view of a (n0+1, S, ...) buffer (see `_allocate`), so every time slice is
    one contiguous block, and a whole-lattice `reshape` copies.  A solve
    with an observer (see `solve`) stores nothing, and V and Vbar are empty.
    """

    spec: ProblemSpec
    partition: Partition
    paths: BrownianPaths
    config: SolverConfig
    M: int
    V: dict[StackKey, np.ndarray]  # order zero: (S, n0+1) + grid + (q,)
    Vbar: dict[StackKey, np.ndarray]  # order zero: (S, n0+1) + grid + (q, d)
    fp_iterations: list[int] = field(default_factory=list)
    coefficient_records: list | None = None

    @property
    def sample_count(self) -> int:
        return self.paths.sample_count

    def stacks(self, family: dict[StackKey, np.ndarray], j: int):
        """Difference stack, orders 0..M with this lattice's stencil, of the
        slice at grid time j of a family stored on it (V, Vbar, or a Malliavin
        lattice's D_V/D_Vbar).
        """
        if not family:
            raise InvalidPartitionError("the lattice stores no slices: it was solved with observe=")
        return self.restencil(family[zero_key(self.spec.p)][:, j])

    @property
    def restencil(self):
        """The run's map from a batch of rows to its difference stack, orders
        0..M with this lattice's stencil (see `_restenciler`)."""
        return _restenciler(self.M, self.partition, self.config.paper_literal_stencil)


def _check_capacity(spec, partition, config):
    """Refuse a stored lattice, order zero of V and Vbar, over the budget."""
    total = config.samples * (partition.n0 + 1) * partition.num_points * spec.q * (1 + spec.d)
    if total > config.max_entries:
        raise CapacityError(
            f"lattice would hold {total} float64 entries, over the budget "
            f"{config.max_entries}; reduce samples, grid, or raise max_entries"
        )


def _restenciler(M: int, partition: Partition, paper_literal: bool):
    """The map from a (rows,) + grid + components array to its difference
    stack; the rows are a slice's samples, or a block of samples by times.
    """

    def restencil(base: np.ndarray):
        return difference_stack_arrays(base, M, partition, batch_ndim=1, paper_literal=paper_literal)

    return restencil


def _terminal_stacks(field: np.ndarray, n0: int, d: int, restencil):
    """Terminal slice of a backward solve: the re-stenciled field, integrand 0."""
    check_finite(field, DivergenceError, "terminal field", f"time step j0={n0}")
    v_stack = restencil(field)
    return v_stack, {key: np.zeros(arr.shape + (d,)) for key, arr in v_stack.items()}


def terminal_stage(
    spec: ProblemSpec,
    partition: Partition,
    paths: BrownianPaths,
    M: int | None = None,
    paper_literal: bool = False,
):
    """Terminal slice: H(x, W(T)) per sample with its difference stack; Vbar = 0."""
    M = spec.M if M is None else M
    S = paths.sample_count
    w_T = paths.W[:, -1, :].reshape(S, *([1] * partition.p), spec.d)
    h = np.asarray(spec.terminal(partition.points, w_T), dtype=float)
    h = np.broadcast_to(h, (S,) + partition.grid_shape + (spec.q,)).copy()
    return _terminal_stacks(h, partition.n0, spec.d, _restenciler(M, partition, paper_literal))


def _allocate(n0: int, arr: np.ndarray) -> np.ndarray:
    """A zeroed lattice for a (S,) + slice-shape field: logical shape
    (S, n0+1) + slice shape, stored time-major as a view of a (n0+1, S) +
    slice-shape buffer.  Each time slice is contiguous, slices never written
    are never touched, and a whole-lattice `reshape` copies.
    """
    return np.moveaxis(np.zeros((n0 + 1,) + arr.shape), 0, 1)


def _march(partition: Partition, stop: int, terminal, step, observe=None):
    """Hand observe(j, v_stack, vbar_stack) the terminal stacks at j = n0,
    then those of step(j0, stacks at j0) at j0-1 for j0 = n0..stop+1.

    Returns the order-zero V and Vbar families that the default observer
    stores, in zeroed lattices whose slices before stop stay zero; with an
    observer of the caller's, both are empty.  The march holds the stacks of
    the slice the next step reads, and no others: the terminal pair is dropped
    after its first step unless the caller keeps a name for it.
    """
    v_stack, vbar_stack = terminal
    del terminal
    V, Vbar = {}, {}
    if observe is None:
        zkey = zero_key(partition.p)
        V[zkey], Vbar[zkey] = (_allocate(partition.n0, s[zkey]) for s in (v_stack, vbar_stack))

        def observe(j, v_stack, vbar_stack):
            V[zkey][:, j], Vbar[zkey][:, j] = v_stack[zkey], vbar_stack[zkey]

    observe(partition.n0, v_stack, vbar_stack)
    for j0 in range(partition.n0, stop, -1):
        v_stack, vbar_stack = step(j0, v_stack, vbar_stack)
        observe(j0 - 1, v_stack, vbar_stack)
    return V, Vbar


def _explicit_step(partition, est, restencil, drift, diffusion, j0, v_stack, vbar_stack):
    """One explicit backward step from t_j0 to t_{j0-1}, order zero re-stenciled.

    drift(j, v_stack, vbar_stack) and diffusion(j, v_stack) evaluate the
    drivers at grid time j:
      V(t_{j0-1})    = E[ V(t_j0) + L(t_j0) * dt | F_{t_{j0-1}} ]
      Vbar(t_{j0-1}) = E[ V(t_j0) dW' | F ] / dt + E[ L(t_j0) dW' | F ]
                       + J(t_{j0-1}, x, V(t_{j0-1}))
    The integrand is summed, in that order, into the estimator's fresh output,
    and L is dropped once read; no array that a driver returned or that the
    observer was handed is written.
    """
    dt = float(partition.time_increments[j0 - 1])
    zkey = zero_key(partition.p)
    L = drift(j0, v_stack, vbar_stack)
    v0 = np.multiply(L, dt, out=np.empty(v_stack[zkey].shape))
    v0 += v_stack[zkey]
    v0 = est.cond_mean(v0, j0)  # V + dt L, bitwise, in one array freed here
    check_finite(v0, DivergenceError, "solution field", f"time step j0={j0}")
    v_stack_prev = restencil(v0)
    vbar0 = est.cond_mean_times_dw(v_stack[zkey], j0)
    vbar0 /= dt
    vbar0 += est.cond_mean_times_dw(L, j0)
    del L
    vbar0 += diffusion(j0 - 1, v_stack_prev)
    check_finite(vbar0, DivergenceError, "integrand field", f"time step j0={j0}")
    return v_stack_prev, restencil(vbar0)


def _implicit_step(
    partition, est, restencil, drift, diffusion, config, fp_iterations, j0, v_stack, vbar_stack
):
    """One implicit backward step from t_j0 to t_{j0-1}; appends its
    fixed-point iteration count to fp_iterations.

    V(t_{j0-1}) solves V = E[V(t_j0)|F] + L(t_{j0-1}, x, V) * dt by fixed-point
    iteration started from the conditional mean; derivative stacks (and the
    integrand entering the driver) are refreshed every inner iterate.  Then
      Vbar(t_{j0-1}) = E[ V(t_j0) dW' | F ] / dt + J(t_{j0-1}, x, V(t_{j0-1}))
    with J evaluated at the converged V; there is no conditioned drift-times-
    increment term in this scheme.
    """
    dt = float(partition.time_increments[j0 - 1])
    zkey = zero_key(partition.p)
    cond_mean = est.cond_mean(v_stack[zkey], j0)
    v_dw = est.cond_mean_times_dw(v_stack[zkey], j0)
    v_dw /= dt

    def integrand(v):
        v_stack_prev = restencil(v)
        return v_stack_prev, v_dw + diffusion(j0 - 1, v_stack_prev)

    v = cond_mean
    for it in range(1, config.fp_max_iters + 1):
        v_stack_prev, vbar0 = integrand(v)
        v_new = np.multiply(drift(j0 - 1, v_stack_prev, restencil(vbar0)), dt, out=np.empty(v.shape))
        v_new += cond_mean
        residual = float(np.max(np.abs(delta := v_new - v, out=delta)))
        del delta
        if not np.isfinite(residual):  # as it is when v_new is not
            check_finite(v_new, DivergenceError, "implicit-stage iterate", f"time step j0={j0}")
        v = v_new
        if it == 1:
            first_residual = residual
        if residual < config.fp_tolerance or residual > 1e6 * max(first_residual, 1.0):
            break
    if residual >= config.fp_tolerance:
        raise FixedPointDivergenceError(
            f"implicit stage did not converge at step j0={j0}: last residual "
            f"{residual:.3e} after {it} iterations; the iteration contracts "
            f"only when (driver Lipschitz constant) * dt < 1, shrink dt"
        )
    fp_iterations.append(it)

    v_stack_prev, vbar0 = integrand(v)
    check_finite(vbar0, DivergenceError, "integrand field", f"time step j0={j0}")
    return v_stack_prev, restencil(vbar0)


def _operators(spec: ProblemSpec, partition: Partition):
    """The problem's drift and diffusion drivers as callables of (j, stacks)."""
    times = partition.time_points

    def drift(j, v_stack, vbar_stack):
        return evaluate_driver(spec, float(times[j]), partition.points, v_stack, vbar_stack)

    def diffusion(j, v_stack):
        return evaluate_diffusion_driver(spec, float(times[j]), partition.points, v_stack)

    return drift, diffusion


def _setup(spec: ProblemSpec, partition: Partition, config: SolverConfig, paths=None):
    """A run's (M, restencil, paths), refused on a grid whose spatial dimension
    is not the problem's: its lattice order M, refused below the operators'
    orders; its stencil map (see `_restenciler`); and its paths, drawn from
    config when none are given, refused when they carry another sample count,
    Brownian dimension or time grid."""
    if spec.p != partition.p:
        raise InvalidPartitionError(f"problem {spec.name!r} has p={spec.p}, the grid p={partition.p}")
    M = spec.M if config.M is None else config.M
    if M < spec.M:
        raise InvalidPartitionError(
            f"lattice order M={M} is below the operators' requirement {spec.M}"
        )
    if paths is None:
        paths = simulate_increments(partition, spec.d, config.samples, config.seed, config.max_entries)
    if paths.sample_count != config.samples:
        raise InvalidPartitionError(
            f"paths carry {paths.sample_count} samples, config expects {config.samples}"
        )
    times = paths.partition.time_points, partition.time_points
    if paths.d != spec.d or not np.array_equal(*times):
        paths_grid, grid = (np.array2string(t, precision=6, threshold=8) for t in times)
        raise InvalidPartitionError(
            f"paths were simulated with d={paths.d} on the time grid {paths_grid}, "
            f"the solve needs d={spec.d} on {grid}"
        )
    return M, _restenciler(M, partition, config.paper_literal_stencil), paths


def solve(
    spec: ProblemSpec,
    partition: Partition,
    config: SolverConfig,
    paths: BrownianPaths | None = None,
    *,
    observe=None,
    estimator: ConditionalEstimator | None = None,
) -> SolutionLattice:
    """Solve with config.algorithm's backward step, :func:`_explicit_step` for
    "one" and :func:`_implicit_step` for "two", and store every slice's order zero.

    With observe, nothing is stored: observe(j, v_stack, vbar_stack) is
    called with the difference stacks (orders 0..M) of each slice as the
    backward march makes it, j = n0, n0-1, ..., 0, and the returned lattice's
    V and Vbar are empty.  The stacks are not written afterwards, so the
    observer may keep them; the march itself drops each slice once the next
    step has read it.  The capacity budget is checked against the lattice
    only when it is stored; the paths are checked either way.  Given paths
    must match config.samples, spec.d and the partition's time grid.  Given
    an estimator, bound to these paths and built for config.estimator, the
    solve conditions with it, so solves on the same paths share each index's
    basis and factor; the lattice's coefficient records are then its records.
    """
    if observe is None:
        _check_capacity(spec, partition, config)
    M, restencil, paths = _setup(spec, partition, config, paths)
    est = estimator or ConditionalEstimator(config.estimator, paths, config.dump_coefficients)
    if est.paths is not paths or est.spec != config.estimator:
        raise InvalidPartitionError("the estimator is bound to other paths or to another EstimatorSpec")
    fp_iterations = []
    kernel = (partition, est, restencil, *_operators(spec, partition))
    if config.algorithm == "one":
        step = partial(_explicit_step, *kernel)
    else:
        step = partial(_implicit_step, *kernel, config, fp_iterations)
    V, Vbar = _march(
        partition, 0, terminal_stage(spec, partition, paths, M, config.paper_literal_stencil),
        step, observe,
    )
    return SolutionLattice(
        spec=spec, partition=partition, paths=paths, config=config, M=M,
        V=V, Vbar=Vbar, fp_iterations=fp_iterations, coefficient_records=est.records,
    )


# ---------------------------------------------------------------------------
# Lattice export
# ---------------------------------------------------------------------------


_SAMPLE = "\0"  # a row template's sample slot: no number, comma or tag holds it

# Order-zero entries per block of samples whose stack the export derives at
# once: its working set beyond the stored lattice is one block's stack.
_EXPORT_BLOCK_ENTRIES = 1 << 15


def _format(v: float) -> str:
    return format(v, ".17g")


def export_lattice_csv(lattice: SolutionLattice, v_path, vbar_path) -> None:
    """Write the full lattice, every order, as CSV.

    Solution columns: sample, j, t, x1..xp, c, multi_index, component, value.
    The companion integrand file adds a dcomponent column.
    """
    q, d = lattice.spec.q, lattice.spec.d
    _write_family(lattice, lattice.V, v_path, "component", [f"{r}" for r in range(q)])
    _write_family(
        lattice, lattice.Vbar, vbar_path, "component,dcomponent",
        [f"{r},{i}" for r in range(q) for i in range(d)],
    )


def _row_template(middles: list[str]) -> str:
    """One sample's rows as a single `%` template.  Each row is the sample
    slot `_SAMPLE`, its middle with any `%` escaped, and a `%.17g` value
    field, so `template.replace(_SAMPLE, str(s)) % values` formats a whole
    sample in C, with the bytes of `format(v, ".17g")` per value.
    """
    if any(_SAMPLE in mid for mid in middles):
        raise ValueError(f"a CSV row holds the sample slot {_SAMPLE!r}")
    return "".join(f"{_SAMPLE}{mid.replace('%', '%%')}%.17g\n" for mid in middles)


def _write_family(lattice: SolutionLattice, family, path, comp_header: str, comps) -> None:
    """One family's CSV: for each stack entry, one write per sample, whose rows
    run over time, grid point and component in that order.  The entry is
    derived one block of samples at a time, the block's order zero taken as a
    batch of (sample, time) rows, so no order is copied or derived whole; an
    order-c entry is derived with the order-c stencil map, the same chain of
    parents as the run's, and no entry of a higher order.
    """
    part = lattice.partition
    times = [_format(t) for t in part.time_points]
    coords = [",".join(_format(x) for x in pt) for pt in part.points.reshape(-1, part.p)]
    header_x = ",".join(f"x{l+1}" for l in range(part.p))
    # one sample's stack names the keys; a lattice solved with observe= is refused
    keys = sorted(lattice.stacks({key: arr[:1] for key, arr in family.items()}, 0))
    base, literal = family[zero_key(part.p)], lattice.config.paper_literal_stencil
    rows = max(1, _EXPORT_BLOCK_ENTRIES // base[0].size)
    with open(path, "w") as fh:
        fh.write(f"sample,j,t,{header_x},c,multi_index,{comp_header},value\n")
        for key in keys:
            c, idx = key
            restencil, tag = _restenciler(c, part, literal), "-".join(map(str, idx))
            # the row between the sample and the value, in the array's own order
            template = _row_template([
                f",{j},{t},{xs},{c},{tag},{comp},"
                for j, t in enumerate(times) for xs in coords for comp in comps
            ])
            for lo in range(0, lattice.sample_count, rows):
                block = base[lo : lo + rows]
                entry = restencil(block.reshape((-1,) + block.shape[2:]))[key]
                for s, values in enumerate(entry.reshape(len(block), -1), lo):
                    fh.write(template.replace(_SAMPLE, str(s)) % tuple(values.tolist()))
