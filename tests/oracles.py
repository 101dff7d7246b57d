"""Test oracles: a brute-force conditional expectation that the two
estimators are checked against, and a measure-preserving rearrangement of
future increments that adaptedness is checked with.  Neither is a step of
the schemes, so neither lives in the package."""

import math

import numpy as np

from bspde import BrownianPaths, CapacityError, InvalidPartitionError
from bspde.errors import check_value
from bspde.stochastics import DEFAULT_CAPACITY, _standard_normals


def permute_future_increments(paths: BrownianPaths, from_step: int, permutation) -> BrownianPaths:
    """Rearrange increments at steps > from_step across samples.

    The rearrangement is measure preserving, so values computed at or before
    t_{from_step} by an adapted scheme must not change; tests use this to
    assert the schemes never peek at later increments.  W up to t_{from_step}
    is kept bitwise; each later state adds the permuted row's rise since then.
    A permutation that is not one of 0..S-1, or a from_step outside 0..n0,
    would not preserve the measure and is refused.
    """
    S, n0, permutation = paths.sample_count, paths.partition.n0, np.asarray(permutation)
    if check_value("from_step", from_step, "integer", 0) > n0:
        raise InvalidPartitionError(f"need from_step <= n0 = {n0}, got {from_step!r}")
    if permutation.shape != (S,) or permutation.dtype.kind not in "iu" or np.any(np.sort(permutation) != range(S)):
        raise InvalidPartitionError(f"permutation must be a permutation of 0..{S - 1}")
    w = paths.W.copy()
    future = paths.W[permutation, from_step:]
    w[:, from_step + 1 :] = w[:, from_step : from_step + 1] + (future[:, 1:] - future[:, :1])
    w.setflags(write=False)
    return BrownianPaths(partition=paths.partition, d=paths.d, seed=paths.seed, W=w)


def condexp_nested(
    target_functional,
    states: np.ndarray,
    variance: float,
    inner_count: int,
    seed: int,
    max_entries: int = DEFAULT_CAPACITY,
):
    """Brute-force conditional expectation by branching fresh continuations.

    For each outer state w the functional is averaged over inner draws
    w + Z with Z ~ N(0, variance * I_d); unbiased for E[f(W_end) | W_branch=w]
    whenever the target depends on the continuation only through its endpoint.
    Returns (estimate, stderr), each (S,); stderr is 0 when inner_count is 1.
    """
    if not 0 <= check_value("variance", variance, "number") < math.inf:
        raise InvalidPartitionError(f"variance must be finite and >= 0, got {variance!r}")
    check_value("inner_count", inner_count, "integer", 1)
    check_value("seed", seed, "integer", 0)
    states = np.asarray(states, dtype=float)
    if states.ndim == 1:
        states = states[:, None]
    S, d = states.shape
    if S * inner_count * d > max_entries:
        raise CapacityError(
            f"S*inner*d = {S * inner_count * d} exceeds the capacity budget {max_entries}"
        )
    z = _standard_normals(seed, (S, inner_count, d))
    z *= math.sqrt(variance)
    branched = states[:, None, :] + z
    values = np.asarray(target_functional(branched), dtype=float)
    est = values.mean(axis=1)
    stderr = values.std(axis=1, ddof=1) / math.sqrt(inner_count) if inner_count > 1 else np.zeros_like(est)
    return est, stderr
