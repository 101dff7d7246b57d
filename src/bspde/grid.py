"""Tensor-product time/space partitions, multi-index bookkeeping, one-sided
difference stencils, and the weighted supremum norms built on them.

The spatial domain is a p-dimensional rectangle [0,b_1] x ... x [0,b_p]
discretized into a uniform corner lattice.  Mixed partial derivatives are
approximated by repeated first differences: forward everywhere except at the
right boundary of an axis, where a backward difference keeps the stencil
inside the lattice.  A mixed derivative of total order c is identified by a
multi-index (i_1,...,i_p) with i_1+...+i_p = c, stored in increasing order of
the polynomial key i_1 + i_2*c + ... + i_p*c^(p-1).

A derivative stack is a plain dict keyed by (order, multi-index); order zero
is the field itself.  All types here are immutable after construction and
every operation is a pure function.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import (
    InvalidDomainError,
    InvalidPartitionError,
    OrderTooHighError,
    check_value,
)

MAX_SPATIAL_DIMS = 3
MAX_DERIVATIVE_ORDER = 6

# stack entries keyed by (order, multi-index tuple)
StackKey = tuple[int, tuple[int, ...]]


@dataclass(frozen=True)
class Partition:
    """Joint time/space grid with mesh size = max over all increments; its
    horizon T is the last grid time."""

    time_points: np.ndarray  # (n0+1,), strictly increasing from 0 to T
    edges: tuple[float, ...]  # b_1..b_p
    counts: tuple[int, ...]  # n_1..n_p

    def __post_init__(self):
        t = np.asarray(self.time_points, dtype=float)
        if t.ndim != 1 or t.size < 2:
            raise InvalidPartitionError("need at least two time points")
        if not (np.all(np.diff(t) > 0) and t[0] == 0.0 and np.isfinite(t[-1])):
            raise InvalidPartitionError("time points must increase strictly from 0 to a finite T")
        if len(self.edges) != len(self.counts):
            raise InvalidPartitionError("edges and counts must have equal length")
        p = len(self.edges)
        if not 1 <= p <= MAX_SPATIAL_DIMS:
            raise InvalidPartitionError(f"spatial dimension must be 1..{MAX_SPATIAL_DIMS}, got {p}")
        for b in self.edges:
            if not check_value("edges", b, "number") > 0:
                raise InvalidDomainError(f"edge lengths must be positive, got {b}")
        for n in self.counts:
            check_value("counts", n, "integer", 1)
        t = t.copy()
        t.setflags(write=False)
        object.__setattr__(self, "time_points", t)
        object.__setattr__(self, "edges", tuple(float(b) for b in self.edges))
        object.__setattr__(self, "counts", tuple(int(n) for n in self.counts))

    @property
    def T(self) -> float:
        return float(self.time_points[-1])

    @property
    def p(self) -> int:
        return len(self.edges)

    @property
    def n0(self) -> int:
        return self.time_points.size - 1

    @cached_property
    def time_increments(self) -> np.ndarray:
        dt = np.diff(self.time_points)
        dt.setflags(write=False)
        return dt

    @cached_property
    def spacings(self) -> tuple[float, ...]:
        return tuple(b / n for b, n in zip(self.edges, self.counts))

    @cached_property
    def grid_shape(self) -> tuple[int, ...]:
        return tuple(n + 1 for n in self.counts)

    @cached_property
    def points(self) -> np.ndarray:
        """All lattice corners, shape grid_shape + (p,)."""
        axes = [np.linspace(0.0, b, n + 1) for b, n in zip(self.edges, self.counts)]
        pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
        pts.setflags(write=False)
        return pts

    @property
    def num_points(self) -> int:
        return int(np.prod(self.grid_shape))

    @cached_property
    def mesh_size(self) -> float:
        return float(max(self.time_increments.max(), max(self.spacings)))


def build_partition(T: float, n0: int, edges, counts) -> Partition:
    """Uniform time grid t_j = j*T/n0 over the rectangle given by edges/counts."""
    if not 0 < check_value("T", T, "number") < math.inf:
        raise InvalidDomainError(f"terminal time must be positive and finite, got {T}")
    check_value("n0", n0, "integer", 1)
    for name, values in (("edges", edges), ("counts", counts)):
        if not isinstance(values, (list, tuple, np.ndarray)):
            raise InvalidPartitionError(f"{name} must be a sequence, got {values!r}")
    times = np.linspace(0.0, float(T), int(n0) + 1)
    return Partition(time_points=times, edges=tuple(edges), counts=tuple(counts))


def refine_partition(partition: Partition) -> Partition:
    """Halve every increment: n0 and every spatial count double."""
    return build_partition(
        partition.T, partition.n0 * 2, partition.edges, tuple(n * 2 for n in partition.counts)
    )


def multi_index_key(idx: tuple[int, ...], c: int) -> int:
    """Polynomial ordering key i_1 + i_2*c + ... + i_p*c^(p-1)."""
    return sum(i * c**l for l, i in enumerate(idx))


@lru_cache(maxsize=None)
def enumerate_multi_indices(c: int, p: int) -> tuple[tuple[int, ...], ...]:
    """Complete, duplicate-free index set of order c in p dims: all p-tuples
    of nonnegative integers summing to c.

    Sorted by the polynomial key; ties (the key degenerates at c = 1, where
    every tuple scores 1) are broken by comparing (i_p,...,i_1), which agrees
    with the key ordering wherever the key is injective.
    """
    if c < 0 or p < 1:
        raise InvalidPartitionError(f"need c >= 0 and p >= 1, got c={c}, p={p}")
    combos = [
        idx
        for idx in itertools.product(range(c + 1), repeat=p)
        if sum(idx) == c
    ]
    combos.sort(key=lambda idx: (multi_index_key(idx, c), idx[::-1]))
    return tuple(combos)


def parent_index(idx: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    """Order-(c-1) parent and the 1-based axis whose difference produces idx.

    The lowest-numbered nonzero coordinate is decremented; this makes mixed
    derivatives reproducible even though difference operators along different
    axes only commute up to O(spacing) on non-smooth data.
    """
    for l, i in enumerate(idx):
        if i > 0:
            parent = idx[:l] + (i - 1,) + idx[l + 1 :]
            return parent, l + 1
    raise ValueError("the zero multi-index has no parent")


# ---------------------------------------------------------------------------
# Difference stencils
# ---------------------------------------------------------------------------


def _diff_along(values: np.ndarray, axis_pos: int, delta: float, paper_literal: bool) -> np.ndarray:
    """One first difference of an array along a grid axis.

    Forward at every point except the last along the axis; there a backward
    difference (f(x) - f(x-h))/h is used.  With paper_literal=True the
    boundary row instead evaluates (f(x-h) - f(x))/h, the sign-reversed form,
    which breaks affine exactness and exists only for comparison runs.
    """
    at = (slice(None),) * axis_pos
    prev, end = values[at + (slice(-2, -1),)], values[at + (slice(-1, None),)]
    last = prev - end if paper_literal else end - prev
    out = np.concatenate((np.diff(values, axis=axis_pos), last), axis=axis_pos)
    out /= delta
    return out


def difference_stack_arrays(
    values: np.ndarray,
    M: int,
    partition: Partition,
    batch_ndim: int = 0,
    paper_literal: bool = False,
) -> dict[StackKey, np.ndarray]:
    """Repeated-difference stack of a raw array.

    `values` has shape batch + grid_shape + components; the grid axes start at
    position batch_ndim.  Returns entries for every order c in 0..M keyed by
    (c, multi-index), each the stencil derivative of its unique parent.
    """
    p = partition.p
    if values.shape[batch_ndim : batch_ndim + p] != partition.grid_shape:
        raise InvalidPartitionError("array grid axes do not match the partition")
    if M > MAX_DERIVATIVE_ORDER:
        raise OrderTooHighError(f"derivative order {M} exceeds supported bound {MAX_DERIVATIVE_ORDER}")
    if M >= 2 * max(partition.counts):
        raise OrderTooHighError(
            f"order {M} violates the bound M < 2*max(n_l) = {2 * max(partition.counts)}"
        )
    stack: dict[StackKey, np.ndarray] = {(0, (0,) * p): values}
    for c in range(1, M + 1):
        for idx in enumerate_multi_indices(c, p):
            parent, axis = parent_index(idx)
            src = stack[(c - 1, parent)]
            stack[(c, idx)] = _diff_along(
                src, batch_ndim + axis - 1, partition.spacings[axis - 1], paper_literal
            )
    return stack


def _stack_order(stack: dict[StackKey, np.ndarray]) -> int:
    """Highest derivative order present in a difference stack."""
    return max(c for c, _ in stack)


def _order_maxima(stack: dict[StackKey, np.ndarray], k: int, name: str) -> list[float]:
    """Max absolute entry value of each order 0..k; k (called name) is refused above M."""
    M = _stack_order(stack)
    if k > M:
        raise OrderTooHighError(f"{name}={k} exceeds the stack's order M={M}")
    maxima = [0.0] * (k + 1)
    for (c, _), entry in stack.items():
        if c <= k:
            maxima[c] = max(maxima[c], float(np.max(np.abs(entry))))
    return maxima


def ck_norm(stack: dict[StackKey, np.ndarray], k: int) -> float:
    """Max absolute entry value over orders 0..k, all indices, components, points."""
    return max(_order_maxima(stack, k, "k"))


@dataclass(frozen=True)
class NormWeights:
    """Fast-decaying weights xi(c) = 1 / ((c^10)! * eta(c)! * e^c).

    eta(c) = B^c with B = 1 + floor(max_{x in D} sum |x_l|).  The factorial
    (c^10)! overflows every float format already at c = 2, so the weights are
    kept in log space; xi(c) underflows to exactly 0.0 there, which makes the
    truncated norm numerically dominated by orders c <= 1.
    """

    c_max: int
    log_xi: np.ndarray
    xi: np.ndarray
    eta: tuple[int, ...]

    @staticmethod
    def for_domain(edges, c_max: int) -> "NormWeights":
        if c_max < 0:
            raise InvalidPartitionError(f"c_max must be >= 0, got {c_max}")
        max_abs_sum = float(sum(abs(b) for b in edges))
        B = 1 + math.floor(max_abs_sum)
        eta = tuple(B**c for c in range(c_max + 1))
        log_xi = np.array(
            [
                -(math.lgamma(c**10 + 1) + math.lgamma(eta[c] + 1) + c)
                for c in range(c_max + 1)
            ]
        )
        xi = np.exp(log_xi)
        log_xi.setflags(write=False)
        xi.setflags(write=False)
        return NormWeights(c_max=c_max, log_xi=log_xi, xi=xi, eta=eta)


def cinf_truncated_norm(stack: dict[StackKey, np.ndarray], weights: NormWeights) -> float:
    """sqrt( sum_{c<=c_max} xi(c) * ck_norm(stack, c)^2 ), one pass over the stack."""
    worst = itertools.accumulate(_order_maxima(stack, weights.c_max, "c_max"), max)  # ck_norm(stack, c)
    return math.sqrt(sum(float(xi) * w**2 for xi, w in zip(weights.xi, worst)))
