import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bspde import (
    InvalidDomainError,
    InvalidPartitionError,
    NormWeights,
    OrderTooHighError,
    Partition,
    build_partition,
    cinf_truncated_norm,
    ck_norm,
    difference_stack_arrays,
    enumerate_multi_indices,
    multi_index_key,
    refine_partition,
)


def field(values):
    """A scalar field on the grid, with its one-component axis."""
    return np.asarray(values, dtype=float)[..., None]


def stack_of(values, M, part, paper_literal=False):
    return difference_stack_arrays(field(values), M, part, paper_literal=paper_literal)


def first_diff(values, part, paper_literal=False):
    return stack_of(values, 1, part, paper_literal)[(1, (1,))]


# ---------------------------------------------------------------------------
# partitions
# ---------------------------------------------------------------------------


def test_build_partition_basic():
    part = build_partition(1.0, 4, [1.0], [2])
    assert np.allclose(part.time_points, [0, 0.25, 0.5, 0.75, 1.0])
    assert part.grid_shape == (3,)
    assert np.allclose(part.points[..., 0], [0, 0.5, 1.0])
    assert part.mesh_size == 0.5


def test_build_partition_two_dims():
    part = build_partition(2.0, 2, [1.0, 1.0], [1, 1])
    assert part.num_points == 4
    assert part.mesh_size == 1.0


def test_mesh_takes_max_over_time_and_space():
    part = build_partition(1.0, 8, [2.0], [4])
    assert part.spacings == (0.5,)
    assert part.mesh_size == 0.5  # max(0.125, 0.5)


def test_partition_errors():
    with pytest.raises(InvalidDomainError):
        build_partition(-1.0, 4, [1.0], [2])
    with pytest.raises(InvalidDomainError, match="positive and finite"):
        build_partition(math.inf, 4, [1.0], [2])  # its grid times would be NaN
    with pytest.raises(InvalidDomainError):
        build_partition(1.0, 4, [0.0], [2])
    with pytest.raises(InvalidPartitionError):
        build_partition(1.0, 4, [1.0], [0])
    with pytest.raises(InvalidPartitionError):
        build_partition(1.0, 0, [1.0], [2])
    with pytest.raises(InvalidPartitionError):
        build_partition(1.0, 4, [1.0] * 4, [1] * 4)
    # an integer is an integer, not an integral float or a bool
    with pytest.raises(InvalidPartitionError, match="n0 must be an integer"):
        build_partition(1.0, 2.0, [1.0], [2])
    with pytest.raises(InvalidPartitionError, match="counts must be an integer"):
        build_partition(1.0, 2, [1.0], [2.0])
    with pytest.raises(InvalidPartitionError, match="T must be a number"):
        build_partition(True, 2, [1.0], [2])
    with pytest.raises(InvalidPartitionError, match="edges must be a sequence"):
        build_partition(1.0, 2, 1.0, [2])
    # numpy scalars are integers and numbers
    part = build_partition(np.float64(1.0), np.int64(2), np.array([1.0]), np.array([2]))
    assert (part.n0, part.counts, part.edges) == (2, (2,), (1.0,))


def test_horizon_is_the_last_grid_time():
    part = build_partition(2.0, 3, [1.0], [2])
    assert part.T == part.time_points[-1] == 2.0 and refine_partition(part).T == 2.0
    with pytest.raises(AttributeError):
        part.T = 3.0
    with pytest.raises(InvalidPartitionError, match="finite T"):
        Partition(time_points=np.array([0.0, 1.0, np.inf]), edges=(1.0,), counts=(1,))


def test_partition_spacing_identity():
    part = build_partition(1.0, 3, [0.7, 1.3], [3, 7])
    for delta, b, n in zip(part.spacings, part.edges, part.counts):
        assert delta * n == pytest.approx(b, rel=1e-15)
    assert part.num_points == 4 * 8


@settings(max_examples=40, deadline=None)
@given(
    T=st.floats(0.1, 10),
    n0=st.integers(1, 12),
    edges=st.lists(st.floats(0.1, 5), min_size=1, max_size=3),
    factor=st.integers(1, 4),
)
def test_mesh_law_refinement_halves(T, n0, edges, factor):
    counts = [factor] * len(edges)
    part = build_partition(T, n0, edges, counts)
    fine = refine_partition(part)
    assert fine.mesh_size == pytest.approx(part.mesh_size / 2, rel=1e-12)
    for ds, df in zip(part.spacings, fine.spacings):
        assert df == pytest.approx(ds / 2, rel=1e-12)


# ---------------------------------------------------------------------------
# multi-indices
# ---------------------------------------------------------------------------


def test_multi_index_examples():
    assert enumerate_multi_indices(0, 3) == ((0, 0, 0),)
    mi = enumerate_multi_indices(2, 2)
    assert mi == ((2, 0), (1, 1), (0, 2))
    assert [multi_index_key(idx, 2) for idx in mi] == [2, 3, 4]
    assert len(enumerate_multi_indices(3, 2)) == math.comb(4, 1)


@settings(max_examples=60, deadline=None)
@given(c=st.integers(0, 6), p=st.integers(1, 3))
def test_multi_index_ordering_law(c, p):
    mi = enumerate_multi_indices(c, p)
    brute = {idx for idx in itertools.product(range(c + 1), repeat=p) if sum(idx) == c}
    assert set(mi) == brute
    assert len(mi) == math.comb(c + p - 1, p - 1)
    assert all(sum(idx) == c and min(idx) >= 0 for idx in mi)
    keys = [multi_index_key(idx, c) for idx in mi]
    assert keys == sorted(keys)
    assert len(set(mi)) == len(mi)


# ---------------------------------------------------------------------------
# stencils
# ---------------------------------------------------------------------------


def test_first_difference_linear_exact():
    part = build_partition(1.0, 2, [1.0], [2])
    x = part.points[..., 0]
    out = first_diff(x, part)
    assert np.array_equal(out[..., 0], np.ones(3))


def test_first_difference_constant_is_zero():
    part = build_partition(1.0, 2, [1.0], [2])
    out = first_diff(np.full(3, 4.2), part)
    assert np.array_equal(out, np.zeros((3, 1)))


def test_first_difference_quadratic_values():
    part = build_partition(1.0, 2, [1.0], [2])
    x = part.points[..., 0]
    out = first_diff(x**2, part)
    assert np.allclose(out[..., 0], [0.5, 1.5, 1.5])


def test_paper_literal_boundary_flips_sign():
    part = build_partition(1.0, 2, [1.0], [2])
    x = part.points[..., 0]
    corrected = first_diff(x, part)
    literal = first_diff(x, part, paper_literal=True)
    assert corrected[-1, 0] == 1.0
    assert literal[-1, 0] == -1.0  # the sign-reversed form breaks affine exactness
    assert np.array_equal(corrected[:-1], literal[:-1])


def test_boundary_row_is_the_subtraction_it_names():
    """Both boundary rows are subtracted as written, so a constant field gives
    +0.0 there under either stencil, never the -0.0 of a negated forward row."""
    part = build_partition(1.0, 2, [1.0], [2])
    for literal in (False, True):
        out = first_diff(np.full(3, 4.2), part, paper_literal=literal)
        assert not np.signbit(out).any()


@settings(max_examples=30, deadline=None)
@given(
    slope=st.floats(-5, 5),
    offset=st.floats(-5, 5),
    n=st.integers(1, 9),
)
def test_affine_exactness_one_dim(slope, offset, n):
    part = build_partition(1.0, 2, [1.5], [n])
    x = part.points[..., 0]
    M = min(2, 2 * n - 1)
    stack = stack_of(slope * x + offset, M, part)
    d1 = stack[(1, (1,))][..., 0]
    assert np.allclose(d1, slope, atol=1e-10 * max(1.0, abs(slope)))
    if M >= 2:
        assert np.allclose(stack[(2, (2,))], 0.0, atol=1e-9)


def test_affine_exactness_two_dims():
    part = build_partition(1.0, 2, [1.0, 2.0], [3, 2])
    pts = part.points
    vals = 2.0 * pts[..., 0] - 3.0 * pts[..., 1] + 1.0
    stack = stack_of(vals, 2, part)
    assert np.allclose(stack[(1, (1, 0))][..., 0], 2.0)
    assert np.allclose(stack[(1, (0, 1))][..., 0], -3.0)
    for idx in ((2, 0), (1, 1), (0, 2)):
        assert np.allclose(stack[(2, idx)], 0.0, atol=1e-12)


# ---------------------------------------------------------------------------
# derivative stacks
# ---------------------------------------------------------------------------


def test_stack_constant_all_orders_zero():
    part = build_partition(1.0, 2, [1.0], [4])
    stack = stack_of(np.full(5, 3.3), 2, part)
    for (c, idx), entry in stack.items():
        if c > 0:
            assert np.array_equal(entry, np.zeros_like(entry))


def test_stack_exponential_first_order_accuracy():
    part = build_partition(1.0, 2, [1.0], [4])
    x = part.points[..., 0]
    d1 = first_diff(np.exp(x), part)[..., 0]
    assert np.max(np.abs(d1[1:-1] - np.exp(x[1:-1]))) < 0.3


def test_stack_base_entry_is_field():
    part = build_partition(1.0, 2, [1.0], [2])
    f = field(np.array([1.0, 2.0, 5.0]))
    stack = difference_stack_arrays(f, 2, part)
    assert stack[(0, (0,))] is f


def test_stack_order_bound():
    part = build_partition(1.0, 2, [1.0], [2])
    with pytest.raises(OrderTooHighError):
        stack_of(np.zeros(3), 4, part)  # 4 >= 2*max(n_l)
    big = build_partition(1.0, 2, [1.0], [8])
    with pytest.raises(OrderTooHighError):
        stack_of(np.zeros(9), 7, big)  # beyond supported order


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------


def test_ck_norm_examples():
    part = build_partition(1.0, 2, [1.0], [2])
    x = part.points[..., 0]
    zero_stack = stack_of(np.zeros(3), 1, part)
    assert ck_norm(zero_stack, 1) == 0.0
    lin = stack_of(x, 1, part)
    assert ck_norm(lin, 1) == 1.0
    quad = stack_of(2 * x**2, 2, part)
    assert ck_norm(quad, 0) == 2.0
    assert ck_norm(quad, 1) == 3.0
    assert ck_norm(quad, 2) == 4.0
    with pytest.raises(OrderTooHighError):
        ck_norm(quad, 3)


def test_ck_norm_monotone_in_order():
    part = build_partition(1.0, 2, [1.0], [4])
    rng = np.random.default_rng(0)
    stack = stack_of(rng.normal(size=5), 3, part)
    norms = [ck_norm(stack, k) for k in range(4)]
    assert all(a <= b for a, b in zip(norms, norms[1:]))


def test_norm_weights_values():
    w = NormWeights.for_domain([1.0], 3)
    assert w.xi[0] == 1.0
    assert w.eta[1] == 2  # bracket of 1.0 is 2, so eta(1) = 2
    assert w.xi[1] == pytest.approx(1.0 / (2.0 * math.e), rel=1e-12)
    assert w.xi[2] == 0.0  # (2^10)! underflows any float format
    assert np.all(np.diff(w.log_xi) < 0)  # strict decay holds in log space


def test_norm_weights_decay_various_domains():
    for edges in ([0.5], [1.0, 2.0], [3.0, 0.1, 0.1]):
        w = NormWeights.for_domain(edges, 6)
        assert w.xi[0] == 1.0
        assert np.all(np.diff(w.log_xi) < 0)


def test_cinf_truncated_norm():
    part = build_partition(1.0, 2, [1.0], [2])
    weights = NormWeights.for_domain(part.edges, 1)
    zero_stack = stack_of(np.zeros(3), 1, part)
    assert cinf_truncated_norm(zero_stack, weights) == 0.0
    # the order-c norm is cumulative (max over orders <= c), so a constant
    # contributes through every weight even though its differences vanish
    const = stack_of(np.ones(3), 1, part)
    expected = math.sqrt(weights.xi[0] + weights.xi[1])
    assert cinf_truncated_norm(const, weights) == pytest.approx(expected, rel=1e-12)
    x = part.points[..., 0]
    lin = stack_of(x, 1, part)
    expected = math.sqrt(1.0 * 1.0 + weights.xi[1] * 1.0)
    assert cinf_truncated_norm(lin, weights) == pytest.approx(expected, rel=1e-12)


def test_cinf_monotone_in_truncation():
    part = build_partition(1.0, 2, [1.0], [4])
    rng = np.random.default_rng(1)
    stack = stack_of(rng.normal(size=5), 3, part)
    vals = [
        cinf_truncated_norm(stack, NormWeights.for_domain(part.edges, c))
        for c in range(4)
    ]
    assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))


def test_cinf_truncated_norm_is_its_definition_bitwise():
    # one max per order, accumulated, gives the sum over ck_norm(stack, c)^2
    # bit for bit; c_max above the stack's order is refused by its own name
    part = build_partition(1.0, 2, [0.3], [4])
    stack = stack_of(np.random.default_rng(2).normal(size=5), 3, part)
    for c_max in range(4):
        weights = NormWeights.for_domain(part.edges, c_max)
        total = 0.0
        for c in range(c_max + 1):
            total += float(weights.xi[c]) * ck_norm(stack, c) ** 2
        assert cinf_truncated_norm(stack, weights) == math.sqrt(total)
    with pytest.raises(OrderTooHighError, match="c_max=4 exceeds the stack's order M=3"):
        cinf_truncated_norm(stack, NormWeights.for_domain(part.edges, 4))
