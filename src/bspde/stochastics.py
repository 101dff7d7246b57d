"""Brownian increment simulation and conditional-expectation estimators.

Paths are generated from a counter-based Philox stream: a single canonical
pass fills the (sample, step, component) array of uniforms, which are mapped
to Gaussians by the inverse CDF.  Regenerating with the same seed is therefore
bit-identical no matter how the surrounding computation is scheduled.  Paths
keep only the states W(t_j), on which every scheme conditions; the regression
kind, the one reader of an increment dW, takes it as W(t_j0) - W(t_{j0-1}).

Estimators realize E[. | F_{t_{j0-1}}] for the backward schemes in the
space-time Hermite basis He_a(W(t), t) = prod_i t^(a_i/2) He_{a_i}(W_i / sqrt(t)),
which spans the polynomials of total degree <= degree; each is a martingale.

* ``analytic`` fits the target cross-section in the basis at the *next*
  state W(t_j0).  The conditional mean is the same coefficients on the basis
  at t_{j0-1}, and E[He_a dW_i | F] = a_i dt He_{a-e_i} (Stein's identity) is
  a coefficient shift.  For targets exactly polynomial in W(t_j0) (every
  built-in test problem) it is exact up to linear-algebra roundoff.
* ``regression`` is the usual cross-sectional least-squares projection on
  the basis at the *current* state W(t_{j0-1}), with optional ridge.

:func:`condexp_nested` brute-forces the expectation by branching fresh inner
paths.  It needs the target as a functional of the continuation, so it is an
oracle for testing the two estimators, not an estimator inside the schemes.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from numpy.linalg import lapack_lite
from numpy.random import Generator, Philox  # numpy loads numpy.random lazily: load it with the package

from .errors import CapacityError, InvalidPartitionError, SingularDesignError, check_value
from .grid import Partition

DEFAULT_CAPACITY = 1 << 27  # float64 entries, ~1 GiB
ESTIMATOR_KINDS = ("analytic", "regression")


@dataclass(frozen=True)
class BrownianPaths:
    """Brownian states W[s, j, i] at the grid times, the running sums of
    increments dW[s, j, i] ~ N(0, dt_j); an increment is W[:, j+1] - W[:, j]."""

    partition: Partition
    d: int
    seed: int
    W: np.ndarray  # (S, n0+1, d), W[:, 0] = 0

    @property
    def sample_count(self) -> int:
        return self.W.shape[0]


# Cephes ndtri (Moshier 1989), the inverse normal CDF that scipy ships.  For e^-2 < u <= 1 - e^-2 it is
# s2pi (y + y R0(y^2)), y = u - 1/2; in the tails, with y the smaller of u and 1 - u and x = sqrt(-2 log y),
# it is x - log(x) / x - R(1/x), R1 below x = 8 and R2 above, negated for u < 1/2.  Each R(v) is
# v P(v) / Q(v), and each Q is monic.
_S2PI, _EXPM2, _NDTRI_BLOCK = 2.50662827463100050242e0, 0.13533528323661269189, 1 << 14
_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
       1.39312609387279679503e1, -1.23916583867381258016e0)
_Q0 = (1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
       -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
       1.59056225126211695515e1, -1.18331621121330003142e0)
_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1, 4.40805073893200834700e1,
       1.46849561928858024014e1, 2.18663306850790267539e0, -1.40256079171354495875e-1,
       -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_Q1 = (1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
       1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
       -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0, 1.33303460815807542389e0,
       2.01485389549179081538e-1, 1.23716634817820021358e-2, 3.01581553508235416007e-4,
       2.65806974686737550832e-6, 6.23974539184983293730e-9)
_Q2 = (6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
       2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
       2.89247864745380683936e-6, 6.79019408009981274425e-9)


def _ratio(v, p, q, out, tmp):
    """out = v P(v) / Q(v), multiplied first and divided second, with Q monic, its leading 1 left out of q;
    each polynomial by Horner's rule from its first coefficient, in Cephes' order of operations."""
    np.add(np.multiply(v, p[0], out=out), p[1], out=out)
    np.add(v, q[0], out=tmp)
    for coefs, acc in ((p[2:], out), (q[1:], tmp)):
        for c in coefs:
            acc *= v
            acc += c
    out *= v
    out /= tmp
    return out


def _ndtri(u: np.ndarray) -> np.ndarray:
    """Cephes' ndtri of u in (0, 1) into a new array, in blocks of preallocated buffers small enough to stay
    in cache.  The branches and the order of operations are Cephes', so only numpy's SIMD log, which rounds a
    few inputs apart from libm's, can move a tail value's last bits."""
    out, buf = np.empty(u.shape), np.empty((5, _NDTRI_BLOCK))
    u_flat, out_flat = u.reshape(-1), out.reshape(-1)
    for lo in range(0, u.size, _NDTRI_BLOCK):
        y, x = u_flat[lo : lo + _NDTRI_BLOCK], out_flat[lo : lo + _NDTRI_BLOCK]
        half, sq, r, tmp = buf[:4, : y.size]
        # every value through the central branch; the tails then overwrite theirs
        np.subtract(y, 0.5, out=half)
        _ratio(np.multiply(half, half, out=sq), _P0, _Q0, r, tmp)
        r *= half
        r += half
        np.multiply(r, _S2PI, out=x)
        at = np.flatnonzero((y <= _EXPM2) | (y > 1.0 - _EXPM2))
        t, x0, z, r = buf[1:, : at.size]  # half stays: its sign is the tail's
        np.minimum(np.take(y, at, out=t), np.subtract(1.0, t, out=x0), out=t)
        np.log(t, out=t)
        t *= -2.0
        np.sqrt(t, out=t)
        np.subtract(t, np.divide(np.log(t, out=x0), t, out=x0), out=x0)
        far = t >= 8.0 if at.size and t.max() >= 8.0 else None
        _ratio(np.divide(1.0, t, out=z), _P1, _Q1, r, t)
        if far is not None:
            r[far] = _ratio(z[far], _P2, _Q2, *np.empty((2, np.count_nonzero(far))))
        x0 -= r
        x[at] = np.copysign(x0, np.take(half, at, out=r), out=x0)
    return out


def _standard_normals(seed: int, shape) -> np.ndarray:
    """Inverse-CDF standard normals of the Philox stream of seed.  _ndtri writes
    a new array, so the uniforms' block is freed on return; a free that large
    lets glibc serve later temporaries from its heap (in place: ~2.5x the faults)."""
    u = Generator(Philox(key=seed)).random(shape)
    # uniforms are multiples of 2^-53: this lifts only u == 0, outside _ndtri's (0, 1)
    np.maximum(u, 2.0**-54, out=u)
    return _ndtri(u)


def simulate_increments(
    partition: Partition,
    d: int,
    S: int,
    seed: int,
    max_entries: int = DEFAULT_CAPACITY,
) -> BrownianPaths:
    """Draw S independent d-dimensional paths over the partition's time grid; keep W only."""
    check_value("S", S, "integer", 1)
    check_value("d", d, "integer", 1)
    check_value("seed", seed, "integer", 0)
    n0 = partition.n0
    if S * n0 * d > max_entries:
        raise CapacityError(
            f"S*n0*d = {S * n0 * d} exceeds the capacity budget {max_entries}"
        )
    dw = _standard_normals(seed, (S, n0, d))
    dw *= np.sqrt(partition.time_increments)[None, :, None]
    w = np.zeros((S, n0 + 1, d))
    np.cumsum(dw, axis=1, out=w[:, 1:, :])
    w.setflags(write=False)
    return BrownianPaths(partition=partition, d=d, seed=seed, W=w)


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


@dataclass(frozen=True)
class EstimatorSpec:
    """Strategy for conditional expectations inside the backward schemes.

    ridge=None means the scale-free default 1e-8 * S, applied at fit time.
    """

    kind: str = "analytic"
    degree: int = 3
    ridge: float | None = None

    def __post_init__(self):
        if self.kind not in ESTIMATOR_KINDS:
            raise InvalidPartitionError(
                f"estimator kind must be one of {ESTIMATOR_KINDS}, got {self.kind!r}"
            )
        check_value("degree", self.degree, "integer", 0)
        check_value("ridge", self.ridge, "number", 0, optional=True)

    def basis_size(self, d: int) -> int:
        return math.comb(self.degree + d, d)


def monomial_exponents(degree: int, d: int) -> np.ndarray:
    """Exponent rows of the d-dimensional monomial basis of total degree <= degree,
    by total degree, each total in lexicographic order."""
    rows = [row for row in itertools.product(range(degree + 1), repeat=d) if sum(row) <= degree]
    return np.array(sorted(rows, key=sum), dtype=int)


def _design_matrix(states: np.ndarray, exponents: np.ndarray, t: float) -> np.ndarray:
    """Space-time Hermite basis (S, B) of states (S, d) = W(t): column b is
    prod_i He_{exponents[b, i]}(x_i, t), He_0 = 1, He_1 = x, He_{k+1} = x He_k - k t He_{k-1}.

    Multiplications only: each component's degrees go into contiguous rows of
    a (d, degree, S) table, and each column multiplies its nonzero-degree
    factors in component order.  At t = 0 these are the monomials x^k;
    columns of total degree 0 and 1 are exactly 1 and x.  Column-major.
    """
    degree = int(exponents.max(initial=0))
    hermite = np.empty((states.shape[1], degree, states.shape[0]))
    if degree:
        hermite[:, 0] = states.T
    for k in range(1, degree):
        np.multiply(hermite[:, k - 1], hermite[:, 0], out=hermite[:, k])
        hermite[:, k] -= k * t * hermite[:, k - 2] if k > 1 else t
    out = np.empty((exponents.shape[0], states.shape[0]))
    for column, row in zip(out, exponents):
        factors = [hermite[i, e - 1] for i, e in enumerate(row) if e]
        column[:] = factors[0] if factors else 1.0
        for factor in factors[1:]:
            column *= factor
    return out.T


def _lapack(routine, *args) -> None:
    """routine(*args, work, lwork, info) with the workspace its query asks
    for, as numpy's own QR does; a non-zero info raises LinAlgError."""
    query = np.zeros(1)
    routine(*args, query, -1, 0)
    lwork = max(1, args[1], int(query[0]))
    if info := routine(*args, np.empty(lwork), lwork, 0)["info"]:
        raise np.linalg.LinAlgError(f"LAPACK {routine.__name__} returned info={info}")


def _lowering(exponents: np.ndarray) -> np.ndarray:
    """(d, B, B) integer-valued matrices D_i, D_i[beta, alpha] = alpha_i where
    beta = alpha - e_i: the coefficients of d/dx_i in the Hermite basis."""
    index_of = {tuple(row): b for b, row in enumerate(exponents)}
    B, d = exponents.shape
    lowering = np.zeros((d, B, B))
    for a, row in enumerate(exponents):
        for i in np.flatnonzero(row):
            lowering[i, index_of[tuple(row - (np.arange(d) == i))], a] = row[i]
    return lowering


@dataclass
class CoefficientRecord:
    step: int
    # one record set per fit: the analytic kind writes "mean" per cond_mean
    # call and "dw" per cond_mean_times_dw call (one fit serves every
    # component); the regression kind writes "mean" and "dw{i}" per component
    operation: str
    column: str  # the target's flattened column index
    exponents: tuple[int, ...]
    value: float


class ConditionalEstimator:
    """Per-solve conditional-expectation engine bound to a set of paths.

    cond_mean(targets, j0)          ~ E[targets | F_{t_{j0-1}}]
    cond_mean_times_dw(targets, j0) ~ E[targets * dW_{j0,i} | F_{t_{j0-1}}],
                                      one trailing axis per component i.

    Targets carry a leading sample axis; arbitrary trailing axes are treated
    as independent regression columns, all fitted and applied in one product.
    A column constant over the samples is then overwritten with its exact
    value (c, or 0 for the dW form) and records no coefficients.  A backward
    step from t_j0 fits at index j0 and applies at j0-1, and the next step
    fits at j0-1.  Each basis is the Hermite basis at (W(t_j), t_j), so the
    recorded exponents are Hermite degrees.  The estimator holds one slot
    for a basis, one for the thin QR factor Q R of the analytic kind's fit
    basis, and one for the regression kind's normal matrix; factoring index
    j factors its basis in place, because no later step applies there.  Each
    index's basis is built once per backward march, and its factor or normal
    matrix once per fit index, however many solves share the estimator.
    """

    def __init__(
        self,
        spec: EstimatorSpec,
        paths: BrownianPaths,
        record_coefficients: bool = False,
    ):
        basis = spec.basis_size(paths.d)
        if paths.sample_count < basis:
            raise InvalidPartitionError(f"need samples >= basis size {basis} for the {spec.kind} estimator")
        self.spec = spec
        self.paths = paths
        self.exponents = monomial_exponents(spec.degree, paths.d)
        self._lowering = _lowering(self.exponents)
        self.records: list[CoefficientRecord] = [] if record_coefficients else None
        self._basis_slot: tuple[int | None, np.ndarray | None] = (None, None)
        self._factor_slot: tuple[int | None, tuple[np.ndarray | None, ...]] = (None, (None, None))
        self._gram_slot: tuple[int | None, np.ndarray | None] = (None, None)

    # -- shared helpers -----------------------------------------------------

    def _basis(self, j: int) -> np.ndarray:
        """Read-only Hermite basis at (W(t_j), t_j); replaces the one held before."""
        if self._basis_slot[0] != j:
            self._basis_slot = (None, None)  # free the old basis before building
            t = float(self.paths.partition.time_points[j])
            phi = _design_matrix(self.paths.W[:, j, :], self.exponents, t)
            phi.setflags(write=False)
            self._basis_slot = (j, phi)
        return self._basis_slot[1]

    def _factor(self, j: int) -> tuple[np.ndarray, np.ndarray]:
        """Thin QR factor (Q, R), bitwise np.linalg.qr's, of the design matrix
        at W(t_j), which it replaces.  The basis is given up and factored in
        place: its C-ordered (B, S) buffer is LAPACK's column-major (S, B),
        which dgeqrf then dorgqr overwrite.  Q is copied into the old Q's
        C-ordered buffer; only a C-ordered Q keeps later products bitwise."""
        if self._factor_slot[0] != j:
            a, (q, _) = self._basis(j).T, self._factor_slot[1]
            self._basis_slot, self._factor_slot = (None, None), (None, (None, None))
            (B, S), tau = a.shape, np.empty(len(a))
            a.setflags(write=True)
            _lapack(lapack_lite.dgeqrf, S, B, a, S, tau)
            r = np.triu(a[:, :B].T)
            _lapack(lapack_lite.dorgqr, S, B, B, a, S, tau)
            q = np.empty((S, B)) if q is None else q
            np.copyto(q, a.T)
            self._factor_slot = (j, (q, r))
        return self._factor_slot[1]

    @staticmethod
    def _split(targets) -> tuple[np.ndarray, np.ndarray]:
        """Flattened targets and the mask of their constant columns."""
        targets = np.asarray(targets, dtype=float)
        flat = targets.reshape(targets.shape[0], -1)
        # screen on the first two rows; only columns that pass are compared in full
        const = np.all(flat[:2] == flat[0:1], axis=0)
        if const.any():
            const[const] = np.all(flat[:, const] == flat[0:1, const], axis=0)
        return flat, const

    def _record(self, j0: int, op: str, coef: np.ndarray, const: np.ndarray) -> None:
        if self.records is None:
            return
        for col in np.flatnonzero(~const):
            self.records.extend(
                CoefficientRecord(j0, op, str(col), tuple(int(e) for e in exps), float(coef[b, col]))
                for b, exps in enumerate(self.exponents)
            )

    # -- analytic kind ------------------------------------------------------

    def _analytic_fit(self, flat: np.ndarray, j0: int, op: str, const) -> np.ndarray:
        """Least-squares Hermite fit of the targets in W(t_j0), recorded as op.

        With Phi = Q R and Q orthonormal, R has Phi's singular values, so the
        cutoff eps * max(S, B) of lstsq(Phi, flat) gives the same rank and the
        same minimum-norm solution from the B x B problem R c = Q^T flat.
        """
        q, r = self._factor(j0)
        rcond = np.finfo(float).eps * max(q.shape[0], r.shape[1])
        coef, *_ = np.linalg.lstsq(r, q.T @ flat, rcond=rcond)
        self._record(j0, op, coef, const)
        return coef

    def cond_mean(self, targets: np.ndarray, j0: int) -> np.ndarray:
        flat, const = self._split(targets)
        out = np.empty(flat.shape)
        if not const.all():
            if self.spec.kind == "analytic":
                # He_a(W, t) is a martingale: the fitted coefficients apply unchanged at j0-1
                coef = self._analytic_fit(flat, j0, "mean", const)
            else:
                coef = self._regress(flat, j0, "mean", const)
            np.matmul(self._basis(j0 - 1), coef, out=out)
        # E[c | F] = c, exactly; keeps noise-free problems bit-deterministic
        for col in np.flatnonzero(const):
            out[:, col] = flat[0, col]
        return out.reshape(np.shape(targets))

    def cond_mean_times_dw(self, targets: np.ndarray, j0: int) -> np.ndarray:
        flat, const = self._split(targets)
        (S, G), d = flat.shape, self.paths.d
        out = np.empty((S, G, d))
        if not const.all():
            if self.spec.kind == "analytic":
                # Stein: E[He_a(W_j0, t_j0) dW_i | F] = a_i dt He_{a-e_i}(W_j0-1, t_j0-1)
                coef = self._analytic_fit(flat, j0, "dw", const)
                dt = float(self.paths.partition.time_increments[j0 - 1])
                coefs = [dt * self._lowering[i] @ coef for i in range(d)]
            else:
                dw = (self.paths.W[:, j0] - self.paths.W[:, j0 - 1])[..., None]
                coefs = [self._regress(flat * dw[:, i], j0, f"dw{i}", const) for i in range(d)]
            # one product for all d: (B, G, d) coefficients into the (S, G, d) output
            coef = np.stack(coefs, axis=-1).reshape(-1, G * d)
            np.matmul(self._basis(j0 - 1), coef, out=out.reshape(S, G * d))
        for col in np.flatnonzero(const):
            out[:, col] = 0.0  # E[c * dW | F] = 0, exactly
        return out.reshape(np.shape(targets) + (d,))

    # -- regression kind ----------------------------------------------------

    def _gram(self, j: int) -> np.ndarray:
        """Read-only normal matrix of the basis at W(t_j), which it replaces:
        the ridge added, or with ridge 0 the full rank checked.
        """
        if self._gram_slot[0] != j:
            S = self.paths.sample_count
            ridge = 1e-8 * S if self.spec.ridge is None else self.spec.ridge
            phi = self._basis(j)
            gram = phi.T @ phi
            if ridge > 0:
                gram += ridge * np.eye(gram.shape[0])
            elif np.linalg.matrix_rank(gram) < gram.shape[0]:
                raise SingularDesignError("regression design is rank deficient; set ridge > 0")
            gram.setflags(write=False)
            self._gram_slot = (j, gram)
        return self._gram_slot[1]

    def _regress(self, flat: np.ndarray, j0: int, op: str, const) -> np.ndarray:
        """Projection coefficients of flat on the basis at W(t_{j0-1}), from the
        ridge-regularized normal equations; a fit is recorded."""
        w_prev = self.paths.W[:, j0 - 1, :]
        if np.all(w_prev == w_prev[0:1, :]):
            # all states coincide (j0 = 1): the sample mean, on He_0 = 1 (row 0)
            coef = np.zeros((self.exponents.shape[0], flat.shape[1]))
            coef[0] = flat.mean(axis=0)
            return coef
        phi = self._basis(j0 - 1)
        try:
            coef = np.linalg.solve(self._gram(j0 - 1), phi.T @ flat)
        except np.linalg.LinAlgError as exc:
            raise SingularDesignError("regression normal equations are singular; set ridge > 0") from exc
        self._record(j0, op, coef, const)
        return coef


def condexp_nested(
    target_functional,
    states: np.ndarray,
    variance: float,
    inner_count: int,
    seed: int,
    max_entries: int = DEFAULT_CAPACITY,
    return_stderr: bool = False,
):
    """Brute-force conditional expectation by branching fresh continuations.

    For each outer state w the functional is averaged over inner draws
    w + Z with Z ~ N(0, variance * I_d); unbiased for E[f(W_end) | W_branch=w]
    whenever the target depends on the continuation only through its endpoint.
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
    if not return_stderr:
        return est
    stderr = values.std(axis=1, ddof=1) / math.sqrt(inner_count) if inner_count > 1 else np.zeros_like(est)
    return est, stderr
