"""Entropy-regularized discrete optimal transport.

The solver is the classic alternating row/column scaling of the kernel
``K = exp(-sharpness * C)``: larger ``sharpness`` weights the transport
cost more heavily relative to the entropy smoothing and yields plans
closer to the unregularized optimum. Every plan the solver returns is
rounded onto its marginals, so it is feasible even when scaling stops
early. A factorial-time exact solver for small square instances with
uniform marginals is included as a test oracle, together with plan
diagnostics (cost, entropy).

Costs and plans may carry leading stack axes: a ``(..., n, m)`` cost is
a stack of independent ``n x m`` problems. :func:`sinkhorn` solves one
problem; :func:`sinkhorn_stack` solves a stack in one scaling loop, with
each problem giving the same result, bit for bit, as :func:`sinkhorn` on
it alone.

Both loops check the marginal error once per run of scaling pairs, not
after every pair: a run keeps its iterates and computes all their errors
in one array pass. Runs are single pairs for the first few iterations and
then grow with the iterations done, up to a short cap. Each problem still
stops at the first pair whose error is under ``tol``, with that pair's
iterates; the pairs after it in its run are discarded.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionError, NonFiniteError
from .types import freeze_array

# Lower clamp on kernel entries, so the scaling divisions stay finite for
# extreme sharpness values; a solve whose kernel needed it is reported
# unconverged.
KERNEL_FLOOR = 1e-300

# Longest run of scaling pairs between two checks of the marginal error
# in a one-problem solve; a stack's runs are a quarter as long.
_MAX_RUN = 32


@dataclass(frozen=True)
class CostMatrix:
    """An n x m matrix of pairwise transport costs, or a stack of them."""

    data: np.ndarray

    def __post_init__(self):
        arr = freeze_array(self.data)
        if arr.ndim < 2:
            raise DimensionError(
                f"cost matrix must be at least 2-D, got shape {arr.shape}"
            )
        if not np.isfinite(arr).all():
            raise NonFiniteError("cost matrix contains non-finite values")
        object.__setattr__(self, "data", arr)

    @property
    def n(self) -> int:
        return self.data.shape[-2]

    @property
    def m(self) -> int:
        return self.data.shape[-1]


@dataclass(frozen=True)
class Marginals:
    """Row and column mass targets; each must be a probability vector."""

    mu: np.ndarray
    nu: np.ndarray

    def __post_init__(self):
        for name in ("mu", "nu"):
            vec = freeze_array(getattr(self, name))
            if vec.ndim != 1:
                raise DimensionError(f"{name} must be a vector, got shape {vec.shape}")
            if not np.isfinite(vec).all():
                raise NonFiniteError(f"{name} contains non-finite values")
            if (vec < 0).any():
                raise ConfigError(f"{name} has negative entries")
            if abs(vec.sum() - 1.0) > 1e-12:
                raise ConfigError(f"{name} must sum to 1, got {vec.sum()!r}")
            object.__setattr__(self, name, vec)

    @classmethod
    @functools.lru_cache(maxsize=4096)
    def uniform(cls, n: int, m: int) -> "Marginals":
        # Cached: instances are immutable and the uniform case is hot.
        return cls(np.full(n, 1.0 / n), np.full(m, 1.0 / m))


@dataclass(frozen=True)
class TransportPlan:
    """A nonnegative coupling plus diagnostics from the solve that produced it.

    ``achieved_marginal_error`` is the L1 distance of the plan's row and
    column sums from the requested marginals, recomputed from the final
    plan; for a rounded Sinkhorn plan it is at floating-point level.
    ``residual`` is the L1 marginal error of the scaled plan before
    rounding, which shows how far the scaling got, and ``converged``
    records whether it beat the solver tolerance on an unclamped kernel
    (see :data:`KERNEL_FLOOR`). A stack of plans, of
    shape ``(..., n, m)``, carries each diagnostic as an array over the
    leading axes.
    """

    data: np.ndarray
    achieved_marginal_error: float | np.ndarray
    iterations_used: int | np.ndarray
    converged: bool | np.ndarray = True
    residual: float | np.ndarray = 0.0

    def __post_init__(self):
        arr = freeze_array(self.data)
        if arr.ndim < 2:
            raise DimensionError(f"plan must be at least 2-D, got shape {arr.shape}")
        if (arr < 0).any():
            raise ConfigError("transport plan has negative entries")
        object.__setattr__(self, "data", arr)

    @property
    def n(self) -> int:
        return self.data.shape[-2]

    @property
    def m(self) -> int:
        return self.data.shape[-1]


@dataclass(frozen=True)
class SinkhornConfig:
    """Solver knobs.

    sharpness: kernel concentration; the kernel is exp(-sharpness * cost),
        so larger values produce sharper (lower-entropy) plans.
    tol: convergence threshold on the combined L1 marginal error of the
        scaled plan, before rounding.
    max_iter: cap on full row/column update pairs; hitting it is not an
        error, the best available plan is returned flagged unconverged.

    The kernel's lower clamp is not a knob: it is the module constant
    :data:`KERNEL_FLOOR`.
    """

    sharpness: float = 0.6
    tol: float = 1e-6
    max_iter: int = 1000

    def __post_init__(self):
        if not self.sharpness > 0:
            raise ConfigError(f"sharpness must be positive, got {self.sharpness}")
        if not self.tol > 0:
            raise ConfigError(f"tol must be positive, got {self.tol}")
        if self.max_iter < 1:
            raise ConfigError(f"max_iter must be >= 1, got {self.max_iter}")


def _as_cost(cost) -> CostMatrix:
    return cost if isinstance(cost, CostMatrix) else CostMatrix(cost)


def _kernel(cost, marginals: Marginals, config: SinkhornConfig):
    """The clamped kernel ``exp(-sharpness * C)`` of a cost that fits the marginals.

    Also returns, per problem, whether the clamp raised any entry.
    """
    cost = _as_cost(cost)
    n, m = cost.n, cost.m
    mu, nu = marginals.mu, marginals.nu
    if mu.shape[0] != n or nu.shape[0] != m:
        raise DimensionError(
            f"marginals ({mu.shape[0]}, {nu.shape[0]}) do not match cost {n}x{m}"
        )
    kernel = np.exp(-config.sharpness * cost.data)
    clamped = (kernel < KERNEL_FLOOR).any(axis=(-2, -1))
    np.maximum(kernel, KERNEL_FLOOR, out=kernel)
    return kernel, clamped


def _matvec(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``a @ x`` over leading stack axes, one matrix-vector product per problem."""
    return a @ x if x.ndim == 1 else (a @ x[..., None])[..., 0]


def _pairs(kernel, kernel_t, kv, mu, nu, steps: int, matvec):
    """Run ``steps`` scaling pairs from ``kv = K v``; return the iterates and errors.

    Each pair is ``u = mu / (K v)`` then ``v = nu / (K^T u)``. Returns the
    ``v`` of each pair, the ``K v`` before and after each pair (the given
    ``kv`` first), and each pair's L1 marginal error of ``diag(u) K diag(v)``.
    A longer run stacks its iterates on a new leading axis and computes
    all its errors in one pass; a run of one stacks nothing and returns
    its one error without that axis. ``matvec(a, x)`` is the
    matrix-vector product for the kernel's layout.
    """
    us, kt_us, vs, kvs = [], [], [], [kv]
    for _ in range(steps):
        u = mu / kv
        kt_u = matvec(kernel_t, u)
        v = nu / kt_u
        kv = matvec(kernel, v)
        us.append(u)
        kt_us.append(kt_u)
        vs.append(v)
        kvs.append(kv)
    if steps > 1:
        u, kt_u, vs, kvs = (np.array(x) for x in (us, kt_us, vs, kvs))
        v, kv = vs, kvs[1:]
    # After each pair the columns are balanced by construction; the
    # residual lives in the rows.
    err = np.abs(u * kv - mu).sum(-1) + np.abs(v * kt_u - nu).sum(-1)
    return vs, kvs, err


def _rounded(kernel, v, kv, kv_prev, marginals: Marginals):
    """Round scaled plans onto the marginals; return them and their L1 errors.

    Altschuler, Weed & Rigollet 2017, Alg. 2. Row i of the scaled plan sums
    to mu_i * kv_i / kv_prev_i, so dividing mu by the larger of the two
    shrinks exactly the rows above mu, with positive divisors even where mu
    is 0. The last v update left every column at nu and shrinking rows
    only lowers columns, so the column shrink of Alg. 2 is skipped. A
    rank-1 term then refills the row and column deficits, clamped at 0,
    in every problem with a row deficit. Takes one 2-D problem or a
    ``(B, n, m)`` stack.
    """
    mu, nu = marginals.mu, marginals.nu
    u = mu / np.maximum(kv, kv_prev)
    row_deficit = np.maximum(mu - u * kv, 0.0)
    col_deficit = np.maximum(nu - v * _matvec(kernel.swapaxes(-1, -2), u), 0.0)
    plan = u[..., :, None] * kernel * v[..., None, :]
    deficit = row_deficit.sum(axis=-1)
    if plan.ndim == 2:
        if deficit > 0:
            plan += row_deficit[:, None] * (col_deficit / deficit)
    else:
        short = np.flatnonzero(deficit > 0)
        share = col_deficit[short] / deficit[short, None]
        plan[short] += row_deficit[short, :, None] * share[:, None, :]
    achieved = (
        np.abs(plan.sum(axis=-1) - mu).sum(axis=-1)
        + np.abs(plan.sum(axis=-2) - nu).sum(axis=-1)
    )
    return plan, achieved


def sinkhorn(
    cost: CostMatrix | np.ndarray,
    marginals: Marginals,
    config: SinkhornConfig = SinkhornConfig(),
) -> TransportPlan:
    """Solve entropy-regularized transport by alternating scaling.

    Starts from all-ones scaling vectors, builds the kernel
    ``K = exp(-sharpness * C)``, and repeats ``u = mu / (K v)`` followed by
    ``v = nu / (K^T u)`` until the combined L1 marginal error of
    ``diag(u) K diag(v)`` drops below ``tol`` or ``max_iter`` pairs have
    run. Errors are checked once per run of pairs, but the solve stops at
    the first pair under ``tol`` all the same, and returns its iterates.
    ``residual`` is that pair's error and ``converged`` whether it beat
    ``tol`` with no kernel entry raised to :data:`KERNEL_FLOOR` (a clamped
    kernel is another problem's). The scaled plan is then rounded onto the
    marginals (Altschuler, Weed & Rigollet 2017, Alg. 2): rows above
    ``mu`` are shrunk and the remaining row and column deficits are filled
    by a rank-1 term. The returned plan meets both marginals to
    floating-point accuracy, converged or not, and lies within twice the
    residual (L1) of the scaled plan. Deterministic for fixed inputs; never
    raises on slow convergence. Solves one 2-D problem; see
    :func:`sinkhorn_stack` for many.
    """
    kernel, clamped = _kernel(cost, marginals, config)
    if kernel.ndim != 2:
        raise DimensionError(
            f"sinkhorn solves one 2-D problem, got shape {kernel.shape}; "
            "use sinkhorn_stack for a stack"
        )
    return _scaled(kernel, clamped, marginals, config)


def _scaled(kernel, clamped, marginals, config: SinkhornConfig) -> TransportPlan:
    """The 2-D scaling loop of :func:`sinkhorn` on its kernel, then rounding."""
    mu, nu = marginals.mu, marginals.nu
    tol, max_iter = config.tol, config.max_iter
    kernel_t = kernel.T
    kv = kernel @ np.ones(kernel.shape[1])
    done = 0
    while True:
        # Single pairs until four are done, so fast solves stack nothing;
        # then half the pairs done, so a solve overshoots its stop by at
        # most half again. A single pair never passes max_iter.
        steps = done // 2 or 1
        if steps > 1:
            steps = min(steps, _MAX_RUN, max_iter - done)
        vs, kvs, err = _pairs(kernel, kernel_t, kv, mu, nu, steps, np.matmul)
        # The first pair under tol stops the solve; later ones are dropped.
        j = steps - 1
        if steps > 1:
            below = np.flatnonzero(err < tol)
            j = int(below[0]) if below.size else j
            err = err[j]
        done += j + 1
        if err < tol or done == max_iter:
            break
        kv = kvs[-1]

    plan, achieved = _rounded(kernel, vs[j], kvs[j + 1], kvs[j], marginals)
    return TransportPlan(
        data=plan,
        achieved_marginal_error=float(achieved),
        iterations_used=done,
        converged=bool(err < tol and not clamped),
        residual=float(err),
    )


def sinkhorn_stack(
    cost: CostMatrix | np.ndarray,
    marginals: Marginals,
    config: SinkhornConfig = SinkhornConfig(),
) -> TransportPlan:
    """Solve a stack of transport problems that share their marginals.

    ``cost`` has shape ``(..., n, m)``. One alternating-scaling loop
    updates every problem still active. Errors are checked once per run
    of pairs, and a problem's plan is built from the first pair under
    ``tol``, the pair where :func:`sinkhorn` on it alone stops; problems
    that stopped leave the active set at the end of the run. Each problem
    is rounded the same way, so each plan and each diagnostic equals that
    solve's, bit for bit, whatever else shares the stack. The returned
    plan has the cost's shape and carries its diagnostics as arrays over
    the leading axes. A stack holding one problem is solved by
    :func:`sinkhorn`, whose loop does less per iteration.
    """
    kernel, clamped = _kernel(cost, marginals, config)
    shape = kernel.shape
    n, m = shape[-2:]
    lead = shape[:-2]
    if kernel.size == n * m:
        one = _scaled(kernel.reshape(n, m), bool(clamped.any()), marginals, config)
        return TransportPlan(
            data=one.data.reshape(shape),
            achieved_marginal_error=np.full(lead, one.achieved_marginal_error),
            iterations_used=np.full(lead, one.iterations_used),
            converged=np.full(lead, one.converged),
            residual=np.full(lead, one.residual),
        )
    kernel = kernel.reshape(-1, n, m)
    mu, nu = marginals.mu, marginals.nu
    count = kernel.shape[0]

    v = np.empty((count, m))
    kv = np.empty((count, n))
    kv_prev = np.empty((count, n))
    iterations = np.zeros(count, dtype=int)
    residual = np.zeros(count)
    # Rows of the active problems, compacted at the end of each run in
    # which some of them stop.
    active = np.arange(count)
    k_act = kernel
    kv_act = _matvec(kernel, np.ones((count, m)))
    done = 0
    while active.size:
        # Shorter runs than one problem's: a problem that stops inside a
        # run is still updated, with the rest of the stack, until it ends.
        steps = done // 2 or 1
        if steps > 1:
            steps = min(steps, _MAX_RUN // 4, config.max_iter - done)
        vs, kvs, err = _pairs(
            k_act, k_act.swapaxes(-1, -2), kv_act, mu, nu, steps, _matvec
        )
        err = err.reshape(steps, -1)
        below = err < config.tol
        done += steps
        if done == config.max_iter:
            # The cap stops every problem still active at the run's last pair.
            below[-1] = True
        stop = below.any(axis=0) if steps > 1 else below[0]
        kv_act = kvs[-1]
        if stop.any():
            finished = active[stop]
            if steps > 1:
                # Each stopped problem's first pair under tol, or at the cap
                # the run's last.
                rows = np.flatnonzero(stop)
                j = below[:, rows].argmax(axis=0)
                picked = vs[j, rows], kvs[j + 1, rows], kvs[j, rows], err[j, rows]
            else:
                # A run of one pair stacked nothing: pick by the mask.
                j = 0
                picked = vs[0][stop], kvs[1][stop], kvs[0][stop], err[0][stop]
            v[finished], kv[finished], kv_prev[finished], residual[finished] = picked
            iterations[finished] = done - steps + 1 + j
            keep = ~stop
            active, k_act, kv_act = active[keep], k_act[keep], kv_act[keep]

    plan, achieved = _rounded(kernel, v, kv, kv_prev, marginals)
    return TransportPlan(
        data=plan.reshape(shape),
        achieved_marginal_error=achieved.reshape(lead),
        iterations_used=iterations.reshape(lead),
        converged=((residual < config.tol) & ~clamped.reshape(-1)).reshape(lead),
        residual=residual.reshape(lead),
    )


_MAX_EXACT_SIZE = 8


def exact_ot_uniform_square(cost: CostMatrix | np.ndarray) -> TransportPlan:
    """Exact minimum-cost plan for square instances with uniform marginals.

    Enumerates all n! permutation matrices scaled by 1/n (the extreme
    points of the feasible polytope under uniform square marginals) and
    returns the cheapest; ties go to the lexicographically smallest
    permutation. Intended as a test oracle, hence the n <= 8 guard.
    """
    cost = _as_cost(cost)
    if cost.n != cost.m:
        raise DimensionError(f"exact solver needs a square cost, got {cost.n}x{cost.m}")
    n = cost.n
    if n > _MAX_EXACT_SIZE:
        raise ConfigError(f"exact solver is limited to n <= {_MAX_EXACT_SIZE}, got {n}")

    c = cost.data
    best_perm = None
    best_sum = np.inf
    for perm in itertools.permutations(range(n)):
        s = sum(c[i, perm[i]] for i in range(n))
        if s < best_sum:
            best_sum = s
            best_perm = perm

    plan = np.zeros((n, n))
    for i, j in enumerate(best_perm):
        plan[i, j] = 1.0 / n
    return TransportPlan(
        data=plan, achieved_marginal_error=0.0, iterations_used=0, converged=True
    )


def transport_cost(cost: CostMatrix | np.ndarray, plan: TransportPlan) -> float:
    """Total cost of a plan: the elementwise product summed over all pairs."""
    cost = _as_cost(cost)
    if cost.data.shape != plan.data.shape:
        raise DimensionError(
            f"cost {cost.data.shape} and plan {plan.data.shape} shapes differ"
        )
    return float(np.sum(cost.data * plan.data))


def plan_entropy(plan: TransportPlan | np.ndarray) -> float:
    """Shannon entropy of a plan, with 0 * log 0 taken as 0."""
    data = plan.data if isinstance(plan, TransportPlan) else np.asarray(plan, float)
    if (data < 0).any():
        raise ConfigError("entropy is undefined for negative entries")
    positive = data[data > 0]
    return float(-np.sum(positive * np.log(positive)))
