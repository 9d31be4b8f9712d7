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
a stack of independent ``n x m`` problems. One solve, :func:`_solve_stack`,
returns the bare plans and the scaling's diagnostics, for callers that
read nothing else. :func:`sinkhorn_stack` wraps it for a stack, and
:func:`sinkhorn` for one problem, as a stack of one, so each problem of
a stack gives the same result, bit for bit, as :func:`sinkhorn` on it
alone. Kernel and plans share one buffer: the kernel is exponentiated
and clamped in place, and rounding scales it into the plans.

One scaling loop, :func:`_scaling`, runs every solve. It checks the
marginal error once per run of scaling pairs, not after every pair: a
run keeps its iterates and computes all their errors in one array pass.
Runs are single pairs for the first few iterations and then grow with
the iterations done, up to a short cap. Each problem still stops at the
first pair whose error is under ``tol``, with that pair's iterates; the
pairs after it in its run are discarded.

Sharp plans converge slowly under plain scaling. A problem still above
``tol`` after :data:`_NEWTON_AT` pairs, on an unclamped kernel and with
no zero entry in its marginals, takes a few Newton steps on its dual
there (Brauer, Clason, Lorenz & Wirth 2017, "A Sinkhorn–Newton method
for entropic optimal transport"), one batched linear solve per step over
the problems that take it, and then goes on with scaling pairs, so every
returned iterate is a scaling pair's and ``iterations_used`` counts
pairs only. A solve that stops by that pair
never takes a step, and its plan is the plain scaling's.
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

# Longest run of scaling pairs between two checks of the marginal error.
_MAX_RUN = 8

# The pair after which a problem still above tol takes Newton steps on its
# dual, and the most steps it takes there.
_NEWTON_AT = 32
_NEWTON_STEPS = 8


@dataclass(frozen=True)
class CostMatrix:
    """An n x m matrix of pairwise transport costs, or a stack of them."""

    data: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "data", _checked(freeze_array(self.data)))

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

    sharpness: kernel concentration, positive and finite; the kernel is
        exp(-sharpness * cost), so larger values produce sharper
        (lower-entropy) plans.
    tol: convergence threshold on the combined L1 marginal error of the
        scaled plan, before rounding.
    max_iter: integer cap on full row/column update pairs; hitting it is
        not an error, the best available plan is returned flagged
        unconverged.

    The kernel's lower clamp is not a knob: it is the module constant
    :data:`KERNEL_FLOOR`.
    """

    sharpness: float = 0.6
    tol: float = 1e-6
    max_iter: int = 1000

    def __post_init__(self):
        if not 0 < self.sharpness < np.inf:
            raise ConfigError(
                f"sharpness must be positive and finite, got {self.sharpness}"
            )
        if not self.tol > 0:
            raise ConfigError(f"tol must be positive, got {self.tol}")
        # The loop counts pairs up to max_iter exactly: 7.0 or True is no count.
        if isinstance(self.max_iter, bool) or not isinstance(
            self.max_iter, (int, np.integer)
        ):
            raise ConfigError(f"max_iter must be an integer, got {self.max_iter!r}")
        if self.max_iter < 1:
            raise ConfigError(f"max_iter must be >= 1, got {self.max_iter}")


def _checked(arr: np.ndarray) -> np.ndarray:
    """``arr`` itself, once it is known to be a finite cost of two axes or more."""
    if arr.ndim < 2:
        raise DimensionError(
            f"cost matrix must be at least 2-D, got shape {arr.shape}"
        )
    if not np.isfinite(arr).all():
        raise NonFiniteError("cost matrix contains non-finite values")
    return arr


def _as_cost(cost) -> CostMatrix:
    return cost if isinstance(cost, CostMatrix) else CostMatrix(cost)


def _kernel(cost, marginals: Marginals, config: SinkhornConfig):
    """The clamped kernel ``exp(-sharpness * C)`` of a cost that fits the marginals.

    Also returns, per problem, whether the clamp raised any entry. A cost
    array is checked as :class:`CostMatrix` checks it, without the copy;
    the kernel is the one array this allocates.
    """
    if isinstance(cost, CostMatrix):
        data = cost.data
    else:
        data = _checked(np.asarray(cost, float))
    n, m = data.shape[-2:]
    mu, nu = marginals.mu, marginals.nu
    if mu.shape[0] != n or nu.shape[0] != m:
        raise DimensionError(
            f"marginals ({mu.shape[0]}, {nu.shape[0]}) do not match cost {n}x{m}"
        )
    kernel = np.multiply(data, -config.sharpness, order="C")
    np.exp(kernel, out=kernel)
    clamped = kernel.min(axis=(-2, -1)) < KERNEL_FLOOR
    np.maximum(kernel, KERNEL_FLOOR, out=kernel)
    return kernel, clamped


def _matvec(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``a @ x`` over leading stack axes, one matrix-vector product per problem."""
    return a @ x if x.ndim == 1 else (a @ x[..., None])[..., 0]


def _pairs(kernel, kernel_t, kv, mu, nu, steps: int):
    """Run ``steps`` scaling pairs from ``kv = K v``; return the iterates and errors.

    Each pair is ``u = mu / (K v)`` then ``v = nu / (K^T u)``. Returns the
    ``v`` of each pair, the ``K v`` before and after each pair (the given
    ``kv`` first), and each pair's L1 marginal error of ``diag(u) K diag(v)``.
    A longer run stacks its iterates on a new leading axis and computes
    all its errors in one pass; a run of one stacks nothing and returns
    its one error without that axis.
    """
    us, kt_us, vs, kvs = [], [], [], [kv]
    for _ in range(steps):
        u = mu / kv
        kt_u = _matvec(kernel_t, u)
        v = nu / kt_u
        kv = _matvec(kernel, v)
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


def _run_length(done: int, max_iter: int) -> int:
    """Scaling pairs in the next run of a solve ``done`` pairs in.

    Single pairs until four are done, so fast solves stack no iterates;
    then half the pairs done, up to :data:`_MAX_RUN`, so a solve
    overshoots its stop by at most half again. The count starts over at
    the Newton pair, since most problems stop at the pair after their
    Newton steps. A run ends at the Newton pair and never passes
    ``max_iter``.
    """
    fresh = done - _NEWTON_AT if done >= _NEWTON_AT else done
    steps = fresh // 2 or 1
    if steps > 1:
        end = min(_NEWTON_AT, max_iter) if done < _NEWTON_AT else max_iter
        steps = min(steps, _MAX_RUN, end - done)
    return steps


def _dual_system(plan, rows, cols) -> np.ndarray:
    """The gauge-fixed Jacobian of the marginals in the log-scalings.

    ``[[diag rows, P], [P^T, diag cols]]`` for plans ``P`` with row sums
    ``rows`` and column sums ``cols``, over any leading stack axes, less
    its last row and column: adding a constant to the row potentials and
    taking it from the column ones leaves the plan as it is, so the last
    column potential is held at 0. The solver's Newton steps solve it, and
    so does the implicit gradient of a plan in the ``ot`` objective.
    """
    n, m = plan.shape[-2:]
    size = n + m - 1
    system = np.zeros(plan.shape[:-2] + (size, size))
    system[..., :n, n:] = plan[..., :-1]
    system[..., n:, :n] = plan[..., :-1].swapaxes(-1, -2)
    diagonal = system.reshape(plan.shape[:-2] + (size * size,))[..., :: size + 1]
    diagonal[...] = np.concatenate([rows, cols[..., :-1]], axis=-1)
    return system


def _solved(system: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """``np.linalg.solve`` on each problem of a stack; NaN where a system is singular.

    A singular system makes a batched solve raise for the whole stack, so
    then each problem is solved alone, by the same batched call on a stack
    of one, and gets the bits it gets in any stack.
    """
    try:
        return np.linalg.solve(system, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:
        out = np.full(rhs.shape, np.nan)
        for b in range(len(rhs)):
            try:
                out[b] = np.linalg.solve(system[b : b + 1], rhs[b : b + 1, :, None])[0, :, 0]
            except np.linalg.LinAlgError:
                pass
        return out


def _newton(kernel, v, kv, kv_prev, err, marginals: Marginals, tol: float):
    """Newton steps on the duals of a ``(B, n, m)`` stack of scaled problems.

    Sinkhorn–Newton (Brauer, Clason, Lorenz & Wirth 2017): from a scaling
    pair's ``u = mu / kv_prev`` and ``v``, with ``kv = K v`` and L1
    marginal error ``err``, each step solves :func:`_dual_system` for the
    step in the log-scalings that zeroes the marginal error to first
    order, with the last column potential held, and multiplies ``u`` and
    ``v`` by its exponential. A problem keeps a step only if its scalings
    stay finite and positive and its error falls; it takes steps until its
    error is under ``tol``, a step is refused, or :data:`_NEWTON_STEPS`
    are taken. Returns each problem's ``K v`` for the scaling pairs that
    resume from it: the given ``kv``, bit for bit, where no step was kept.
    Each problem's result is the same whatever else shares the stack.
    Marginals with a zero entry give scalings with a zero entry, whose
    systems are singular and whose steps the positivity check refuses, so
    then no step is tried.
    """
    mu, nu = marginals.mu, marginals.nu
    if not ((mu > 0).all() and (nu > 0).all()):
        return kv
    n = kernel.shape[-2]
    u, v, kv, err = mu / kv_prev, v.copy(), kv.copy(), err.copy()
    kt_u = _matvec(kernel.swapaxes(-1, -2), u)
    live = err >= tol
    # A refused step may overflow or divide by zero on the way; the checks
    # below drop it.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for _ in range(_NEWTON_STEPS):
            idx = np.flatnonzero(live)
            if not idx.size:
                break
            k = kernel[idx]
            rows, cols = u[idx] * kv[idx], v[idx] * kt_u[idx]
            plan = u[idx, :, None] * k * v[idx, None, :]
            rhs = np.concatenate([mu - rows, (nu - cols)[:, :-1]], axis=-1)
            step = np.exp(_solved(_dual_system(plan, rows, cols), rhs))
            u_new = u[idx] * step[:, :n]
            v_new = v[idx]
            v_new[:, :-1] *= step[:, n:]
            kv_new = _matvec(k, v_new)
            kt_u_new = _matvec(k.swapaxes(-1, -2), u_new)
            err_new = np.abs(u_new * kv_new - mu).sum(-1)
            err_new += np.abs(v_new * kt_u_new - nu).sum(-1)
            scalings = np.concatenate([u_new, v_new], axis=-1)
            kept = (
                np.isfinite(scalings).all(-1)
                & (scalings > 0).all(-1)
                & (err_new < err[idx])
            )
            live[idx[~kept]] = False
            good = idx[kept]
            u[good], v[good], kv[good] = u_new[kept], v_new[kept], kv_new[kept]
            kt_u[good], err[good] = kt_u_new[kept], err_new[kept]
            live &= err >= tol
    return kv


def _rounded(kernel, v, kv, kv_prev, marginals: Marginals) -> np.ndarray:
    """Round scaled plans onto the marginals, in the kernel's own buffer.

    Altschuler, Weed & Rigollet 2017, Alg. 2. Row i of the scaled plan sums
    to mu_i * kv_i / kv_prev_i, so dividing mu by the larger of the two
    shrinks exactly the rows above mu, with positive divisors even where mu
    is 0. The last v update left every column at nu and shrinking rows
    only lowers columns, so the column shrink of Alg. 2 is skipped. A
    rank-1 term then refills the row and column deficits, clamped at 0:
    its column shares are 0 in a problem with no row deficit, whose term
    is then 0. Takes one 2-D problem or a ``(B, n, m)`` stack, overwrites
    ``kernel`` with the plans and returns it; the rank-1 term is the one
    array of the plans' size that this allocates.
    """
    mu, nu = marginals.mu, marginals.nu
    u = mu / np.maximum(kv, kv_prev)
    row_deficit = np.maximum(mu - u * kv, 0.0)
    col_deficit = np.maximum(nu - v * _matvec(kernel.swapaxes(-1, -2), u), 0.0)
    plan = kernel
    plan *= u[..., :, None]
    plan *= v[..., None, :]
    deficit = row_deficit.sum(axis=-1, keepdims=True)
    share = np.divide(
        col_deficit, deficit, out=np.zeros_like(col_deficit), where=deficit > 0
    )
    plan += row_deficit[..., :, None] * share[..., None, :]
    return plan


def _achieved(plan: np.ndarray, marginals: Marginals):
    """The L1 distance of each plan's row and column sums from the marginals."""
    return (
        np.abs(plan.sum(axis=-1) - marginals.mu).sum(axis=-1)
        + np.abs(plan.sum(axis=-2) - marginals.nu).sum(axis=-1)
    )


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
    residual (L1) of the scaled plan. A solve still above ``tol`` after
    :data:`_NEWTON_AT` pairs takes Newton steps on its dual there
    (:func:`_newton`) and then goes on with pairs, so most sharp solves
    stop one pair later. Deterministic for fixed inputs; never
    raises on slow convergence. Solves one 2-D problem, as the stack solve
    on a stack of one; its diagnostics are Python scalars. See
    :func:`sinkhorn_stack` for many.
    """
    shape = np.shape(cost.data if isinstance(cost, CostMatrix) else cost)
    if len(shape) > 2:
        raise DimensionError(
            f"sinkhorn solves one 2-D problem, got shape {shape}; "
            "use sinkhorn_stack for a stack"
        )
    plan, iterations, residual, converged = _solve_stack(cost, marginals, config)
    return TransportPlan(
        data=plan,
        achieved_marginal_error=float(_achieved(plan, marginals)),
        iterations_used=int(iterations),
        converged=bool(converged),
        residual=float(residual),
    )


def sinkhorn_stack(
    cost: CostMatrix | np.ndarray,
    marginals: Marginals,
    config: SinkhornConfig = SinkhornConfig(),
) -> TransportPlan:
    """Solve a stack of transport problems that share their marginals.

    ``cost`` has shape ``(..., n, m)``. The plans and the scaling's
    diagnostics come from :func:`_solve_stack`; this adds each plan's
    ``achieved_marginal_error``. Each plan and each diagnostic equals
    that of :func:`sinkhorn` on the problem alone, bit for bit, whatever
    else shares the stack. The returned plan has the cost's shape and
    carries its diagnostics as arrays over the leading axes.
    """
    plan, iterations, residual, converged = _solve_stack(cost, marginals, config)
    return TransportPlan(
        data=plan,
        achieved_marginal_error=_achieved(plan, marginals),
        iterations_used=iterations,
        converged=converged,
        residual=residual,
    )


def _solve_stack(cost, marginals: Marginals, config: SinkhornConfig):
    """The plans of :func:`sinkhorn_stack`, with the scaling's per-problem diagnostics.

    Returns the ``(..., n, m)`` plan stack and, over the leading axes, each
    problem's ``iterations_used``, ``residual`` and ``converged``: what
    ranking needs, without the plan sums of ``achieved_marginal_error`` or
    a :class:`TransportPlan`. The kernel is computed in one buffer
    (:func:`_kernel`), scaled by :func:`_scaling`, and rounded into the
    plans in that buffer (:func:`_rounded`).
    """
    kernel, clamped = _kernel(cost, marginals, config)
    shape = kernel.shape
    lead = shape[:-2]
    kernel = kernel.reshape((-1,) + shape[-2:])
    clamped = clamped.reshape(-1)
    v, kv, kv_prev, residual, iterations = _scaling(kernel, clamped, marginals, config)
    plan = _rounded(kernel, v, kv, kv_prev, marginals)
    converged = (residual < config.tol) & ~clamped
    return (
        plan.reshape(shape),
        iterations.reshape(lead),
        residual.reshape(lead),
        converged.reshape(lead),
    )


def _scaling(kernel, clamped, marginals: Marginals, config: SinkhornConfig):
    """The alternating-scaling loop on a ``(B, n, m)`` stack of kernels.

    Starts every problem from all-ones scaling vectors and updates every
    problem still active. Errors are checked once per run of pairs, and a
    problem stops at the first pair under ``tol``, the pair where a check
    after every pair would stop it, or at ``max_iter``; problems that
    stopped leave the active set at the end of the run. A run ends at
    pair :data:`_NEWTON_AT`, where the problems still active whose kernels
    were not ``clamped`` take their Newton steps together
    (:func:`_newton`), and the loop goes on from the ``K v`` they reach.
    Returns, per problem, the stopping pair's ``v``, its ``K v`` after and
    before that pair, its L1 marginal error and the pairs done: the state
    that :func:`_rounded` takes. Each problem's result is the same whatever
    else shares the stack.
    """
    mu, nu = marginals.mu, marginals.nu
    count, n, m = kernel.shape
    v = np.empty((count, m))
    kv = np.empty((count, n))
    kv_prev = np.empty((count, n))
    iterations = np.zeros(count, dtype=int)
    residual = np.zeros(count)
    # Rows of the active problems, compacted at the end of each run in
    # which some of them stop.
    active = np.arange(count)
    k_act, kv_act = kernel, _matvec(kernel, np.ones((count, m)))
    done = 0
    while active.size:
        # A problem that stops inside a run is still updated, with the
        # rest of the stack, until the run ends.
        steps = _run_length(done, config.max_iter)
        vs, kvs, err = _pairs(k_act, k_act.swapaxes(-1, -2), kv_act, mu, nu, steps)
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
        if done == _NEWTON_AT < config.max_iter:
            # The problems still active take their Newton steps here, all
            # at once.
            last = vs[-1], kvs[-2], err[-1]
            if stop.any():
                last = tuple(x[keep] for x in last)
            sharp = ~clamped[active]
            if sharp.any():
                v_last, kv_before, err_last = (x[sharp] for x in last)
                kv_act[sharp] = _newton(
                    k_act[sharp], v_last, kv_act[sharp], kv_before, err_last,
                    marginals, config.tol,
                )
    return v, kv, kv_prev, residual, iterations


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
