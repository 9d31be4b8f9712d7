import functools
import itertools
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otmel.config import RunConfig
from otmel.correlation import cosine_cost, identity_projections, interact_record
from otmel.errors import ConfigError, DimensionError, NonFiniteError
from otmel.fixtures import FixtureSpec, make_dataset
from otmel import ot as ot_module
from otmel.ot import (
    CostMatrix,
    Marginals,
    SinkhornConfig,
    TransportPlan,
    _achieved,
    _dual_system,
    _kernel,
    _NEWTON_AT,
    _matvec,
    _newton,
    _rounded,
    _scaling,
    _solve_stack,
    exact_ot_uniform_square,
    plan_entropy,
    sinkhorn,
    sinkhorn_stack,
    transport_cost,
)

COST_3X3 = np.array([[0.2, 0.8, 0.4], [0.5, 0.1, 0.9], [0.7, 0.6, 0.3]])


def scaling_oracle(cost, mu, nu, sharpness, iters=200, dps=50):
    """Independent high-precision reimplementation of the scaling loop."""
    with mp.workdps(dps):
        n, m = len(cost), len(cost[0])
        k = [[mp.e ** (-mp.mpf(sharpness) * mp.mpf(cost[i][j])) for j in range(m)] for i in range(n)]
        u = [mp.mpf(1)] * n
        v = [mp.mpf(1)] * m
        for _ in range(iters):
            u = [mp.mpf(mu[i]) / mp.fsum(k[i][j] * v[j] for j in range(m)) for i in range(n)]
            v = [mp.mpf(nu[j]) / mp.fsum(k[i][j] * u[i] for i in range(n)) for j in range(m)]
        return [[float(u[i] * k[i][j] * v[j]) for j in range(m)] for i in range(n)]


def _reference_sinkhorn(cost, marginals, config):
    """Sinkhorn on one 2-D problem, checking the marginal error after every pair.

    The solver checks once per run of pairs instead; each problem must
    still stop at this loop's iteration with this loop's plan. A problem
    still above tol after _NEWTON_AT pairs, short of the cap and on an
    unclamped kernel, takes the Newton steps there and then goes on with
    pairs. The kernel, the Newton steps and the rounding are the solver's
    own.
    """
    kernel, clamped = _kernel(cost, marginals, config)
    mu, nu = marginals.mu, marginals.nu
    kv = kernel @ np.ones(kernel.shape[1])
    for iterations in range(1, config.max_iter + 1):
        u = mu / kv
        kt_u = kernel.T @ u
        v = nu / kt_u
        kv_prev, kv = kv, kernel @ v
        err = np.abs(u * kv - mu).sum() + np.abs(v * kt_u - nu).sum()
        if err < config.tol:
            break
        if iterations == _NEWTON_AT < config.max_iter and not clamped:
            state = (x[None] for x in (kernel, v, kv, kv_prev, err))
            kv = _newton(*state, marginals, config.tol)[0]
    plan = _rounded(kernel, v, kv, kv_prev, marginals)
    return TransportPlan(
        data=plan,
        achieved_marginal_error=float(_achieved(plan, marginals)),
        iterations_used=iterations,
        converged=bool(err < config.tol and not clamped),
        residual=float(err),
    )


def assert_same_plan(plan, reference):
    """Every field of a 2-D plan equals the reference's, bit for bit."""
    np.testing.assert_array_equal(plan.data, reference.data)
    assert plan.achieved_marginal_error == reference.achieved_marginal_error
    assert plan.iterations_used == reference.iterations_used
    assert plan.converged == reference.converged
    assert plan.residual == reference.residual


def stack_member(stack, b):
    """Problem ``b`` of a solved stack, as a 2-D plan."""
    return TransportPlan(
        data=stack.data[b],
        achieved_marginal_error=stack.achieved_marginal_error[b],
        iterations_used=stack.iterations_used[b],
        converged=stack.converged[b],
        residual=stack.residual[b],
    )


class TestSinkhorn:
    def test_constant_cost_gives_product_measure(self):
        cost = CostMatrix(np.zeros((2, 3)))
        marg = Marginals(np.array([0.5, 0.5]), np.full(3, 1 / 3))
        plan = sinkhorn(cost, marg)
        np.testing.assert_allclose(plan.data, np.full((2, 3), 1 / 6), atol=1e-15)
        assert plan.iterations_used == 1
        assert plan.achieved_marginal_error == 0.0
        assert plan.converged
        assert plan.residual < SinkhornConfig().tol
        # One problem's diagnostics are Python scalars, not 0-d arrays.
        assert type(plan.converged) is bool
        assert type(plan.iterations_used) is int
        assert type(plan.residual) is float
        assert type(plan.achieved_marginal_error) is float

    def test_symmetric_2x2_matches_oracle(self):
        # Frozen from scaling_oracle([[0,1],[1,0]], (1/2,1/2), (1/2,1/2), 0.6):
        # the solve has a closed fixed point reached in one update pair.
        diag = 0.32282815311289772645
        off = 0.17717184688710227355
        cost = [[0.0, 1.0], [1.0, 0.0]]
        oracle = scaling_oracle(cost, [0.5, 0.5], [0.5, 0.5], 0.6)
        np.testing.assert_allclose(oracle, [[diag, off], [off, diag]], atol=1e-15)

        plan = sinkhorn(CostMatrix(np.array(cost)), Marginals.uniform(2, 2),
                        SinkhornConfig(sharpness=0.6))
        np.testing.assert_allclose(plan.data, [[diag, off], [off, diag]], atol=1e-12)
        assert plan.data[0, 0] > plan.data[0, 1]
        np.testing.assert_allclose(plan.data, plan.data.T, atol=1e-15)

    def test_sharp_3x3_near_exact_optimum(self):
        plan = sinkhorn(
            CostMatrix(COST_3X3),
            Marginals.uniform(3, 3),
            SinkhornConfig(sharpness=50, tol=1e-9, max_iter=20000),
        )
        exact = exact_ot_uniform_square(COST_3X3)
        assert abs(
            transport_cost(COST_3X3, plan) - transport_cost(COST_3X3, exact)
        ) < 1e-3
        assert transport_cost(COST_3X3, exact) == pytest.approx(0.2)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            sinkhorn(CostMatrix(np.zeros((2, 2))), Marginals.uniform(3, 2))
        with pytest.raises(DimensionError):
            sinkhorn(CostMatrix(np.zeros((4, 2, 2))), Marginals.uniform(2, 2))

    def test_cost_axes_checked_before_solving(self):
        with pytest.raises(DimensionError, match="at least 2-D"):
            sinkhorn(np.zeros(3), Marginals.uniform(3, 1))
        # A stack is turned away before its values are looked at.
        stack = np.full((2, 2, 2), np.nan)
        with pytest.raises(DimensionError, match="use sinkhorn_stack"):
            sinkhorn(stack, Marginals.uniform(2, 2))

    def test_non_finite_cost_rejected(self):
        with pytest.raises(NonFiniteError):
            CostMatrix(np.array([[np.nan, 0.0], [0.0, 0.0]]))

    def test_unbalanced_marginals_rejected(self):
        with pytest.raises(ConfigError):
            Marginals(np.array([0.5, 0.6]), np.array([0.5, 0.5]))

    def test_negative_marginals_rejected(self):
        with pytest.raises(ConfigError):
            Marginals(np.array([1.5, -0.5]), np.array([0.5, 0.5]))

    def test_non_convergence_is_flagged_not_fatal(self, rng):
        cost = CostMatrix(rng.random((8, 8)))
        plan = sinkhorn(
            cost,
            Marginals.uniform(8, 8),
            SinkhornConfig(sharpness=50, tol=1e-12, max_iter=1),
        )
        assert not plan.converged
        assert plan.iterations_used == 1
        assert np.isfinite(plan.data).all()

    def test_unconverged_plan_is_rounded_onto_marginals_with_zero_mass(self, rng):
        mu = rng.random(5) + 0.1
        nu = rng.random(6) + 0.1
        mu[2] = 0.0
        nu[4] = 0.0
        marg = Marginals(mu / mu.sum(), nu / nu.sum())
        plan = sinkhorn(
            CostMatrix(rng.random((5, 6))),
            marg,
            SinkhornConfig(sharpness=50, tol=1e-12, max_iter=1),
        )
        assert np.isfinite(plan.data).all()
        assert (plan.data >= 0).all()
        assert (plan.data[2, :] == 0).all()
        assert (plan.data[:, 4] == 0).all()
        assert np.abs(plan.data.sum(axis=1) - marg.mu).sum() <= 1e-15
        assert np.abs(plan.data.sum(axis=0) - marg.nu).sum() <= 1e-15
        assert not plan.converged
        # The residual before rounding shows how far the scaling got.
        assert plan.residual >= 1e-12

    def test_underflowed_kernel_never_reports_convergence(self):
        # At this sharpness every kernel entry falls below KERNEL_FLOOR: the
        # clamped kernel is flat, so scaling balances it at once (residual
        # 0 after one pair) and returns the uniform plan, far above the
        # optimum. Such a solve must not claim convergence.
        cost = 0.5 + 0.5 * np.random.default_rng(0).random((6, 6))
        config = SinkhornConfig(sharpness=1500)
        plan = sinkhorn(cost, Marginals.uniform(6, 6), config)
        optimum = transport_cost(cost, exact_ot_uniform_square(cost))
        assert transport_cost(cost, plan) > optimum + 0.1
        assert not plan.converged
        assert plan.residual == 0.0 and plan.iterations_used == 1
        stack = sinkhorn_stack(
            np.stack([cost, cost / 1000]), Marginals.uniform(6, 6), config
        )
        assert stack.converged.tolist() == [False, True]


# Pairs done when each run of the scaling loop ends: single pairs up to 4,
# then runs of half the pairs done, capped at 8; a run ends at the Newton
# pair, 32, and the count starts over there.
RUN_ENDS = (4, 6, 9, 13, 19, 27, 32, 33, 34, 35, 36, 38, 41, 45, 51, 59, 67, 75)


class TestScalingLoop:
    @settings(max_examples=120, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        sharpness=st.sampled_from([0.6, 30.0]),
        n=st.integers(1, 16),
        m=st.integers(1, 16),
        d=st.integers(2, 16),
        max_iter=st.sampled_from(
            sorted({e + k for e in RUN_ENDS for k in (-1, 0, 1)} | {1000})
        ),
    )
    def test_matches_per_pair_reference_at_ranking_shapes(
        self, seed, sharpness, n, m, d, max_iter
    ):
        # A lone problem runs in the stack loop as a stack of one; every
        # pair must equal the reference's 2-D matmul pair, whether the cap
        # ends a first stacked run, falls inside one or ends exactly at one.
        # BLAS gemv blocks rows by 4 and 8, so the shapes reach past 8.
        rng = np.random.default_rng(seed)
        cost = cosine_cost(rng.standard_normal((n, d)), rng.standard_normal((m, d)))
        marg = Marginals.uniform(n, m)
        config = SinkhornConfig(sharpness=sharpness, max_iter=max_iter)
        reference = _reference_sinkhorn(cost, marg, config)
        assert_same_plan(sinkhorn(cost, marg, config), reference)
        stack = sinkhorn_stack(cost.data[None], marg, config)
        assert_same_plan(stack_member(stack, 0), reference)


class TestSinkhornProperties:
    def test_feasibility_random(self, rng):
        for _ in range(50):
            n, m = rng.integers(1, 12, size=2)
            cost = CostMatrix(rng.random((n, m)))
            mu = rng.random(n) + 1e-3
            nu = rng.random(m) + 1e-3
            marg = Marginals(mu / mu.sum(), nu / nu.sum())
            plan = sinkhorn(cost, marg, SinkhornConfig(sharpness=5))
            assert plan.converged
            row_err = np.abs(plan.data.sum(axis=1) - marg.mu).sum()
            col_err = np.abs(plan.data.sum(axis=0) - marg.nu).sum()
            assert row_err < 1e-6
            assert col_err < 2e-6

    def test_determinism(self, rng):
        cost = CostMatrix(rng.random((5, 7)))
        marg = Marginals.uniform(5, 7)
        a = sinkhorn(cost, marg)
        b = sinkhorn(cost, marg)
        assert a.data.tobytes() == b.data.tobytes()
        assert a.iterations_used == b.iterations_used

    def test_cost_scale_sharpness_inverse_scale_invariance(self, rng):
        cost = rng.random((4, 5))
        marg = Marginals.uniform(4, 5)
        k = 3.7
        a = sinkhorn(CostMatrix(cost), marg, SinkhornConfig(sharpness=0.9))
        b = sinkhorn(CostMatrix(k * cost), marg, SinkhornConfig(sharpness=0.9 / k))
        np.testing.assert_allclose(a.data, b.data, atol=1e-9)

    def test_entropy_decreases_with_sharpness(self, rng):
        cost = CostMatrix(rng.random((6, 6)))
        marg = Marginals.uniform(6, 6)
        entropies = [
            plan_entropy(sinkhorn(cost, marg, SinkhornConfig(sharpness=s, max_iter=5000)))
            for s in (0.05, 0.1, 0.3, 0.6, 1, 3, 10, 50)
        ]
        for a, b in zip(entropies, entropies[1:]):
            assert a >= b - 1e-12

    def test_stored_error_matches_recomputation(self, rng):
        cost = CostMatrix(rng.random((4, 6)))
        marg = Marginals.uniform(4, 6)
        plan = sinkhorn(cost, marg)
        recomputed = (
            np.abs(plan.data.sum(axis=1) - marg.mu).sum()
            + np.abs(plan.data.sum(axis=0) - marg.nu).sum()
        )
        assert plan.achieved_marginal_error == recomputed


def random_marginals(rng, n, m, masses):
    """Uniform, random, or random with one zero entry per side where it can."""
    if masses == "uniform":
        return Marginals.uniform(n, m)
    mu = rng.random(n) + 0.05
    nu = rng.random(m) + 0.05
    for vec in (mu, nu):
        if masses == "zero-mass" and len(vec) > 1:
            vec[rng.integers(len(vec))] = 0.0
    return Marginals(mu / mu.sum(), nu / nu.sum())


MASSES = st.sampled_from(["uniform", "random", "zero-mass"])


@functools.lru_cache(maxsize=1)
def newton_pool():
    """300 problems at sharpness 30 that stop before, at and after the Newton pair.

    Returns the costs, marginals, solver settings and each problem's pairs.
    Scaled random costs stop from pair 18 on; most problems stop at pair 33
    and some, whose first Newton step is refused, after 90 pairs or more.
    """
    rng = np.random.default_rng(0)
    pool = rng.random((300, 6, 5)) * np.linspace(0.3, 1.0, 300)[:, None, None]
    marg, config = Marginals.uniform(6, 5), SinkhornConfig(sharpness=30.0)
    iterations = sinkhorn_stack(pool, marg, config).iterations_used
    # Every caller gets these arrays; none may change them.
    for x in (pool, iterations):
        x.setflags(write=False)
    return pool, marg, config, iterations


class TestSinkhornStack:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        sharpness=st.sampled_from([0.6, 30.0, 50.0, 1500.0]),
        count=st.integers(1, 6),
        n=st.integers(1, 8),
        m=st.integers(1, 8),
        max_iter=st.sampled_from([1, 3, 1000]),
        uniform=st.booleans(),
    )
    def test_matches_sinkhorn_on_each_problem(
        self, seed, sharpness, count, n, m, max_iter, uniform
    ):
        rng = np.random.default_rng(seed)
        cost = rng.random((count, n, m))
        if uniform:
            marg = Marginals.uniform(n, m)
        else:
            mu = rng.random(n) + 0.05
            nu = rng.random(m) + 0.05
            marg = Marginals(mu / mu.sum(), nu / nu.sum())
        config = SinkhornConfig(sharpness=sharpness, max_iter=max_iter)
        stack = sinkhorn_stack(cost, marg, config)
        assert stack.data.shape == cost.shape
        for b in range(count):
            single = sinkhorn(cost[b], marg, config)
            np.testing.assert_array_equal(stack.data[b], single.data)
            assert stack.iterations_used[b] == single.iterations_used
            assert stack.converged[b] == single.converged
            assert stack.residual[b] == single.residual
            assert stack.achieved_marginal_error[b] == single.achieved_marginal_error

    def test_large_stack_with_spread_stops_matches_sinkhorn(self):
        # Ranking solves hundreds of problems in one stack. At sharpness 30
        # they stop at many different iterations, and a small cap stops
        # some of them early; each must still equal its 2-D solve. Scaled
        # costs spread the stops over pairs 18 to 33.
        rng = np.random.default_rng(0)
        cost = rng.random((320, 6, 5)) * np.linspace(0.3, 1.0, 320)[:, None, None]
        marg = Marginals.uniform(6, 5)
        # Caps that end inside a run of pairs too: the stack is compacted
        # only at run ends, so most problems stop in the middle of one.
        for max_iter in (5, 13, 37, 100):
            config = SinkhornConfig(sharpness=30.0, max_iter=max_iter)
            stack = sinkhorn_stack(cost, marg, config)
            for b in range(len(cost)):
                reference = _reference_sinkhorn(cost[b], marg, config)
                assert_same_plan(stack_member(stack, b), reference)
                assert_same_plan(sinkhorn(cost[b], marg, config), reference)
        iterations = stack.iterations_used
        assert len(np.unique(iterations)) > 10
        # Problems stop before the Newton pair, at the pair after it, later
        # where a Newton step was refused, and at the cap.
        assert (iterations < _NEWTON_AT).any()
        assert (iterations == _NEWTON_AT + 1).any()
        assert ((iterations > _NEWTON_AT + 1) & (iterations < config.max_iter)).any()
        assert (iterations == config.max_iter).any()

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        fast=st.integers(0, 6),
        slow=st.integers(1, 4),
        n=st.integers(1, 8),
        m=st.integers(1, 8),
        sharpness=st.sampled_from([0.6, 30.0, 50.0, 1500.0]),
        tol=st.sampled_from([1e-6, 1e-9]),
        max_iter=st.sampled_from([1, 2, 5, 7, 10, 15, 40, 100, 1000]),
        masses=MASSES,
    )
    def test_stack_equals_sinkhorn_per_problem(
        self, seed, fast, slow, n, m, sharpness, tol, max_iter, masses
    ):
        # A constant cost is balanced by one pair, so fast problems stop at
        # pair 1 and leave the slow ones to run on alone or in twos, some
        # of them to caps that fall inside a run.
        rng = np.random.default_rng(seed)
        costs = np.concatenate(
            [np.full((fast, n, m), rng.random()), rng.random((slow, n, m))]
        )
        cost = costs[rng.permutation(len(costs))]
        marg = random_marginals(rng, n, m, masses)
        config = SinkhornConfig(sharpness=sharpness, tol=tol, max_iter=max_iter)
        stack = sinkhorn_stack(cost, marg, config)
        for b in range(len(cost)):
            reference = _reference_sinkhorn(cost[b], marg, config)
            assert_same_plan(stack_member(stack, b), reference)
            assert_same_plan(sinkhorn(cost[b], marg, config), reference)

    @pytest.mark.parametrize("third", [25, 30, None])
    def test_last_problem_stops_around_the_newton_pair(self, third):
        # Two problems that Newton steps finish at pair 33 and a third that
        # stops at pair 25, inside the run that ends at 27; at pair 30,
        # inside the run that ends at the Newton pair, so the other two take
        # their steps without it; or runs on alone after a refused step.
        pool, marg, config, iterations = newton_pool()
        finished = np.flatnonzero(iterations == _NEWTON_AT + 1)[:2]
        last = iterations > 60 if third is None else iterations == third
        cost = pool[[*finished, np.flatnonzero(last)[0]]]
        stack = sinkhorn_stack(cost, marg, config)
        for b in range(len(cost)):
            assert_same_plan(
                stack_member(stack, b), _reference_sinkhorn(cost[b], marg, config)
            )

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        sharpness=st.sampled_from([0.6, 30.0, 50.0, 1500.0]),
        max_iter=st.sampled_from([1, 2, 3, 5, 6, 9, 37, 1000]),
        tol=st.sampled_from([1e-3, 1e-6, 1e-9]),
        count=st.integers(1, 40),
        n=st.integers(1, 8),
        m=st.integers(1, 8),
        masses=st.sampled_from(["uniform", "random", "zero-mass"]),
    )
    def test_checks_per_run_match_per_pair_reference(
        self, seed, sharpness, max_iter, tol, count, n, m, masses
    ):
        # Errors are checked once per run of pairs. Each problem must still
        # stop at the first pair under tol, and pairs computed past a stop
        # must not warn where the per-pair loop does not.
        rng = np.random.default_rng(seed)
        cost = rng.random((count, n, m))
        if masses == "uniform":
            marg = Marginals.uniform(n, m)
        else:
            mu = rng.random(n) + 0.05
            nu = rng.random(m) + 0.05
            for vec in (mu, nu):
                if masses == "zero-mass" and len(vec) > 1:
                    vec[rng.integers(len(vec))] = 0.0
            marg = Marginals(mu / mu.sum(), nu / nu.sum())
        config = SinkhornConfig(sharpness=sharpness, tol=tol, max_iter=max_iter)
        stack = sinkhorn_stack(cost, marg, config)
        for b in range(count):
            reference = _reference_sinkhorn(cost[b], marg, config)
            assert_same_plan(sinkhorn(cost[b], marg, config), reference)
            assert_same_plan(stack_member(stack, b), reference)


def _rounded_alg2(kernel, v, kv, kv_prev, marginals):
    """Alg. 2 rounding as written with a branch per case, kept as the oracle.

    A 2-D problem is refilled only if it has a row deficit; a stack
    refills, by fancy indexing, just its problems with one.
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


class TestSolveStack:
    # Ranking takes the bare plans of the inner solve; they and its
    # diagnostics must be those of sinkhorn_stack, which adds only
    # achieved_marginal_error and the TransportPlan.

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        lead=st.lists(st.integers(1, 4), min_size=0, max_size=2),
        n=st.integers(1, 8),
        m=st.integers(1, 8),
        sharpness=st.sampled_from([0.6, 30.0, 1500.0]),
        max_iter=st.sampled_from([1, 3, 7, 1000]),
        masses=MASSES,
    )
    def test_equals_sinkhorn_stack(self, seed, lead, n, m, sharpness, max_iter, masses):
        # At sharpness 1500 most kernels clamp; small caps stop problems unconverged.
        rng = np.random.default_rng(seed)
        cost = rng.random(tuple(lead) + (n, m))
        if not lead:
            cost = cost[None]
        marg = random_marginals(rng, n, m, masses)
        config = SinkhornConfig(sharpness=sharpness, max_iter=max_iter)
        plan, iterations, residual, converged = _solve_stack(cost, marg, config)
        full = sinkhorn_stack(cost, marg, config)
        assert plan.shape == cost.shape
        assert plan.tobytes() == full.data.tobytes()
        for got, want in (
            (iterations, full.iterations_used),
            (residual, full.residual),
            (converged, full.converged),
        ):
            assert got.shape == cost.shape[:-2]
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    def test_rejects_what_cost_matrix_rejects(self):
        marg, config = Marginals.uniform(2, 2), SinkhornConfig()
        with pytest.raises(NonFiniteError):
            _solve_stack(np.array([[[0.1, np.nan], [0.2, 0.3]]]), marg, config)
        with pytest.raises(DimensionError):
            _solve_stack(np.array([0.1, 0.2]), marg, config)


class TestRounding:
    @settings(max_examples=120, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        count=st.integers(0, 6),
        n=st.integers(1, 8),
        m=st.integers(1, 8),
        sharpness=st.sampled_from([0.6, 30.0, 1500.0]),
        masses=MASSES,
    )
    def test_one_code_path_matches_alg2_oracle(
        self, seed, count, n, m, sharpness, masses
    ):
        # Scaled plans from a few pairs each, so rows sit above and below
        # mu; a problem whose K v is a power of two and unchanged by its
        # last pair has no row deficit at all. count 0 is a lone 2-D problem.
        rng = np.random.default_rng(seed)
        marg = random_marginals(rng, n, m, masses)
        config = SinkhornConfig(sharpness=sharpness)
        kernel, clamped = _kernel(rng.random((max(count, 1), n, m)), marg, config)
        states = []
        for k, c in zip(kernel, np.reshape(clamped, -1)):
            pairs = replace(config, max_iter=int(rng.integers(1, 6)))
            scaled = _scaling(k[None], c[None], marg, pairs)
            v, kv, kv_prev = (x[0] for x in scaled[:3])
            if rng.random() < 0.3:
                kv = kv_prev = 2.0 ** rng.integers(-3, 4, n)
            states.append((v, kv, kv_prev))
        v, kv, kv_prev = (np.array(x) for x in zip(*states))
        if count == 0:
            kernel, v, kv, kv_prev = kernel[0], v[0], kv[0], kv_prev[0]
        # Rounding overwrites the kernel it is given; the oracle reads it after.
        plan = _rounded(kernel.copy(), v, kv, kv_prev, marg)
        achieved = _achieved(plan, marg)
        oracle_plan, oracle_achieved = _rounded_alg2(kernel, v, kv, kv_prev, marg)
        assert plan.tobytes() == oracle_plan.tobytes()
        assert achieved.tobytes() == oracle_achieved.tobytes()


def plain_scaling(kernel, marginals, tol, max_iter):
    """Scaled plans of a kernel stack by plain alternating scaling, to ``tol``.

    Checks each problem's row error after every pair and keeps its first
    plan under ``tol``; also returns which problems got there.
    """
    mu, nu = marginals.mu, marginals.nu
    v = np.ones(kernel.shape[:-2] + kernel.shape[-1:])
    plans, done = np.zeros_like(kernel), np.zeros(len(kernel), bool)
    for _ in range(max_iter):
        u = mu / (kernel @ v[..., None])[..., 0]
        v = nu / (kernel.swapaxes(-1, -2) @ u[..., None])[..., 0]
        err = np.abs(u * (kernel @ v[..., None])[..., 0] - mu).sum(-1)
        new = (err < tol) & ~done
        plans[new] = u[new, :, None] * kernel[new] * v[new, None, :]
        done |= new
        if done.all():
            break
    return plans, done


class TestNewtonSteps:
    def test_singular_systems_stay_with_their_problem(self):
        # Random problems at the Newton pair, which their steps finish; the
        # split-support plan of TestCostGrad, whose system is exactly
        # singular, so that one batched solve raises for the whole stack;
        # the same blocks joined by 1e-200, whose nearly singular system
        # gives steps far off without raising; and a kernel clamped at
        # sharpness 1500. Each problem gets its lone result.
        rng = np.random.default_rng(0)
        marg = Marginals.uniform(4, 4)
        config = SinkhornConfig(sharpness=30.0, max_iter=_NEWTON_AT)
        kernels, flags = _kernel(rng.random((4, 4, 4)), marg, config)
        states = list(zip(*_scaling(kernels, flags, marg, config)[:3]))
        kernels = list(kernels)
        split = np.zeros((4, 4))
        split[:2, :2] = split[2:, 2:] = 0.125
        joined = np.where(split > 0, split, 1e-200)
        clamped_cost = np.repeat([[0.9], [0.9], [0.1], [0.1]], 4, axis=1)
        clamped_kernel, clamped = _kernel(clamped_cost, marg, SinkhornConfig(1500.0))
        assert clamped
        extra = np.array([split, joined, clamped_kernel])
        flags = np.array([False, False, clamped])
        # One pair balances these; rows 2 and 3 then get half their mass.
        v, kv, _, _, _ = _scaling(extra, flags, marg, SinkhornConfig(max_iter=1))
        states.extend(zip(v, kv, kv * [1.0, 1.0, 2.0, 2.0]))
        kernels.extend(extra)
        errors = []
        for k, (v, kv, kv_prev) in zip(kernels, states):
            u = marg.mu / kv_prev
            errors.append(np.abs(u * kv - marg.mu).sum() + np.abs(v * (k.T @ u) - marg.nu).sum())
            if k is split:
                system = _dual_system(u[:, None] * k * v, u * kv, v * (k.T @ u))
                with pytest.raises(np.linalg.LinAlgError):
                    np.linalg.solve(system, np.ones(7))
        assert min(errors) >= config.tol
        stack = [np.array(x) for x in (kernels, *zip(*states), errors)]
        got = _newton(*stack, marg, config.tol)
        for b in range(len(kernels)):
            alone = _newton(*(x[b : b + 1] for x in stack), marg, config.tol)[0]
            assert got[b].tobytes() == alone.tobytes()
        # The random problems keep their steps; the split plan's is refused.
        assert all((got[b] != stack[2][b]).any() for b in range(4))
        assert got[4].tobytes() == stack[2][4].tobytes()

    def test_refused_steps_leave_the_scaling_as_it_was(self):
        # The pool's problems that run on long after the Newton pair do so
        # because their first step would raise the marginal error; scaling
        # pairs then resume from the last pair's own K v.
        pool, marg, config, iterations = newton_pool()
        kernel, clamped = _kernel(pool[iterations > 60], marg, config)
        assert len(kernel) and not clamped.any()
        pairs = replace(config, max_iter=_NEWTON_AT)
        v, kv, kv_prev, err, _ = _scaling(kernel, clamped, marg, pairs)
        stepped = _newton(kernel, v, kv, kv_prev, err, marg, config.tol)
        assert stepped.tobytes() == kv.tobytes()

    def test_clamped_kernels_take_no_steps(self):
        # Small costs give ordinary sharp problems at sharpness 700, which
        # Newton steps finish by pair 33; one entry of cost 1 clamps its
        # kernel entry, and that problem scales on without them, in a stack
        # and alone alike.
        rng = np.random.default_rng(0)
        cost = 0.02 * rng.random((6, 4, 4))
        far = cost.copy()
        far[:, 0, 3] = 1.0
        cost = np.concatenate([cost, far])
        marg, config = Marginals.uniform(4, 4), SinkhornConfig(sharpness=700.0)
        stack = sinkhorn_stack(cost, marg, config)
        assert (stack.iterations_used[:6] <= _NEWTON_AT + 1).all()
        assert (stack.iterations_used[6:] > _NEWTON_AT + 1).sum() >= 5
        assert not stack.converged[6:].any()
        for b in range(len(cost)):
            reference = _reference_sinkhorn(cost[b], marg, config)
            assert_same_plan(stack_member(stack, b), reference)
            assert_same_plan(sinkhorn(cost[b], marg, config), reference)

    def test_zero_mass_marginals_solve_no_system(self, monkeypatch):
        # A zero-mass row zeroes its scaling, so no step could be kept: the
        # sharp problems that pass the Newton pair solve no system for it,
        # though with uniform marginals the same problems do.
        solved, calls = ot_module._solved, []

        def spy(system, rhs):
            calls.append(len(rhs))
            return solved(system, rhs)

        monkeypatch.setattr(ot_module, "_solved", spy)
        cost = np.random.default_rng(0).random((40, 6, 5))
        mu = np.array([0.0, 0.2, 0.2, 0.2, 0.2, 0.2])
        config = SinkhornConfig(sharpness=30.0)
        zero_mass = Marginals(mu, np.full(5, 0.2))
        for marg, solves in ((zero_mass, False), (Marginals.uniform(6, 5), True)):
            stack = sinkhorn_stack(cost, marg, config)
            assert (stack.iterations_used > _NEWTON_AT).any()
            assert bool(calls) == solves
            for b in range(len(cost)):
                reference = _reference_sinkhorn(cost[b], marg, config)
                assert_same_plan(stack_member(stack, b), reference)

    def test_newton_finished_plans_match_plain_scaling_to_1e_12(self):
        # Plain scaling at tol 1e-12 gives the plans to compare against. The
        # solver's plans that stop at the pair after the Newton steps, at the
        # default tol 1e-6, lie within 1.4e-6 in L1 of them (worst of 384
        # problems, 16 per sharpness over 8 seeds; 6.6e-7 at sharpness 30 and
        # 50), about as far as the tolerance lets any plan lie.
        rng = np.random.default_rng(0)
        marg = Marginals.uniform(12, 12)
        for sharpness in (30.0, 50.0, 100.0):
            cost = cosine_cost(rng.standard_normal((16, 12, 16)), rng.standard_normal((16, 12, 16)))
            config = SinkhornConfig(sharpness=sharpness)
            solved = sinkhorn_stack(cost, marg, config)
            precise, reached = plain_scaling(np.exp(-sharpness * cost.data), marg, 1e-12, 20000)
            finished = (solved.iterations_used == _NEWTON_AT + 1) & reached
            assert finished.sum() >= 4, sharpness
            distance = np.abs(solved.data - precise).sum(axis=(-2, -1))[finished]
            assert distance.max() <= 2e-6, sharpness

    def test_every_sharp_cross_modal_solve_converges(self):
        # Ranking's cross-modal problems at sharpness 30 on a noisy fixture of
        # the link shape: plain scaling left 5 of these 56 solves at max_iter
        # with residuals above tol.
        spec = FixtureSpec(
            seed=0, d=64, n_entities=4, n_mentions=24, text_len=12, visual_len=12,
            noise_sigma=1.0, latent_scale=0.45, slot_scale=1.2,
        )
        dataset, _ = make_dataset(spec)
        table = identity_projections(64)
        config = SinkhornConfig(sharpness=30.0)
        for record in (*dataset.mentions, *dataset.entities):
            inter = interact_record(record, table, "ot", config)
            for plan in (inter.v2t.plan, inter.t2v.plan):
                assert plan.converged, (record.id, plan.residual)
                assert plan.iterations_used <= _NEWTON_AT + 1


class TestExactOracle:
    def test_zero_diagonal_picks_identity(self):
        cost = np.ones((4, 4)) - np.eye(4)
        plan = exact_ot_uniform_square(cost)
        np.testing.assert_array_equal(plan.data, np.eye(4) / 4)
        assert transport_cost(cost, plan) == 0.0

    def test_3x3_enumeration(self):
        # All six permutation sums, frozen from independent enumeration.
        sums = sorted(
            sum(COST_3X3[i, p[i]] for i in range(3))
            for p in itertools.permutations(range(3))
        )
        np.testing.assert_allclose(sums, [0.6, 1.2, 1.5, 1.6, 1.7, 2.4])
        plan = exact_ot_uniform_square(COST_3X3)
        np.testing.assert_array_equal(plan.data, np.eye(3) / 3)
        assert transport_cost(COST_3X3, plan) == pytest.approx(0.2)

    def test_1x1(self):
        plan = exact_ot_uniform_square(np.array([[0.7]]))
        np.testing.assert_array_equal(plan.data, [[1.0]])
        assert transport_cost(np.array([[0.7]]), plan) == pytest.approx(0.7)

    def test_tie_break_lexicographic(self):
        plan = exact_ot_uniform_square(np.zeros((3, 3)))
        np.testing.assert_array_equal(plan.data, np.eye(3) / 3)

    def test_guards(self):
        with pytest.raises(DimensionError):
            exact_ot_uniform_square(np.zeros((2, 3)))
        with pytest.raises(ConfigError):
            exact_ot_uniform_square(np.zeros((9, 9)))

    def test_matches_brute_force_random(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 6))
            cost = rng.random((n, n))
            best = min(
                sum(cost[i, p[i]] for i in range(n))
                for p in itertools.permutations(range(n))
            )
            plan = exact_ot_uniform_square(cost)
            assert transport_cost(cost, plan) == pytest.approx(best / n, abs=1e-15)


class TestDiagnostics:
    def test_zero_plan_costs_zero(self, rng):
        cost = rng.random((3, 4))
        plan = TransportPlan(np.zeros((3, 4)), 2.0, 0, converged=False)
        assert transport_cost(cost, plan) == 0.0

    def test_constant_cost_total_mass(self):
        plan = sinkhorn(CostMatrix(np.zeros((2, 2))), Marginals.uniform(2, 2))
        assert transport_cost(np.ones((2, 2)), plan) == pytest.approx(1.0)

    def test_cost_dimension_mismatch(self):
        plan = TransportPlan(np.full((2, 2), 0.25), 0.0, 1)
        with pytest.raises(DimensionError):
            transport_cost(np.zeros((2, 3)), plan)

    def test_entropy_uniform(self):
        plan = TransportPlan(np.full((2, 2), 0.25), 0.0, 1)
        assert plan_entropy(plan) == pytest.approx(np.log(4), abs=1e-12)

    def test_entropy_permutation(self):
        plan = TransportPlan(np.eye(2) / 2, 0.0, 0)
        assert plan_entropy(plan) == pytest.approx(np.log(2), abs=1e-12)

    def test_entropy_zero_entries_ignored(self):
        assert plan_entropy(np.array([[1.0, 0.0]])) == 0.0

    def test_entropy_negative_rejected(self):
        with pytest.raises(ConfigError):
            plan_entropy(np.array([[-0.1, 1.1]]))

    def test_entropy_matches_oracle_on_regular_solve(self):
        cost = [[0.0, 1.0], [1.0, 0.0]]
        oracle = scaling_oracle(cost, [0.5, 0.5], [0.5, 0.5], 0.6)
        with mp.workdps(50):
            expected = float(
                -mp.fsum(mp.mpf(x) * mp.log(mp.mpf(x)) for row in oracle for x in row)
            )
        plan = sinkhorn(
            CostMatrix(np.array(cost)), Marginals.uniform(2, 2), SinkhornConfig(0.6)
        )
        assert plan_entropy(plan) == pytest.approx(expected, abs=1e-12)


class TestConfigValidation:
    def test_positive_sharpness_required(self):
        with pytest.raises(ConfigError):
            SinkhornConfig(sharpness=0.0)

    def test_positive_tol_required(self):
        with pytest.raises(ConfigError):
            SinkhornConfig(tol=0.0)

    def test_max_iter_at_least_one(self):
        with pytest.raises(ConfigError):
            SinkhornConfig(max_iter=0)

    @pytest.mark.parametrize("max_iter", [7.0, 40.5, True, "7"])
    def test_max_iter_must_be_an_integer(self, max_iter):
        # The loop stops at the pair that equals max_iter; 40.5 never does.
        with pytest.raises(ConfigError):
            SinkhornConfig(max_iter=max_iter)

    def test_numpy_integer_max_iter_accepted(self):
        cost = np.random.default_rng(0).random((3, 3))
        config = SinkhornConfig(sharpness=30.0, max_iter=np.int64(7))
        assert_same_plan(
            sinkhorn(cost, Marginals.uniform(3, 3), config),
            sinkhorn(cost, Marginals.uniform(3, 3), replace(config, max_iter=7)),
        )

    @pytest.mark.parametrize("sharpness", [np.inf, np.nan])
    def test_finite_sharpness_required(self, sharpness):
        with pytest.raises(ConfigError):
            SinkhornConfig(sharpness=sharpness)

    @pytest.mark.parametrize(
        "field",
        [{"sharpness": 0.0}, {"tol": 0.0}, {"max_iter": 0}, {"sharpness": np.inf},
         {"max_iter": 7.0}],
    )
    def test_run_config_rejects_bad_solver_field_at_construction(self, field):
        # Not at first use: a run config that exists can build its solver.
        with pytest.raises(ConfigError):
            RunConfig(**field)

    def test_plan_rejects_negative_entries(self):
        with pytest.raises(ConfigError):
            TransportPlan(np.array([[-1e-9]]), 0.0, 0)
