import itertools

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otmel.config import RunConfig
from otmel.errors import ConfigError, DimensionError, NonFiniteError
from otmel.ot import (
    CostMatrix,
    Marginals,
    SinkhornConfig,
    TransportPlan,
    _kernel,
    _rounded,
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
    still stop at this loop's iteration with this loop's plan. The kernel
    and the rounding are the solver's own.
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
    plan, achieved = _rounded(kernel, v, kv, kv_prev, marginals)
    return TransportPlan(
        data=plan,
        achieved_marginal_error=float(achieved),
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
        # some of them early; each must still equal its 2-D solve.
        cost = np.random.default_rng(0).random((320, 6, 5))
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
        assert (iterations == config.max_iter).any()
        assert (iterations < config.max_iter).any()

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

    @pytest.mark.parametrize(
        "field", [{"sharpness": 0.0}, {"tol": 0.0}, {"max_iter": 0}]
    )
    def test_run_config_rejects_bad_solver_field_at_construction(self, field):
        # Not at first use: a run config that exists can build its solver.
        with pytest.raises(ConfigError):
            RunConfig(**field)

    def test_plan_rejects_negative_entries(self):
        with pytest.raises(ConfigError):
            TransportPlan(np.array([[-1e-9]]), 0.0, 0)
