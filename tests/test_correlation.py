import mpmath as mp
import numpy as np
import pytest

from otmel.correlation import (
    ATTENTION,
    OT,
    AssignmentSite,
    attention_assign,
    cosine_cost,
    default_projections,
    identity_projections,
    interact_record,
    ot_assign,
    project,
    record_sites,
)
from otmel.errors import DimensionError, ZeroNormRowError
from otmel.ot import SinkhornConfig, TransportPlan, exact_ot_uniform_square
from otmel.types import FeatureMatrix, MentionRecord, ProjectionSet

from conftest import make_record


def naive_matmul(a, b):
    out = np.zeros((a.shape[0], b.shape[1]))
    for i in range(a.shape[0]):
        for j in range(b.shape[1]):
            for k in range(a.shape[1]):
                out[i, j] += a[i, k] * b[k, j]
    return out


def eye_set(d):
    return ProjectionSet(np.eye(d), np.eye(d), np.eye(d))


class TestProject:
    def test_identity(self, rng):
        dst = rng.standard_normal((3, 4))
        src = rng.standard_normal((5, 4))
        q, k, h = project(dst, src, eye_set(4))
        np.testing.assert_array_equal(q, dst)
        np.testing.assert_array_equal(k, src)
        np.testing.assert_array_equal(h, src)

    def test_zero(self, rng):
        p = ProjectionSet(np.zeros((4, 4)), np.zeros((4, 4)), np.zeros((4, 4)))
        q, k, h = project(rng.standard_normal((3, 4)), rng.standard_normal((2, 4)), p)
        assert not q.any() and not k.any() and not h.any()

    def test_matches_naive_matmul(self, rng):
        dst = rng.standard_normal((4, 8))
        src = rng.standard_normal((5, 8))
        p = ProjectionSet(*(rng.standard_normal((8, 8)) for _ in range(3)))
        q, k, h = project(dst, src, p)
        assert q.shape == (4, 8) and k.shape == (5, 8) and h.shape == (5, 8)
        np.testing.assert_allclose(q, naive_matmul(dst, p.w_q), atol=1e-12)
        np.testing.assert_allclose(k, naive_matmul(src, p.w_k), atol=1e-12)
        np.testing.assert_allclose(h, naive_matmul(src, p.w_h), atol=1e-12)

    def test_dimension_mismatch(self, rng):
        with pytest.raises(DimensionError):
            project(rng.standard_normal((3, 4)), rng.standard_normal((3, 5)), eye_set(4))


class TestAttentionAssign:
    def test_identical_keys_give_uniform_rows(self, rng):
        dst = rng.standard_normal((3, 4))
        src = np.tile(rng.standard_normal(4), (5, 1))
        result = attention_assign(dst, src, eye_set(4))
        np.testing.assert_allclose(result.a, np.full((3, 5), 0.2), atol=1e-12)

    def test_single_source_element(self, rng):
        dst = rng.standard_normal((4, 3))
        src = rng.standard_normal((1, 3))
        result = attention_assign(dst, src, eye_set(3))
        np.testing.assert_allclose(result.a, np.ones((4, 1)), atol=1e-15)
        np.testing.assert_allclose(result.g, np.tile(src[0], (4, 1)), atol=1e-15)

    def test_matches_extended_precision_softmax(self):
        rng = np.random.default_rng(1234)
        dst = rng.standard_normal((3, 4))
        src = rng.standard_normal((2, 4))
        p = ProjectionSet(*(rng.standard_normal((4, 4)) for _ in range(3)))
        result = attention_assign(dst, src, p)
        scores = (dst @ p.w_q) @ (src @ p.w_k).T / 2.0
        with mp.workdps(40):
            expected = []
            for row in scores:
                exps = [mp.e ** mp.mpf(x) for x in row]
                total = mp.fsum(exps)
                expected.append([float(e / total) for e in exps])
        np.testing.assert_allclose(result.a, expected, atol=1e-15)
        np.testing.assert_allclose(result.a.sum(axis=1), 1.0, atol=1e-12)

    def test_g_is_exactly_a_h(self, rng):
        dst = rng.standard_normal((3, 6))
        src = rng.standard_normal((4, 6))
        p = ProjectionSet(*(rng.standard_normal((6, 6)) for _ in range(3)))
        result = attention_assign(dst, src, p)
        np.testing.assert_array_equal(result.g, result.a @ (src @ p.w_h))


class TestCosineCost:
    def test_parallel_rows_cost_zero(self):
        q = np.array([[1.0, 0.0], [0.0, 2.0]])
        cost = cosine_cost(q, 3.0 * q)
        np.testing.assert_allclose(np.diag(cost.data), 0.0, atol=1e-15)

    def test_opposite_rows_cost_one(self):
        q = np.array([[1.0, 1.0]])
        assert cosine_cost(q, -q).data[0, 0] == pytest.approx(1.0, abs=1e-15)

    def test_orthogonal_rows_cost_half(self):
        q = np.array([[1.0, 0.0]])
        k = np.array([[0.0, 5.0]])
        assert cosine_cost(q, k).data[0, 0] == pytest.approx(0.5, abs=1e-15)

    def test_zero_norm_row_names_row(self):
        q = np.array([[1.0, 0.0], [0.0, 0.0]])
        k = np.array([[1.0, 0.0]])
        with pytest.raises(ZeroNormRowError, match="query row 1"):
            cosine_cost(q, k)
        with pytest.raises(ZeroNormRowError, match="key row 0"):
            cosine_cost(k, np.zeros((1, 2)))

    def test_bounded(self, rng):
        cost = cosine_cost(rng.standard_normal((6, 5)), rng.standard_normal((7, 5)))
        assert cost.data.min() >= 0.0 and cost.data.max() <= 1.0

    def test_rotation_equivariance(self, rng):
        q = rng.standard_normal((4, 5))
        k = rng.standard_normal((6, 5))
        rot, _ = np.linalg.qr(rng.standard_normal((5, 5)))
        base = cosine_cost(q, k).data
        rotated = cosine_cost(q @ rot, k @ rot).data
        np.testing.assert_allclose(base, rotated, atol=1e-9)


class TestOtAssign:
    def test_constant_cost_gives_uniform_plan(self, rng):
        # Orthogonal query/key rows make every cost entry exactly 0.5.
        dst = np.array([[1.0, 0, 0, 0], [0, 1.0, 0, 0], [1.0, 1.0, 0, 0]])
        src = np.array([[0, 0, 1.0, 0], [0, 0, 0, 1.0], [0, 0, 1.0, 1.0]])
        result = ot_assign(dst, src, eye_set(4))
        n, m = 3, 3
        np.testing.assert_allclose(result.a, np.full((n, m), 1 / (n * m)), atol=1e-12)
        np.testing.assert_allclose(
            result.g, np.tile(src.mean(axis=0) / n, (n, 1)), atol=1e-12
        )

    def test_self_assignment_concentrates_on_diagonal(self, rng):
        seq = rng.standard_normal((5, 8))
        result = ot_assign(
            seq, seq, eye_set(8), SinkhornConfig(sharpness=30, max_iter=5000)
        )
        exact = exact_ot_uniform_square(cosine_cost(seq, seq))
        expected_cols = exact.data.argmax(axis=1)
        np.testing.assert_array_equal(result.a.argmax(axis=1), expected_cols)
        np.testing.assert_array_equal(expected_cols, np.arange(5))

    def test_rectangular_marginals(self, rng):
        dst = rng.standard_normal((2, 4))
        src = rng.standard_normal((3, 4))
        result = ot_assign(dst, src, eye_set(4))
        np.testing.assert_allclose(result.a.sum(axis=1), 0.5, atol=1e-6)
        np.testing.assert_allclose(result.a.sum(axis=0), 1 / 3, atol=1e-6)

    def test_g_scales_linearly_with_h(self, rng):
        dst = rng.standard_normal((3, 4))
        src = rng.standard_normal((4, 4))
        p = eye_set(4)
        scaled = p.replace(w_h=3.0 * np.eye(4))
        base = ot_assign(dst, src, p)
        tripled = ot_assign(dst, src, scaled)
        np.testing.assert_allclose(tripled.g, 3.0 * base.g, atol=1e-12)
        np.testing.assert_allclose(tripled.a, base.a, atol=1e-15)

    def test_plan_diagnostics_attached(self, rng):
        dst, src = rng.standard_normal((3, 4)), rng.standard_normal((4, 4))
        config = SinkhornConfig()
        result = ot_assign(dst, src, eye_set(4), config)
        plan = result.plan
        assert isinstance(plan, TransportPlan)
        assert plan.data.shape == result.a.shape == (3, 4)
        np.testing.assert_array_equal(plan.data, result.a)
        assert plan.converged
        assert plan.residual <= config.tol
        assert plan.achieved_marginal_error <= config.tol
        assert attention_assign(dst, src, eye_set(4)).plan is None


class TestAntiDomination:
    def test_duplicated_dominant_key(self):
        # All queries nearly parallel to one key; attention piles onto it,
        # the transport plan cannot exceed its column share.
        d = 6
        rng = np.random.default_rng(0)
        z = np.zeros(d)
        z[0] = 1.0
        dst = np.tile(8.0 * z, (5, 1)) + 0.01 * rng.standard_normal((5, d))
        src = 0.3 * rng.standard_normal((4, d))
        src[2] = 8.0 * z
        att = attention_assign(dst, src, eye_set(d))
        ot = ot_assign(dst, src, eye_set(d))
        att_share = att.a.sum(axis=0).max() / att.a.sum()
        ot_share = ot.a.sum(axis=0).max() / ot.a.sum()
        assert att.a.sum(axis=0).argmax() == 2
        assert att_share > 0.9
        assert ot_share <= 1 / 4 + 1e-6


class TestInteractRecord:
    def test_sites_by_record_kind(self, mention, entity):
        assert record_sites(mention) == (
            AssignmentSite.MENTION_VISUAL_TO_TEXT,
            AssignmentSite.MENTION_TEXT_TO_VISUAL,
        )
        assert record_sites(entity) == (
            AssignmentSite.ENTITY_VISUAL_TO_TEXT,
            AssignmentSite.ENTITY_TEXT_TO_VISUAL,
        )

    def test_shapes_match_between_mechanisms(self, rng, identity_table):
        rec = make_record(rng, "mention", rows_text=4, rows_visual=6, d=8)
        ot_res = interact_record(rec, identity_table, OT)
        att_res = interact_record(rec, identity_table, ATTENTION)
        for res in (ot_res, att_res):
            assert res.v2t.g.shape == (4, 8)
            assert res.t2v.g.shape == (6, 8)

    def test_single_patch_broadcast(self, rng, identity_table):
        text = rng.standard_normal((3, 8))
        visual = rng.standard_normal((1, 8))
        rec = MentionRecord(
            id="m", text=FeatureMatrix(text), visual=FeatureMatrix(visual)
        )
        att = interact_record(rec, identity_table, ATTENTION)
        np.testing.assert_allclose(att.v2t.g, np.tile(visual[0], (3, 1)), atol=1e-15)
        ot_res = interact_record(rec, identity_table, OT)
        np.testing.assert_allclose(
            ot_res.v2t.g, np.tile(visual[0] / 3.0, (3, 1)), atol=1e-9
        )


class TestProjectionTables:
    def test_identity_covers_all_sites(self):
        table = identity_projections(5)
        assert set(table) == set(AssignmentSite)
        for p in table.values():
            np.testing.assert_array_equal(p.w_q, np.eye(5))

    def test_default_projections_deterministic_and_orthogonal(self):
        a = default_projections(6, seed=3)
        b = default_projections(6, seed=3)
        c = default_projections(6, seed=4)
        site = AssignmentSite.MENTION_VISUAL_TO_TEXT
        np.testing.assert_array_equal(a[site].w_q, b[site].w_q)
        assert not np.array_equal(a[site].w_q, c[site].w_q)
        np.testing.assert_allclose(
            a[site].w_q @ a[site].w_q.T, np.eye(6), atol=1e-12
        )

    def test_default_projections_scale(self):
        table = default_projections(4, seed=0, scale=2.0)
        p = table[AssignmentSite.ENTITY_VISUAL_TO_TEXT]
        np.testing.assert_allclose(p.w_k @ p.w_k.T, 4.0 * np.eye(4), atol=1e-12)
