import weakref
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest
import tracemalloc

from hypothesis import given, settings
from hypothesis import strategies as st

from otmel import matching
from otmel.config import RunConfig
from otmel.correlation import (
    CROSS_MODAL_SITES,
    OT,
    UNIMODAL_SITES,
    AssignmentSite,
    SITE_LEGS,
    assign,
    assignment_stack,
    default_projections,
    interact_record,
)
from otmel.errors import ConfigError, DimensionError
from otmel.matching import Scorer, _pool, _workspace
from otmel.ot import SinkhornConfig
from otmel.types import EntityRecord, FeatureMatrix, MatchScores, MentionRecord

from conftest import make_record
from reference import (
    fused_score,
    pooled_pair,
    softpool,
    stack_pool,
    unimodal_score,
    unimodal_value,
)


def softpool_oracle(columns):
    """Direct extended-precision evaluation, one column at a time."""
    out = []
    with mp.workdps(50):
        for col in np.asarray(columns, float).T:
            weights = [mp.e ** mp.mpf(x) for x in col]
            total = mp.fsum(weights)
            out.append(float(mp.fsum(w * mp.mpf(x) for w, x in zip(weights, col)) / total))
    return np.array(out)


class TestSoftpool:
    def test_single_row_unchanged(self, rng):
        row = rng.standard_normal((1, 6))
        np.testing.assert_allclose(softpool([row]), row[0], atol=1e-15)

    def test_equal_rows_unchanged(self, rng):
        row = rng.standard_normal(5)
        np.testing.assert_allclose(softpool([np.tile(row, (2, 1))]), row, atol=1e-12)

    def test_zero_ten_column(self):
        # Frozen from softpool_oracle: 10*e^10/(1+e^10).
        out = softpool([np.array([[0.0], [10.0]])])
        expected = 9.9995460213129756561
        assert out[0] == pytest.approx(expected, abs=1e-12)
        assert 5.0 < out[0] < 10.0
        np.testing.assert_allclose(
            out, softpool_oracle(np.array([[0.0], [10.0]])), atol=1e-12
        )

    def test_matches_oracle_random(self, rng):
        stacked = rng.standard_normal((7, 4)) * 3
        np.testing.assert_allclose(
            softpool([stacked]), softpool_oracle(stacked), atol=1e-12
        )

    def test_multiple_members_stack(self, rng):
        a = rng.standard_normal((2, 3))
        b = rng.standard_normal((4, 3))
        np.testing.assert_allclose(
            softpool([a, b]), softpool([np.vstack([a, b])]), atol=1e-15
        )

    def test_accepts_feature_matrices(self, rng):
        a = FeatureMatrix(rng.standard_normal((2, 3)))
        np.testing.assert_allclose(softpool([a]), softpool([a.data]), atol=1e-15)

    def test_members_left_unchanged(self, rng):
        # softpool updates its work array in place; a lone member is pooled
        # without a copy, so that array must never be the member itself.
        stack = rng.standard_normal((3, 4, 5))
        before = stack.copy()
        softpool([stack])
        np.testing.assert_array_equal(stack, before)

    def test_empty_input_rejected(self):
        with pytest.raises(ConfigError):
            softpool([])

    def test_mismatched_widths_rejected(self, rng):
        with pytest.raises(DimensionError):
            softpool([rng.standard_normal((2, 3)), rng.standard_normal((2, 4))])

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_bounded_by_column_extrema(self, seed):
        rows = np.random.default_rng(seed).standard_normal((5, 3)) * 5
        out = softpool([rows])
        assert (out >= rows.min(axis=0) - 1e-12).all()
        assert (out <= rows.max(axis=0) + 1e-12).all()

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_permutation_invariant(self, seed):
        r = np.random.default_rng(seed)
        rows = r.standard_normal((6, 4))
        perm = r.permutation(6)
        np.testing.assert_allclose(softpool([rows]), softpool([rows[perm]]), atol=1e-12)

    def test_pool_variants(self, rng):
        rows = rng.standard_normal((4, 3))
        np.testing.assert_allclose(stack_pool([rows], "mean"), rows.mean(axis=0))
        np.testing.assert_allclose(stack_pool([rows], "max"), rows.max(axis=0))
        soft = stack_pool([rows], "soft")
        assert (soft <= rows.max(axis=0) + 1e-12).all()
        assert (soft >= rows.mean(axis=0).min() - 10).all()


class TestFusedScore:
    def test_zero_entity_vectors(self, rng):
        m = (rng.standard_normal(4), rng.standard_normal(4))
        assert fused_score(m, (np.zeros(4), np.zeros(4))) == 0.0

    def test_identical_vectors_norm(self, rng):
        t, v = rng.standard_normal(4), rng.standard_normal(4)
        expected = float(t @ t + v @ v)
        assert fused_score((t, v), (t, v)) == pytest.approx(expected, abs=1e-12)

    def test_concatenation_identity(self, rng):
        for _ in range(20):
            mt, mv, et, ev = (rng.standard_normal(5) for _ in range(4))
            concat = float(np.concatenate([mt, mv]) @ np.concatenate([et, ev]))
            assert fused_score((mt, mv), (et, ev)) == pytest.approx(concat, abs=1e-12)

    def test_dimension_mismatch(self, rng):
        with pytest.raises(DimensionError):
            fused_score(
                (rng.standard_normal(4), rng.standard_normal(4)),
                (rng.standard_normal(5), rng.standard_normal(4)),
            )


class TestUnimodalScore:
    def test_zero_entity_summary_scores_zero(self, rng, identity_table):
        # Both inner products hit the zero summary row; attention is used
        # because the transport cost is undefined for a zero-norm query row.
        m_mat = FeatureMatrix(rng.standard_normal((3, 8)))
        e_data = rng.standard_normal((4, 8))
        e_data[0] = 0.0
        score = unimodal_score(
            m_mat,
            FeatureMatrix(e_data),
            identity_table[AssignmentSite.MENTION_TO_ENTITY_TEXT],
            "attention",
        )
        assert score == 0.0

    def test_zero_norm_query_row_raises_under_ot(self, rng, identity_table):
        from otmel.errors import ZeroNormRowError

        m_mat = FeatureMatrix(rng.standard_normal((3, 8)))
        e_data = rng.standard_normal((4, 8))
        e_data[0] = 0.0
        with pytest.raises(ZeroNormRowError):
            unimodal_score(
                m_mat,
                FeatureMatrix(e_data),
                identity_table[AssignmentSite.MENTION_TO_ENTITY_TEXT],
                OT,
            )

    def test_single_token_closed_form(self, rng, identity_table):
        m_mat = FeatureMatrix(rng.standard_normal((1, 8)))
        e_mat = FeatureMatrix(rng.standard_normal((1, 8)))
        score = unimodal_score(
            m_mat,
            e_mat,
            identity_table[AssignmentSite.MENTION_TO_ENTITY_TEXT],
            OT,
        )
        # One feasible coupling: the single mention token maps to the single
        # entity position with all mass, so the pooled vector is the token.
        expected = 0.5 * (m_mat.data[0] @ e_mat.data[0] + m_mat.data[0] @ e_mat.data[0])
        assert score == pytest.approx(expected, abs=1e-9)

    def test_self_match_with_sharp_plan(self, rng, identity_table):
        mat = FeatureMatrix(rng.standard_normal((4, 8)))
        proj = identity_table[AssignmentSite.MENTION_TO_ENTITY_TEXT]
        cfg = SinkhornConfig(sharpness=40, max_iter=5000)
        score = unimodal_score(mat, mat, proj, OT, cfg)
        # Oracle: compose the solver and the pooling independently.
        from otmel.correlation import cosine_cost, project
        from otmel.ot import Marginals, sinkhorn

        q, k, h = project(mat, mat, proj)
        plan = sinkhorn(cosine_cost(q, k), Marginals.uniform(4, 4), cfg)
        pooled = softpool([plan.data @ h])
        expected = 0.5 * float(pooled @ mat.data[0] + mat.data[0] @ mat.data[0])
        assert score == pytest.approx(expected, abs=1e-12)


class TestOverallScore:
    def test_mean_identity(self, rng, identity_table):
        m = make_record(rng, "mention", d=8)
        e = make_record(rng, "entity", d=8)
        s = Scorer(identity_table).scores(m, e)
        assert s.s_o == pytest.approx((s.s_f + s.s_t + s.s_v) / 3, abs=1e-9)

    def test_identical_pair_beats_orthogonal(self, rng, identity_table):
        d = 8
        basis = np.linalg.qr(rng.standard_normal((d, d)))[0]
        text = np.abs(rng.random((3, d))) @ np.diag(basis[:, 0])  # skewed rows
        text = np.outer(np.ones(3), basis[:, 0]) + 0.1 * rng.standard_normal((3, d))
        visual = np.outer(np.ones(4), basis[:, 0]) + 0.1 * rng.standard_normal((4, d))
        mention = MentionRecord(id="m", text=FeatureMatrix(text), visual=FeatureMatrix(visual))
        twin = EntityRecord(id="e1", text=FeatureMatrix(text), visual=FeatureMatrix(visual))
        ortho = EntityRecord(
            id="e2",
            text=FeatureMatrix(np.outer(np.ones(3), basis[:, 1])),
            visual=FeatureMatrix(np.outer(np.ones(4), basis[:, 1])),
        )
        s_twin = Scorer(identity_table).scores(mention, twin)
        s_ortho = Scorer(identity_table).scores(mention, ortho)
        assert s_twin.s_o > s_ortho.s_o

    def test_ablation_excludes_and_renormalizes(self, rng, identity_table):
        m = make_record(rng, "mention", d=8)
        e = make_record(rng, "entity", d=8)
        full = Scorer(identity_table).scores(m, e)
        no_fused = Scorer(
            identity_table, RunConfig(ablations=frozenset({"no_fusm"}))
        ).scores(m, e)
        assert no_fused.s_f == 0.0
        assert no_fused.s_o == pytest.approx((full.s_t + full.s_v) / 2, abs=1e-9)
        no_uni = Scorer(
            identity_table, RunConfig(ablations=frozenset({"no_unim"}))
        ).scores(m, e)
        assert no_uni.s_t == 0.0 and no_uni.s_v == 0.0
        assert no_uni.s_o == pytest.approx(full.s_f, abs=1e-9)

    def test_both_ablations_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig(ablations=frozenset({"no_fusm", "no_unim"}))

    def test_scores_linear_in_entity_pooled_vectors(self, rng, identity_table):
        m = make_record(rng, "mention", d=8)
        scorer = Scorer(identity_table, RunConfig())
        m_pool = scorer.pooled(m)
        a = (rng.standard_normal(8), rng.standard_normal(8))
        b = (rng.standard_normal(8), rng.standard_normal(8))
        alpha, beta = 1.7, -0.4
        combo = (alpha * a[0] + beta * b[0], alpha * a[1] + beta * b[1])
        lhs = fused_score(m_pool, combo)
        rhs = alpha * fused_score(m_pool, a) + beta * fused_score(m_pool, b)
        assert lhs == pytest.approx(rhs, abs=1e-9)


class TestScorerCaches:
    def test_pooled_cached_by_record(self, rng, identity_table):
        m = make_record(rng, "mention", d=8)
        scorer = Scorer(identity_table, RunConfig())
        first = scorer.pooled(m)
        second = scorer.pooled(m)
        assert first is second

    def test_pool_variant_changes_result(self, rng, identity_table):
        m = make_record(rng, "mention", d=8)
        soft = Scorer(identity_table, RunConfig(pool="soft")).pooled(m)
        mean = Scorer(identity_table, RunConfig(pool="mean")).pooled(m)
        assert not np.allclose(soft[0], mean[0])

    def test_mechanism_changes_scores(self, rng, identity_table):
        m = make_record(rng, "mention", d=8)
        e = make_record(rng, "entity", d=8)
        s_ot = Scorer(identity_table, RunConfig(mechanism="ot")).scores(m, e)
        s_att = Scorer(identity_table, RunConfig(mechanism="attention")).scores(m, e)
        assert s_ot.s_o != s_att.s_o

    def test_long_lived_scorer_ignores_recycled_record_ids(self, identity_table):
        # Records built on the fly and dropped free their ids for reuse; a
        # cache that trusted the id alone would hand a later record an
        # earlier record's interactions.
        rng = np.random.default_rng(3)
        entity = make_record(rng, "entity", d=8)
        scorer = Scorer(identity_table, RunConfig())
        stale = 0
        for _ in range(200):
            mention = make_record(rng, "mention", d=8)
            fresh = Scorer(identity_table, RunConfig()).scores(mention, entity)
            stale += scorer.scores(mention, entity) != fresh
        assert stale == 0

    def test_long_lived_scorer_ignores_recycled_catalog_ids(self, identity_table):
        # A catalog's queries are kept for the next call; catalogs built on
        # the fly and dropped free their ids for reuse, and a cache that
        # trusted the ids alone would score a new catalog with old queries.
        rng = np.random.default_rng(4)
        mention = make_record(rng, "mention", d=8)
        run = RunConfig(mechanism="attention")
        scorer = Scorer(identity_table, run)
        stale = 0
        for _ in range(100):
            catalog = [make_record(rng, "entity", d=8) for _ in range(3)]
            fresh = Scorer(identity_table, run).score_all(mention, catalog)
            stale += not np.array_equal(scorer.score_all(mention, catalog).s_o, fresh.s_o)
        assert stale == 0

    @pytest.mark.parametrize("mechanism", ["ot", "attention"])
    def test_clear_keeps_scores_and_releases_records(self, rng, identity_table, mechanism):
        mention = make_record(rng, "mention", d=8)
        entities = [make_record(rng, "entity", d=8) for _ in range(3)]
        scorer = Scorer(identity_table, RunConfig(mechanism=mechanism))
        before = scorer.score_all(mention, entities)
        scorer.clear()
        after = scorer.score_all(mention, entities)
        for field in ("s_f", "s_t", "s_v", "s_o"):
            np.testing.assert_array_equal(getattr(after, field), getattr(before, field))
        refs = [weakref.ref(r) for r in (mention, *entities)]
        scorer.clear()
        del mention, entities
        assert [r() for r in refs] == [None] * 4

    @pytest.mark.parametrize("mechanism", ["ot", "attention"])
    def test_prepared_catalog_holds_one_catalog(self, rng, identity_table, mechanism):
        # Scoring a second catalog releases the first one's entities. Under
        # no_fusm no pooled vector is cached, so the prepared catalog would
        # be their only holder.
        run = RunConfig(mechanism=mechanism, ablations=frozenset({"no_fusm"}))
        scorer = Scorer(identity_table, run)
        mention = make_record(rng, "mention", d=8)
        first = [make_record(rng, "entity", d=8) for _ in range(3)]
        second = [make_record(rng, "entity", d=8) for _ in range(2)]
        before = scorer.score_all(mention, first)
        # The same entities in a new list are the same catalog.
        again = scorer.score_all(mention, list(first))
        np.testing.assert_array_equal(again.s_o, before.s_o)
        refs = [weakref.ref(e) for e in first]
        scorer.score_all(mention, second)
        del first
        assert [r() for r in refs] == [None] * 3


def pair_reference(mention, entity, table, run):
    """One pair scored alone: fused_score of pooled_pair values plus unimodal_score."""
    solver = run.sinkhorn_config()
    s_f = s_t = s_v = 0.0
    parts = []
    if "no_fusm" not in run.ablations:
        pooled = [
            pooled_pair(r, interact_record(r, table, run.mechanism, solver), run.pool)
            for r in (mention, entity)
        ]
        s_f = fused_score(*pooled)
        parts.append(s_f)
    if "no_unim" not in run.ablations:
        s_t, s_v = (
            unimodal_score(
                getattr(mention, attr),
                getattr(entity, attr),
                table[site],
                run.mechanism,
                solver,
                run.pool,
            )
            for site, attr in (
                (AssignmentSite.MENTION_TO_ENTITY_TEXT, "text"),
                (AssignmentSite.MENTION_TO_ENTITY_VISUAL, "visual"),
            )
        )
        parts.extend([s_t, s_v])
    return MatchScores(s_f=s_f, s_t=s_t, s_v=s_v, s_o=sum(parts) / len(parts))


def random_catalog(rng, count, d=6):
    """Entities whose lengths vary, so some share a stack and some stand alone."""
    return [
        make_record(
            rng,
            "entity",
            rows_text=int(rng.integers(1, 4)),
            rows_visual=int(rng.integers(1, 4)),
            d=d,
        )
        for _ in range(count)
    ]


RUN_CONFIGS = st.builds(
    lambda mechanism, pool, ablation, sharpness: RunConfig(
        mechanism=mechanism,
        pool=pool,
        ablations=frozenset(ablation),
        sharpness=sharpness,
    ),
    mechanism=st.sampled_from(["ot", "attention"]),
    pool=st.sampled_from(["soft", "mean", "max"]),
    ablation=st.sampled_from([(), ("no_fusm",), ("no_unim",)]),
    sharpness=st.sampled_from([0.6, 30.0]),
)


class TestScoreAll:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), run=RUN_CONFIGS, count=st.integers(1, 7))
    def test_matches_per_pair_composition(self, seed, run, count):
        rng = np.random.default_rng(seed)
        table = default_projections(6, seed=seed % 1000)
        entities = random_catalog(rng, count)
        # Two mentions of one shape, so warming solves them as a stack.
        mentions = [
            make_record(rng, "mention", rows_text=3, rows_visual=2, d=6)
            for _ in range(2)
        ]
        scorer = Scorer(table, run)
        scorer.warm(mentions)
        for mention in mentions:
            got = scorer.score_all(mention, entities)
            for j, entity in enumerate(entities):
                assert got.row(j) == pair_reference(mention, entity, table, run)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), run=RUN_CONFIGS, count=st.integers(2, 7))
    def test_scores_do_not_depend_on_the_rest_of_the_catalog(self, seed, run, count):
        # Online ranking scores a mention against whatever catalog it is
        # given; batch ranking against the whole one. They agree only if
        # an entity's scores ignore its neighbours.
        rng = np.random.default_rng(seed)
        table = default_projections(6, seed=seed % 1000)
        entities = random_catalog(rng, count)
        mention = make_record(rng, "mention", rows_text=2, rows_visual=3, d=6)
        full = Scorer(table, run).score_all(mention, entities)
        order = rng.permutation(count)[: int(rng.integers(1, count + 1))]
        part = Scorer(table, run).score_all(mention, [entities[j] for j in order])
        for pos, j in enumerate(order):
            assert part.row(pos) == full.row(j)

    @pytest.mark.parametrize("ablation", [(), ("no_fusm",), ("no_unim",)])
    def test_mismatched_d_raises_dimension_error(self, rng, ablation):
        # Under no_fusm no cross-modal solve runs, so the unimodal sites
        # themselves must check d; a catalog mixing d must not reach a
        # stack of unequal rows.
        table = default_projections(6, seed=0)
        scorer = Scorer(table, RunConfig(ablations=frozenset(ablation)))
        fits = make_record(rng, "mention", rows_text=2, rows_visual=2, d=6)
        odd = make_record(rng, "mention", rows_text=2, rows_visual=2, d=7)
        catalog = [
            make_record(rng, "entity", rows_text=2, rows_visual=2, d=d) for d in (6, 7)
        ]
        with pytest.raises(DimensionError):
            scorer.score_all(odd, catalog[:1])
        with pytest.raises(DimensionError):
            scorer.score_all(fits, catalog)
        if scorer.uses_fused:
            with pytest.raises(DimensionError):
                scorer.warm([fits, odd])


def mixed_mentions(rng, count, d=6):
    """Mentions of 1-3 text and visual rows, so they fall into several groups."""
    return [
        make_record(
            rng,
            "mention",
            rows_text=int(rng.integers(1, 4)),
            rows_visual=int(rng.integers(1, 4)),
            d=d,
        )
        for _ in range(count)
    ]


class TestScoreGrid:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        run=RUN_CONFIGS,
        clamped=st.booleans(),
        count=st.integers(1, 5),
        mentions=st.integers(1, 4),
    )
    def test_rows_match_score_all_and_pair_reference(
        self, seed, run, clamped, count, mentions
    ):
        if clamped:
            # At this sharpness every cost above about 0.46 clamps the kernel.
            run = replace(run, sharpness=1500.0)
        rng = np.random.default_rng(seed)
        table = default_projections(6, seed=seed % 1000)
        entities = random_catalog(rng, count)
        batch = mixed_mentions(rng, mentions)
        grid = Scorer(table, run).score_grid(batch, entities)
        assert grid.s_o.shape == (mentions, count)
        for i, mention in enumerate(batch):
            got = grid.mention(i)
            alone = Scorer(table, run).score_all(mention, entities)
            for j, entity in enumerate(entities):
                reference = pair_reference(mention, entity, table, run)
                assert got.row(j) == alone.row(j) == reference

    @pytest.mark.parametrize("mechanism", ["ot", "attention"])
    def test_rows_match_when_solves_split(self, mechanism):
        # 70 mentions of one shape warm in two solves of 64 and 6, and
        # against the 32-entity block of one length the unimodal sites
        # solve two mentions at a time; rows must not see those splits.
        rng = np.random.default_rng(5)
        table = default_projections(6, seed=5)
        run = RunConfig(mechanism=mechanism)
        entities = [
            make_record(rng, "entity", rows_text=3, rows_visual=3, d=6)
            for _ in range(36)
        ] + random_catalog(rng, 4)
        batch = [
            make_record(rng, "mention", rows_text=3, rows_visual=3, d=6)
            for _ in range(70)
        ] + mixed_mentions(rng, 4)
        grid = Scorer(table, run).score_grid(batch, entities)
        online = Scorer(table, run)
        for i, mention in enumerate(batch):
            got = grid.mention(i)
            alone = online.score_all(mention, entities)
            for kind in ("s_f", "s_t", "s_v", "s_o"):
                np.testing.assert_array_equal(getattr(got, kind), getattr(alone, kind))
            if i % 9 == 0:
                for j in range(0, len(entities), 7):
                    reference = pair_reference(mention, entities[j], table, run)
                    assert got.row(j) == reference

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        run=RUN_CONFIGS,
        probes=st.integers(1, 3),
        mentions=st.integers(1, 3),
        wide=st.booleans(),
        pick=st.integers(0, 5),
        name=st.sampled_from(["w_q", "w_k", "w_h"]),
    )
    def test_probe_axes_give_each_probes_grid(
        self, seed, run, probes, mentions, wide, pick, name
    ):
        # The toy trainer's probes: one site's matrix as a (P, 1, d, d)
        # stack, whose unit axis broadcasts over the stacked records. A
        # wide catalog has a 33-entity block of one length, so its solves
        # split.
        rng = np.random.default_rng(seed)
        d = 4
        table = default_projections(d, seed=seed % 1000, scale=1.5)
        entities = random_catalog(rng, 3, d=d)
        if wide:
            entities += [
                make_record(rng, "entity", rows_text=2, rows_visual=3, d=d)
                for _ in range(33)
            ]
        batch = mixed_mentions(rng, mentions, d=d)
        used = (CROSS_MODAL_SITES if "no_fusm" not in run.ablations else ()) + (
            UNIMODAL_SITES if "no_unim" not in run.ablations else ()
        )
        site = used[pick % len(used)]
        probed = {
            AssignmentSite.MENTION_TO_ENTITY_TEXT: "s_t",
            AssignmentSite.MENTION_TO_ENTITY_VISUAL: "s_v",
        }.get(site, "s_f")
        stack = getattr(table[site], name) + 0.1 * rng.standard_normal((probes, 1, d, d))

        def grid(matrix):
            probe_table = {**table, site: table[site].replace(**{name: matrix})}
            return Scorer(probe_table, run).score_grid(batch, entities)

        stacked = grid(stack)
        shape = (probes, mentions, len(entities))
        assert stacked.s_o.shape == getattr(stacked, probed).shape == shape
        for p in range(probes):
            alone = grid(stack[p, 0])
            for field in ("s_f", "s_t", "s_v", "s_o"):
                got = np.broadcast_to(getattr(stacked, field), shape)[p]
                np.testing.assert_array_equal(got, getattr(alone, field))

    @pytest.mark.parametrize("mechanism", ["ot", "attention"])
    def test_online_mention_is_one_solve(self, monkeypatch, mechanism):
        # Against a warmed catalog of its own shape, a fresh mention's two
        # cross-modal problems and its two problems per entity share one
        # solve; a mention already pooled brings only the unimodal ones.
        solved = []

        def spy(scores, mechanism, config):
            scores = list(scores)
            solved.append(sum(s.shape[-3] for s in scores))
            return assignment_stack(scores, mechanism, config)

        monkeypatch.setattr(matching, "assignment_stack", spy)
        rng = np.random.default_rng(6)
        table = default_projections(6, seed=6)
        entities = [
            make_record(rng, "entity", rows_text=3, rows_visual=3, d=6)
            for _ in range(5)
        ]
        mention = make_record(rng, "mention", rows_text=3, rows_visual=3, d=6)
        scorer = Scorer(table, RunConfig(mechanism=mechanism))
        scorer.warm(entities)
        solved.clear()
        fresh = scorer.score_all(mention, entities)
        assert solved == [2 + 2 * len(entities)]
        solved.clear()
        again = scorer.score_all(mention, entities)
        assert solved == [2 * len(entities)]
        np.testing.assert_array_equal(again.s_o, fresh.s_o)

    def test_empty_blocks(self, identity_table, rng):
        scorer = Scorer(identity_table, RunConfig())
        mention = make_record(rng, "mention")
        assert scorer.score_grid([], [make_record(rng, "entity")]).s_o.shape == (0, 1)
        assert scorer.score_grid([mention], []).s_o.shape == (1, 0)
        assert scorer.score_all(mention, []).s_o.shape == (0,)


POOLS = st.sampled_from(["soft", "mean", "max"])


class TestRowsFirstPooling:
    # Batch scoring writes each block's transported rows through a matmul
    # into a rows-first buffer and pools it in place, reusing the buffers
    # for every block of a job. Each problem must pool to the bits that
    # the per-pair path gives it alone.

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        lead=st.lists(st.integers(1, 3), max_size=2),
        count=st.integers(1, 5),
        n=st.integers(1, 13),
        m=st.integers(1, 13),
        d=st.sampled_from([1, 2, 3, 5, 8, 16, 64]),
        kind=POOLS,
        own_rows=st.booleans(),
        probed_h=st.booleans(),
    )
    def test_workspace_pool_equals_each_pair(
        self, seed, lead, count, n, m, d, kind, own_rows, probed_h
    ):
        rng = np.random.default_rng(seed)
        lead = tuple(lead)
        h_lead = lead if probed_h else ()
        rows = 2 * n if own_rows else n
        buf = _workspace(lead + (count,), rows, d)
        work, out = np.empty_like(buf), np.empty(lead + (count, d))
        # Two fills of one buffer, the second a short block: reuse must not leak.
        for size in (count, int(rng.integers(1, count + 1))):
            a = rng.random(lead + (size, n, m))
            h = rng.standard_normal(h_lead + (size, m, d))
            x = rng.standard_normal((size, n, d))
            view = buf[..., :size, :, :]
            if own_rows:
                view[..., :n, :] = x
            np.matmul(a, h, out=view[..., rows - n :, :])
            got = _pool(view, kind, work[..., :size, :, :], out[..., :size, :])
            for idx in np.ndindex(lead + (size,)):
                b = idx[-1]
                g = a[idx] @ h[idx if probed_h else b]
                members = [x[b], g] if own_rows else [g]
                assert got[idx].tobytes() == stack_pool(members, kind).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        mechanism=st.sampled_from(["ot", "attention"]),
        pool=POOLS,
        d=st.integers(1, 5),
        probes=st.integers(0, 2),
        pick=st.integers(0, 5),
        name=st.sampled_from(["w_q", "w_k", "w_h"]),
    )
    def test_scorer_equals_pooled_pair_and_unimodal_value(
        self, seed, mechanism, pool, d, probes, pick, name
    ):
        # Mixed lengths with text and visual lengths apart, so sites have
        # n != m and many entities form blocks of one; a probed matrix
        # adds leading axes to one site's buffers.
        rng = np.random.default_rng(seed)
        table = default_projections(d, seed=seed % 1000, scale=1.5)
        entities = random_catalog(rng, 4, d=d)
        mentions = mixed_mentions(rng, 3, d=d)
        run = RunConfig(mechanism=mechanism, pool=pool, sharpness=30.0)
        site = (CROSS_MODAL_SITES + UNIMODAL_SITES)[pick]
        stack = getattr(table[site], name) + 0.1 * rng.standard_normal(
            (max(probes, 1), 1, d, d)
        )
        probe_tables = [
            {**table, site: table[site].replace(**{name: stack[p, 0]})}
            for p in range(len(stack))
        ]
        scored = probe_tables[0] if probes == 0 else {
            **table, site: table[site].replace(**{name: stack})
        }
        scorer = Scorer(scored, run)
        grid = scorer.score_grid(mentions, entities)
        solver = run.sinkhorn_config()
        for p, tbl in enumerate(probe_tables):
            for record in mentions + entities:
                inter = interact_record(record, tbl, mechanism, solver)
                want = pooled_pair(record, inter, pool)
                for got, vec in zip(scorer.pooled(record), want):
                    got = np.broadcast_to(got, (len(probe_tables), d))[p]
                    assert got.tobytes() == vec.tobytes()
            for field, uni in zip(("s_t", "s_v"), UNIMODAL_SITES):
                _, attr, _, _ = SITE_LEGS[uni]
                shape = (len(probe_tables), len(mentions), len(entities))
                got = np.broadcast_to(getattr(grid, field), shape)[p]
                for i, mention in enumerate(mentions):
                    for j, entity in enumerate(entities):
                        m_side, e_side = getattr(mention, attr), getattr(entity, attr)
                        g = assign(e_side, m_side, tbl[uni], mechanism, solver).g
                        want = unimodal_value(
                            stack_pool([g], pool), m_side.summary, e_side.summary
                        )
                        assert got[i, j] == want


def _traced_peak(scorer, mentions, entities) -> int:
    """Bytes ``score_grid`` holds at its peak beyond what was allocated before it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        scorer.score_grid(mentions, entities)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


class TestBlockMemory:
    @pytest.mark.parametrize("mechanism", ["ot", "attention"])
    def test_no_temporary_grows_with_the_mentions(self, mechanism):
        # Scoring works in blocks of at most _BLOCK records, so apart from
        # the four (M, E) score grids the traced peak barely moves when
        # the mentions quadruple (the ranking benchmark's shape: d=64,
        # E=32, L=12).
        rng = np.random.default_rng(0)
        d, length, width = 64, 12, 32
        entities = [
            make_record(rng, "entity", rows_text=length, rows_visual=length, d=d)
            for _ in range(width)
        ]
        peaks = []
        for count in (64, 256):
            mentions = [
                make_record(rng, "mention", rows_text=length, rows_visual=length, d=d)
                for _ in range(count)
            ]
            scorer = Scorer(default_projections(d, seed=0), RunConfig(mechanism=mechanism))
            peaks.append(_traced_peak(scorer, mentions, entities) - 4 * count * width * 8)
        assert peaks[1] < 1.1 * peaks[0]
