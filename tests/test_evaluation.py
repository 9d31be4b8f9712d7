from dataclasses import replace

import numpy as np
import pytest

from otmel.config import RunConfig
from otmel.correlation import default_projections, identity_projections
from otmel.errors import DataError
from otmel.evaluation import (
    RankingResult,
    hits_at_k,
    mrr,
    rank_all,
    rank_candidates,
)
from otmel.fixtures import FixtureSpec, make_dataset
from otmel.matching import Scorer
from otmel.types import EntityRecord, FeatureMatrix, MentionRecord


def result(rank, mention_id="m"):
    return RankingResult(mention_id=mention_id, ordering=("x",), rank_of_gold=rank)


class TestMetrics:
    def test_hits_formula(self):
        results = [result(1), result(2), result(4)]
        assert hits_at_k(results, 1) == pytest.approx(1 / 3)
        assert hits_at_k(results, 3) == pytest.approx(2 / 3)
        assert hits_at_k(results, 4) == 1.0

    def test_all_rank_one(self):
        results = [result(1)] * 5
        for k in (1, 2, 10):
            assert hits_at_k(results, k) == 1.0

    def test_rank_equal_k_counts(self):
        assert hits_at_k([result(3)], 3) == 1.0

    def test_mrr_formula(self):
        results = [result(1), result(2), result(4)]
        assert mrr(results) == pytest.approx(7 / 12)

    def test_mrr_single(self):
        assert mrr([result(5)]) == pytest.approx(0.2)

    def test_hits_nondecreasing_in_k(self, rng):
        results = [result(int(r)) for r in rng.integers(1, 30, size=50)]
        values = [hits_at_k(results, k) for k in range(1, 31)]
        assert all(a <= b for a, b in zip(values, values[1:]))
        assert values[-1] == 1.0

    def test_mrr_at_least_hits1(self, rng):
        for _ in range(20):
            results = [result(int(r)) for r in rng.integers(1, 10, size=12)]
            assert mrr(results) >= hits_at_k(results, 1)

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            hits_at_k([], 1)
        with pytest.raises(DataError):
            mrr([])

    def test_missing_rank_rejected(self):
        bare = RankingResult(mention_id="m", ordering=("x",), rank_of_gold=None)
        with pytest.raises(DataError):
            mrr([bare])


def scored_records(scores, d=8):
    """One mention plus len(scores) entities engineered so that the overall
    score of entity i is monotone in scores[i] (identity projections)."""
    rng = np.random.default_rng(0)
    base_t = np.abs(rng.standard_normal((2, d))) + 1.0
    base_v = np.abs(rng.standard_normal((3, d))) + 1.0
    mention = MentionRecord(
        id="m", text=FeatureMatrix(base_t), visual=FeatureMatrix(base_v), gold_entity="e0"
    )
    entities = [
        EntityRecord(
            id=f"e{i}", text=FeatureMatrix(s * base_t), visual=FeatureMatrix(s * base_v)
        )
        for i, s in enumerate(scores)
    ]
    return mention, entities


class TestRankCandidates:
    def test_single_gold_candidate(self, identity_table):
        mention, entities = scored_records([1.0])
        res = rank_candidates(mention, entities, Scorer(identity_table))
        assert res.rank_of_gold == 1
        assert res.ordering == ("e0",)

    def test_gold_strictly_worst_of_ten(self, identity_table):
        mention, entities = scored_records([0.1] + [1.0 + 0.1 * i for i in range(9)])
        res = rank_candidates(mention, entities, Scorer(identity_table))
        assert res.rank_of_gold == 10

    def test_ordering_descending_with_id_tiebreak(self, identity_table):
        mention, entities = scored_records([1.0, 2.0, 2.0, 0.5])
        res = rank_candidates(mention, entities, Scorer(identity_table))
        assert set(res.ordering[:2]) == {"e1", "e2"}
        assert res.ordering[0] == "e1"  # id breaks the score tie

    def test_gold_tie_is_pessimistic(self, identity_table):
        mention, entities = scored_records([1.0, 1.0, 1.0])
        res = rank_candidates(mention, entities, Scorer(identity_table))
        assert res.rank_of_gold == 3

    def test_boosting_gold_never_hurts(self, identity_table):
        mention, entities = scored_records([0.8, 1.0, 0.9])
        base = rank_candidates(mention, entities, Scorer(identity_table))
        boosted_entities = list(entities)
        boosted_entities[0] = EntityRecord(
            id="e0",
            text=FeatureMatrix(1.05 * entities[0].text.data),
            visual=FeatureMatrix(1.05 * entities[0].visual.data),
        )
        boosted = rank_candidates(mention, boosted_entities, Scorer(identity_table))
        assert boosted.rank_of_gold <= base.rank_of_gold

    def test_candidate_permutation_invariance(self, identity_table):
        mention, entities = scored_records([0.5, 1.5, 1.0, 2.0])
        a = rank_candidates(mention, entities, Scorer(identity_table))
        b = rank_candidates(mention, entities[::-1], Scorer(identity_table))
        assert a.ordering == b.ordering
        assert a.rank_of_gold == b.rank_of_gold

    def test_empty_candidates_rejected(self, identity_table):
        mention, _ = scored_records([1.0])
        with pytest.raises(DataError):
            rank_candidates(mention, [], Scorer(identity_table))

    def test_gold_absent_rejected(self, identity_table):
        mention, entities = scored_records([1.0, 2.0])
        strangers = entities[1:]
        with pytest.raises(DataError):
            rank_candidates(mention, strangers, Scorer(identity_table))

    def test_no_gold_without_evaluation(self, identity_table):
        mention, entities = scored_records([1.0, 2.0])
        bare = MentionRecord(id="m", text=mention.text, visual=mention.visual)
        res = rank_candidates(bare, entities, Scorer(identity_table), evaluate=False)
        assert res.rank_of_gold is None
        assert len(res.ordering) == 2


class TestRankAll:
    def test_thread_count_does_not_change_results(self):
        spec = FixtureSpec(seed=5, d=12, n_entities=4, n_mentions=6, noise_sigma=0.4)
        ds, _ = make_dataset(spec)
        table = identity_projections(12)
        serial = rank_all(ds.mentions, ds.entities, Scorer(table), threads=1)
        threaded = rank_all(ds.mentions, ds.entities, Scorer(table), threads=4)
        assert [r.ordering for r in serial] == [r.ordering for r in threaded]
        assert [r.rank_of_gold for r in serial] == [r.rank_of_gold for r in threaded]

    def test_planted_gold_ranks_first(self):
        spec = FixtureSpec(seed=2, d=24, n_entities=20, n_mentions=4, noise_sigma=0.0)
        ds, _ = make_dataset(spec)
        table = identity_projections(24)
        results = rank_all(ds.mentions, ds.entities, Scorer(table, RunConfig()))
        assert all(r.rank_of_gold == 1 for r in results)

    @staticmethod
    def mixed_lengths():
        # Each record cut to its own text and visual lengths, so scoring
        # splits into several stacks per site.
        spec = FixtureSpec(seed=9, d=8, n_entities=5, n_mentions=9, noise_sigma=0.5)
        ds, _ = make_dataset(spec)

        def cut(record, k):
            return replace(
                record,
                text=FeatureMatrix(record.text.data[: 2 + k % 3]),
                visual=FeatureMatrix(record.visual.data[: 1 + (2 * k) % 5]),
            )

        entities = [cut(e, k) for k, e in enumerate(ds.entities)]
        mentions = [cut(m, k + 1) for k, m in enumerate(ds.mentions)]
        return mentions, entities

    @pytest.mark.parametrize("evaluate", [True, False])
    @pytest.mark.parametrize("mechanism", ["ot", "attention"])
    def test_batch_equals_online_on_mixed_lengths(self, evaluate, mechanism):
        mentions, entities = self.mixed_lengths()
        table = identity_projections(8)
        run = RunConfig(mechanism=mechanism, sharpness=30.0)
        batch = rank_all(mentions, entities, Scorer(table, run), evaluate=evaluate)
        online = Scorer(table, run)
        assert batch == [
            rank_candidates(m, entities, online, evaluate=evaluate) for m in mentions
        ]
        assert all((r.rank_of_gold is None) != evaluate for r in batch)

    @pytest.mark.parametrize("ablation", [(), ("no_fusm",), ("no_unim",)])
    @pytest.mark.parametrize("lengths", [(3, 5), (4, 4)])
    @pytest.mark.parametrize("mechanism", ["ot", "attention"])
    def test_online_fresh_mentions_equal_batch_rows(self, mechanism, lengths, ablation):
        # An online call on a mention not pooled yet, against a prepared
        # catalog, solves its cross-modal and unimodal problems together
        # where they share a shape: all of them at equal text and visual
        # lengths, none at unequal ones.
        text_len, visual_len = lengths
        spec = FixtureSpec(
            seed=11, d=8, n_entities=6, n_mentions=7,
            text_len=text_len, visual_len=visual_len, noise_sigma=0.5,
        )
        ds, _ = make_dataset(spec)
        table = default_projections(8, seed=3, scale=1.5)
        run = RunConfig(
            mechanism=mechanism, sharpness=30.0, ablations=frozenset(ablation)
        )
        batch = rank_all(ds.mentions, ds.entities, Scorer(table, run))
        grid = Scorer(table, run).score_grid(ds.mentions, ds.entities)
        ranker, scorer = Scorer(table, run), Scorer(table, run)
        for s in (ranker, scorer):
            s.warm(ds.entities)
        for i, mention in enumerate(ds.mentions):
            assert rank_candidates(mention, ds.entities, ranker) == batch[i]
            row = scorer.score_all(mention, ds.entities)
            for kind in ("s_f", "s_t", "s_v", "s_o"):
                expected = getattr(grid.mention(i), kind)
                assert getattr(row, kind).tobytes() == expected.tobytes()

    def test_rejects_the_first_mention_rank_candidates_rejects(self):
        mentions, entities = self.mixed_lengths()
        scorer = Scorer(identity_projections(8))
        no_gold = replace(mentions[3], gold_entity=None)
        stranger = replace(mentions[5], gold_entity="nobody")
        for batch, cands, bad in (
            (mentions[:3] + [no_gold, stranger], entities, no_gold),
            (mentions[:2] + [stranger, no_gold], entities, stranger),
            (mentions, [], mentions[0]),
        ):
            with pytest.raises(DataError) as online:
                rank_candidates(bad, cands, scorer)
            with pytest.raises(DataError) as batched:
                rank_all(batch, cands, scorer)
            assert str(batched.value) == str(online.value)
        # Without evaluation a missing or absent gold is not an error.
        assert len(rank_all([no_gold, stranger], entities, scorer, evaluate=False)) == 2

    def test_no_mentions_rank_to_nothing(self):
        _, entities = self.mixed_lengths()
        scorer = Scorer(identity_projections(8))
        assert rank_all([], entities, scorer) == []
        assert rank_all([], [], scorer) == []
