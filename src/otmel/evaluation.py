"""Candidate ranking and retrieval metrics.

Gold ranks are pessimistic under score ties: the gold entity takes the
worst position inside its tie group, so degenerate all-equal scores can
never inflate the metrics. Metric reductions run on exact rationals, so
results are independent of mention ordering. Ranking one mention online
(:func:`rank_candidates`) scores it as a block of one; batch ranking
(:func:`rank_all`) scores every mention in one call of the same scoring
core (:meth:`~otmel.matching.Scorer.score_grid`). A score depends only on
its own mention and candidate, and both paths order a score row with the
same helper, so online and batch rankings agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ConfigError, DataError
from .matching import Scorer
from .types import EntityRecord, MentionRecord


@dataclass(frozen=True)
class RankingResult:
    """One mention's candidate ordering (descending overall score).

    ``ordering`` breaks score ties by candidate id; ``rank_of_gold`` is
    1-based and pessimistic under ties. It is None when the ranking was
    produced without evaluation.
    """

    mention_id: str
    ordering: tuple[str, ...]
    rank_of_gold: int | None


def _check(mention: MentionRecord, entities, evaluate: bool) -> None:
    """Reject a ranking request that has no candidates or, if evaluated, no gold."""
    if len(entities) == 0:
        raise DataError(f"mention {mention.id!r} has an empty candidate list")
    gold = mention.gold_entity
    if evaluate:
        if gold is None:
            raise DataError(f"mention {mention.id!r} has no gold entity to evaluate")
        if all(e.id != gold for e in entities):
            raise DataError(
                f"gold entity {gold!r} of mention {mention.id!r} "
                "is not among the candidates"
            )


def _ranked(
    mention: MentionRecord, ids: list[str], scores: np.ndarray, evaluate: bool
) -> RankingResult:
    """Order one mention's score row: descending score, ties broken by id."""
    order = np.lexsort((np.array(ids), -scores))
    rank = None
    if evaluate:
        # Pessimistic under ties: every candidate scoring at least the gold's.
        gold = scores[ids.index(mention.gold_entity)]
        rank = int(np.count_nonzero(scores >= gold))
    return RankingResult(
        mention_id=mention.id,
        ordering=tuple(ids[j] for j in order),
        rank_of_gold=rank,
    )


def rank_candidates(
    mention: MentionRecord,
    entities: list[EntityRecord] | tuple[EntityRecord, ...],
    scorer: Scorer,
    evaluate: bool = True,
) -> RankingResult:
    """Score every candidate for one mention and rank them."""
    _check(mention, entities, evaluate)
    scores = scorer.score_all(mention, entities).s_o
    return _ranked(mention, [e.id for e in entities], scores, evaluate)


def rank_all(
    mentions,
    entities,
    scorer: Scorer,
    evaluate: bool = True,
    threads: int = 1,
) -> list[RankingResult]:
    """Rank every mention against the shared candidate set.

    Every mention is checked first, in order, and the first one that
    :func:`rank_candidates` would reject raises the same error. Then all
    mentions are scored against the catalog in one
    :meth:`~otmel.matching.Scorer.score_grid` call and each score row is
    ordered as :func:`rank_candidates` orders it. Memory thus grows with
    mentions × catalog: the core holds four score grids of that shape while
    scoring, and the overall grid is kept until every row is ordered.
    ``threads`` is ignored, since ranking runs in one thread; it stays
    only until the benchmark harness stops passing it.
    """
    entities = list(entities)
    mentions = list(mentions)
    for m in mentions:
        _check(m, entities, evaluate)
    ids = [e.id for e in entities]
    scores = scorer.score_grid(mentions, entities).s_o
    return [_ranked(m, ids, row, evaluate) for m, row in zip(mentions, scores)]


def _ranks(results) -> list[int]:
    if len(results) == 0:
        raise DataError("no ranking results to aggregate")
    ranks = []
    for r in results:
        if r.rank_of_gold is None:
            raise DataError(f"result for mention {r.mention_id!r} carries no gold rank")
        ranks.append(r.rank_of_gold)
    return ranks


def hits_at_k(results, k: int) -> float:
    """Fraction of mentions whose gold entity ranks within the top k."""
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    ranks = _ranks(results)
    return float(Fraction(sum(1 for r in ranks if r <= k), len(ranks)))


def mrr(results) -> float:
    """Mean reciprocal rank of the gold entities."""
    ranks = _ranks(results)
    total = sum((Fraction(1, r) for r in ranks), start=Fraction(0))
    return float(total / len(ranks))
