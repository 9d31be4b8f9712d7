"""Candidate ranking and retrieval metrics.

Gold ranks are pessimistic under score ties: the gold entity takes the
worst position inside its tie group, so degenerate all-equal scores can
never inflate the metrics. Metric reductions run on exact rationals, so
results are independent of mention ordering. Each mention's candidates
are scored as one stack (:meth:`~otmel.matching.Scorer.score_all`), and a
candidate's score does not depend on the rest of the list, so ranking one
mention online and ranking all of them in a batch agree.
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


def rank_candidates(
    mention: MentionRecord,
    entities: list[EntityRecord] | tuple[EntityRecord, ...],
    scorer: Scorer,
    evaluate: bool = True,
) -> RankingResult:
    """Score every candidate for one mention and rank them."""
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

    ids = [e.id for e in entities]
    scores = scorer.score_all(mention, entities).s_o
    order = np.lexsort((np.array(ids), -scores))
    ordering = tuple(ids[j] for j in order)

    rank = None
    if evaluate:
        # Pessimistic under ties: every candidate scoring at least the gold's.
        rank = int(np.count_nonzero(scores >= scores[ids.index(gold)]))
    return RankingResult(mention_id=mention.id, ordering=ordering, rank_of_gold=rank)


def rank_all(
    mentions,
    entities,
    scorer: Scorer,
    evaluate: bool = True,
    threads: int = 1,
) -> list[RankingResult]:
    """Rank every mention against the shared candidate set.

    Entities and mentions are warmed in stacks up front (unless the fused
    score, the only reader of pooled vectors, is ablated), then each
    mention is scored against the whole catalog in one call. ``threads`` is
    accepted and ignored: ranking runs in one thread, because with stacked
    scoring a thread pool only added contention, and results never depended
    on it.
    """
    entities = list(entities)
    mentions = list(mentions)
    if scorer.uses_fused:
        scorer.warm(entities)
        scorer.warm(mentions)
    return [rank_candidates(m, entities, scorer, evaluate) for m in mentions]


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
