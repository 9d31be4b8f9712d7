"""Per-pair and per-leg references for the library's stacked paths.

The library scores every pair through ``otmel.matching.Scorer.score_grid``
and computes every distillation term through the ``kd`` objective's
stacked path (``otmel.objectives._BatchObjective``). The tests check both
against the references here, which take one pair or one leg at a time.

Scoring: :func:`pooled_pair` pools one record's modalities with the
features transported into them, :func:`fused_score` compares two pooled
pairs and :func:`unimodal_score` scores one modality of a mention against
an entity's. Pooling goes through the library's ``otmel.matching._pool``,
so the pooling tests test the library's code.

Distillation: :func:`distill_pairs` enumerates each site's legs on its
own and solves every leg as a lone 2-D Sinkhorn problem.
"""

from collections.abc import Sequence
from typing import NamedTuple, Union

import numpy as np

from otmel.config import POOL_SOFT, RunConfig
from otmel.correlation import (
    PIPELINE_SITES,
    SITE_LEGS,
    AssignmentSite,
    ProjectionTable,
    RecordInteraction,
    assign,
    attention_logits,
    cosine_cost,
    project,
)
from otmel.errors import ConfigError, DimensionError
from otmel.matching import _pool, _rowdot, _unimodal_sum
from otmel.ot import Marginals, SinkhornConfig, sinkhorn
from otmel.types import EntityRecord, FeatureMatrix, MentionRecord

PoolMember = Union[FeatureMatrix, np.ndarray]


def _stack(members: Sequence[PoolMember]) -> np.ndarray:
    if len(members) == 0:
        raise ConfigError("pooling requires at least one member matrix")
    arrays = [
        m.data if isinstance(m, FeatureMatrix) else np.asarray(m, float)
        for m in members
    ]
    if len(arrays) == 1:
        return arrays[0]
    cols = {a.shape[-1] for a in arrays}
    if len(cols) != 1:
        raise DimensionError(f"pool members disagree on d: {sorted(cols)}")
    return np.concatenate(arrays, axis=-2)


def softpool(members: Sequence[PoolMember]) -> np.ndarray:
    """Exponentially weighted column-wise pooling over all stacked rows.

    Every member's rows are stacked into one matrix; per column, rows are
    weighted by a softmax of their own values (max-subtracted for
    stability) and summed. The result lands between the column mean and
    the column max, leaning toward the most activated rows. Members with
    leading stack axes pool each stacked problem on its own.
    """
    return _pool(_stack(members), POOL_SOFT)


def stack_pool(members: Sequence[PoolMember], kind: str = POOL_SOFT) -> np.ndarray:
    """Pool stacked member rows into a single d-vector by the chosen rule.

    The members' rows are joined on axis -2 and pooled by the code batch
    scoring pools its row buffers with (``otmel.matching._pool``).
    """
    return _pool(_stack(members), kind)


def pooled_pair(
    record: MentionRecord | EntityRecord,
    interaction: RecordInteraction,
    pool: str = POOL_SOFT,
) -> tuple[np.ndarray, np.ndarray]:
    """Pool each modality together with the features transported into it."""
    text = stack_pool([record.text, interaction.v2t.g], pool)
    visual = stack_pool([record.visual, interaction.t2v.g], pool)
    return text, visual


def fused_score(
    mention_pooled: tuple[np.ndarray, np.ndarray],
    entity_pooled: tuple[np.ndarray, np.ndarray],
) -> float:
    """Inner product of the concatenated pooled representations.

    Equals the sum of the per-modality inner products.
    """
    m_text, m_vis = mention_pooled
    e_text, e_vis = entity_pooled
    if m_text.shape != e_text.shape or m_vis.shape != e_vis.shape:
        raise DimensionError("pooled vectors disagree in dimension")
    return float(m_text @ e_text + m_vis @ e_vis)


def unimodal_score(
    mention_side: FeatureMatrix,
    entity_side: FeatureMatrix,
    proj,
    mechanism: str,
    config: SinkhornConfig = SinkhornConfig(),
    pool: str = POOL_SOFT,
) -> float:
    """Single-modality match score between a mention and an entity.

    The entity sequence queries the mention sequence, mention features are
    transported onto entity positions and pooled, and the score averages
    the pooled-versus-summary and summary-versus-summary inner products.
    Row 0 of each matrix is its summary row.
    """
    result = assign(entity_side, mention_side, proj, mechanism, config)
    pooled = stack_pool([result.g], pool)
    return float(unimodal_value(pooled, mention_side.summary, entity_side.summary))


def unimodal_value(pooled, t_m, t_e) -> np.ndarray:
    """The unimodal score from the pooled transported mention features.

    ``t_m`` and ``t_e`` are the mention and entity summary rows; a stack of
    ``pooled`` and ``t_e`` gives one score per stacked entity.
    """
    return _unimodal_sum(pooled, t_e, _rowdot(t_m, t_e))


class DistillPair(NamedTuple):
    """Teacher plan and student logits of one distilled assignment."""

    plan: np.ndarray
    logits: np.ndarray


def _unique_by_identity(records):
    return list({id(r): r for r in records}.values())


def distill_instances(
    mentions, golds, sites=PIPELINE_SITES
) -> dict[AssignmentSite, list[tuple[FeatureMatrix, FeatureMatrix]]]:
    """The (destination, source) matrix pairs distilled at each site.

    Cross-modal sites contribute one instance per record (each distinct
    gold once); unimodal sites one per mention/gold pair.
    """
    entities = _unique_by_identity(golds)
    instances: dict[AssignmentSite, list[tuple[FeatureMatrix, FeatureMatrix]]] = {}
    for site in sites:
        dst_kind, dst, src_kind, src = SITE_LEGS[site]
        # Each leg's (destination record, source record).
        if dst_kind == src_kind:
            records = mentions if dst_kind == "mention" else entities
            legs = zip(records, records)
        elif dst_kind == "mention":
            legs = zip(mentions, golds)
        else:
            legs = zip(golds, mentions)
        instances[site] = [(getattr(d, dst), getattr(s, src)) for d, s in legs]
    return instances


def distill_pairs(
    mentions, golds, table: ProjectionTable, run: RunConfig, sites=PIPELINE_SITES
) -> dict[AssignmentSite, list[DistillPair]]:
    """Teacher plans and student logits for every distilled assignment.

    Each assignment is solved on its own, one 2-D problem at a time.
    """
    solver = run.sinkhorn_config()
    out: dict[AssignmentSite, list[DistillPair]] = {}
    for site, pairs in distill_instances(mentions, golds, sites).items():
        out[site] = []
        for dst, src in pairs:
            q, k, _ = project(dst, src, table[site])
            cost = cosine_cost(q, k)
            plan = sinkhorn(cost, Marginals.uniform(cost.n, cost.m), solver).data
            out[site].append(DistillPair(plan, attention_logits(q, k)))
    return out
