"""Feature aggregation and mention-entity match scoring.

Scores come in three flavors: the fused score compares pooled
multimodal representations, the two unimodal scores compare transported
features and raw summary rows within a single modality, and the overall
score averages whichever of the three the configuration keeps.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Union

import numpy as np

from .config import (
    ABLATION_NO_FUSED,
    ABLATION_NO_UNIMODAL,
    POOL_MAX,
    POOL_MEAN,
    POOL_SOFT,
    RunConfig,
)
from .correlation import (
    AssignmentSite,
    ProjectionTable,
    RecordInteraction,
    assign,
    interact_record,
)
from .errors import ConfigError, DimensionError
from .ot import SinkhornConfig
from .types import EntityRecord, FeatureMatrix, MatchScores, MentionRecord

PoolMember = Union[FeatureMatrix, np.ndarray]


def _stack(members: Sequence[PoolMember]) -> np.ndarray:
    if len(members) == 0:
        raise ConfigError("pooling requires at least one member matrix")
    arrays = [
        m.data if isinstance(m, FeatureMatrix) else np.asarray(m, float)
        for m in members
    ]
    cols = {a.shape[1] for a in arrays}
    if len(cols) != 1:
        raise DimensionError(f"pool members disagree on d: {sorted(cols)}")
    return np.concatenate(arrays, axis=0)


def softpool(members: Sequence[PoolMember]) -> np.ndarray:
    """Exponentially weighted column-wise pooling over all stacked rows.

    Every member's rows are stacked into one matrix; per column, rows are
    weighted by a softmax of their own values (max-subtracted for
    stability) and summed. The result lands between the column mean and
    the column max, leaning toward the most activated rows.
    """
    stacked = _stack(members)
    shifted = stacked - stacked.max(axis=0, keepdims=True)
    e = np.exp(shifted)
    return np.sum(e * stacked, axis=0) / e.sum(axis=0)


def stack_pool(members: Sequence[PoolMember], kind: str = POOL_SOFT) -> np.ndarray:
    """Pool stacked member rows into a single d-vector by the chosen rule."""
    if kind == POOL_SOFT:
        return softpool(members)
    stacked = _stack(members)
    if kind == POOL_MEAN:
        return stacked.mean(axis=0)
    if kind == POOL_MAX:
        return stacked.max(axis=0)
    raise ConfigError(f"unknown pool kind {kind!r}")


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
    return _unimodal_value(result.g, mention_side, entity_side, pool)


def _unimodal_value(g, mention_side, entity_side, pool) -> float:
    """The unimodal score from mention features already transported by ``g``."""
    pooled = stack_pool([g], pool)
    t_m = mention_side.summary
    t_e = entity_side.summary
    return float(0.5 * (pooled @ t_e + t_m @ t_e))


class Scorer:
    """Scores mention-entity pairs under one configuration.

    Per-record interactions and pooled vectors are cached by record
    object, so ranking a mention against many candidates reuses the
    per-record work. Each entry keeps its record alive and is used only
    for that same object, so a recycled ``id()`` never returns another
    record's result. Precompute entity caches before fanning scoring out
    to threads; cached lookups are then read-only.
    """

    def __init__(self, projections: ProjectionTable, config: RunConfig = RunConfig()):
        self.projections = projections
        self.config = config
        self._solver_config = config.sinkhorn_config()
        self._interactions: dict[int, tuple[object, RecordInteraction]] = {}
        self._pooled: dict[int, tuple[object, tuple[np.ndarray, np.ndarray]]] = {}

    @property
    def uses_fused(self) -> bool:
        return ABLATION_NO_FUSED not in self.config.ablations

    @property
    def uses_unimodal(self) -> bool:
        return ABLATION_NO_UNIMODAL not in self.config.ablations

    def interaction(self, record) -> RecordInteraction:
        entry = self._interactions.get(id(record))
        if entry is None or entry[0] is not record:
            found = interact_record(
                record, self.projections, self.config.mechanism, self._solver_config
            )
            entry = self._interactions[id(record)] = (record, found)
        return entry[1]

    def pooled(self, record) -> tuple[np.ndarray, np.ndarray]:
        entry = self._pooled.get(id(record))
        if entry is None or entry[0] is not record:
            found = pooled_pair(record, self.interaction(record), self.config.pool)
            entry = self._pooled[id(record)] = (record, found)
        return entry[1]

    def warm(self, records) -> None:
        """Populate the per-record caches (call before threaded scoring)."""
        for record in records:
            self.pooled(record)

    def scores(self, mention: MentionRecord, entity: EntityRecord) -> MatchScores:
        """All match scores for one pair; ablated components read 0."""
        s_f = s_t = s_v = 0.0
        parts = []
        if self.uses_fused:
            s_f = fused_score(self.pooled(mention), self.pooled(entity))
            parts.append(s_f)
        if self.uses_unimodal:
            s_t = unimodal_score(
                mention.text,
                entity.text,
                self.projections[AssignmentSite.MENTION_TO_ENTITY_TEXT],
                self.config.mechanism,
                self._solver_config,
                self.config.pool,
            )
            s_v = unimodal_score(
                mention.visual,
                entity.visual,
                self.projections[AssignmentSite.MENTION_TO_ENTITY_VISUAL],
                self.config.mechanism,
                self._solver_config,
                self.config.pool,
            )
            parts.extend([s_t, s_v])
        s_o = sum(parts) / len(parts)
        return MatchScores(s_f=s_f, s_t=s_t, s_v=s_v, s_o=s_o)


def overall_score(
    mention: MentionRecord,
    entity: EntityRecord,
    projections: ProjectionTable,
    config: RunConfig = RunConfig(),
) -> MatchScores:
    """One-shot convenience wrapper around :class:`Scorer`."""
    return Scorer(projections, config).scores(mention, entity)
