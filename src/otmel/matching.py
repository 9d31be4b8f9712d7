"""Feature aggregation and mention-entity match scoring.

Scores come in three flavors: the fused score compares pooled
multimodal representations, the two unimodal scores compare transported
features and raw summary rows within a single modality, and the overall
score averages whichever of the three the configuration keeps.
:meth:`Scorer.score_grid` is the one forward scoring path: ranking, the
batch losses and the toy trainer's finite-difference probes all score
through it.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
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
    SITE_LEGS,
    UNIMODAL_SITES,
    ProjectionTable,
    RecordInteraction,
    assign,
    assignment_stack,
    project,
    record_sites,
)
from .errors import ConfigError, DimensionError
from .ot import SinkhornConfig
from .types import EntityRecord, FeatureMatrix, MatchScores, MentionRecord

PoolMember = Union[FeatureMatrix, np.ndarray]

# Records per stacked block, so no temporary grows with the catalog.
_BLOCK = 32


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
    stacked = _stack(members)
    # One work array, updated in place: stacked scoring pools large stacks.
    e = stacked - stacked.max(axis=-2, keepdims=True)
    np.exp(e, out=e)
    total = e.sum(axis=-2)
    e *= stacked
    return e.sum(axis=-2) / total


def stack_pool(members: Sequence[PoolMember], kind: str = POOL_SOFT) -> np.ndarray:
    """Pool stacked member rows into a single d-vector by the chosen rule."""
    if kind == POOL_SOFT:
        return softpool(members)
    stacked = _stack(members)
    if kind == POOL_MEAN:
        return stacked.mean(axis=-2)
    if kind == POOL_MAX:
        return stacked.max(axis=-2)
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


def _rowdot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Inner products of the last axes, broadcast over leading axes.

    Each product is a 1 x d by d x 1 matmul, which sums in the same order
    as the 1-D ``x @ y`` (a matrix-vector product would not).
    """
    return (x[..., None, :] @ y[..., :, None])[..., 0, 0]


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
    return float(
        _unimodal_value(result.g, mention_side.summary, entity_side.summary, pool)
    )


def _unimodal_value(g, t_m, t_e, pool) -> np.ndarray:
    """The unimodal score from mention features already transported by ``g``.

    ``t_m`` and ``t_e`` are the mention and entity summary rows; a stack of
    ``g`` and ``t_e`` gives one score per stacked entity.
    """
    pooled = stack_pool([g], pool)
    return 0.5 * (_rowdot(pooled, t_e) + _rowdot(t_m, t_e))


def _fitted(side: FeatureMatrix, proj) -> np.ndarray:
    """The rows of ``side``, checked against the projection dimension."""
    if side.cols != proj.dim:
        raise DimensionError(
            f"sequence with d={side.cols} does not match projection dimension {proj.dim}"
        )
    return side.data


def _chunks(items: list, size: int) -> list[list]:
    """``items`` cut into consecutive runs of at most ``size``."""
    return [items[s : s + size] for s in range(0, len(items), size)]


def _by_rows(sides: list[FeatureMatrix]) -> list[list[int]]:
    """Indices of ``sides`` grouped by row count."""
    groups: dict[int, list[int]] = {}
    for i, side in enumerate(sides):
        groups.setdefault(side.rows, []).append(i)
    return list(groups.values())


def _records(vectors) -> np.ndarray:
    """Per-record pooled vectors stacked on the record axis, after any probe axes."""
    stacked = np.array(vectors)
    return stacked if stacked.ndim == 2 else np.moveaxis(stacked, 0, -2)


def _hit(cache: dict, record):
    """The entry cached for this very record object, or None."""
    entry = cache.get(id(record))
    return entry[1] if entry is not None and entry[0] is record else None


@dataclass(frozen=True)
class CatalogScores:
    """Match scores against each entity, in catalog order.

    Each field is one mention's ``(E,)`` row, or, from
    :meth:`Scorer.score_grid`, an ``(M, E)`` grid with one row per mention.
    """

    s_f: np.ndarray
    s_t: np.ndarray
    s_v: np.ndarray
    s_o: np.ndarray

    def mention(self, i: int) -> CatalogScores:
        """Mention ``i``'s row of a grid."""
        return CatalogScores(self.s_f[i], self.s_t[i], self.s_v[i], self.s_o[i])

    def row(self, j: int) -> MatchScores:
        """The scores of entity ``j`` in a one-mention row."""
        return MatchScores(
            s_f=float(self.s_f[j]),
            s_t=float(self.s_t[j]),
            s_v=float(self.s_v[j]),
            s_o=float(self.s_o[j]),
        )


class Scorer:
    """Scores a mention against a catalog of entities under one configuration.

    Per-record work is cached by record object: each record's pooled
    vectors, and the projected unimodal queries of the last catalog
    scored, block by block. Each entry keeps its records alive until
    :meth:`clear` and is used only for those same objects, so a recycled
    ``id()`` never returns another record's result.
    :meth:`score_grid` is the one scoring core: it scores a block of
    mentions against a whole catalog in stacked array operations, solving
    many pairs' transport problems in one stack. Every score equals, bit
    for bit, the one :func:`fused_score`, :func:`pooled_pair` and
    :func:`unimodal_score` give for the pair alone, whatever else shares
    the call.
    A table entry may carry leading probe axes on its matrices, such as
    the toy trainer's ``(P, 1, d, d)`` stacks of perturbed copies, whose
    unit axis broadcasts over the stacked records. They lead every array
    derived from that entry, ahead of the record axes, and each probe's
    slice equals, bit for bit, the result under that probe alone.
    """

    def __init__(self, projections: ProjectionTable, config: RunConfig = RunConfig()):
        self.projections = projections
        self.config = config
        self._solver_config = config.sinkhorn_config()
        self._pooled: dict[int, tuple[object, tuple[np.ndarray, np.ndarray]]] = {}
        self._queries: dict[object, dict[tuple, tuple[tuple, np.ndarray]]] = {}

    @property
    def uses_fused(self) -> bool:
        return ABLATION_NO_FUSED not in self.config.ablations

    @property
    def uses_unimodal(self) -> bool:
        return ABLATION_NO_UNIMODAL not in self.config.ablations

    def clear(self) -> None:
        """Empty both record caches, so that the scorer keeps no record alive.

        A long-lived scorer otherwise holds every record it has scored.
        Later scores equal earlier ones; the cleared work is redone on use.
        """
        self._pooled.clear()
        self._queries.clear()

    def pooled(self, record) -> tuple[np.ndarray, np.ndarray]:
        """The record's pooled (text, visual) vectors; a miss warms it alone."""
        if _hit(self._pooled, record) is None:
            self.warm([record])
        return _hit(self._pooled, record)

    def warm(self, records) -> None:
        """Cache the pooled vectors of every record not cached yet.

        Records of one kind and one (text, visual) shape form a group,
        which is projected, transported and pooled in blocks of at most
        ``_BLOCK`` records. The cost stacks of consecutive blocks are solved
        together, as many blocks per solve as keep it within one block's
        ``(_BLOCK, n, d)`` transported features; a record alone in its
        group is a stack of one.
        """
        groups: dict[tuple, dict[int, object]] = {}
        for r in records:
            if _hit(self._pooled, r) is None:
                key = (type(r), r.text.data.shape, r.visual.data.shape)
                groups.setdefault(key, {})[id(r)] = r
        for group in groups.values():
            group = list(group.values())
            sites = record_sites(group[0])
            (n_t, d), n_v = group[0].text.data.shape, group[0].visual.rows
            for chunk in _chunks(group, _BLOCK * max(1, d // max(n_t, n_v))):
                blocks = _chunks(chunk, _BLOCK)
                # Each direction is pooled as soon as it is solved, so the
                # two directions' temporaries are never all alive at once.
                text, visual = (self._pool_transported(blocks, s) for s in sites)
                # Rows of a moved-axis view restack about twice as slowly.
                per_record = (
                    x if x.ndim == 2 else np.moveaxis(x, -2, 0) for x in (text, visual)
                )
                for r, pair in zip(chunk, zip(*per_record)):
                    self._pooled[id(r)] = (r, pair)

    def _pool_transported(self, blocks, site) -> np.ndarray:
        """Each record's destination rows pooled with the source rows moved onto them.

        ``blocks`` are lists of records of one shape. Their assignments are
        one solve; the rest is done one block at a time, so only the
        solve's cost stack spans the blocks.
        """
        _, dst, _, src = SITE_LEGS[site]
        proj = self.projections[site]

        def rows(block, attr: str) -> np.ndarray:
            return np.array([getattr(r, attr).data for r in block])

        values = []

        def parts():
            # One block's Q and K at a time; only its H is kept for transport.
            for block in blocks:
                q, k, h = project(rows(block, dst), rows(block, src), proj)
                values.append(h)
                yield q, k

        a = assignment_stack(parts(), self.config.mechanism, self._solver_config)
        pooled, start = [], 0
        for block, h in zip(blocks, values):
            g = a[..., start : start + len(block), :, :] @ h
            start += len(block)
            x = rows(block, dst)
            if x.shape != g.shape:
                x = np.broadcast_to(x, g.shape)
            pooled.append(stack_pool([x, g], self.config.pool))
        return np.concatenate(pooled, axis=-2)

    def _block_queries(self, blocks, site) -> list[np.ndarray]:
        """Each block of entities' rows at a unimodal site, projected to queries.

        Each entity is projected alone and a block is joined on a record
        axis. The stacks of the last call's blocks are kept for those very
        entity objects, so ranking mentions one at a time against a catalog
        builds them once, not once per mention (a fresh stack per mention
        also costs page faults whenever the allocator maps it anew), and
        the cache never holds more than one catalog's stacks per site.
        """
        proj = self.projections[site]
        attr = SITE_LEGS[site][1]
        previous = self._queries.get(site, {})
        kept = self._queries[site] = {}
        stacks = []
        for block in blocks:
            key = tuple(map(id, block))
            entry = previous.get(key)
            if entry is None or any(a is not b for a, b in zip(entry[0], block)):
                rows = [_fitted(getattr(e, attr), proj)[None] @ proj.w_q for e in block]
                entry = (tuple(block), np.concatenate(rows, axis=-3))
            kept[key] = entry
            stacks.append(entry[1])
        return stacks

    def _unimodal(self, mentions, entities, site) -> np.ndarray:
        """One unimodal site's scores of every mention against every entity.

        Entities are grouped by sequence length, then blocked by
        ``_BLOCK``; mentions are grouped by sequence length. Against each
        entity block, a chunk of a group's mentions is one cost stack and
        one solve, as many mentions as keep it within one block's
        ``(_BLOCK, n, d)`` transported features; it is transported and
        pooled in slices that each stay within that bound too. Groups are
        never padded, since padding would change the uniform marginals.
        """
        _, e_attr, _, m_attr = SITE_LEGS[site]
        proj = self.projections[site]
        sides = [getattr(m, m_attr) for m in mentions]
        entity_sides = [getattr(e, e_attr) for e in entities]
        blocks = [b for rows in _by_rows(entity_sides) for b in _chunks(rows, _BLOCK)]
        groups = _by_rows(sides)
        grid, values = (len(mentions), len(entities)), None
        members = [[entities[j] for j in block] for block in blocks]
        for block, queries in zip(blocks, self._block_queries(members, site)):
            # Probe axes lead; the chunk's mention axis goes before the block's.
            q = queries[..., None, :, :, :]
            t_e = np.array([entity_sides[j].summary for j in block])
            step = max(1, _BLOCK // len(block))
            for group in groups:
                per_solve = _BLOCK * proj.dim // (len(block) * sides[group[0]].rows)
                for chunk in _chunks(group, max(1, per_solve)):
                    x = np.array([_fitted(sides[i], proj) for i in chunk])
                    k = (x @ proj.w_k)[..., None, :, :]
                    a = assignment_stack(
                        [(q, k)], self.config.mechanism, self._solver_config
                    )
                    t_m = np.array([sides[i].summary for i in chunk])[:, None]
                    for s in range(0, len(chunk), step):
                        cut = slice(s, s + step)
                        h = (x[cut] @ proj.w_h)[..., None, :, :]
                        g = a[..., cut, :, :, :] @ h
                        v = _unimodal_value(g, t_m[cut], t_e, self.config.pool)
                        if values is None:
                            values = np.empty(v.shape[:-2] + grid)
                        values[..., np.array(chunk[cut])[:, None], block] = v
        return values

    def score_grid(self, mentions, entities) -> CatalogScores:
        """Every mention's match scores against each entity, in catalog order.

        The scoring core of ranking and of the batch losses; a block of
        one mention is the online path. The fused scores are one broadcast
        product of pooled vectors. Each unimodal site solves the cost
        stacks of many mentions against a block of entities as one stack.
        A score depends only on its own mention and entity, never on what
        else shares the call. Ablated components read 0. Each field is an
        ``(M, E)`` grid, so a call holds four floats per pair. Under a
        table entry with ``(P, 1, d, d)`` probe matrices, every field the
        entry feeds is a ``(P, M, E)`` grid, one per probe.
        """
        mentions, entities = list(mentions), list(entities)
        shape = (len(mentions), len(entities))
        if not (mentions and entities):
            return CatalogScores(*np.zeros((4, *shape)))
        s_f, s_t, s_v = np.zeros(shape), np.zeros(shape), np.zeros(shape)
        parts = []
        if self.uses_fused:
            self.warm(entities + mentions)
            m_text, m_vis = (_records(v) for v in zip(*map(self.pooled, mentions)))
            e_text, e_vis = (_records(v) for v in zip(*map(self.pooled, entities)))
            m_text, m_vis = m_text[..., :, None, :], m_vis[..., :, None, :]
            e_text, e_vis = e_text[..., None, :, :], e_vis[..., None, :, :]
            s_f = _rowdot(m_text, e_text) + _rowdot(m_vis, e_vis)
            parts.append(s_f)
        if self.uses_unimodal:
            s_t, s_v = (self._unimodal(mentions, entities, s) for s in UNIMODAL_SITES)
            parts.extend([s_t, s_v])
        return CatalogScores(s_f, s_t, s_v, sum(parts) / len(parts))

    def score_all(self, mention: MentionRecord, entities) -> CatalogScores:
        """All match scores of one mention against each entity, in catalog order."""
        return self.score_grid([mention], entities).mention(0)

    def scores(self, mention: MentionRecord, entity: EntityRecord) -> MatchScores:
        """All match scores for one pair; ablated components read 0."""
        return self.score_all(mention, [entity]).row(0)


def overall_score(
    mention: MentionRecord,
    entity: EntityRecord,
    projections: ProjectionTable,
    config: RunConfig = RunConfig(),
) -> MatchScores:
    """One-shot convenience wrapper around :class:`Scorer`."""
    return Scorer(projections, config).scores(mention, entity)
