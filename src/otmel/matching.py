"""Feature aggregation and mention-entity match scoring.

Scores come in three flavors: the fused score compares pooled
multimodal representations, the two unimodal scores compare transported
features and raw summary rows within a single modality, and the overall
score averages whichever of the three the configuration keeps.
:meth:`Scorer.score_grid` is the one forward scoring path: ranking, the
batch losses, the toy trainer and its finite-difference check all score
through it.
"""

from __future__ import annotations

import functools
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
    assignment_scores,
    assignment_stack,
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
    return _pool(_stack(members), POOL_SOFT)


def stack_pool(members: Sequence[PoolMember], kind: str = POOL_SOFT) -> np.ndarray:
    """Pool stacked member rows into a single d-vector by the chosen rule.

    The members' rows are joined on axis -2 and pooled by the code batch
    scoring pools its row buffers with (see :func:`_workspace`).
    """
    return _pool(_stack(members), kind)


def _pool(x: np.ndarray, kind: str, work=None, out=None) -> np.ndarray:
    """Pool the rows of ``x`` (axis -2) by the rule ``kind``.

    Sums add the rows in order, so a problem pools to the same bits in a
    stack as alone. ``work``, an array of ``x``'s shape, holds the soft
    pool's weights and ``out`` takes the result, so a caller that pools
    many stacks can reuse both; without them this allocates its own.
    """
    if kind == POOL_MEAN:
        return x.mean(axis=-2, out=out)
    if kind == POOL_MAX:
        return x.max(axis=-2, out=out)
    if kind != POOL_SOFT:
        raise ConfigError(f"unknown pool kind {kind!r}")
    e = np.subtract(x, x.max(axis=-2, keepdims=True), out=work)
    np.exp(e, out=e)
    total = e.sum(axis=-2)
    e *= x
    return np.divide(e.sum(axis=-2, out=out), total, out=out)


def _workspace(problems: tuple, rows: int, d: int) -> np.ndarray:
    """An empty ``problems + (rows, d)`` array laid out rows first.

    The memory is ``(rows,) + problems + (d,)``, moved to put the rows
    before d. Each problem's ``rows x d`` matrix keeps unit column
    stride, so a matmul writing into it runs the per-pair ``(n, m) @
    (m, d)`` product, and :func:`_pool` then adds all problems' row i
    in one pass, in the row order one pair's pool adds them. At
    ``d == 1`` numpy sums one pair's lone column pairwise, so each
    problem's rows stay contiguous there, as one pair's are.
    """
    if d == 1:
        return np.empty(problems + (rows, d))
    k = len(problems)
    return np.empty((rows,) + problems + (d,)).transpose(*range(1, k + 1), 0, k + 1)


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
    pooled = stack_pool([result.g], pool)
    return float(_unimodal_value(pooled, mention_side.summary, entity_side.summary))


def _unimodal_value(pooled, t_m, t_e) -> np.ndarray:
    """The unimodal score from the pooled transported mention features.

    ``t_m`` and ``t_e`` are the mention and entity summary rows; a stack of
    ``pooled`` and ``t_e`` gives one score per stacked entity.
    """
    return _unimodal_sum(pooled, t_e, _rowdot(t_m, t_e))


def _unimodal_sum(pooled, t_e, summaries) -> np.ndarray:
    """:func:`_unimodal_value` given the summary rows' products ``summaries``."""
    return 0.5 * (_rowdot(pooled, t_e) + summaries)


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


def _per_solve(n: int, m: int, d: int) -> int:
    """Problems of shape ``n x m`` one solve may hold.

    As many as keep it within one block's ``(_BLOCK, n, d)`` transported
    features, so no temporary grows with the catalog.
    """
    return _BLOCK * max(1, d // max(n, m))


class _Solves:
    """The assignment problems of one scoring call, solved in few stacks.

    A job is ``count`` problems of one shape (probe axes, n, m) and a
    builder of their :func:`~otmel.correlation.assignment_scores`, stacked
    on one record axis, and of the callback that takes their assignment
    matrices. Jobs of one shape are joined into one
    :func:`~otmel.correlation.assignment_stack` as long as it stays within
    :func:`_per_solve`; a stack that reaches it is solved at once. So
    batch solves keep their sizes, and the few small jobs of one online
    mention share one solve. A job is built only once the stack it joins
    has room, so no two stacks of one shape are alive at once.
    """

    def __init__(self, mechanism: str, config: SinkhornConfig):
        self.mechanism, self.config = mechanism, config
        self._open: dict[tuple, tuple[int, list]] = {}

    def add(self, proj, n: int, m: int, count: int, build) -> None:
        """Add ``count`` problems of shape ``n x m`` at a site under ``proj``.

        ``build()`` returns their scores and callback; it runs once the
        open stack of their shape has room for them.
        """
        probes = np.broadcast_shapes(proj.w_q.shape[:-2], proj.w_k.shape[:-2])[:-1]
        key = probes, n, m
        limit = _per_solve(n, m, proj.dim)
        held, jobs = self._open.pop(key, (0, []))
        if jobs and held + count > limit:
            self._solve(jobs)
            held, jobs = 0, []
        jobs.append(build())
        if held + count >= limit:
            self._solve(jobs)
        else:
            self._open[key] = held + count, jobs

    def finish(self) -> None:
        """Solve every job still waiting."""
        for _, jobs in self._open.values():
            self._solve(jobs)
        self._open.clear()

    def _solve(self, jobs) -> None:
        a = assignment_stack([s for s, _ in jobs], self.mechanism, self.config)
        start = 0
        for scores, take in jobs:
            stop = start + scores.shape[-3]
            take(a[..., start:stop, :, :])
            start = stop


@dataclass(frozen=True)
class _Block:
    """A block of catalog entities of one length at one unimodal site.

    ``index`` holds their catalog positions; ``q`` their rows projected
    to queries (probe axes lead), ``q_norms`` the queries' row norms and
    ``summary`` their summary rows.
    """

    index: list[int]
    q: np.ndarray
    q_norms: np.ndarray
    summary: np.ndarray


@dataclass
class _Catalog:
    """What scoring reads of one entity list, built once for every call on it.

    ``blocks`` maps each unimodal site to its :class:`_Block` list;
    ``pooled`` holds the entities' pooled (text, visual) stacks, shaped
    to broadcast against a mention axis, once the fused score has read
    them.
    """

    entities: list
    blocks: dict
    pooled: tuple | None = None

    def matches(self, entities) -> bool:
        """Whether ``entities`` is this very list of entity objects, in order."""
        return len(entities) == len(self.entities) and all(
            a is b for a, b in zip(entities, self.entities)
        )


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

    Two things are kept between calls. Each record's pooled vectors are
    cached by record object; each entry keeps its record alive until
    :meth:`clear` and is used only for that same object, so a recycled
    ``id()`` never returns another record's result. And one prepared
    catalog: for the last entity list scored, matched element by element
    by identity, each unimodal site's blocks of projected queries, their
    norms and summary rows, and the entities' pooled stacks. Ranking
    mentions one at a time against a catalog thus builds them once, and
    the scorer holds at most one catalog's worth.
    :meth:`score_grid` is the one scoring core: it scores a block of
    mentions against a whole catalog in stacked array operations, solving
    many pairs' transport problems in one stack and pooling each block's
    transported rows in row buffers that the rest of its job reuses
    (:func:`_workspace`). Every score equals, bit for bit, the one
    :func:`fused_score`, :func:`pooled_pair` and :func:`unimodal_score`
    give for the pair alone, whatever else shares the call.
    A table entry may carry leading probe axes on its matrices, such as
    :func:`~otmel.objectives.fd_gradient`'s ``(P, 1, d, d)`` stacks of
    perturbed copies, whose unit axis broadcasts over the stacked records.
    They lead every array derived from that entry, ahead of the record
    axes, and each probe's slice equals, bit for bit, the result under
    that probe alone.
    """

    def __init__(self, projections: ProjectionTable, config: RunConfig = RunConfig()):
        self.projections = projections
        self.config = config
        self._solver_config = config.sinkhorn_config()
        self._pooled: dict[int, tuple[object, tuple[np.ndarray, np.ndarray]]] = {}
        self._catalog: _Catalog | None = None

    @property
    def uses_fused(self) -> bool:
        return ABLATION_NO_FUSED not in self.config.ablations

    @property
    def uses_unimodal(self) -> bool:
        return ABLATION_NO_UNIMODAL not in self.config.ablations

    def clear(self) -> None:
        """Empty the record cache and the catalog, so the scorer keeps no record alive.

        A long-lived scorer otherwise holds every record it has scored.
        Later scores equal earlier ones; the cleared work is redone on use.
        """
        self._pooled.clear()
        self._catalog = None

    def pooled(self, record) -> tuple[np.ndarray, np.ndarray]:
        """The record's pooled (text, visual) vectors; a miss warms it alone."""
        if _hit(self._pooled, record) is None:
            self.warm([record])
        return _hit(self._pooled, record)

    def warm(self, records) -> None:
        """Cache the pooled vectors of every record not cached yet.

        Records of one kind and one (text, visual) shape form a group,
        which is projected, transported and pooled in blocks of at most
        ``_BLOCK`` records. Each cross-modal site solves the cost stacks
        of consecutive blocks together, as many blocks per solve as
        :func:`_per_solve` allows; smaller stacks of one shape share a
        solve, so the two directions of one record are one solve.
        """
        solves = _Solves(self.config.mechanism, self._solver_config)
        self._gather_pooled(records, solves)
        solves.finish()

    def _gather_pooled(self, records, solves: _Solves) -> None:
        """Add the cross-modal jobs of records not cached yet to ``solves``.

        Each chunk of records is cached once both its directions are solved.
        """
        groups: dict[tuple, dict[int, object]] = {}
        for r in records:
            if _hit(self._pooled, r) is None:
                key = (type(r), r.text.data.shape, r.visual.data.shape)
                groups.setdefault(key, {})[id(r)] = r
        for group in groups.values():
            group = list(group.values())
            (n_t, d), n_v = group[0].text.data.shape, group[0].visual.rows
            for chunk in _chunks(group, _per_solve(n_t, n_v, d)):
                out = [None, None]
                for slot, site in enumerate(record_sites(group[0])):
                    _, dst, _, src = SITE_LEGS[site]
                    n, m = getattr(chunk[0], dst).rows, getattr(chunk[0], src).rows
                    job = functools.partial(self._cross_modal_job, chunk, site, out, slot)
                    solves.add(self.projections[site], n, m, len(chunk), job)

    def _cross_modal_job(self, chunk, site, out: list, slot: int):
        """One cross-modal site's job for ``chunk``, a list of records of one shape.

        Returns the job's scores and the callback that pools each record's
        destination rows with the source rows moved onto them into
        ``out[slot]``, and caches the chunk once ``out`` is full. Only the
        scores span the chunk; the rest is done one block of at most
        ``_BLOCK`` records at a time, in row buffers (see
        :func:`_workspace`) that every block of the job reuses: each
        record's own rows, then the rows moved onto them, written there
        by the matmul itself.
        """
        _, dst, _, src = SITE_LEGS[site]
        proj = self.projections[site]
        n, d = _fitted(getattr(chunk[0], dst), proj).shape
        _fitted(getattr(chunk[0], src), proj)
        blocks = _chunks(chunk, _BLOCK)

        def rows(block, attr: str) -> np.ndarray:
            return np.array([getattr(r, attr).data for r in block])

        scores = [
            assignment_scores(
                rows(b, dst) @ proj.w_q, rows(b, src) @ proj.w_k, self.config.mechanism
            )
            for b in blocks
        ]

        def take(a):
            lead = np.broadcast_shapes(a.shape[:-3], proj.w_h.shape[:-3])
            rows_buf = _workspace(lead + (len(blocks[0]),), 2 * n, d)
            work = np.empty_like(rows_buf)
            pooled = np.empty(lead + (len(chunk), d))
            start = 0
            for block in blocks:
                stop = start + len(block)
                both = rows_buf[..., : len(block), :, :]
                for i, r in enumerate(block):
                    both[..., i, :n, :] = getattr(r, dst).data
                # A block's H is made only now: a waiting job holds just its scores.
                h = rows(block, src) @ proj.w_h
                np.matmul(a[..., start:stop, :, :], h, out=both[..., n:, :])
                w = work[..., : len(block), :, :]
                _pool(both, self.config.pool, w, out=pooled[..., start:stop, :])
                start = stop
            out[slot] = pooled
            if all(x is not None for x in out):
                # Rows of a moved-axis view restack about twice as slowly.
                per_record = (x if x.ndim == 2 else np.moveaxis(x, -2, 0) for x in out)
                for r, pair in zip(chunk, zip(*per_record)):
                    self._pooled[id(r)] = (r, pair)

        joined = scores[0] if len(scores) == 1 else np.concatenate(scores, axis=-3)
        return joined, take

    def _prepared(self, entities) -> _Catalog:
        """The prepared catalog of ``entities``, built anew unless it is the last one."""
        if self._catalog is not None and self._catalog.matches(entities):
            return self._catalog
        blocks = {}
        if self.uses_unimodal:
            for site in UNIMODAL_SITES:
                proj = self.projections[site]
                sides = [getattr(e, SITE_LEGS[site][1]) for e in entities]
                blocks[site] = []
                for rows in _by_rows(sides):
                    for index in _chunks(rows, _BLOCK):
                        # Each entity is projected alone, as a lone pair projects it.
                        q = np.concatenate(
                            [_fitted(sides[j], proj)[None] @ proj.w_q for j in index],
                            axis=-3,
                        )
                        summary = np.array([sides[j].summary for j in index])
                        norms = np.linalg.norm(q, axis=-1)
                        blocks[site].append(_Block(index, q, norms, summary))
        self._catalog = _Catalog(list(entities), blocks)
        return self._catalog

    def _gather_unimodal(self, mentions, catalog: _Catalog, site, solves: _Solves):
        """Add one unimodal site's jobs, every mention against every entity, to ``solves``.

        Entities come in the catalog's blocks of one length; mentions are
        grouped by sequence length. Against each block, a chunk of a
        group's mentions is one job, as many mentions as keep it within
        :func:`_per_solve`. Groups are never padded, since padding would
        change the uniform marginals. Returns a list whose one item
        becomes the site's score grid as the jobs are solved.
        """
        proj = self.projections[site]
        sides = [getattr(m, SITE_LEGS[site][3]) for m in mentions]
        grid, width = [None], len(catalog.entities)
        for block in catalog.blocks[site]:
            n, count = block.q.shape[-2], len(block.index)
            for group in _by_rows(sides):
                m = sides[group[0]].rows
                per_solve = max(1, _per_solve(n, m, proj.dim) // count)
                for chunk in _chunks(group, per_solve):
                    job = functools.partial(
                        self._unimodal_job, proj, block, sides, chunk, grid, width
                    )
                    solves.add(proj, n, m, len(chunk) * count, job)
        return grid

    def _unimodal_job(self, proj, block: _Block, sides, chunk, grid: list, width: int):
        """The unimodal job of mentions ``chunk`` of ``sides`` against one block.

        Returns the job's scores and the callback that writes their scores
        into ``grid[0]``, an ``(M, width)`` grid after any probe axes. It
        transports and pools in slices of mentions that each stay within
        :func:`_per_solve` too, in row buffers (see :func:`_workspace`)
        that every slice of the job reuses.
        """
        x = np.array([_fitted(sides[i], proj) for i in chunk])
        k = (x @ proj.w_k)[..., None, :, :]
        # Probe axes lead; the chunk's mention axis goes before the block's.
        q, q_norms = block.q[..., None, :, :, :], block.q_norms[..., None, :, :]
        scores = assignment_scores(q, k, self.config.mechanism, q_norms)
        t_m = np.array([sides[i].summary for i in chunk])[:, None]
        # The summary-by-summary term depends on neither plan nor pool.
        summaries = _rowdot(t_m, block.summary)
        count, (n, d) = len(block.index), block.q.shape[-2:]
        step = min(len(chunk), max(1, _BLOCK // count))

        def take(a):
            lead = np.broadcast_shapes(a.shape[:-3], proj.w_h.shape[:-3])
            a = a.reshape(a.shape[:-3] + (len(chunk), count) + a.shape[-2:])
            g_buf = _workspace(lead + (step, count), n, d)
            work = np.empty_like(g_buf)
            pooled = np.empty(lead + (step, count, d))
            for s in range(0, len(chunk), step):
                cut = slice(s, s + step)
                size = len(chunk[cut])
                g = g_buf[..., :size, :, :, :]
                h = (x[cut] @ proj.w_h)[..., None, :, :]
                np.matmul(a[..., cut, :, :, :], h, out=g)
                p = pooled[..., :size, :, :]
                _pool(g, self.config.pool, work[..., :size, :, :, :], p)
                v = _unimodal_sum(p, block.summary, summaries[cut])
                if grid[0] is None:
                    grid[0] = np.empty(v.shape[:-2] + (len(sides), width))
                grid[0][..., np.array(chunk[cut])[:, None], block.index] = v

        return scores.reshape(scores.shape[:-4] + (-1,) + scores.shape[-2:]), take

    def score_grid(self, mentions, entities) -> CatalogScores:
        """Every mention's match scores against each entity, in catalog order.

        The scoring core of ranking and of the batch losses; a block of
        one mention is the online path. One call gathers every transport
        problem it needs: the cross-modal ones of records not pooled yet,
        and each unimodal site's ones for each block of entities and
        chunk of mentions. Problems of one shape are solved together, as
        many per solve as :func:`_per_solve` allows, so one online
        mention against a catalog of E entities of its own shape solves
        its 2 + 2·E problems in one stack. Each solved job transports and
        pools one block of at most ``_BLOCK`` problems at a time: the
        matmul writes the transported rows straight into a rows-first
        buffer, pooled in place, and every block of the job reuses the
        buffers, so no temporary grows with the catalog or the mentions.
        The fused scores are then one broadcast product of pooled vectors.
        A score depends only on its own mention and entity, never on what
        else shares the call. Ablated components read 0. Each field is an
        ``(M, E)`` grid, so a call holds four floats per pair. Under a
        table entry with
        ``(P, 1, d, d)`` probe matrices, every field the entry feeds is a
        ``(P, M, E)`` grid, one per probe.
        """
        mentions, entities = list(mentions), list(entities)
        shape = (len(mentions), len(entities))
        if not (mentions and entities):
            return CatalogScores(*np.zeros((4, *shape)))
        catalog = self._prepared(entities)
        solves = _Solves(self.config.mechanism, self._solver_config)
        s_f, s_t, s_v = np.zeros(shape), np.zeros(shape), np.zeros(shape)
        parts = []
        if self.uses_fused:
            records = mentions if catalog.pooled is not None else entities + mentions
            self._gather_pooled(records, solves)
        if self.uses_unimodal:
            grids = [
                self._gather_unimodal(mentions, catalog, s, solves)
                for s in UNIMODAL_SITES
            ]
        solves.finish()
        if self.uses_fused:
            if catalog.pooled is None:
                pooled = (_records(v) for v in zip(*map(self.pooled, entities)))
                catalog.pooled = tuple(x[..., None, :, :] for x in pooled)
            m_text, m_vis = (_records(v) for v in zip(*map(self.pooled, mentions)))
            e_text, e_vis = catalog.pooled
            s_f = _rowdot(m_text[..., :, None, :], e_text) + _rowdot(
                m_vis[..., :, None, :], e_vis
            )
            parts.append(s_f)
        if self.uses_unimodal:
            s_t, s_v = (values[0] for values in grids)
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
