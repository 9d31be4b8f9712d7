"""Correlation assignment between two feature sequences.

Both mechanisms share the same projection step: the destination sequence
is mapped to queries, the source sequence to keys and transported values.
Attention normalizes the scaled query-key scores row-wise; the transport
mechanism converts them to a cosine cost and solves for a coupling with
uniform marginals, so no single source element can soak up more than its
share of mass. Projection, cost and both mechanisms accept leading stack
axes: a ``(B, n, d)`` destination holds B independent problems, computed
together and each equal, bit for bit, to computing it alone.
:data:`SITE_LEGS` is where each site's geometry is declared: which
record's sequence it moves onto which. Fusion, scoring and distillation
all read it there.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionError, ZeroNormRowError
from .ot import (
    CostMatrix,
    Marginals,
    SinkhornConfig,
    TransportPlan,
    _solve_stack,
    sinkhorn,
    sinkhorn_stack,
)
from .types import EntityRecord, FeatureMatrix, MentionRecord, ProjectionSet

ATTENTION = "attention"
OT = "ot"
MECHANISMS = (OT, ATTENTION)


class AssignmentSite(str, enum.Enum):
    """The assignment sites of the pipeline; each owns one ProjectionSet.

    Cross-modal sites fuse a record's own modalities; the mention-to-entity
    sites drive unimodal matching; the reverse entity-to-mention sites are
    used only when distilling in both directions.
    """

    MENTION_VISUAL_TO_TEXT = "m_v2t"
    MENTION_TEXT_TO_VISUAL = "m_t2v"
    ENTITY_VISUAL_TO_TEXT = "e_v2t"
    ENTITY_TEXT_TO_VISUAL = "e_t2v"
    MENTION_TO_ENTITY_TEXT = "m2e_text"
    MENTION_TO_ENTITY_VISUAL = "m2e_visual"
    ENTITY_TO_MENTION_TEXT = "e2m_text"
    ENTITY_TO_MENTION_VISUAL = "e2m_visual"


# Sites exercised by the forward scoring pipeline, in evaluation order.
CROSS_MODAL_SITES = (
    AssignmentSite.MENTION_VISUAL_TO_TEXT,
    AssignmentSite.MENTION_TEXT_TO_VISUAL,
    AssignmentSite.ENTITY_VISUAL_TO_TEXT,
    AssignmentSite.ENTITY_TEXT_TO_VISUAL,
)
UNIMODAL_SITES = (
    AssignmentSite.MENTION_TO_ENTITY_TEXT,
    AssignmentSite.MENTION_TO_ENTITY_VISUAL,
)
REVERSE_UNIMODAL_SITES = (
    AssignmentSite.ENTITY_TO_MENTION_TEXT,
    AssignmentSite.ENTITY_TO_MENTION_VISUAL,
)
PIPELINE_SITES = CROSS_MODAL_SITES + UNIMODAL_SITES

# Each site's (destination record, destination attribute, source record,
# source attribute): the source sequence is moved onto the destination's
# positions. Mention-to-entity sites let the entity query the mention.
SITE_LEGS = {
    AssignmentSite.MENTION_VISUAL_TO_TEXT: ("mention", "text", "mention", "visual"),
    AssignmentSite.MENTION_TEXT_TO_VISUAL: ("mention", "visual", "mention", "text"),
    AssignmentSite.ENTITY_VISUAL_TO_TEXT: ("entity", "text", "entity", "visual"),
    AssignmentSite.ENTITY_TEXT_TO_VISUAL: ("entity", "visual", "entity", "text"),
    AssignmentSite.MENTION_TO_ENTITY_TEXT: ("entity", "text", "mention", "text"),
    AssignmentSite.MENTION_TO_ENTITY_VISUAL: ("entity", "visual", "mention", "visual"),
    AssignmentSite.ENTITY_TO_MENTION_TEXT: ("mention", "text", "entity", "text"),
    AssignmentSite.ENTITY_TO_MENTION_VISUAL: ("mention", "visual", "entity", "visual"),
}

ProjectionTable = dict[AssignmentSite, ProjectionSet]


def identity_projections(d: int) -> ProjectionTable:
    """A table mapping every site to identity maps; the untrained default."""
    eye = np.eye(d)
    return {site: ProjectionSet(eye, eye, eye) for site in AssignmentSite}


def default_projections(d: int, seed: int, scale: float = 1.0) -> ProjectionTable:
    """Seeded random-orthogonal tables, the usual starting point for training.

    Each matrix is an independent orthogonal factor (QR of a Gaussian
    draw) scaled by ``scale``, so projected features keep their norms.
    """
    rng = np.random.default_rng(seed)
    table: ProjectionTable = {}
    for site in AssignmentSite:
        mats = []
        for _ in range(3):
            q, r = np.linalg.qr(rng.standard_normal((d, d)))
            # Fix the sign convention so the factorization is unique.
            q = q * np.sign(np.diag(r))
            mats.append(scale * q)
        table[site] = ProjectionSet(*mats)
    return table


@dataclass(frozen=True)
class AssignmentResult:
    """A correlation assignment and the features it transports.

    ``a`` is the n x m assignment matrix (rows: destination elements,
    columns: source elements), ``g = a @ h`` the transported features.
    ``plan`` carries solver diagnostics in transport mode and is None
    otherwise.
    A stacked assignment carries the same leading axes on every array.
    """

    a: np.ndarray
    g: np.ndarray
    plan: TransportPlan | None = None


def project(
    dst: FeatureMatrix | np.ndarray,
    src: FeatureMatrix | np.ndarray,
    proj: ProjectionSet,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Project destination rows to queries and source rows to keys/values.

    Returns (Q, K, H) with shapes (..., n, d), (..., m, d), (..., m, d)
    where n and m are the destination and source lengths; leading stack
    axes pass through.
    """
    dst = dst.data if isinstance(dst, FeatureMatrix) else np.asarray(dst, float)
    src = src.data if isinstance(src, FeatureMatrix) else np.asarray(src, float)
    d = proj.dim
    if dst.shape[-1] != d or src.shape[-1] != d:
        raise DimensionError(
            f"sequences with d={dst.shape[-1]}/{src.shape[-1]} do not match "
            f"projection dimension {d}"
        )
    return dst @ proj.w_q, src @ proj.w_k, src @ proj.w_h


def row_softmax(scores: np.ndarray) -> np.ndarray:
    """Row-wise softmax with per-row max subtraction, over any leading axes.

    Computed in the one array it returns.
    """
    e = np.subtract(scores, scores.max(axis=-1, keepdims=True))
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def attention_logits(q: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Scaled query-key scores of projected Q and K, the logits attention normalizes."""
    return q @ k.swapaxes(-1, -2) / np.sqrt(q.shape[-1])


def _attend(q, k, h) -> AssignmentResult:
    a = row_softmax(attention_logits(q, k))
    return AssignmentResult(a=a, g=a @ h)


def attention_assign(
    dst: FeatureMatrix | np.ndarray,
    src: FeatureMatrix | np.ndarray,
    proj: ProjectionSet,
) -> AssignmentResult:
    """Scaled dot-product attention from each destination row over the source."""
    return _attend(*project(dst, src, proj))


def cosine_cost(q: np.ndarray, k: np.ndarray) -> CostMatrix:
    """Pairwise cost ``(1 - cos(q_i, k_j)) / 2``; always within [0, 1].

    Leading stack axes of ``q`` and ``k`` broadcast against each other.
    """
    return CostMatrix(_cosine(q, k))


def _cosine(q, k, q_norms=None) -> np.ndarray:
    """The array of :func:`cosine_cost`, from the queries' row norms if given.

    Computed in the array it returns; the norms' outer product is the one
    other array of its size.
    """
    q = np.asarray(q, float)
    k = np.asarray(k, float)
    if q.shape[-1] != k.shape[-1]:
        raise DimensionError(f"rows of size {q.shape[-1]} vs {k.shape[-1]}")
    qn = np.linalg.norm(q, axis=-1) if q_norms is None else q_norms
    kn = np.linalg.norm(k, axis=-1)
    if not (qn.all() and kn.all()):
        for name, norms in (("query", qn), ("key", kn)):
            zero = np.argwhere(norms == 0.0)
            if zero.size:
                raise ZeroNormRowError(
                    f"{name} row {int(zero[0, -1])} has zero norm; cosine is undefined"
                )
    cos = q @ k.swapaxes(-1, -2)
    cos /= qn[..., :, None] * kn[..., None, :]
    np.clip(cos, -1.0, 1.0, out=cos)
    np.subtract(1.0, cos, out=cos)
    cos *= 0.5
    return cos


def _transport(q, k, h, config: SinkhornConfig) -> AssignmentResult:
    cost = cosine_cost(q, k)
    # A lone problem's plan keeps sinkhorn's Python-scalar diagnostics.
    solve = sinkhorn if cost.data.ndim == 2 else sinkhorn_stack
    plan = solve(cost, Marginals.uniform(cost.n, cost.m), config)
    return AssignmentResult(a=plan.data, g=plan.data @ h, plan=plan)


def ot_assign(
    dst: FeatureMatrix | np.ndarray,
    src: FeatureMatrix | np.ndarray,
    proj: ProjectionSet,
    config: SinkhornConfig = SinkhornConfig(),
) -> AssignmentResult:
    """Transport-based assignment: couple destination and source uniformly.

    Builds the cosine cost between projected queries and keys and solves
    for the plan with uniform marginals (1/n per destination row, 1/m per
    source column). The plan itself is the assignment matrix. Stacked
    inputs are solved as one :func:`~otmel.ot.sinkhorn_stack`.
    """
    return _transport(*project(dst, src, proj), config)


def assign(
    dst,
    src,
    proj: ProjectionSet,
    mechanism: str,
    config: SinkhornConfig = SinkhornConfig(),
) -> AssignmentResult:
    """Dispatch to the requested assignment mechanism."""
    if mechanism == ATTENTION:
        return attention_assign(dst, src, proj)
    if mechanism == OT:
        return ot_assign(dst, src, proj, config)
    raise ConfigError(f"unknown mechanism {mechanism!r}")


def assignment_scores(q, k, mechanism: str, q_norms=None) -> np.ndarray:
    """What ``mechanism`` turns into assignment matrices, for projected Q and K.

    The cosine cost for transport, the scaled query-key scores for
    attention; ``q_norms``, the queries' row norms, spare the cost
    recomputing them.
    """
    if mechanism == ATTENTION:
        return attention_logits(q, k)
    if mechanism == OT:
        return _cosine(q, k, q_norms)
    raise ConfigError(f"unknown mechanism {mechanism!r}")


def assignment_stack(
    scores, mechanism: str, config: SinkhornConfig = SinkhornConfig()
) -> np.ndarray:
    """The assignment matrices of several :func:`assignment_scores` stacks, solved as one.

    Each part is a ``(..., B, n, m)`` stack; all parts share n, m and any
    leading probe axes ahead of the record axis B. The parts are joined
    on the record axis (-3) and solved by one row softmax or one Sinkhorn
    stack. Transport takes the bare plans of the solve behind
    :func:`~otmel.ot.sinkhorn_stack`, without the plan sums of
    ``achieved_marginal_error`` or a :class:`~otmel.ot.TransportPlan`,
    which ranking never reads. Part by part, the result equals the ``a``
    of :func:`assign` on the same projections, bit for bit.
    """
    scores = list(scores)
    # A lone part goes in as it is: concatenating would copy it.
    joined = scores[0] if len(scores) == 1 else np.concatenate(scores, axis=-3)
    if mechanism == ATTENTION:
        return row_softmax(joined)
    if mechanism == OT:
        marginals = Marginals.uniform(*joined.shape[-2:])
        return _solve_stack(joined, marginals, config)[0]
    raise ConfigError(f"unknown mechanism {mechanism!r}")


@dataclass(frozen=True)
class RecordInteraction:
    """Both cross-modal assignments of one record.

    ``v2t`` transports visual features onto text positions, ``t2v`` the
    reverse; ``v2t.g`` and ``t2v.g`` are the fused feature matrices.
    """

    v2t: AssignmentResult
    t2v: AssignmentResult


def record_sites(
    record: MentionRecord | EntityRecord,
) -> tuple[AssignmentSite, AssignmentSite]:
    """The (v2t, t2v) cross-modal sites owned by this record kind."""
    kind = "mention" if isinstance(record, MentionRecord) else "entity"
    return tuple(s for s in CROSS_MODAL_SITES if SITE_LEGS[s][0] == kind)


def interact_record(
    record: MentionRecord | EntityRecord,
    table: ProjectionTable,
    mechanism: str,
    config: SinkhornConfig = SinkhornConfig(),
) -> RecordInteraction:
    """Run the cross-modal assignment in both directions for one record."""
    directions = []
    for site in record_sites(record):
        _, dst, _, src = SITE_LEGS[site]
        rows = getattr(record, dst), getattr(record, src)
        directions.append(assign(*rows, table[site], mechanism, config))
    return RecordInteraction(*directions)
