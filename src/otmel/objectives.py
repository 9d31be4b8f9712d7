"""Training objectives and a desk-scale finite-difference trainer.

The contrastive losses treat each batch's score matrices as softmax
classification problems with the gold pair on the diagonal. Distillation
compares a transport plan (teacher, held constant) against attention
logits (student) through row- and column-wise KL divergences. The toy
trainer descends these objectives over the projection tables with central
finite differences; it is meant for small synthetic datasets only and
guards its input sizes accordingly. Its batch objective holds what a step
keeps fixed (the batch, and the teacher plans) and scores the batch under
the table it is given with :meth:`~otmel.matching.Scorer.score_grid`, the
scoring core ranking uses; of its own it keeps only the distillation term.
All probes of one projection matrix go in as one stack of perturbed
copies, which passes through scoring and the losses as one more leading
axis.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .config import RunConfig
from .correlation import (
    ATTENTION,
    OT,
    PIPELINE_SITES,
    REVERSE_UNIMODAL_SITES,
    AssignmentSite,
    ProjectionTable,
    assign,
    attention_logits,
    cosine_cost,
    project,
)
from .data_io import Dataset
from .errors import ConfigError, DataError, DimensionError, NonFiniteError
from .matching import Scorer
from .ot import Marginals, sinkhorn
from .types import FeatureMatrix, ProjectionSet


def _log_softmax(x: np.ndarray, axis: int) -> np.ndarray:
    shifted = x - x.max(axis=axis, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))


def contrastive_loss(scores: np.ndarray) -> float | np.ndarray:
    """Mean over rows of the negative log-softmax mass on the diagonal.

    Row i is mention i's scores over the in-batch candidates, with the
    gold entity at column i. A ``(..., b, b)`` stack gives an array over
    the leading axes, each term equal, bit for bit, to the one its
    ``(b, b)`` matrix gives alone.
    """
    # Contiguous rows, so each row's sum adds in one order whatever the layout.
    scores = np.ascontiguousarray(scores, float)
    if scores.ndim < 2 or scores.shape[-1] != scores.shape[-2]:
        raise DimensionError(f"score matrix must be square, got {scores.shape}")
    log_probs = _log_softmax(scores, axis=-1)
    loss = -np.diagonal(log_probs, axis1=-2, axis2=-1).mean(axis=-1)
    return float(loss) if loss.ndim == 0 else loss


@dataclass(frozen=True)
class DistillPair:
    """Teacher plans and student logits for the same assignments.

    One ``(n, m)`` pair, or a ``(..., n, m)`` stack of them.
    """

    plan: np.ndarray
    logits: np.ndarray

    def __post_init__(self):
        plan = np.asarray(self.plan, float)
        logits = np.asarray(self.logits, float)
        if plan.shape != logits.shape:
            raise DimensionError(
                f"plan {plan.shape} and logits {logits.shape} shapes differ"
            )
        if not np.isfinite(logits).all() or not np.isfinite(plan).all():
            raise NonFiniteError("distillation operands must be finite")
        object.__setattr__(self, "plan", plan)
        object.__setattr__(self, "logits", logits)


def kd_pair_loss(plan: np.ndarray, logits: np.ndarray) -> float | np.ndarray:
    """Distillation divergence for one assignment, or one per stacked assignment.

    Both operands are pushed through a softmax along each axis; the loss
    averages the summed row-wise and column-wise KL divergences from the
    plan's distributions to the logits'. A ``(..., n, m)`` stack gives an
    array over the leading axes, each term equal, bit for bit, to the one
    its ``(n, m)`` pair gives alone.
    """
    pair = DistillPair(plan, logits)

    def directed(axis: int) -> np.ndarray:
        lp = _log_softmax(pair.plan, axis)
        lq = _log_softmax(pair.logits, axis)
        kl = np.exp(lp) * (lp - lq)
        # One contiguous sum per problem, in the order a 2-D np.sum takes.
        return kl.reshape(*kl.shape[:-2], -1).sum(axis=-1)

    loss = 0.5 * (directed(-1) + directed(-2))
    return float(loss) if loss.ndim == 0 else loss


# --- distillation bookkeeping -------------------------------------------

_CROSS_LEGS = {
    AssignmentSite.MENTION_VISUAL_TO_TEXT: ("mention", "text", "visual"),
    AssignmentSite.MENTION_TEXT_TO_VISUAL: ("mention", "visual", "text"),
    AssignmentSite.ENTITY_VISUAL_TO_TEXT: ("entity", "text", "visual"),
    AssignmentSite.ENTITY_TEXT_TO_VISUAL: ("entity", "visual", "text"),
}
_PAIR_LEGS = {
    AssignmentSite.MENTION_TO_ENTITY_TEXT: ("text", False),
    AssignmentSite.MENTION_TO_ENTITY_VISUAL: ("visual", False),
    AssignmentSite.ENTITY_TO_MENTION_TEXT: ("text", True),
    AssignmentSite.ENTITY_TO_MENTION_VISUAL: ("visual", True),
}


def _unique_by_identity(records):
    return list({id(r): r for r in records}.values())


def distill_instances(
    mentions, golds, sites=PIPELINE_SITES
) -> dict[AssignmentSite, list[tuple[FeatureMatrix, FeatureMatrix]]]:
    """The (destination, source) matrix pairs distilled at each site.

    Cross-modal sites contribute one instance per record; unimodal sites
    one per mention/gold pair (reverse sites swap the roles).
    """
    entities = _unique_by_identity(golds)
    instances: dict[AssignmentSite, list[tuple[FeatureMatrix, FeatureMatrix]]] = {}
    for site in sites:
        if site in _CROSS_LEGS:
            kind, dst_attr, src_attr = _CROSS_LEGS[site]
            records = mentions if kind == "mention" else entities
            instances[site] = [
                (getattr(r, dst_attr), getattr(r, src_attr)) for r in records
            ]
        else:
            attr, reverse = _PAIR_LEGS[site]
            pairs = []
            for m, e in zip(mentions, golds):
                m_mat, e_mat = getattr(m, attr), getattr(e, attr)
                pairs.append((m_mat, e_mat) if reverse else (e_mat, m_mat))
            instances[site] = pairs
    return instances


def _gold_pairs(dataset: Dataset):
    """The dataset's mentions and their gold entities; there must be a mention."""
    mentions = list(dataset.mentions)
    if not mentions:
        raise DataError("manifest lists no mentions")
    return mentions, [dataset.gold_of(m) for m in mentions]


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


def distill_gap(
    dataset: Dataset,
    table: ProjectionTable,
    run: RunConfig = RunConfig(),
    sites=PIPELINE_SITES,
) -> dict[AssignmentSite, float]:
    """Mean per-site divergence between transport plans and attention logits."""
    mentions, golds = _gold_pairs(dataset)
    return {
        site: float(np.mean([kd_pair_loss(p.plan, p.logits) for p in pairs]))
        for site, pairs in distill_pairs(mentions, golds, table, run, sites).items()
    }


# --- toy trainer ---------------------------------------------------------

OBJECTIVE_OT = "ot"
OBJECTIVE_KD = "kd"
OBJECTIVES = (OBJECTIVE_OT, OBJECTIVE_KD)

# The trainer's solver tolerance, tighter than ranking's so the central
# differences stay smooth. Batch loss reports score at it too.
TRAINING_TOL = 1e-9

MAX_TRAIN_DIM = 16
MAX_TRAIN_LEN = 8
MAX_TRAIN_BATCH = 8

_MATRIX_NAMES = ("w_q", "w_k", "w_h")


@dataclass(frozen=True)
class ToyTrainConfig:
    """Settings for the finite-difference trainer."""

    steps: int
    lr: float = 1e-2
    fd_step: float = 1e-4
    objective: str = OBJECTIVE_OT
    include_reverse_sites: bool = False

    def __post_init__(self):
        if self.steps < 0:
            raise ConfigError(f"steps must be >= 0, got {self.steps}")
        if self.lr < 0:
            raise ConfigError(f"lr must be >= 0, got {self.lr}")
        if not self.fd_step > 0:
            raise ConfigError(f"fd_step must be positive, got {self.fd_step}")
        if self.objective not in OBJECTIVES:
            raise ConfigError(
                f"objective must be {OBJECTIVE_OT!r} or {OBJECTIVE_KD!r}, "
                f"got {self.objective!r}"
            )

    def trainable_sites(self) -> tuple[AssignmentSite, ...]:
        if self.objective == OBJECTIVE_KD and self.include_reverse_sites:
            return PIPELINE_SITES + REVERSE_UNIMODAL_SITES
        return PIPELINE_SITES

    def distilled_sites(self) -> tuple[AssignmentSite, ...]:
        return self.trainable_sites() if self.objective == OBJECTIVE_KD else ()


@dataclass(frozen=True)
class TraceRow:
    """One logged training step; ``total`` is the descended objective."""

    step: int
    l_f: float
    l_t: float
    l_v: float
    l_o: float
    l_kd: float
    total: float


class _BatchObjective:
    """The batch objective of one step, as a function of the projection table.

    Construction fixes what a step holds constant: the batch, and the
    teacher plans of each distilled site's legs (its assignment problems)
    under the starting table, stacked by shape, which makes the
    distillation term a pure student-side objective within a step.
    :meth:`row` reads the matching losses from the gold columns of one
    :meth:`~otmel.matching.Scorer.score_grid` under the table it is given,
    and the distillation term from the students' logits; a site whose
    entry is still the starting one keeps its starting term. Leading probe
    axes on a table entry's matrices give a row of arrays over them, each
    entry equal, bit for bit, to the row under that probe alone.
    """

    def __init__(self, mentions, golds, table, run: RunConfig, kd_sites=()):
        self.mentions = list(mentions)
        self.run = run
        self.kd_sites = tuple(kd_sites)
        # Each distinct gold is scored once; its gold columns put mention
        # i's gold in column i.
        self.entities = _unique_by_identity(golds)
        slot = {id(e): u for u, e in enumerate(self.entities)}
        self._gold_slots = [slot[id(g)] for g in golds]
        solver = run.sinkhorn_config()
        self._teachers = {}
        for site, legs in distill_instances(self.mentions, golds, self.kd_sites).items():
            by_shape: dict[tuple, list[int]] = {}
            for k, (dst, src) in enumerate(legs):
                by_shape.setdefault((dst.data.shape, src.data.shape), []).append(k)
            groups = []
            for ks in by_shape.values():
                dst = np.stack([legs[k][0].data for k in ks])
                src = np.stack([legs[k][1].data for k in ks])
                teachers = assign(dst, src, table[site], OT, solver).a
                groups.append((dst, src, teachers))
            # The order that takes the groups' concatenated legs back to leg order.
            order = np.argsort(np.concatenate(list(by_shape.values())))
            self._teachers[site] = (groups, order)
        # A step probes one site at a time, so the other sites keep their
        # starting entries, and with them their starting kd terms.
        self._kd_at_start = {
            site: (table[site], self._kd(site, table[site])) for site in self.kd_sites
        }

    def _kd(self, site, proj: ProjectionSet):
        """The site's distillation term under ``proj``; its probe axes lead."""
        groups, order = self._teachers[site]
        terms = []
        for dst, src, teachers in groups:
            logits = attention_logits(dst @ proj.w_q, src @ proj.w_k)
            terms.append(kd_pair_loss(np.broadcast_to(teachers, logits.shape), logits))
        # Left to right in leg order, as a loop over the legs adds.
        kd = np.cumsum(np.concatenate(terms, axis=-1)[..., order], axis=-1)[..., -1]
        return float(kd) if kd.ndim == 0 else kd

    def row(self, table: ProjectionTable) -> TraceRow:
        """Every loss component under ``table``, with teachers held from the start."""
        scorer = Scorer(table, self.run)
        grid = scorer.score_grid(self.mentions, self.entities)

        def loss(scores, used=True):
            return contrastive_loss(scores[..., self._gold_slots]) if used else 0.0

        l_f = loss(grid.s_f, scorer.uses_fused)
        l_t = loss(grid.s_t, scorer.uses_unimodal)
        l_v = loss(grid.s_v, scorer.uses_unimodal)
        l_o = loss(grid.s_o)
        l_kd = 0.0
        for site in self.kd_sites:
            start, kd = self._kd_at_start[site]
            l_kd = l_kd + (kd if table[site] is start else self._kd(site, table[site]))
        return TraceRow(
            step=0,
            l_f=l_f,
            l_t=l_t,
            l_v=l_v,
            l_o=l_o,
            l_kd=l_kd,
            total=l_o + l_f + l_t + l_v + l_kd,
        )


def _guard_sizes(dataset: Dataset, table: ProjectionTable) -> None:
    dims = {p.dim for p in table.values()} | {dataset.d}
    if max(dims) > MAX_TRAIN_DIM:
        raise ConfigError(
            f"toy trainer is limited to d <= {MAX_TRAIN_DIM}, got {max(dims)}"
        )
    if len(dataset.mentions) > MAX_TRAIN_BATCH:
        raise ConfigError(
            f"toy trainer is limited to {MAX_TRAIN_BATCH} mentions, "
            f"got {len(dataset.mentions)}"
        )
    for record in [*dataset.mentions, *dataset.entities]:
        longest = max(record.text.rows, record.visual.rows)
        if longest > MAX_TRAIN_LEN:
            raise ConfigError(
                f"toy trainer is limited to sequences of {MAX_TRAIN_LEN} rows, "
                f"record {record.id!r} has {longest}"
            )


def _training_run(run: RunConfig | None, objective: str) -> RunConfig:
    base = run if run is not None else RunConfig(tol=TRAINING_TOL)
    mechanism = OT if objective == OBJECTIVE_OT else ATTENTION
    return replace(base, mechanism=mechanism)


def _objective_state(dataset, table, train: ToyTrainConfig, run: RunConfig):
    mentions, golds = _gold_pairs(dataset)
    return _BatchObjective(mentions, golds, table, run, train.distilled_sites())


def _central_differences(state: _BatchObjective, table, coords, h: float):
    """Central differences at ``coords``, one objective evaluation per matrix.

    The K probed entries of one (site, matrix) make a ``(2K, 1, d, d)``
    stack of it, ``+h`` at each entry and then ``-h``; the unit axis
    broadcasts over the site's stacked legs.
    """
    by_matrix: dict[tuple, list] = {}
    for coord in coords:
        by_matrix.setdefault(coord[:2], []).append(coord)
    grads = {}
    for (site, name), group in by_matrix.items():
        _, _, i, j = zip(*group)
        k = np.arange(len(group))
        probes = np.repeat(getattr(table[site], name)[None, None], 2 * k.size, axis=0)
        probes[k, 0, i, j] += h
        probes[k + k.size, 0, i, j] -= h
        total = state.row({**table, site: table[site].replace(**{name: probes})}).total
        up, down = np.broadcast_to(total, probes.shape[:1]).reshape(2, -1)
        grads.update(zip(group, ((up - down) / (2.0 * h)).tolist()))
    return grads


def _every_coord(table, sites):
    return [
        (site, name, i, j)
        for site in sites
        for name in _MATRIX_NAMES
        for i in range(table[site].dim)
        for j in range(table[site].dim)
    ]


def fd_gradient(
    dataset: Dataset,
    table: ProjectionTable,
    train: ToyTrainConfig,
    run: RunConfig | None = None,
    coords=None,
) -> dict[tuple[AssignmentSite, str, int, int], float]:
    """Central-difference gradient of the training objective.

    ``coords`` limits the computation to selected
    (site, matrix name, row, column) entries; by default every entry of
    every trainable site is probed.
    """
    run = _training_run(run, train.objective)
    _guard_sizes(dataset, table)
    state = _objective_state(dataset, table, train, run)
    if coords is None:
        coords = _every_coord(table, train.trainable_sites())
    return _central_differences(state, table, coords, train.fd_step)


def batch_loss_report(
    dataset: Dataset,
    table: ProjectionTable,
    run: RunConfig | None = None,
    objective: str = OBJECTIVE_OT,
) -> TraceRow:
    """All loss components of one batch under the given objective."""
    train = ToyTrainConfig(steps=0, objective=objective)
    return _objective_state(
        dataset, table, train, _training_run(run, objective)
    ).row(table)


def toy_train(
    dataset: Dataset,
    table: ProjectionTable,
    train: ToyTrainConfig,
    run: RunConfig | None = None,
) -> tuple[ProjectionTable, list[TraceRow]]:
    """Plain gradient descent on the projection tables via central differences.

    The ``ot`` objective is the matching loss with transport-based
    assignments; the ``kd`` objective scores with attention and adds the
    distillation term, whose teacher plans are recomputed once per step
    and held constant within it. Returns the trained table and one trace
    row per step (row 0 is the starting point). Deterministic.
    """
    run = _training_run(run, train.objective)
    _guard_sizes(dataset, table)

    state = _objective_state(dataset, table, train, run)
    trace = [replace(state.row(table), step=0)]
    sites = train.trainable_sites()

    for step in range(1, train.steps + 1):
        grads = _central_differences(
            state, table, _every_coord(table, sites), train.fd_step
        )
        mats = {
            site: {name: getattr(table[site], name).copy() for name in _MATRIX_NAMES}
            for site in sites
        }
        for (site, name, i, j), grad in grads.items():
            mats[site][name][i, j] -= train.lr * grad
        table = {**table, **{site: table[site].replace(**mats[site]) for site in sites}}
        state = _objective_state(dataset, table, train, run)
        trace.append(replace(state.row(table), step=step))

    return table, trace
