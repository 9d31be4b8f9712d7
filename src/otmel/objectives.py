"""Training objectives and a desk-scale gradient-descent trainer.

The contrastive losses treat each batch's score matrices as softmax
classification problems with the gold pair on the diagonal. Distillation
compares a transport plan (teacher, held constant) against attention
logits (student) through row- and column-wise KL divergences. The toy
trainer descends these objectives over the projection tables; it is meant
for small synthetic datasets only and guards its input sizes accordingly.
Its batch objective holds what a step keeps fixed (the batch, and the
teacher plans) and scores the batch under the table it is given with
:meth:`~otmel.matching.Scorer.score_grid`, the scoring core ranking uses;
of its own it keeps only the distillation term.
Both objectives descend an exact gradient, taken by one hand-written
reverse pass over the batch. The ``kd`` objective scores with attention
and holds its teachers within a step; a step solves all sites' teachers
in one stack per leg shape. The ``ot`` objective's assignments are
Sinkhorn plans, differentiated implicitly at their fixed point. A step
scores the batch once for its trace row and its gradient. Central finite
differences, as :func:`fd_gradient`, check the reverse pass. The
distillation gap (:func:`distill_gap`) averages the same per-leg terms the
``kd`` objective sums, so one stacked path computes every distillation
term.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .config import POOL_MAX, POOL_MEAN, RunConfig
from .correlation import (
    ATTENTION,
    OT,
    PIPELINE_SITES,
    REVERSE_UNIMODAL_SITES,
    SITE_LEGS,
    UNIMODAL_SITES,
    AssignmentSite,
    ProjectionTable,
    assignment_scores,
    assignment_stack,
    attention_logits,
    project,
    record_sites,
)
from .data_io import Dataset
from .errors import ConfigError, DataError, DimensionError, NonFiniteError
from .matching import Scorer, _groups
from .ot import _dual_system
# Unused here; the benchmark's tracer still wraps this binding.
from .ot import sinkhorn  # noqa: F401
from .types import FeatureMatrix


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


def kd_pair_loss(plan: np.ndarray, logits: np.ndarray) -> float | np.ndarray:
    """Distillation divergence for one assignment, or one per stacked assignment.

    Both operands are pushed through a softmax along each axis; the loss
    averages the summed row-wise and column-wise KL divergences from the
    plan's distributions to the logits'. A ``(..., n, m)`` stack gives an
    array over the leading axes, each term equal, bit for bit, to the one
    its ``(n, m)`` pair gives alone.
    """
    plan = np.asarray(plan, float)
    logits = np.asarray(logits, float)
    if plan.shape != logits.shape:
        raise DimensionError(f"plan {plan.shape} and logits {logits.shape} shapes differ")
    if not np.isfinite(logits).all() or not np.isfinite(plan).all():
        raise NonFiniteError("distillation operands must be finite")

    def directed(axis: int) -> np.ndarray:
        lp = _log_softmax(plan, axis)
        lq = _log_softmax(logits, axis)
        kl = np.exp(lp) * (lp - lq)
        # One contiguous sum per problem, in the order a 2-D np.sum takes.
        return kl.reshape(*kl.shape[:-2], -1).sum(axis=-1)

    loss = 0.5 * (directed(-1) + directed(-2))
    return float(loss) if loss.ndim == 0 else loss


# --- distillation bookkeeping -------------------------------------------

def _unique_by_identity(records):
    return list({id(r): r for r in records}.values())


def _gold_pairs(dataset: Dataset):
    """The dataset's mentions and their gold entities; there must be a mention."""
    mentions = list(dataset.mentions)
    if not mentions:
        raise DataError("manifest lists no mentions")
    return mentions, [dataset.gold_of(m) for m in mentions]


def distill_gap(
    dataset: Dataset,
    table: ProjectionTable,
    run: RunConfig = RunConfig(),
    sites=PIPELINE_SITES,
) -> dict[AssignmentSite, float]:
    """Mean per-site divergence between transport plans and attention logits.

    The terms are those the ``kd`` objective sums (:class:`_BatchObjective`),
    one per leg of each site, in the order of ``sites``.
    """
    mentions, golds = _gold_pairs(dataset)
    terms, _ = _BatchObjective(mentions, golds, table, run, sites)._kd(table, False)
    return {site: float(np.mean(terms[site])) for site in terms}


# --- toy trainer ---------------------------------------------------------

OBJECTIVE_OT = "ot"
OBJECTIVE_KD = "kd"
OBJECTIVES = (OBJECTIVE_OT, OBJECTIVE_KD)

# The trainer's solver tolerance, tighter than ranking's, so the plans the
# reverse pass differentiates sit close to their fixed points. Batch loss
# reports score at it too.
TRAINING_TOL = 1e-9

MAX_TRAIN_DIM = 16
MAX_TRAIN_LEN = 8
MAX_TRAIN_BATCH = 8

_MATRIX_NAMES = ("w_q", "w_k", "w_h")


@dataclass(frozen=True)
class ToyTrainConfig:
    """Settings for the toy trainer, which descends the exact gradient."""

    steps: int
    lr: float = 1e-2
    objective: str = OBJECTIVE_OT
    include_reverse_sites: bool = False

    def __post_init__(self):
        if self.steps < 0:
            raise ConfigError(f"steps must be >= 0, got {self.steps}")
        if not 0 <= self.lr < np.inf:
            raise ConfigError(f"lr must be finite and >= 0, got {self.lr}")
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
    under the starting table, which makes the distillation term a pure
    student-side objective within a step. Legs are stacked by site and
    shape into parts, and all parts of one leg shape are solved as one
    stack. :meth:`evaluate` reads the matching losses from the gold
    columns of one :meth:`~otmel.matching.Scorer.score_grid`, and the
    distillation term from one :func:`kd_pair_loss` per logits shape,
    summed over each site's legs; :func:`distill_gap` averages the same
    per-leg terms instead.
    Leading probe axes on a table entry's matrices give a row of arrays
    over them, each equal, bit for bit, to the row under that probe alone.
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
        # Each part is one site's legs of one shape: (site, leg indices, dst, src).
        self._parts = []
        self._order = {}
        for site in dict.fromkeys(self.kd_sites):
            legs = self._legs(site, golds)
            by_shape = _groups([(dst.rows, src.rows) for dst, src in legs])
            for ks in by_shape:
                dst = np.stack([legs[k][0].data for k in ks])
                src = np.stack([legs[k][1].data for k in ks])
                self._parts.append((site, ks, dst, src))
            # The order that takes the site's concatenated parts back to leg order.
            self._order[site] = np.argsort(np.concatenate(by_shape))
        self._teachers = [None] * len(self._parts)
        shapes = [(dst.shape[1], src.shape[1]) for *_, dst, src in self._parts]
        for group in _groups(shapes):
            parts = [self._parts[p] for p in group]
            plans = assignment_stack(
                (
                    assignment_scores(*project(dst, src, table[site])[:2], OT)
                    for site, _, dst, src in parts
                ),
                OT,
                run.sinkhorn_config(),
            )
            cuts = np.cumsum([len(legs) for _, legs, *_ in parts])[:-1]
            for p, plan in zip(group, np.split(plans, cuts)):
                self._teachers[p] = plan

    def _legs(self, site, golds) -> list[tuple[FeatureMatrix, FeatureMatrix]]:
        """The (destination, source) matrices of each of ``site``'s legs.

        Cross-modal sites have one leg per record (each distinct gold
        once); unimodal sites one per mention/gold pair.
        """
        dst_kind, dst, src_kind, src = SITE_LEGS[site]
        if dst_kind == src_kind:
            records = self.mentions if dst_kind == "mention" else self.entities
            pairs = zip(records, records)
        elif dst_kind == "mention":
            pairs = zip(self.mentions, golds)
        else:
            pairs = zip(golds, self.mentions)
        return [(getattr(d, dst), getattr(s, src)) for d, s in pairs]

    def _kd(self, table, gradient: bool):
        """Each distilled site's terms under ``table``, one per leg in leg order.

        The terms' last axis runs over the legs, after any probe axes.
        Also, per part, its (Q, K) and, with ``gradient``, the term's
        gradient by its logits.
        """
        qk = [
            (dst @ table[site].w_q, src @ table[site].w_k)
            for site, _, dst, src in self._parts
        ]
        logits = [attention_logits(q, k) for q, k in qk]
        terms, d_logits = [None] * len(logits), [None] * len(logits)
        for group in _groups([x.shape[:-3] + x.shape[-2:] for x in logits]):
            stacked = np.concatenate([logits[p] for p in group], axis=-3)
            teachers = np.concatenate([self._teachers[p] for p in group])
            teachers = np.broadcast_to(teachers, stacked.shape)
            cuts = np.cumsum([logits[p].shape[-3] for p in group])[:-1]
            losses = kd_pair_loss(teachers, stacked)
            for p, term in zip(group, np.split(losses, cuts, axis=-1)):
                terms[p] = term
            if gradient:
                d_stacked = _kd_grad(teachers, stacked)
                for p, d in zip(group, np.split(d_stacked, cuts, axis=-3)):
                    d_logits[p] = d
        by_site = {
            site: np.concatenate(
                [term for (s, *_), term in zip(self._parts, terms) if s == site], axis=-1
            )[..., order]
            for site, order in self._order.items()
        }
        return by_site, list(zip(qk, d_logits))

    def evaluate(self, table: ProjectionTable, gradient: bool = False):
        """The row under ``table`` and, with ``gradient``, its total's gradient.

        Teachers are held from the start, and both come from one
        :meth:`~otmel.matching.Scorer.score_grid`. The gradient (None
        without ``gradient``) is exact under either mechanism; a transport
        plan is differentiated at its fixed point (:func:`_cost_grad`). It
        maps each site the objective reads (the scoring sites and the
        distilled ones) to the derivatives by its ``w_q``, ``w_k`` and
        ``w_h``. The reverse pass recomputes the assignments it needs,
        stacked by shape, and takes the max pool's subgradient at numpy's
        argmax row.
        """
        scorer = Scorer(table, self.run)
        grid = scorer.score_grid(self.mentions, self.entities)

        def loss(scores, used=True):
            return contrastive_loss(scores[..., self._gold_slots]) if used else 0.0

        l_f = loss(grid.s_f, scorer.uses_fused)
        l_t = loss(grid.s_t, scorer.uses_unimodal)
        l_v = loss(grid.s_v, scorer.uses_unimodal)
        l_o = loss(grid.s_o)
        kd_terms, kd_backward = self._kd(table, gradient)
        l_kd = 0.0
        for site in self.kd_sites:
            # Left to right in leg order, as a loop over the legs adds.
            kd = np.cumsum(kd_terms[site], axis=-1)[..., -1]
            l_kd = l_kd + (float(kd) if kd.ndim == 0 else kd)
        row = TraceRow(
            step=0,
            l_f=l_f,
            l_t=l_t,
            l_v=l_v,
            l_o=l_o,
            l_kd=l_kd,
            total=l_o + l_f + l_t + l_v + l_kd,
        )
        if not gradient:
            return row, None
        grads = {
            site: np.zeros((3, table[site].dim, table[site].dim))
            for site in dict.fromkeys(PIPELINE_SITES + self.kd_sites)
        }
        # Each kept score's gradient: its own loss, and its share of s_o's,
        # taken on the gold columns and scattered back onto the grid.
        slots = self._gold_slots
        scatter = np.eye(len(self.entities))[slots]
        kinds = (
            (grid.s_f, scorer.uses_fused),
            (grid.s_t, scorer.uses_unimodal),
            (grid.s_v, scorer.uses_unimodal),
        )
        d_o = _contrastive_grad(grid.s_o[:, slots]) / sum(on for _, on in kinds)
        d_f, d_t, d_v = (
            (_contrastive_grad(s[:, slots]) + d_o) @ scatter if on else None
            for s, on in kinds
        )
        if d_f is not None:
            # s_f is the product of mention and entity pooled vectors.
            m = len(self.mentions)
            records = self.mentions + self.entities
            pooled = np.array([scorer.pooled(r) for r in records])
            d_pooled = np.concatenate(
                [np.tensordot(d_f, pooled[m:], 1), np.tensordot(d_f.T, pooled[:m], 1)]
            )
            shapes = [(type(r), r.text.data.shape, r.visual.data.shape) for r in records]
            for group in _groups(shapes):
                for slot, site in enumerate(record_sites(records[group[0]])):
                    _, dst, _, src = SITE_LEGS[site]
                    x = np.array([getattr(records[r], dst).data for r in group])
                    y = np.array([getattr(records[r], src).data for r in group])
                    grads[site] += _transported_grads(
                        x, y, table[site], d_pooled[group, slot], self.run, pooled_with=x
                    )
        if d_t is not None:
            for site, d_s in zip(UNIMODAL_SITES, (d_t, d_v)):
                _, e_attr, _, m_attr = SITE_LEGS[site]
                pairs = [
                    (getattr(e, e_attr), getattr(mention, m_attr), d_s[i, u])
                    for i, mention in enumerate(self.mentions)
                    for u, e in enumerate(self.entities)
                ]
                for group in _groups([(e.rows, x.rows) for e, x, _ in pairs]):
                    e, x, d = zip(*(pairs[p] for p in group))
                    # d s / d pooled is half the entity's summary row.
                    t_e = np.array([side.summary for side in e])
                    grads[site] += _transported_grads(
                        np.array([side.data for side in e]),
                        np.array([side.data for side in x]),
                        table[site],
                        0.5 * np.array(d)[:, None] * t_e,
                        self.run,
                    )
        for (site, _, dst, src), ((q, k), d_logits) in zip(self._parts, kd_backward):
            grads[site][:2] += _logit_grads(dst, src, q, k, d_logits)
        return row, {site: dict(zip(_MATRIX_NAMES, g)) for site, g in grads.items()}

    def row(self, table: ProjectionTable) -> TraceRow:
        """Every loss component under ``table``, with teachers held from the start."""
        return self.evaluate(table)[0]

    def gradient(self, table: ProjectionTable) -> dict[AssignmentSite, dict]:
        """The exact gradient of ``row(table).total``."""
        return self.evaluate(table, gradient=True)[1]


def _softmax(x: np.ndarray, axis: int) -> np.ndarray:
    return np.exp(_log_softmax(x, axis))


def _contrastive_grad(scores: np.ndarray) -> np.ndarray:
    """d :func:`contrastive_loss` / d scores of one square matrix."""
    return (_softmax(scores, -1) - np.eye(len(scores))) / len(scores)


def _kd_grad(plans: np.ndarray, logits: np.ndarray) -> np.ndarray:
    """d :func:`kd_pair_loss` / d logits, one slice per stacked pair."""
    return 0.5 * sum(_softmax(logits, a) - _softmax(plans, a) for a in (-1, -2))


def _pool_grad(x: np.ndarray, d_out: np.ndarray, kind: str) -> np.ndarray:
    """d loss / d x from d loss / d ``matching._pool(x, kind)``, over stacked x."""
    d_out = d_out[..., None, :]
    if kind == POOL_MEAN:
        return np.broadcast_to(d_out / x.shape[-2], x.shape)
    if kind == POOL_MAX:
        top = x.argmax(axis=-2)[..., None, :]
        return d_out * (np.arange(x.shape[-2])[:, None] == top)
    w = _softmax(x, -2)
    return d_out * w * (1.0 + x - (w * x).sum(axis=-2, keepdims=True))


def _contract(x: np.ndarray, d_y: np.ndarray) -> np.ndarray:
    """d loss / d W of ``y = x @ W`` summed over the stacked problems."""
    return x.reshape(-1, x.shape[-1]).T @ d_y.reshape(-1, d_y.shape[-1])


def _logit_grads(dst, src, q, k, d_logits) -> tuple[np.ndarray, np.ndarray]:
    """d loss / d ``w_q`` and ``w_k`` from d loss / d the attention logits."""
    d_logits = d_logits / np.sqrt(q.shape[-1])
    return _contract(dst, d_logits @ k), _contract(src, d_logits.swapaxes(-1, -2) @ q)


def _cost_grad(plan: np.ndarray, d_plan: np.ndarray, sharpness: float) -> np.ndarray:
    """d loss / d C of stacked transport plans from d loss / d P, at the fixed point.

    Implicit differentiation (Eisenberger et al., CVPR 2022): with G the
    plan's gradient and mu, nu its row and column sums, ``[alpha; beta]``
    solves ``[[diag mu, P], [P^T, diag nu]] [alpha; beta] = [(G*P)1; (G*P)^T 1]``
    with ``beta_m = 0`` (:func:`~otmel.ot._dual_system`, the system the
    solver's Newton steps solve), and
    ``dL/dC = -sharpness * P * (G - alpha 1^T - 1 beta^T)``.
    An unconverged solve gets the formula at the plan it returned. The
    system is solved by pseudo-inverse: where underflow splits a plan's
    support into blocks, each block has a gauge of its own, and any
    solution gives the same gradient.
    """
    n = plan.shape[-2]
    system = _dual_system(plan, plan.sum(axis=-1), plan.sum(axis=-2))
    gp = d_plan * plan
    rhs = np.concatenate([gp.sum(axis=-1), gp.sum(axis=-2)], axis=-1)
    inverse = np.linalg.pinv(system, hermitian=True)
    dual = np.zeros(rhs.shape)
    dual[..., :-1] = (inverse @ rhs[..., :-1, None])[..., 0]
    return -sharpness * plan * (d_plan - dual[..., :n, None] - dual[..., None, n:])


def _cosine_grads(q, k, d_cost) -> tuple[np.ndarray, np.ndarray]:
    """d loss / d Q and K from d loss / d :func:`cosine_cost`; flat where clipped."""
    qn = np.linalg.norm(q, axis=-1, keepdims=True)
    kn = np.linalg.norm(k, axis=-1, keepdims=True)
    cos = (q @ k.swapaxes(-1, -2)) / (qn * kn.swapaxes(-1, -2))
    d_cos = np.where(np.abs(cos) <= 1.0, -0.5 * d_cost, 0.0)
    q_hat, k_hat, weight = q / qn, k / kn, d_cos * cos
    d_q = (d_cos @ k_hat - weight.sum(axis=-1)[..., None] * q_hat) / qn
    d_k = (d_cos.swapaxes(-1, -2) @ q_hat - weight.sum(axis=-2)[..., None] * k_hat) / kn
    return d_q, d_k


def _transported_grads(dst, src, proj, d_pooled, run, pooled_with=None) -> np.ndarray:
    """The three matrices' gradients through pooled transported features.

    ``dst`` and ``src`` are ``(B, n, d)`` and ``(B, m, d)`` stacks of
    assignment problems under ``run.mechanism``; each problem's
    transported rows are pooled, after its rows of ``pooled_with`` if
    given, into a vector whose gradient is that problem's row of
    ``d_pooled``.
    """
    q, k, h = project(dst, src, proj)
    a = assignment_stack(
        [assignment_scores(q, k, run.mechanism)], run.mechanism, run.sinkhorn_config()
    )
    g = a @ h
    x = g if pooled_with is None else np.concatenate([pooled_with, g], axis=-2)
    d_g = _pool_grad(x, d_pooled, run.pool)[..., -g.shape[-2]:, :]
    d_a = d_g @ h.swapaxes(-1, -2)
    d_h = a.swapaxes(-1, -2) @ d_g
    if run.mechanism == OT:
        d_q, d_k = _cosine_grads(q, k, _cost_grad(a, d_a, run.sharpness))
        d_qk = _contract(dst, d_q), _contract(src, d_k)
    else:
        d_logits = a * (d_a - (d_a * a).sum(axis=-1, keepdims=True))
        d_qk = _logit_grads(dst, src, q, k, d_logits)
    return np.array([*d_qk, _contract(src, d_h)])


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


def fd_gradient(
    dataset: Dataset,
    table: ProjectionTable,
    train: ToyTrainConfig,
    run: RunConfig | None = None,
    coords=None,
    step: float = 1e-4,
) -> dict[tuple[AssignmentSite, str, int, int], float]:
    """Central-difference gradient of the training objective, step ``step``.

    ``coords`` limits the computation to selected
    (site, matrix name, row, column) entries; by default every entry of
    every trainable site is probed. The K probed entries of one
    (site, matrix) make one ``(2K, 1, d, d)`` stack of it, ``+step`` at each
    entry and then ``-step``, scored in one objective evaluation; the unit
    axis broadcasts over the site's stacked legs. It is the reference
    the trainer's exact gradient is tested against.
    """
    if not step > 0:
        raise ConfigError(f"step must be positive, got {step}")
    run = _training_run(run, train.objective)
    _guard_sizes(dataset, table)
    state = _objective_state(dataset, table, train, run)
    if coords is None:
        coords = [
            (site, name, i, j)
            for site in train.trainable_sites()
            for name in _MATRIX_NAMES
            for i in range(table[site].dim)
            for j in range(table[site].dim)
        ]
    by_matrix: dict[tuple, list] = {}
    for coord in coords:
        by_matrix.setdefault(coord[:2], []).append(coord)
    grads = {}
    for (site, name), group in by_matrix.items():
        _, _, i, j = zip(*group)
        k = np.arange(len(group))
        probes = np.repeat(getattr(table[site], name)[None, None], 2 * k.size, axis=0)
        probes[k, 0, i, j] += step
        probes[k + k.size, 0, i, j] -= step
        total = state.row({**table, site: table[site].replace(**{name: probes})}).total
        up, down = np.broadcast_to(total, probes.shape[:1]).reshape(2, -1)
        grads.update(zip(group, ((up - down) / (2.0 * step)).tolist()))
    return grads


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
    """Plain gradient descent on the projection tables.

    The ``ot`` objective is the matching loss with transport-based
    assignments; the ``kd`` objective scores with attention and adds the
    distillation term. Its teacher plans are solved again at the start of
    each step, every site's legs of one shape in one stack, and held
    constant within it. Each step descends the exact gradient of
    :meth:`_BatchObjective.evaluate`, whose one scoring of the batch also
    gives the step's trace row. Returns the trained table and one trace
    row per step (row 0 is the starting point). Deterministic.
    """
    run = _training_run(run, train.objective)
    _guard_sizes(dataset, table)

    state = _objective_state(dataset, table, train, run)
    trace = []
    for step in range(train.steps):
        row, grads = state.evaluate(table, gradient=True)
        trace.append(replace(row, step=step))
        table = {
            **table,
            **{
                site: table[site].replace(**{
                    name: getattr(table[site], name) - train.lr * grads[site][name]
                    for name in _MATRIX_NAMES
                })
                for site in train.trainable_sites()
            },
        }
        state = _objective_state(dataset, table, train, run)
    trace.append(replace(state.row(table), step=train.steps))
    return table, trace
