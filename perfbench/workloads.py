"""The benchmark's workloads, the checks on their outputs and their metrics.

Every workload runs the same three phases on its own inputs, in rounds,
until the requested time has passed:

* train: one ``toy_train`` call (kd objective, criterion-5 shape) from
  the same seeded starting table, so every round repeats the same steps;
* batch: one ``rank_all`` over every mention, called the way ``otmel link``
  calls it with default flags (``threads=0`` resolves to the core count);
* online: a closed loop with one client that ranks each mention alone
  against a catalog warmed in set-up.

An operation is a ranked mention (batch or online) or a training step; it
fails if it raises or fails a check. Inputs come only from the seed.
"""

from __future__ import annotations

import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import otmel
import tracing

TRAIN_FIXTURE = dict(
    d=8, n_entities=4, n_mentions=4, text_len=4, visual_len=4, noise_sigma=0.3
)
# Noisy planted fixtures on which MRR is not saturated but steady across seeds.
RANK_NOISE = dict(noise_sigma=1.0, latent_scale=0.45, slot_scale=1.2)
LINK_SHAPE = dict(d=64, text_len=12, visual_len=12)
TRAIN_LR = 2.0
TRAIN_PROJECTION_SCALE = 2.0
TRAIN_TOL = 1e-9


@dataclass(frozen=True)
class Workload:
    """One workload's inputs and run settings.

    ``sharpness`` applies to ranking solves. Ranking uses identity
    projections, as ``otmel link`` does by default; training always runs
    criterion 5's set-up, whose teachers use the default sharpness.
    """

    rank_fixture: dict
    mechanism: str
    sharpness: float
    steps: int
    held_out: int = 5
    train_fixture: dict = field(default_factory=lambda: dict(TRAIN_FIXTURE))


WORKLOADS = {
    # Per-pair Python overhead dominates: solves converge in about 2 iterations.
    "link-ot": Workload(
        rank_fixture={**RANK_NOISE, **LINK_SHAPE, "n_entities": 32, "n_mentions": 128},
        mechanism="ot",
        sharpness=0.6,
        steps=1,
    ),
    # Inside the recovery plateau of criterion 3: Sinkhorn dominates ranking
    # and has a slow-convergence tail.
    "link-sharp": Workload(
        rank_fixture={**RANK_NOISE, **LINK_SHAPE, "n_entities": 16, "n_mentions": 100},
        mechanism="ot",
        sharpness=30.0,
        steps=1,
    ),
    # Finite-difference probes over attention dominate, and ranking is by
    # attention, so no ranking solve runs at all. Attention ranks link-ot's
    # inputs almost perfectly; a weaker latent keeps its MRR unsaturated.
    "train-kd": Workload(
        rank_fixture={
            **RANK_NOISE, **LINK_SHAPE, "latent_scale": 0.3,
            "n_entities": 32, "n_mentions": 128,
        },
        mechanism="attention",
        sharpness=0.6,
        steps=4,
    ),
}


def small(workload: Workload) -> Workload:
    """A shrunken copy of a workload for quick runs of the benchmark's own tests."""
    shape = dict(d=4, text_len=3, visual_len=3)
    return replace(
        workload,
        rank_fixture={**workload.rank_fixture, **shape, "n_entities": 3, "n_mentions": 6},
        train_fixture={**workload.train_fixture, **shape, "n_entities": 2, "n_mentions": 2},
        steps=1,
        held_out=1,
    )


def tail_percentile(samples: int, ladder=(50, 90, 99, 99.9)) -> float | None:
    """The highest percentile of ``ladder`` with at least 10 samples beyond it."""
    best = None
    for p in ladder:
        if samples * (100 - p) / 100 >= 10 - 1e-9:
            best = p
    return best


def import_seconds(root: Path) -> float:
    """Wall time of ``import otmel`` in a fresh interpreter."""
    code = (
        "import time; t = time.perf_counter(); import otmel; "
        "print(time.perf_counter() - t); print(otmel.__file__)"
    )
    src = root / "src"
    out = subprocess.run(
        [sys.executable, "-c", code],
        cwd=root,
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    ).stdout.split("\n")
    if not Path(out[1]).resolve().is_relative_to(src.resolve()):
        raise RuntimeError(f"imported otmel from {out[1]}, not from {src}")
    return float(out[0])


def _attempt(fn, *args):
    """Call ``fn``; if it raises, report the traceback and return None.

    The caller counts the operation as failed and the run goes on.
    """
    try:
        return fn(*args)
    except Exception:
        traceback.print_exc()
        return None


def _plan_failures(plans, tol: float) -> int:
    """Plans reported as converged whose marginal error is not below ``tol``."""
    return sum(1 for p in plans if p.converged and not p.achieved_marginal_error < tol)


def _interaction_plans(record, table, solver):
    inter = otmel.interact_record(record, table, "ot", solver)
    return [inter.v2t.plan, inter.t2v.plan]


class Run:
    """A workload's inputs on disk, and the outcomes of its rounds."""

    def __init__(self, workload: Workload, seed: int, root: Path, work_dir: Path):
        self.w = workload
        self.root = root
        seeds = [int(s) for s in np.random.default_rng(seed).integers(0, 2**31 - 1, 3 + workload.held_out)]
        gen = otmel.generate_fixtures
        self.rank_manifest = gen(otmel.FixtureSpec(seed=seeds[0], **workload.rank_fixture), work_dir / "rank")
        self.train_manifest = gen(otmel.FixtureSpec(seed=seeds[1], **workload.train_fixture), work_dir / "train")
        self.held_manifests = [
            gen(otmel.FixtureSpec(seed=s, **workload.train_fixture), work_dir / f"held{i}")
            for i, s in enumerate(seeds[3:])
        ]
        self.table0 = otmel.default_projections(
            workload.train_fixture["d"], seed=seeds[2], scale=TRAIN_PROJECTION_SCALE
        )
        self.rank_run = otmel.RunConfig(mechanism=workload.mechanism, sharpness=workload.sharpness)
        self.train_run = otmel.RunConfig(tol=TRAIN_TOL)
        self.train_config = otmel.ToyTrainConfig(steps=workload.steps, lr=TRAIN_LR, objective="kd")

        self.attempted = 0
        self.failed = 0
        self.setup_s: list[float] = []
        self.train_s: list[float] = []
        self.batch_s: list[float] = []
        self.pairs = 0
        self.latency_ms: list[list[float]] = []
        self.round_s: dict[bool, list[float]] = {False: [], True: []}
        self.first_trace = None
        self.first_batch = None
        self.mrr = None
        self.gap_ratio = None

    # -- one round ---------------------------------------------------------

    def measure(self, traced: bool):
        """Run the three phases once, timed; return what they produced."""
        w = self.w
        # One import sample per round spreads the samples over the run.
        import_s = import_seconds(self.root)
        t0 = time.perf_counter()
        rank_ds = otmel.load_manifest(self.rank_manifest)
        train_ds = otmel.load_manifest(self.train_manifest)
        load_s = time.perf_counter() - t0

        t = time.perf_counter()
        trained, trace = _attempt(
            otmel.toy_train, train_ds, self.table0, self.train_config, self.train_run
        ) or (None, None)
        train_s = time.perf_counter() - t
        table = otmel.identity_projections(rank_ds.d)
        mentions, entities = rank_ds.mentions, rank_ds.entities

        t = time.perf_counter()
        batch = _attempt(
            lambda: otmel.rank_all(
                mentions, entities, otmel.Scorer(table, self.rank_run), evaluate=True,
                threads=self.rank_run.resolved_threads(),
            )
        )
        batch_s = time.perf_counter() - t

        t = time.perf_counter()
        scorer = _attempt(self._warmed_scorer, table, entities)
        warm_s = time.perf_counter() - t
        online = {}
        latencies = []
        self.latency_ms.append(latencies)
        for m in mentions:
            t = time.perf_counter()
            online[m.id] = _attempt(otmel.rank_candidates, m, entities, scorer)
            latencies.append(1e3 * (time.perf_counter() - t))
        self.round_s[traced].append(time.perf_counter() - t0)

        self.setup_s.append(import_s + load_s + warm_s)
        self.train_s.append(train_s)
        self.batch_s.append(batch_s)
        self.pairs += len(mentions) * len(entities)
        return rank_ds, table, trace, trained, batch, online

    def _warmed_scorer(self, table, entities):
        scorer = otmel.Scorer(table, self.rank_run)
        scorer.warm(entities)
        return scorer

    def check(self, outcome) -> None:
        """Count the round's operations and the ones whose outputs are wrong."""
        rank_ds, table, trace, trained, batch, online = outcome
        self._check_train(trace, trained)
        self._check_rankings(batch, online, rank_ds, table)

    def _check_train(self, trace, trained) -> None:
        steps = self.w.steps
        self.attempted += steps
        values = None if trace is None else [
            (r.l_f, r.l_t, r.l_v, r.l_o, r.l_kd, r.total) for r in trace
        ]
        ok = values is not None and len(values) == steps + 1 and all(
            math.isfinite(v) for row in values for v in row
        )
        if ok and self.first_trace is None:
            self.first_trace = values
            ok = self._check_first_training(trained)
        elif ok:
            # Same inputs every round, so the same trace, bit for bit.
            ok = values == self.first_trace
        if not ok:
            self.failed += steps

    def _check_first_training(self, trained) -> bool:
        """Held-out gap after training is no higher than before; plans are honest."""
        before = after = 0.0
        for path in self.held_manifests:
            held = otmel.load_manifest(path)
            before += float(np.mean(list(otmel.distill_gap(held, self.table0, self.train_run).values())))
            after += float(np.mean(list(otmel.distill_gap(held, trained, self.train_run).values())))
        self.gap_ratio = after / before
        train_ds = otmel.load_manifest(self.train_manifest)
        solver = self.train_run.sinkhorn_config()
        plans = [
            p
            for record in (*train_ds.mentions, *train_ds.entities)
            for p in _interaction_plans(record, self.table0, solver)
        ]
        return after <= before and _plan_failures(plans, solver.tol) == 0

    def _check_rankings(self, batch, online, rank_ds, table) -> None:
        mentions, entities = rank_ds.mentions, rank_ds.entities
        catalog = sorted(e.id for e in entities)
        self.attempted += 2 * len(mentions)

        def valid(result, mention) -> bool:
            return (
                result is not None
                and result.mention_id == mention.id
                and sorted(result.ordering) == catalog
                and result.rank_of_gold is not None
                and 1 <= result.rank_of_gold <= len(entities)
            )

        batch_ok = batch is not None and len(batch) == len(mentions)
        if batch_ok:
            ranks = [r.rank_of_gold for r in batch]
            recomputed = math.fsum(1.0 / r for r in ranks) / len(ranks) if all(ranks) else -1.0
            batch_ok = abs(otmel.mrr(batch) - recomputed) <= 1e-12
        if not batch_ok:
            self.failed += 2 * len(mentions)
            return

        by_id = {r.mention_id: (r.ordering, r.rank_of_gold) for r in batch}
        first = self.first_batch
        if first is None:
            self.first_batch = by_id
            self.mrr = otmel.mrr(batch)
            bad_plans = self._bad_plan_mentions(rank_ds, table)
        else:
            bad_plans = set()
        for m, r in zip(mentions, batch):
            if not valid(r, m) or m.id in bad_plans or (first is not None and first.get(m.id) != by_id[m.id]):
                self.failed += 1
            o = online.get(m.id)
            if not valid(o, m) or (o.ordering, o.rank_of_gold) != by_id[m.id]:
                self.failed += 1

    def _bad_plan_mentions(self, rank_ds, table) -> set[str]:
        """Mentions with a converged-flagged plan that misses the tolerance.

        Checks the cross-modal plans of each mention and of its gold entity,
        and the two unimodal plans of the pair, as ranking computes them.
        """
        if self.w.mechanism != "ot":
            return set()
        solver = self.rank_run.sinkhorn_config()
        sites = otmel.AssignmentSite
        bad = set()
        for m in rank_ds.mentions:
            gold = rank_ds.gold_of(m)
            plans = _interaction_plans(m, table, solver) + _interaction_plans(gold, table, solver)
            for attr, site in (("text", sites.MENTION_TO_ENTITY_TEXT), ("visual", sites.MENTION_TO_ENTITY_VISUAL)):
                plans.append(otmel.ot_assign(getattr(gold, attr), getattr(m, attr), table[site], solver).plan)
            if _plan_failures(plans, solver.tol):
                bad.add(m.id)
        return bad

    # -- metrics -----------------------------------------------------------

    def end_to_end(self) -> dict[str, float]:
        """The run's end-to-end metrics.

        Per-round timings are averaged over rounds, not taken as a median:
        the speed of a 2-core box flips between two states about 1.6x apart
        for seconds at a time, and a median over rounds jumps between them
        from run to run while the mean follows the share of time in each.
        """
        if self.mrr is None or self.gap_ratio is None:
            raise RuntimeError("no ranking or training succeeded, nothing to report")
        p50, p90 = np.mean([np.percentile(lat, [50, 90]) for lat in self.latency_ms], axis=0)
        return {
            "setup_s": statistics.fmean(self.setup_s),
            "pairs_per_s": self.pairs / sum(self.batch_s),
            "mention_ms_p50": float(p50),
            "mention_ms_p90": float(p90),
            "mrr": 100.0 * self.mrr,
            "train_step_s": sum(self.train_s) / (self.w.steps * len(self.train_s)),
            "gap_ratio": self.gap_ratio,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }


# Per-layer metrics taken straight from span counts and self times.
SPAN_METRICS = {
    "data_io.load_manifest": ("self_s",),
    "data_io.read_feature_file": ("calls",),
    "types.freeze_array": ("calls", "self_s"),
    "correlation.project": ("calls", "self_s"),
    "correlation.cosine_cost": ("calls", "self_s"),
    "correlation.ot_assign": ("calls", "self_s"),
    "correlation.attention_assign": ("calls", "self_s"),
    "correlation.interact_record": ("calls",),
    "ot.sinkhorn": ("calls", "self_s"),
    "matching.Scorer.scores": ("calls", "self_s"),
    "matching.unimodal_score": ("calls", "self_s"),
    "matching.fused_score": ("calls", "self_s"),
    "matching.stack_pool": ("calls", "self_s"),
    "evaluation.rank_candidates": ("calls", "self_s"),
    "evaluation.rank_all": ("self_s",),
    "objectives.toy_train": ("self_s",),
    "objectives.kd_pair_loss": ("calls", "self_s"),
    "objectives.contrastive_loss": ("calls", "self_s"),
}


def per_layer(tracer: tracing.Tracer, rounds: int, steps: int, overhead_s: float) -> dict[str, float]:
    """Per-layer metrics of the traced rounds, each per round unless it is a ratio."""
    names = tracer.names
    name_of, parent, start, end = tracer.arrays()
    own = tracing.self_times(start, end, parent)
    calls = np.bincount(name_of, minlength=len(names))
    self_s = np.bincount(name_of, weights=own, minlength=len(names))
    out: dict[str, float] = {}
    for name, kinds in SPAN_METRICS.items():
        i = names.index(name) if name in names else None
        for kind in kinds:
            value = 0.0 if i is None else (calls[i] if kind == "calls" else self_s[i])
            out[f"{name}.{kind}"] = float(value) / rounds

    out["data_io.bytes_read"] = float(sum(
        v for sid, v in tracer.info.items() if names[name_of[sid]] == "data_io.read_feature_file"
    )) / rounds

    solves = [(sid, v) for sid, v in tracer.info.items() if names[name_of[sid]] == "ot.sinkhorn"]
    iterations = np.array([v[0] for _, v in solves], dtype=float)
    solve_s = sum(end[sid] - start[sid] for sid, _ in solves)
    total_iterations = float(iterations.sum())
    out["ot.iterations.total"] = total_iterations / rounds
    out["ot.iterations.p50"] = float(np.median(iterations)) if len(solves) else 0.0
    out["ot.iterations.max"] = float(iterations.max()) if len(solves) else 0.0
    out["ot.us_per_iteration"] = 1e6 * solve_s / total_iterations if total_iterations else 0.0
    out["ot.flops_computed"] = float(sum(4 * v[3] * v[4] * v[0] for _, v in solves)) / rounds
    out["ot.unconverged"] = float(sum(1 for _, v in solves if not v[1])) / rounds
    out["ot.worst_marginal_error"] = max((v[2] for _, v in solves), default=0.0)

    out["matching.pooled.hit_ratio"] = tracing.pooled_hit_ratio(names, name_of, parent)
    if "objectives.toy_train" in names:
        inside = tracing.under(name_of, parent, names.index("objectives.toy_train"))
        assign_ids = [names.index(n) for n in ("correlation.attention_assign", "correlation.ot_assign") if n in names]
        probes = int(np.count_nonzero(inside & np.isin(name_of, assign_ids)))
        out["objectives.assign_calls_per_step"] = probes / (rounds * steps)
    else:
        out["objectives.assign_calls_per_step"] = 0.0
    out["trace.overhead_s"] = overhead_s
    return out


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool, root: Path, work_dir: Path, spans_path: Path | None = None):
    """Run rounds for ``seconds``; return (attempted, failed, metrics, info)."""
    run = Run(workload, seed, root, work_dir)
    tracer = tracing.Tracer() if trace else None
    start = time.perf_counter()
    rounds = 0
    while True:
        traced = trace and rounds % 2 == 1
        if traced:
            with tracing.wrapped(tracer):
                outcome = run.measure(traced=True)
        else:
            outcome = run.measure(traced=False)
        run.check(outcome)
        rounds += 1
        enough = not trace or rounds >= 2
        if enough and time.perf_counter() - start >= seconds:
            break

    latencies = [x for lat in run.latency_ms for x in lat]
    info = {
        "rounds": rounds,
        "latency_samples": len(latencies),
        "latency_tail_percentile": tail_percentile(len(latencies)),
    }
    if trace:
        traced_rounds = len(run.round_s[True])
        overhead = statistics.median(run.round_s[True]) - statistics.median(run.round_s[False])
        metrics = per_layer(tracer, traced_rounds, workload.steps, overhead)
        if spans_path is not None:
            tracer.save(spans_path)
            info["spans"] = len(tracer.start)
    else:
        metrics = run.end_to_end()
        tail = info["latency_tail_percentile"]
        if tail is not None:
            info["latency_tail_ms"] = float(np.percentile(latencies, tail))
    return run.attempted, run.failed, metrics, info
