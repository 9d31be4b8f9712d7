"""Per-leg reference for the distillation terms.

The library computes every distillation term through the ``kd``
objective's stacked path (``otmel.objectives._BatchObjective``). The tests
check it against this one, which enumerates each site's legs on its own
and solves every leg as a lone 2-D Sinkhorn problem.
"""

from typing import NamedTuple

import numpy as np

from otmel.config import RunConfig
from otmel.correlation import (
    PIPELINE_SITES,
    SITE_LEGS,
    AssignmentSite,
    ProjectionTable,
    attention_logits,
    cosine_cost,
    project,
)
from otmel.ot import Marginals, sinkhorn
from otmel.types import FeatureMatrix


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
