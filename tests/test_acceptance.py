"""End-to-end acceptance checks, one test per criterion.

Each test prints a single PASS/FAIL line (visible with ``pytest -s``)
before asserting, so a full run yields one status line per criterion.
Criteria with stated wall-clock budgets assert them too.
"""

import struct
import time

import numpy as np
import pytest

from otmel.config import RunConfig
from otmel.correlation import (
    AssignmentSite,
    attention_assign,
    default_projections,
    identity_projections,
    ot_assign,
)
from otmel.data_io import read_feature_file, write_feature_file
from otmel.errors import (
    BadMagicError,
    NonFinitePayloadError,
    TruncatedPayloadError,
    UnsupportedVersionError,
)
from otmel.evaluation import RankingResult, hits_at_k, mrr, rank_all
from otmel.fixtures import FixtureSpec, correspondence_recovery, make_dataset
from otmel.matching import Scorer
from otmel.objectives import (
    TRAINING_TOL,
    ToyTrainConfig,
    batch_loss_report,
    contrastive_loss,
    distill_gap,
    distill_pairs,
    fd_gradient,
    kd_pair_loss,
    toy_train,
)
from otmel.ot import (
    CostMatrix,
    Marginals,
    SinkhornConfig,
    exact_ot_uniform_square,
    plan_entropy,
    sinkhorn,
    transport_cost,
)
from otmel.types import FeatureMatrix, ProjectionSet


def report(number, ok, summary):
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} - {summary}")


SHARPNESS_GRID = (0.05, 0.1, 0.3, 0.6, 1, 3, 10, 50)


def test_criterion_01_sinkhorn_feasibility():
    rng = np.random.default_rng(2024)
    sharpness_cycle = (0.1, 0.6, 5, 50)
    start = time.monotonic()
    worst = 0.0
    unconverged = 0
    for i in range(1000):
        n = int(rng.integers(1, 65))
        m = int(rng.integers(1, 65))
        cost = CostMatrix(rng.random((n, m)))
        mu = rng.random(n) + 1e-3
        nu = rng.random(m) + 1e-3
        marginals = Marginals(mu / mu.sum(), nu / nu.sum())
        plan = sinkhorn(
            cost, marginals, SinkhornConfig(sharpness=sharpness_cycle[i % 4])
        )
        if not plan.converged:
            unconverged += 1
            continue
        err = (
            np.abs(plan.data.sum(axis=1) - marginals.mu).sum()
            + np.abs(plan.data.sum(axis=0) - marginals.nu).sum()
        )
        worst = max(worst, err)
    elapsed = time.monotonic() - start
    ok = worst < 1e-6 and elapsed < 30.0
    report(
        1,
        ok,
        f"1000 solves, worst converged marginal error {worst:.3e}, "
        f"{unconverged} unconverged, {elapsed:.1f}s",
    )
    assert worst < 1e-6
    assert elapsed < 30.0


def test_criterion_02_oracle_equivalence():
    rng = np.random.default_rng(7)
    start = time.monotonic()
    diffs = []
    unconverged = 0
    worst_error = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 7))
        cost = CostMatrix(rng.random((n, n)))
        plan = sinkhorn(
            cost,
            Marginals.uniform(n, n),
            SinkhornConfig(sharpness=50, tol=1e-10, max_iter=2500),
        )
        if not plan.converged:
            unconverged += 1
            worst_error = max(worst_error, plan.achieved_marginal_error)
        exact = exact_ot_uniform_square(cost)
        diffs.append(transport_cost(cost, plan) - transport_cost(cost, exact))
    elapsed = time.monotonic() - start
    diffs = np.array(diffs)
    ok = diffs.max() < 1e-2 and diffs.min() >= -1e-12 and elapsed < 10.0
    report(
        2,
        ok,
        f"cost-minus-optimum in [{diffs.min():.3e}, {diffs.max():.3e}], "
        f"{unconverged} unconverged (worst marginal error {worst_error:.1e}), "
        f"{elapsed:.1f}s",
    )
    assert elapsed < 10.0
    assert diffs.max() < 1e-2
    # Every returned plan is rounded onto the uniform marginals, so it is
    # feasible even when scaling stopped early, and no feasible plan costs
    # less than the exact optimum.
    assert diffs.min() >= -1e-12, (
        f"transport cost undershoots the exact optimum by {-diffs.min():.3e} "
        f"({unconverged}/200 solves stopped at marginal error up to "
        f"{worst_error:.1e} within the time budget)"
    )


def test_criterion_03_entropy_sweep_and_recovery():
    table = identity_projections(24)
    proj = table[AssignmentSite.MENTION_VISUAL_TO_TEXT]
    recovery = {s: [] for s in SHARPNESS_GRID}
    entropy_monotone = True
    for seed in range(1, 13):
        spec = FixtureSpec(
            seed=seed, d=24, n_entities=4, n_mentions=10,
            text_len=7, visual_len=7, noise_sigma=0.875,
        )
        dataset, truth = make_dataset(spec)
        for mention in dataset.mentions:
            entropies = []
            for sharpness in SHARPNESS_GRID:
                result = ot_assign(
                    mention.text,
                    mention.visual,
                    proj,
                    SinkhornConfig(sharpness=sharpness, tol=1e-9, max_iter=4000),
                )
                entropies.append(plan_entropy(result.plan))
                recovery[sharpness].append(
                    correspondence_recovery(result.a, truth[mention.id])
                )
            if any(a < b - 1e-12 for a, b in zip(entropies, entropies[1:])):
                entropy_monotone = False
    means = {s: float(np.mean(recovery[s])) for s in SHARPNESS_GRID}
    low, high = means[SHARPNESS_GRID[0]], means[SHARPNESS_GRID[-1]]
    interior = max(means[s] for s in SHARPNESS_GRID[1:-1])
    ok = entropy_monotone and interior > low and interior > high
    report(
        3,
        ok,
        f"entropy monotone={entropy_monotone}, recovery ends "
        f"({low:.4f}, {high:.4f}), best interior {interior:.4f}",
    )
    assert entropy_monotone
    assert interior > low and interior > high


def test_criterion_04_anti_domination_witness():
    d = 6
    rng = np.random.default_rng(0)
    z = np.zeros(d)
    z[0] = 1.0
    queries = np.tile(8.0 * z, (5, 1)) + 0.01 * rng.standard_normal((5, d))
    keys = 0.3 * rng.standard_normal((4, d))
    keys[2] = 8.0 * z  # the duplicated dominant key
    eye = np.eye(d)
    proj = ProjectionSet(eye, eye, eye)
    attention = attention_assign(queries, keys, proj)
    transport = ot_assign(queries, keys, proj)
    att_share = attention.a.sum(axis=0).max() / attention.a.sum()
    ot_mass = transport.a.sum(axis=0).max()
    ok = att_share > 0.9 and ot_mass <= 1 / 4 + 1e-6
    report(
        4,
        ok,
        f"attention mass share {att_share:.3f} vs transport column mass "
        f"{ot_mass:.6f} (cap {1 / 4:.6f})",
    )
    assert att_share > 0.9
    assert ot_mass <= 1 / 4 + 1e-6


def test_criterion_05_distillation_efficacy():
    start = time.monotonic()
    d = 8
    train_ds, _ = make_dataset(
        FixtureSpec(seed=11, d=d, n_entities=4, n_mentions=4, text_len=4,
                    visual_len=4, noise_sigma=0.3)
    )
    held_ds, _ = make_dataset(
        FixtureSpec(seed=99, d=d, n_entities=4, n_mentions=4, text_len=4,
                    visual_len=4, noise_sigma=0.3)
    )
    table = default_projections(d, seed=0, scale=2.0)
    run = RunConfig(tol=1e-9)
    before = float(np.mean(list(distill_gap(held_ds, table, run).values())))
    trained, _ = toy_train(
        train_ds, table, ToyTrainConfig(steps=40, lr=2.0, objective="kd")
    )
    after = float(np.mean(list(distill_gap(held_ds, trained, run).values())))
    elapsed = time.monotonic() - start
    ok = after <= 0.5 * before and elapsed < 300.0
    report(
        5,
        ok,
        f"held-out mean divergence {before:.5f} -> {after:.5f} "
        f"({after / before:.2%} of untrained), {elapsed:.0f}s",
    )
    assert elapsed < 300.0
    assert after <= 0.5 * before


def test_criterion_06_planted_linking_accuracy():
    # Noiseless: exact top-1 everywhere.
    table = identity_projections(24)
    for seed in (3, 17):
        spec = FixtureSpec(seed=seed, d=24, n_entities=20, n_mentions=6,
                           noise_sigma=0.0)
        dataset, _ = make_dataset(spec)
        results = rank_all(dataset.mentions, dataset.entities, Scorer(table, RunConfig()))
        assert hits_at_k(results, 1) == 1.0

    # Noisy: transport-based assignment at least matches attention on average.
    h1 = {"ot": [], "attention": []}
    for seed in range(1, 21):
        spec = FixtureSpec(
            seed=seed, d=24, n_entities=20, n_mentions=6, text_len=5,
            visual_len=5, noise_sigma=0.5, latent_scale=0.35, slot_scale=1.2,
        )
        dataset, _ = make_dataset(spec)
        for mechanism in h1:
            scorer = Scorer(table, RunConfig(mechanism=mechanism))
            results = rank_all(dataset.mentions, dataset.entities, scorer)
            h1[mechanism].append(hits_at_k(results, 1))
    ot_mean = float(np.mean(h1["ot"]))
    att_mean = float(np.mean(h1["attention"]))
    ok = ot_mean >= att_mean
    report(
        6,
        ok,
        f"noiseless H@1=100.00 exactly; noisy mean H@1 transport {ot_mean:.4f} "
        f"vs attention {att_mean:.4f} over 20 seeds",
    )
    assert ot_mean >= att_mean


def test_criterion_07_metric_units():
    results = [
        RankingResult(mention_id=f"m{r}", ordering=("x",), rank_of_gold=r)
        for r in (1, 2, 4)
    ]
    h1 = hits_at_k(results, 1)
    h3 = hits_at_k(results, 3)
    reciprocal = mrr(results)
    formatted = tuple(f"{100 * v:.2f}" for v in (h1, h3, reciprocal))
    ok = (
        h1 == pytest.approx(1 / 3, abs=1e-15)
        and h3 == pytest.approx(2 / 3, abs=1e-15)
        and reciprocal == pytest.approx(7 / 12, abs=1e-15)
        and formatted == ("33.33", "66.67", "58.33")
    )
    report(7, ok, f"ranks [1,2,4] -> H@1/H@3/MRR = {'/'.join(formatted)}")
    assert formatted == ("33.33", "66.67", "58.33")
    assert reciprocal == pytest.approx(7 / 12, abs=1e-15)


def test_criterion_08_loss_identities():
    worst_uniform = 0.0
    for b in (2, 4, 8):
        loss = contrastive_loss(np.full((b, b), 0.37))
        worst_uniform = max(worst_uniform, abs(loss - np.log(b)))

    # The reported row decomposes into losses composed from public pieces:
    # each score kind's gold-column grid, and every distilled pair.
    rng = np.random.default_rng(5)
    worst_decomp = 0.0
    for _ in range(20):
        b = int(rng.integers(2, 7))
        spec = FixtureSpec(
            seed=int(rng.integers(2**31)), d=6, n_entities=int(rng.integers(1, b)),
            n_mentions=b, text_len=int(rng.integers(2, 5)),
            visual_len=int(rng.integers(2, 5)), noise_sigma=0.3,
        )
        dataset, _ = make_dataset(spec)
        table = default_projections(6, seed=int(rng.integers(1000)), scale=1.5)
        objective = ("ot", "kd")[int(rng.integers(2))]
        run = RunConfig(
            tol=TRAINING_TOL,
            mechanism="ot" if objective == "ot" else "attention",
            ablations=frozenset(((), ("no_fusm",), ("no_unim",))[int(rng.integers(3))]),
        )
        row = batch_loss_report(dataset, table, run, objective)
        mentions = list(dataset.mentions)
        golds = [dataset.gold_of(m) for m in mentions]
        scorer = Scorer(table, run)
        grid = scorer.score_grid(mentions, golds)
        kd_sites = ToyTrainConfig(steps=0, objective=objective).distilled_sites()
        pairs = distill_pairs(mentions, golds, table, run, kd_sites)
        expected = {
            "l_f": contrastive_loss(grid.s_f) if scorer.uses_fused else 0.0,
            "l_t": contrastive_loss(grid.s_t) if scorer.uses_unimodal else 0.0,
            "l_v": contrastive_loss(grid.s_v) if scorer.uses_unimodal else 0.0,
            "l_o": contrastive_loss(grid.s_o),
            "l_kd": sum(
                kd_pair_loss(p.plan, p.logits) for ps in pairs.values() for p in ps
            ),
        }
        expected["total"] = sum(getattr(row, k) for k in expected)
        for key, value in expected.items():
            worst_decomp = max(worst_decomp, abs(getattr(row, key) - value))
    ok = worst_uniform < 1e-12 and worst_decomp < 1e-12
    report(
        8,
        ok,
        f"uniform-batch deviation {worst_uniform:.2e}, "
        f"decomposition deviation {worst_decomp:.2e}",
    )
    assert worst_uniform < 1e-12
    assert worst_decomp < 1e-12


def test_criterion_09_finite_difference_sanity():
    dataset, _ = make_dataset(
        FixtureSpec(seed=13, d=4, n_entities=2, n_mentions=2, text_len=3,
                    visual_len=3, noise_sigma=0.2)
    )
    table = default_projections(4, seed=1)
    worst = 0.0
    for objective in ("ot", "kd"):
        full = fd_gradient(
            dataset, table, ToyTrainConfig(steps=0, fd_step=1e-4, objective=objective)
        )
        top = sorted(full, key=lambda c: abs(full[c]), reverse=True)[:12]
        halved = fd_gradient(
            dataset,
            table,
            ToyTrainConfig(steps=0, fd_step=5e-5, objective=objective),
            coords=top,
        )
        for coord in top:
            a, b = full[coord], halved[coord]
            worst = max(worst, abs(a - b) / max(abs(a), abs(b)))
    ok = worst < 0.05
    report(9, ok, f"worst relative gradient change on halving {worst:.2%}")
    assert worst < 0.05


def test_criterion_10_format_round_trip(tmp_path):
    rng = np.random.default_rng(77)
    for i in range(100):
        rows = int(rng.integers(1, 20))
        cols = int(rng.integers(1, 20))
        values = (rng.standard_normal((rows, cols)) * 10).astype(np.float32)
        matrix = FeatureMatrix(values.astype(np.float64))
        first = tmp_path / f"m{i}.otml"
        second = tmp_path / f"m{i}b.otml"
        write_feature_file(matrix, first)
        loaded = read_feature_file(first)
        np.testing.assert_array_equal(loaded.data, matrix.data)
        write_feature_file(loaded, second)
        assert first.read_bytes() == second.read_bytes()

    bad = tmp_path / "bad.otml"
    cases = [
        (struct.pack("<4sIII", b"XXXX", 1, 1, 1) + b"\x00" * 4, BadMagicError),
        (struct.pack("<4sIII", b"OTML", 3, 1, 1) + b"\x00" * 4, UnsupportedVersionError),
        (struct.pack("<4sIII", b"OTML", 1, 2, 2) + b"\x00" * 8, TruncatedPayloadError),
        (
            struct.pack("<4sIII", b"OTML", 1, 1, 1) + struct.pack("<f", float("inf")),
            NonFinitePayloadError,
        ),
    ]
    for blob, error in cases:
        bad.write_bytes(blob)
        with pytest.raises(error):
            read_feature_file(bad)
    report(10, True, "100 round trips byte-identical, 4 malformed headers rejected")
