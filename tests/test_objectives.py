import itertools
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from otmel.cli import _fmt, main
from otmel.config import RunConfig
from otmel.correlation import (
    PIPELINE_SITES,
    SITE_LEGS,
    UNIMODAL_SITES,
    AssignmentSite,
    assign,
    cosine_cost,
    default_projections,
    identity_projections,
    interact_record,
    ot_assign,
)
from otmel.data_io import Dataset, load_manifest
from otmel.errors import ConfigError, DimensionError, NonFiniteError
from otmel.fixtures import FixtureSpec, generate_fixtures, make_dataset
from otmel.matching import Scorer
from otmel.objectives import (
    TRAINING_TOL,
    ToyTrainConfig,
    _BatchObjective,
    _cosine_grads,
    _cost_grad,
    _training_run,
    batch_loss_report,
    contrastive_loss,
    distill_gap,
    fd_gradient,
    kd_pair_loss,
    toy_train,
)
from otmel.ot import Marginals, SinkhornConfig, sinkhorn_stack
from otmel.types import EntityRecord, FeatureMatrix, MentionRecord

from conftest import make_record
from reference import distill_pairs


def kd_oracle(plan, logits):
    """Extended-precision row+column KL evaluation."""
    plan = np.asarray(plan, float)
    logits = np.asarray(logits, float)

    def softmax(vec):
        exps = [mp.e ** mp.mpf(x) for x in vec]
        total = mp.fsum(exps)
        return [x / total for x in exps]

    def directed(p_mat, q_mat):
        total = mp.mpf(0)
        for p_vec, q_vec in zip(p_mat, q_mat):
            ps, qs = softmax(p_vec), softmax(q_vec)
            total += mp.fsum(p * mp.log(p / q) for p, q in zip(ps, qs))
        return total

    with mp.workdps(50):
        rows = directed(plan, logits)
        cols = directed(plan.T, logits.T)
        return float((rows + cols) / 2)


class TestContrastiveLoss:
    def test_single_pair_zero(self):
        assert contrastive_loss(np.array([[3.7]])) == 0.0

    def test_uniform_scores_log_b(self):
        for b in (2, 4, 8):
            scores = np.full((b, b), 1.23)
            assert contrastive_loss(scores) == pytest.approx(np.log(b), abs=1e-12)

    def test_strong_diagonal_closed_form(self):
        # Frozen from extended precision: log(1 + 3 e^-10).
        scores = np.full((4, 4), 0.0) + np.diag(np.full(4, 10.0))
        expected = 0.00013619051493825362849
        assert contrastive_loss(scores) == pytest.approx(expected, rel=1e-12)

    def test_row_shift_invariance(self, rng):
        scores = rng.standard_normal((5, 5)) * 3
        shifted = scores + rng.standard_normal((5, 1)) * 10
        assert contrastive_loss(shifted) == pytest.approx(
            contrastive_loss(scores), abs=1e-9
        )

    def test_nonnegative(self, rng):
        for _ in range(50):
            assert contrastive_loss(rng.standard_normal((4, 4)) * 5) >= 0.0

    def test_non_square_rejected(self, rng):
        with pytest.raises(DimensionError):
            contrastive_loss(rng.standard_normal((3, 4)))


class TestKdLoss:
    def test_matched_distributions_zero(self, rng):
        plan = rng.random((3, 4)) + 0.1
        assert kd_pair_loss(plan, plan.copy()) == pytest.approx(0.0, abs=1e-12)

    def test_one_hot_logits_vs_uniform_plan(self):
        # 1x2 shape: column terms vanish, the row term is KL((.5,.5) || softmax(20,0)).
        plan = np.array([[0.5, 0.5]])
        logits = np.array([[20.0, 0.0]])
        frozen_row_term = 9.3068528215012083109
        got = kd_pair_loss(plan, logits)
        assert got == pytest.approx(frozen_row_term / 2, rel=1e-12)
        assert got == pytest.approx(kd_oracle(plan, logits), rel=1e-12)

    def test_matches_oracle_random(self, rng):
        plan = rng.random((3, 5))
        logits = rng.standard_normal((3, 5)) * 2
        assert kd_pair_loss(plan, logits) == pytest.approx(
            kd_oracle(plan, logits), rel=1e-10
        )

    def test_doubling_matched_logits_increases_loss(self, rng):
        # A matching student equals the plan up to a constant; doubling it
        # sharpens every softmax away from the teacher's distributions.
        plan = rng.random((4, 4)) + 0.05
        logits = plan + 1.7
        base = kd_pair_loss(plan, logits)
        doubled = kd_pair_loss(plan, 2 * logits)
        assert base == pytest.approx(0.0, abs=1e-10)
        assert doubled > base

    def test_row_constant_shift_matches_rows_only(self, rng):
        # Per-row constants align the row softmaxes but disturb the columns.
        plan = rng.random((3, 4))
        shifted = plan + rng.standard_normal((3, 1))
        lp = kd_pair_loss(plan, shifted)
        row_only = kd_oracle(plan, shifted)
        assert lp == pytest.approx(row_only, rel=1e-10)
        assert lp > 0

    def test_nonnegative(self, rng):
        for _ in range(30):
            value = kd_pair_loss(rng.random((3, 3)), rng.standard_normal((3, 3)))
            assert value >= -1e-15

    def test_shape_mismatch_rejected(self, rng):
        with pytest.raises(DimensionError):
            kd_pair_loss(rng.random((2, 3)), rng.random((3, 2)))

    def test_non_finite_rejected(self):
        with pytest.raises(NonFiniteError):
            kd_pair_loss(np.array([[np.nan]]), np.array([[0.0]]))

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        count=st.integers(1, 6),
        n=st.integers(1, 8),
        m=st.integers(1, 8),
        spread=st.sampled_from([0.1, 3.0, 40.0]),
    )
    def test_stack_matches_each_pair(self, seed, count, n, m, spread):
        rng = np.random.default_rng(seed)
        plans = rng.random((count, n, m))
        logits = spread * rng.standard_normal((count, n, m))
        stacked = kd_pair_loss(plans, logits)
        assert stacked.shape == (count,)
        for b in range(count):
            single = kd_pair_loss(plans[b], logits[b])
            assert isinstance(single, float)
            assert stacked[b] == single


@pytest.fixture(scope="module")
def tiny_dataset():
    spec = FixtureSpec(
        seed=13, d=4, n_entities=2, n_mentions=2, text_len=3, visual_len=3,
        noise_sigma=0.2,
    )
    return make_dataset(spec)[0]


@pytest.fixture(scope="module")
def repeated_golds_dataset():
    # Three mentions over two entities: one gold serves two mentions.
    spec = FixtureSpec(
        seed=13, d=4, n_entities=2, n_mentions=3, text_len=3, visual_len=3,
        noise_sigma=0.2,
    )
    return make_dataset(spec)[0]


@pytest.fixture(scope="module")
def mixed_lengths_dataset():
    # Five mentions over three entities, each record cut to its own text
    # and visual lengths, so every site's legs fall into several shapes.
    spec = FixtureSpec(
        seed=21, d=4, n_entities=3, n_mentions=5, text_len=6, visual_len=6,
        noise_sigma=0.2,
    )
    dataset = make_dataset(spec)[0]

    def cut(record, k):
        return replace(
            record,
            text=FeatureMatrix(record.text.data[: 3 + k % 3]),
            visual=FeatureMatrix(record.visual.data[: 2 + (2 * k) % 4]),
        )

    entities = tuple(cut(e, k) for k, e in enumerate(dataset.entities))
    mentions = tuple(cut(m, k + 1) for k, m in enumerate(dataset.mentions))
    for records in (entities, mentions):
        assert len({(r.text.rows, r.visual.rows) for r in records}) >= 2
    return Dataset(entities=entities, mentions=mentions, d=dataset.d)


@pytest.fixture(scope="module")
def tiny_table():
    return default_projections(4, seed=1)


def batch_of(dataset):
    mentions = list(dataset.mentions)
    return mentions, [dataset.gold_of(m) for m in mentions]


POOLS = ("soft", "mean", "max")
ABLATIONS = ((), ("no_fusm",), ("no_unim",))


def composed_losses(mentions, golds, table, run, kd_sites=()):
    """The row's loss components composed from public pieces.

    Each matching loss is the contrastive loss of one score kind of the
    grid against the golds as given, repeats and all, so gold i sits in
    column i; the distillation term sums every pair's divergence.
    """
    scorer = Scorer(table, run)
    grid = scorer.score_grid(mentions, golds)
    pairs = distill_pairs(mentions, golds, table, run, kd_sites)
    return {
        "l_f": contrastive_loss(grid.s_f) if scorer.uses_fused else 0.0,
        "l_t": contrastive_loss(grid.s_t) if scorer.uses_unimodal else 0.0,
        "l_v": contrastive_loss(grid.s_v) if scorer.uses_unimodal else 0.0,
        "l_o": contrastive_loss(grid.s_o),
        "l_kd": sum(kd_pair_loss(p.plan, p.logits) for ps in pairs.values() for p in ps),
    }


class TestBatchObjectiveOracle:
    def test_matches_naive_composition_ot(
        self, tiny_dataset, repeated_golds_dataset, mixed_lengths_dataset, tiny_table
    ):
        # At d=16 a fused score summed as a matrix product drifts in the
        # last bits from the dot products ranking takes.
        wide = FixtureSpec(
            seed=17, d=16, n_entities=4, n_mentions=4, text_len=4, visual_len=4,
            noise_sigma=0.3,
        )
        cases = (
            (tiny_dataset, tiny_table),
            (repeated_golds_dataset, tiny_table),
            (mixed_lengths_dataset, tiny_table),
            (make_dataset(wide)[0], default_projections(16, seed=17, scale=2.0)),
        )
        for (dataset, table), pool, ablation in itertools.product(cases, POOLS, ABLATIONS):
            run = _training_run(
                RunConfig(tol=TRAINING_TOL, pool=pool, ablations=frozenset(ablation)), "ot"
            )
            mentions, golds = batch_of(dataset)
            row = _BatchObjective(mentions, golds, table, run).row(table)
            expected = composed_losses(mentions, golds, table, run)
            for key, value in expected.items():
                assert getattr(row, key) == value, (key, pool, ablation)
            l_o, l_f, l_t, l_v = (expected[k] for k in ("l_o", "l_f", "l_t", "l_v"))
            assert row.total == l_o + l_f + l_t + l_v

    def test_matches_naive_composition_kd(
        self, tiny_dataset, repeated_golds_dataset, mixed_lengths_dataset, tiny_table
    ):
        datasets = (tiny_dataset, repeated_golds_dataset, mixed_lengths_dataset)
        for dataset, pool, ablation in itertools.product(datasets, POOLS, ABLATIONS):
            run = _training_run(
                RunConfig(tol=TRAINING_TOL, pool=pool, ablations=frozenset(ablation)), "kd"
            )
            mentions, golds = batch_of(dataset)
            state = _BatchObjective(mentions, golds, tiny_table, run, PIPELINE_SITES)
            row = state.row(tiny_table)
            expected = composed_losses(mentions, golds, tiny_table, run, PIPELINE_SITES)
            for key, value in expected.items():
                assert getattr(row, key) == pytest.approx(value, abs=1e-12), (
                    key, pool, ablation,
                )
            assert row.total == pytest.approx(sum(expected.values()), abs=1e-12)

    def test_override_with_same_projections_is_identity(self, tiny_dataset, tiny_table):
        run = _training_run(None, "kd")
        mentions, golds = batch_of(tiny_dataset)
        state = _BatchObjective(mentions, golds, tiny_table, run, PIPELINE_SITES)
        base = state.row(tiny_table).total
        for site in AssignmentSite:
            same = {**tiny_table, site: tiny_table[site].replace()}
            assert state.row(same).total == base

    def test_override_matches_full_recomputation(
        self, tiny_dataset, mixed_lengths_dataset, tiny_table
    ):
        kd_both_ways = ToyTrainConfig(
            steps=0, objective="kd", include_reverse_sites=True
        ).distilled_sites()
        for dataset, (objective, kd_sites) in itertools.product(
            (tiny_dataset, mixed_lengths_dataset), (("ot", ()), ("kd", kd_both_ways))
        ):
            mentions, golds = batch_of(dataset)
            run = _training_run(None, objective)
            state = _BatchObjective(mentions, golds, tiny_table, run, kd_sites)
            # Teacher plans stay those of the starting table across probes.
            teachers = distill_pairs(mentions, golds, tiny_table, run, kd_sites)
            for site in kd_sites or PIPELINE_SITES:
                for name in ("w_q", "w_k", "w_h"):
                    bumped = getattr(tiny_table[site], name).copy()
                    bumped[0, 0] += 0.37
                    proj = tiny_table[site].replace(**{name: bumped})
                    table2 = {**tiny_table, site: proj}
                    students = distill_pairs(mentions, golds, table2, run, kd_sites)
                    kd = sum(
                        kd_pair_loss(t.plan, s.logits)
                        for k in kd_sites
                        for t, s in zip(teachers[k], students[k])
                    )
                    fresh = _BatchObjective(mentions, golds, table2, run)
                    expected = fresh.row(table2).total + kd
                    got = state.row(table2).total
                    assert got == pytest.approx(expected, abs=1e-12), (
                        objective, site, name,
                    )


class TestSharedTeacherSolves:
    """Teachers solved one stack per leg shape, across sites, are the per-leg ones."""

    def test_teachers_and_kd_term_equal_per_leg_computation(
        self, mixed_lengths_dataset, repeated_golds_dataset, tiny_table
    ):
        sites = ToyTrainConfig(
            steps=0, objective="kd", include_reverse_sites=True
        ).distilled_sites()
        assert set(sites) == set(AssignmentSite)
        run = _training_run(None, "kd")
        for dataset in (mixed_lengths_dataset, repeated_golds_dataset):
            mentions, golds = batch_of(dataset)
            state = _BatchObjective(mentions, golds, tiny_table, run, sites)
            pairs = distill_pairs(mentions, golds, tiny_table, run, sites)
            seen = {site: [] for site in sites}
            sites_of_shape = {}
            for (site, legs, dst, src), plans in zip(state._parts, state._teachers):
                sites_of_shape.setdefault((dst.shape[1], src.shape[1]), set()).add(site)
                for leg, plan in zip(legs, plans, strict=True):
                    assert np.array_equal(plan, pairs[site][leg].plan), (site, leg)
                    seen[site].append(leg)
            for site in sites:
                assert sorted(seen[site]) == list(range(len(pairs[site]))), site
            if dataset is mixed_lengths_dataset:
                assert any(len(s) > 1 for s in sites_of_shape.values())
            # Left to right over each site's legs, then over the sites.
            expected = sum(
                sum(kd_pair_loss(p.plan, p.logits) for p in pairs[site]) for site in sites
            )
            assert state.row(tiny_table).l_kd == expected


class TestStackedRow:
    """A table entry with probe axes gives one row per probe, as each alone would."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        objective=st.sampled_from(["ot", "kd"]),
        ablation=st.sampled_from([(), ("no_fusm",), ("no_unim",)]),
        pool=st.sampled_from(["soft", "mean", "max"]),
        reverse=st.booleans(),
        b=st.integers(1, 8),
        mixed=st.booleans(),
        site=st.sampled_from(list(AssignmentSite)),
        name=st.sampled_from(["w_q", "w_k", "w_h"]),
        probes=st.integers(1, 3),
    )
    def test_each_probe_equals_its_table_alone(
        self, seed, objective, ablation, pool, reverse, b, mixed, site, name, probes
    ):
        rng = np.random.default_rng(seed)
        d = 4

        def record(kind):
            rows = rng.integers(1, 6, size=2) if mixed else (3, 3)
            return make_record(rng, kind, int(rows[0]), int(rows[1]), d=d)

        mentions = [record("mention") for _ in range(b)]
        entities = [record("entity") for _ in range(int(rng.integers(1, min(b, 4) + 1)))]
        golds = [entities[int(rng.integers(len(entities)))] for _ in mentions]
        table = default_projections(d, seed=seed % 1000, scale=1.5)
        run = _training_run(
            RunConfig(tol=TRAINING_TOL, pool=pool, ablations=frozenset(ablation)),
            objective,
        )
        kd_sites = ToyTrainConfig(
            steps=0, objective=objective, include_reverse_sites=reverse
        ).distilled_sites()
        state = _BatchObjective(mentions, golds, table, run, kd_sites)

        base = getattr(table[site], name)
        stack = base + 0.1 * rng.standard_normal((probes, 1, d, d))
        stacked = state.row({**table, site: table[site].replace(**{name: stack})})
        for p in range(probes):
            alone = state.row({**table, site: table[site].replace(**{name: stack[p, 0]})})
            for field in ("l_f", "l_t", "l_v", "l_o", "l_kd", "total"):
                got = np.broadcast_to(getattr(stacked, field), (probes,))[p]
                assert got == getattr(alone, field), (field, p)


def random_dataset(rng, b, n_entities, mixed, d=4):
    """``b`` mentions over ``n_entities`` entities of random features.

    With ``mixed`` every sequence gets its own length in 1-5, else 3.
    """

    def sides():
        rows = rng.integers(1, 6, size=2) if mixed else (3, 3)
        return [FeatureMatrix(rng.standard_normal((int(n), d))) for n in rows]

    entities = tuple(EntityRecord(f"e{u}", *sides()) for u in range(n_entities))
    # Fewer entities than mentions make golds repeat.
    mentions = tuple(
        MentionRecord(f"m{i}", *sides(), gold_entity=f"e{rng.integers(n_entities)}")
        for i in range(b)
    )
    return Dataset(entities=entities, mentions=mentions, d=d)


def max_pool_margin(dataset, table, run):
    """The least gap between the top two rows of any column ``run`` pools by max."""
    mentions, golds = batch_of(dataset)
    entities = list({id(g): g for g in golds}.values())
    mechanism, solver = run.mechanism, run.sinkhorn_config()
    pooled = []
    for record in [*mentions, *entities]:
        fused = interact_record(record, table, mechanism, solver)
        pooled += [
            np.vstack([record.text.data, fused.v2t.g]),
            np.vstack([record.visual.data, fused.t2v.g]),
        ]
    for site in UNIMODAL_SITES:
        _, e_attr, _, m_attr = SITE_LEGS[site]
        for mention in mentions:
            for entity in entities:
                side = (getattr(entity, e_attr), getattr(mention, m_attr))
                pooled.append(assign(*side, table[site], mechanism, solver).g)
    gaps = [np.diff(np.sort(x, axis=0)[-2:], axis=0) for x in pooled if len(x) > 1]
    return min((float(g.min()) for g in gaps), default=np.inf)


class TestAnalyticGradient:
    """Either objective's reverse pass agrees with central differences."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        objective=st.sampled_from(["ot", "kd"]),
        # Sharpness values at which every solve converges at TRAINING_TOL.
        sharpness=st.sampled_from([0.6, 5.0]),
        ablation=st.sampled_from([(), ("no_fusm",), ("no_unim",)]),
        pool=st.sampled_from(["soft", "mean", "max"]),
        reverse=st.booleans(),
        b=st.integers(2, 5),
        n_entities=st.integers(1, 4),
        mixed=st.booleans(),
    )
    def test_matches_fd_gradient(
        self, seed, objective, sharpness, ablation, pool, reverse, b, n_entities, mixed
    ):
        rng = np.random.default_rng(seed)
        dataset = random_dataset(rng, b, n_entities, mixed)
        table = default_projections(dataset.d, seed=seed % 1000, scale=1.5)
        run = _training_run(
            RunConfig(
                sharpness=sharpness,
                tol=TRAINING_TOL,
                pool=pool,
                ablations=frozenset(ablation),
            ),
            objective,
        )
        if pool == "max":
            # Central differences straddle no switch of the max row.
            assume(max_pool_margin(dataset, table, run) > 1e-3)
        train = ToyTrainConfig(
            steps=0, objective=objective, include_reverse_sites=reverse
        )
        mentions, golds = batch_of(dataset)
        state = _BatchObjective(mentions, golds, table, run, train.distilled_sites())
        analytic = state.gradient(table)
        assert set(analytic) == set(train.trainable_sites())
        for (site, name, i, j), f in fd_gradient(dataset, table, train, run).items():
            a = analytic[site][name][i, j]
            assert abs(a - f) <= 1e-6 * max(1.0, abs(f)), (site, name, i, j, a, f)


class TestKdTrainingScoresOnce:
    """A kd step's one scoring gives what separate row and gradient calls give."""

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        ablation=st.sampled_from([(), ("no_fusm",), ("no_unim",)]),
        pool=st.sampled_from(["soft", "mean", "max"]),
        reverse=st.booleans(),
        b=st.integers(2, 5),
        n_entities=st.integers(1, 4),
        mixed=st.booleans(),
    )
    def test_matches_reference_loop(self, seed, ablation, pool, reverse, b, n_entities, mixed):
        rng = np.random.default_rng(seed)
        dataset = random_dataset(rng, b, n_entities, mixed)
        table = default_projections(dataset.d, seed=seed % 1000, scale=1.5)
        run = _training_run(
            RunConfig(tol=TRAINING_TOL, pool=pool, ablations=frozenset(ablation)), "kd"
        )
        train = ToyTrainConfig(steps=3, lr=2.0, objective="kd", include_reverse_sites=reverse)
        trained, trace = toy_train(dataset, table, train, run)

        mentions, golds = batch_of(dataset)
        expected = []
        for step in range(train.steps + 1):
            state = _BatchObjective(mentions, golds, table, run, train.distilled_sites())
            expected.append(replace(state.row(table), step=step))
            if step == train.steps:
                break
            grads = state.gradient(table)
            table = {
                **table,
                **{
                    site: table[site].replace(**{
                        name: getattr(table[site], name) - train.lr * grads[site][name]
                        for name in ("w_q", "w_k", "w_h")
                    })
                    for site in train.trainable_sites()
                },
            }
        assert trace == expected
        for site in AssignmentSite:
            for name in ("w_q", "w_k", "w_h"):
                got = getattr(trained[site], name).tobytes()
                assert got == getattr(table[site], name).tobytes(), (site, name)


class TestCostGrad:
    def test_plan_split_into_blocks_gets_each_blocks_gradient(self, rng):
        # Two 2x2 blocks with no mass between them: the bordered system is
        # singular, and each block's gradient is its own problem's.
        block = np.full((2, 2), 0.125)
        plan = np.zeros((4, 4))
        plan[:2, :2] = plan[2:, 2:] = block
        d_plan = rng.standard_normal((4, 4))
        got = _cost_grad(plan, d_plan, 5.0)
        for cut in (slice(0, 2), slice(2, 4)):
            alone = _cost_grad(block, d_plan[cut, cut], 5.0)
            np.testing.assert_allclose(got[cut, cut], alone, rtol=1e-12, atol=1e-15)
        assert not got[:2, 2:].any() and not got[2:, :2].any()

    @pytest.mark.parametrize("sharpness", [0.6, 30.0, 1500.0])
    def test_equals_bordered_system_written_out(self, rng, sharpness):
        # The shared gauge-fixed system is the bordered matrix less its last
        # row and column; the gradient through it is the one the matrix
        # written out by blocks gives, bit for bit.
        n, m = 5, 4
        cost = rng.random((6, n, m))
        plan = sinkhorn_stack(cost, Marginals.uniform(n, m), SinkhornConfig(sharpness)).data
        d_plan = rng.standard_normal(plan.shape)
        system = np.block([
            [plan.sum(axis=-1)[..., None] * np.eye(n), plan],
            [plan.swapaxes(-1, -2), plan.sum(axis=-2)[..., None] * np.eye(m)],
        ])
        gp = d_plan * plan
        rhs = np.concatenate([gp.sum(axis=-1), gp.sum(axis=-2)], axis=-1)
        inverse = np.linalg.pinv(system[..., :-1, :-1], hermitian=True)
        dual = np.zeros(rhs.shape)
        dual[..., :-1] = (inverse @ rhs[..., :-1, None])[..., 0]
        expected = -sharpness * plan * (d_plan - dual[..., :n, None] - dual[..., None, n:])
        assert _cost_grad(plan, d_plan, sharpness).tobytes() == expected.tobytes()


class TestCosineGrads:
    """The cost's backward has no slope where the forward clipped the cosine."""

    def test_clipped_entry_is_flat_and_others_match_differences(self):
        # Row 0 of k is row 0 of q scaled, and its cosine rounds to just above 1.
        q = np.array([[0.3, 0.7], [1.0, -0.5]])
        k = np.array([3.0 * q[0], [0.2, 0.4]])
        qn = np.linalg.norm(q, axis=-1, keepdims=True)
        kn = np.linalg.norm(k, axis=-1, keepdims=True)
        assert ((q @ k.T) / (qn * kn.T))[0, 0] > 1.0
        clipped = np.zeros((2, 2))
        clipped[0, 0] = 1.0
        for grad in _cosine_grads(q, k, clipped):
            assert not grad.any()
        d_cost = np.array([[0.0, 0.7], [-1.3, 0.4]])

        def weighted(q, k):
            return (d_cost * cosine_cost(q, k).data).sum()

        h = 1e-6
        d_q, d_k = _cosine_grads(q, k, d_cost)
        for i, j in itertools.product(range(2), range(2)):
            step = np.zeros((2, 2))
            step[i, j] = h
            fd_q = (weighted(q + step, k) - weighted(q - step, k)) / (2 * h)
            fd_k = (weighted(q, k + step) - weighted(q, k - step)) / (2 * h)
            assert d_q[i, j] == pytest.approx(fd_q, abs=1e-8)
            assert d_k[i, j] == pytest.approx(fd_k, abs=1e-8)


class TestToyTrain:
    def test_zero_steps_unchanged(self, tiny_dataset, tiny_table):
        trained, trace = toy_train(tiny_dataset, tiny_table, ToyTrainConfig(steps=0))
        assert len(trace) == 1 and trace[0].step == 0
        for site in AssignmentSite:
            np.testing.assert_array_equal(
                trained[site].w_q, tiny_table[site].w_q
            )

    def test_zero_lr_constant_trace(self, tiny_dataset, tiny_table):
        for objective in ("ot", "kd"):
            trained, trace = toy_train(
                tiny_dataset, tiny_table,
                ToyTrainConfig(steps=2, lr=0.0, objective=objective),
            )
            totals = {row.total for row in trace}
            assert len(totals) == 1, objective
            for site in AssignmentSite:
                for name in ("w_q", "w_k", "w_h"):
                    got = getattr(trained[site], name).tobytes()
                    assert got == getattr(tiny_table[site], name).tobytes(), (
                        objective, site, name,
                    )

    @pytest.mark.parametrize(
        "objective, reverse", [("kd", False), ("kd", True), ("ot", False)]
    )
    def test_descent_matches_fd_steps(
        self, mixed_lengths_dataset, tiny_table, objective, reverse
    ):
        """Steps on the exact gradient track steps on ``fd_gradient``."""
        train = ToyTrainConfig(
            steps=3, lr=2.0, objective=objective, include_reverse_sites=reverse
        )
        trained, trace = toy_train(mixed_lengths_dataset, tiny_table, train)
        run = _training_run(None, objective)
        mentions, golds = batch_of(mixed_lengths_dataset)
        table = tiny_table
        for step in range(train.steps + 1):
            if step:
                mats = {
                    site: {n: getattr(table[site], n).copy() for n in ("w_q", "w_k", "w_h")}
                    for site in train.trainable_sites()
                }
                grads = fd_gradient(mixed_lengths_dataset, table, train, run)
                for (site, name, i, j), grad in grads.items():
                    mats[site][name][i, j] -= train.lr * grad
                table = {**table, **{s: table[s].replace(**m) for s, m in mats.items()}}
            state = _BatchObjective(mentions, golds, table, run, train.distilled_sites())
            expected = state.row(table).total
            assert abs(trace[step].total - expected) <= 1e-7 * abs(expected), step
        for site in AssignmentSite:
            for name in ("w_q", "w_k", "w_h"):
                got, want = getattr(trained[site], name), getattr(table[site], name)
                assert (np.abs(got - want) <= 1e-7 * np.maximum(1.0, np.abs(want))).all()

    def test_descends_on_separable_fixture(self, tiny_dataset, tiny_table):
        _, trace = toy_train(
            tiny_dataset, tiny_table, ToyTrainConfig(steps=50, lr=2.0, objective="ot")
        )
        assert trace[-1].total < 0.9 * trace[0].total

    def test_trace_reports_kd_only_for_kd_objective(self, tiny_dataset, tiny_table):
        _, trace_ot = toy_train(tiny_dataset, tiny_table, ToyTrainConfig(steps=1))
        assert all(row.l_kd == 0.0 for row in trace_ot)
        _, trace_kd = toy_train(
            tiny_dataset, tiny_table, ToyTrainConfig(steps=1, objective="kd")
        )
        assert trace_kd[0].l_kd > 0.0
        assert trace_kd[0].total == pytest.approx(
            trace_kd[0].l_o + trace_kd[0].l_f + trace_kd[0].l_t + trace_kd[0].l_v
            + trace_kd[0].l_kd,
            abs=1e-12,
        )

    def test_deterministic(self, tiny_dataset, tiny_table):
        cfg = ToyTrainConfig(steps=2, lr=0.5)
        a_table, a_trace = toy_train(tiny_dataset, tiny_table, cfg)
        b_table, b_trace = toy_train(tiny_dataset, tiny_table, cfg)
        assert [r.total for r in a_trace] == [r.total for r in b_trace]
        site = AssignmentSite.MENTION_TO_ENTITY_TEXT
        np.testing.assert_array_equal(a_table[site].w_h, b_table[site].w_h)

    def test_size_guards(self, tiny_table):
        big_d, _ = make_dataset(FixtureSpec(seed=0, d=18, n_entities=2, n_mentions=2))
        with pytest.raises(ConfigError):
            toy_train(big_d, default_projections(18, 0), ToyTrainConfig(steps=1))
        long_seq, _ = make_dataset(
            FixtureSpec(seed=0, d=8, n_entities=2, n_mentions=2, text_len=9, visual_len=3)
        )
        with pytest.raises(ConfigError):
            toy_train(long_seq, default_projections(8, 0), ToyTrainConfig(steps=1))
        big_batch, _ = make_dataset(
            FixtureSpec(seed=0, d=12, n_entities=3, n_mentions=9)
        )
        with pytest.raises(ConfigError):
            toy_train(big_batch, default_projections(12, 0), ToyTrainConfig(steps=1))

    def test_config_validation(self, tiny_dataset, tiny_table):
        with pytest.raises(ConfigError):
            ToyTrainConfig(steps=-1)
        for step in (0.0, -1e-4, float("nan")):
            with pytest.raises(ConfigError):
                fd_gradient(tiny_dataset, tiny_table, ToyTrainConfig(steps=0), step=step)
        for lr in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ConfigError):
                ToyTrainConfig(steps=1, lr=lr)
        with pytest.raises(ConfigError):
            ToyTrainConfig(steps=1, objective="sgd")

    def test_reverse_sites_join_kd_training(self, tiny_dataset, tiny_table):
        from otmel.correlation import REVERSE_UNIMODAL_SITES

        cfg = ToyTrainConfig(
            steps=1, lr=1.0, objective="kd", include_reverse_sites=True
        )
        assert set(cfg.trainable_sites()) == set(PIPELINE_SITES) | set(
            REVERSE_UNIMODAL_SITES
        )
        trained, trace = toy_train(tiny_dataset, tiny_table, cfg)
        reverse = REVERSE_UNIMODAL_SITES[0]
        assert not np.array_equal(trained[reverse].w_q, tiny_table[reverse].w_q)
        # Without the flag the reverse sites stay untouched.
        trained_fwd, _ = toy_train(
            tiny_dataset, tiny_table, ToyTrainConfig(steps=1, lr=1.0, objective="kd")
        )
        np.testing.assert_array_equal(
            trained_fwd[reverse].w_q, tiny_table[reverse].w_q
        )


class TestFdGradient:
    def test_halving_step_agrees_within_5_percent(self, tiny_dataset, tiny_table):
        for objective in ("ot", "kd"):
            train = ToyTrainConfig(steps=0, objective=objective)
            full = fd_gradient(tiny_dataset, tiny_table, train, step=1e-4)
            top = sorted(full, key=lambda c: abs(full[c]), reverse=True)[:12]
            halved = fd_gradient(tiny_dataset, tiny_table, train, coords=top, step=5e-5)
            for coord in top:
                a, b = full[coord], halved[coord]
                assert abs(a - b) / max(abs(a), abs(b)) < 0.05


class TestDistillLegsAreScoringAssignments:
    def test_teacher_plans_equal_scoring_plans(self, mixed_lengths_dataset, tiny_table):
        # Text and visual lengths differ, so a leg with its destination and
        # source swapped, or read from the wrong modality, changes shape.
        run = RunConfig(tol=1e-9)
        solver = run.sinkhorn_config()
        mentions, golds = batch_of(mixed_lengths_dataset)
        entities = list({id(g): g for g in golds}.values())
        S = AssignmentSite

        def fused(records, direction):
            return [
                getattr(interact_record(r, tiny_table, "ot", solver), direction).a
                for r in records
            ]

        def unimodal(site, attr, reverse=False):
            # As unimodal_score assigns: the gold queries the mention.
            plans = []
            for m, g in zip(mentions, golds):
                dst, src = getattr(g, attr), getattr(m, attr)
                if reverse:
                    dst, src = src, dst
                plans.append(ot_assign(dst, src, tiny_table[site], solver).a)
            return plans

        expected = {
            S.MENTION_VISUAL_TO_TEXT: fused(mentions, "v2t"),
            S.MENTION_TEXT_TO_VISUAL: fused(mentions, "t2v"),
            S.ENTITY_VISUAL_TO_TEXT: fused(entities, "v2t"),
            S.ENTITY_TEXT_TO_VISUAL: fused(entities, "t2v"),
            S.MENTION_TO_ENTITY_TEXT: unimodal(S.MENTION_TO_ENTITY_TEXT, "text"),
            S.MENTION_TO_ENTITY_VISUAL: unimodal(S.MENTION_TO_ENTITY_VISUAL, "visual"),
            S.ENTITY_TO_MENTION_TEXT: unimodal(S.ENTITY_TO_MENTION_TEXT, "text", True),
            S.ENTITY_TO_MENTION_VISUAL: unimodal(
                S.ENTITY_TO_MENTION_VISUAL, "visual", True
            ),
        }
        pairs = distill_pairs(mentions, golds, tiny_table, run, tuple(S))
        assert list(pairs) == list(S)
        for site, plans in expected.items():
            assert len(pairs[site]) == len(plans), site
            for pair, plan in zip(pairs[site], plans):
                assert pair.plan.shape == plan.shape, site
                assert np.array_equal(pair.plan, plan), site


class TestDistillGap:
    def test_gap_zero_when_logits_reproduce_plans(self, tiny_dataset, tiny_table):
        run = RunConfig(tol=1e-9)
        mentions = list(tiny_dataset.mentions)
        golds = [tiny_dataset.gold_of(m) for m in mentions]
        pairs = distill_pairs(mentions, golds, tiny_table, run)
        for site_pairs in pairs.values():
            for pair in site_pairs:
                self_distilled = kd_pair_loss(pair.plan, pair.plan)
                assert self_distilled == pytest.approx(0.0, abs=1e-12)

    def test_gap_per_site_keys(self, tiny_dataset, tiny_table):
        gaps = distill_gap(tiny_dataset, tiny_table, RunConfig())
        assert set(gaps) == set(PIPELINE_SITES)
        assert all(v >= 0 for v in gaps.values())

    def test_training_reduces_held_out_gap(self):
        train_ds, _ = make_dataset(
            FixtureSpec(seed=11, d=6, n_entities=3, n_mentions=3, text_len=3,
                        visual_len=3, noise_sigma=0.3)
        )
        held_ds, _ = make_dataset(
            FixtureSpec(seed=99, d=6, n_entities=3, n_mentions=3, text_len=3,
                        visual_len=3, noise_sigma=0.3)
        )
        table = default_projections(6, seed=0, scale=2.0)
        before = np.mean(list(distill_gap(held_ds, table, RunConfig()).values()))
        trained, _ = toy_train(
            train_ds, table, ToyTrainConfig(steps=10, lr=2.0, objective="kd")
        )
        after = np.mean(list(distill_gap(held_ds, trained, RunConfig()).values()))
        assert after < before


class TestDistillGapMatchesPerLeg:
    """distill_gap reads the trainer's stacked terms; they equal the per-leg ones."""

    @staticmethod
    def per_leg_gaps(dataset, table, run, sites):
        pairs = distill_pairs(*batch_of(dataset), table, run, sites)
        return {
            site: float(np.mean([kd_pair_loss(p.plan, p.logits) for p in pairs[site]]))
            for site in sites
        }

    def test_equals_per_leg_means_bitwise(
        self, tiny_dataset, repeated_golds_dataset, mixed_lengths_dataset, tiny_table
    ):
        datasets = (tiny_dataset, repeated_golds_dataset, mixed_lengths_dataset)
        site_sets = (PIPELINE_SITES, tuple(AssignmentSite))
        for dataset, sites, tol, sharpness in itertools.product(
            datasets, site_sets, (1e-9, RunConfig.tol), (0.6, 30.0)
        ):
            run = RunConfig(tol=tol, sharpness=sharpness)
            gaps = distill_gap(dataset, tiny_table, run, sites)
            assert list(gaps) == list(sites)
            expected = self.per_leg_gaps(dataset, tiny_table, run, sites)
            for site in sites:
                assert gaps[site] == expected[site], (site, tol, sharpness)

    def test_no_sites_no_gaps(self, tiny_dataset, tiny_table):
        assert distill_gap(tiny_dataset, tiny_table, RunConfig(), ()) == {}

    def test_cli_prints_per_leg_means(self, capsys, tmp_path):
        spec = FixtureSpec(
            seed=5, d=12, n_entities=3, n_mentions=3, text_len=4, visual_len=4
        )
        manifest = generate_fixtures(spec, tmp_path / "fix")
        dataset = load_manifest(manifest)
        expected = self.per_leg_gaps(
            dataset, identity_projections(12), RunConfig(), PIPELINE_SITES
        )
        assert main(["distill-gap", str(manifest)]) == 0
        lines = [f"{site.value},{_fmt(gap)}" for site, gap in expected.items()]
        mean = _fmt(float(np.mean(list(expected.values()))))
        assert capsys.readouterr().out.splitlines() == [
            "site,mean_kd", *lines, f"# mean_over_sites={mean}"
        ]


class TestBatchLossReport:
    def test_report_matches_components(self, tiny_dataset, tiny_table):
        row = batch_loss_report(tiny_dataset, tiny_table, objective="ot")
        assert row.total == pytest.approx(
            row.l_o + row.l_f + row.l_t + row.l_v, abs=1e-12
        )
        row_kd = batch_loss_report(tiny_dataset, tiny_table, objective="kd")
        assert row_kd.l_kd > 0
