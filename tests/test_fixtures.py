import json

import numpy as np
import pytest

from otmel.config import RunConfig
from otmel.correlation import AssignmentSite, identity_projections, ot_assign
from otmel.data_io import load_manifest
from otmel.errors import ConfigError
from otmel.evaluation import hits_at_k, rank_all
from otmel.fixtures import (
    FixtureSpec,
    correspondence_recovery,
    generate_fixtures,
    load_truth,
    make_dataset,
)
from otmel.matching import Scorer
from otmel.ot import SinkhornConfig


def tree_files(root):
    return sorted(p.relative_to(root) for p in root.rglob("*") if p.is_file())


class TestSpecValidation:
    def test_rejects_bad_sizes(self):
        with pytest.raises(ConfigError):
            FixtureSpec(seed=0, d=4, n_entities=4)
        with pytest.raises(ConfigError):
            FixtureSpec(seed=0, text_len=0)
        with pytest.raises(ConfigError):
            FixtureSpec(seed=0, noise_sigma=-1.0)

    @pytest.mark.parametrize(
        "field",
        [{"d": 4.5}, {"n_entities": 2.0}, {"text_len": True}, {"seed": 1.5},
         {"seed": -1}, {"latent_scale": float("nan")}, {"slot_scale": float("inf")},
         {"noise_sigma": float("nan")}],
    )
    def test_rejects_non_integer_counts_and_non_finite_scales(self, field):
        with pytest.raises(ConfigError):
            FixtureSpec(**{"seed": 0, **field})

    def test_numpy_integers_accepted(self):
        spec = FixtureSpec(seed=np.int64(3), d=np.int32(10), n_entities=2)
        assert make_dataset(spec)[0].d == 10

    def test_correspondence_bounds_checked(self):
        with pytest.raises(ConfigError):
            FixtureSpec(seed=0, correspondence=((0, 1),))
        with pytest.raises(ConfigError):
            FixtureSpec(seed=0, text_len=4, visual_len=4, correspondence=((1, 1), (2, 1)))

    def test_from_json(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"seed": 5, "d": 10, "n_entities": 3}))
        spec = FixtureSpec.from_json(path)
        assert (spec.seed, spec.d, spec.n_entities) == (5, 10, 3)

    def test_from_json_rejects_unknown_keys(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"seed": 5, "bogus": 1}))
        with pytest.raises(Exception):
            FixtureSpec.from_json(path)


class TestGeneration:
    def test_same_seed_byte_identical(self, tmp_path):
        spec = FixtureSpec(seed=12, d=10, n_entities=3, n_mentions=4)
        a = tmp_path / "a"
        b = tmp_path / "b"
        generate_fixtures(spec, a)
        generate_fixtures(spec, b)
        files = tree_files(a)
        assert files == tree_files(b)
        for rel in files:
            assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel

    def test_counts(self, tmp_path):
        spec = FixtureSpec(seed=3, d=24, n_entities=20, n_mentions=5)
        manifest = generate_fixtures(spec, tmp_path / "out")
        doc = json.loads(manifest.read_text())
        assert len(doc["entities"]) == 20
        assert len(doc["mentions"]) == 5
        entity_files = tree_files(tmp_path / "out" / "entities")
        assert len(entity_files) == 40
        ds = load_manifest(manifest)
        assert len(ds.entities) == 20

    def test_in_memory_matches_disk(self, tmp_path):
        spec = FixtureSpec(seed=8, d=12, n_entities=3, n_mentions=3)
        ds_mem, truth_mem = make_dataset(spec)
        manifest = generate_fixtures(spec, tmp_path / "out")
        ds_disk = load_manifest(manifest)
        truth_disk = load_truth(tmp_path / "out" / "truth.json")
        for mem, disk in zip(ds_mem.entities, ds_disk.entities):
            np.testing.assert_array_equal(mem.text.data, disk.text.data)
            np.testing.assert_array_equal(mem.visual.data, disk.visual.data)
        assert truth_mem == truth_disk

    def test_gold_round_robin(self):
        ds, _ = make_dataset(FixtureSpec(seed=0, d=10, n_entities=3, n_mentions=5))
        assert [m.gold_entity for m in ds.mentions] == [
            "e0000",
            "e0001",
            "e0002",
            "e0000",
            "e0001",
        ]

    def test_explicit_correspondence_respected(self):
        spec = FixtureSpec(
            seed=4,
            d=12,
            n_entities=2,
            n_mentions=2,
            text_len=4,
            visual_len=4,
            correspondence=((1, 3), (2, 1)),
        )
        _, truth = make_dataset(spec)
        for pairs in truth.values():
            assert pairs == {0: 0, 1: 3, 2: 1}


class TestPlantedStructure:
    def test_noiseless_separability(self):
        table = identity_projections(16)
        for seed in (1, 2, 3):
            spec = FixtureSpec(seed=seed, d=16, n_entities=5, n_mentions=5, noise_sigma=0.0)
            ds, _ = make_dataset(spec)
            results = rank_all(ds.mentions, ds.entities, Scorer(table, RunConfig()))
            assert hits_at_k(results, 1) == 1.0

    def test_correspondence_recovery_at_least_90_percent(self):
        spec = FixtureSpec(seed=6, d=16, n_entities=4, n_mentions=8, noise_sigma=0.0)
        ds, truth = make_dataset(spec)
        table = identity_projections(16)
        config = SinkhornConfig(sharpness=10, max_iter=4000)
        rates = []
        for m in ds.mentions:
            result = ot_assign(
                m.text, m.visual, table[AssignmentSite.MENTION_VISUAL_TO_TEXT], config
            )
            rates.append(correspondence_recovery(result.a, truth[m.id]))
        assert np.mean(rates) >= 0.9

    def test_recovery_helper(self):
        a = np.array([[0.6, 0.4], [0.1, 0.9]])
        assert correspondence_recovery(a, {0: 0, 1: 1}) == 1.0
        assert correspondence_recovery(a, {0: 1, 1: 1}) == 0.5
        with pytest.raises(ConfigError):
            correspondence_recovery(a, {})
