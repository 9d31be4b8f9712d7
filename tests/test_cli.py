import json
from pathlib import Path

import numpy as np
import pytest

from otmel.cli import main
from otmel.data_io import write_feature_file
from otmel.fixtures import FixtureSpec, generate_fixtures
from otmel.types import FeatureMatrix


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def cost_csv(tmp_path):
    path = tmp_path / "cost.csv"
    path.write_text("0.2,0.8,0.4\n0.5,0.1,0.9\n0.7,0.6,0.3\n")
    return str(path)


@pytest.fixture
def fixture_manifest(tmp_path):
    spec = FixtureSpec(seed=5, d=12, n_entities=3, n_mentions=3, text_len=4, visual_len=4)
    return str(generate_fixtures(spec, tmp_path / "fix"))


class TestSolve:
    def test_zero_cost_uniform_plan(self, capsys, tmp_path):
        path = tmp_path / "zero.csv"
        path.write_text("0,0\n0,0\n")
        code, out, _ = run(capsys, "solve", str(path))
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "0.25,0.25"
        assert lines[1] == "0.25,0.25"
        assert "cost=0" in lines[2] and "converged=yes" in lines[2]

    def test_sharp_fixture_cost_near_optimal(self, capsys, cost_csv):
        code, out, _ = run(
            capsys, "solve", cost_csv, "--lambda", "50",
            "--tol", "1e-9", "--max-iter", "20000",
        )
        assert code == 0
        stats = out.strip().splitlines()[-1]
        cost = float(stats.split("cost=")[1].split()[0])
        assert abs(cost - 0.2) < 1e-3

    def test_malformed_csv_names_line(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0.1,0.2\n0.3,oops\n")
        code, _, err = run(capsys, "solve", str(path))
        assert code == 2
        assert "line 2" in err

    def test_invalid_marginals_exit_4(self, capsys, cost_csv):
        code, _, err = run(capsys, "solve", cost_csv, "--mu", "0.9,0.9,0.9")
        assert code == 4

    def test_infinite_sharpness_exit_4(self, capsys, cost_csv):
        code, out, _ = run(capsys, "solve", cost_csv, "--lambda", "inf")
        assert code == 4
        assert out == ""

    def test_marginal_dimension_exit_3(self, capsys, cost_csv):
        code, _, _ = run(capsys, "solve", cost_csv, "--mu", "0.5,0.5")
        assert code == 3

    def test_explicit_marginals(self, capsys, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("0,0\n")
        code, out, _ = run(capsys, "solve", str(path), "--mu", "1.0", "--nu", "0.25,0.75")
        assert code == 0
        assert out.splitlines()[0] == "0.25,0.75"


class TestAssign:
    @pytest.fixture
    def feature_files(self, tmp_path, rng):
        a = tmp_path / "a.otml"
        b = tmp_path / "b.otml"
        write_feature_file(FeatureMatrix(rng.standard_normal((3, 6))), a)
        write_feature_file(FeatureMatrix(rng.standard_normal((4, 6))), b)
        return str(a), str(b)

    def test_attention_rows_sum_to_one(self, capsys, feature_files):
        a, b = feature_files
        code, out, _ = run(capsys, "assign", a, b, "--mechanism", "attention")
        assert code == 0
        rows = [list(map(float, line.split(","))) for line in out.strip().splitlines()]
        matrix = np.array(rows)
        assert matrix.shape == (3, 4)
        np.testing.assert_allclose(matrix.sum(axis=1), 1.0, atol=1e-9)

    def test_ot_marginals(self, capsys, feature_files):
        a, b = feature_files
        code, out, _ = run(capsys, "assign", a, b, "--mechanism", "ot")
        matrix = np.array(
            [list(map(float, line.split(","))) for line in out.strip().splitlines()]
        )
        np.testing.assert_allclose(matrix.sum(axis=1), 1 / 3, atol=2e-6)
        np.testing.assert_allclose(matrix.sum(axis=0), 1 / 4, atol=2e-6)

    def test_deterministic_output(self, capsys, feature_files):
        a, b = feature_files
        _, first, _ = run(capsys, "assign", a, b)
        _, second, _ = run(capsys, "assign", a, b)
        assert first == second

    def test_dimension_mismatch_exit_3(self, capsys, tmp_path, rng):
        a = tmp_path / "a.otml"
        b = tmp_path / "b.otml"
        write_feature_file(FeatureMatrix(rng.standard_normal((3, 6))), a)
        write_feature_file(FeatureMatrix(rng.standard_normal((3, 5))), b)
        code, _, _ = run(capsys, "assign", str(a), str(b))
        assert code == 3

    def test_unreadable_file_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.otml"
        bad.write_bytes(b"XXXX" + b"\x00" * 16)
        code, _, _ = run(capsys, "assign", str(bad), str(bad))
        assert code == 2

    def test_projection_file_and_site_flag(self, capsys, tmp_path, feature_files):
        from otmel.correlation import default_projections
        from otmel.data_io import save_projections

        a, b = feature_files
        proj = save_projections(default_projections(6, seed=2), tmp_path / "proj")
        code, out, _ = run(
            capsys, "assign", a, b, "--proj", str(proj),
            "--site", "e2m_text", "--mechanism", "attention",
        )
        assert code == 0
        matrix = np.array(
            [list(map(float, line.split(","))) for line in out.strip().splitlines()]
        )
        np.testing.assert_allclose(matrix.sum(axis=1), 1.0, atol=1e-9)

    def test_projection_dimension_mismatch_exit_3(self, capsys, tmp_path, feature_files):
        from otmel.correlation import default_projections
        from otmel.data_io import save_projections

        a, b = feature_files
        proj = save_projections(default_projections(5, seed=2), tmp_path / "proj")
        code, _, _ = run(capsys, "assign", a, b, "--proj", str(proj))
        assert code == 3


class TestLink:
    def test_planted_fixture_all_metrics_100(self, capsys, fixture_manifest):
        code, out, _ = run(capsys, "link", fixture_manifest)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("mention_id,gold_rank,top1")
        assert "H@1=100.00" in lines
        assert "H@3=100.00" in lines
        assert "H@5=100.00" in lines
        assert "MRR=100.00" in lines

    def test_single_candidate_mrr_100(self, capsys, tmp_path):
        spec = FixtureSpec(seed=9, d=10, n_entities=1, n_mentions=1)
        manifest = generate_fixtures(spec, tmp_path / "single")
        code, out, _ = run(capsys, "link", str(manifest))
        assert code == 0
        assert "MRR=100.00" in out

    def test_missing_gold_exit_5(self, capsys, tmp_path, fixture_manifest):
        doc = json.loads(Path(fixture_manifest).read_text())
        for m in doc["mentions"]:
            del m["gold_entity"]
        stripped = tmp_path / "fix" / "nogold.json"
        stripped.write_text(json.dumps(doc))
        code, _, _ = run(capsys, "link", str(stripped))
        assert code == 5
        code, out, _ = run(capsys, "link", str(stripped), "--no-metrics")
        assert code == 0
        assert "H@1" not in out
        assert ",-," in out.splitlines()[1]

    def test_attention_mechanism_flag(self, capsys, fixture_manifest):
        code, out, _ = run(capsys, "link", fixture_manifest, "--mechanism", "attention")
        assert code == 0
        assert "H@1=100.00" in out

    def test_config_file_with_flag_override(self, capsys, fixture_manifest, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"mechanism": "attention", "pool": "mean"}))
        code, out, _ = run(capsys, "link", fixture_manifest, "--config", str(cfg))
        assert code == 0

    def test_bad_config_rejected(self, capsys, fixture_manifest, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"pool": "median"}))
        code, _, _ = run(capsys, "link", fixture_manifest, "--config", str(cfg))
        assert code == 4

    def test_non_integer_max_iter_exit_4(self, capsys, fixture_manifest, tmp_path):
        # A float cap never equals the loop's count of pairs.
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"max_iter": 7.0}))
        code, _, _ = run(
            capsys, "link", fixture_manifest, "--config", str(cfg), "--lambda", "30"
        )
        assert code == 4

    def test_config_naming_threads_is_an_unknown_field(
        self, capsys, fixture_manifest, tmp_path
    ):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"threads": 2}))
        code, out, err = run(capsys, "link", fixture_manifest, "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert "threads" in err

    def test_link_with_projection_file(self, capsys, fixture_manifest, tmp_path):
        from otmel.correlation import identity_projections
        from otmel.data_io import save_projections

        proj = save_projections(identity_projections(12), tmp_path / "proj")
        code, out, _ = run(capsys, "link", fixture_manifest, "--proj", str(proj))
        assert code == 0
        assert "H@1=100.00" in out


def write_ambiguous_manifest(tmp_path):
    """Two candidates tied on visuals; fused matching prefers the imposter's
    louder content rows while the unimodal summary match picks the gold."""
    d = 8
    z1 = np.zeros(d); z1[0] = 1.0
    z2 = np.zeros(d); z2[1] = 1.0
    w = np.zeros(d); w[2:] = 0.7
    u = np.zeros(d); u[3] = 0.9
    zv = np.zeros(d); zv[4] = 1.0

    def text_matrix(summary, scale):
        return FeatureMatrix(np.vstack([summary, scale * w, scale * w]).astype(np.float32).astype(np.float64))

    visual = FeatureMatrix(np.vstack([zv, u, u]).astype(np.float32).astype(np.float64))
    records = {
        "m_t": text_matrix(z1, 1.0),
        "m_v": visual,
        "ea_t": text_matrix(z1, 0.8),
        "ea_v": visual,
        "eb_t": text_matrix(z2, 1.2),
        "eb_v": visual,
    }
    for name, matrix in records.items():
        write_feature_file(matrix, tmp_path / f"{name}.otml")
    doc = {
        "schema_version": 1,
        "d": d,
        "entities": [
            {"id": "eA", "text_path": "ea_t.otml", "visual_path": "ea_v.otml"},
            {"id": "eB", "text_path": "eb_t.otml", "visual_path": "eb_v.otml"},
        ],
        "mentions": [
            {
                "id": "m1",
                "text_path": "m_t.otml",
                "visual_path": "m_v.otml",
                "gold_entity": "eA",
            }
        ],
    }
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestAblations:
    def test_dropping_unimodal_cues_hurts(self, capsys, tmp_path):
        manifest = write_ambiguous_manifest(tmp_path)
        _, full_out, _ = run(capsys, "link", manifest)
        _, ablated_out, _ = run(capsys, "link", manifest, "--ablation", "no_unim")

        def h1(out):
            return float(next(l for l in out.splitlines() if l.startswith("H@1=")).split("=")[1])

        assert h1(full_out) == 100.0
        assert h1(ablated_out) < h1(full_out)

    def test_conflicting_ablations_exit_4(self, capsys, fixture_manifest):
        code, _, _ = run(
            capsys, "link", fixture_manifest,
            "--ablation", "no_unim", "--ablation", "no_fusm",
        )
        assert code == 4


class TestDistillGap:
    def test_reports_six_sites(self, capsys, fixture_manifest):
        code, out, _ = run(capsys, "distill-gap", fixture_manifest)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "site,mean_kd"
        sites = [line.split(",")[0] for line in lines[1:7]]
        assert sites == ["m_v2t", "m_t2v", "e_v2t", "e_t2v", "m2e_text", "m2e_visual"]
        assert lines[7].startswith("# mean_over_sites=")

    def test_empty_manifest_exit_5(self, capsys, tmp_path):
        doc = {"schema_version": 1, "d": 4, "entities": [], "mentions": []}
        path = tmp_path / "empty.json"
        path.write_text(json.dumps(doc))
        code, _, _ = run(capsys, "distill-gap", str(path))
        assert code == 5

    def test_trained_projections_reduce_report(self, capsys, tmp_path):
        spec = FixtureSpec(
            seed=11, d=6, n_entities=3, n_mentions=3, text_len=3, visual_len=3,
            noise_sigma=0.3,
        )
        manifest = str(generate_fixtures(spec, tmp_path / "fix"))
        proj_dir = str(tmp_path / "trained")
        code, _, _ = run(
            capsys, "train-toy", manifest, "--steps", "6", "--lr", "2.0",
            "--objective", "kd", "--save-proj", proj_dir,
        )
        assert code == 0

        def mean_gap(*argv):
            _, out, _ = run(capsys, "distill-gap", *argv)
            return float(out.strip().splitlines()[-1].split("=")[1])

        untrained = mean_gap(manifest)
        trained = mean_gap(manifest, "--proj", proj_dir)
        assert trained < untrained


class TestLoss:
    def test_prints_components(self, capsys, fixture_manifest):
        code, out, _ = run(capsys, "loss", fixture_manifest, "--objective", "kd")
        lines = out.strip().splitlines()
        assert code == 0
        assert lines[0] == "L_F,L_T,L_V,L_O,L_KD,J"
        values = dict(zip(lines[0].split(","), map(float, lines[1].split(","))))
        assert values["J"] == pytest.approx(
            values["L_F"] + values["L_T"] + values["L_V"] + values["L_O"] + values["L_KD"],
            abs=1e-9,
        )


class TestGenFixtures:
    def test_deterministic_trees(self, capsys, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"seed": 3, "d": 10, "n_entities": 2, "n_mentions": 2}))
        code1, out1, _ = run(capsys, "gen-fixtures", str(spec_path), str(tmp_path / "a"))
        code2, out2, _ = run(capsys, "gen-fixtures", str(spec_path), str(tmp_path / "b"))
        assert code1 == code2 == 0
        a_files = sorted(p.relative_to(tmp_path / "a") for p in (tmp_path / "a").rglob("*") if p.is_file())
        b_files = sorted(p.relative_to(tmp_path / "b") for p in (tmp_path / "b").rglob("*") if p.is_file())
        assert a_files == b_files
        for rel in a_files:
            assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()

    def test_bad_spec_exit_2(self, capsys, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"d": 10}))
        code, _, _ = run(capsys, "gen-fixtures", str(spec_path), str(tmp_path / "out"))
        assert code == 2

    @pytest.mark.parametrize(
        "text", ['{"seed": 1, "d": 4.5}', '{"seed": 1, "latent_scale": NaN}']
    )
    def test_invalid_spec_value_exit_4_before_writing(self, capsys, tmp_path, text):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(text)
        out = tmp_path / "out"
        code, _, err = run(capsys, "gen-fixtures", str(spec_path), str(out))
        assert code == 4
        assert "error:" in err
        assert not out.exists()


class TestTrainToy:
    @pytest.fixture
    def toy_manifest(self, tmp_path):
        spec = FixtureSpec(
            seed=13, d=4, n_entities=2, n_mentions=2, text_len=3, visual_len=3,
            noise_sigma=0.2,
        )
        return str(generate_fixtures(spec, tmp_path / "toy"))

    def test_zero_steps_emits_initial_row_only(self, capsys, toy_manifest):
        code, out, _ = run(capsys, "train-toy", toy_manifest, "--steps", "0")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "step,L_F,L_T,L_V,L_O,L_KD,J"
        assert len(lines) == 2
        assert lines[1].startswith("0,")

    def test_descends_to_below_90_percent(self, capsys, toy_manifest):
        code, out, _ = run(
            capsys, "train-toy", toy_manifest, "--steps", "12", "--lr", "2.0"
        )
        assert code == 0
        rows = out.strip().splitlines()[1:]
        first = float(rows[0].split(",")[-1])
        last = float(rows[-1].split(",")[-1])
        assert last < 0.9 * first

    def test_size_guard_exit_4(self, capsys, tmp_path):
        spec = FixtureSpec(seed=1, d=20, n_entities=2, n_mentions=2)
        manifest = str(generate_fixtures(spec, tmp_path / "big"))
        code, _, _ = run(capsys, "train-toy", manifest, "--steps", "1")
        assert code == 4


@pytest.fixture
def kd_manifest(tmp_path):
    # The manifest on which teacher plans solved at ranking's tolerance
    # moved the kd objective in its 10th digit.
    spec = FixtureSpec(
        seed=3, d=8, n_entities=4, n_mentions=4, text_len=4, visual_len=4,
        noise_sigma=0.3,
    )
    return str(generate_fixtures(spec, tmp_path / "kd"))


class TestRunSettings:
    """Every subcommand resolves its settings through one path."""

    def test_solve_defaults_are_the_library_solver_defaults(self, capsys, cost_csv):
        _, default, _ = run(capsys, "solve", cost_csv)
        _, explicit, _ = run(
            capsys, "solve", cost_csv, "--lambda", "0.6", "--tol", "1e-6",
            "--max-iter", "1000",
        )
        assert default == explicit

    def test_assign_defaults_are_the_library_solver_defaults(self, capsys, kd_manifest):
        mentions = Path(kd_manifest).parent / "mentions"
        files = (str(mentions / "m0000_text.otml"), str(mentions / "m0000_visual.otml"))
        _, default, _ = run(capsys, "assign", *files)
        _, explicit, _ = run(
            capsys, "assign", *files, "--mechanism", "ot", "--lambda", "0.6",
            "--tol", "1e-6", "--max-iter", "1000",
        )
        assert default == explicit

    def test_train_toy_defaults_to_the_training_tolerance(self, capsys, kd_manifest):
        _, default, _ = run(capsys, "train-toy", kd_manifest, "--steps", "0")
        _, explicit, _ = run(
            capsys, "train-toy", kd_manifest, "--steps", "0", "--tol", "1e-9"
        )
        assert default == explicit

    @pytest.mark.parametrize("objective", ["ot", "kd"])
    def test_loss_row_is_the_trainers_starting_row(self, capsys, kd_manifest, objective):
        code, loss_out, _ = run(capsys, "loss", kd_manifest, "--objective", objective)
        assert code == 0
        _, train_out, _ = run(
            capsys, "train-toy", kd_manifest, "--steps", "0", "--objective", objective
        )
        assert train_out.splitlines()[1] == "0," + loss_out.splitlines()[1]

    def test_loss_config_file_then_flag(self, capsys, kd_manifest, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"tol": 1e-6}))
        kd = ("--objective", "kd")
        _, from_file, _ = run(capsys, "loss", kd_manifest, *kd, "--config", str(cfg))
        _, from_flag, _ = run(capsys, "loss", kd_manifest, *kd, "--tol", "1e-6")
        assert from_file == from_flag
        _, flag_wins, _ = run(
            capsys, "loss", kd_manifest, *kd, "--config", str(cfg), "--tol", "1e-9"
        )
        _, default, _ = run(capsys, "loss", kd_manifest, *kd)
        assert flag_wins == default != from_file


class TestInputErrors:
    """Unreadable input exits 2, unresolvable references 5, unwritable output 6."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("link", "{missing}"),
            ("link", "{manifest}", "--proj", "{missing}"),
            ("link", "{manifest}", "--config", "{missing}"),
            ("assign", "{missing}", "{missing}"),
            ("gen-fixtures", "{missing}", "{out}"),
        ],
    )
    def test_missing_command_line_file_exit_2(
        self, capsys, tmp_path, fixture_manifest, argv
    ):
        names = {
            "missing": str(tmp_path / "nonexist.json"),
            "manifest": fixture_manifest,
            "out": str(tmp_path / "out"),
        }
        code, _, err = run(capsys, *(a.format(**names) for a in argv))
        assert code == 2
        assert "nonexist.json" in err

    def test_manifest_naming_a_missing_file_exit_5(self, capsys, fixture_manifest):
        doc = json.loads(Path(fixture_manifest).read_text())
        (Path(fixture_manifest).parent / doc["mentions"][0]["text_path"]).unlink()
        code, _, err = run(capsys, "link", fixture_manifest)
        assert code == 5
        assert doc["mentions"][0]["text_path"] in err

    def test_projections_index_naming_a_missing_file_exit_5(
        self, capsys, tmp_path, fixture_manifest
    ):
        from otmel.correlation import identity_projections
        from otmel.data_io import save_projections

        index = save_projections(identity_projections(12), tmp_path / "proj")
        (index.parent / "m_v2t.w_q.otml").unlink()
        code, _, _ = run(capsys, "link", fixture_manifest, "--proj", str(index))
        assert code == 5

    def test_malformed_manifest_or_projections_index_exit_2(
        self, capsys, tmp_path, fixture_manifest
    ):
        # Wrong JSON types are unparseable input, reported without a traceback.
        doc = json.loads(Path(fixture_manifest).read_text())
        bad = Path(fixture_manifest).with_name("bad.json")
        bad.write_text(json.dumps({**doc, "entities": 5}))
        code, _, err = run(capsys, "link", str(bad))
        assert code == 2
        assert str(bad) in err and "'entities'" in err

        index = tmp_path / "projections.json"
        index.write_text(json.dumps({"sites": []}))
        code, _, err = run(capsys, "link", fixture_manifest, "--proj", str(index))
        assert code == 2
        assert str(index) in err and "'sites'" in err

    # TestDistillGap covers distill-gap.
    @pytest.mark.parametrize(
        "argv",
        [("train-toy", "--steps", "1"), ("loss",), ("link",), ("link", "--no-metrics")],
    )
    def test_manifest_without_mentions_exit_5(self, capsys, tmp_path, argv):
        doc = {"schema_version": 1, "d": 4, "entities": [], "mentions": []}
        path = tmp_path / "empty.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, argv[0], str(path), *argv[1:])
        assert code == 5
        assert out == ""
        assert "no mentions" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("gen-fixtures", "{spec}", "{blocked}"),
            ("train-toy", "{manifest}", "--steps", "0", "--save-proj", "{blocked}"),
        ],
    )
    def test_unwritable_output_exit_6(self, capsys, tmp_path, fixture_manifest, argv):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"seed": 3, "d": 10, "n_entities": 2, "n_mentions": 2}))
        # A path under a regular file can be neither a directory nor a file.
        (tmp_path / "afile").write_text("")
        names = {
            "spec": str(spec),
            "manifest": fixture_manifest,
            "blocked": str(tmp_path / "afile" / "out"),
        }
        code, _, err = run(capsys, *(a.format(**names) for a in argv))
        assert code == 6
        assert "cannot write" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("distill-gap", "--mechanism", "ot"),
            ("distill-gap", "--pool", "max"),
            ("distill-gap", "--ablation", "no_unim"),
            ("distill-gap", "--threads", "2"),
            ("loss", "--mechanism", "ot"),
            ("loss", "--threads", "2"),
            ("link", "--threads", "2"),
        ],
    )
    def test_run_flag_the_command_ignores_is_rejected(self, fixture_manifest, argv):
        with pytest.raises(SystemExit) as exc:
            main([argv[0], fixture_manifest, *argv[1:]])
        assert exc.value.code == 2

    def test_config_ablations_must_be_a_list(self, capsys, fixture_manifest, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"ablations": "no_fusm"}))
        code, _, err = run(capsys, "link", fixture_manifest, "--config", str(cfg))
        assert code == 2
        assert "ablations" in err and "list" in err
