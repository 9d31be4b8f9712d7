import numpy as np
import pytest

from otmel.errors import DimensionError, NonFiniteError
from otmel.types import (
    EntityRecord,
    FeatureMatrix,
    MentionRecord,
    ProjectionSet,
    validate_record,
)


class TestFeatureMatrix:
    def test_shape_and_summary(self, rng):
        m = FeatureMatrix(rng.standard_normal((3, 4)))
        assert (m.rows, m.cols) == (3, 4)
        np.testing.assert_array_equal(m.summary, m.data[0])

    def test_rejects_non_2d(self):
        with pytest.raises(DimensionError):
            FeatureMatrix(np.zeros(5))
        with pytest.raises(DimensionError):
            FeatureMatrix(np.zeros((2, 2, 2)))

    def test_immutable(self, rng):
        m = FeatureMatrix(rng.standard_normal((2, 2)))
        with pytest.raises(ValueError):
            m.data[0, 0] = 1.0

    def test_does_not_alias_input(self):
        raw = np.zeros((2, 2))
        m = FeatureMatrix(raw)
        raw[0, 0] = 7.0
        assert m.data[0, 0] == 0.0

    def test_non_finite_values_are_representable(self):
        # Validation reports them; construction must not refuse.
        m = FeatureMatrix([[np.nan, 1.0]])
        assert m.rows == 1


class TestProjectionSet:
    def test_dim(self, rng):
        p = ProjectionSet(*(rng.standard_normal((4, 4)) for _ in range(3)))
        assert p.dim == 4

    def test_rejects_non_square(self, rng):
        with pytest.raises(DimensionError):
            ProjectionSet(np.zeros((2, 3)), np.zeros((3, 3)), np.zeros((3, 3)))

    def test_rejects_mixed_dims(self):
        with pytest.raises(DimensionError):
            ProjectionSet(np.eye(2), np.eye(3), np.eye(3))

    def test_rejects_non_finite(self):
        bad = np.eye(3)
        bad[1, 1] = np.inf
        with pytest.raises(NonFiniteError):
            ProjectionSet(np.eye(3), bad, np.eye(3))

    def test_replace_swaps_one_matrix(self, rng):
        p = ProjectionSet(np.eye(3), np.eye(3), np.eye(3))
        q = p.replace(w_k=2 * np.eye(3))
        np.testing.assert_array_equal(q.w_q, np.eye(3))
        np.testing.assert_array_equal(q.w_k, 2 * np.eye(3))


def _record(text, visual):
    return MentionRecord(
        id="m", text=FeatureMatrix(text), visual=FeatureMatrix(visual)
    )


class TestValidateRecord:
    def test_valid_record_empty_report(self, rng):
        rec = _record(rng.standard_normal((3, 96)), rng.standard_normal((4, 96)))
        assert validate_record(rec) == []

    def test_dimension_mismatch(self, rng):
        rec = _record(rng.standard_normal((3, 96)), rng.standard_normal((4, 64)))
        issues = validate_record(rec)
        assert [i.kind for i in issues] == ["dimension-mismatch"]
        assert "96" in issues[0].message and "64" in issues[0].message

    def test_nan_names_coordinate(self, rng):
        text = rng.standard_normal((4, 5))
        text[2, 3] = np.nan
        rec = _record(text, rng.standard_normal((4, 5)))
        issues = validate_record(rec)
        assert [i.kind for i in issues] == ["non-finite"]
        assert "(2,3)" in issues[0].message

    def test_empty_matrix(self, rng):
        rec = _record(np.zeros((0, 5)), rng.standard_normal((2, 5)))
        issues = validate_record(rec)
        assert [i.kind for i in issues] == ["empty-matrix"]

    def test_reports_every_violation(self, rng):
        text = rng.standard_normal((2, 5))
        text[0, 0] = np.inf
        rec = _record(text, rng.standard_normal((2, 6)))
        kinds = {i.kind for i in validate_record(rec)}
        assert kinds == {"non-finite", "dimension-mismatch"}

    def test_entity_record_supported(self, rng):
        rec = EntityRecord(
            id="e",
            text=FeatureMatrix(rng.standard_normal((2, 4))),
            visual=FeatureMatrix(rng.standard_normal((2, 4))),
        )
        assert validate_record(rec) == []
