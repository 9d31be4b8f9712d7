import json
import struct

import numpy as np
import pytest

from otmel.correlation import AssignmentSite, default_projections
from otmel.data_io import (
    FORMAT_VERSION,
    MAGIC,
    load_manifest,
    load_projections,
    read_feature_file,
    save_projections,
    write_feature_file,
)
from otmel.errors import (
    BadMagicError,
    DataError,
    DimensionError,
    NonFinitePayloadError,
    ParseError,
    TruncatedPayloadError,
    UnsupportedVersionError,
)
from otmel.types import FeatureMatrix


def f32(rng, rows, cols):
    """Random matrix already quantized to float32 values."""
    return rng.standard_normal((rows, cols)).astype(np.float32).astype(np.float64)


class TestFeatureFileRoundTrip:
    def test_write_read_values(self, rng, tmp_path):
        m = FeatureMatrix(f32(rng, 3, 4))
        path = tmp_path / "m.otml"
        write_feature_file(m, path)
        back = read_feature_file(path)
        np.testing.assert_array_equal(back.data, m.data)
        assert back.data.dtype == np.float64

    def test_write_read_write_is_byte_identical(self, rng, tmp_path):
        m = FeatureMatrix(rng.standard_normal((5, 7)))
        first = tmp_path / "a.otml"
        second = tmp_path / "b.otml"
        write_feature_file(m, first)
        write_feature_file(read_feature_file(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_header_layout(self, rng, tmp_path):
        m = FeatureMatrix(f32(rng, 2, 3))
        path = tmp_path / "m.otml"
        write_feature_file(m, path)
        blob = path.read_bytes()
        magic, version, rows, cols = struct.unpack_from("<4sIII", blob)
        assert magic == MAGIC == b"OTML"
        assert version == FORMAT_VERSION == 1
        assert (rows, cols) == (2, 3)
        assert len(blob) == 16 + 2 * 3 * 4
        payload = np.frombuffer(blob, dtype="<f4", offset=16).reshape(2, 3)
        np.testing.assert_array_equal(payload.astype(np.float64), m.data)

    def test_write_rejects_non_finite(self, tmp_path):
        m = FeatureMatrix([[np.inf, 1.0]])
        with pytest.raises(NonFinitePayloadError):
            write_feature_file(m, tmp_path / "bad.otml")


class TestFeatureFileErrors:
    def _write(self, tmp_path, blob):
        path = tmp_path / "f.otml"
        path.write_bytes(blob)
        return path

    def test_bad_magic(self, tmp_path):
        blob = struct.pack("<4sIII", b"XXXX", 1, 1, 1) + b"\x00" * 4
        with pytest.raises(BadMagicError):
            read_feature_file(self._write(tmp_path, blob))

    def test_version_mismatch(self, tmp_path):
        blob = struct.pack("<4sIII", b"OTML", 2, 1, 1) + b"\x00" * 4
        with pytest.raises(UnsupportedVersionError):
            read_feature_file(self._write(tmp_path, blob))

    def test_truncated_payload(self, tmp_path):
        blob = struct.pack("<4sIII", b"OTML", 1, 2, 2) + b"\x00" * 8
        with pytest.raises(TruncatedPayloadError):
            read_feature_file(self._write(tmp_path, blob))

    def test_oversized_payload(self, tmp_path):
        blob = struct.pack("<4sIII", b"OTML", 1, 1, 1) + b"\x00" * 8
        with pytest.raises(TruncatedPayloadError):
            read_feature_file(self._write(tmp_path, blob))

    def test_short_header(self, tmp_path):
        with pytest.raises(TruncatedPayloadError):
            read_feature_file(self._write(tmp_path, b"OTM"))

    def test_non_finite_payload(self, tmp_path):
        payload = struct.pack("<f", float("nan"))
        blob = struct.pack("<4sIII", b"OTML", 1, 1, 1) + payload
        with pytest.raises(NonFinitePayloadError):
            read_feature_file(self._write(tmp_path, blob))


def write_manifest_tree(tmp_path, rng, d=6, gold="e1"):
    def dump(name, rows):
        m = FeatureMatrix(f32(rng, rows, d))
        write_feature_file(m, tmp_path / name)
        return name

    doc = {
        "schema_version": 1,
        "d": d,
        "entities": [
            {"id": "e1", "text_path": dump("e1t.otml", 3), "visual_path": dump("e1v.otml", 4)},
            {"id": "e2", "text_path": dump("e2t.otml", 2), "visual_path": dump("e2v.otml", 5)},
        ],
        "mentions": [
            {
                "id": "m1",
                "text_path": dump("m1t.otml", 3),
                "visual_path": dump("m1v.otml", 3),
                "gold_entity": gold,
            }
        ],
    }
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(doc))
    return path, doc


class TestManifest:
    def test_loads_counts(self, rng, tmp_path):
        path, _ = write_manifest_tree(tmp_path, rng)
        ds = load_manifest(path)
        assert (len(ds.entities), len(ds.mentions)) == (2, 1)
        assert ds.d == 6
        assert ds.gold_of(ds.mentions[0]).id == "e1"

    def test_unresolved_gold_names_both_ids(self, rng, tmp_path):
        path, _ = write_manifest_tree(tmp_path, rng, gold="missing")
        with pytest.raises(DataError, match="m1"):
            load_manifest(path)
        try:
            load_manifest(path)
        except DataError as exc:
            assert "missing" in str(exc)

    def test_dimension_drift(self, rng, tmp_path):
        # Internally consistent record whose d disagrees with the manifest.
        path, doc = write_manifest_tree(tmp_path, rng)
        write_feature_file(FeatureMatrix(f32(rng, 3, 7)), tmp_path / "odd_t.otml")
        write_feature_file(FeatureMatrix(f32(rng, 4, 7)), tmp_path / "odd_v.otml")
        doc["entities"][0]["text_path"] = "odd_t.otml"
        doc["entities"][0]["visual_path"] = "odd_v.otml"
        path.write_text(json.dumps(doc))
        with pytest.raises(DimensionError):
            load_manifest(path)

    def test_intra_record_mismatch_is_data_error(self, rng, tmp_path):
        path, doc = write_manifest_tree(tmp_path, rng)
        write_feature_file(FeatureMatrix(f32(rng, 3, 7)), tmp_path / "odd_t.otml")
        doc["entities"][0]["text_path"] = "odd_t.otml"
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match="invalid"):
            load_manifest(path)

    def test_duplicate_ids(self, rng, tmp_path):
        path, doc = write_manifest_tree(tmp_path, rng)
        doc["entities"].append(dict(doc["entities"][0]))
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match="duplicate"):
            load_manifest(path)

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text("{not json")
        with pytest.raises(ParseError):
            load_manifest(path)

    def test_schema_version_checked(self, rng, tmp_path):
        path, doc = write_manifest_tree(tmp_path, rng)
        doc["schema_version"] = 9
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError):
            load_manifest(path)

    @pytest.mark.parametrize(
        "change, field",
        [
            (lambda doc: doc.update(entities=5), "'entities' must be a JSON list"),
            (lambda doc: doc.update(mentions={}), "'mentions' must be a JSON list"),
            (lambda doc: doc["entities"].append(5), "entities entry 2 must be a JSON object"),
            (lambda doc: doc["mentions"][0].update(id=5), "'id' must be a JSON string"),
            (lambda doc: doc["mentions"][0].update(gold_entity=5), "'gold_entity'"),
            (lambda doc: doc.update(d="6"), "'d' must be a JSON integer"),
            (lambda doc: doc.update(d=True), "'d' must be a JSON integer"),
            (lambda doc: doc.update(d=0), "'d' must be a positive integer"),
            (lambda doc: doc.update(schema_version=True), "'schema_version'"),
        ],
        ids=["entities-int", "mentions-object", "entry-int", "id-int", "gold-int",
             "d-string", "d-true", "d-zero", "version-true"],
    )
    def test_wrong_json_type_is_parse_error(self, rng, tmp_path, change, field):
        path, doc = write_manifest_tree(tmp_path, rng)
        change(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match=field) as exc:
            load_manifest(path)
        assert str(path) in str(exc.value)

    def test_gold_optional(self, rng, tmp_path):
        path, doc = write_manifest_tree(tmp_path, rng)
        del doc["mentions"][0]["gold_entity"]
        path.write_text(json.dumps(doc))
        ds = load_manifest(path)
        assert ds.mentions[0].gold_entity is None


class TestProjectionsStorage:
    def test_round_trip(self, tmp_path):
        table = default_projections(5, seed=9)
        index = save_projections(table, tmp_path / "proj")
        back = load_projections(index)
        assert set(back) == set(AssignmentSite)
        for site in AssignmentSite:
            for name in ("w_q", "w_k", "w_h"):
                got = getattr(back[site], name)
                want = getattr(table[site], name).astype(np.float32).astype(np.float64)
                np.testing.assert_array_equal(got, want)

    def test_load_from_directory(self, tmp_path):
        table = default_projections(4, seed=1)
        save_projections(table, tmp_path / "proj")
        back = load_projections(tmp_path / "proj")
        assert back[AssignmentSite.MENTION_VISUAL_TO_TEXT].dim == 4

    def test_unknown_site_rejected(self, tmp_path):
        table = default_projections(4, seed=1)
        index = save_projections(table, tmp_path / "proj")
        doc = json.loads(index.read_text())
        doc["sites"]["bogus"] = doc["sites"].pop("m_v2t")
        index.write_text(json.dumps(doc))
        with pytest.raises(ParseError):
            load_projections(index)

    @pytest.mark.parametrize(
        "change, field",
        [
            (lambda doc: [doc], "projections index must be a JSON object"),
            (lambda doc: {**doc, "sites": list(doc["sites"])}, "'sites' must be"),
            (
                lambda doc: {**doc, "sites": {**doc["sites"], "m_v2t": "m_v2t.w_q.otml"}},
                "site 'm_v2t' must be a JSON object",
            ),
            (
                lambda doc: {
                    **doc,
                    "sites": {**doc["sites"], "m_v2t": {"w_k": "a.otml", "w_h": "b.otml"}},
                },
                "site 'm_v2t' is missing required key 'w_q'",
            ),
            (
                lambda doc: {
                    **doc,
                    "sites": {**doc["sites"], "m_v2t": {**doc["sites"]["m_v2t"], "w_k": 1}},
                },
                "'w_k' must be a JSON string",
            ),
            (lambda doc: {**doc, "schema_version": 9}, "schema_version 9, expected 1"),
            (
                lambda doc: {**doc, "schema_version": True},
                "'schema_version' must be a JSON integer",
            ),
            (
                lambda doc: {k: v for k, v in doc.items() if k != "schema_version"},
                "missing required key 'schema_version'",
            ),
            (lambda doc: {**doc, "d": 99}, "field 'd' is 99, but site"),
            (lambda doc: {**doc, "schema_version": 9, "d": 99}, "schema_version 9"),
            (lambda doc: {**doc, "d": "4"}, "'d' must be a JSON integer"),
            (lambda doc: {**doc, "d": 4.0}, "'d' must be a JSON integer"),
            (
                lambda doc: {k: v for k, v in doc.items() if k != "d"},
                "missing required key 'd'",
            ),
        ],
        ids=[
            "index-list", "sites-list", "site-string", "site-without-w_q", "w_k-int",
            "schema-9", "schema-true", "schema-missing", "d-99", "schema-9-d-99",
            "d-string", "d-float", "d-missing",
        ],
    )
    def test_malformed_index_is_parse_error(self, tmp_path, change, field):
        index = save_projections(default_projections(4, seed=1), tmp_path / "proj")
        index.write_text(json.dumps(change(json.loads(index.read_text()))))
        with pytest.raises(ParseError, match=field) as exc:
            load_projections(index)
        assert str(index) in str(exc.value)
