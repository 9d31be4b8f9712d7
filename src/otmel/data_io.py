"""Binary feature files, dataset manifests, and projection-table storage.

The feature-file layout is normative and bit-exact: 4 magic bytes
``OTML``, then three little-endian uint32 fields (format version, rows,
columns), then rows*cols IEEE-754 float32 values, little-endian,
row-major. Values are widened to float64 on read. The manifest is a JSON
document validated eagerly; see docs/file_formats.md for both schemas.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .correlation import AssignmentSite, ProjectionTable
from .errors import (
    BadMagicError,
    DataError,
    DimensionError,
    NonFinitePayloadError,
    ParseError,
    TruncatedPayloadError,
    UnsupportedVersionError,
)
from .types import (
    EntityRecord,
    FeatureMatrix,
    MentionRecord,
    ProjectionSet,
    validate_record,
)

MAGIC = b"OTML"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<4sIII")

MANIFEST_SCHEMA_VERSION = 1
PROJECTIONS_FILENAME = "projections.json"


def write_feature_file(matrix: FeatureMatrix, path) -> None:
    """Write a matrix in the binary feature format (float32 payload)."""
    if not np.isfinite(matrix.data).all():
        raise NonFinitePayloadError(f"refusing to write non-finite values to {path}")
    payload = matrix.data.astype("<f4").tobytes(order="C")
    header = _HEADER.pack(MAGIC, FORMAT_VERSION, matrix.rows, matrix.cols)
    Path(path).write_bytes(header + payload)


def read_feature_file(path) -> FeatureMatrix:
    """Read a feature file, widening the payload to float64."""
    blob = Path(path).read_bytes()
    if len(blob) < _HEADER.size:
        raise TruncatedPayloadError(f"{path}: file shorter than the 16-byte header")
    magic, version, rows, cols = _HEADER.unpack_from(blob)
    if magic != MAGIC:
        raise BadMagicError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
    if version != FORMAT_VERSION:
        raise UnsupportedVersionError(
            f"{path}: format version {version}, reader supports {FORMAT_VERSION}"
        )
    expected = rows * cols * 4
    actual = len(blob) - _HEADER.size
    if actual != expected:
        raise TruncatedPayloadError(
            f"{path}: header promises {expected} payload bytes, found {actual}"
        )
    values = np.frombuffer(blob, dtype="<f4", offset=_HEADER.size)
    data = values.astype(np.float64).reshape(rows, cols)
    if not np.isfinite(data).all():
        raise NonFinitePayloadError(f"{path}: payload contains non-finite values")
    return FeatureMatrix(data)


@dataclass(frozen=True)
class Dataset:
    """A fully loaded and validated manifest."""

    entities: tuple[EntityRecord, ...]
    mentions: tuple[MentionRecord, ...]
    d: int

    def __post_init__(self):
        object.__setattr__(self, "entity_index", {e.id: e for e in self.entities})

    def entity(self, entity_id: str) -> EntityRecord:
        try:
            return self.entity_index[entity_id]
        except KeyError:
            raise DataError(f"unknown entity id {entity_id!r}") from None

    def gold_of(self, mention: MentionRecord) -> EntityRecord:
        if mention.gold_entity is None:
            raise DataError(f"mention {mention.id!r} has no gold entity")
        return self.entity(mention.gold_entity)


def _manifest_field(doc: dict, key: str, path):
    try:
        return doc[key]
    except KeyError:
        raise ParseError(f"{path}: manifest is missing required key {key!r}") from None


def _read_named(path: Path) -> FeatureMatrix:
    """Read a feature file that a manifest or index names; unreadable is a DataError."""
    try:
        return read_feature_file(path)
    except OSError as exc:
        raise DataError(f"{path}: named file cannot be read ({exc.strerror})") from exc


def _load_record_matrices(base: Path, item: dict, path):
    for key in ("id", "text_path", "visual_path"):
        if key not in item:
            raise ParseError(f"{path}: record entry is missing {key!r}")
    text = _read_named(base / item["text_path"])
    visual = _read_named(base / item["visual_path"])
    return item["id"], text, visual


def load_manifest(path) -> Dataset:
    """Load a manifest and all files it references, validating eagerly.

    Every record must pass validation, share the manifest's feature
    dimension, and carry a unique id; every mention's gold entity must
    resolve.
    """
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: manifest must be a JSON object")
    version = _manifest_field(doc, "schema_version", path)
    if version != MANIFEST_SCHEMA_VERSION:
        raise ParseError(
            f"{path}: manifest schema_version {version}, expected {MANIFEST_SCHEMA_VERSION}"
        )
    d = _manifest_field(doc, "d", path)
    base = path.parent

    entities = []
    seen_ids: set[str] = set()
    for item in _manifest_field(doc, "entities", path):
        rid, text, visual = _load_record_matrices(base, item, path)
        if rid in seen_ids:
            raise DataError(f"duplicate entity id {rid!r}")
        seen_ids.add(rid)
        entities.append(EntityRecord(id=rid, text=text, visual=visual))

    mentions = []
    mention_ids: set[str] = set()
    for item in _manifest_field(doc, "mentions", path):
        rid, text, visual = _load_record_matrices(base, item, path)
        if rid in mention_ids:
            raise DataError(f"duplicate mention id {rid!r}")
        mention_ids.add(rid)
        mentions.append(
            MentionRecord(
                id=rid, text=text, visual=visual, gold_entity=item.get("gold_entity")
            )
        )

    entity_ids = {e.id for e in entities}
    for record in [*entities, *mentions]:
        issues = validate_record(record)
        if issues:
            raise DataError(
                f"record {record.id!r} is invalid: "
                + "; ".join(issue.message for issue in issues)
            )
        for mat in (record.text, record.visual):
            if mat.cols != d:
                raise DimensionError(
                    f"record {record.id!r} has d={mat.cols}, manifest declares d={d}"
                )
    for mention in mentions:
        gold = mention.gold_entity
        if gold is not None and gold not in entity_ids:
            raise DataError(
                f"mention {mention.id!r} names gold entity {gold!r}, "
                "which the manifest does not define"
            )

    return Dataset(entities=tuple(entities), mentions=tuple(mentions), d=int(d))


def save_projections(table: ProjectionTable, directory) -> Path:
    """Write one feature file per matrix plus an index; returns the index path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    dims = {p.dim for p in table.values()}
    if len(dims) != 1:
        raise DimensionError(f"projection table mixes dimensions: {sorted(dims)}")
    sites_doc = {}
    for site in sorted(table, key=lambda s: s.value):
        proj = table[site]
        entry = {}
        for name in ("w_q", "w_k", "w_h"):
            filename = f"{site.value}.{name}.otml"
            write_feature_file(FeatureMatrix(getattr(proj, name)), directory / filename)
            entry[name] = filename
        sites_doc[site.value] = entry
    index = {
        "schema_version": MANIFEST_SCHEMA_VERSION,
        "d": int(next(iter(dims))),
        "sites": sites_doc,
    }
    index_path = directory / PROJECTIONS_FILENAME
    index_path.write_text(json.dumps(index, indent=2, sort_keys=True) + "\n")
    return index_path


def load_projections(path) -> ProjectionTable:
    """Load a projection table from its index file (or containing directory)."""
    path = Path(path)
    if path.is_dir():
        path = path / PROJECTIONS_FILENAME
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON ({exc})") from exc
    sites = _manifest_field(doc, "sites", path)
    base = path.parent
    table: ProjectionTable = {}
    for site_value, entry in sites.items():
        try:
            site = AssignmentSite(site_value)
        except ValueError:
            raise ParseError(f"{path}: unknown assignment site {site_value!r}") from None
        mats = {
            name: _read_named(base / entry[name]).data
            for name in ("w_q", "w_k", "w_h")
        }
        table[site] = ProjectionSet(site=site.value, **mats)
    return table
