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


_JSON_TYPES = {int: "integer", str: "string", list: "list", dict: "object"}


def _field(doc: dict, key: str, kind: type, path, where: str = "manifest"):
    """``doc[key]``, which must be present and of JSON type ``kind``."""
    if key not in doc:
        raise ParseError(f"{path}: {where} is missing required key {key!r}")
    value = doc[key]
    # A JSON boolean loads as a Python bool, which is an int.
    if not isinstance(value, kind) or isinstance(value, bool):
        name = _JSON_TYPES[kind]
        raise ParseError(f"{path}: {where} field {key!r} must be a JSON {name}")
    return value


def _read_named(path: Path) -> FeatureMatrix:
    """Read a feature file that a manifest or index names; unreadable is a DataError."""
    try:
        return read_feature_file(path)
    except OSError as exc:
        raise DataError(f"{path}: named file cannot be read ({exc.strerror})") from exc


def _load_records(doc: dict, section: str, base: Path, path):
    """Yield (entry, id, text, visual) for each record listed under ``section``."""
    for i, item in enumerate(_field(doc, section, list, path)):
        where = f"{section} entry {i}"
        if not isinstance(item, dict):
            raise ParseError(f"{path}: {where} must be a JSON object")
        rid, text_path, visual_path = (
            _field(item, key, str, path, where)
            for key in ("id", "text_path", "visual_path")
        )
        yield item, rid, _read_named(base / text_path), _read_named(base / visual_path)


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
    version = _field(doc, "schema_version", int, path)
    if version != MANIFEST_SCHEMA_VERSION:
        raise ParseError(
            f"{path}: manifest schema_version {version}, expected {MANIFEST_SCHEMA_VERSION}"
        )
    d = _field(doc, "d", int, path)
    if d < 1:
        raise ParseError(f"{path}: manifest field 'd' must be a positive integer")
    base = path.parent

    entities = []
    seen_ids: set[str] = set()
    for _, rid, text, visual in _load_records(doc, "entities", base, path):
        if rid in seen_ids:
            raise DataError(f"duplicate entity id {rid!r}")
        seen_ids.add(rid)
        entities.append(EntityRecord(id=rid, text=text, visual=visual))

    mentions = []
    mention_ids: set[str] = set()
    for item, rid, text, visual in _load_records(doc, "mentions", base, path):
        if rid in mention_ids:
            raise DataError(f"duplicate mention id {rid!r}")
        mention_ids.add(rid)
        gold = item.get("gold_entity")
        if gold is not None and not isinstance(gold, str):
            raise ParseError(
                f"{path}: mention {rid!r} field 'gold_entity' must be a JSON string"
            )
        mentions.append(MentionRecord(id=rid, text=text, visual=visual, gold_entity=gold))

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

    return Dataset(entities=tuple(entities), mentions=tuple(mentions), d=d)


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
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: projections index must be a JSON object")
    sites = _field(doc, "sites", dict, path, "projections index")
    version = _field(doc, "schema_version", int, path, "projections index")
    if version != MANIFEST_SCHEMA_VERSION:
        raise ParseError(
            f"{path}: projections index schema_version {version}, "
            f"expected {MANIFEST_SCHEMA_VERSION}"
        )
    d = _field(doc, "d", int, path, "projections index")
    base = path.parent
    table: ProjectionTable = {}
    for site_value, entry in sites.items():
        try:
            site = AssignmentSite(site_value)
        except ValueError:
            raise ParseError(f"{path}: unknown assignment site {site_value!r}") from None
        where = f"site {site_value!r}"
        if not isinstance(entry, dict):
            raise ParseError(f"{path}: {where} must be a JSON object")
        mats = {
            name: _read_named(base / _field(entry, name, str, path, where)).data
            for name in ("w_q", "w_k", "w_h")
        }
        table[site] = ProjectionSet(**mats)
        if table[site].dim != d:
            raise ParseError(
                f"{path}: projections index field 'd' is {d}, "
                f"but {where} has {table[site].dim}x{table[site].dim} matrices"
            )
    return table
