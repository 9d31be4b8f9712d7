"""Synthetic datasets with planted structure for desk-scale experiments.

Each entity gets an orthonormal latent direction; record rows mix the
latent with per-record unit "slot" vectors drawn from the orthogonal
complement of the latent span. A text row and a visual row that share a
slot are planted correspondents, recorded in a sidecar truth file, and a
mention built from an entity's latent is its planted gold link. With zero
noise this makes the gold candidate strictly best and the planted pairs
exactly the cheapest couplings.

Generation is driven by numpy's PCG64 generator seeded from the spec, and
all emitted values are quantized to float32 so in-memory datasets match
their on-disk round trip bit for bit.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .data_io import Dataset, write_feature_file
from .errors import ConfigError, ParseError
from .types import EntityRecord, FeatureMatrix, MentionRecord

TRUTH_FILENAME = "truth.json"
MANIFEST_FILENAME = "manifest.json"


@dataclass(frozen=True)
class FixtureSpec:
    """Parameters of one synthetic dataset.

    ``text_len`` and ``visual_len`` count rows including the summary row.
    ``correspondence`` optionally pins the planted text-to-visual row map
    used for every record; by default each record gets a fresh seeded
    permutation. ``latent_scale`` and ``slot_scale`` set the relative
    strength of the identity-carrying and row-specific components.
    """

    seed: int
    d: int = 24
    n_entities: int = 4
    n_mentions: int = 4
    text_len: int = 5
    visual_len: int = 5
    noise_sigma: float = 0.0
    latent_scale: float = 1.0
    slot_scale: float = 0.5
    correspondence: tuple[tuple[int, int], ...] | None = None

    def __post_init__(self):
        # A spec read from JSON may hold 4.5 where a count belongs, or NaN
        # (which json.loads accepts) where a scale does.
        for name in ("seed", "d", "n_entities", "n_mentions", "text_len", "visual_len"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        for name in ("noise_sigma", "latent_scale", "slot_scale"):
            value = getattr(self, name)
            if not (isinstance(value, numbers.Real) and math.isfinite(value)):
                raise ConfigError(f"{name} must be a finite number, got {value!r}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.d < 2:
            raise ConfigError(f"d must be >= 2, got {self.d}")
        if self.n_entities < 1 or self.n_mentions < 1:
            raise ConfigError("need at least one entity and one mention")
        if self.n_entities >= self.d:
            raise ConfigError(
                f"fixtures need n_entities < d for orthogonal latents, "
                f"got {self.n_entities} >= {self.d}"
            )
        if self.text_len < 1 or self.visual_len < 1:
            raise ConfigError("sequence lengths must be >= 1")
        if self.noise_sigma < 0:
            raise ConfigError(f"noise_sigma must be >= 0, got {self.noise_sigma}")
        if self.correspondence is not None:
            pairs = tuple((int(t), int(v)) for t, v in self.correspondence)
            for t, v in pairs:
                if not (1 <= t < self.text_len and 1 <= v < self.visual_len):
                    raise ConfigError(
                        f"correspondence pair ({t},{v}) is outside the content rows"
                    )
            if len({t for t, _ in pairs}) != len(pairs) or len(
                {v for _, v in pairs}
            ) != len(pairs):
                raise ConfigError("correspondence must be one-to-one")
            object.__setattr__(self, "correspondence", pairs)

    @classmethod
    def from_json(cls, path) -> "FixtureSpec":
        try:
            doc = json.loads(Path(path).read_text())
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: invalid JSON ({exc})") from exc
        if not isinstance(doc, dict):
            raise ParseError(f"{path}: fixture spec must be a JSON object")
        if "seed" not in doc:
            raise ParseError(f"{path}: fixture spec is missing 'seed'")
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(doc) - known
        if unknown:
            raise ParseError(f"{path}: unknown fixture spec keys {sorted(unknown)}")
        if doc.get("correspondence") is not None:
            doc["correspondence"] = tuple(tuple(p) for p in doc["correspondence"])
        try:
            return cls(**doc)
        except TypeError as exc:
            raise ParseError(f"{path}: bad fixture spec ({exc})") from exc


def _quantize(values: np.ndarray) -> np.ndarray:
    # Snap to float32 so files round-trip exactly.
    return values.astype(np.float32).astype(np.float64)


def _unit_rows(rng: np.random.Generator, count: int, basis: np.ndarray) -> np.ndarray:
    """Random unit vectors inside the span of the given orthonormal basis."""
    coeffs = rng.standard_normal((count, basis.shape[1]))
    rows = coeffs @ basis.T
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def _record_matrices(
    rng: np.random.Generator,
    spec: FixtureSpec,
    latent: np.ndarray,
    complement: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, dict[int, int]]:
    """Build one record's text/visual matrices and its planted row map."""
    n_text = spec.text_len - 1
    n_visual = spec.visual_len - 1

    if spec.correspondence is not None:
        pairs = dict(spec.correspondence)
    else:
        k = min(n_text, n_visual)
        chosen_text = (rng.permutation(n_text)[:k] + 1).tolist()
        chosen_visual = (rng.permutation(n_visual)[:k] + 1).tolist()
        pairs = dict(zip(chosen_text, chosen_visual))

    # One slot per matched pair plus fresh ones for unmatched rows.
    slot_of_text = {}
    slot_of_visual = {}
    next_slot = 0
    for t, v in sorted(pairs.items()):
        slot_of_text[t] = next_slot
        slot_of_visual[v] = next_slot
        next_slot += 1
    for t in range(1, n_text + 1):
        if t not in slot_of_text:
            slot_of_text[t] = next_slot
            next_slot += 1
    for v in range(1, n_visual + 1):
        if v not in slot_of_visual:
            slot_of_visual[v] = next_slot
            next_slot += 1

    slots = _unit_rows(rng, max(next_slot, 1), complement)
    base = spec.latent_scale * latent

    def build(length: int, slot_map: dict[int, int]) -> np.ndarray:
        mat = np.tile(base, (length, 1))
        for row, slot in slot_map.items():
            mat[row] += spec.slot_scale * slots[slot]
        if spec.noise_sigma > 0:
            mat += rng.normal(0.0, spec.noise_sigma / np.sqrt(spec.d), size=mat.shape)
        return _quantize(mat)

    text = build(spec.text_len, slot_of_text)
    visual = build(spec.visual_len, slot_of_visual)
    truth = {0: 0, **pairs}
    return text, visual, truth


def make_dataset(spec: FixtureSpec) -> tuple[Dataset, dict[str, dict[int, int]]]:
    """Generate a dataset in memory along with its planted truth maps.

    Mention i links to entity i modulo the entity count. The truth map
    sends text row indices to the visual rows that share their slot
    (summary rows correspond at 0 -> 0).
    """
    rng = np.random.default_rng(spec.seed)
    basis, r = np.linalg.qr(rng.standard_normal((spec.d, spec.d)))
    basis = basis * np.sign(np.diag(r))
    latents = basis[:, : spec.n_entities].T
    complement = basis[:, spec.n_entities :]

    truth: dict[str, dict[int, int]] = {}
    entities = []
    for k in range(spec.n_entities):
        text, visual, pairs = _record_matrices(rng, spec, latents[k], complement)
        rid = f"e{k:04d}"
        truth[rid] = pairs
        entities.append(
            EntityRecord(
                id=rid,
                text=FeatureMatrix(text),
                visual=FeatureMatrix(visual),
            )
        )

    mentions = []
    for k in range(spec.n_mentions):
        gold = k % spec.n_entities
        text, visual, pairs = _record_matrices(rng, spec, latents[gold], complement)
        rid = f"m{k:04d}"
        truth[rid] = pairs
        mentions.append(
            MentionRecord(
                id=rid,
                text=FeatureMatrix(text),
                visual=FeatureMatrix(visual),
                gold_entity=f"e{gold:04d}",
            )
        )

    return Dataset(entities=tuple(entities), mentions=tuple(mentions), d=spec.d), truth


def generate_fixtures(spec: FixtureSpec, out_dir) -> Path:
    """Write a generated dataset to disk; returns the manifest path.

    Layout: ``manifest.json``, ``truth.json``, and one feature file per
    record modality under ``entities/`` and ``mentions/``. Byte-identical
    for identical specs.
    """
    dataset, truth = make_dataset(spec)
    out = Path(out_dir)
    (out / "entities").mkdir(parents=True, exist_ok=True)
    (out / "mentions").mkdir(parents=True, exist_ok=True)

    entity_items = []
    for record in dataset.entities:
        text_path = f"entities/{record.id}_text.otml"
        visual_path = f"entities/{record.id}_visual.otml"
        write_feature_file(record.text, out / text_path)
        write_feature_file(record.visual, out / visual_path)
        entity_items.append(
            {"id": record.id, "text_path": text_path, "visual_path": visual_path}
        )

    mention_items = []
    for record in dataset.mentions:
        text_path = f"mentions/{record.id}_text.otml"
        visual_path = f"mentions/{record.id}_visual.otml"
        write_feature_file(record.text, out / text_path)
        write_feature_file(record.visual, out / visual_path)
        mention_items.append(
            {
                "id": record.id,
                "text_path": text_path,
                "visual_path": visual_path,
                "gold_entity": record.gold_entity,
            }
        )

    manifest = {
        "schema_version": 1,
        "d": spec.d,
        "entities": entity_items,
        "mentions": mention_items,
    }
    manifest_path = out / MANIFEST_FILENAME
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")

    truth_doc = {
        "spec": {k: v for k, v in asdict(spec).items()},
        "correspondences": {
            rid: {str(t): v for t, v in sorted(pairs.items())}
            for rid, pairs in sorted(truth.items())
        },
    }
    (out / TRUTH_FILENAME).write_text(
        json.dumps(truth_doc, indent=2, sort_keys=True) + "\n"
    )
    return manifest_path


def load_truth(path) -> dict[str, dict[int, int]]:
    """Read a truth sidecar back into {record id: {text row: visual row}}."""
    doc = json.loads(Path(path).read_text())
    return {
        rid: {int(t): int(v) for t, v in pairs.items()}
        for rid, pairs in doc["correspondences"].items()
    }


def correspondence_recovery(assignment: np.ndarray, pairs: dict[int, int]) -> float:
    """Fraction of planted pairs whose assignment-row argmax is the planted column."""
    if not pairs:
        raise ConfigError("no planted pairs to score")
    hits = sum(1 for t, v in pairs.items() if int(np.argmax(assignment[t])) == v)
    return hits / len(pairs)
