"""Dense feature containers and record types used by every pipeline stage.

All types are immutable after construction: numeric payloads are float64
numpy arrays with the writeable flag cleared, so instances can be shared
freely between concurrent workers.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DimensionError, NonFiniteError

# Conventional roles of a feature matrix inside a record.
MENTION_TEXT = "mention-text"
MENTION_VISUAL = "mention-visual"
ENTITY_TEXT = "entity-text"
ENTITY_VISUAL = "entity-visual"


def freeze_array(values, dtype=np.float64) -> np.ndarray:
    """Copy ``values`` into a C-contiguous read-only array."""
    arr = np.array(values, dtype=dtype, order="C")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class FeatureMatrix:
    """An L x d matrix of per-token or per-patch embeddings.

    Row 0 is the sequence summary row by convention (the pooled/summary
    position emitted by the upstream encoder); L counts it. Non-finite
    values are representable so that :func:`validate_record` can report
    them, but every numeric operation downstream assumes finite input.
    """

    data: np.ndarray
    role: str = "generic"

    def __post_init__(self):
        arr = freeze_array(self.data)
        if arr.ndim != 2:
            raise DimensionError(
                f"feature matrix must be 2-D, got {arr.ndim}-D shape {arr.shape}"
            )
        object.__setattr__(self, "data", arr)

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    @property
    def summary(self) -> np.ndarray:
        """The summary row (row 0)."""
        if self.rows == 0:
            raise DimensionError("empty feature matrix has no summary row")
        return self.data[0]


@dataclass(frozen=True)
class ProjectionSet:
    """The three learnable d x d maps serving one assignment site.

    ``w_q`` projects the destination sequence into queries, ``w_k`` and
    ``w_h`` project the source sequence into keys and transported values.
    A matrix may carry leading stack axes, which pass through projection.
    """

    w_q: np.ndarray
    w_k: np.ndarray
    w_h: np.ndarray
    site: str = ""

    def __post_init__(self):
        mats = {}
        for name in ("w_q", "w_k", "w_h"):
            arr = freeze_array(getattr(self, name))
            if arr.ndim < 2 or arr.shape[-1] != arr.shape[-2]:
                raise DimensionError(f"{name} must be square, got shape {arr.shape}")
            if not np.isfinite(arr).all():
                raise NonFiniteError(f"{name} contains non-finite values")
            mats[name] = arr
        dims = {m.shape[-1] for m in mats.values()}
        if len(dims) != 1:
            raise DimensionError(
                f"projection matrices disagree on dimension: {sorted(dims)}"
            )
        for name, arr in mats.items():
            object.__setattr__(self, name, arr)

    @property
    def dim(self) -> int:
        return self.w_q.shape[-1]

    def replace(self, **mats) -> "ProjectionSet":
        """Return a copy with some of the three matrices swapped out."""
        return replace(self, **mats)


@dataclass(frozen=True)
class MentionRecord:
    """An encoded mention: text and visual feature matrices plus an optional gold id."""

    id: str
    text: FeatureMatrix
    visual: FeatureMatrix
    gold_entity: str | None = None


@dataclass(frozen=True)
class EntityRecord:
    """An encoded knowledge-graph entity: text and visual feature matrices."""

    id: str
    text: FeatureMatrix
    visual: FeatureMatrix


@dataclass(frozen=True)
class MatchScores:
    """The four matching scores for one mention-entity pair.

    ``s_o`` is the arithmetic mean of the components that were actually
    computed; under the full configuration that is (s_f + s_t + s_v) / 3.
    Components excluded by an ablation are stored as 0.0.
    """

    s_f: float
    s_t: float
    s_v: float
    s_o: float

    @classmethod
    def collect(cls, s_f: float, s_t: float, s_v: float) -> "MatchScores":
        return cls(s_f, s_t, s_v, (s_f + s_t + s_v) / 3.0)


@dataclass(frozen=True)
class ValidationIssue:
    """One violated record invariant; ``kind`` is a stable machine-readable tag."""

    kind: str
    message: str


def _scan_matrix(name: str, mat: FeatureMatrix, issues: list[ValidationIssue]) -> None:
    if mat.rows == 0 or mat.cols == 0:
        issues.append(
            ValidationIssue(
                "empty-matrix", f"{name} matrix is empty (shape {mat.rows}x{mat.cols})"
            )
        )
        return
    finite = np.isfinite(mat.data)
    if not finite.all():
        bad = np.argwhere(~finite)
        r, c = (int(v) for v in bad[0])
        issues.append(
            ValidationIssue(
                "non-finite",
                f"{name} matrix has {len(bad)} non-finite value(s), first at ({r},{c})",
            )
        )


def validate_record(record: MentionRecord | EntityRecord) -> list[ValidationIssue]:
    """Report every violated invariant of a record; valid records yield [].

    Checks: both matrices non-empty, all values finite, and matching
    feature dimension across the two modalities.
    """
    issues: list[ValidationIssue] = []
    _scan_matrix("text", record.text, issues)
    _scan_matrix("visual", record.visual, issues)
    if record.text.cols != record.visual.cols:
        issues.append(
            ValidationIssue(
                "dimension-mismatch",
                f"text has d={record.text.cols} but visual has d={record.visual.cols}",
            )
        )
    return issues
