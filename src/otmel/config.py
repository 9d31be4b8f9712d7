"""Run-level configuration shared by the scoring pipeline and the CLI."""

from __future__ import annotations

from dataclasses import dataclass, field

from .correlation import MECHANISMS, OT
from .errors import ConfigError
from .ot import SinkhornConfig

POOL_SOFT = "soft"
POOL_MEAN = "mean"
POOL_MAX = "max"
POOL_KINDS = (POOL_SOFT, POOL_MEAN, POOL_MAX)

ABLATION_NO_FUSED = "no_fusm"
ABLATION_NO_UNIMODAL = "no_unim"
ABLATIONS = (ABLATION_NO_FUSED, ABLATION_NO_UNIMODAL)


@dataclass(frozen=True)
class RunConfig:
    """One experiment configuration.

    ``ablations`` may drop the fused or the unimodal score components (the
    overall score then averages whatever remains); ``pool`` switches the
    aggregation used everywhere pooling happens. The solver fields take
    their defaults from, and are validated by,
    :class:`~otmel.ot.SinkhornConfig`.
    """

    mechanism: str = OT
    sharpness: float = SinkhornConfig.sharpness
    tol: float = SinkhornConfig.tol
    max_iter: int = SinkhornConfig.max_iter
    ablations: frozenset[str] = field(default_factory=frozenset)
    pool: str = POOL_SOFT
    projections_path: str | None = None

    def __post_init__(self):
        if self.mechanism not in MECHANISMS:
            raise ConfigError(f"mechanism must be one of {MECHANISMS}")
        self.sinkhorn_config()
        if self.pool not in POOL_KINDS:
            raise ConfigError(f"pool must be one of {POOL_KINDS}")
        unknown = set(self.ablations) - set(ABLATIONS)
        if unknown:
            raise ConfigError(f"unknown ablations: {sorted(unknown)}")
        if set(self.ablations) == set(ABLATIONS):
            raise ConfigError("cannot ablate both the fused and unimodal components")
        object.__setattr__(self, "ablations", frozenset(self.ablations))

    def sinkhorn_config(self) -> SinkhornConfig:
        return SinkhornConfig(
            sharpness=self.sharpness, tol=self.tol, max_iter=self.max_iter
        )

    def resolved_threads(self) -> int:
        """The thread count ranking uses: always 1.

        Stacked scoring left a thread pool nothing to gain, so ranking
        runs in one thread; the benchmark still records this count.
        """
        return 1
