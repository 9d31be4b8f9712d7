"""Transport-guided correlation assignment, matching, and ranking.

The package operates on precomputed feature matrices: it couples feature
sequences either by attention or by entropy-regularized optimal
transport, pools the transported features into match scores, ranks
entity candidates per mention, and provides contrastive/distillation
objectives plus a desk-scale gradient-descent trainer.
"""

from .config import RunConfig
from .correlation import (
    AssignmentResult,
    AssignmentSite,
    attention_assign,
    cosine_cost,
    default_projections,
    identity_projections,
    interact_record,
    ot_assign,
    project,
)
from .data_io import (
    Dataset,
    load_manifest,
    load_projections,
    read_feature_file,
    save_projections,
    write_feature_file,
)
from .errors import (
    ConfigError,
    DataError,
    DimensionError,
    OtmelError,
    OutputError,
    ParseError,
)
from .evaluation import RankingResult, hits_at_k, mrr, rank_all, rank_candidates
from .fixtures import FixtureSpec, generate_fixtures, make_dataset
from .matching import (
    CatalogScores,
    Scorer,
    fused_score,
    overall_score,
    softpool,
    unimodal_score,
)
from .objectives import (
    ToyTrainConfig,
    contrastive_loss,
    distill_gap,
    toy_train,
)
from .ot import (
    CostMatrix,
    Marginals,
    SinkhornConfig,
    TransportPlan,
    exact_ot_uniform_square,
    plan_entropy,
    sinkhorn,
    sinkhorn_stack,
    transport_cost,
)
from .types import (
    EntityRecord,
    FeatureMatrix,
    MatchScores,
    MentionRecord,
    ProjectionSet,
    validate_record,
)

__version__ = "0.1.0"
