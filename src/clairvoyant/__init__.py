"""Exact and Monte Carlo tools for clairvoyant-demon problems.

Three dependent-percolation models share this package: scheduling two random
walks so they never collide, thinning two 0/1 words so they never agree on a
1, and embedding a word into a random environment with bounded gaps.  The
embedding model carries the exact machinery (gap-sequence counts, a linear
recursion for the alternating word, moment diagnostics); the others get
decision procedures and seeded simulation.
"""

from types import ModuleType as _ModuleType

from .compatibility import (
    DeletionWitness,
    MajorityCertificate,
    compatible,
    compatible_prefix,
    majority_certificate,
    psi_curve_mc,
    psi_mc,
    validate_deletion,
)
from .embedding import (
    CharRoots,
    EmbeddingWitness,
    MomentReport,
    RecursionParams,
    ScanReport,
    char_roots,
    embed_count,
    embed_decide,
    embed_prob_exact,
    embed_prob_mc,
    embed_survival_mc,
    extremal_scan,
    mean_embeddings,
    moment_report,
    recursion_params,
    second_moment_ratio,
    validate_embedding,
    vn_recursion,
)
from .environment import (
    ColumnEnvironment,
    FiniteDistribution,
    KwiseReport,
    KwiseViolation,
    column_percolation_mc,
    crosses_horizontally,
    kwise_test,
    product_pmf,
    sample_environment,
)
from .errors import BudgetError, PropertyViolation
from .lattice import (
    DIRECTED_SITE_THRESHOLD,
    AbScanReport,
    BlockGrid,
    Embedding2DWitness,
    Field2D,
    LatticeKind,
    Visibility,
    ab_scan,
    block_good_mc,
    block_good_prob,
    block_grid,
    block_percolation,
    block_relation_targets,
    embed_word_2d,
    field_from_text,
    field_to_text,
    sample_field,
    validate_embedding_2d,
    visible_word,
)
from .rng import RngSpec
from .scheduling import (
    CouplingReport,
    PathWitness,
    ScheduleGrid,
    coupling_check,
    directed_survival,
    kwise_joint,
    reduce_value,
    sample_grid,
    survival_curve_mc,
    survival_depth,
    undirected_escape,
    undirected_mc,
    validate_path,
)
from .stats import Estimate, JointPmf
from .words import Word, alternating_word, bernoulli_word, constant_word

__version__ = "0.1.0"

# every name the imports above bind, bar the submodules they also bind
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_")
                 and not isinstance(value, _ModuleType))
