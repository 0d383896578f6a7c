"""Trust evaluation over weighted directed multi-agent interaction graphs.

Combines three signals about a prospective partner: the evaluator's own
rating history (direct trust), recommendations relayed along chains of
trusted neighbours (indirect trust), and a network-wide standing computed
by damped power iteration (reputation).  The blend weights follow the
amount of available evidence, so newcomers fall back to the population's
average reputation.
"""

from .core import (
    AgentId,
    AgentProfile,
    CapabilityError,
    CategoryActivity,
    CategoryStats,
    EdgeStats,
    Environment,
    Interaction,
    InvalidProfileError,
    InvalidRecordError,
    InvariantError,
    TaskCategory,
    TrustConfig,
    TrustError,
    UnknownAgentError,
    build_environment,
    decay_weight,
)
from .direct import DirectTrustResult, DirectTrustSource, direct_trust
from .indirect import (
    PropagationTable,
    TableRow,
    TrusteeRow,
    aggregate,
    find_paths,
    propagation_probabilities,
    retained_paths,
)
from .composite import (
    CompositeInputs,
    TrustReport,
    alpha,
    beta,
    combine,
    dt_min,
    evaluate,
)
from .reputation import (
    PropagationMatrix, ReputationModel, build_reputation, pagerank, propagation_matrix,
    reputation_nodes, reputation_of,
)
from .persist import (
    ConfigError,
    LogParseError,
    ParseError,
    SnapshotError,
    dump_log,
    dump_profiles,
    load_config,
    load_snapshot,
    parse_log,
    parse_profiles,
    save_snapshot,
)
from .simulate import GenParams, RatingModel, SplitMix64, generate, latent_qualities

__version__ = "0.1.0"

__all__ = [
    "AgentId",
    "AgentProfile",
    "CapabilityError",
    "CategoryActivity",
    "CategoryStats",
    "CompositeInputs",
    "ConfigError",
    "DirectTrustResult",
    "DirectTrustSource",
    "EdgeStats",
    "Environment",
    "GenParams",
    "Interaction",
    "InvalidProfileError",
    "InvalidRecordError",
    "InvariantError",
    "LogParseError",
    "ParseError",
    "PropagationMatrix",
    "PropagationTable",
    "RatingModel",
    "ReputationModel",
    "SnapshotError",
    "SplitMix64",
    "TableRow",
    "TaskCategory",
    "TrustConfig",
    "TrustError",
    "TrustReport",
    "TrusteeRow",
    "UnknownAgentError",
    "aggregate",
    "alpha",
    "beta",
    "build_environment",
    "build_reputation",
    "combine",
    "decay_weight",
    "direct_trust",
    "dt_min",
    "dump_log",
    "dump_profiles",
    "evaluate",
    "find_paths",
    "generate",
    "latent_qualities",
    "load_config",
    "load_snapshot",
    "pagerank",
    "parse_log",
    "parse_profiles",
    "propagation_matrix",
    "propagation_probabilities",
    "reputation_nodes",
    "reputation_of",
    "retained_paths",
    "save_snapshot",
]
