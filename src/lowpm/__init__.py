"""Low-weight perfect matchings in +/-1 edge-labeled complete graphs.

Public surface, by area; it is what the CLI, the verifier and the tests
call:

* types, sign arithmetic and the text formats: :mod:`lowpm.core`
* exchange local search, certificate, exact oracle,
  sign-restricted matchings: :mod:`lowpm.solver`
* instance families and closed-form bounds: :mod:`lowpm.constructions`
* verification sweeps: :mod:`lowpm.verifier`
* general-graph maximum matching: :mod:`lowpm.blossom`
"""

from .blossom import matching_number, maximum_matching
from .constructions import (
    clique_instance,
    eg_edge_bound,
    eg_extremal_graph,
    proposition2_instance,
    random_graph,
    random_with_imbalance,
    thm2_bound,
)
from .core import (
    InstanceFormatError,
    InvalidPairError,
    LowpmError,
    MatchingError,
    Pair,
    ParameterError,
    PerfectMatching,
    SignedCompleteGraph,
    SimpleGraph,
    pair_count,
    parse_instance,
    serialize_instance,
    serialize_matching,
    sigma_matching,
    sigma_total,
    sign_subgraph,
)
from .rng import SplitMix64
from .solver import (
    ORACLE_LIMIT,
    OracleLimitError,
    SolveReport,
    certify,
    local_search_min_weight,
    oracle_min_weight,
    pm_from_sign_max_matching,
    random_perfect_matching,
)
from .verifier import (
    VerifyReport,
    verify_erdos_gallai,
    verify_prop2,
    verify_theorem1,
    verify_theorem2,
    verify_tightness,
)

__version__ = "0.2.0"

__all__ = [
    "InstanceFormatError",
    "InvalidPairError",
    "LowpmError",
    "MatchingError",
    "ORACLE_LIMIT",
    "OracleLimitError",
    "Pair",
    "ParameterError",
    "PerfectMatching",
    "SignedCompleteGraph",
    "SimpleGraph",
    "SolveReport",
    "SplitMix64",
    "VerifyReport",
    "certify",
    "clique_instance",
    "eg_edge_bound",
    "eg_extremal_graph",
    "local_search_min_weight",
    "matching_number",
    "maximum_matching",
    "oracle_min_weight",
    "pair_count",
    "parse_instance",
    "pm_from_sign_max_matching",
    "proposition2_instance",
    "random_graph",
    "random_perfect_matching",
    "random_with_imbalance",
    "serialize_instance",
    "serialize_matching",
    "sigma_matching",
    "sigma_total",
    "sign_subgraph",
    "thm2_bound",
    "verify_erdos_gallai",
    "verify_prop2",
    "verify_theorem1",
    "verify_theorem2",
    "verify_tightness",
]
