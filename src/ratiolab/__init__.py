"""ratiolab: a value-oracle laboratory for ratio-of-supermodular-functions problems.

The package bundles two adversarial instance families with hidden planted
sets, exact structural verification (supermodularity, monotonicity,
non-negativity), exhaustive and heuristic ratio optimization, and a
query-budgeted indistinguishability game demonstrating that polynomial
query algorithms cannot bound their approximation ratio on these families.
All values are exact rationals end to end.
"""

from .errors import (
    EnumerationGuardError,
    MissingPlantError,
    NoConsistentPlantError,
    ParameterError,
    RatioLabError,
    UndefinedRatioError,
)
from .game import (
    GameReport,
    differs_from_unplanted,
    distinguish_probability,
    find_consistent_plant,
    game_report_row,
    run_game_decreasing,
    run_game_increasing,
    summarize_games,
    union_bound,
)
from .instances import (
    DecreasingInstance,
    IncreasingInstance,
    derive_decreasing_params,
    instance_from_descriptor,
)
from .optimize import (
    OptResult,
    brute_force_max_ratio,
    brute_force_min_ratio,
    local_search,
    make_algorithm,
    random_search,
)
from .oracles import (
    CountingOracle,
    QueryTranscript,
    instance_evaluator,
    make_oracles,
    ratio,
)
from .sampling import SeededStream, derive_seed, random_k_subset
from .serialize import approx_str, frac_from_str, frac_to_str
from .sets import Subset
from .verify import (
    ViolationRecord,
    check_monotone,
    check_nonnegative,
    check_supermodular,
)

__version__ = "0.1.0"

__all__ = [
    "CountingOracle",
    "DecreasingInstance",
    "EnumerationGuardError",
    "GameReport",
    "IncreasingInstance",
    "MissingPlantError",
    "NoConsistentPlantError",
    "OptResult",
    "ParameterError",
    "QueryTranscript",
    "RatioLabError",
    "SeededStream",
    "Subset",
    "UndefinedRatioError",
    "ViolationRecord",
    "approx_str",
    "brute_force_max_ratio",
    "brute_force_min_ratio",
    "check_monotone",
    "check_nonnegative",
    "check_supermodular",
    "derive_decreasing_params",
    "derive_seed",
    "differs_from_unplanted",
    "distinguish_probability",
    "find_consistent_plant",
    "frac_from_str",
    "frac_to_str",
    "game_report_row",
    "instance_evaluator",
    "instance_from_descriptor",
    "local_search",
    "make_algorithm",
    "make_oracles",
    "random_k_subset",
    "random_search",
    "ratio",
    "run_game_decreasing",
    "run_game_increasing",
    "summarize_games",
    "union_bound",
]
