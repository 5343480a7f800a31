"""Core package-query engine: the paper's primary contribution."""

from repro.core.brute_force import (
    BruteForceStats,
    SearchSpaceExceeded,
    count_valid,
    find_best,
    find_first,
    iter_valid_packages,
)
from repro.core.enumeration import (
    diverse_subset,
    enumerate_diverse,
    enumerate_top,
)
from repro.core.explore import ExplorationError, ExplorationSession
from repro.core.suggest import (
    Suggestion,
    suggest_for_cells,
    suggest_for_column,
    suggest_for_rows,
)
from repro.core.summary import (
    Dimension,
    PackagePoint,
    SummaryLayout,
    candidate_dimensions,
    choose_dimensions,
    grid_summary,
    layout,
    render_grid,
)
from repro.core.anytime import AnytimeEnumerator, progressive_layout
from repro.core.plan import EvaluationPlan, plan
from repro.core.report import ConstraintReport, PackageReport, explain
from repro.core.sql_generate import (
    SQLGenerateUnsupported,
    build_generate_sql,
    sql_enumerate,
    sql_find_best,
)
from repro.core.cost import StrategyChoice, choose_strategy
from repro.core.engine import (
    EngineError,
    EngineOptions,
    EvaluationResult,
    PackageQueryEvaluator,
    ResultStatus,
    evaluate,
)
from repro.core.partitioning import (
    PartitionOptions,
    Partitioning,
    build_partitioning,
    partition_attributes,
)
from repro.core.strategies import (
    EvaluationContext,
    Strategy,
    StrategyEstimate,
    all_strategies,
    get_strategy,
    register_strategy,
    strategy_names,
)
from repro.core.formula import normalize_formula
from repro.core.greedy import greedy_seed, random_seed
from repro.core.local_search import (
    LocalSearch,
    LocalSearchOptions,
    LocalSearchResult,
    SwapSQLUnsupported,
    build_swap_sql,
    local_search,
    sql_k_swap,
    violation,
)
from repro.core.package import Package, PackageError
from repro.core.pruning import (
    CardinalityBounds,
    CardinalityPruner,
    derive_bounds,
    search_space_size,
    unpruned_bounds,
)
from repro.core.reduction import (
    REDUCE_MODES,
    Reduction,
    apply_reduction,
    merge_reductions,
    reduce_candidates,
    reduction_gate_reason,
)
from repro.core.ir import STAGE_NAMES, StageRecord, records_payload, stage_table
from repro.core.pipeline import MAX_PRUNE_ROUNDS, PipelineState, run_analysis
from repro.core.session import ArtifactCache, EvaluationSession
from repro.core.translate_ilp import ILPTranslation, ILPTranslationError, translate
from repro.core.vectorize import (
    UnsupportedExpression,
    VectorEvaluator,
    aggregate_value,
    evaluator_for,
    try_predicate_mask,
)
from repro.core.validator import (
    ValidationReport,
    check_global,
    compare_objectives,
    is_valid,
    objective_value,
    validate,
)

__all__ = [
    "AnytimeEnumerator",
    "BruteForceStats",
    "progressive_layout",
    "ConstraintReport",
    "Dimension",
    "EvaluationPlan",
    "plan",
    "PackageReport",
    "explain",
    "ExplorationError",
    "ExplorationSession",
    "PackagePoint",
    "Suggestion",
    "SummaryLayout",
    "candidate_dimensions",
    "choose_dimensions",
    "diverse_subset",
    "enumerate_diverse",
    "enumerate_top",
    "grid_summary",
    "layout",
    "render_grid",
    "suggest_for_cells",
    "suggest_for_column",
    "suggest_for_rows",
    "CardinalityBounds",
    "CardinalityPruner",
    "EngineError",
    "EngineOptions",
    "EvaluationContext",
    "EvaluationResult",
    "PartitionOptions",
    "Partitioning",
    "Strategy",
    "StrategyChoice",
    "StrategyEstimate",
    "all_strategies",
    "build_partitioning",
    "choose_strategy",
    "get_strategy",
    "partition_attributes",
    "register_strategy",
    "strategy_names",
    "unpruned_bounds",
    "REDUCE_MODES",
    "Reduction",
    "apply_reduction",
    "merge_reductions",
    "reduce_candidates",
    "reduction_gate_reason",
    "STAGE_NAMES",
    "StageRecord",
    "records_payload",
    "stage_table",
    "MAX_PRUNE_ROUNDS",
    "PipelineState",
    "run_analysis",
    "ArtifactCache",
    "EvaluationSession",
    "ILPTranslation",
    "ILPTranslationError",
    "UnsupportedExpression",
    "VectorEvaluator",
    "aggregate_value",
    "evaluator_for",
    "try_predicate_mask",
    "LocalSearch",
    "LocalSearchOptions",
    "LocalSearchResult",
    "Package",
    "PackageError",
    "PackageQueryEvaluator",
    "ResultStatus",
    "SQLGenerateUnsupported",
    "SearchSpaceExceeded",
    "SwapSQLUnsupported",
    "build_generate_sql",
    "sql_enumerate",
    "sql_find_best",
    "ValidationReport",
    "build_swap_sql",
    "check_global",
    "compare_objectives",
    "count_valid",
    "derive_bounds",
    "evaluate",
    "find_best",
    "find_first",
    "greedy_seed",
    "is_valid",
    "iter_valid_packages",
    "local_search",
    "normalize_formula",
    "objective_value",
    "random_seed",
    "search_space_size",
    "sql_k_swap",
    "translate",
    "validate",
    "violation",
]
