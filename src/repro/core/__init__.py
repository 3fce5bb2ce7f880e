"""Loupe core: the paper's primary contribution.

The analysis pipeline lives here — decision lattice, interposition
policies, workload contract, replica orchestration, metric guarding,
pseudo-file and partial-implementation support, and the
:class:`Analyzer` that ties them together.
"""

from repro.core.analyzer import Analyzer, AnalyzerConfig, analyze, estimated_runtime_s
from repro.core.cachestore import (
    RunCacheBackend,
    SqliteRunCache,
    StoreStats,
    migrate_store,
    open_store,
)
from repro.core.decisions import Decision, Verdict, merge_all
from repro.core.engine import EngineStats, ProbeEngine
from repro.core.metrics import (
    DEFAULT_MARGIN,
    ImpactSummary,
    MetricComparison,
    SampleStats,
    compare,
    relative_delta,
    welch_statistic,
)
from repro.core.partial import PartialImplementationSummary, summarize
from repro.core.policy import (
    Action,
    FakeStrategy,
    InterpositionPolicy,
    combined,
    fake_strategy,
    faking,
    passthrough,
    stubbing,
)
from repro.core.pseudofiles import (
    KNOWN_PSEUDO_FILES,
    PseudoFileAccess,
    extract_accesses,
    is_pseudo_path,
)
from repro.core.replicas import ProbeOutcome, aggregate, run_replicas
from repro.core.result import AnalysisResult, BaselineStats, FeatureReport
from repro.core.runner import ExecutionBackend, ResourceUsage, RunResult
from repro.core.transfer import (
    FeaturePrior,
    Prediction,
    PriorKnowledge,
    TransferStats,
)
from repro.core.workload import (
    CommandWorkload,
    SimWorkload,
    Workload,
    WorkloadKind,
    benchmark,
    health_check,
    test_suite,
)

__all__ = [
    "Action",
    "AnalysisResult",
    "Analyzer",
    "AnalyzerConfig",
    "BaselineStats",
    "CommandWorkload",
    "DEFAULT_MARGIN",
    "Decision",
    "EngineStats",
    "ExecutionBackend",
    "FakeStrategy",
    "FeaturePrior",
    "FeatureReport",
    "ImpactSummary",
    "InterpositionPolicy",
    "KNOWN_PSEUDO_FILES",
    "MetricComparison",
    "PartialImplementationSummary",
    "Prediction",
    "PriorKnowledge",
    "ProbeEngine",
    "ProbeOutcome",
    "PseudoFileAccess",
    "ResourceUsage",
    "RunCacheBackend",
    "RunResult",
    "SampleStats",
    "SimWorkload",
    "SqliteRunCache",
    "StoreStats",
    "TransferStats",
    "Verdict",
    "Workload",
    "WorkloadKind",
    "aggregate",
    "analyze",
    "benchmark",
    "combined",
    "compare",
    "estimated_runtime_s",
    "extract_accesses",
    "fake_strategy",
    "faking",
    "health_check",
    "is_pseudo_path",
    "merge_all",
    "migrate_store",
    "open_store",
    "passthrough",
    "relative_delta",
    "run_replicas",
    "stubbing",
    "summarize",
    "test_suite",
    "welch_statistic",
]
