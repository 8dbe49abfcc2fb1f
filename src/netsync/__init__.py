"""Complex-network toolkit: graph generation, topology metrics, power-law
fitting, resilience sweeps, and Laplacian-spectral synchronization analysis."""

from .errors import (
    DegenerateInputError,
    DivergenceError,
    FitError,
    InputError,
    NumericalError,
    ParseError,
    ToolkitError,
    ValidationError,
)
from .graph import ComponentPartition, Graph, connected_components
from .edgelist import ingest_edge_list, parse_edge_list, serialize_edge_list
from .generators import BAParams, ERParams, generate_ba, generate_er
from .metrics import (
    GraphSummary,
    NodeStats,
    betweenness_centrality,
    degree_distribution,
    diameter,
    eigenvector_centrality,
    global_clustering,
    local_clustering,
    node_stats,
    summarize,
)
from .powerlaw import PowerLawFit, distribution_comparison, fit_mle, sample_power_law
from .resilience import (
    EnsembleTrace,
    RandomError,
    ResilienceTrace,
    TargetedAttack,
    run_removals,
    run_resilience,
)
from .synchronization import (
    SpectralReport,
    SyncConfig,
    SyncTrajectory,
    fit_decay_rate,
    simulate,
    spectral_stability,
)
from .fixture import EEN_REFERENCE, FixtureRow, load_fixture, validate_fixture
from .report import AnalysisReport, PipelineConfig, run_pipeline

__version__ = "0.1.0"
