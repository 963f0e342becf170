"""Prior-aided EM for multi-source parameter estimation.

A small numpy library for estimating a target model from scarce
data by borrowing from candidate source datasets. A preference prior
over the sources, fitted from pairwise-style judge choices, steers a
tempered EM that scores each source's relevance against a null model
and blends the source fits into the target estimate.
"""

from .errors import (
    DataNotFoundError,
    DegenerateNullError,
    InsufficientDataError,
    InvalidChoiceError,
    InvalidConfigurationError,
    LipemError,
    MalformedJudgeResponseError,
    NonFiniteLikelihoodError,
    OptimizationFailureError,
    ParseError,
    RateLimitedError,
    SingularFitError,
    TransportError,
)
from .likelihood import (
    Dataset,
    GaussianMeanModel,
    LikelihoodFamily,
    SplineGlmModel,
    clamp_psd,
    pooled_noise_variance,
    spline_design,
)
from .lip import (
    ChoiceRecord,
    Lip,
    WorthVector,
    choice_probability,
    fit_lip,
    minimize_worths,
    nll_objective,
    read_records,
    sample_subgroups,
    simulate_elicitation,
    simulated_judge,
    write_records,
)
from .em import (
    EmConfig,
    EmRunReport,
    EmState,
    EmStep,
    NullSpec,
    SufficientStats,
    build_sufficient_stats,
    e_step,
    m_step_exact,
    null_loglik,
    relevant_marginal_loglik,
    run_em,
    run_em_rows,
    tempering_schedule,
    write_em_report,
)
from .bench import (
    BenchReport,
    GaussianExperimentConfig,
    HierarchicalSpec,
    NullGen,
    OracleMseRecord,
    OracleSpec,
    Truth,
    baselines,
    cmapss_experiment,
    consistency_check,
    dichotomy_check,
    fast_decay_lip,
    fixed_weight_blend,
    gaussian_experiment,
    generate_hierarchical,
    oracle_closed_form_mse,
    oracle_mse_check,
)
from .cli import dispatch, ingest_cmapss, load_dataset, write_report

__version__ = "0.1.0"

# the judge's names load ``lipem.judge``, and with it the network stack,
# on first use rather than with the package (PEP 562)
_JUDGE_NAMES = (
    "HttpTransport", "JudgeTelemetry", "ReplayLog", "TransportConfig",
    "elicit_records", "llm_judge", "summarize_dataset",
)


def __getattr__(name: str):
    if name in _JUDGE_NAMES:
        from . import judge

        return getattr(judge, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "__version__",
    "LipemError",
    "InvalidConfigurationError",
    "InsufficientDataError",
    "SingularFitError",
    "InvalidChoiceError",
    "OptimizationFailureError",
    "TransportError",
    "RateLimitedError",
    "MalformedJudgeResponseError",
    "DegenerateNullError",
    "NonFiniteLikelihoodError",
    "DataNotFoundError",
    "ParseError",
    "Dataset",
    "LikelihoodFamily",
    "GaussianMeanModel",
    "SplineGlmModel",
    "spline_design",
    "clamp_psd",
    "pooled_noise_variance",
    "ChoiceRecord",
    "WorthVector",
    "Lip",
    "choice_probability",
    "nll_objective",
    "minimize_worths",
    "fit_lip",
    "sample_subgroups",
    "simulated_judge",
    "simulate_elicitation",
    "read_records",
    "write_records",
    "TransportConfig",
    "HttpTransport",
    "ReplayLog",
    "JudgeTelemetry",
    "llm_judge",
    "elicit_records",
    "summarize_dataset",
    "EmConfig",
    "NullSpec",
    "SufficientStats",
    "EmStep",
    "EmState",
    "EmRunReport",
    "build_sufficient_stats",
    "relevant_marginal_loglik",
    "null_loglik",
    "tempering_schedule",
    "e_step",
    "m_step_exact",
    "run_em",
    "run_em_rows",
    "write_em_report",
    "NullGen",
    "HierarchicalSpec",
    "Truth",
    "OracleSpec",
    "BenchReport",
    "GaussianExperimentConfig",
    "OracleMseRecord",
    "generate_hierarchical",
    "fixed_weight_blend",
    "oracle_closed_form_mse",
    "baselines",
    "gaussian_experiment",
    "oracle_mse_check",
    "dichotomy_check",
    "consistency_check",
    "fast_decay_lip",
    "cmapss_experiment",
    "dispatch",
    "ingest_cmapss",
    "load_dataset",
    "write_report",
]
