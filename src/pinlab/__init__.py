"""Numerical laboratory for the localized phase of disordered pinning models.

Exact transfer recursions for a single disorder realization, counter-based
Monte Carlo over realizations, estimators for the free energies and their
fluctuation structure, and a catalog of runnable verification checks.
"""

from .model import (
    DISORDER_FAMILIES,
    DisorderLaw,
    EllSpec,
    InterArrivalLaw,
    build_law,
    gaussian_disorder,
    geometric_test_law,
    law_from_log_table,
    law_from_table,
    rademacher_disorder,
    sample_disorder_block,
    shifted_exponential_disorder,
    uniform_disorder,
    zero_disorder,
)
from .quenched import (ContactLaw, QuenchedBlock, QuenchedSystem,
                       ks_to_standard_normal)
from .oracle import PathSet, build_path_set, classify_hc, hc_bracket
from .disorder_mc import (
    QUANTITIES,
    CenteringResult,
    ConcentrationResult,
    DecayResult,
    EstimateSeries,
    FResult,
    McConfig,
    MuResult,
    centering_statistics,
    concentration_scan,
    correlation_decay_scan,
    estimate_f,
    estimate_mu,
    sample_cumulants,
    sample_kappa1_path,
    sample_log_z,
)
from .theorems import (
    CHECK_DESCRIPTIONS,
    CHECK_IDS,
    CheckContext,
    CheckReport,
    full_report,
    run_check,
)
from .config import ConfigError, RunConfig, load_config, save_config

__version__ = "0.1.0"

__all__ = [
    "CHECK_DESCRIPTIONS",
    "CHECK_IDS",
    "CenteringResult",
    "CheckContext",
    "CheckReport",
    "ConcentrationResult",
    "ConfigError",
    "ContactLaw",
    "DISORDER_FAMILIES",
    "DecayResult",
    "DisorderLaw",
    "EllSpec",
    "EstimateSeries",
    "FResult",
    "InterArrivalLaw",
    "McConfig",
    "MuResult",
    "PathSet",
    "QUANTITIES",
    "QuenchedBlock",
    "QuenchedSystem",
    "RunConfig",
    "build_law",
    "build_path_set",
    "centering_statistics",
    "classify_hc",
    "concentration_scan",
    "correlation_decay_scan",
    "estimate_f",
    "estimate_mu",
    "full_report",
    "gaussian_disorder",
    "geometric_test_law",
    "hc_bracket",
    "ks_to_standard_normal",
    "law_from_log_table",
    "law_from_table",
    "load_config",
    "rademacher_disorder",
    "run_check",
    "sample_cumulants",
    "sample_disorder_block",
    "sample_kappa1_path",
    "sample_log_z",
    "save_config",
    "shifted_exponential_disorder",
    "uniform_disorder",
    "zero_disorder",
]
