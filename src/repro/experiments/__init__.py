"""Evaluation harness: configs, runs, sweeps, and figure regeneration.

One config runs through :func:`repro.api.run`; many run through
:meth:`repro.campaign.Campaign.submit` — the execution engine with
process parallelism, content-addressed result caching, and failure
isolation.  The curve, figure, and replication helpers here build
config batches and submit them to a campaign.
"""

from .config import DEFAULT_HORIZON_S, ExperimentConfig
from .figures import FIGURES, FigureData
from .replications import ReplicationReport, replicate, significantly_better
from .runner import ExperimentResult, build_simulator
from .store import (
    config_from_dict,
    config_to_dict,
    load_results,
    save_results,
    schema_fingerprint,
)
from .sweeps import CurvePoint, PAPER_QUEUE_LENGTHS, curve_family

__all__ = [
    "CurvePoint",
    "DEFAULT_HORIZON_S",
    "ExperimentConfig",
    "ExperimentResult",
    "FIGURES",
    "FigureData",
    "PAPER_QUEUE_LENGTHS",
    "ReplicationReport",
    "build_simulator",
    "config_from_dict",
    "config_to_dict",
    "curve_family",
    "load_results",
    "replicate",
    "save_results",
    "schema_fingerprint",
    "significantly_better",
]
