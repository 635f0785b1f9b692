"""Deterministic simulator and matching engine for leasing idle local compute
against priority, with an all-to-cloud offloading baseline.

The package root holds the configs, ``run`` and ``compare_reports``; import
everything else from its module (``crlsim.matching``, ``crlsim.metrics``, ...).
"""

from .model import WeightsConfig
from .simulator import SimConfig, WorkloadConfig, run
from .metrics import compare_reports

__all__ = ["SimConfig", "WorkloadConfig", "WeightsConfig", "run", "compare_reports"]

__version__ = "0.1.0"
