"""Core: the Fig. 1 deployment, the user-story workflows, the threat model."""

from repro.core.deployment import DEFAULT_IDPS, IsambardDeployment, build_isambard
from repro.core.metrics import format_table, latency_stats
from repro.core.threat import ExposureReport, ThreatModel
from repro.core.workflows import Persona, StoryResult, Workflows

__all__ = [
    "build_isambard",
    "IsambardDeployment",
    "DEFAULT_IDPS",
    "Workflows",
    "Persona",
    "StoryResult",
    "ThreatModel",
    "ExposureReport",
    "latency_stats",
    "format_table",
]
