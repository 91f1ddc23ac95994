"""SIEM/SOC: forwarders, detections, inventory, assessment, kill switch."""

from repro.siem.configassess import CheckResult, ConfigAssessment, ConfigCheck
from repro.siem.detections import (
    Alert,
    CacheStalenessRule,
    DetectionRule,
    DistinctTargetsRule,
    RegionLagRule,
    RetryStormRule,
    ThresholdRule,
    UnexplainedDecisionRule,
    standard_rules,
)
from repro.siem.forwarder import SHIPPED_ATTRS, LogForwarder
from repro.siem.inventory import Advisory, Asset, AssetInventory
from repro.siem.killswitch import KillSwitchController
from repro.siem.soc import SecurityOperationsCentre
from repro.siem.timeline import (
    IncidentTimeline,
    TimelineEntry,
    build_timeline,
    build_trace_timeline,
    join_provenance,
)
from repro.siem.tracewatch import TraceAnomalyScanner, TraceIntegrityRule

__all__ = [
    "LogForwarder",
    "SHIPPED_ATTRS",
    "Alert",
    "DetectionRule",
    "ThresholdRule",
    "DistinctTargetsRule",
    "CacheStalenessRule",
    "RegionLagRule",
    "RetryStormRule",
    "UnexplainedDecisionRule",
    "standard_rules",
    "AssetInventory",
    "Asset",
    "Advisory",
    "ConfigAssessment",
    "ConfigCheck",
    "CheckResult",
    "KillSwitchController",
    "SecurityOperationsCentre",
    "IncidentTimeline",
    "TimelineEntry",
    "TraceAnomalyScanner",
    "TraceIntegrityRule",
    "build_timeline",
    "build_trace_timeline",
    "join_provenance",
]
