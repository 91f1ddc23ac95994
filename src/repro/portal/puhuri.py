"""Puhuri-style central allocation brokering.

§II.B: "MyAccessID has already been deployed for the EuroHPC LUMI user
management project called Puhuri" — identity federates through
MyAccessID, while *allocations* federate through a central marketplace
(Puhuri core, built on Waldur): national allocators place orders there,
and each centre's agent provisions them locally and reports usage back.

Modelled here:

* :class:`PuhuriCore` — the central service (EXTERNAL domain).  National
  operators authenticate with API keys and create **orders** against a
  registered **offering**; the core also accumulates usage reports.
* :class:`PuhuriAgent` — the ISD-side sync agent: polls pending orders
  for its offering, creates the local project through the portal's
  normal API (with a provisioned allocator service identity — the local
  portal still enforces every rule), pushes the PI invitation code back
  so the core can deliver it, and reports usage snapshots upstream.
"""

from __future__ import annotations

import hmac as _hmac
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.audit import AuditLog, Outcome
from repro.broker.rbac import Role
from repro.clock import SimClock
from repro.errors import AuthenticationError, ConfigurationError
from repro.ids import IdFactory
from repro.net.http import HttpRequest, HttpResponse, Service, route

__all__ = ["AllocationOrder", "PuhuriCore", "PuhuriAgent"]


@dataclass
class AllocationOrder:
    order_id: str
    offering: str
    project_name: str
    pi_email: str
    gpu_hours: float
    duration: float
    created_by: str
    created_at: float
    state: str = "pending"          # pending -> provisioned | failed
    local_project_id: Optional[str] = None
    invite_code: Optional[str] = None
    usage_reports: List[Dict[str, float]] = field(default_factory=list)


class PuhuriCore(Service):
    """The central allocation marketplace."""

    def __init__(
        self,
        name: str,
        clock: SimClock,
        ids: IdFactory,
        *,
        audit: AuditLog,
    ) -> None:
        super().__init__(name)
        self.clock = clock
        self.ids = ids
        self.audit = audit
        self._operator_keys: Dict[str, str] = {}   # operator -> api key
        self._offering_keys: Dict[str, str] = {}   # offering -> agent key
        self._orders: Dict[str, AllocationOrder] = {}

    # ------------------------------------------------------------------
    # enrolment
    # ------------------------------------------------------------------
    def register_operator(self, operator: str) -> str:
        """A national allocating body; returns its API key."""
        key = self.ids.secret(32)
        self._operator_keys[operator] = key
        return key

    def register_offering(self, offering: str) -> str:
        """An ISD's resource offering (e.g. ``isambard-ai``); returns the
        key its sync agent authenticates with."""
        if offering in self._offering_keys:
            raise ConfigurationError(f"offering {offering!r} already registered")
        key = self.ids.secret(32)
        self._offering_keys[offering] = key
        return key

    def _operator_from(self, request: HttpRequest) -> str:
        supplied = request.headers.get("X-Api-Key", "")
        for operator, key in self._operator_keys.items():
            if _hmac.compare_digest(supplied, key):
                return operator
        raise AuthenticationError("invalid operator API key")

    def _offering_from(self, request: HttpRequest) -> str:
        supplied = request.headers.get("X-Agent-Key", "")
        for offering, key in self._offering_keys.items():
            if _hmac.compare_digest(supplied, key):
                return offering
        raise AuthenticationError("invalid offering agent key")

    # ------------------------------------------------------------------
    # operator side
    # ------------------------------------------------------------------
    @route("POST", "/orders")
    def create_order(self, request: HttpRequest) -> HttpResponse:
        operator = self._operator_from(request)
        offering = str(request.body.get("offering", ""))
        if offering not in self._offering_keys:
            return HttpResponse.error(404, f"no offering {offering!r}")
        order = AllocationOrder(
            order_id=self.ids.next("order"),
            offering=offering,
            project_name=str(request.body.get("project_name", "")),
            pi_email=str(request.body.get("pi_email", "")),
            gpu_hours=float(request.body.get("gpu_hours", 0)),
            duration=float(request.body.get("duration", 90 * 24 * 3600.0)),
            created_by=operator,
            created_at=self.clock.now(),
        )
        if not order.project_name or not order.pi_email or order.gpu_hours <= 0:
            return HttpResponse.error(400, "project_name, pi_email, gpu_hours required")
        self._orders[order.order_id] = order
        self.audit.record(
            order.created_at, self.name, operator, "puhuri.order",
            order.order_id, Outcome.SUCCESS, offering=offering,
            gpu_hours=order.gpu_hours,
        )
        return HttpResponse.json({"order_id": order.order_id, "state": order.state})

    @route("GET", "/orders/status")
    def order_status(self, request: HttpRequest) -> HttpResponse:
        self._operator_from(request)
        order = self._orders.get(request.query.get("order_id", ""))
        if order is None:
            return HttpResponse.error(404, "no such order")
        return HttpResponse.json(
            {
                "order_id": order.order_id,
                "state": order.state,
                "local_project_id": order.local_project_id,
                "invite_code": order.invite_code,
                "usage_reports": list(order.usage_reports),
            }
        )

    # ------------------------------------------------------------------
    # agent side
    # ------------------------------------------------------------------
    @route("GET", "/orders/pending")
    def pending_orders(self, request: HttpRequest) -> HttpResponse:
        offering = self._offering_from(request)
        pending = [
            {
                "order_id": o.order_id,
                "project_name": o.project_name,
                "pi_email": o.pi_email,
                "gpu_hours": o.gpu_hours,
                "duration": o.duration,
            }
            for o in self._orders.values()
            if o.offering == offering and o.state == "pending"
        ]
        return HttpResponse.json({"orders": pending})

    @route("POST", "/orders/provisioned")
    def order_provisioned(self, request: HttpRequest) -> HttpResponse:
        offering = self._offering_from(request)
        order = self._orders.get(str(request.body.get("order_id", "")))
        if order is None or order.offering != offering:
            return HttpResponse.error(404, "no such order for this offering")
        order.state = "provisioned"
        order.local_project_id = str(request.body.get("project_id", ""))
        order.invite_code = str(request.body.get("invite_code", ""))
        self.audit.record(
            self.clock.now(), self.name, offering, "puhuri.provisioned",
            order.order_id, Outcome.SUCCESS, project=order.local_project_id,
        )
        return HttpResponse.json({"order_id": order.order_id, "state": order.state})

    @route("POST", "/usage")
    def usage_report(self, request: HttpRequest) -> HttpResponse:
        offering = self._offering_from(request)
        order = self._orders.get(str(request.body.get("order_id", "")))
        if order is None or order.offering != offering:
            return HttpResponse.error(404, "no such order for this offering")
        report = {
            "time": self.clock.now(),
            "gpu_hours_used": float(request.body.get("gpu_hours_used", 0)),
        }
        order.usage_reports.append(report)
        return HttpResponse.json({"recorded": True, "reports": len(order.usage_reports)})


class PuhuriAgent:
    """The ISD-side synchroniser (runs next to the broker in FDS).

    Parameters
    ----------
    shipper:
        An attached service to originate network calls from (the agent
        itself is a process, not an endpoint).
    broker:
        Used to mint the allocator service identity the local portal
        demands — Puhuri never bypasses local authorisation.
    """

    def __init__(
        self,
        offering: str,
        agent_key: str,
        shipper: Service,
        broker,
        *,
        core_endpoint: str = "puhuri",
        portal_endpoint: str = "portal",
    ) -> None:
        self.offering = offering
        self.agent_key = agent_key
        self.shipper = shipper
        self.broker = broker
        self.core_endpoint = core_endpoint
        self.portal_endpoint = portal_endpoint
        self.synced: Dict[str, str] = {}  # order_id -> local project id

    # ------------------------------------------------------------------
    def sync_orders(self) -> List[str]:
        """Provision every pending order locally; returns new project ids."""
        resp = self.shipper.call(self.core_endpoint, HttpRequest(
            "GET", "/orders/pending",
            headers={"X-Agent-Key": self.agent_key},
        ))
        if not resp.ok:
            raise AuthenticationError(f"puhuri poll failed: {resp.body}")
        created: List[str] = []
        for order in resp.body.get("orders", []):
            token, _ = self.broker.tokens.held(
                "puhuri-agent", self.portal_endpoint, Role.ALLOCATOR,
                ttl=300, audit_issue=False)
            local = self.shipper.call(self.portal_endpoint, HttpRequest(
                "POST", "/projects",
                headers={"Authorization": f"Bearer {token}"},
                body={
                    "name": str(order["project_name"]),
                    "pi_email": str(order["pi_email"]),
                    "gpu_hours": float(order["gpu_hours"]),
                    "duration": float(order["duration"]),
                },
            ))
            if not local.ok:
                continue
            project_id = str(local.body["project_id"])
            self.shipper.call(self.core_endpoint, HttpRequest(
                "POST", "/orders/provisioned",
                headers={"X-Agent-Key": self.agent_key},
                body={"order_id": order["order_id"], "project_id": project_id,
                      "invite_code": local.body["invite_code"]},
            ))
            self.synced[str(order["order_id"])] = project_id
            created.append(project_id)
        return created

    def report_usage(self, portal) -> int:
        """Push one usage snapshot per synced order; returns reports sent."""
        sent = 0
        for order_id, project_id in self.synced.items():
            project = portal.project(project_id)
            if project is None:
                continue
            resp = self.shipper.call(self.core_endpoint, HttpRequest(
                "POST", "/usage",
                headers={"X-Agent-Key": self.agent_key},
                body={"order_id": order_id,
                      "gpu_hours_used": project.allocation.gpu_hours_used},
            ))
            if resp.ok:
                sent += 1
        return sent
