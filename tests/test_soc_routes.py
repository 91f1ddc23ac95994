"""What the SOC receives and which rules see it, against references.

The forwarder ships each accepted record in the agreed wire form, and
the SOC shows each record to its rule pack.  Both are checked here
against a test-only reference: the wire form against the dict built off
an :class:`AuditEvent` view of the record, and ``ingest_batch`` against
showing every record to every rule, in pack order.  Alerts, their order
and every rule's counters must agree, for a seeded stream that covers
each action and outcome the 12-rule pack reads, fields that are not
strings, and a rule appended to ``soc.rules`` mid-stream.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.audit import AuditEvent, AuditLog, Outcome
from repro.clock import SimClock
from repro.siem import (
    SHIPPED_ATTRS,
    LogForwarder,
    SecurityOperationsCentre,
    ThresholdRule,
    TraceIntegrityRule,
    UnexplainedDecisionRule,
    standard_rules,
)
from tests.conftest import wire_record

# every action the standard pack, the trace rule and the provenance rule
# read, a prefix match of each, and some no rule reads
ACTIONS = (
    "idp.login", "ssh.login", "firewall.deny", "firewall.drop",
    "token.code_replayed", "mgmt.access", "tailnet.relay", "dcim.threshold",
    "ssh.session", "rbac.revoke", "token.revoke", "token.revoke_all",
    "region.lag", "retry.budget_exhausted", "rbac.mint", "rbac.denied",
    "zenith.register", "jupyter.auth", "job.submit", "authz.fail_closed",
    "token.issue", "alert.x", "",
)
OUTCOMES = Outcome.ALL
RESOURCES = ("j1", "node-a", "j1", "node-b", "j1", "node-c") * 2
KNOWN_TRACES = frozenset({"t1", "t2"})


class _Store:
    """The span store's one question, over a fixed set of traces."""

    def has_trace(self, trace_id):
        return trace_id in KNOWN_TRACES


class _Ledger:
    """The provenance ledger's one question: alice and t1/t3 are known."""

    def knows(self, actor, trace_id):
        return actor == "alice" or trace_id in ("t1", "t3")


def _pack():
    """The 12-rule pack a telemetry build runs; the staleness rule
    tolerates a window, so its ``tolerated`` counter moves too."""
    rules = standard_rules() + [TraceIntegrityRule(_Store()),
                                UnexplainedDecisionRule(_Ledger())]
    for rule in rules:
        if rule.name == "cache-staleness":
            rule.tolerance = 20.0
    return rules


def _late_rule():
    return ThresholdRule(
        name="late-mint-burst", severity="low", window=30.0, count=2,
        summary="{actor} minted {count}",
        predicate=lambda action, outcome: action.startswith("rbac."))


# fields that are not strings are rarer than the strings the rules
# read, so the windowed rules still reach their counts
_ODD = (None, 7, 2.5, True)
_attrs = st.fixed_dictionaries({}, optional={
    "jti": st.sampled_from(["j1", "j1", "j2", ""]),
    "trace_id": st.sampled_from(["t1", "t2", "t3", "t4", "", None]),
    "region": st.sampled_from(["eu", "us"]),
    "lag": st.sampled_from([0.5, 12.0, 40.0, "slow"]),
    "bound": st.sampled_from([0.0, 10.0, 30.0]),
})


def _record(action):
    return st.fixed_dictionaries({
        "time": st.floats(0.0, 8.0),
        "action": action,
        "outcome": st.sampled_from(
            OUTCOMES + (Outcome.DENIED,) * 4 + (Outcome.CACHED,) * 2 + _ODD),
        "actor": st.sampled_from(("alice", "mallory", "mallory") + _ODD[:2]),
        "attrs": st.one_of(_attrs, _attrs, _attrs, st.none()),
    }, optional={
        "domain": st.sampled_from(["fds", "mdc"]),
        "source": st.just("svc"),
    })


@st.composite
def _stream(draw):
    """Records at non-decreasing times, cut into batches, and the batch
    before which a rule joins the pack.  Half the records take one of a
    few actions drawn for the stream, and a drawn record comes in a burst
    of up to twelve, over four resources, so windowed counts are reached."""
    hot = st.sampled_from(draw(st.lists(st.sampled_from(ACTIONS),
                                        min_size=1, max_size=3)))
    records, now = [], 0.0
    drawn = st.lists(_record(hot | st.sampled_from(ACTIONS + _ODD)),
                     min_size=1, max_size=40)
    for record in draw(drawn):
        now += record["time"]
        for resource in RESOURCES[:draw(st.integers(1, 12))]:
            records.append({**record, "time": now, "resource": resource})
    cuts = sorted(draw(st.lists(st.integers(0, len(records)), max_size=6)))
    bounds = [0, *cuts, len(records)]
    batches = [records[a:b] for a, b in zip(bounds, bounds[1:])]
    return batches, draw(st.integers(0, len(batches)))


def _reference(batches, append_at):
    """Every record to every rule of the pack, in pack order."""
    rules, alerts = _pack(), []
    for i, batch in enumerate(batches):
        if i == append_at:
            rules.append(_late_rule())
        for record in batch:
            for rule in rules:
                alert = rule.observe(record)
                if alert is not None:
                    alerts.append(alert)
    return rules, alerts


def _counters(rules):
    return [(rule.name, getattr(rule, "checked", None),
             getattr(rule, "unexplained", None),
             getattr(rule, "tolerated", None)) for rule in rules]


def _row(t, action, outcome, resource="node-a", actor="mallory", **attrs):
    return {"time": t, "source": "svc", "actor": actor, "action": action,
            "resource": resource, "outcome": outcome, "domain": "fds",
            "zone": "access", "attrs": attrs}


D, S, C = Outcome.DENIED, Outcome.SUCCESS, Outcome.CACHED
# a stream on which every rule of the pack, and the appended one, alerts
EVERY_RULE_FIRES = ([
    *[_row(float(i), "idp.login", D) for i in range(5)],
    *[_row(6.0, "firewall.deny", D, f"node-{c}") for c in "abc"],
    _row(7.0, "token.code_replayed", D),
    *[_row(8.0, "mgmt.access", D) for _ in range(2)],
    _row(9.0, "dcim.threshold", Outcome.INFO, "rack-1"),
    *[_row(10.0, "ssh.session", D) for _ in range(4)],
    _row(11.0, "rbac.revoke", Outcome.INFO, "j1"),
], [
    _row(15.0, "jupyter.auth", C, "jupyter", jti="j1", trace_id="t1"),
    _row(40.0, "jupyter.auth", C, "jupyter", jti="j1", trace_id="t1"),
    _row(41.0, "region.lag", Outcome.INFO, "eu", region="eu", lag=40.0,
         bound=30.0),
    *[_row(42.0, "retry.budget_exhausted", D, "broker") for _ in range(10)],
], [
    _row(43.0, "token.issue", S, trace_id="t4"),
    *[_row(44.0, "rbac.mint", S, "jupyter", "eve", trace_id="t2")
      for _ in range(2)],
]), 1


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_stream())
@example(EVERY_RULE_FIRES)
def test_ingest_shows_each_record_to_the_rules_that_read_it(stream):
    batches, append_at = stream
    soc = SecurityOperationsCentre("soc", SimClock(), None,
                                   audit=AuditLog("sec"), rules=_pack())
    returned = []
    for i, batch in enumerate(batches):
        if i == append_at:
            soc.rules.append(_late_rule())
        returned += soc.ingest_batch(batch)
    rules, alerts = _reference(batches, append_at)
    assert soc.alerts == returned == alerts
    assert _counters(soc.rules) == _counters(rules)
    assert soc.records_ingested == sum(map(len, batches))


_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6)
_value = _json | st.tuples(st.integers()) | st.frozensets(st.integers(),
                                                          max_size=2)
_names = st.sampled_from(sorted(SHIPPED_ATTRS) + ["amr", "detail", "scope"])


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.lists(st.dictionaries(_names, _value, max_size=5), min_size=1,
                max_size=8))
def test_a_flush_ships_the_agreed_wire_form(attr_sets):
    """List and dict attrs included, each shipped record equals the wire
    form of a view of the record stored, in emission order: the row-level
    read equals the view-built reference."""
    clock, log, shipped = SimClock(), AuditLog("fds"), []
    fw = LogForwarder("fw-fds", clock, shipped.extend)
    fw.watch(log)
    for i, attrs in enumerate(attr_sets):
        log.emit(AuditEvent(float(i), "svc", "alice", f"act.{i % 3}", "r",
                            Outcome.SUCCESS, "fds", "access", attrs))
    assert fw.flush() == len(attr_sets)
    assert shipped == [wire_record(e) for e in log.events()]
    assert log.read(0, ("",), SHIPPED_ATTRS) == shipped
