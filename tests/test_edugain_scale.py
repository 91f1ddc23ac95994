"""Tests for the synthetic eduGAIN population and large-scale discovery."""

import pytest

from repro.clock import SimClock
from repro.federation import AssurancePolicy, MyAccessID, populate_edugain
from repro.federation.directory import (
    ShardedAccountRegistry,
    ShardedMetadataStore,
)
from repro.ids import IdFactory
from repro.net import HttpRequest, Network, OperatingDomain, Zone
from repro.oidc import UserAgent, make_url


@pytest.fixture()
def big_federation(sim):
    clock, ids, network = sim
    network.firewall.allow(
        "internet-internal",
        src_domain=OperatingDomain.EXTERNAL,
        dst_domain=OperatingDomain.EXTERNAL,
    )
    edugain = ShardedMetadataStore(clock, shards=1)
    idps = populate_edugain(
        edugain, clock, ids,
        n_federations=20, idps_per_federation=10, rns_fraction=0.7,
        network=network,
    )
    ma = MyAccessID("myaccessid", clock, ids, edugain,
                    ShardedAccountRegistry(clock, ids, shards=1))
    network.attach(ma, OperatingDomain.EXTERNAL, Zone.INTERNET)
    agent = UserAgent("laptop")
    network.attach(agent, OperatingDomain.EXTERNAL, Zone.INTERNET)
    return clock, ids, network, edugain, idps, ma, agent


def test_population_counts(big_federation):
    _, _, _, edugain, idps, *_ = big_federation
    assert len(edugain) == 200
    assert sorted({md.federation for md in edugain.idps()}) == [
        f"fed-{f:02d}" for f in range(20)]
    listed = [md.entity_id for md in edugain.idps()]
    assert listed == sorted(idp.entity_id for idp in idps)


def test_rns_fraction_respected(big_federation):
    _, _, _, edugain, *_ = big_federation
    acceptable = sum(
        1 for md in edugain.idps()
        if AssurancePolicy().accepts(md.loa, md.categories)
    )
    assert acceptable == 140  # 70% of 200


def test_discovery_filters_at_scale(big_federation):
    *_, ma, agent = big_federation
    resp, _ = agent.get(make_url("myaccessid", "/discovery"))
    assert resp.ok
    choices = resp.body["idps"]
    assert len(choices) == 200
    acceptable = [c for c in choices if c["acceptable"]]
    assert len(acceptable) == 140


def test_login_via_random_member_idp(big_federation):
    clock, ids, network, edugain, idps, ma, agent = big_federation
    # pick an acceptable IdP deep in the list
    idp = next(i for i in idps
               if AssurancePolicy().accepts(i.loa, i.categories)
               and i.name.endswith("07"))
    idp.add_user("u", "pw", "Some User", f"u@{idp.scope}")
    login, _ = agent.post(
        make_url(idp.name, "/login"),
        {"username": "u", "password": "pw", "sp": ma.entity_id},
    )
    assert login.ok
    resp, _ = agent.post(
        make_url("myaccessid", "/assert"),
        {"entity_id": idp.entity_id, "assertion": login.body["assertion"]},
    )
    assert resp.ok and resp.body["uid"].endswith("@myaccessid")


def test_low_assurance_member_rejected(big_federation):
    clock, ids, network, edugain, idps, ma, agent = big_federation
    idp = next(i for i in idps
               if not AssurancePolicy().accepts(i.loa, i.categories))
    idp.add_user("u", "pw", "Some User", f"u@{idp.scope}")
    login, _ = agent.post(
        make_url(idp.name, "/login"),
        {"username": "u", "password": "pw", "sp": ma.entity_id},
    )
    resp, _ = agent.post(
        make_url("myaccessid", "/assert"),
        {"entity_id": idp.entity_id, "assertion": login.body["assertion"]},
    )
    assert resp.status == 403


def test_unique_uids_across_many_idps(big_federation):
    """Account-registry uniqueness holds across hundreds of IdPs."""
    clock, ids, network, edugain, idps, ma, agent = big_federation
    uids = set()
    acceptable = [i for i in idps
                  if AssurancePolicy().accepts(i.loa, i.categories)][:25]
    for idp in acceptable:
        idp.add_user("u", "pw", "U", f"u@{idp.scope}")
        login, _ = agent.post(
            make_url(idp.name, "/login"),
            {"username": "u", "password": "pw", "sp": ma.entity_id},
        )
        agent.clear_cookies("myaccessid")
        resp, _ = agent.post(
            make_url("myaccessid", "/assert"),
            {"entity_id": idp.entity_id, "assertion": login.body["assertion"]},
        )
        uids.add(resp.body["uid"])
    assert len(uids) == 25
