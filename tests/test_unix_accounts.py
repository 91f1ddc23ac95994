"""Tests for the per-project UNIX account registry."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.portal.accounts import UnixAccount, UnixAccountRegistry


def add(reg, uid, project_id, preferred):
    """Allocate and insert, as the portal's committed accept does."""
    account = UnixAccount(**reg.allocate(uid, project_id, preferred))
    reg.restore_account(account)
    return account


def test_allocate_unique_per_user_project():
    reg = UnixAccountRegistry()
    a = add(reg, "uid-alice", "proj1", "alice")
    b = add(reg, "uid-alice", "proj2", "alice")
    assert a.username != b.username
    assert a.username == "alice.proj1"
    assert b.username == "alice.proj2"


def test_allocate_idempotent_for_same_key():
    reg = UnixAccountRegistry()
    a1 = add(reg, "uid-alice", "proj1", "alice")
    assert reg.allocate("uid-alice", "proj1", "alice") == vars(a1)
    # allocating stores nothing: until inserted, the same fields again
    fresh = reg.allocate("uid-bob", "proj1", "bob")
    assert reg.allocate("uid-bob", "proj1", "bob") == fresh
    assert reg.lookup(fresh["username"]) is None


def test_collision_gets_suffix():
    reg = UnixAccountRegistry()
    a = add(reg, "uid-alice", "proj1", "alice")
    other = add(reg, "uid-alice2", "proj1", "alice")
    assert other.username != a.username
    assert other.username.startswith("alice.proj1")


def test_preferred_name_sanitised():
    reg = UnixAccountRegistry()
    acc = add(reg, "u", "p1", "Alice O'Brien!!")
    assert acc.username == "aliceobrien.p1"
    weird = add(reg, "u2", "p1", "!!!")
    assert weird.username.startswith("user.p1")


def test_uid_numbers_increment():
    reg = UnixAccountRegistry(first_uid_number=30000)
    a = add(reg, "u1", "p", "a")
    b = add(reg, "u2", "p", "b")
    assert (a.uid_number, b.uid_number) == (30000, 30001)


def test_revoke_tombstones_and_never_reissues():
    reg = UnixAccountRegistry()
    a = add(reg, "uid-alice", "proj1", "alice")
    reg.revoke("uid-alice", "proj1", a.username)
    assert reg.lookup(a.username) is None
    assert reg.is_tombstoned(a.username)
    # a new allocation for the same key must not reuse the name
    b = add(reg, "uid-alice", "proj1", "alice")
    assert b.username != a.username


def test_revoke_unknown_returns_none():
    reg = UnixAccountRegistry()
    assert reg.revoke("ghost", "proj", "ghost.proj") is None
    assert reg.is_tombstoned("ghost.proj")
    assert add(reg, "ghost", "proj", "ghost").username == "ghost.proj2"


@given(
    keys=st.lists(
        st.tuples(st.sampled_from(["u1", "u2", "u3"]),
                  st.sampled_from(["p1", "p2"])),
        min_size=1, max_size=20,
    )
)
def test_property_usernames_always_unique(keys):
    """No two live accounts ever share a username, whatever the order."""
    reg = UnixAccountRegistry()
    accounts = [add(reg, u, p, "user") for u, p in keys]
    names = {}
    for acc in accounts:
        existing = names.get(acc.username)
        assert existing is None or existing == (acc.uid, acc.project_id)
        names[acc.username] = (acc.uid, acc.project_id)
