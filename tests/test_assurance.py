"""Tests for levels of assurance and entity-category policy."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import AssuranceTooLow
from repro.federation.assurance import (
    AssurancePolicy,
    EntityCategory,
    LevelOfAssurance,
)

RNS = EntityCategory.RESEARCH_AND_SCHOLARSHIP


def test_loa_ordering():
    assert LevelOfAssurance.ESPRESSO > LevelOfAssurance.CAPPUCCINO > LevelOfAssurance.LOW
    assert LevelOfAssurance.ESPRESSO.satisfies(LevelOfAssurance.CAPPUCCINO)
    assert not LevelOfAssurance.LOW.satisfies(LevelOfAssurance.CAPPUCCINO)


def test_default_policy_is_rns_plus_cappuccino():
    policy = AssurancePolicy()
    assert policy.accepts(LevelOfAssurance.CAPPUCCINO, [RNS])
    assert policy.accepts(LevelOfAssurance.ESPRESSO, [RNS, EntityCategory.SIRTFI])


def test_policy_rejects_low_assurance():
    policy = AssurancePolicy()
    with pytest.raises(AssuranceTooLow):
        policy.check(LevelOfAssurance.LOW, [RNS])


def test_policy_rejects_missing_category():
    policy = AssurancePolicy()
    with pytest.raises(AssuranceTooLow) as err:
        policy.check(LevelOfAssurance.ESPRESSO, [])
    assert "refeds-r-and-s" in str(err.value)


@given(
    loa=st.sampled_from(list(LevelOfAssurance)),
    minimum=st.sampled_from(list(LevelOfAssurance)),
)
def test_property_loa_check_matches_ordering(loa, minimum):
    policy = AssurancePolicy(minimum_loa=minimum,
                             required_categories=frozenset())
    assert policy.accepts(loa, []) == (loa >= minimum)
