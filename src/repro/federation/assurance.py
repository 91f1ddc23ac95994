"""Levels of assurance and entity categories (AARC2 / REFEDS model).

The paper's federation design rests on *assurance*: eduGAIN's weakness is
"lack of features for controlling assurance and trust from IdPs", and
MyAccessID's minimum requirement is REFEDS Research & Scholarship (R&S)
compliance.  This module models both axes:

* :class:`LevelOfAssurance` — ordered identity-vetting strength, after the
  REFEDS Assurance Framework profiles (Cappuccino < Espresso) plus a
  "none" floor for unvetted IdPs.
* :class:`EntityCategory` — attribute-release commitments such as R&S.
* :class:`AssurancePolicy` — what a service domain (an ISD, in AARC
  terms) demands before accepting an authentication from an IdP.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import FrozenSet, Iterable

from repro.errors import AssuranceTooLow

__all__ = ["LevelOfAssurance", "EntityCategory", "AssurancePolicy"]


class LevelOfAssurance(enum.IntEnum):
    """Ordered identity-vetting strength; higher is stronger."""

    NONE = 0        # no documented vetting
    LOW = 1         # self-asserted identity
    CAPPUCCINO = 2  # REFEDS medium: documented vetting, fresh affiliation
    ESPRESSO = 3    # REFEDS high: in-person/government-ID vetting

    def satisfies(self, minimum: "LevelOfAssurance") -> bool:
        return self >= minimum


class EntityCategory(str, enum.Enum):
    """Federation entity categories (attribute-release commitments)."""

    RESEARCH_AND_SCHOLARSHIP = "refeds-r-and-s"
    SIRTFI = "sirtfi"  # security incident response trust framework
    ANONYMOUS = "anonymous-access"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class AssurancePolicy:
    """What an infrastructure service domain requires of upstream IdPs.

    MyAccessID for Isambard requires R&S plus at least Cappuccino; the
    admin IdP path requires Espresso (hardware-vetted identities).
    """

    minimum_loa: LevelOfAssurance = LevelOfAssurance.CAPPUCCINO
    required_categories: FrozenSet[EntityCategory] = frozenset(
        {EntityCategory.RESEARCH_AND_SCHOLARSHIP}
    )

    def check(self, loa: LevelOfAssurance, categories: Iterable[EntityCategory]) -> None:
        """Raise :class:`AssuranceTooLow` unless (loa, categories) satisfy us."""
        if not loa.satisfies(self.minimum_loa):
            raise AssuranceTooLow(
                f"IdP assurance {loa.name} below required {self.minimum_loa.name}"
            )
        missing = self.required_categories - set(categories)
        if missing:
            raise AssuranceTooLow(
                "IdP lacks required entity categories: "
                + ", ".join(sorted(str(c) for c in missing))
            )

    def accepts(self, loa: LevelOfAssurance, categories: Iterable[EntityCategory]) -> bool:
        try:
            self.check(loa, categories)
            return True
        except AssuranceTooLow:
            return False
