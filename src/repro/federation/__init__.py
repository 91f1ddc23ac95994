"""Identity federation: IdPs, eduGAIN, assurance, MFA, MyAccessID proxy."""

from repro.federation.assurance import AssurancePolicy, EntityCategory, LevelOfAssurance
from repro.federation.cloud_idp import AdminAccount, CloudAdminIdP
from repro.federation.edugain import IdPMetadata
from repro.federation.idp import FederatedUser, InstitutionalIdP
from repro.federation.lastresort import LastResortIdP, LastResortUser
from repro.federation.mfa import HardwareKey, HardwareKeyRegistration, TotpDevice
from repro.federation.spiffe import TrustDomainAuthority, WorkloadIdentity
from repro.federation.myaccessid import (
    Account,
    LinkedIdentity,
    MyAccessID,
)

__all__ = [
    "AssurancePolicy",
    "EntityCategory",
    "LevelOfAssurance",
    "InstitutionalIdP",
    "FederatedUser",
    "IdPMetadata",
    "MyAccessID",
    "Account",
    "LinkedIdentity",
    "LastResortIdP",
    "LastResortUser",
    "CloudAdminIdP",
    "AdminAccount",
    "TotpDevice",
    "HardwareKey",
    "HardwareKeyRegistration",
    "TrustDomainAuthority",
    "WorkloadIdentity",
]
