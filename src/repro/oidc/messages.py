"""OIDC message helpers: simulated URLs and flow dataclasses.

URLs in the simulation are ``https://<endpoint>/<path>?<query>`` where
``<endpoint>`` is the network endpoint name.  :func:`make_url` /
:func:`parse_url` convert between the string form (what travels in
``Location`` headers and ``redirect_uri`` parameters) and the structured
form the network layer needs.

Both are written for that grammar rather than through ``urlencode`` /
``urlsplit``: :func:`make_url` writes what ``urlencode`` writes, and
:func:`parse_url` reads ``https://<endpoint>[<path>][?<query>]`` as
``urlsplit`` + ``parse_qsl`` would (``%`` and ``+`` decoded, blank values
dropped, the last repeated key wins) and refuses anything else.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple
from urllib.parse import quote_plus, unquote

from repro.crypto.jws import b64url_encode
from repro.errors import ConfigurationError

__all__ = [
    "make_url",
    "parse_url",
    "pkce_challenge",
    "ClientConfig",
    "AuthorizationCode",
]


# the characters quote_plus leaves as they are
_plain = re.compile(r"[A-Za-z0-9_.~-]*").fullmatch
# no space or control character anywhere (urlsplit would strip them),
# no fragment, an ASCII endpoint without brackets
_url = re.compile(r"https://([^\x00-\x20\x7f-\U0010ffff/?#\[\]]+)"
                  r"(/[^?#\x00-\x20]*)?(?:\?([^#\x00-\x20]*))?").fullmatch


def make_url(endpoint: str, path: str, /, **params: object) -> str:
    """Build a simulated https URL pointing at a network endpoint."""
    if not path.startswith("/"):
        raise ConfigurationError(f"path must start with '/', got {path!r}")
    pairs = [(k, str(v)) for k, v in params.items() if v is not None]
    query = "&".join([
        f"{k if _plain(k) else quote_plus(k)}={v if _plain(v) else quote_plus(v)}"
        for k, v in pairs])
    return f"https://{endpoint}{path}" + (f"?{query}" if query else "")


def parse_url(url: str) -> Tuple[str, str, Dict[str, str]]:
    """Split a simulated URL into (endpoint, path, params)."""
    match = _url(url)
    if match is None:
        raise ConfigurationError(f"not a simulated https URL: {url!r}")
    endpoint, path, query = match.groups()
    pairs = [pair.replace("+", " ").partition("=")
             for pair in query.split("&")] if query else ()
    return endpoint, path or "/", {
        unquote(k) if "%" in k else k: unquote(v) if "%" in v else v
        for k, _, v in pairs if v}


def pkce_challenge(verifier: str) -> str:
    """RFC 7636 S256 code challenge for a verifier string."""
    return b64url_encode(hashlib.sha256(verifier.encode("ascii")).digest())


@dataclass
class ClientConfig:
    """A registered OAuth2/OIDC relying party.

    ``confidential`` clients authenticate to the token endpoint with
    ``client_secret``; public clients (the SSH certificate client app on a
    laptop) must use PKCE instead.
    """

    client_id: str
    redirect_uris: Tuple[str, ...]
    client_secret: Optional[str] = None
    require_pkce: bool = True
    allowed_scopes: Tuple[str, ...] = ("openid", "profile", "projects")

    @property
    def confidential(self) -> bool:
        return self.client_secret is not None

    def redirect_uri_valid(self, uri: str) -> bool:
        return uri in self.redirect_uris


@dataclass
class AuthorizationCode:
    """A single-use authorization code and everything bound to it."""

    code: str
    client_id: str
    redirect_uri: str
    subject: str
    claims: Dict[str, object]
    scope: str
    nonce: Optional[str]
    code_challenge: Optional[str]
    auth_time: float
    expires_at: float
    used: bool = False


@dataclass
class DeviceAuthorization:
    """State of one RFC 8628 device-authorization-grant flow."""

    device_code: str
    user_code: str          # short code the human types, e.g. "WDJB-MJHT"
    client_id: str
    scope: str
    created_at: float
    expires_at: float
    interval: float = 5.0   # advisory polling interval
    # filled in when the user approves at the verification page
    subject: Optional[str] = None
    claims: Dict[str, object] = field(default_factory=dict)
    auth_time: float = 0.0
    denied: bool = False
    redeemed: bool = False
    last_poll: float = -1e9

    @property
    def approved(self) -> bool:
        return self.subject is not None and not self.denied
