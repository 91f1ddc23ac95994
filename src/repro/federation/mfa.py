"""Multi-factor authentication devices: TOTP and hardware keys.

Two factor strengths appear in the paper:

* researchers via the Identity Provider of Last Resort use TOTP-style
  one-time codes;
* administrators must use **hardware-key MFA** ("hardware key MFA
  tokens", §III.C) — modelled as a challenge/response signature from a
  device-resident Ed25519 key that also asserts user presence (touch).

Both verify against the *simulated* clock so expiry semantics are
deterministic and testable.
"""

from __future__ import annotations

import hashlib
import hmac
import struct
from dataclasses import dataclass, field
from typing import Dict

from repro.clock import SimClock
from repro.crypto.keys import SigningKey, generate_signing_key
from repro.errors import MFAFailed

__all__ = ["TotpDevice", "HardwareKey", "HardwareKeyRegistration"]


@dataclass
class TotpDevice:
    """An RFC-6238-style time-based one-time-password generator.

    The shared secret lives on both the device and the IdP; codes are
    HMAC-SHA1-truncated over the time step counter, 6 digits, 30 s steps.
    """

    secret: bytes
    step_seconds: int = 30
    digits: int = 6

    def code_at(self, t: float) -> str:
        counter = max(0, int(t // self.step_seconds))
        msg = struct.pack(">Q", counter)
        mac = hmac.new(self.secret, msg, hashlib.sha1).digest()
        offset = mac[-1] & 0x0F
        binary = struct.unpack(">I", mac[offset : offset + 4])[0] & 0x7FFFFFFF
        return str(binary % (10 ** self.digits)).zfill(self.digits)

    def verify(self, code: str, t: float, *, window: int = 1) -> bool:
        """Accept the current step ± ``window`` steps of drift."""
        for w in range(-window, window + 1):
            if hmac.compare_digest(self.code_at(t + w * self.step_seconds), code):
                return True
        return False


@dataclass
class HardwareKey:
    """A FIDO2-style hardware authenticator.

    Signs server-issued challenges with a non-exportable device key.  The
    ``touched`` argument models the user-presence test: an attacker with
    remote code execution but no physical access cannot produce a
    presence-asserted signature.
    """

    device_id: str
    _key: SigningKey = field(default_factory=lambda: generate_signing_key("EdDSA", "hwk"))

    def attestation(self):
        """Public key the IdP stores at registration."""
        return self._key.public()

    def sign_challenge(self, challenge: bytes, *, touched: bool = True) -> Dict[str, object]:
        """Produce an assertion over the challenge.

        Refuses without the presence test, as real authenticators do.
        """
        if not touched:
            raise MFAFailed("hardware key requires user presence (touch)")
        return {
            "device_id": self.device_id,
            "challenge": challenge.hex(),
            "signature": self._key.sign(b"presence:" + challenge).hex(),
        }


class HardwareKeyRegistration:
    """Server-side store of enrolled hardware keys and issued challenges.

    Challenges are single-use and expire; replaying an assertion fails.
    """

    def __init__(self, clock: SimClock, *, challenge_ttl: float = 60.0) -> None:
        self.clock = clock
        self.challenge_ttl = challenge_ttl
        self._keys: Dict[str, object] = {}  # device_id -> VerifyingKey
        self._challenges: Dict[bytes, float] = {}  # challenge -> expiry
        self._counter = 0

    def enrol(self, device: HardwareKey) -> None:
        self._keys[device.device_id] = device.attestation()

    def enrolled(self, device_id: str) -> bool:
        return device_id in self._keys

    def issue_challenge(self) -> bytes:
        self._counter += 1
        challenge = hashlib.sha256(
            f"challenge:{self._counter}:{self.clock.now()}".encode()
        ).digest()
        self._challenges[challenge] = self.clock.now() + self.challenge_ttl
        return challenge

    def verify_assertion(self, assertion: Dict[str, object]) -> str:
        """Validate a hardware-key assertion; returns the device_id.

        Raises :class:`MFAFailed` on unknown device, bad signature,
        unknown/expired/replayed challenge.
        """
        device_id = str(assertion.get("device_id", ""))
        key = self._keys.get(device_id)
        if key is None:
            raise MFAFailed(f"hardware key {device_id!r} is not enrolled")
        try:
            challenge = bytes.fromhex(str(assertion["challenge"]))
            signature = bytes.fromhex(str(assertion["signature"]))
        except (KeyError, ValueError) as exc:
            raise MFAFailed("malformed hardware-key assertion") from exc
        expiry = self._challenges.pop(challenge, None)  # single-use
        if expiry is None:
            raise MFAFailed("challenge unknown or already used")
        if self.clock.now() > expiry:
            raise MFAFailed("challenge expired")
        from repro.errors import SignatureInvalid

        try:
            key.verify(b"presence:" + challenge, signature)
        except SignatureInvalid as exc:
            raise MFAFailed("hardware-key signature invalid") from exc
        return device_id
