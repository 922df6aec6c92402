"""Encryption primitives for cells: probabilistic authenticated encryption and a keyed PRF.

Every stored value is sealed with AES-GCM under a fresh random nonce, so two
encryptions of the same plaintext are unlinkable.  The PRF (HMAC-SHA256) is
used only by the deterministic legacy layout to derive bucket positions.
"""

from __future__ import annotations

import hashlib
import hmac
import secrets

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

NONCE_LEN = 12
TAG_LEN = 16
VALUE_LEN = 8  # plaintext values travel as 8-byte big-endian integers

#: total serialized size of one encrypted cell
CELL_LEN = NONCE_LEN + VALUE_LEN + TAG_LEN


class CipherError(Exception):
    """Base class for encryption-layer failures."""


class IntegrityError(CipherError):
    """A ciphertext failed authentication (tampered or wrong key)."""


class SecretKey:
    """Client-only key material.

    Instances never leave the client process: the store and the wire
    protocol have no encoding for them, and ``repr`` is redacted so the
    bytes cannot leak through logs.
    """

    __slots__ = ("_bytes", "_aead")

    def __init__(self, raw: bytes):
        if len(raw) not in (16, 32):
            raise CipherError(f"key must be 16 or 32 bytes, got {len(raw)}")
        self._bytes = bytes(raw)
        self._aead = AESGCM(self._bytes)

    @property
    def bytes(self) -> bytes:
        return self._bytes

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SecretKey):
            return NotImplemented
        return hmac.compare_digest(self._bytes, other._bytes)

    def __hash__(self) -> int:
        return hash(self._bytes)

    def __repr__(self) -> str:
        return f"SecretKey(<{len(self._bytes) * 8} bits, redacted>)"


class Ciphertext(bytes):
    """A cell as ``encrypt`` returns it: plain ``bytes``, nonce then sealed
    value and tag.

    The subclass remains only because the benchmark's tracer patches
    ``Ciphertext.from_bytes``/``to_bytes`` by name and its set-up calls
    ``encrypt(...).to_bytes()``.  It goes, with ``encrypt`` returning
    ``nonce + sealed``, once the tracer wraps ``encrypt``/``decrypt``."""

    __slots__ = ()

    def to_bytes(self) -> bytes:
        return bytes(self)

    @classmethod
    def from_bytes(cls, raw: bytes) -> "Ciphertext":
        return cls(raw)


def keygen(security_param: int = 256) -> SecretKey:
    """Sample a fresh random key. ``security_param`` is the key size in bits."""
    if security_param not in (128, 256):
        raise CipherError(f"security_param must be 128 or 256, got {security_param}")
    return SecretKey(secrets.token_bytes(security_param // 8))


def encrypt(key: SecretKey, value: int, domain_size: int) -> Ciphertext:
    """Encrypt one value from ``range(domain_size)`` under a fresh nonce."""
    if not 0 <= value < domain_size:
        raise CipherError(f"value {value} outside domain [0, {domain_size})")
    if domain_size > 1 << (VALUE_LEN * 8):
        raise CipherError("domain too large for the cell encoding")
    nonce = secrets.token_bytes(NONCE_LEN)
    sealed = key._aead.encrypt(nonce, value.to_bytes(VALUE_LEN, "big"), None)
    return Ciphertext(nonce + sealed)


def decrypt(key: SecretKey, cell: bytes) -> int:
    """Decrypt and authenticate one cell, returning the stored value."""
    if len(cell) != CELL_LEN:
        raise CipherError(f"cell must be {CELL_LEN} bytes, got {len(cell)}")
    try:
        plain = key._aead.decrypt(cell[:NONCE_LEN], cell[NONCE_LEN:], None)
    except InvalidTag as exc:
        raise IntegrityError("ciphertext failed authentication") from exc
    return int.from_bytes(plain, "big")


def prf(key: SecretKey, value: int, modulus: int) -> int:
    """Keyed pseudorandom function mapping a value into ``range(modulus)``.

    Deterministic per key: used by the deterministic legacy layout to pick
    bucket positions, which is exactly the leakage that layout accepts.
    """
    if modulus <= 0:
        raise CipherError("modulus must be positive")
    msg = b"prf\x00" + value.to_bytes(VALUE_LEN, "big")
    digest = hmac.new(key.bytes, msg, hashlib.sha256).digest()
    return int.from_bytes(digest, "big") % modulus
