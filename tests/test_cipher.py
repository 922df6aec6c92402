"""Probabilistic cell encryption and the keyed PRF."""

import hashlib
import hmac
import os

import pytest

from eseds import cipher
from eseds.cipher import (
    CELL_LEN,
    NONCE_LEN,
    TAG_LEN,
    VALUE_LEN,
    CipherError,
    IntegrityError,
    SecretKey,
    decrypt,
    encrypt,
    keygen,
    prf,
)

from helpers import chi_square_uniform_p


def test_keygen_widths():
    assert len(keygen(256).bytes) == 32
    assert len(keygen(128).bytes) == 16
    assert keygen().bytes != keygen().bytes


def test_keygen_rejects_other_widths():
    with pytest.raises(CipherError):
        keygen(100)


def test_round_trip_identity():
    key = keygen()
    for m in (0, 1, 5, 254, 255):
        assert decrypt(key, encrypt(key, m, 256)) == m


def test_encrypt_is_probabilistic():
    key = keygen()
    a, b = encrypt(key, 5, 256), encrypt(key, 5, 256)
    assert a != b


def test_encrypt_bound_checks():
    key = keygen()
    with pytest.raises(CipherError):
        encrypt(key, 256, 256)
    with pytest.raises(CipherError):
        encrypt(key, -1, 256)
    with pytest.raises(CipherError):
        encrypt(key, 0, 1 << 65)


def test_wrong_key_fails_auth():
    k1, k2 = keygen(), keygen()
    with pytest.raises(IntegrityError):
        decrypt(k2, encrypt(k1, 7, 16))


def test_tampered_cell_fails_auth():
    key = keygen()
    raw = bytearray(encrypt(key, 7, 16))
    raw[NONCE_LEN] ^= 0x01  # flip one body bit
    with pytest.raises(IntegrityError):
        decrypt(key, bytes(raw))


def test_decrypt_takes_cell_bytes():
    key = keygen()
    raw = bytes(encrypt(key, 9, 16))
    assert decrypt(key, raw) == 9
    for bad in (raw[:-1], raw + b"\x00", b""):
        with pytest.raises(CipherError) as exc:
            decrypt(key, bad)
        assert not isinstance(exc.value, IntegrityError)
    for i in range(CELL_LEN):  # nonce, body and tag bytes alike
        flipped = bytearray(raw)
        flipped[i] ^= 0x01
        with pytest.raises(IntegrityError):
            decrypt(key, bytes(flipped))


def test_cell_bytes_round_trip_and_length():
    key = keygen()
    cell = encrypt(key, 3, 16)
    assert isinstance(cell, bytes)
    assert len(cell) == CELL_LEN == NONCE_LEN + VALUE_LEN + TAG_LEN
    assert decrypt(key, bytes(cell)) == 3


def test_ciphertext_length_constant_over_domain():
    key = keygen()
    assert {len(encrypt(key, m, 64)) for m in range(64)} == {CELL_LEN}


def test_key_repr_redacted():
    key = keygen()
    shown = repr(key)
    assert key.bytes.hex() not in shown
    assert "redacted" in shown


def test_key_equality():
    raw = keygen().bytes
    assert SecretKey(raw) == SecretKey(raw)
    assert hash(SecretKey(raw)) == hash(SecretKey(raw))
    assert SecretKey(raw) != keygen()
    assert SecretKey(raw) != SecretKey(bytes(b ^ 1 for b in raw))
    # keys of different widths compare unequal rather than raising
    assert SecretKey(raw[:16]) != SecretKey(raw)
    assert SecretKey(raw) != SecretKey(raw[:16])
    assert (SecretKey(raw) == "x") is False


def test_encrypt_draws_a_fresh_nonce_from_urandom_per_call(monkeypatch):
    # no pool or buffer: a buffer shared across fork would repeat nonces
    key = keygen()
    draws = []
    real = os.urandom

    def urandom(n):
        draws.append(real(n))
        return draws[-1]

    monkeypatch.setattr(cipher.os, "urandom", urandom)
    cells = [encrypt(key, 3, 16) for _ in range(4)]
    assert [len(d) for d in draws] == [NONCE_LEN] * 4
    assert [c[:NONCE_LEN] for c in cells] == draws


def test_prf_deterministic_and_in_range():
    key = keygen()
    assert prf(key, 5, 10) == prf(key, 5, 10)
    assert prf(key, 5, 1) == 0
    assert all(0 <= prf(key, x, 7) < 7 for x in range(200))


def test_prf_matches_the_stdlib_hmac_sha256_reference():
    # the det layout is built from prf, so its bytes are pinned to the
    # definition: HMAC-SHA256 over b"prf\0" + the 8-byte value, mod m
    for raw in (bytes(range(16)), bytes(range(100, 132))):
        key = SecretKey(raw)
        for v in (0, 1, 12345, (1 << 64) - 1):
            for m in (1, 7, 1 << 32, 1 << 64, (1 << 64) + 13, (1 << 200) + 1):
                mac = hmac.new(key.bytes, b"prf\x00" + v.to_bytes(8, "big"), hashlib.sha256)
                assert prf(key, v, m) == int.from_bytes(mac.digest(), "big") % m


def test_prf_depends_on_key():
    outs = {prf(keygen(), 5, 1 << 32) for _ in range(8)}
    assert len(outs) > 1


def test_prf_empirical_uniformity():
    key = keygen()
    counts = [0] * 16
    for x in range(10_000):
        counts[prf(key, x, 16)] += 1
    assert chi_square_uniform_p(counts) > 0.001


def test_nonce_uniqueness_at_scale():
    # one million encryptions under one key: no nonce collision
    key = keygen()
    seen = set()
    for i in range(1_000_000):
        seen.add(encrypt(key, i & 0xFF, 256)[:NONCE_LEN])
    assert len(seen) == 1_000_000
