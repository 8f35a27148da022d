"""ChaCha20-Poly1305 AEAD construction (RFC 8439 §2.8).

A one-time Poly1305 key is derived from block 0 of the ChaCha20
keystream; the ciphertext starts at block 1. Both come from one
keystream call from counter 0 over ``64 zero bytes || data``, so a
message is one call into the cipher's kernel, not two. The tag
authenticates ``aad || pad || ciphertext || pad || len(aad) ||
len(ciphertext)``.
Tag comparison is constant-time (:func:`hmac.compare_digest`).
"""

from __future__ import annotations

import hmac
import struct

from repro.crypto.chacha20 import BLOCK_SIZE, KEY_SIZE, NONCE_SIZE, chacha20_encrypt
from repro.crypto.poly1305 import TAG_SIZE, poly1305_mac
from repro.errors import AuthenticationFailure, CryptoError

__all__ = ["ChaCha20Poly1305", "seal", "open_sealed", "TAG_SIZE", "KEY_SIZE", "NONCE_SIZE"]


def _pad16(data: bytes) -> bytes:
    if len(data) % 16 == 0:
        return b""
    return b"\x00" * (16 - len(data) % 16)


def _keystream_xor(key: bytes, nonce: bytes, data: bytes):
    """``(poly1305 key, data XOR keystream from block 1)`` in one call."""
    stream = chacha20_encrypt(key, 0, nonce, bytes(BLOCK_SIZE) + data)
    return stream[:32], stream[BLOCK_SIZE:]


def _auth_input(aad: bytes, ciphertext: bytes) -> bytes:
    return b"".join(
        (
            aad,
            _pad16(aad),
            ciphertext,
            _pad16(ciphertext),
            struct.pack("<Q", len(aad)),
            struct.pack("<Q", len(ciphertext)),
        )
    )


def seal(key: bytes, nonce: bytes, plaintext: bytes, aad: bytes = b"") -> bytes:
    """Encrypt and authenticate; returns ``ciphertext || tag``."""
    poly_key, ciphertext = _keystream_xor(key, nonce, plaintext)
    tag = poly1305_mac(poly_key, _auth_input(aad, ciphertext))
    return ciphertext + tag


def open_sealed(key: bytes, nonce: bytes, sealed: bytes, aad: bytes = b"") -> bytes:
    """Verify and decrypt ``ciphertext || tag``; raises on any tampering."""
    if len(sealed) < TAG_SIZE:
        raise CryptoError("sealed box shorter than the authentication tag")
    ciphertext, tag = sealed[:-TAG_SIZE], sealed[-TAG_SIZE:]
    # The plaintext is computed with the key but released only once the
    # tag verifies.
    poly_key, plaintext = _keystream_xor(key, nonce, ciphertext)
    expected = poly1305_mac(poly_key, _auth_input(aad, ciphertext))
    if not hmac.compare_digest(tag, expected):
        raise AuthenticationFailure("Poly1305 tag mismatch; ciphertext rejected")
    return plaintext


class ChaCha20Poly1305:
    """Object-style AEAD API around :func:`seal` / :func:`open_sealed`."""

    def __init__(self, key: bytes):
        if len(key) != KEY_SIZE:
            raise CryptoError(f"AEAD key must be {KEY_SIZE} bytes, got {len(key)}")
        self._key = key

    def seal(self, nonce: bytes, plaintext: bytes, aad: bytes = b"") -> bytes:
        return seal(self._key, nonce, plaintext, aad)

    def open(self, nonce: bytes, sealed: bytes, aad: bytes = b"") -> bytes:
        return open_sealed(self._key, nonce, sealed, aad)
