"""Cryptography for DIY: real encryption, implemented from scratch.

The paper's privacy model (§3.3, Figure 1) requires that everything
outside the serverless container — the object store, queues, and the
network — sees only ciphertext. This package provides the primitives:

- :mod:`repro.crypto.chacha20` / :mod:`repro.crypto.poly1305` /
  :mod:`repro.crypto.aead` — RFC 8439 ChaCha20-Poly1305 AEAD.
- :mod:`repro.crypto.hkdf` — HKDF-SHA256 key derivation (RFC 5869).
- :mod:`repro.crypto.x25519` — RFC 7748 Diffie-Hellman for the PGP-like
  email format.
- :mod:`repro.crypto.envelope` — envelope encryption: a KMS-held master
  key wraps per-object data keys (the structure Amazon KMS uses).
- :mod:`repro.crypto.pgp` — hybrid public-key message format standing in
  for PGP in the email application.

The paper used AES-based PGP; we substitute ChaCha20-Poly1305 (a
hand-written AES would be both slow and easy to get wrong) — the
envelope structure, which is what the privacy argument relies on, is
identical.

Everything is written in Python with no crypto library. The ChaCha20
keystream has two kernels with identical output: a numpy multi-block
kernel for messages of :data:`~repro.crypto.chacha20.NUMPY_MIN_BLOCKS`
blocks or more, and an unrolled scalar block for shorter messages and
for hosts without numpy. numpy is reached only through
:func:`repro.sim.vecmath.numpy_or_none` (``make lint`` enforces it).
Poly1305 and X25519 are scalar Python integer arithmetic.
"""

from repro.crypto.aead import ChaCha20Poly1305, seal, open_sealed
from repro.crypto.chacha20 import chacha20_block, chacha20_encrypt
from repro.crypto.poly1305 import poly1305_mac
from repro.crypto.hkdf import hkdf_extract, hkdf_expand, hkdf
from repro.crypto.x25519 import x25519, x25519_base, X25519PrivateKey, X25519PublicKey
from repro.crypto.keys import SymmetricKey, KeyPair, fingerprint, random_bytes
from repro.crypto.envelope import (
    EnvelopeEncryptor,
    EncryptedBlob,
    WrappedDataKey,
    KeyProvider,
    LocalMasterKey,
)
from repro.crypto.pgp import PGPMessage, pgp_encrypt, pgp_decrypt

__all__ = [
    "ChaCha20Poly1305",
    "seal",
    "open_sealed",
    "chacha20_block",
    "chacha20_encrypt",
    "poly1305_mac",
    "hkdf_extract",
    "hkdf_expand",
    "hkdf",
    "x25519",
    "x25519_base",
    "X25519PrivateKey",
    "X25519PublicKey",
    "SymmetricKey",
    "KeyPair",
    "fingerprint",
    "random_bytes",
    "EnvelopeEncryptor",
    "EncryptedBlob",
    "WrappedDataKey",
    "KeyProvider",
    "LocalMasterKey",
    "PGPMessage",
    "pgp_encrypt",
    "pgp_decrypt",
]
