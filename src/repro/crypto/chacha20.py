"""ChaCha20 stream cipher (RFC 8439 §2.1–2.4): a scalar and a numpy kernel.

The block function operates on a 4x4 state of 32-bit words: 4 constant
words, 8 key words, a block counter, and 3 nonce words. Twenty rounds
(10 column + diagonal double-rounds) of the quarter-round function
produce a keystream block; encryption XORs the keystream with the
plaintext in one whole-buffer operation.

Two kernels produce the same keystream bytes:

* :func:`_scalar_block` — one block, unrolled, the 16 words held in
  local variables. It backs :func:`chacha20_block`, short messages,
  and the whole cipher when numpy is absent.
* :func:`_numpy_keystream` — ``nblocks`` blocks at once as a
  ``(16, nblocks)`` uint32 array. Each round runs on 4-row groups: the
  four columns together, then the diagonals by rotating the b/c/d rows.

:func:`chacha20_encrypt` takes the numpy path when the message spans at
least :data:`NUMPY_MIN_BLOCKS` blocks and numpy is available through
:func:`repro.sim.vecmath.numpy_or_none` (so ``vecmath._FORCE_FALLBACK``
pins the scalar path). Both paths are checked against the RFC test
vectors and against each other in the test suite.
"""

from __future__ import annotations

import struct

from repro.errors import CryptoError
from repro.sim import vecmath

__all__ = [
    "chacha20_block",
    "chacha20_encrypt",
    "KEY_SIZE",
    "NONCE_SIZE",
    "BLOCK_SIZE",
    "NUMPY_MIN_BLOCKS",
]

KEY_SIZE = 32
NONCE_SIZE = 12
BLOCK_SIZE = 64

# Messages of at least this many 64-byte blocks take the numpy kernel.
# ms per chacha20_encrypt call on each kernel: the median over three
# runs of each run's median of 30-400 interleaved calls (2-core x86-64
# host, CPython 3.11, numpy 2.4.6):
#
#   bytes  blocks  scalar  numpy
#      64       1   0.128  0.412
#     128       2   0.241  0.395
#     192       3   0.311  0.336
#     256       4   0.430  0.390
#     320       5   0.535  0.397
#     384       6   0.685  0.402
#     512       8   0.874  0.400
#    1024      16   1.835  0.445
#    2048      32   3.645  0.479
#    4096      64   7.409  0.534
#    8192     128  14.900  0.733
#   16384     256  29.611  0.801
#
# The numpy kernel costs ~0.4 ms whatever the size (about 450 ufunc
# calls on small arrays); the scalar kernel ~0.11 ms per block. Three
# blocks are a near tie that the scalar kernel wins in each run; from
# four blocks on, numpy wins in each run.
NUMPY_MIN_BLOCKS = 4

_MASK32 = 0xFFFFFFFF
# "expand 32-byte k" as four little-endian words.
_CONSTANTS = (0x61707865, 0x3320646E, 0x79622D32, 0x6B206574)
# Row orders of b, c, d that line the diagonals up as columns, and back.
_DIAGONALIZE = ([1, 2, 3, 0], [2, 3, 0, 1], [3, 0, 1, 2])
_UNDIAGONALIZE = ([3, 0, 1, 2], [2, 3, 0, 1], [1, 2, 3, 0])


def _check(key: bytes, counter: int, nonce: bytes, nblocks: int) -> None:
    """Reject a bad key, nonce or counter range before any output.

    The counter must stay a 32-bit word for every block: a counter that
    wrapped would reuse keystream and silently break confidentiality.
    """
    if len(key) != KEY_SIZE:
        raise CryptoError(f"ChaCha20 key must be {KEY_SIZE} bytes, got {len(key)}")
    if len(nonce) != NONCE_SIZE:
        raise CryptoError(f"ChaCha20 nonce must be {NONCE_SIZE} bytes, got {len(nonce)}")
    if not 0 <= counter <= _MASK32:
        raise CryptoError(f"ChaCha20 counter out of range: {counter}")
    if counter + nblocks - 1 > _MASK32:
        raise CryptoError(
            f"ChaCha20 counter would wrap: {nblocks} blocks from counter {counter}"
        )


def _scalar_block(key_words, counter: int, nonce_words) -> bytes:
    """One 64-byte keystream block, the rounds unrolled over locals."""
    m = _MASK32
    s0, s1, s2, s3 = _CONSTANTS
    s4, s5, s6, s7, s8, s9, s10, s11 = key_words
    s12 = counter
    s13, s14, s15 = nonce_words
    x0, x1, x2, x3, x4, x5, x6, x7 = s0, s1, s2, s3, s4, s5, s6, s7
    x8, x9, x10, x11, x12, x13, x14, x15 = s8, s9, s10, s11, s12, s13, s14, s15
    for _ in range(10):
        # Column rounds: (0, 4, 8, 12) (1, 5, 9, 13) (2, 6, 10, 14) (3, 7, 11, 15).
        x0 = (x0 + x4) & m; x12 ^= x0; x12 = ((x12 << 16) & m) | (x12 >> 16)
        x8 = (x8 + x12) & m; x4 ^= x8; x4 = ((x4 << 12) & m) | (x4 >> 20)
        x0 = (x0 + x4) & m; x12 ^= x0; x12 = ((x12 << 8) & m) | (x12 >> 24)
        x8 = (x8 + x12) & m; x4 ^= x8; x4 = ((x4 << 7) & m) | (x4 >> 25)
        x1 = (x1 + x5) & m; x13 ^= x1; x13 = ((x13 << 16) & m) | (x13 >> 16)
        x9 = (x9 + x13) & m; x5 ^= x9; x5 = ((x5 << 12) & m) | (x5 >> 20)
        x1 = (x1 + x5) & m; x13 ^= x1; x13 = ((x13 << 8) & m) | (x13 >> 24)
        x9 = (x9 + x13) & m; x5 ^= x9; x5 = ((x5 << 7) & m) | (x5 >> 25)
        x2 = (x2 + x6) & m; x14 ^= x2; x14 = ((x14 << 16) & m) | (x14 >> 16)
        x10 = (x10 + x14) & m; x6 ^= x10; x6 = ((x6 << 12) & m) | (x6 >> 20)
        x2 = (x2 + x6) & m; x14 ^= x2; x14 = ((x14 << 8) & m) | (x14 >> 24)
        x10 = (x10 + x14) & m; x6 ^= x10; x6 = ((x6 << 7) & m) | (x6 >> 25)
        x3 = (x3 + x7) & m; x15 ^= x3; x15 = ((x15 << 16) & m) | (x15 >> 16)
        x11 = (x11 + x15) & m; x7 ^= x11; x7 = ((x7 << 12) & m) | (x7 >> 20)
        x3 = (x3 + x7) & m; x15 ^= x3; x15 = ((x15 << 8) & m) | (x15 >> 24)
        x11 = (x11 + x15) & m; x7 ^= x11; x7 = ((x7 << 7) & m) | (x7 >> 25)
        # Diagonal rounds: (0, 5, 10, 15) (1, 6, 11, 12) (2, 7, 8, 13) (3, 4, 9, 14).
        x0 = (x0 + x5) & m; x15 ^= x0; x15 = ((x15 << 16) & m) | (x15 >> 16)
        x10 = (x10 + x15) & m; x5 ^= x10; x5 = ((x5 << 12) & m) | (x5 >> 20)
        x0 = (x0 + x5) & m; x15 ^= x0; x15 = ((x15 << 8) & m) | (x15 >> 24)
        x10 = (x10 + x15) & m; x5 ^= x10; x5 = ((x5 << 7) & m) | (x5 >> 25)
        x1 = (x1 + x6) & m; x12 ^= x1; x12 = ((x12 << 16) & m) | (x12 >> 16)
        x11 = (x11 + x12) & m; x6 ^= x11; x6 = ((x6 << 12) & m) | (x6 >> 20)
        x1 = (x1 + x6) & m; x12 ^= x1; x12 = ((x12 << 8) & m) | (x12 >> 24)
        x11 = (x11 + x12) & m; x6 ^= x11; x6 = ((x6 << 7) & m) | (x6 >> 25)
        x2 = (x2 + x7) & m; x13 ^= x2; x13 = ((x13 << 16) & m) | (x13 >> 16)
        x8 = (x8 + x13) & m; x7 ^= x8; x7 = ((x7 << 12) & m) | (x7 >> 20)
        x2 = (x2 + x7) & m; x13 ^= x2; x13 = ((x13 << 8) & m) | (x13 >> 24)
        x8 = (x8 + x13) & m; x7 ^= x8; x7 = ((x7 << 7) & m) | (x7 >> 25)
        x3 = (x3 + x4) & m; x14 ^= x3; x14 = ((x14 << 16) & m) | (x14 >> 16)
        x9 = (x9 + x14) & m; x4 ^= x9; x4 = ((x4 << 12) & m) | (x4 >> 20)
        x3 = (x3 + x4) & m; x14 ^= x3; x14 = ((x14 << 8) & m) | (x14 >> 24)
        x9 = (x9 + x14) & m; x4 ^= x9; x4 = ((x4 << 7) & m) | (x4 >> 25)
    return struct.pack(
        "<16L",
        (x0 + s0) & m, (x1 + s1) & m, (x2 + s2) & m, (x3 + s3) & m,
        (x4 + s4) & m, (x5 + s5) & m, (x6 + s6) & m, (x7 + s7) & m,
        (x8 + s8) & m, (x9 + s9) & m, (x10 + s10) & m, (x11 + s11) & m,
        (x12 + s12) & m, (x13 + s13) & m, (x14 + s14) & m, (x15 + s15) & m,
    )


def _quarter_rounds(np, a, b, c, d, tmp, rotations) -> None:
    """Four quarter-rounds at once, in place on (4, nblocks) row groups."""
    (l16, r16), (l12, r12), (l8, r8), (l7, r7) = rotations
    a += b; d ^= a; np.left_shift(d, l16, out=tmp); d >>= r16; d |= tmp
    c += d; b ^= c; np.left_shift(b, l12, out=tmp); b >>= r12; b |= tmp
    a += b; d ^= a; np.left_shift(d, l8, out=tmp); d >>= r8; d |= tmp
    c += d; b ^= c; np.left_shift(b, l7, out=tmp); b >>= r7; b |= tmp


def _numpy_keystream(np, key_words, counter: int, nonce_words, nblocks: int):
    """``nblocks`` keystream blocks as one flat little-endian uint8 array."""
    u32 = np.uint32
    state = np.empty((16, nblocks), dtype=u32)
    state[0:4] = np.array(_CONSTANTS, dtype=u32)[:, None]
    state[4:12] = np.array(key_words, dtype=u32)[:, None]
    # Built in uint64 so no counter wraps; _check bounded the last one.
    state[12] = np.arange(counter, counter + nblocks, dtype=np.uint64)
    state[13:16] = np.array(nonce_words, dtype=u32)[:, None]
    a, b, c, d = (state[row : row + 4].copy() for row in (0, 4, 8, 12))
    tmp = np.empty((4, nblocks), dtype=u32)
    # 0-d uint32 operands: numpy dispatches these faster than Python ints.
    rotations = [(np.array(r, dtype=u32), np.array(32 - r, dtype=u32)) for r in (16, 12, 8, 7)]
    diag = [np.array(order) for order in _DIAGONALIZE]
    undiag = [np.array(order) for order in _UNDIAGONALIZE]
    for _ in range(10):
        _quarter_rounds(np, a, b, c, d, tmp, rotations)
        b, c, d = b.take(diag[0], axis=0), c.take(diag[1], axis=0), d.take(diag[2], axis=0)
        _quarter_rounds(np, a, b, c, d, tmp, rotations)
        b, c, d = b.take(undiag[0], axis=0), c.take(undiag[1], axis=0), d.take(undiag[2], axis=0)
    work = np.concatenate((a, b, c, d))
    work += state
    return work.T.astype("<u4", order="C").view(np.uint8).reshape(-1)


def chacha20_block(key: bytes, counter: int, nonce: bytes) -> bytes:
    """Produce one 64-byte keystream block."""
    _check(key, counter, nonce, 1)
    return _scalar_block(struct.unpack("<8L", key), counter, struct.unpack("<3L", nonce))


def chacha20_encrypt(key: bytes, counter: int, nonce: bytes, data: bytes) -> bytes:
    """Encrypt (or decrypt — the cipher is its own inverse) ``data``."""
    nblocks = (len(data) + BLOCK_SIZE - 1) // BLOCK_SIZE
    _check(key, counter, nonce, nblocks)
    if not nblocks:
        return b""
    key_words = struct.unpack("<8L", key)
    nonce_words = struct.unpack("<3L", nonce)
    np = vecmath.numpy_or_none() if nblocks >= NUMPY_MIN_BLOCKS else None
    if np is not None:
        stream = _numpy_keystream(np, key_words, counter, nonce_words, nblocks)
        return (np.frombuffer(data, dtype=np.uint8) ^ stream[: len(data)]).tobytes()
    n = len(data)
    stream = b"".join(_scalar_block(key_words, counter + i, nonce_words) for i in range(nblocks))
    xored = int.from_bytes(data, "little") ^ int.from_bytes(stream[:n], "little")
    return xored.to_bytes(n, "little")
