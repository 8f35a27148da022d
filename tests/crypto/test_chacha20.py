"""ChaCha20 against the RFC 8439 test vectors, plus structural checks.

The vectors run on both keystream kernels (numpy and the scalar
fallback), and a property test holds the two equal bit for bit around
the size at which ``chacha20_encrypt`` switches between them.
"""

import pytest
from hypothesis import given, strategies as st

from repro.crypto.aead import open_sealed, seal
from repro.crypto.chacha20 import (
    BLOCK_SIZE,
    NUMPY_MIN_BLOCKS,
    chacha20_block,
    chacha20_encrypt,
)
from repro.errors import CryptoError
from repro.sim import vecmath

RFC_KEY = bytes(range(32))
RFC_NONCE = bytes.fromhex("000000090000004a00000000")
RFC_ENC_NONCE = bytes.fromhex("000000000000004a00000000")
SUNSCREEN = (
    b"Ladies and Gentlemen of the class of '99: If I could offer you "
    b"only one tip for the future, sunscreen would be it."
)


class TestRfc8439Vectors:
    def test_block_function_vector(self, keystream_paths):
        # RFC 8439 §2.3.2
        expected = bytes.fromhex(
            "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e"
            "d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e"
        )
        assert chacha20_block(RFC_KEY, 1, RFC_NONCE) == expected
        for path in keystream_paths():
            # The keystream is the encryption of zeros.
            assert chacha20_encrypt(RFC_KEY, 1, RFC_NONCE, bytes(BLOCK_SIZE)) == expected, path

    def test_encryption_vector(self, keystream_paths):
        # RFC 8439 §2.4.2
        expected = bytes.fromhex(
            "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b"
            "f91b65c5524733ab8f593dabcd62b3571639d624e65152ab8f530c359f0861d8"
            "07ca0dbf500d6a6156a38e088a22b65e52bc514d16ccf806818ce91ab7793736"
            "5af90bbf74a35be6b40b8eedf2785e42874d"
        )
        for path in keystream_paths():
            assert chacha20_encrypt(RFC_KEY, 1, RFC_ENC_NONCE, SUNSCREEN) == expected, path

    def test_decryption_is_inverse(self, keystream_paths):
        for path in keystream_paths():
            ciphertext = chacha20_encrypt(RFC_KEY, 1, RFC_ENC_NONCE, SUNSCREEN)
            assert chacha20_encrypt(RFC_KEY, 1, RFC_ENC_NONCE, ciphertext) == SUNSCREEN, path


class TestBlockFunction:
    def test_block_is_64_bytes(self):
        assert len(chacha20_block(RFC_KEY, 0, RFC_NONCE)) == BLOCK_SIZE

    def test_different_counters_differ(self):
        assert chacha20_block(RFC_KEY, 0, RFC_NONCE) != chacha20_block(RFC_KEY, 1, RFC_NONCE)

    def test_different_nonces_differ(self):
        other = bytes.fromhex("000000090000004b00000000")
        assert chacha20_block(RFC_KEY, 1, RFC_NONCE) != chacha20_block(RFC_KEY, 1, other)

    def test_rejects_short_key(self):
        with pytest.raises(CryptoError):
            chacha20_block(b"short", 0, RFC_NONCE)

    def test_rejects_bad_nonce(self):
        with pytest.raises(CryptoError):
            chacha20_block(RFC_KEY, 0, b"bad")

    def test_rejects_negative_counter(self):
        with pytest.raises(CryptoError):
            chacha20_block(RFC_KEY, -1, RFC_NONCE)

    def test_rejects_huge_counter(self):
        with pytest.raises(CryptoError):
            chacha20_block(RFC_KEY, 2**32, RFC_NONCE)


class TestEncrypt:
    def test_empty_plaintext(self):
        assert chacha20_encrypt(RFC_KEY, 1, RFC_NONCE, b"") == b""

    def test_single_byte(self):
        out = chacha20_encrypt(RFC_KEY, 1, RFC_NONCE, b"x")
        assert len(out) == 1
        assert chacha20_encrypt(RFC_KEY, 1, RFC_NONCE, out) == b"x"

    def test_exact_block_boundary(self):
        data = bytes(BLOCK_SIZE * 2)
        out = chacha20_encrypt(RFC_KEY, 1, RFC_NONCE, data)
        assert len(out) == len(data)
        assert chacha20_encrypt(RFC_KEY, 1, RFC_NONCE, out) == data

    def test_ciphertext_differs_from_plaintext(self):
        assert chacha20_encrypt(RFC_KEY, 1, RFC_NONCE, SUNSCREEN) != SUNSCREEN


class TestValidation:
    """Bad input fails before any output, on both kernels."""

    def test_counter_that_would_wrap_rejected(self, keystream_paths):
        # Blocks 2**32 - 2, 2**32 - 1, and then a wrap to 0.
        for path in keystream_paths():
            with pytest.raises(CryptoError, match="wrap"):
                chacha20_encrypt(RFC_KEY, 2**32 - 2, RFC_NONCE, bytes(3 * BLOCK_SIZE))

    def test_counter_that_would_wrap_rejected_above_cutover(self):
        data = bytes((NUMPY_MIN_BLOCKS + 1) * BLOCK_SIZE)
        with pytest.raises(CryptoError, match="wrap"):
            chacha20_encrypt(RFC_KEY, 2**32 - NUMPY_MIN_BLOCKS, RFC_NONCE, data)

    def test_last_counter_value_is_usable(self, keystream_paths):
        data = bytes(3 * BLOCK_SIZE)
        outputs = set()
        for _ in keystream_paths():
            outputs.add(chacha20_encrypt(RFC_KEY, 2**32 - 3, RFC_NONCE, data))
        assert outputs == {
            b"".join(chacha20_block(RFC_KEY, 2**32 - 3 + i, RFC_NONCE) for i in range(3))
        }

    @pytest.mark.parametrize("counter", (-1, 2**32))
    def test_counter_out_of_range_rejected_for_empty_data(self, counter):
        with pytest.raises(CryptoError):
            chacha20_encrypt(RFC_KEY, counter, RFC_NONCE, b"")

    def test_bad_key_rejected_for_empty_data(self):
        with pytest.raises(CryptoError):
            chacha20_encrypt(b"short", 0, RFC_NONCE, b"")

    def test_bad_nonce_rejected_for_empty_data(self):
        with pytest.raises(CryptoError):
            chacha20_encrypt(RFC_KEY, 0, b"bad", b"")


def _lengths():
    """Byte lengths around the kernel cutover, with partial last blocks."""
    blocks = st.sampled_from((NUMPY_MIN_BLOCKS - 1, NUMPY_MIN_BLOCKS, NUMPY_MIN_BLOCKS + 1))
    blocks = blocks | st.integers(min_value=1, max_value=3 * NUMPY_MIN_BLOCKS)
    short_tail = st.integers(min_value=0, max_value=BLOCK_SIZE - 1)
    return st.builds(lambda n, short: n * BLOCK_SIZE - short, blocks, short_tail)


@given(
    length=_lengths(),
    counter=st.integers(min_value=0, max_value=2**32 - 1),
    key=st.binary(min_size=32, max_size=32),
    nonce=st.binary(min_size=12, max_size=12),
)
def test_property_numpy_path_equals_fallback(length, counter, key, nonce):
    """The path ``chacha20_encrypt`` picks equals the scalar fallback, and
    an AEAD box sealed on either path opens on both."""
    counter = min(counter, 2**32 - (length + BLOCK_SIZE - 1) // BLOCK_SIZE)
    data = bytes(i % 256 for i in range(length))
    ciphertext = chacha20_encrypt(key, counter, nonce, data)
    sealed = seal(key, nonce, data, b"aad")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(vecmath, "_FORCE_FALLBACK", True)
        assert chacha20_encrypt(key, counter, nonce, data) == ciphertext
        assert seal(key, nonce, data, b"aad") == sealed
        assert open_sealed(key, nonce, sealed, b"aad") == data
    assert open_sealed(key, nonce, sealed, b"aad") == data
