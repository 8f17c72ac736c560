"""Record cipher: round trips, nonce handling, error paths, and the batch
keystream checked against per-blob references."""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.common.errors import KeyError_, ParameterError
from repro.common.rng import default_rng
from repro.crypto import symmetric
from repro.crypto.symmetric import KEY_LEN, NONCE_LEN, SymmetricCipher


@pytest.fixture()
def cipher():
    return SymmetricCipher(b"k" * KEY_LEN, default_rng(3))


class TestRoundTrip:
    def test_basic(self, cipher):
        for msg in [b"", b"a", b"record-id", b"\x00" * 64]:
            assert cipher.decrypt(cipher.encrypt(msg)) == msg

    def test_ciphertext_layout(self, cipher):
        ct = cipher.encrypt(b"abcdefgh")
        assert len(ct) == NONCE_LEN + 8

    def test_random_nonce_randomises(self, cipher):
        assert cipher.encrypt(b"same") != cipher.encrypt(b"same")

    def test_explicit_nonce_is_deterministic(self, cipher):
        nonce = b"\x01" * NONCE_LEN
        assert cipher.encrypt(b"same", nonce) == cipher.encrypt(b"same", nonce)

    def test_wrong_key_garbles(self):
        a = SymmetricCipher(b"a" * KEY_LEN, default_rng(1))
        b = SymmetricCipher(b"b" * KEY_LEN, default_rng(1))
        assert b.decrypt(a.encrypt(b"secret!")) != b"secret!"


class TestErrors:
    def test_bad_key_length(self):
        with pytest.raises(KeyError_):
            SymmetricCipher(b"short")

    def test_bad_nonce_length(self, cipher):
        with pytest.raises(ParameterError):
            cipher.encrypt(b"x", nonce=b"\x00")

    def test_truncated_ciphertext(self, cipher):
        with pytest.raises(ParameterError):
            cipher.decrypt(b"\x00" * (NONCE_LEN - 1))


def test_generate_draws_fresh_keys():
    rng = default_rng(9)
    assert SymmetricCipher.generate(rng).key != SymmetricCipher.generate(rng).key


# ------------------------------------------------ batch vs per-blob reference

keys = st.binary(min_size=KEY_LEN, max_size=KEY_LEN)
batches = st.lists(
    st.tuples(st.binary(min_size=0, max_size=48), st.binary(min_size=NONCE_LEN, max_size=NONCE_LEN)),
    max_size=12,
)
WRAP_NONCE = b"\xff" * NONCE_LEN
WRAP_BATCH = [(bytes(range(17)), WRAP_NONCE), (b"w" * 48, WRAP_NONCE), (b"", WRAP_NONCE)]
MIXED_BATCH = [(b"", b"\x00" * NONCE_LEN), (b"a" * 5, b"\x01" * NONCE_LEN), (b"b" * 33, b"\x02" * NONCE_LEN)]


def aes_reference(key: bytes, plaintext: bytes, nonce: bytes) -> bytes:
    """One ``cryptography`` CTR ``Cipher`` per blob: the unbatched ``Enc``."""
    from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

    encryptor = Cipher(algorithms.AES(key), modes.CTR(nonce)).encryptor()
    return nonce + encryptor.update(plaintext) + encryptor.finalize()


def hmac_reference(key: bytes, plaintext: bytes, nonce: bytes) -> bytes:
    """The fallback's per-blob keystream XOR."""
    stream = symmetric._hmac_keystream(key, nonce, len(plaintext))
    return nonce + bytes(a ^ b for a, b in zip(plaintext, stream))


def check_against(reference, key: bytes, batch) -> None:
    cipher = SymmetricCipher(key, default_rng(0))
    plaintexts = [plaintext for plaintext, _ in batch]
    expected = [reference(key, plaintext, nonce) for plaintext, nonce in batch]
    blobs = cipher.encrypt_many(plaintexts, [nonce for _, nonce in batch])
    assert blobs == expected
    assert cipher.decrypt_many(expected) == plaintexts
    assert [cipher.encrypt(p, n) for p, n in batch] == expected
    assert [cipher.decrypt(blob) for blob in expected] == plaintexts


@pytest.mark.skipif(not symmetric._HAVE_AES, reason="cryptography is not installed")
class TestBatchMatchesAesCtr:
    @given(key=keys, batch=batches)
    @example(key=b"k" * KEY_LEN, batch=WRAP_BATCH)
    @example(key=b"k" * KEY_LEN, batch=MIXED_BATCH)
    @example(key=b"k" * KEY_LEN, batch=[])
    @settings(max_examples=150, deadline=None)
    def test_encrypt_and_decrypt_many(self, key, batch):
        check_against(aes_reference, key, batch)

    def test_counter_wraps_at_2_128(self):
        """Block 1 of nonce ff..ff uses counter 0, as ``cryptography`` does."""
        cipher = SymmetricCipher(b"k" * KEY_LEN)
        zero_nonce_blob = cipher.encrypt(b"\x00" * 16, b"\x00" * NONCE_LEN)
        wrapped = cipher.encrypt(b"\x00" * 32, WRAP_NONCE)
        assert wrapped[NONCE_LEN + 16 :] == zero_nonce_blob[NONCE_LEN:]


class TestBatchMatchesHmacFallback:
    @given(key=keys, batch=batches)
    @example(key=b"k" * KEY_LEN, batch=WRAP_BATCH)
    @example(key=b"k" * KEY_LEN, batch=MIXED_BATCH)
    @example(key=b"k" * KEY_LEN, batch=[])
    @settings(max_examples=150, deadline=None)
    def test_encrypt_and_decrypt_many(self, key, batch):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(symmetric, "_HAVE_AES", False)
            check_against(hmac_reference, key, batch)


class TestBatchErrors:
    def test_nonce_count_must_match(self, cipher):
        with pytest.raises(ParameterError):
            cipher.encrypt_many([b"a", b"b"], [b"\x00" * NONCE_LEN])

    def test_every_nonce_is_checked(self, cipher):
        with pytest.raises(ParameterError):
            cipher.encrypt_many([b"a", b"b"], [b"\x00" * NONCE_LEN, b"\x00"])

    def test_every_blob_is_checked(self, cipher):
        with pytest.raises(ParameterError):
            cipher.decrypt_many([b"\x00" * (NONCE_LEN + 1), b"\x00" * (NONCE_LEN - 1)])
