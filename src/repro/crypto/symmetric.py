"""CPA-secure symmetric encryption (the paper's ``Enc``/``Dec``, AES-128).

Record IDs are encrypted with AES-128 in CTR mode with a random nonce when
the ``cryptography`` package is importable (it is in the reference
environment).  A pure-stdlib HMAC-keystream fallback keeps the library
dependency-free: it is a textbook PRF-based stream cipher, CPA-secure under
the same assumption the paper already makes on HMAC.

Both ciphers produce ``nonce || ciphertext`` and are deterministic given an
explicit nonce, which the protocol exploits: the multiset hash in Algorithm
1 line 15 is computed over ``Enc(K_R, R)``, so the *same* ciphertext bytes
must reach the cloud, the user and the verifying contract.

**Batch keystream.**  With a 16-byte nonce, CTR keystream block ``i`` of a
blob is ``AES_K(nonce + i mod 2^128)`` — the counter wrap ``cryptography``
uses.  :meth:`SymmetricCipher.encrypt_many` and
:meth:`~SymmetricCipher.decrypt_many` therefore lay out the counter blocks
of a whole batch (one block per started 16 bytes of each body), encrypt
them in a single ECB call, and finish each blob with one integer XOR
against its slice of the keystream.  A response of N record IDs costs
one AES call instead of N ``Cipher`` objects.  The HMAC fallback
fills the same block-padded layout with :func:`_hmac_keystream`, so both
ciphers share the slicing and XOR step; :meth:`~SymmetricCipher.encrypt`
and :meth:`~SymmetricCipher.decrypt` are one-element batches.
"""

from __future__ import annotations

import hashlib
import hmac
from collections.abc import Sequence

from ..common.errors import KeyError_, ParameterError
from ..common.rng import DeterministicRNG, default_rng

NONCE_LEN = 16
KEY_LEN = 16
BLOCK_LEN = 16
_COUNTER_MASK = (1 << (8 * NONCE_LEN)) - 1

try:  # pragma: no cover - import probing
    from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

    _HAVE_AES = True
except ImportError:  # pragma: no cover
    _HAVE_AES = False


def _hmac_keystream(key: bytes, nonce: bytes, length: int) -> bytes:
    """PRF counter-mode keystream: HMAC(key, nonce || counter) blocks."""
    blocks = []
    counter = 0
    while sum(len(b) for b in blocks) < length:
        blocks.append(
            hmac.new(key, nonce + counter.to_bytes(8, "big"), hashlib.sha256).digest()
        )
        counter += 1
    return b"".join(blocks)[:length]


def _padded(length: int) -> int:
    """Keystream bytes a body of ``length`` occupies: whole 16-byte blocks."""
    return -(-length // BLOCK_LEN) * BLOCK_LEN


def _aes_ctr_keystream(key: bytes, nonces: Sequence[bytes], lengths: list[int]) -> bytes:
    """Every blob's CTR keystream, block-padded and concatenated, in one call."""
    counters: list[bytes] = []
    for nonce, length in zip(nonces, lengths):
        if length <= BLOCK_LEN:
            if length:
                counters.append(nonce)  # counter block 0 is the nonce itself
            continue
        base = int.from_bytes(nonce, "big")
        counters.extend(
            ((base + i) & _COUNTER_MASK).to_bytes(BLOCK_LEN, "big")
            for i in range(_padded(length) // BLOCK_LEN)
        )
    if not counters:
        return b""
    encryptor = Cipher(algorithms.AES(key), modes.ECB()).encryptor()
    return encryptor.update(b"".join(counters)) + encryptor.finalize()


class SymmetricCipher:
    """The paper's ``(KGen, Enc, Dec)`` triple for record-ID encryption."""

    def __init__(self, key: bytes, rng: DeterministicRNG | None = None) -> None:
        if len(key) != KEY_LEN:
            raise KeyError_(f"symmetric key must be {KEY_LEN} bytes, got {len(key)}")
        self._key = key
        self._rng = rng or default_rng()

    @classmethod
    def generate(cls, rng: DeterministicRNG | None = None) -> "SymmetricCipher":
        """``KGen``: sample a fresh random key."""
        rng = rng or default_rng()
        return cls(rng.token_bytes(KEY_LEN), rng)

    @property
    def key(self) -> bytes:
        return self._key

    def encrypt(self, plaintext: bytes, nonce: bytes | None = None) -> bytes:
        """``Enc``: returns ``nonce || ct``; random nonce unless one is given."""
        if nonce is None:
            nonce = self._rng.token_bytes(NONCE_LEN)
        return self.encrypt_many([plaintext], [nonce])[0]

    def decrypt(self, blob: bytes) -> bytes:
        """``Dec``: inverse of :meth:`encrypt`."""
        return self.decrypt_many([blob])[0]

    def encrypt_many(
        self, plaintexts: Sequence[bytes], nonces: Sequence[bytes]
    ) -> list[bytes]:
        """``Enc`` over a batch: ``nonces[i] || ct_i`` for each plaintext."""
        if len(plaintexts) != len(nonces):
            raise ParameterError("encrypt_many needs one nonce per plaintext")
        if any(len(nonce) != NONCE_LEN for nonce in nonces):
            raise ParameterError(f"nonce must be {NONCE_LEN} bytes")
        bodies = self._apply_keystream(nonces, plaintexts)
        return [nonce + body for nonce, body in zip(nonces, bodies)]

    def decrypt_many(self, blobs: Sequence[bytes]) -> list[bytes]:
        """``Dec`` over a batch: inverse of :meth:`encrypt_many`."""
        if any(len(blob) < NONCE_LEN for blob in blobs):
            raise ParameterError("ciphertext shorter than nonce")
        return self._apply_keystream(
            [blob[:NONCE_LEN] for blob in blobs], [blob[NONCE_LEN:] for blob in blobs]
        )

    def _apply_keystream(
        self, nonces: Sequence[bytes], bodies: Sequence[bytes]
    ) -> list[bytes]:
        """XOR each body with its nonce's keystream (CTR is an involution)."""
        lengths = [len(body) for body in bodies]
        if _HAVE_AES:
            stream = _aes_ctr_keystream(self._key, nonces, lengths)
        else:
            stream = b"".join(
                _hmac_keystream(self._key, nonce, _padded(length))
                for nonce, length in zip(nonces, lengths)
            )
        out: list[bytes] = []
        offset = 0
        for body, length in zip(bodies, lengths):
            pad = int.from_bytes(stream[offset : offset + length], "big")
            out.append((int.from_bytes(body, "big") ^ pad).to_bytes(length, "big"))
            offset += _padded(length)
        return out
