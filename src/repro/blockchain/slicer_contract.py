"""The Slicer verification-and-escrow smart contract.

This is the Python analogue of the paper's Solidity contract, executed on
the simulated chain with full gas metering.  Storage layout follows what the
paper's Table II implies:

* the RSA public parameters ``n`` and ``g`` are written once at deployment;
* the ADS lives on chain as a **single 32-byte digest** of the current
  accumulation value — which is why "Data insertion ... only needs to change
  a storage value" costs a near-constant ~29k gas regardless of how many
  records were inserted;
* a query escrow record binds the user's search-token digest to a payment;
* ``verify_and_settle`` re-runs Algorithm 5 (multiset hash, prime
  representative, ``VerifyMem`` via the MODEXP precompile) and either pays
  the cloud or refunds the user — the fairness mechanism.

The verification *logic* is the same code path as
:func:`repro.core.verify.verify_token_result`; here every hash, field
multiplication, primality round and modular exponentiation additionally
charges EVM-calibrated gas.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..common import perfstats
from ..common.encoding import encode_parts, encode_uint
from ..core.cloud import SearchResponse
from ..core.params import SlicerParams
from ..core.state import set_hash_key
from ..core.tokens import SearchToken
from ..crypto.multiset_hash import MultisetHash
from ..obs import metrics
from .contract import Contract

#: Miller-Rabin rounds the contract charges for checking one prime
#: representative (each round priced as a MODEXP precompile call).
PRIMALITY_ROUNDS = 12


@dataclass(frozen=True)
class ChainTokenResult:
    """Calldata form of one token's result: token fields + entries + witness."""

    trapdoor: bytes
    epoch: int
    g1: bytes
    g2: bytes
    entries: tuple[bytes, ...]
    witness: int

    def to_args(self) -> list:
        return [self.trapdoor, self.epoch, self.g1, self.g2, list(self.entries), self.witness]

    def token_encoding(self) -> bytes:
        return SearchToken(self.trapdoor, self.epoch, self.g1, self.g2).encode()


def response_to_chain_args(response: SearchResponse) -> list[list]:
    """Flatten a :class:`SearchResponse` into contract calldata."""
    out = []
    for result in response.results:
        out.append(
            ChainTokenResult(
                result.token.trapdoor,
                result.token.epoch,
                result.token.g1,
                result.token.g2,
                tuple(result.entries),
                result.witness.value,
            ).to_args()
        )
    return out


def tokens_digest_input(tokens: list[SearchToken]) -> bytes:
    """The byte blob whose digest binds a query to its escrow record."""
    return encode_parts(*[t.encode() for t in tokens])


class SlicerContract(Contract):
    """Deployment / ADS update / query escrow / public verification."""

    # Estimated deployed bytecode size (the RSA modulus and generator are
    # compiled in as immutables, so they count here, not as storage);
    # calibrated so deployment gas lands near the paper's 745,346
    # (see benchmarks/bench_table2_gas.py).
    CODE_SIZE = 3048

    #: Compiled-in protocol parameters; supplied via the deploy ``config``
    #: channel (they are constants baked into the bytecode, whose bytes are
    #: already paid for by the code-deposit charge).
    params: SlicerParams

    # ---------------------------------------------------------- lifecycle

    def init(self, owner: bytes, cloud: bytes, ac_value: int) -> None:
        """Constructor: pin parties and the initial ADS digest.

        The RSA modulus and generator are immutables baked into the code
        (covered by the code-deposit charge), matching how a Solidity
        contract would hold fixed public parameters.
        """
        self.params = self.params.public()
        self._sstore("owner", owner)
        self._sstore("cloud", cloud)
        self._sstore("ads_digest", self._keccak(self._ac_bytes(ac_value)))
        self._sstore_int("query_count", 0, 8)

    def _ac_bytes(self, ac_value: int) -> bytes:
        width = (self.params.accumulator.modulus.bit_length() + 7) // 8
        return ac_value.to_bytes(width, "big")

    def _h_prime(self):
        """One ``H_prime`` instance per contract (pure compute, no storage)."""
        cached = getattr(self, "_h_prime_instance", None)
        if cached is None:
            cached = self._h_prime_instance = self.params.hash_to_prime()
        return cached

    # --------------------------------------------------------- ADS update

    def update_ads(self, new_ac: int) -> None:
        """Owner refreshes the on-chain ADS after Build or Insert.

        One digest SSTORE regardless of batch size — the paper's constant
        29,144-gas insertion.
        """
        self._require(self.caller == self._sload("owner"), "only owner may update ADS")
        digest = self._keccak(self._ac_bytes(new_ac))
        self._sstore("ads_digest", digest)
        self._emit("AdsUpdated", digest=digest)

    # ------------------------------------------------------------- escrow

    def submit_query(self, tokens_blob: bytes) -> int:
        """User posts search tokens + payment (msg.value); returns query id."""
        self._require(self.call_value > 0, "search payment required")
        query_id = self._sload_int("query_count")
        self._sstore_int("query_count", query_id + 1, 8)
        prefix = f"query:{query_id}"
        self._sstore(f"{prefix}:user", self.caller)
        self._sstore(f"{prefix}:tokens", self._keccak(tokens_blob))
        self._sstore_int(f"{prefix}:payment", self.call_value, 16)
        self._sstore_int(f"{prefix}:state", 1, 1)  # 1 = open
        self._emit("QuerySubmitted", query_id=encode_uint(query_id))
        return query_id

    # ----------------------------------------------------- verification

    def verify_and_settle(self, query_id: int, ac_value: int, response: list) -> bool:
        """Cloud submits results + VOs; the contract verifies and settles.

        Runs Algorithm 5 per token.  On success the escrowed payment is
        released to the cloud; on any failure the user is refunded.  Either
        way the query closes, so neither party can re-litigate.
        """
        self._require(self.caller == self._sload("cloud"), "only cloud may settle")
        prefix = f"query:{query_id}"
        self._require(self._sload_int(f"{prefix}:state") == 1, "query not open")
        self._require(
            self._keccak(self._ac_bytes(ac_value)) == self._sload("ads_digest"),
            "stale accumulation value",
        )

        results = [ChainTokenResult(r[0], r[1], r[2], r[3], tuple(r[4]), r[5]) for r in response]
        tokens_blob = encode_parts(*[r.token_encoding() for r in results])
        self._require(
            self._keccak(tokens_blob) == self._sload(f"{prefix}:tokens"),
            "response does not match the queried tokens",
        )

        ok = all(self._verify_token(result, ac_value) for result in results)

        payment = self._sload_int(f"{prefix}:payment")
        user = self._sload(f"{prefix}:user")
        self._sstore_int(f"{prefix}:state", 2 if ok else 3, 1)  # 2 settled, 3 refunded
        if ok:
            self._transfer(self._sload("cloud"), payment)
        else:
            self._transfer(user, payment)
        perfstats.incr("contract.settle.paid" if ok else "contract.settle.refunded")
        metrics.observe("contract.settle.entries", sum(len(r.entries) for r in results))
        self._emit("QuerySettled", query_id=encode_uint(query_id), verified=b"\x01" if ok else b"\x00")
        return ok

    def batch_verify_and_settle(
        self, query_ids: list, ac_value: int, responses: list
    ) -> list:
        """Settle several open queries in one transaction (extension).

        Amortises the 21k intrinsic transaction cost and the warm-storage
        discounts over the batch — the per-query marginal cost is just the
        cryptographic verification.  Each query still settles independently
        (one bad response refunds only its own payment).
        """
        self._require(self.caller == self._sload("cloud"), "only cloud may settle")
        self._require(len(query_ids) == len(responses), "batch length mismatch")
        self._require(
            self._keccak(self._ac_bytes(ac_value)) == self._sload("ads_digest"),
            "stale accumulation value",
        )
        outcomes = []
        for query_id, response in zip(query_ids, responses):
            prefix = f"query:{query_id}"
            self._require(self._sload_int(f"{prefix}:state") == 1, "query not open")
            results = [
                ChainTokenResult(r[0], r[1], r[2], r[3], tuple(r[4]), r[5])
                for r in response
            ]
            tokens_blob = encode_parts(*[r.token_encoding() for r in results])
            self._require(
                self._keccak(tokens_blob) == self._sload(f"{prefix}:tokens"),
                "response does not match the queried tokens",
            )
            ok = all(self._verify_token(result, ac_value) for result in results)
            payment = self._sload_int(f"{prefix}:payment")
            user = self._sload(f"{prefix}:user")
            self._sstore_int(f"{prefix}:state", 2 if ok else 3, 1)
            self._transfer(self._sload("cloud") if ok else user, payment)
            perfstats.incr("contract.settle.paid" if ok else "contract.settle.refunded")
            metrics.observe("contract.settle.entries", sum(len(r.entries) for r in results))
            outcomes.append(ok)
        self._emit("BatchSettled", count=encode_uint(len(outcomes)))
        return outcomes

    def _verify_token(self, result: ChainTokenResult, ac_value: int) -> bool:
        """Algorithm 5 for one token, with gas charged per primitive."""
        params = self.params
        q = params.multiset_field

        # h <- H(er): two hash invocations + one field multiplication per
        # element (the MSet-Mu-Hash element map uses a double digest).  Gas
        # is charged per entry before the fold, so an out-of-gas revert
        # names the entry whose charge crossed the limit; the fold itself
        # then runs in one pass.
        for entry in result.entries:
            self.meter.charge(2 * self.meter.schedule.keccak_gas(len(entry)), "keccak")
            self.meter.charge(self.meter.schedule.mulmod, "mulmod")
        running = MultisetHash.of(result.entries, q)

        # x <- H_prime(t_j || j || G1 || G2 || h): one digest per candidate in
        # the deterministic counter walk, plus fixed Miller-Rabin rounds on
        # the accepted candidate (each priced as a small MODEXP call).
        # The walk may be served by the process-local kernel memo — a *local
        # simulation* shortcut that must never change the bill: the memo
        # returns the exact candidate count of the cold walk, so charged gas
        # is identical warm and cold (tests/crypto/test_hash_to_prime.py).
        state_key = set_hash_key(result.trapdoor, result.epoch, result.g1, result.g2)
        material = encode_parts(state_key, running.to_bytes())
        prime, candidates = self._h_prime().hash_to_prime_with_counter(material)
        self.meter.charge(
            candidates * self.meter.schedule.keccak_gas(len(material)), "keccak"
        )
        prime_len = (params.prime_bits + 7) // 8
        round_gas = self.meter.schedule.modexp_gas(prime_len, prime, prime_len)
        self.meter.charge(PRIMALITY_ROUNDS * round_gas, "primality")

        # VerifyMem: one big MODEXP — witness^x mod n == Ac.  The modulus is
        # an immutable (code constant), so no SLOAD is charged for it.
        modulus = params.accumulator.modulus
        return self._modexp(result.witness, prime, modulus) == ac_value % modulus
