"""The data owner: Build (Algorithm 1) and forward-secure Insert (Algorithm 2).

The owner is the only fully-trusted party with secrets.  It

1. derives the keyword set ``{v} ∪ {ct_i}`` for every record,
2. writes PRF-labelled index entries ``(l, d)`` per keyword posting,
3. folds each record ciphertext into the keyword's running multiset hash,
4. maps every ``(trapdoor, epoch, G1, G2, hash)`` state to a prime
   representative and accumulates all primes into ``Ac``, and
5. on insertion, advances the keyword's trapdoor with ``π_sk^{-1}`` so the
   new entries are unlinkable to previously released search tokens
   (forward security).

Build is the degenerate case of Insert on empty state — the two algorithms
in the paper differ only in the trapdoor-advance branch — so both public
methods share :meth:`DataOwner._index_batch`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import NamedTuple

from ..common.bitstring import xor_bytes
from ..common.encoding import encode_parts, encode_uint
from ..common.errors import StateError
from ..common.rng import DeterministicRNG, default_rng
from ..common.timing import Stopwatch
from ..crypto.accumulator import Accumulator
from ..crypto.multiset_hash import MultisetHash
from ..crypto.prf import PRF
from ..obs import metrics, trace
from ..crypto.symmetric import NONCE_LEN, SymmetricCipher
from .keywords import keywords_for_record
from .params import KeyBundle, SlicerParams, UserKeys
from .records import AttributedDatabase, AttributedRecord, Database, Record
from .state import (
    CloudPackage,
    EncryptedIndex,
    SetHashState,
    TrapdoorState,
    set_hash_key,
)
from .tokens import derive_g1_g2


class KeywordJob(NamedTuple):
    """One keyword's share of Build/Insert after the staging pass.

    The staging pass performs every state transition that must stay
    sequential for :class:`~repro.common.rng.DeterministicRNG`
    reproducibility — trapdoor sampling/advance and nonce draws — and
    freezes the results here.  What remains is pure PRF/encrypt/fold work.
    """

    trapdoor: bytes
    epoch: int
    g1: bytes
    g2: bytes
    running_value: int  # multiset-hash value carried over from prior epochs
    postings: tuple[tuple[bytes, bytes], ...]  # (record_id, nonce) per counter


@dataclass
class UserPackage:
    """What the owner shares with an authorised user: keys + trapdoor state.

    ``attributes`` is the index's attribute-name set (``("",)`` for a plain
    single-value database) so users can reject malformed queries — e.g. a
    bare ``attribute=""`` query against a multi-attribute index — before
    paying to search.  ``None`` means the owner has indexed nothing yet.
    """

    keys: UserKeys
    trapdoor_state: TrapdoorState
    ads_value: int
    attributes: tuple[str, ...] | None = None


@dataclass
class OwnerOutput:
    """The three outbound messages after Build or Insert (Algorithm 1 lines
    21-23 / Algorithm 2 lines 26-28): a package for the cloud, the bare
    accumulation value for the blockchain, and the refreshed user package.

    With a sharded serving tier the owner additionally pre-splits the delta
    (``shard_packages``, one per shard): routing needs ``G1``, which only
    the owner sees next to each index entry — PRF labels are one-way, so
    the tier cannot split a flat package itself.
    """

    cloud_package: CloudPackage
    chain_ads: int
    user_package: UserPackage
    shard_packages: list | None = None


class DataOwner:
    """Holds all secrets; drives Build and Insert."""

    def __init__(
        self,
        params: SlicerParams,
        keys: KeyBundle | None = None,
        rng: DeterministicRNG | None = None,
        shard_plan=None,
    ) -> None:
        self.params = params
        self.rng = rng or default_rng()
        #: Optional :class:`~repro.sharding.plan.ShardPlan`; when set, every
        #: Build/Insert output also carries per-shard packages.  Routing does
        #: not touch the flat package, so setting a plan never changes the
        #: single-cloud bytes.
        self.shard_plan = shard_plan
        self.keys = keys or KeyBundle.generate(self.rng)
        self.trapdoor_state = TrapdoorState()
        self.set_hash_state = SetHashState()
        self.accumulator = Accumulator(params.accumulator)
        self._cipher = SymmetricCipher(self.keys.record_key, self.rng)
        self._built = False
        #: Attribute names seen across every indexed record (shared with
        #: users so they can validate queries before paying to search).
        self._attributes: set[str] = set()
        #: Phase timings ("index" / "ads") for the Fig. 3 and Fig. 7 benches.
        self.stopwatch = Stopwatch()

    # ------------------------------------------------------------------ API

    def build(self, database: Database | AttributedDatabase) -> OwnerOutput:
        """Algorithm 1: build encrypted index and ADS from scratch."""
        if self._built:
            raise StateError("Build may run once; use insert() for updates")
        if database.bits != self.params.value_bits:
            raise StateError(
                f"database bit width {database.bits} != params {self.params.value_bits}"
            )
        self._built = True
        return self._index_batch(list(database))

    def insert(self, additions: Database | AttributedDatabase) -> OwnerOutput:
        """Algorithm 2: forward-secure insertion of new records."""
        if not self._built:
            raise StateError("call build() before insert()")
        if additions.bits != self.params.value_bits:
            raise StateError(
                f"insert bit width {additions.bits} != params {self.params.value_bits}"
            )
        return self._index_batch(list(additions))

    def user_package(self) -> UserPackage:
        """Keys + current trapdoor state for an authorised data user."""
        return UserPackage(
            keys=self.keys.user_view(),
            trapdoor_state=self.trapdoor_state.snapshot(),
            ads_value=self.accumulator.value,
            attributes=tuple(sorted(self._attributes)) if self._attributes else None,
        )

    # ------------------------------------------------------------ internals

    def _postings(self, records: list[Record | AttributedRecord]) -> dict[bytes, list[bytes]]:
        """Group record IDs by every keyword they are indexed under."""
        bits = self.params.value_bits
        postings: dict[bytes, list[bytes]] = {}
        for record in records:
            if isinstance(record, AttributedRecord):
                pairs = record.attributes
            else:
                pairs = (("", record.value),)
            for attribute, value in pairs:
                self._attributes.add(attribute)
                for keyword in keywords_for_record(value, bits, attribute):
                    postings.setdefault(keyword, []).append(record.record_id)
        return postings

    def _stage_keywords(self, records: list[Record | AttributedRecord]) -> list[KeywordJob]:
        """The stateful half of Build/Insert: every state transition that
        consumes the owner's RNG or mutates ``T``/``S``.

        Trapdoor sampling, the π_sk^{-1} advance and the per-record nonce
        draws happen here, in postings order; this draw order fixes every
        byte of the index.
        """
        field = self.params.multiset_field
        jobs: list[KeywordJob] = []
        for keyword, record_ids in self._postings(records).items():
            g1, g2 = derive_g1_g2(self.keys.prf_key, keyword)
            entry = self.trapdoor_state.find(keyword)
            if entry is None:
                # First sighting: fresh trapdoor, epoch 0, empty hash H(φ).
                trapdoor = self.keys.trapdoor.sample_trapdoor(self.rng)
                epoch = 0
                running = MultisetHash.empty(field)
            else:
                # Known keyword: pop its running hash and advance the
                # trapdoor via π_sk^{-1} (the forward-security step).
                trapdoor, epoch = entry.trapdoor, entry.epoch
                running = self.set_hash_state.pop(set_hash_key(trapdoor, epoch, g1, g2))
                trapdoor = self.keys.trapdoor.invert(trapdoor)
                epoch += 1
            self.trapdoor_state.put(keyword, trapdoor, epoch)
            postings = tuple(
                (record_id, self.rng.token_bytes(NONCE_LEN)) for record_id in record_ids
            )
            jobs.append(KeywordJob(trapdoor, epoch, g1, g2, running.value, postings))
        return jobs

    def _index_keyword(
        self, job: KeywordJob, record_cts: list[bytes]
    ) -> tuple[list[tuple[bytes, bytes]], int]:
        """Algorithm 1/2 lines 10-16 for one staged keyword.

        ``record_cts`` are the job's postings encrypted under their
        pre-drawn nonces, in counter order.  Derives each PRF label and
        pad, masks the ciphertext, and folds the ciphertexts into the
        running multiset hash.  Returns ``(entries, folded_hash_value)``,
        entries in counter order.
        """
        label_prf = PRF(job.g1, self.params.label_len)
        pad_prf = PRF(job.g2)
        field = self.params.multiset_field
        entries: list[tuple[bytes, bytes]] = []
        for counter, record_ct in enumerate(record_cts):
            label = label_prf.eval(job.trapdoor, encode_uint(counter))
            pad = pad_prf.eval_stream(len(record_ct), job.trapdoor, encode_uint(counter))
            entries.append((label, xor_bytes(pad, record_ct)))
        running = MultisetHash(job.running_value, field) + MultisetHash.of(record_cts, field)
        return entries, running.value

    def _encrypt_postings(self, jobs: list[KeywordJob]) -> list[list[bytes]]:
        """Every posting's ``Enc(K_R, R)`` in one batch, regrouped per job."""
        postings = [posting for job in jobs for posting in job.postings]
        flat = iter(
            self._cipher.encrypt_many(
                [record_id for record_id, _ in postings], [nonce for _, nonce in postings]
            )
        )
        return [list(islice(flat, len(job.postings))) for job in jobs]

    def _index_batch(self, records: list[Record | AttributedRecord]) -> OwnerOutput:
        """The shared core of Build and Insert: one epoch per touched keyword.

        Phase 1 ("index"): staging (see :meth:`_stage_keywords`), then the
        PRF/encrypt/multiset-fold work per keyword.  Phase 2 ("ads"):
        ``H_prime`` derivation per keyword, then the single accumulator fold.
        """
        new_index = EncryptedIndex()
        field = self.params.multiset_field

        with self.stopwatch.measure("index"), trace.span("owner.index"):
            jobs = self._stage_keywords(records)
            metrics.observe("owner.batch.records", len(records))
            metrics.observe("owner.batch.keywords", len(jobs))
            folded = [
                self._index_keyword(job, record_cts)
                for job, record_cts in zip(jobs, self._encrypt_postings(jobs))
            ]
            for entries, _ in folded:
                for label, payload in entries:
                    new_index.put(label, payload)

        with self.stopwatch.measure("ads"), trace.span("owner.ads"):
            h_prime = self.params.hash_to_prime()
            new_primes: list[int] = []
            for job, (_, running_value) in zip(jobs, folded):
                state_key = set_hash_key(job.trapdoor, job.epoch, job.g1, job.g2)
                running = MultisetHash(running_value, field)
                self.set_hash_state.put(state_key, running)
                new_primes.append(h_prime(encode_parts(state_key, running.to_bytes())))
            self.accumulator.add_many(new_primes)
        package = CloudPackage(new_index, new_primes, self.accumulator.value)
        return self._finish(package, jobs, folded)

    def _finish(self, package: CloudPackage, jobs, folded) -> OwnerOutput:
        return OwnerOutput(
            cloud_package=package,
            chain_ads=self.accumulator.value,
            user_package=self.user_package(),
            shard_packages=self._split_for_shards(package, jobs, folded),
        )

    def _split_for_shards(self, package: CloudPackage, jobs, folded):
        """Route each keyword job's entries/prime to its home shard.

        Jobs, folded entry lists and ``package.primes`` are parallel arrays
        in job order, so the split is a pure regrouping of the exact bytes
        the flat package carries — shard slices merged back together equal
        the flat index, and every shard still receives the full delta prime
        list (see :mod:`repro.sharding.plan`).
        """
        if self.shard_plan is None:
            return None
        from ..sharding.plan import split_package  # local: sharding builds on core

        routed = [
            (self.shard_plan.shard_of(job.g1), entries, prime)
            for job, (entries, _), prime in zip(jobs, folded, package.primes)
        ]
        return split_package(
            self.shard_plan, routed, list(package.primes), package.accumulation
        )
