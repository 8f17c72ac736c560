"""Block builder: packing, journaled replay, reorgs, settlement proofs."""

import dataclasses

import pytest

from repro.blockchain.block import settlement_leaves
from repro.blockchain.block_builder import BlockBuilder
from repro.blockchain.chain import MAX_JOURNAL, Blockchain
from repro.blockchain.contract import Contract
from repro.blockchain.light_client import follow
from repro.blockchain.mempool import Mempool
from repro.blockchain.proofs import (
    prove_inclusion,
    prove_settlement,
    verify_inclusion,
    verify_settlement,
)
from repro.chaos import ChainFaultPlan, ChainFaultProfile
from repro.common.encoding import encode_uint
from repro.common.errors import BlockchainError


class Settler(Contract):
    """Minimal contract emitting the settlement event shape."""

    CODE_SIZE = 100

    def init(self) -> None:
        self._sstore_int("count", 0, 8)

    def bump(self) -> int:
        value = self._sload_int("count") + 1
        self._sstore_int("count", value, 8)
        return value

    def settle(self, query_id: int, verdict: bool) -> bool:
        self._sstore_int("count", self._sload_int("count") + 1, 8)
        self._emit(
            "QuerySettled",
            query_id=encode_uint(query_id),
            verified=b"\x01" if verdict else b"\x00",
        )
        return verdict

    def fail(self) -> None:
        self._require(False, "always reverts")


@pytest.fixture()
def setup():
    chain = Blockchain()
    alice = chain.create_account("alice", 10**9)
    contract, _ = chain.deploy(alice, Settler)
    chain.mine()
    builder = BlockBuilder(chain, Mempool(chain))
    return chain, builder, contract, alice


def reorg_every_block(depth: int = 1) -> ChainFaultPlan:
    """A plan whose every draw reorgs at exactly ``depth``."""
    profile = ChainFaultProfile(
        name="always", reorg=1000, reorg_depth_max=depth, force_clean_after=10**6
    )
    return ChainFaultPlan(profile, seed=5)


class TestSealing:
    def test_staged_call_lands_in_next_block(self, setup):
        chain, builder, contract, alice = setup
        builder.stage_settlement(
            alice, contract, "settle", (0, True), gas_limit=100_000, tx_id="s0"
        )
        block = builder.seal_block()
        assert len(block.transactions) == 1
        receipt, height = builder.receipts["s0"]
        assert receipt.status and receipt.return_value is True
        assert height == block.number

    def test_empty_block_seals_cleanly(self, setup):
        chain, builder, _, _ = setup
        before = chain.height
        block = builder.seal_block()
        assert block.transactions == []
        assert chain.height == before + 1

    def test_one_block_carries_many_settlements(self, setup):
        chain, builder, contract, alice = setup
        for i in range(5):
            builder.stage_settlement(
                alice, contract, "settle", (i, True), gas_limit=100_000, tx_id=f"s{i}"
            )
        block = builder.seal_block()
        assert len(block.transactions) == 5
        assert len({builder.receipts[f"s{i}"][1] for i in range(5)}) == 1

    def test_full_block_defers_overflow_to_next(self, setup):
        """Declared limits beyond the budget spill into the next block."""
        chain, builder, contract, alice = setup
        per_tx = chain.config.block_gas_limit // 2 + 1  # only one fits
        for i in range(2):
            builder.stage_settlement(
                alice, contract, "settle", (i, True), gas_limit=per_tx, tx_id=f"s{i}"
            )
        first = builder.seal_block()
        second = builder.seal_block()
        assert len(first.transactions) == 1
        assert len(second.transactions) == 1
        assert builder.receipts["s0"][1] == first.number
        assert builder.receipts["s1"][1] == second.number

    def test_immediate_calls_share_the_block(self, setup):
        chain, builder, contract, alice = setup
        builder.execute_now(alice, contract, "bump", tx_id="now")
        builder.stage_settlement(
            alice, contract, "settle", (0, True), gas_limit=100_000, tx_id="later"
        )
        block = builder.seal_block()
        assert len(block.transactions) == 2
        assert builder.receipts["now"][1] == builder.receipts["later"][1]

    def test_out_of_band_pending_tx_rejected(self, setup):
        """Block mode must own every transaction, or reorg replay breaks."""
        chain, builder, contract, alice = setup
        chain.call(alice, contract, "bump")  # behind the builder's back
        with pytest.raises(BlockchainError):
            builder.execute_now(alice, contract, "bump")


class TestSettlementRoot:
    def test_proof_roundtrip_against_header(self, setup):
        chain, builder, contract, alice = setup
        builder.stage_settlement(
            alice, contract, "settle", (7, True), gas_limit=100_000, tx_id="s"
        )
        block = builder.seal_block()
        proof = prove_settlement(block, encode_uint(7))
        assert verify_settlement(block.header.settlement_root, proof)
        client = follow(chain)
        assert client.check_settlement(proof)

    def test_tampered_verdict_rejected(self, setup):
        chain, builder, contract, alice = setup
        builder.stage_settlement(
            alice, contract, "settle", (7, False), gas_limit=100_000, tx_id="s"
        )
        block = builder.seal_block()
        proof = prove_settlement(block, encode_uint(7))
        assert proof.verified == b"\x00"
        flipped = type(proof)(
            proof.block_number, proof.index, proof.tx_hash, proof.query_id,
            b"\x01", proof.path,
        )
        assert not verify_settlement(block.header.settlement_root, flipped)
        assert not follow(chain).check_settlement(flipped)

    def test_wrong_header_rejected(self, setup):
        chain, builder, contract, alice = setup
        builder.stage_settlement(
            alice, contract, "settle", (7, True), gas_limit=100_000, tx_id="s"
        )
        block = builder.seal_block()
        other = builder.seal_block()  # empty: EMPTY_ROOT settlement root
        proof = prove_settlement(block, encode_uint(7))
        assert not verify_settlement(other.header.settlement_root, proof)

    def test_reverted_settlement_leaves_no_leaf(self, setup):
        chain, builder, contract, alice = setup
        builder.stage_settlement(
            alice, contract, "fail", (), gas_limit=100_000, tx_id="boom"
        )
        block = builder.seal_block()
        assert not builder.receipts["boom"][0].status
        assert settlement_leaves(block.receipts) == []
        with pytest.raises(BlockchainError):
            prove_settlement(block, encode_uint(0))


class TestReorg:
    def test_reorg_replays_identically(self, setup):
        chain, builder, contract, alice = setup
        builder.fault_plan = reorg_every_block(depth=1)
        builder.stage_settlement(
            alice, contract, "settle", (1, True), gas_limit=100_000, tx_id="s"
        )
        builder.seal_block()
        assert builder.reorgs == 1 and builder.orphaned == 1
        receipt, height = builder.receipts["s"]
        assert receipt.status and receipt.return_value is True
        # The replacement block carries the settlement at the same height.
        assert chain.blocks[height].transactions[0].hash() == receipt.tx_hash
        chain.verify_integrity()

    def test_replacement_blocks_hash_differently(self, setup):
        chain, builder, contract, alice = setup
        builder.execute_now(alice, contract, "bump")
        block = builder.seal_block()
        orphaned_hash = block.header.hash()
        builder.fault_plan = reorg_every_block(depth=2)
        builder.stage_settlement(
            alice, contract, "settle", (1, True), gas_limit=100_000, tx_id="s"
        )
        builder.seal_block()
        assert builder.orphaned == 2
        assert chain.blocks[block.number].header.hash() != orphaned_hash

    def test_depth_two_reorg_preserves_state(self, setup):
        chain, builder, contract, alice = setup
        r1 = builder.execute_now(alice, contract, "bump")
        builder.seal_block()
        balance_before = chain.balance(alice)
        builder.fault_plan = reorg_every_block(depth=2)
        r2 = builder.execute_now(alice, contract, "bump")
        builder.seal_block()
        assert builder.orphaned == 2
        assert (r1.return_value, r2.return_value) == (1, 2)
        # Post-reorg the counter reflects exactly two bumps, no more.
        assert chain.call(alice, contract, "bump").return_value == 3
        assert chain.balance(alice) == balance_before

    def test_light_client_follows_across_reorg(self, setup):
        chain, builder, contract, alice = setup
        builder.execute_now(alice, contract, "bump")
        builder.seal_block()
        client = follow(chain)
        tracked = client.height
        builder.fault_plan = reorg_every_block(depth=1)
        builder.stage_settlement(
            alice, contract, "settle", (3, True), gas_limit=100_000, tx_id="s"
        )
        block = builder.seal_block()
        client.sync(chain)
        assert client.orphaned == 0  # reorg happened above its tracked tip
        assert client.height == chain.height
        assert client.check_settlement(prove_settlement(block, encode_uint(3)))
        # Now reorg *below* a tracked tip: a depth-2 reorg orphans the block
        # this client already accepted, so sync must discard and re-accept.
        builder.fault_plan = reorg_every_block(depth=2)
        builder.stage_settlement(
            alice, contract, "settle", (4, True), gas_limit=100_000, tx_id="s2"
        )
        block2 = builder.seal_block()
        client.sync(chain)
        assert client.orphaned == 1
        assert client.height == chain.height
        assert client.check_settlement(prove_settlement(block2, encode_uint(4)))
        # The pre-reorg proof is re-provable against the replacement block.
        replay = prove_settlement(chain.blocks[block.number], encode_uint(3))
        assert client.check_settlement(replay)


def seal_settlements(builder, contract, alice, count: int, first: int = 0) -> None:
    """Seal ``count`` blocks, each carrying one settlement's calldata."""
    for i in range(first, first + count):
        builder.stage_settlement(
            alice, contract, "settle", (i, True), gas_limit=100_000, tx_id=f"s{i}"
        )
        builder.seal_block()


class ReorgOnce:
    """Fault-plan stub: one reorg of exactly ``depth`` at the next seal."""

    def __init__(self, depth: int) -> None:
        self.depth = depth

    def draw_reorg(self) -> int:
        depth, self.depth = self.depth, 0
        return depth

    def draw_delay(self) -> int:
        return 0


class TestPrunedChain:
    """Blocks beyond reorg reach keep header, ``tx_hashes`` and receipts only."""

    @pytest.fixture()
    def pruned(self, setup):
        chain, builder, contract, alice = setup
        seal_settlements(builder, contract, alice, MAX_JOURNAL + 3)
        assert chain.height > MAX_JOURNAL + 2
        return setup

    def test_only_blocks_in_reach_keep_bodies(self, pruned):
        chain = pruned[0]
        for block in chain.blocks:
            in_reach = block.number >= chain.height - MAX_JOURNAL
            assert block.pruned is not in_reach
            assert len(block.tx_hashes) == 1 and len(block.receipts) == 1
            assert len(block.transactions) == (1 if in_reach else 0)
        assert chain.verify_integrity()

    def test_tampering_a_pruned_block_is_caught(self, pruned):
        chain = pruned[0]
        block = chain.blocks[1]
        assert block.pruned
        header, receipt = block.header, block.receipts[0]

        block.header = dataclasses.replace(header, timestamp=header.timestamp + 1)
        assert not chain.verify_integrity()
        block.header = header

        block.receipts[0] = dataclasses.replace(receipt, status=not receipt.status)
        assert not chain.verify_integrity()
        block.receipts[0] = receipt

        block.tx_hashes[0] = bytes(32)
        assert not chain.verify_integrity()
        block.tx_hashes[0] = receipt.tx_hash
        assert chain.verify_integrity()

    def test_tampering_a_kept_body_is_caught(self, pruned):
        chain = pruned[0]
        block = chain.blocks[-1]
        tx = block.transactions[0]
        block.transactions[0] = dataclasses.replace(tx, value=tx.value + 1)
        assert not chain.verify_integrity()
        block.transactions[0] = tx
        assert chain.verify_integrity()

    def test_proofs_on_a_pruned_block_verify(self, pruned):
        chain = pruned[0]
        block = chain.blocks[2]
        assert block.pruned
        client = follow(chain)
        inclusion = prove_inclusion(block, block.tx_hashes[0])
        assert verify_inclusion(block.header.tx_root, inclusion)
        assert client.check_inclusion(inclusion)
        query_id = block.receipts[0].logs[0].get("query_id")
        settlement = prove_settlement(block, query_id)
        assert verify_settlement(block.header.settlement_root, settlement)
        assert client.check_settlement(settlement)

    def test_full_depth_reorg_after_pruning_replays_bit_for_bit(self):
        """A depth-``MAX_JOURNAL`` reorg, once pruning has started, lands
        the same transactions, receipts and state as a chain with none."""

        def run(reorg: bool):
            chain = Blockchain()
            alice = chain.create_account("alice", 10**9)
            contract, _ = chain.deploy(alice, Settler)
            chain.mine()
            builder = BlockBuilder(chain, Mempool(chain))
            seal_settlements(builder, contract, alice, MAX_JOURNAL + 2)
            assert any(block.pruned for block in chain.blocks)
            if reorg:
                builder.fault_plan = ReorgOnce(MAX_JOURNAL)
            seal_settlements(builder, contract, alice, 1, first=MAX_JOURNAL + 2)
            assert builder.orphaned == (MAX_JOURNAL if reorg else 0)
            assert chain.verify_integrity()
            return chain

        plain, reorged = run(reorg=False), run(reorg=True)
        assert reorged.height == plain.height
        for a, b in zip(plain.blocks, reorged.blocks):
            assert (a.pruned, a.tx_hashes) == (b.pruned, b.tx_hashes)
            assert a.transactions == b.transactions
            assert [dataclasses.asdict(r) for r in a.receipts] == [
                dataclasses.asdict(r) for r in b.receipts
            ]
        plain_state, reorged_state = plain.state_checkpoint(), reorged.state_checkpoint()
        assert plain_state == reorged_state
