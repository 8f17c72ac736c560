"""Blocks and the hash-linked header chain."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from ..common.encoding import encode_parts, encode_uint
from .transaction import Receipt, Transaction

GENESIS_PARENT = b"\x00" * 32

#: Empty-tree commitment (also the ``settlement_root`` of a block that
#: settled nothing, so pre-existing headers stay constructible).
EMPTY_ROOT = b"\x00" * 32


@dataclass(frozen=True)
class BlockHeader:
    """Minimal PoA-style header: number, parent link, tx/receipt commitments.

    ``settlement_root`` commits to the block's settlement verdicts (one leaf
    per ``QuerySettled`` event, see :func:`settlement_leaves`) so a light
    client can check *how an escrow settled* from the header alone, without
    replaying receipts.
    """

    number: int
    parent_hash: bytes
    tx_root: bytes
    receipt_root: bytes
    sealer: bytes
    timestamp: int
    settlement_root: bytes = EMPTY_ROOT

    def hash(self) -> bytes:
        return hashlib.sha256(
            encode_parts(
                encode_uint(self.number),
                self.parent_hash,
                self.tx_root,
                self.receipt_root,
                self.sealer,
                encode_uint(self.timestamp),
                self.settlement_root,
            )
        ).digest()


@dataclass
class Block:
    """A sealed header plus its body.

    ``tx_hashes`` (the leaves of ``tx_root``) outlive the transaction
    bodies: once a block falls out of reorg reach the chain drops its
    ``transactions`` (:meth:`drop_bodies`), while the header, ``tx_hashes``
    and receipts stay, so inclusion proofs and integrity checks still work.
    """

    header: BlockHeader
    transactions: list[Transaction] = field(default_factory=list)
    receipts: list[Receipt] = field(default_factory=list)
    tx_hashes: list[bytes] = field(default_factory=list)
    pruned: bool = False

    @property
    def number(self) -> int:
        return self.header.number

    def drop_bodies(self) -> None:
        """Release the transaction bodies; keep header, hashes and receipts."""
        self.transactions = []
        self.pruned = True

    def hash(self) -> bytes:
        return self.header.hash()


def merkleize(items: list[bytes]) -> bytes:
    """Binary-tree commitment over a byte-string list (empty list -> zeros)."""
    if not items:
        return EMPTY_ROOT
    layer = [hashlib.sha256(b"\x00" + item).digest() for item in items]
    while len(layer) > 1:
        nxt = []
        for i in range(0, len(layer), 2):
            right = layer[i + 1] if i + 1 < len(layer) else layer[i]
            nxt.append(hashlib.sha256(b"\x01" + layer[i] + right).digest())
        layer = nxt
    return layer[0]


def settlement_leaf(tx_hash: bytes, query_id: bytes, verified: bytes) -> bytes:
    """Leaf encoding for one ``QuerySettled`` verdict.

    Binding the settling transaction's hash into the leaf keeps leaves
    unique even if (hypothetically) two transactions settled the same query
    id, and lets a proof name the transaction that carried the verdict.
    """
    return encode_parts(tx_hash, query_id, verified)


def settlement_leaves(receipts: list[Receipt]) -> list[bytes]:
    """Settlement leaves of a block, in receipt order.

    Only successful receipts carry logs (reverted calls are rolled back
    wholesale), so every ``QuerySettled`` event here is a verdict that
    actually took effect.
    """
    leaves: list[bytes] = []
    for receipt in receipts:
        for event in receipt.logs:
            if event.name == "QuerySettled":
                leaves.append(
                    settlement_leaf(
                        receipt.tx_hash,
                        bytes(event.get("query_id")),
                        bytes(event.get("verified")),
                    )
                )
    return leaves


def seal_header(
    number: int,
    parent_hash: bytes,
    tx_hashes: list[bytes],
    receipts: list[Receipt],
    sealer: bytes,
    timestamp: int,
) -> BlockHeader:
    """The header committing to ``tx_hashes`` and ``receipts``."""
    return BlockHeader(
        number=number,
        parent_hash=parent_hash,
        tx_root=merkleize(tx_hashes),
        receipt_root=merkleize([r.tx_hash + (b"\x01" if r.status else b"\x00") for r in receipts]),
        sealer=sealer,
        timestamp=timestamp,
        settlement_root=merkleize(settlement_leaves(receipts)),
    )


def make_block(
    number: int,
    parent_hash: bytes,
    transactions: list[Transaction],
    receipts: list[Receipt],
    sealer: bytes,
    timestamp: int,
) -> Block:
    tx_hashes = [tx.hash() for tx in transactions]
    header = seal_header(number, parent_hash, tx_hashes, receipts, sealer, timestamp)
    return Block(header, list(transactions), list(receipts), tx_hashes)
