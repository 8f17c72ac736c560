"""Transaction inclusion and settlement proofs (light-client verification).

The paper leans on the blockchain for *trusted storage* of ``Ac`` and
*trusted execution* of the verification.  A party that does not replay the
whole chain can still check two kinds of facts against a sealed header:

* **inclusion** — that a transaction (say, the ADS update that anchors
  freshness) is in the block: an authentication path against the header's
  transaction Merkle root;
* **settlement** — that a specific escrow settled with a specific verdict:
  the header additionally commits to the block's ``QuerySettled`` events
  through ``settlement_root``, so "query 7 was paid" is checkable from the
  header plus one Merkle path, without receipts and without replaying the
  contract.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from ..common.errors import BlockchainError
from .block import Block, settlement_leaf, settlement_leaves

#: One Merkle authentication path: (sibling, sibling-is-right) per level.
MerklePath = tuple[tuple[bytes, bool], ...]


@dataclass(frozen=True)
class InclusionProof:
    """Authentication path for one transaction inside one block."""

    block_number: int
    tx_index: int
    tx_hash: bytes
    path: MerklePath


@dataclass(frozen=True)
class SettlementProof:
    """Authentication path for one settlement verdict inside one block.

    Carries the claim itself (query id, verdict byte, settling tx hash):
    verifying the path against a trusted header's ``settlement_root``
    authenticates exactly that claim.
    """

    block_number: int
    index: int
    tx_hash: bytes
    query_id: bytes
    verified: bytes
    path: MerklePath


def _leaf(item: bytes) -> bytes:
    return hashlib.sha256(b"\x00" + item).digest()


def _node(left: bytes, right: bytes) -> bytes:
    return hashlib.sha256(b"\x01" + left + right).digest()


def merkle_path(items: list[bytes], index: int) -> MerklePath:
    """The authentication path of ``items[index]`` under :func:`merkleize`."""
    if not 0 <= index < len(items):
        raise BlockchainError("merkle path index out of range")
    layer = [_leaf(item) for item in items]
    path: list[tuple[bytes, bool]] = []
    pos = index
    while len(layer) > 1:
        sibling = pos ^ 1
        if sibling >= len(layer):
            sibling = pos  # odd node duplicated upward (matches merkleize)
        path.append((layer[sibling], sibling >= pos))
        nxt = []
        for i in range(0, len(layer), 2):
            right = layer[i + 1] if i + 1 < len(layer) else layer[i]
            nxt.append(_node(layer[i], right))
        layer = nxt
        pos //= 2
    return tuple(path)


def _fold_path(leaf_item: bytes, path: MerklePath) -> bytes:
    node = _leaf(leaf_item)
    for sibling, sibling_is_right in path:
        node = _node(node, sibling) if sibling_is_right else _node(sibling, node)
    return node


# ------------------------------------------------------------- transactions


def prove_inclusion(block: Block, tx_hash: bytes) -> InclusionProof:
    """Build the Merkle path of ``tx_hash`` against the block's tx root.

    Reads ``block.tx_hashes``, so a block whose bodies were pruned still
    proves inclusion.
    """
    hashes = block.tx_hashes
    try:
        index = hashes.index(tx_hash)
    except ValueError as exc:
        raise BlockchainError("transaction not in this block") from exc
    return InclusionProof(block.number, index, tx_hash, merkle_path(hashes, index))


def verify_inclusion(tx_root: bytes, proof: InclusionProof) -> bool:
    """Check an inclusion proof against a header's transaction root."""
    return _fold_path(proof.tx_hash, proof.path) == tx_root


# -------------------------------------------------------------- settlements


def prove_settlement(block: Block, query_id: bytes) -> SettlementProof:
    """Build the settlement proof for ``query_id`` (encoded uint bytes).

    The leaf order is the receipt/event order :func:`settlement_leaves`
    derives, so prover and verifier agree on indices by construction.
    """
    leaves = settlement_leaves(block.receipts)
    settled = [
        (receipt, event)
        for receipt in block.receipts
        for event in receipt.logs
        if event.name == "QuerySettled"
    ]
    for index, (receipt, event) in enumerate(settled):
        if bytes(event.get("query_id")) == bytes(query_id):
            return SettlementProof(
                block_number=block.number,
                index=index,
                tx_hash=receipt.tx_hash,
                query_id=bytes(event.get("query_id")),
                verified=bytes(event.get("verified")),
                path=merkle_path(leaves, index),
            )
    raise BlockchainError("no settlement for this query in this block")


def verify_settlement(settlement_root: bytes, proof: SettlementProof) -> bool:
    """Check a settlement proof against a header's settlement root."""
    item = settlement_leaf(proof.tx_hash, proof.query_id, proof.verified)
    return _fold_path(item, proof.path) == settlement_root
