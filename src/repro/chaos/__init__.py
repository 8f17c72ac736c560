"""Chaos engineering for the four-party protocol: deterministic fault
injection on the ``user → contract``, ``contract → cloud``,
``cloud → contract`` and ``owner → cloud/chain`` boundaries, plus the
retry/timeout/backoff machinery that survives it.

Chaos is a property of the link, not a second copy of the protocol: every
party boundary of :class:`~repro.system.SlicerSystem` and of the sharded
front-end goes through :func:`send` inside a :func:`run_leg`.  Hand the
system a :class:`ChaosTransport` and those legs encode, cross the faulty
link and retry; with no transport (the default) the same calls hand each
message to its handler in process, once, with no codec, retry or counter.
"""

from .faults import (
    CHAIN_PROFILES,
    PROFILES,
    ChainFaultKind,
    ChainFaultPlan,
    ChainFaultProfile,
    FaultKind,
    FaultPlan,
    FaultProfile,
    chain_profile_named,
    profile_named,
)
from .retry import RetryPolicy
from .transport import (
    CLOUD_TO_CONTRACT,
    CONTRACT_TO_CLOUD,
    OWNER_TO_CLOUD,
    OWNER_TO_CONTRACT,
    USER_TO_CONTRACT,
    ChaosTransport,
    run_leg,
    send,
    shard_channel,
)

__all__ = [
    "CHAIN_PROFILES",
    "PROFILES",
    "ChainFaultKind",
    "ChainFaultPlan",
    "ChainFaultProfile",
    "FaultKind",
    "FaultPlan",
    "FaultProfile",
    "chain_profile_named",
    "profile_named",
    "RetryPolicy",
    "ChaosTransport",
    "run_leg",
    "send",
    "USER_TO_CONTRACT",
    "CONTRACT_TO_CLOUD",
    "CLOUD_TO_CONTRACT",
    "OWNER_TO_CLOUD",
    "OWNER_TO_CONTRACT",
    "shard_channel",
]
