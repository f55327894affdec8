"""Composable memory tiers: the unifying abstraction of the paper.

Every disaggregated-memory design in the paper is a choice of *which
tier serves a page* — local DRAM, node shared pool, cluster remote
memory over RDMA, NVM, SSD, disk — plus policies for placement,
compression and failure.  This package factors those choices out of
the swap backends:

* :class:`~repro.tiers.base.Tier` — the per-level protocol (put/get
  generators charging simulated time, per-tier stats, spill/failover
  hooks);
* :class:`~repro.tiers.cascade.TierCascade` — a
  :class:`~repro.swap.base.SwapBackend` assembled from an ordered tier
  stack with spill-on-full, demotion and pluggable placement /
  compression / failover policies;
* concrete tiers wrapping the existing primitives: shared pool,
  batched RDMA remote memory (+PBS), kernel disk swap, batch spill
  (SSD/HDD), NVM, a zswap-style compressed pool, and the replicated
  and erasure-coded remote tiers on one redundant-tier base.

Every backend in :mod:`repro.swap` is a declarative cascade built from
these parts (see :func:`repro.swap.factory.make_swap_backend`).
"""

from repro.tiers.base import DisplacedPage, Tier, TierFull, TierStats
from repro.tiers.cascade import (
    AdaptivePlacement,
    CascadeFull,
    DegradeToDisk,
    EvictAndRebuild,
    FailFastFailover,
    FailoverPolicy,
    FailoverToReplica,
    FixedRatioPlacement,
    SpillDownFailover,
    TierCascade,
)
from repro.tiers.compressed import CompressedPoolTier, CompressionLayer
from repro.tiers.disk import BatchSpillTier, DiskSwapTier
from repro.tiers.erasure import ErasureCodedRemoteTier, StripeCodec
from repro.tiers.nvm import NvmTier
from repro.tiers.pbs import PbsController
from repro.tiers.redundant import PlacementMap, RedundantRemoteTier
from repro.tiers.remote import RemoteArea, RemoteRdmaTier
from repro.tiers.remote_block import DiskBackupTier, RemoteBlockTier
from repro.tiers.replicated import ReplicatedRemoteTier
from repro.tiers.shared_pool import SharedPoolTier

__all__ = [
    "AdaptivePlacement",
    "BatchSpillTier",
    "CascadeFull",
    "CompressedPoolTier",
    "CompressionLayer",
    "DegradeToDisk",
    "DiskBackupTier",
    "DiskSwapTier",
    "DisplacedPage",
    "ErasureCodedRemoteTier",
    "EvictAndRebuild",
    "FailFastFailover",
    "FailoverPolicy",
    "FailoverToReplica",
    "FixedRatioPlacement",
    "NvmTier",
    "PbsController",
    "PlacementMap",
    "RedundantRemoteTier",
    "RemoteArea",
    "RemoteBlockTier",
    "RemoteRdmaTier",
    "ReplicatedRemoteTier",
    "SharedPoolTier",
    "SpillDownFailover",
    "StripeCodec",
    "Tier",
    "TierCascade",
    "TierFull",
    "TierStats",
]
