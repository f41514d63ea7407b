"""Bucketed digests for replica synchronization.

Real Dynamo uses Merkle trees so two replicas can detect divergence with
a handful of hash comparisons instead of scanning every key. We model one
tree level: the key space is hashed into ``buckets``; each bucket's
digest covers the sibling frontier (key, clocks) of every key in it. Two
nodes exchange digests, then ship versions only for mismatched buckets —
the §7.6 conversation, at realistic message cost.

Cost model: a key's ring hash is taken once per ring (``position`` is
the cluster's :meth:`HashRing.position` memo), and each digest exchange
buckets the compared view in one pass — :func:`split_buckets` — then
hashes each bucket once. :func:`frontier_digest` is the one-bucket
reference the single pass must match byte for byte.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Dict, List

from repro.dynamo.ring import ring_hash
from repro.dynamo.versions import VersionedValue

Store = Dict[str, List[VersionedValue]]


def bucket_of(key: str, buckets: int) -> int:
    """Which bucket a key's hash lands in."""
    return ring_hash(key) % buckets


def frontier_digest(store: Store, bucket: int, buckets: int) -> str:
    """Digest of one bucket: hashes the sorted (key, sorted clock set)
    structure. Values ride with their clocks, so clock equality is
    version equality."""
    entries = []
    for key in sorted(store):
        if bucket_of(key, buckets) != bucket:
            continue
        clocks = sorted(
            tuple(sorted(v.clock.counters.items())) for v in store[key]
        )
        entries.append((key, tuple(clocks)))
    digest = hashlib.sha256(repr(entries).encode()).hexdigest()
    return digest


def split_buckets(
    store: Store, buckets: int, position: Callable[[str], int] = ring_hash
) -> List[Store]:
    """The store cut into one sub-store per bucket, each in store order."""
    parts: List[Store] = [{} for _ in range(buckets)]
    for key, versions in store.items():
        parts[position(key) % buckets][key] = versions
    return parts


def bucket_digest(part: Store) -> str:
    """The digest of one bucket's sub-store (see :func:`frontier_digest`)."""
    entries = [
        (key, tuple(sorted(
            tuple(sorted(v.clock.counters.items())) for v in part[key]
        )))
        for key in sorted(part)
    ]
    return hashlib.sha256(repr(entries).encode()).hexdigest()


def all_digests(
    store: Store, buckets: int, position: Callable[[str], int] = ring_hash
) -> List[str]:
    """Every bucket's digest, in bucket order, from one bucketing pass."""
    return [bucket_digest(part) for part in split_buckets(store, buckets, position)]
