"""Merkle-digest anti-entropy: convergence at digest-message cost."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dynamo import DynamoCluster, HashRing, VectorClock, VersionedValue
from repro.dynamo.merkle import all_digests, bucket_of, frontier_digest
from repro.sim import Timeout

# A clock's counters in generation order, so equal clocks can arrive with
# their entries in any order.
clocks = st.lists(
    st.tuples(st.sampled_from(["n1", "n2", "n3", "n4"]),
              st.integers(min_value=1, max_value=5)),
    min_size=1, max_size=4, unique_by=lambda pair: pair[0],
).map(lambda pairs: VectorClock(dict(pairs)))

siblings = st.lists(
    st.builds(VersionedValue, st.integers(0, 3), clocks), min_size=1, max_size=3
)

stores = st.dictionaries(st.text(min_size=1, max_size=6), siblings, max_size=24)


def test_bucket_of_stable():
    assert bucket_of("k", 16) == bucket_of("k", 16)
    assert 0 <= bucket_of("anything", 8) < 8


def test_digest_reflects_content():
    v1 = VersionedValue("a", VectorClock({"n1": 1}))
    v2 = VersionedValue("b", VectorClock({"n1": 2}))
    key = "some-key"
    bucket = bucket_of(key, 4)
    empty = frontier_digest({}, bucket, 4)
    with_v1 = frontier_digest({key: [v1]}, bucket, 4)
    with_v2 = frontier_digest({key: [v2]}, bucket, 4)
    assert empty != with_v1
    assert with_v1 != with_v2
    assert with_v1 == frontier_digest({key: [v1]}, bucket, 4)


def test_digest_ignores_other_buckets():
    v = VersionedValue("a", VectorClock({"n1": 1}))
    key = "some-key"
    other_bucket = (bucket_of(key, 4) + 1) % 4
    assert frontier_digest({key: [v]}, other_bucket, 4) == frontier_digest({}, other_bucket, 4)


def test_all_digests_length():
    assert len(all_digests({}, 8)) == 8


def test_merkle_round_heals_a_missed_write():
    cluster = DynamoCluster(num_nodes=5, n=3, r=1, w=1, seed=19, read_repair=False)
    client = cluster.client()
    owners = cluster.ring.intended_owners("k", 3)

    def scenario():
        cluster.crash(owners[1])
        yield from client.put("k", "v1")
        cluster.restart(owners[1])
        yield Timeout(0.05)
        stats = yield from cluster.run_merkle_round(buckets=8)
        return stats

    stats = cluster.sim.run_process(scenario())
    assert stats["versions_moved"] >= 1
    assert any(v.value == "v1" for v in cluster.nodes[owners[1]].versions_of("k"))
    assert cluster.converged_on("k")


def test_converged_round_costs_only_digests():
    cluster = DynamoCluster(num_nodes=4, n=3, r=2, w=3, seed=21)
    client = cluster.client()

    def scenario():
        yield from client.put("k1", "a")
        yield from client.put("k2", "b")
        first = yield from cluster.run_merkle_round(buckets=8)
        second = yield from cluster.run_merkle_round(buckets=8)
        return first, second

    first, second = cluster.sim.run_process(scenario())
    assert second["bucket_msgs"] == 0
    assert second["versions_moved"] == 0
    assert second["digest_msgs"] > 0  # the cheap heartbeat of agreement


def test_merkle_respects_ownership():
    """Non-owners never accumulate keys through merkle sync."""
    cluster = DynamoCluster(num_nodes=6, n=2, r=1, w=2, seed=23)
    client = cluster.client()

    def scenario():
        yield from client.put("the-key", "v")
        for _ in range(2):
            yield from cluster.run_merkle_round(buckets=8)
        owners = set(cluster.ring.intended_owners("the-key", 2))
        holders = {
            name for name, node in cluster.nodes.items()
            if node.versions_of("the-key")
        }
        return owners, holders

    owners, holders = cluster.sim.run_process(scenario())
    assert holders <= owners | holders  # trivially true; real check below
    # Every non-owner holding the key could only be a hinted fallback from
    # the original PUT, never a merkle recipient: with all nodes up at PUT
    # time there were no hints, so holders ⊆ owners.
    assert holders <= owners


# ----------------------------------------------------------------------
# Edge cases: degenerate stores and representation independence


def test_empty_vs_empty_all_buckets_agree():
    """Two empty stores digest identically in every bucket — an
    anti-entropy pass between fresh nodes moves nothing."""
    assert all_digests({}, 16) == all_digests({}, 16)
    for bucket in range(8):
        assert frontier_digest({}, bucket, 8) == frontier_digest({}, bucket, 8)


def test_single_bucket_total_divergence():
    """With one bucket the whole keyspace is one digest: completely
    disjoint stores disagree on it, and syncing that one bucket is a
    whole-store transfer — the degenerate tree gives no locality."""
    mine = {
        f"k{i}": [VersionedValue(i, VectorClock({"n1": i + 1}))]
        for i in range(10)
    }
    theirs = {
        f"j{i}": [VersionedValue(i, VectorClock({"n2": i + 1}))]
        for i in range(10)
    }
    assert all(bucket_of(key, 1) == 0 for key in list(mine) + list(theirs))
    assert all_digests(mine, 1) != all_digests(theirs, 1)
    # Same content, one bucket: still equal — divergence, not bucketing.
    assert all_digests(mine, 1) == all_digests(dict(mine), 1)


def test_digest_stable_across_insertion_order():
    """The digest is a function of the *set* of (key, clock, value)
    triples, not of dict insertion order — neither store-key order nor
    clock-counter order may leak into the hash."""
    forward = VersionedValue("v", VectorClock({"n1": 1, "n2": 2}))
    backward = VersionedValue("v", VectorClock({"n2": 2, "n1": 1}))
    store_ab = {"a": [forward], "b": [forward]}
    store_ba = {"b": [forward], "a": [forward]}
    assert list(store_ab) != list(store_ba)  # insertion order does differ
    for bucket in range(4):
        assert (frontier_digest(store_ab, bucket, 4)
                == frontier_digest(store_ba, bucket, 4))
        assert (frontier_digest({"k": [forward]}, bucket, 4)
                == frontier_digest({"k": [backward]}, bucket, 4))


@given(stores, st.integers(min_value=1, max_value=32))
@settings(max_examples=80)
def test_all_digests_matches_per_bucket_reference(store, buckets):
    """The single bucketing pass digests every bucket exactly as the
    one-bucket reference does, with or without a ring's hash memo."""
    reference = [frontier_digest(store, b, buckets) for b in range(buckets)]
    assert all_digests(store, buckets) == reference
    ring = HashRing(["a", "b"])
    assert all_digests(store, buckets, ring.position) == reference
