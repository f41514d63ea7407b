"""Property-based: the elastic ring's splice algebra.

Three truths, over arbitrary join/leave sequences:

1. Incremental splicing is exact — the spliced ring is indistinguishable
   from a ring built from scratch over the surviving node set.
2. ``moved_ranges`` is exact — a key's owner list changed across a
   reshape iff the key hashes into a reported arc; keys outside every
   arc keep their owners.
3. Ownership is a function of the node *set* — insertion order never
   matters.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dynamo import HashRing, moved_ranges

POOL = [f"n{i}" for i in range(8)]

node_sets = st.lists(
    st.sampled_from(POOL), min_size=1, max_size=6, unique=True
)

# A join/leave script: each step picks a pool member; joining if absent,
# leaving if present (skipped when leaving would empty the ring).
scripts = st.lists(st.sampled_from(POOL), min_size=1, max_size=10)

sample_keys = [f"key-{i}" for i in range(80)]


def _apply(ring, script):
    """Run the join/leave script, returning the surviving node set."""
    members = set(ring.nodes)
    for name in script:
        if name in members:
            if len(members) == 1:
                continue
            ring.remove_node(name)
            members.remove(name)
        else:
            ring.add_node(name)
            members.add(name)
    return members


@given(node_sets, scripts)
@settings(max_examples=60)
def test_spliced_ring_matches_from_scratch(initial, script):
    """Also the owner-memo invalidation check: answers cached before the
    splices must not survive them, and a snapshot taken before keeps
    answering for the old membership."""
    ring = HashRing(initial, vnodes=4)
    keys = sample_keys[:20]
    sizes = range(1, 4)
    warm = {(key, n): ring.intended_owners(key, n) for key in keys for n in sizes}
    for key in keys:
        ring.preference_list(key, 3)
    snapshot = ring.clone()
    members = _apply(ring, script)
    fresh = HashRing(sorted(members), vnodes=4)
    assert ring._positions == fresh._positions
    n = min(3, len(members))
    for key in keys:
        assert ring.preference_list(key, n) == fresh.preference_list(key, n)
        for size in sizes:
            assert ring.intended_owners(key, size) == fresh.intended_owners(key, size)
            assert snapshot.intended_owners(key, size) == warm[(key, size)]


@given(node_sets, scripts)
@settings(max_examples=40)
def test_moved_ranges_exactly_the_ownership_changes(initial, script):
    before = HashRing(initial, vnodes=4)
    after = before.clone()
    members = _apply(after, script)
    n = min(3, len(set(initial)), len(members))
    moved = moved_ranges(before, after, n)
    for key in sample_keys:
        owners_changed = (
            before.preference_list(key, n) != after.preference_list(key, n)
        )
        in_arc = any(arc.contains_key(key) for arc in moved)
        assert owners_changed == in_arc, key


@given(node_sets, st.randoms(use_true_random=False))
@settings(max_examples=40)
def test_ownership_is_insertion_order_independent(nodes, rnd):
    shuffled = list(nodes)
    rnd.shuffle(shuffled)
    a = HashRing(nodes, vnodes=4)
    b = HashRing(shuffled, vnodes=4)
    n = min(3, len(nodes))
    for key in sample_keys[:30]:
        assert a.preference_list(key, n) == b.preference_list(key, n)


@given(node_sets, scripts)
@settings(max_examples=40)
def test_unchanged_keys_keep_all_owners(initial, script):
    """Stronger than owner(): the full top-n list is stable outside the
    moved arcs, so data on non-moved arcs never needs to transfer."""
    before = HashRing(initial, vnodes=4)
    after = before.clone()
    members = _apply(after, script)
    n = min(3, len(set(initial)), len(members))
    moved = moved_ranges(before, after, n)
    for key in sample_keys[:40]:
        if not any(arc.contains_key(key) for arc in moved):
            assert before.intended_owners(key, n) == after.intended_owners(key, n)
