"""Property-based tests (hypothesis) for core data structures."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.rng import DeterministicRng, derive_seed
from repro.graph.csr import CsrGraph
from repro.hmc.device import _LinkLane
from repro.memlayout.allocator import AddressSpace
from repro.memlayout.regions import Region, region_of
from repro.sim.cache import CacheConfig, _SetAssocCache
from repro.trace.stream import ThreadTrace


# ---------------------------------------------------------------------------
# CSR invariants
# ---------------------------------------------------------------------------

edge_lists = st.lists(
    st.tuples(st.integers(0, 19), st.integers(0, 19)), max_size=200
)


@given(edge_lists)
@settings(max_examples=60, deadline=None)
def test_csr_roundtrips_edge_multiset(edges):
    graph = CsrGraph.from_edges(20, edges)
    assert sorted(graph.iter_edges()) == sorted(edges)


@given(edge_lists)
@settings(max_examples=60, deadline=None)
def test_csr_offsets_monotone_and_consistent(edges):
    graph = CsrGraph.from_edges(20, edges)
    assert (np.diff(graph.row_offsets) >= 0).all()
    assert graph.row_offsets[-1] == len(edges)
    assert graph.out_degrees().sum() == len(edges)


@given(edge_lists)
@settings(max_examples=60, deadline=None)
def test_csr_neighbors_sorted(edges):
    graph = CsrGraph.from_edges(20, edges)
    for v in range(20):
        nbrs = graph.neighbors(v)
        assert (np.diff(nbrs) >= 0).all()


@given(edge_lists)
@settings(max_examples=40, deadline=None)
def test_reverse_twice_is_identity(edges):
    graph = CsrGraph.from_edges(20, edges)
    double = graph.reversed().reversed()
    assert sorted(double.iter_edges()) == sorted(graph.iter_edges())


@given(edge_lists)
@settings(max_examples=40, deadline=None)
def test_undirected_contains_original(edges):
    graph = CsrGraph.from_edges(20, edges)
    undirected = graph.undirected()
    for u, v in set(edges):
        assert undirected.has_edge(u, v)
        assert undirected.has_edge(v, u)


# ---------------------------------------------------------------------------
# Allocator invariants
# ---------------------------------------------------------------------------

allocation_requests = st.lists(
    st.tuples(
        st.sampled_from(list(Region)),
        st.integers(1, 100),
        st.sampled_from([1, 4, 8, 16, 64]),
    ),
    min_size=1,
    max_size=30,
)


@given(allocation_requests)
@settings(max_examples=60, deadline=None)
def test_allocations_never_overlap(requests):
    space = AddressSpace()
    allocations = [
        space.malloc(f"a{i}", region, count, size)
        for i, (region, count, size) in enumerate(requests)
    ]
    spans = sorted((a.base, a.end) for a in allocations)
    for (b1, e1), (b2, _e2) in zip(spans, spans[1:]):
        assert e1 <= b2 or e1 == b1  # zero-size allocations may share


@given(allocation_requests)
@settings(max_examples=60, deadline=None)
def test_allocations_stay_in_their_region(requests):
    space = AddressSpace()
    for i, (region, count, size) in enumerate(requests):
        allocation = space.malloc(f"a{i}", region, count, size)
        assert region_of(allocation.base) is region
        if allocation.size_bytes:
            assert region_of(allocation.end - 1) is region


@given(st.integers(1, 50), st.sampled_from([1, 8, 64]))
@settings(max_examples=40, deadline=None)
def test_element_addresses_within_allocation(count, size):
    space = AddressSpace()
    allocation = space.pmr_malloc("p", count, size)
    for i in range(count):
        addr = allocation.addr_of(i)
        assert allocation.contains(addr)
        assert allocation.contains(addr + size - 1)


# ---------------------------------------------------------------------------
# Cache invariants (model vs a brute-force LRU reference)
# ---------------------------------------------------------------------------


class _ReferenceLru:
    """Brute-force per-set LRU used as an oracle."""

    def __init__(self, num_sets, ways):
        self.num_sets = num_sets
        self.ways = ways
        self.sets = [[] for _ in range(num_sets)]

    def access(self, line):
        s = self.sets[line % self.num_sets]
        hit = line in s
        if hit:
            s.remove(line)
        elif len(s) >= self.ways:
            s.pop(0)
        s.append(line)
        return hit


@given(st.lists(st.integers(0, 40), min_size=1, max_size=300))
@settings(max_examples=60, deadline=None)
def test_set_assoc_cache_matches_reference_lru(accesses):
    config = CacheConfig(size_bytes=8 * 64, ways=2, latency=1.0)
    cache = _SetAssocCache(config)
    reference = _ReferenceLru(config.num_sets, config.ways)
    for line in accesses:
        hit = cache.lookup(line)
        if not hit:
            cache.insert(line)
        assert hit == reference.access(line)


@given(st.lists(st.integers(0, 100), max_size=400))
@settings(max_examples=40, deadline=None)
def test_cache_capacity_invariant(accesses):
    config = CacheConfig(size_bytes=16 * 64, ways=4, latency=1.0)
    cache = _SetAssocCache(config)
    for line in accesses:
        if not cache.lookup(line):
            cache.insert(line)
        for s in cache.sets:
            assert len(s) <= config.ways


# ---------------------------------------------------------------------------
# Link-lane (token bucket) invariants
# ---------------------------------------------------------------------------

reservations = st.lists(
    st.tuples(st.floats(0, 10_000), st.integers(1, 64)),
    min_size=1,
    max_size=100,
)


@given(reservations)
@settings(max_examples=60, deadline=None)
def test_link_lane_completion_after_request(requests):
    lane = _LinkLane(4.0)
    for t, flits in requests:
        done = lane.reserve(t, flits)
        assert done >= t + flits / 4.0 - 1e-9


@given(reservations)
@settings(max_examples=60, deadline=None)
def test_link_lane_respects_aggregate_bandwidth(requests):
    # In arrival-time order (the scheduler's normal case) the lane must
    # never exceed its aggregate bandwidth.  Out-of-order arrivals may
    # slightly oversubscribe by design (documented approximation).
    rate = 4.0
    lane = _LinkLane(rate)
    total_flits = 0
    max_done = 0.0
    ordered = sorted(requests)
    min_t = ordered[0][0]
    for t, flits in ordered:
        done = lane.reserve(t, flits)
        total_flits += flits
        max_done = max(max_done, done)
    # All flits must take at least total/rate cycles of link time.
    assert max_done - min_t >= total_flits / rate - 1e-6


# ---------------------------------------------------------------------------
# Trace gap accounting
# ---------------------------------------------------------------------------


@given(st.lists(st.integers(0, 50), min_size=1, max_size=50))
@settings(max_examples=60, deadline=None)
def test_trace_work_is_conserved(work_amounts):
    trace = ThreadTrace(0)
    for amount in work_amounts:
        trace.work(amount)
        trace.load(0, 8)
    gaps = [event[3] for event in trace.event_tuples()]
    assert sum(gaps) == sum(work_amounts)


# ---------------------------------------------------------------------------
# RNG / seed derivation
# ---------------------------------------------------------------------------


@given(st.integers(0, 2**32), st.text(max_size=20))
@settings(max_examples=80, deadline=None)
def test_derive_seed_stable_and_bounded(seed, label):
    a = derive_seed(seed, label)
    b = derive_seed(seed, label)
    assert a == b
    assert 0 <= a < 2**63


@given(st.integers(1, 500), st.floats(0.1, 2.0))
@settings(max_examples=40, deadline=None)
def test_zipf_weights_normalized_and_decreasing(n, alpha):
    weights = DeterministicRng(1).zipf_weights(n, alpha)
    assert abs(weights.sum() - 1.0) < 1e-9
    assert (np.diff(weights) <= 1e-12).all()
