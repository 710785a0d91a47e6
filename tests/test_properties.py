"""Property-based tests (hypothesis) on core data structures and invariants."""

from dataclasses import replace

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.backends import KIM98
from repro.core.bdg import bfs_layers, build_bdg
from repro.core.feasibility import FeasibilityAnalyzer
from repro.core.hpset import build_all_hp_sets, stream_channels
from repro.core.streams import MessageStream, StreamSet
from repro.core.timing_diagram import generate_init_diagram
from repro.topology import Hypercube, ECubeRouting, Mesh, Mesh2D, XYRouting
from repro.topology.routing import DimensionOrderRouting
from tests.reference import hop_distance
from tests.reference.hpset import direct_blockers

# ---------------------------------------------------------------------- #
# Strategies
# ---------------------------------------------------------------------- #

MESH = Mesh2D(8, 8)
XY = XYRouting(MESH)

node_ids = st.integers(min_value=0, max_value=MESH.num_nodes - 1)


@st.composite
def stream_sets(draw, max_streams=8, max_priority=4):
    n = draw(st.integers(min_value=1, max_value=max_streams))
    streams = StreamSet()
    for i in range(n):
        src = draw(node_ids)
        dst = draw(node_ids.filter(lambda d: d != src))
        streams.add(
            MessageStream(
                stream_id=i,
                src=src,
                dst=dst,
                priority=draw(st.integers(1, max_priority)),
                period=draw(st.integers(20, 200)),
                length=draw(st.integers(1, 15)),
                deadline=draw(st.integers(50, 400)),
            )
        )
    return streams


@st.composite
def diagram_rows(draw, max_rows=5):
    n = draw(st.integers(min_value=0, max_value=max_rows))
    rows = []
    for i in range(n):
        rows.append(
            MessageStream(
                stream_id=i, src=0, dst=1,
                priority=max_rows - i,  # strictly decreasing: valid order
                period=draw(st.integers(3, 40)),
                length=draw(st.integers(1, 10)),
                deadline=100,
            )
        )
    return tuple(rows)


# ---------------------------------------------------------------------- #
# Topology / routing properties
# ---------------------------------------------------------------------- #


class TestRoutingProperties:
    @given(src=node_ids, dst=node_ids)
    @settings(max_examples=200, deadline=None)
    def test_xy_route_is_valid_and_minimal(self, src, dst):
        path = XY.route(src, dst)
        assert path[0] == src and path[-1] == dst
        assert len(path) - 1 == hop_distance(MESH, src, dst)
        for u, v in zip(path[:-1], path[1:]):
            assert MESH.has_channel(u, v)
        # No node repeats on a minimal dimension-ordered path.
        assert len(set(path)) == len(path)

    @given(src=st.integers(0, 31), dst=st.integers(0, 31))
    @settings(max_examples=100, deadline=None)
    def test_ecube_route_is_minimal(self, src, dst):
        h = Hypercube(5)
        r = ECubeRouting(h)
        path = r.route(src, dst)
        assert len(path) - 1 == hop_distance(h, src, dst)

    @given(
        dims=st.lists(st.integers(1, 5), min_size=1, max_size=3),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=50, deadline=None)
    def test_mesh_coords_roundtrip(self, dims, seed):
        m = Mesh(dims)
        node = seed % m.num_nodes
        assert m.node_at(m.coords(node)) == node

    @given(src=node_ids, dst=node_ids)
    @settings(max_examples=100, deadline=None)
    def test_route_suffix_property(self, src, dst):
        """Deterministic routing: the route from any intermediate node is
        the suffix of the original route (what a router's per-hop lookup relies on)."""
        path = XY.route(src, dst)
        for k in range(len(path) - 1):
            assert XY.route(path[k], dst) == path[k:]


# ---------------------------------------------------------------------- #
# HP-set properties
# ---------------------------------------------------------------------- #


class TestHPSetProperties:
    @given(streams=stream_sets())
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_hp_membership_rules(self, streams):
        channels = stream_channels(streams, XY)
        blockers = direct_blockers(streams, channels)
        hps = build_all_hp_sets(streams, channels=channels)
        for s in streams:
            hp = hps[s.stream_id]
            for entry in hp:
                other = streams[entry.stream_id]
                # Only equal-or-higher priorities can appear.
                assert other.priority >= s.priority
                assert entry.stream_id != s.stream_id
                if entry.is_direct:
                    assert not channels[s.stream_id].isdisjoint(
                        channels[entry.stream_id]
                    )
                else:
                    # Indirect elements never overlap the owner...
                    assert channels[s.stream_id].isdisjoint(
                        channels[entry.stream_id]
                    )
                    # ...and every intermediate is itself in the HP set.
                    for mid in entry.intermediates:
                        assert mid in hp

    @given(streams=stream_sets())
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_mutual_membership_implies_equal_priority(self, streams):
        """HP membership is antisymmetric w.r.t. priority: j in HP_k and
        k in HP_j can only hold together when P_j == P_k (membership
        requires a chain of equal-or-higher priorities each way)."""
        channels = stream_channels(streams, XY)
        hps = build_all_hp_sets(streams, channels=channels)
        for s in streams:
            for entry in hps[s.stream_id]:
                k = entry.stream_id
                if s.stream_id in hps[k]:
                    assert streams[k].priority == s.priority

    @given(streams=stream_sets())
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_highest_priority_stream_unblocked_unless_peer_overlaps(
        self, streams
    ):
        channels = stream_channels(streams, XY)
        hps = build_all_hp_sets(streams, channels=channels)
        top = max(s.priority for s in streams)
        for s in streams:
            if s.priority == top:
                for entry in hps[s.stream_id]:
                    assert streams[entry.stream_id].priority == top


# ---------------------------------------------------------------------- #
# Blocking-dependency-graph properties
# ---------------------------------------------------------------------- #


class TestBDGProperties:
    @given(streams=stream_sets())
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_edges_are_exactly_direct_blocking_pairs(self, streams):
        """u -> v exists iff v directly blocks u (shared channel, P_v >=
        P_u), restricted to the owner + HP members node set."""
        channels = stream_channels(streams, XY)
        blockers = direct_blockers(streams, channels)
        hps = build_all_hp_sets(streams, channels=channels)
        for s in streams:
            hp = hps[s.stream_id]
            g = build_bdg(hp, blockers)
            nodes = set(g.nodes)
            assert nodes == set(hp.ids()) | {s.stream_id}
            for u, v in g.edges:
                assert v in blockers[u]
                assert not channels[u].isdisjoint(channels[v])
                assert streams[v].priority >= streams[u].priority
            for u in nodes:
                for v in blockers[u]:
                    if v in nodes and v != u:
                        assert g.has_edge(u, v)

    @given(streams=stream_sets())
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_node_modes_match_hp_entries(self, streams):
        channels = stream_channels(streams, XY)
        blockers = direct_blockers(streams, channels)
        hps = build_all_hp_sets(streams, channels=channels)
        for s in streams:
            hp = hps[s.stream_id]
            g = build_bdg(hp, blockers)
            assert g.nodes[s.stream_id]["mode"] == "owner"
            for entry in hp:
                expected = "DIRECT" if entry.is_direct else "INDIRECT"
                assert g.nodes[entry.stream_id]["mode"] == expected

    @given(streams=stream_sets())
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_bfs_layers_partition_and_respect_distance(self, streams):
        """Layer 0 is the owner; layers partition the nodes; every
        reachable node at depth d has a predecessor at depth d - 1."""
        channels = stream_channels(streams, XY)
        blockers = direct_blockers(streams, channels)
        hps = build_all_hp_sets(streams, channels=channels)
        for s in streams:
            g = build_bdg(hps[s.stream_id], blockers)
            layers = bfs_layers(g, s.stream_id)
            assert layers[0] == (s.stream_id,)
            flat = [n for layer in layers for n in layer]
            assert sorted(flat) == sorted(g.nodes)
            assert len(flat) == len(set(flat))
            # Reachable set from the owner.
            reach = {s.stream_id}
            stack = [s.stream_id]
            while stack:
                for v in g.successors(stack.pop()):
                    if v not in reach:
                        reach.add(v)
                        stack.append(v)
            depth = {n: d for d, layer in enumerate(layers) for n in layer}
            for n in g.nodes:
                if n == s.stream_id or n not in reach:
                    continue  # unreachable nodes ride in the final layer
                assert any(
                    depth[p] == depth[n] - 1 for p in g.predecessors(n)
                ), f"node {n} at depth {depth[n]} has no parent above"


# ---------------------------------------------------------------------- #
# Timing-diagram properties
# ---------------------------------------------------------------------- #


class TestDiagramProperties:
    @given(rows=diagram_rows(), dtime=st.integers(1, 120))
    @settings(max_examples=80, deadline=None)
    def test_structural_invariants(self, rows, dtime):
        d = generate_init_diagram(99, rows, dtime)
        # (1) no slot is allocated by two rows;
        if d.num_rows:
            assert d.allocated[:, 1:].sum(axis=0).max() <= 1
        # (2) result busy mask is the union of allocations;
        union = d.allocated.any(axis=0) if d.num_rows else \
            np.zeros(dtime + 1, bool)
        assert d.busy_bits() == sum(1 << int(t) for t in np.flatnonzero(union))
        # (3) satisfied instances allocate exactly C slots inside their
        #     window; unsatisfied ones fewer.
        for s in rows:
            for inst in d.instances[s.stream_id]:
                lo, hi = inst.release + 1, min(inst.release + s.period, dtime)
                assert all(lo <= t <= hi for t in inst.occupied())
                if inst.satisfied:
                    assert len(inst.allocated) == s.length
                else:
                    assert len(inst.allocated) < s.length
        # (4) a row's waiting and allocated slots never coincide.
        assert not (d.allocated & d.waiting).any()

    @given(rows=diagram_rows(), dtime=st.integers(1, 100))
    @settings(max_examples=60, deadline=None)
    def test_prefix_stability(self, rows, dtime):
        """Extending the horizon never changes the diagram's prefix."""
        d1 = generate_init_diagram(99, rows, dtime)
        d2 = generate_init_diagram(99, rows, dtime + 37)
        assert np.array_equal(
            d1.allocated[:, : dtime + 1], d2.allocated[:, : dtime + 1]
        )

    @given(rows=diagram_rows(max_rows=4), latency=st.integers(1, 20))
    @settings(max_examples=60, deadline=None)
    def test_upper_bound_monotone_in_latency(self, rows, latency):
        d = generate_init_diagram(99, rows, 300)
        u1 = d.upper_bound(latency)
        u2 = d.upper_bound(latency + 1)
        if u1 > 0 and u2 > 0:
            assert u2 > u1


# ---------------------------------------------------------------------- #
# Analyzer properties
# ---------------------------------------------------------------------- #


class TestAnalyzerProperties:
    @given(streams=stream_sets(max_streams=6))
    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_bound_at_least_latency(self, streams):
        an = FeasibilityAnalyzer(streams, XY)
        for s in an.streams:
            u = an.upper_bound(s.stream_id, max_horizon=1 << 14)
            if u > 0:
                assert u >= s.latency

    @given(streams=stream_sets(max_streams=6))
    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_modify_never_looser_than_direct(self, streams):
        mod = FeasibilityAnalyzer(streams, XY)
        direct = FeasibilityAnalyzer(
            streams, XY, backend=replace(KIM98, use_modify=False))
        for s in streams:
            u_m = mod.upper_bound(s.stream_id, max_horizon=1 << 14)
            u_d = direct.upper_bound(s.stream_id, max_horizon=1 << 14)
            if u_d > 0:
                assert 0 < u_m <= u_d

    @given(streams=stream_sets(max_streams=5), seed=st.integers(0, 100))
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_adding_a_lower_priority_stream_never_tightens_bounds(
        self, streams, seed
    ):
        """Bounds are monotone under adding interference below everyone."""
        an1 = FeasibilityAnalyzer(streams, XY)
        rng = np.random.default_rng(seed)
        src = int(rng.integers(0, MESH.num_nodes))
        dst = int(rng.integers(0, MESH.num_nodes - 1))
        if dst >= src:
            dst += 1
        lowest = min(s.priority for s in streams) - 1
        extra = MessageStream(
            stream_id=999, src=src, dst=dst,
            priority=max(lowest, 0) if lowest > 0 else 1,
            period=50, length=5, deadline=100,
        )
        # Only meaningful when the new stream really is strictly lowest.
        if extra.priority >= min(s.priority for s in streams):
            return
        bigger = StreamSet(streams)
        bigger.add(extra)
        an2 = FeasibilityAnalyzer(bigger, XY)
        for s in streams:
            u1 = an1.upper_bound(s.stream_id, max_horizon=1 << 14)
            u2 = an2.upper_bound(s.stream_id, max_horizon=1 << 14)
            assert u1 == u2  # lower-priority traffic is invisible to them


# ---------------------------------------------------------------------- #
# Torus dateline properties
# ---------------------------------------------------------------------- #

from repro.topology import Torus, TorusDimensionOrderRouting

TORUS = Torus((7, 5))
TORUS_RT = TorusDimensionOrderRouting(TORUS)
torus_nodes = st.integers(min_value=0, max_value=TORUS.num_nodes - 1)


class TestTorusRoutingProperties:
    @given(src=torus_nodes, dst=torus_nodes)
    @settings(max_examples=150, deadline=None)
    def test_minimal_and_valid(self, src, dst):
        path = TORUS_RT.route(src, dst)
        assert len(path) - 1 == hop_distance(TORUS, src, dst)
        for u, v in zip(path[:-1], path[1:]):
            assert TORUS.has_channel(u, v)

    @given(src=torus_nodes, dst=torus_nodes)
    @settings(max_examples=150, deadline=None)
    def test_dateline_classes_well_formed(self, src, dst):
        """Classes are 0/1, aligned with the route, and within each
        dimension's segment switch from 0 to 1 at most once (never back)."""
        if src == dst:
            return
        classes = TORUS_RT.route_classes(src, dst)
        chans = TORUS_RT.route_channels(src, dst)
        assert len(classes) == len(chans)
        assert set(classes) <= {0, 1}

        def dim_of(ch):
            cu, cv = TORUS.coords(ch[0]), TORUS.coords(ch[1])
            return next(i for i in range(len(cu)) if cu[i] != cv[i])

        segments = {}
        for ch, cls in zip(chans, classes):
            segments.setdefault(dim_of(ch), []).append(cls)
        for seg in segments.values():
            # Monotone non-decreasing within a dimension segment.
            assert all(a <= b for a, b in zip(seg[:-1], seg[1:]))

    @given(src=torus_nodes, dst=torus_nodes)
    @settings(max_examples=100, deadline=None)
    def test_class_1_only_after_wrap(self, src, dst):
        """A route that never crosses a wrap link stays in class 0."""
        if src == dst:
            return
        chans = TORUS_RT.route_channels(src, dst)
        classes = TORUS_RT.route_classes(src, dst)

        def is_wrap(ch):
            cu, cv = TORUS.coords(ch[0]), TORUS.coords(ch[1])
            return any(abs(a - b) > 1 for a, b in zip(cu, cv))

        if not any(is_wrap(ch) for ch in chans):
            assert set(classes) == {0}
