"""Shared fixtures: the paper's section 4.4 worked example and common
topology objects.

The example constants were reconstructed from the OCR-damaged paper text by
requiring the printed network latencies (``L = hops + C - 1`` under X-Y
routing) and the final bounds ``U = (7, 8, 26, 20, 33)`` to match exactly —
see DESIGN.md. ``PAPER_HP_OVERRIDE`` injects the HP sets exactly as printed
in the paper (its ``HP_3`` omits ``M_2`` despite a path overlap — a
documented inconsistency in the original).
"""

import pytest

from repro.core.hpset import HPEntry, HPSet
from repro.core.streams import MessageStream, StreamSet
from repro.topology import Mesh2D, XYRouting
from repro.topology.routing import RoutingAlgorithm

#: (src_xy, dst_xy, P, T, C, D, L) for M0..M4 of section 4.4.
PAPER_EXAMPLE = [
    ((7, 3), (7, 7), 5, 15, 4, 15, 7),
    ((1, 1), (5, 4), 4, 10, 2, 10, 8),
    ((2, 1), (7, 5), 3, 40, 4, 40, 12),
    ((4, 1), (8, 5), 2, 45, 9, 45, 16),
    ((6, 1), (9, 3), 1, 50, 6, 50, 10),
]

#: Final bounds the paper reports for the example.
PAPER_EXAMPLE_U = {0: 7, 1: 8, 2: 26, 3: 20, 4: 33}


@pytest.fixture(scope="session")
def mesh10():
    return Mesh2D(10, 10)


@pytest.fixture(scope="session")
def xy10(mesh10):
    return XYRouting(mesh10)


@pytest.fixture()
def paper_streams(mesh10):
    """The five streams of the paper's section 4.4 example."""
    streams = StreamSet()
    for i, (s, r, p, t, c, d, latency) in enumerate(PAPER_EXAMPLE):
        streams.add(
            MessageStream(
                stream_id=i,
                src=mesh10.node_xy(*s),
                dst=mesh10.node_xy(*r),
                priority=p,
                period=t,
                length=c,
                deadline=d,
                latency=latency,
            )
        )
    return streams


@pytest.fixture()
def paper_hp_override():
    """The HP sets exactly as printed in the paper (section 4.4).

    Differs from the path-overlap rule in two places, both traced to the
    same printed-coordinate inconsistency (M2's route overlaps M3's):
    ``HP_3`` omits ``M_2``, and ``HP_4``'s indirect entry for ``M_0`` has
    intermediates ``(2)`` rather than ``(2, 3)``.
    """
    return {
        3: HPSet(3, [HPEntry.direct(1)]),
        4: HPSet(
            4,
            [
                HPEntry.indirect(0, [2]),
                HPEntry.indirect(1, [2, 3]),
                HPEntry.direct(2),
                HPEntry.direct(3),
            ],
        ),
    }


class FixedTableRouting(RoutingAlgorithm):
    """Test-only routing from an explicit route table (falls back to a
    shortest path for pairs the table omits)."""

    def __init__(self, topology, table):
        super().__init__(topology)
        self._table = dict(table)

    def _compute_route(self, src, dst):
        if (src, dst) in self._table:
            return tuple(self._table[(src, dst)])
        # Fallback: simple BFS shortest path.
        from collections import deque

        prev = {src: None}
        q = deque([src])
        while q:
            u = q.popleft()
            if u == dst:
                break
            for v in self.topology.neighbors(u):
                if v not in prev:
                    prev[v] = u
                    q.append(v)
        path = [dst]
        while prev[path[-1]] is not None:
            path.append(prev[path[-1]])
        return tuple(reversed(path))


@pytest.fixture()
def ring_setup():
    """The canonical wormhole deadlock: four messages turning around the
    four channels of an inner ring A->B->C->D->A on a 4x4 mesh, each
    holding one ring channel and waiting for the next (held by the next
    message), with the final hop exiting the ring. Simultaneous release +
    single VCs + single-flit buffers wedge the ring.

    A=(1,1), B=(2,1), C=(2,2), D=(1,2)."""
    mesh = Mesh2D(4, 4)
    A, B = mesh.node_xy(1, 1), mesh.node_xy(2, 1)
    C, D = mesh.node_xy(2, 2), mesh.node_xy(1, 2)
    exits = {
        "m1": mesh.node_xy(2, 0),
        "m2": mesh.node_xy(3, 2),
        "m3": mesh.node_xy(0, 2),
        "m4": mesh.node_xy(1, 0),
    }
    table = {
        (D, exits["m1"]): (D, A, B, exits["m1"]),
        (A, exits["m2"]): (A, B, C, exits["m2"]),
        (B, exits["m3"]): (B, C, D, exits["m3"]),
        (C, exits["m4"]): (C, D, A, exits["m4"]),
    }
    routing = FixedTableRouting(mesh, table)
    streams = StreamSet([
        MessageStream(0, D, exits["m1"], priority=1, period=5_000,
                      length=4, deadline=5_000),
        MessageStream(1, A, exits["m2"], priority=1, period=5_000,
                      length=4, deadline=5_000),
        MessageStream(2, B, exits["m3"], priority=1, period=5_000,
                      length=4, deadline=5_000),
        MessageStream(3, C, exits["m4"], priority=1, period=5_000,
                      length=4, deadline=5_000),
    ])
    return mesh, routing, streams
