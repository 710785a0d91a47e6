#!/usr/bin/env python
"""The method on a hypercube (the paper's "general point-to-point" claim).

Section 2 of the paper states the scheme applies to any topology with a
deterministic deadlock-free routing function, naming hypercubes alongside
meshes. This example runs the full pipeline — deadlock check, bound
computation, flit-level simulation, soundness comparison — on a 6-cube
(64 nodes) with e-cube routing.

Run:  python examples/hypercube_network.py
"""

from dataclasses import replace

from repro import ECubeRouting, FeasibilityAnalyzer, Hypercube, is_deadlock_free
from repro.core.backends import KIM98
from repro.sim import PaperWorkload, WormholeSimulator


def main() -> None:
    cube = Hypercube(6)
    routing = ECubeRouting(cube)
    print(f"topology: {cube.dimension}-cube ({cube.num_nodes} nodes, "
          f"{cube.num_channels()} directed channels)")
    print("e-cube routing deadlock-free:", is_deadlock_free(routing))

    wl = PaperWorkload(num_streams=24, priority_levels=6, seed=11,
                       period_range=(200, 500))
    streams = wl.generate(cube)

    analyzer = FeasibilityAnalyzer(streams, routing)
    bounds = analyzer.all_upper_bounds(max_horizon=1 << 16)
    report = analyzer.determine_feasibility()
    print(f"\nfeasibility at D = T: "
          f"{'success' if report.success else 'fail'} "
          f"({len(report.infeasible_ids())} misses)")

    sim = WormholeSimulator(cube, routing, analyzer.streams, warmup=1_000)
    stats = sim.simulate_streams(15_000)

    print(f"\n{'stream':>7} {'prio':>5} {'hops':>5} {'L':>4} {'U':>6} "
          f"{'mean':>7} {'max':>5} {'max<=U':>7}")
    violations = 0
    for s in analyzer.streams.sorted_by_priority():
        sid = s.stream_id
        if sid not in stats.stream_ids():
            continue
        u = bounds[sid]
        mx = stats.max_delay(sid)
        ok = u > 0 and mx <= u
        violations += 0 if ok else 1
        print(f"M{sid:>6} {s.priority:>5} "
              f"{routing.hop_count(s.src, s.dst):>5} {s.latency:>4} "
              f"{u:>6} {stats.mean_delay(sid):>7.1f} {mx:>5} {str(ok):>7}")
    print(f"\nbound violations: {violations} "
          f"(the method transfers to the hypercube unchanged)")

    torus_demo()


def torus_demo() -> None:
    """The same pipeline on a torus: wrap links need dateline VC classes
    for deadlock freedom; the simulator provisions them automatically."""
    from repro import Torus, TorusDimensionOrderRouting

    torus = Torus((8, 8))
    routing = TorusDimensionOrderRouting(torus)
    print(f"\ntopology: {'x'.join(map(str, torus.dims))} torus "
          f"({torus.num_nodes} nodes, "
          f"dateline VC classes: {routing.num_vc_classes})")
    print("minimal dimension-order routing deadlock-free:",
          is_deadlock_free(routing))

    wl = PaperWorkload(num_streams=16, priority_levels=4, seed=5,
                       period_range=(200, 500))
    streams = wl.generate(torus)
    analyzer = FeasibilityAnalyzer(
        streams, routing, backend=replace(KIM98, residency_margin=1)
    )
    bounds = analyzer.all_upper_bounds(max_horizon=1 << 16)
    sim = WormholeSimulator(torus, routing, analyzer.streams, warmup=1_000)
    stats = sim.simulate_streams(12_000)
    print(f"per-port VCs: {sim.num_vcs} "
          f"(4 priority levels x {sim.num_vc_classes} classes)")
    violations = sum(
        1 for sid in stats.stream_ids()
        if bounds[sid] > 0 and stats.max_delay(sid) > bounds[sid]
    )
    wrap_users = sum(
        1 for s in analyzer.streams
        if any(routing.route_classes(s.src, s.dst))
    )
    print(f"streams crossing a dateline: {wrap_users}/16; "
          f"bound violations: {violations}")


if __name__ == "__main__":
    main()
