"""Seeded random-workload generation for the soundness fuzzer.

A :class:`FuzzCase` is one fully self-contained differential-test input:
mesh dimensions, a stream set (coordinates, priorities, timing parameters,
release phases) and the oracle knobs (simulation horizon, residency margin,
bound perturbation). Cases serialise to plain JSON so counterexamples can
be committed to a corpus and replayed bit-for-bit (:mod:`repro.fuzz.corpus`).

:func:`generate_case` draws a case from a seed through one of several
*presets*:

``uniform``
    The paper's traffic model scaled down: distinct random sources, uniform
    destinations, uniform priorities/periods/lengths.
``chain``
    An L-shaped convoy engineered so consecutive streams overlap by exactly
    one channel while streams two apart are channel-disjoint — the deepest
    possible blocking-dependency graph for the stream count, stressing
    INDIRECT elements and ``Modify_Diagram``.
``hotspot``
    Every stream targets one node (the paper's Fig. 1 host): maximal direct
    contention on the final channels.
``funnel``
    All sources on the left edge aiming at the two rightmost columns: long
    paths whose X-segments are disjoint but whose Y-segments collide,
    mixing DIRECT and INDIRECT relations.
``paper``
    Only on request: the paper's own draw
    (:class:`~repro.sim.traffic.PaperWorkload`) with ``T := U`` under
    kim98 and ``D := T``. The case stores the inflated periods, so a
    replay does not re-inflate.

All randomness flows through one :class:`numpy.random.Generator` seeded per
case, so ``generate_case(seed, cfg)`` is a pure function of its arguments.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..analysis.experiments import inflate_periods
from ..core.streams import MessageStream, StreamSet
from ..errors import AnalysisError
from ..sim.traffic import PaperWorkload
from ..topology.mesh import Mesh2D
from ..topology.routing import XYRouting

__all__ = ["FuzzStream", "FuzzCase", "GeneratorConfig", "generate_case", "PRESETS"]

PRESETS = ("uniform", "chain", "hotspot", "funnel", "paper")

#: JSON schema version written into serialised cases.
CASE_SCHEMA = 1


@dataclass(frozen=True)
class FuzzStream:
    """One stream of a fuzz case, with mesh coordinates and release phase."""

    stream_id: int
    src_xy: Tuple[int, int]
    dst_xy: Tuple[int, int]
    priority: int
    period: int
    length: int
    deadline: int
    phase: int = 0

    def to_spec(self) -> Dict[str, Any]:
        return {
            "id": self.stream_id,
            "src": list(self.src_xy),
            "dst": list(self.dst_xy),
            "priority": self.priority,
            "period": self.period,
            "length": self.length,
            "deadline": self.deadline,
            "phase": self.phase,
        }

    @classmethod
    def from_spec(cls, spec: Dict[str, Any]) -> "FuzzStream":
        return cls(
            stream_id=int(spec["id"]),
            src_xy=(int(spec["src"][0]), int(spec["src"][1])),
            dst_xy=(int(spec["dst"][0]), int(spec["dst"][1])),
            priority=int(spec["priority"]),
            period=int(spec["period"]),
            length=int(spec["length"]),
            deadline=int(spec["deadline"]),
            phase=int(spec.get("phase", 0)),
        )


@dataclass(frozen=True)
class FuzzCase:
    """A self-contained differential-test input (mesh + streams + knobs).

    ``bound_delta`` is the self-test perturbation: the oracle checks
    observed delays against ``max(1, U_i - bound_delta)``, so any positive
    value weakens the analysis bound artificially. ``0`` (the default)
    checks the real analysis.
    """

    width: int
    height: int
    streams: Tuple[FuzzStream, ...]
    sim_time: int
    residency_margin: int = 1
    bound_delta: int = 0
    seed: Optional[int] = None
    preset: str = "uniform"

    def __post_init__(self) -> None:
        if self.width < 1 or self.height < 1:
            raise AnalysisError(
                f"fuzz case mesh must be at least 1x1, got "
                f"{self.width}x{self.height}"
            )
        if not self.streams:
            raise AnalysisError("fuzz case needs at least one stream")
        if self.sim_time < 1:
            raise AnalysisError("fuzz case sim_time must be positive")
        if self.bound_delta < 0:
            raise AnalysisError("bound_delta must be >= 0")
        sources = set()
        for s in self.streams:
            for label, (x, y) in (("src", s.src_xy), ("dst", s.dst_xy)):
                if not (0 <= x < self.width and 0 <= y < self.height):
                    raise AnalysisError(
                        f"stream {s.stream_id}: {label} {(x, y)} outside "
                        f"{self.width}x{self.height} mesh"
                    )
            if s.src_xy == s.dst_xy:
                raise AnalysisError(
                    f"stream {s.stream_id}: source equals destination "
                    f"{s.src_xy}"
                )
            if s.src_xy in sources:
                # The paper's traffic model: at most one stream per source
                # node. Two streams sharing a source (and priority) would
                # also share an injection VC, a coupling the analysis does
                # not model — keep it out of the differential input space.
                raise AnalysisError(
                    f"stream {s.stream_id}: duplicate source {s.src_xy}"
                )
            sources.add(s.src_xy)

    # ------------------------------------------------------------------ #
    # Model construction
    # ------------------------------------------------------------------ #

    def build(self) -> Tuple[Mesh2D, XYRouting, StreamSet]:
        """Materialise the mesh, routing and stream set of this case."""
        mesh = Mesh2D(self.width, self.height)
        routing = XYRouting(mesh)
        streams = StreamSet()
        for s in self.streams:
            streams.add(MessageStream(
                stream_id=s.stream_id,
                src=mesh.node_xy(*s.src_xy),
                dst=mesh.node_xy(*s.dst_xy),
                priority=s.priority,
                period=s.period,
                length=s.length,
                deadline=s.deadline,
            ))
        return mesh, routing, streams

    def phases(self) -> Dict[int, int]:
        """Per-stream release offsets (all zero = the critical instant)."""
        return {s.stream_id: s.phase for s in self.streams}

    # ------------------------------------------------------------------ #
    # Serialisation
    # ------------------------------------------------------------------ #

    def to_spec(self) -> Dict[str, Any]:
        return {
            "schema": CASE_SCHEMA,
            "mesh": {"width": self.width, "height": self.height},
            "streams": [s.to_spec() for s in self.streams],
            "sim_time": self.sim_time,
            "residency_margin": self.residency_margin,
            "bound_delta": self.bound_delta,
            "seed": self.seed,
            "preset": self.preset,
        }

    @classmethod
    def from_spec(cls, spec: Dict[str, Any]) -> "FuzzCase":
        schema = int(spec.get("schema", CASE_SCHEMA))
        if schema != CASE_SCHEMA:
            raise AnalysisError(
                f"unsupported fuzz-case schema {schema} (expected "
                f"{CASE_SCHEMA})"
            )
        mesh = spec.get("mesh", {})
        return cls(
            width=int(mesh["width"]),
            height=int(mesh["height"]),
            streams=tuple(
                FuzzStream.from_spec(s) for s in spec["streams"]
            ),
            sim_time=int(spec["sim_time"]),
            residency_margin=int(spec.get("residency_margin", 1)),
            bound_delta=int(spec.get("bound_delta", 0)),
            seed=spec.get("seed"),
            preset=str(spec.get("preset", "uniform")),
        )


@dataclass(frozen=True)
class GeneratorConfig:
    """Knobs of the random case generator (picklable, all primitives)."""

    width: int = 4
    height: int = 4
    max_streams: int = 8
    period_range: Tuple[int, int] = (16, 160)
    length_range: Tuple[int, int] = (2, 12)
    sim_time: int = 2500
    residency_margin: int = 1
    bound_delta: int = 0
    #: Probability that a case uses random release phases instead of the
    #: all-zero critical instant.
    phase_probability: float = 0.3
    #: ``paper`` preset levels; ``None`` is the paper's ``|M|/4`` rule.
    priority_levels: Optional[int] = None
    presets: Tuple[str, ...] = PRESETS[:4]

    def __post_init__(self) -> None:
        if self.width < 2 and self.height < 2:
            raise AnalysisError("generator mesh needs at least two nodes")
        if self.max_streams < 1:
            raise AnalysisError("max_streams must be >= 1")
        unknown = set(self.presets) - set(PRESETS)
        if unknown:
            raise AnalysisError(f"unknown presets {sorted(unknown)}")
        if not self.presets:
            raise AnalysisError("need at least one preset")


# ---------------------------------------------------------------------- #
# Per-preset placement
# ---------------------------------------------------------------------- #


def _draw_timing(rng: np.random.Generator, cfg: GeneratorConfig) -> Tuple[int, int]:
    period = int(rng.integers(cfg.period_range[0], cfg.period_range[1] + 1))
    length = int(rng.integers(cfg.length_range[0], cfg.length_range[1] + 1))
    return period, length


def _place_uniform(
    rng: np.random.Generator, cfg: GeneratorConfig
) -> List[Tuple[Tuple[int, int], Tuple[int, int], int]]:
    """Random distinct sources, uniform destinations, uniform priorities."""
    nodes = cfg.width * cfg.height
    n = int(rng.integers(2, min(cfg.max_streams, nodes) + 1))
    levels = int(rng.integers(1, min(n, 5) + 1))
    sources = rng.choice(nodes, size=n, replace=False)
    out = []
    for src in (int(s) for s in sources):
        dst = int(rng.integers(0, nodes - 1))
        if dst >= src:
            dst += 1
        priority = int(rng.integers(1, levels + 1))
        out.append((
            (src % cfg.width, src // cfg.width),
            (dst % cfg.width, dst // cfg.width),
            priority,
        ))
    return out


def _l_path(width: int, height: int) -> List[Tuple[int, int]]:
    """The L-shaped node walk row 0 rightward then last column downward.

    X-Y routing between any two nodes of this walk follows the walk itself
    (x-dimension first, then y), so stream segments along it overlap exactly
    where the walk overlaps.
    """
    path = [(x, 0) for x in range(width)]
    path.extend((width - 1, y) for y in range(1, height))
    return path


def _place_chain(
    rng: np.random.Generator, cfg: GeneratorConfig
) -> List[Tuple[Tuple[int, int], Tuple[int, int], int]]:
    """Convoy along the L-path: stream ``k`` spans walk channels
    ``[k, k+1]``, so it shares a channel with ``k±1`` only. Priorities
    ascend with ``k``: stream 0 is directly blocked by 1, indirectly by
    2..n-1 through the full-depth chain."""
    path = _l_path(cfg.width, cfg.height)
    max_chain = len(path) - 3  # streams k: src path[k], dst path[k+2]
    if max_chain < 2:
        return _place_uniform(rng, cfg)
    n = int(rng.integers(2, min(cfg.max_streams, max_chain) + 1))
    start = int(rng.integers(0, max_chain - n + 1))
    out = []
    for k in range(n):
        i = start + k
        out.append((path[i], path[i + 2], k + 1))
    return out


def _place_hotspot(
    rng: np.random.Generator, cfg: GeneratorConfig
) -> List[Tuple[Tuple[int, int], Tuple[int, int], int]]:
    """Many-to-one: distinct random sources all sending to one node."""
    nodes = cfg.width * cfg.height
    hotspot = int(rng.integers(0, nodes))
    others = [i for i in range(nodes) if i != hotspot]
    n = int(rng.integers(2, min(cfg.max_streams, len(others)) + 1))
    picked = rng.choice(len(others), size=n, replace=False)
    levels = int(rng.integers(1, min(n, 5) + 1))
    hx, hy = hotspot % cfg.width, hotspot // cfg.width
    out = []
    for i in sorted(int(p) for p in picked):
        src = others[i]
        out.append((
            (src % cfg.width, src // cfg.width),
            (hx, hy),
            int(rng.integers(1, levels + 1)),
        ))
    return out


def _place_funnel(
    rng: np.random.Generator, cfg: GeneratorConfig
) -> List[Tuple[Tuple[int, int], Tuple[int, int], int]]:
    """Left-edge sources funnelling into the rightmost columns."""
    if cfg.width < 2:
        return _place_uniform(rng, cfg)
    n = int(rng.integers(2, min(cfg.max_streams, cfg.height) + 1))
    rows = rng.choice(cfg.height, size=n, replace=False)
    levels = int(rng.integers(1, min(n, 5) + 1))
    out = []
    for y in sorted(int(r) for r in rows):
        dx = int(rng.integers(max(0, cfg.width - 2), cfg.width))
        dy = int(rng.integers(0, cfg.height))
        if (dx, dy) == (0, y):
            dx = cfg.width - 1
        out.append(((0, y), (dx, dy), int(rng.integers(1, levels + 1))))
    return out


def _place_paper(seed: int, cfg: GeneratorConfig) -> List[tuple]:
    """The paper's draw inflated to ``T := U``; placement plus timing."""
    mesh = Mesh2D(cfg.width, cfg.height)
    drawn = PaperWorkload(
        num_streams=cfg.max_streams,
        priority_levels=cfg.priority_levels or max(1, cfg.max_streams // 4),
        period_range=cfg.period_range,
        length_range=cfg.length_range,
        seed=seed,
    ).generate(mesh)
    inflated = inflate_periods(
        drawn, XYRouting(mesh), residency_margin=cfg.residency_margin,
        max_horizon=1 << 16,
    ).streams
    return [
        (mesh.xy(s.src), mesh.xy(s.dst), s.priority, s.period, s.length)
        for s in inflated
    ]


_PLACERS = {
    "uniform": _place_uniform,
    "chain": _place_chain,
    "hotspot": _place_hotspot,
    "funnel": _place_funnel,
}

#: Preset sampling weights (uniform traffic is the bulk; the adversarial
#: presets each get a steady share of the seed budget).
_PRESET_WEIGHTS = {"uniform": 0.45, "chain": 0.25, "hotspot": 0.15,
                   "funnel": 0.15, "paper": 0.15}


def generate_case(seed: int, cfg: GeneratorConfig) -> FuzzCase:
    """Draw one fuzz case deterministically from ``(seed, cfg)``."""
    rng = np.random.default_rng(seed)
    presets = list(cfg.presets)
    weights = np.array([_PRESET_WEIGHTS[p] for p in presets], dtype=float)
    preset = presets[int(rng.choice(len(presets), p=weights / weights.sum()))]
    if preset == "paper":
        placement = _place_paper(seed, cfg)
    else:
        placement = _PLACERS[preset](rng, cfg)

    use_phases = bool(rng.random() < cfg.phase_probability)
    streams = []
    for i, (src_xy, dst_xy, priority, *timing) in enumerate(placement):
        period, length = timing or _draw_timing(rng, cfg)
        phase = int(rng.integers(0, period)) if use_phases else 0
        streams.append(FuzzStream(
            stream_id=i,
            src_xy=src_xy,
            dst_xy=dst_xy,
            priority=priority,
            period=period,
            length=length,
            deadline=period,
            phase=phase,
        ))
    return FuzzCase(
        width=cfg.width,
        height=cfg.height,
        streams=tuple(streams),
        sim_time=cfg.sim_time,
        residency_margin=cfg.residency_margin,
        bound_delta=cfg.bound_delta,
        seed=seed,
        preset=preset,
    )
