"""Dependency-free metrics registry with Prometheus text-format output.

A small subset of the Prometheus client-library data model, enough for
the broker service and its admission engine:

* :class:`Counter` — monotone float, ``inc()``.
* :class:`Gauge` — settable float, ``set()``/``inc()``/``dec()``.
* :class:`Histogram` — fixed buckets, non-cumulative internal counts
  (O(1) ``observe`` via ``bit_length`` for the default power-of-two
  bucket ladder, ``bisect`` otherwise), cumulative on render as the
  exposition format requires.

Metrics are grouped into *families* (one name/help/type, many label
sets) owned by a :class:`MetricsRegistry`; :meth:`MetricsRegistry.render`
produces the ``text/plain; version=0.0.4`` exposition format::

    # HELP repro_broker_ops_total Requests handled, by op.
    # TYPE repro_broker_ops_total counter
    repro_broker_ops_total{op="admit"} 12

Everything is synchronous and unlocked: the broker mutates metrics only
on its event-loop thread, and the analysis pipeline is synchronous.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ..errors import ReproError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_TIME_BUCKETS_US",
]

#: Power-of-two microsecond buckets: 1µs .. ~8.4s, 24 finite buckets.
DEFAULT_TIME_BUCKETS_US: Tuple[int, ...] = tuple(1 << i for i in range(24))

_LABEL_BAD = set(' "\\{}\n')


def _check_name(name: str) -> str:
    if not name or not all(c.isalnum() or c in "_:" for c in name):
        raise ReproError(f"invalid metric name {name!r}")
    if name[0].isdigit():
        raise ReproError(f"invalid metric name {name!r}")
    return name


def _format_labels(labels: Mapping[str, str]) -> str:
    if not labels:
        return ""
    parts = []
    for k in sorted(labels):
        v = str(labels[k])
        if set(k) & _LABEL_BAD:
            raise ReproError(f"invalid label name {k!r}")
        v = v.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
        parts.append(f'{k}="{v}"')
    return "{" + ",".join(parts) + "}"


def _format_value(value: float) -> str:
    # Integral values render without a trailing ".0" — matches what the
    # Prometheus text parser produces and keeps goldens readable.
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


class Counter:
    """Monotonically increasing value."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def samples(self, name: str, labels: Mapping[str, str]) -> List[str]:
        return [f"{name}{_format_labels(labels)} {_format_value(self.value)}"]


class Gauge:
    """Value that can go up and down."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def samples(self, name: str, labels: Mapping[str, str]) -> List[str]:
        return [f"{name}{_format_labels(labels)} {_format_value(self.value)}"]


class Histogram:
    """Fixed-bucket histogram.

    Internal counts are per-bucket (non-cumulative); rendering emits the
    cumulative ``_bucket{le=...}`` series, ``_sum`` and ``_count`` the
    exposition format requires. With the default power-of-two microsecond
    ladder, ``observe`` indexes the bucket with one ``bit_length`` call
    instead of a scan — this is the hot path the broker worker loop hits
    once per request.
    """

    __slots__ = ("bounds", "counts", "sum", "count", "max", "_pow2")

    def __init__(self, bounds: Sequence[float] = DEFAULT_TIME_BUCKETS_US):
        bounds = tuple(bounds)
        if not bounds or list(bounds) != sorted(set(bounds)):
            raise ReproError("histogram bounds must be strictly increasing")
        self.bounds = bounds
        # counts[i] = observations in (bounds[i-1], bounds[i]];
        # counts[-1] = +Inf overflow bucket.
        self.counts = [0] * (len(bounds) + 1)
        self.sum = 0.0
        self.count = 0
        self.max = 0.0
        self._pow2 = bounds == tuple(1 << i for i in range(len(bounds)))

    def observe(self, value: float) -> None:
        self.sum += value
        self.count += 1
        if value > self.max:
            self.max = value
        if self._pow2:
            if value <= 1:
                idx = 0
            else:
                # ceil(value) rounded up to the next power of two:
                # (m-1).bit_length() is the exponent i with 2**(i-1) < m <= 2**i.
                idx = (int(-(-value // 1)) - 1).bit_length()
                if idx >= len(self.bounds):
                    idx = len(self.bounds)
        else:
            idx = bisect_left(self.bounds, value)
        self.counts[idx] += 1

    def quantile(self, q: float) -> float:
        """Approximate quantile: upper bound of the covering bucket."""
        if not 0 <= q <= 1:
            raise ReproError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        target = q * self.count
        seen = 0
        for i, c in enumerate(self.counts):
            seen += c
            if seen >= target and c:
                return float(self.bounds[i]) if i < len(self.bounds) else self.max
        return self.max

    def samples(self, name: str, labels: Mapping[str, str]) -> List[str]:
        out = []
        cum = 0
        for bound, c in zip(self.bounds, self.counts):
            cum += c
            le = dict(labels)
            le["le"] = _format_value(bound)
            out.append(f"{name}_bucket{_format_labels(le)} {cum}")
        le = dict(labels)
        le["le"] = "+Inf"
        out.append(f"{name}_bucket{_format_labels(le)} {self.count}")
        base = _format_labels(labels)
        out.append(f"{name}_sum{base} {_format_value(self.sum)}")
        out.append(f"{name}_count{base} {self.count}")
        return out


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class _Family:
    """One metric name: help text, type, and labeled children."""

    __slots__ = ("name", "kind", "help", "_kwargs", "children")

    def __init__(self, name: str, kind: str, help: str, **kwargs: Any):
        self.name = _check_name(name)
        if kind not in _KINDS:
            raise ReproError(f"unknown metric kind {kind!r}")
        self.kind = kind
        self.help = help
        self._kwargs = kwargs
        self.children: Dict[Tuple[Tuple[str, str], ...], Any] = {}

    def child(self, labels: Mapping[str, str]):
        key = tuple(sorted((k, str(v)) for k, v in labels.items()))
        child = self.children.get(key)
        if child is None:
            child = _KINDS[self.kind](**self._kwargs)
            self.children[key] = child
        return child

    def render(self) -> List[str]:
        lines = [
            f"# HELP {self.name} {self.help}",
            f"# TYPE {self.name} {self.kind}",
        ]
        for key in sorted(self.children):
            lines.extend(self.children[key].samples(self.name, dict(key)))
        return lines


class MetricsRegistry:
    """Get-or-create metric families; renders the Prometheus text format."""

    def __init__(self) -> None:
        self._families: Dict[str, _Family] = {}

    def _family(self, name: str, kind: str, help: str, **kwargs: Any) -> _Family:
        fam = self._families.get(name)
        if fam is None:
            fam = _Family(name, kind, help, **kwargs)
            self._families[name] = fam
        elif fam.kind != kind:
            raise ReproError(
                f"metric {name!r} already registered as {fam.kind}, "
                f"requested {kind}"
            )
        return fam

    def counter(self, name: str, help: str = "", **labels: str) -> Counter:
        return self._family(name, "counter", help).child(labels)

    def gauge(self, name: str, help: str = "", **labels: str) -> Gauge:
        return self._family(name, "gauge", help).child(labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        *,
        bounds: Sequence[float] = DEFAULT_TIME_BUCKETS_US,
        **labels: str,
    ) -> Histogram:
        return self._family(name, "histogram", help, bounds=bounds).child(labels)

    def render(self) -> str:
        """The full registry in Prometheus text exposition format."""
        lines: List[str] = []
        for name in sorted(self._families):
            lines.extend(self._families[name].render())
        return "\n".join(lines) + "\n" if lines else ""
