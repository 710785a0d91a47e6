"""Tests for Prometheus metrics export (repro.obs.metrics and the broker's
``stats --format prometheus`` / ``--metrics-port`` surfaces)."""

import copy
import re
import threading
import urllib.request
from bisect import bisect_left

import pytest

from repro.cli import main
from repro.errors import ReproError
from repro.fleet.gateway import GatewayServer
from repro.fleet.shards import Fleet, TenantSpec
from repro.obs.metrics import (
    DEFAULT_TIME_BUCKETS_US,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.service.metrics import export_stats
from repro.service.server import BrokerServer

MESH = {"type": "mesh", "width": 6, "height": 6}

#: One Prometheus text-format sample line: name, optional labels, value.
SAMPLE_RE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*"
    r'(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})?'
    r" [0-9eE.+-]+$"
)


def spec(src=0, dst=3, priority=1, period=100, length=4):
    return {"src": src, "dst": dst, "priority": priority,
            "period": period, "length": length, "deadline": period}


def check_exposition(text):
    """Validate HELP/TYPE structure and sample syntax; return the samples
    grouped by family name."""
    families = {}
    current = None
    for line in text.splitlines():
        if line.startswith("# HELP "):
            current = line.split()[2]
            assert current not in families, f"duplicate family {current}"
            families[current] = {"type": None, "samples": []}
        elif line.startswith("# TYPE "):
            name = line.split()[2]
            assert name == current, "TYPE must follow its HELP line"
            families[current]["type"] = line.split()[3]
        else:
            assert SAMPLE_RE.match(line), f"bad sample line: {line!r}"
            name = re.split(r"[{ ]", line, maxsplit=1)[0]
            base = re.sub(r"_(bucket|sum|count)$", "", name)
            assert current in (name, base), \
                f"sample {name!r} outside its family block"
            families[current]["samples"].append(line)
    assert text.endswith("\n")
    return families


class TestPrimitives:
    def test_gauge_set(self):
        g = Gauge()
        g.set(10)
        assert g.value == 10.0

    def test_histogram_pow2_matches_bisect(self):
        """The O(1) bit_length bucketing must agree with the generic
        bisect rule on every boundary and interior value."""
        values = [0.0, 0.5, 1, 1.0001, 2, 2.5, 3, 4, 1023, 1024, 1024.5,
                  (1 << 23), (1 << 23) + 1, 1e12]
        fast = Histogram()
        assert fast._pow2
        for v in values:
            fast.observe(v)
        slow = Histogram(bounds=tuple(float(b) + 0.0
                                      for b in DEFAULT_TIME_BUCKETS_US))
        slow._pow2 = False
        for v in values:
            slow.observe(v)
        # Same ladder, forced generic path: identical bucket counts.
        expect = [0] * (len(DEFAULT_TIME_BUCKETS_US) + 1)
        for v in values:
            expect[bisect_left(DEFAULT_TIME_BUCKETS_US, v)] += 1
        assert fast.counts == slow.counts == expect
        assert fast.count == len(values)
        assert fast.max == 1e12

    def test_histogram_bounds_validated(self):
        with pytest.raises(ReproError):
            Histogram(bounds=())
        with pytest.raises(ReproError):
            Histogram(bounds=(1, 1, 2))
        with pytest.raises(ReproError):
            Histogram(bounds=(2, 1))

    def test_histogram_quantiles(self):
        h = Histogram(bounds=(1, 2, 4, 8))
        for v in (1, 2, 2, 4):
            h.observe(v)
        assert h.quantile(0.25) == 1
        assert h.quantile(0.5) == 2
        assert h.quantile(1.0) == 4
        with pytest.raises(ReproError):
            h.quantile(1.5)

    def test_histogram_render_is_cumulative(self):
        h = Histogram(bounds=(1, 2, 4))
        for v in (0.5, 1.5, 3, 100):
            h.observe(v)
        lines = h.samples("lat", {})
        assert lines == [
            'lat_bucket{le="1"} 1',
            'lat_bucket{le="2"} 2',
            'lat_bucket{le="4"} 3',
            'lat_bucket{le="+Inf"} 4',
            "lat_sum 105",
            "lat_count 4",
        ]


class TestRegistry:
    def test_get_or_create_and_kind_mismatch(self):
        reg = MetricsRegistry()
        c = reg.counter("x_total", "help", op="a")
        assert reg.counter("x_total", op="a") is c
        assert reg.counter("x_total", op="b") is not c
        with pytest.raises(ReproError, match="already registered"):
            reg.gauge("x_total")

    def test_invalid_names_rejected(self):
        reg = MetricsRegistry()
        for bad in ("", "9lead", "with space", "dash-ed"):
            with pytest.raises(ReproError):
                reg.counter(bad)

    def test_label_escaping(self):
        reg = MetricsRegistry()
        reg.counter("esc_total", "h", msg='say "hi"\nplease\\now').value = 1
        line = reg.render().splitlines()[2]
        assert line == \
            'esc_total{msg="say \\"hi\\"\\nplease\\\\now"} 1'

    def test_render_sorted_and_parseable(self):
        reg = MetricsRegistry()
        reg.counter("b_total", "B.", op="z").value = 1
        reg.counter("b_total", "B.", op="a").value = 2
        reg.gauge("a_gauge", "A.").set(1.5)
        reg.histogram("c_us", "C.", bounds=(1, 2)).observe(1)
        families = check_exposition(reg.render())
        assert list(families) == ["a_gauge", "b_total", "c_us"]
        assert families["b_total"]["samples"] == [
            'b_total{op="a"} 2', 'b_total{op="z"} 1',
        ]
        assert families["a_gauge"]["samples"] == ["a_gauge 1.5"]


class TestServiceMetricsExport:
    def test_rendered_series_match_scalars(self):
        server = BrokerServer(MESH)
        m = server.metrics
        m.record_op("admit", 0.001)
        m.record_op("admit", 0.002)
        m.record_op("query", 0.001, error=True)
        m.admitted_ok += 1
        m.admitted_rejected += 2
        server.front.connections += 3
        server.front.record_batch(4)
        families = check_exposition(server.prometheus_text())
        assert 'repro_broker_ops_total{op="admit"} 2' in \
            families["repro_broker_ops_total"]["samples"]
        assert 'repro_broker_op_errors_total{op="query"} 1' in \
            families["repro_broker_op_errors_total"]["samples"]
        assert 'repro_broker_admit_total{outcome="rejected"} 2' in \
            families["repro_broker_admit_total"]["samples"]
        assert "repro_broker_connections_total 3" in \
            families["repro_broker_connections_total"]["samples"]
        assert "repro_broker_batch_max_size 4" in \
            families["repro_broker_batch_max_size"]["samples"]
        assert families["repro_broker_op_latency_us"]["type"] == "histogram"

    def test_latency_histogram_buckets_monotone(self):
        server = BrokerServer(MESH)
        for s in (1e-6, 5e-6, 1e-3, 0.1, 2.0):
            server.metrics.record_op("admit", s)
        lines = [
            ln for ln in server.prometheus_text().splitlines()
            if ln.startswith("repro_broker_op_latency_us_bucket")
        ]
        counts = [float(ln.rsplit(" ", 1)[1]) for ln in lines]
        assert counts == sorted(counts)
        assert counts[-1] == 5  # +Inf bucket equals _count


class TestBrokerPrometheus:
    def test_stats_prometheus_format(self):
        server = BrokerServer(MESH)
        assert server.handle_request(
            {"op": "admit", "streams": [spec()]})["ok"]
        resp = server.handle_request({"op": "stats", "format": "prometheus"})
        assert resp["ok"]
        families = check_exposition(resp["prometheus"])
        engine = {
            name: fam["samples"] for name, fam in families.items()
            if name.startswith("repro_engine_")
        }
        assert engine["repro_engine_admitted_streams"] == \
            ["repro_engine_admitted_streams 1"]
        assert engine["repro_engine_admits_total"] == \
            ["repro_engine_admits_total 1"]
        # A primary decides every op at once: nothing is ever pending.
        assert engine["repro_engine_stale_streams"] == \
            ["repro_engine_stale_streams 0"]
        assert server.handle_request({"op": "stats"})["engine"]["stale"] == 0
        for gauge in ("repro_engine_cache_hit_rate",
                      "repro_engine_dirty_frontier_last",
                      "repro_engine_dirty_frontier_max"):
            assert gauge in engine
        assert "repro_engine_dirty_frontier_total_total" not in families
        assert "repro_engine_dirty_frontier_total" in families

    def test_json_stats_include_dirty_frontier(self):
        server = BrokerServer(MESH)
        server.handle_request({"op": "admit", "streams": [spec()]})
        engine = server.handle_request({"op": "stats"})["engine"]
        assert engine["dirty_last"] >= 1
        assert engine["dirty_max"] >= engine["dirty_last"] >= 0
        assert engine["dirty_total"] >= engine["dirty_max"]

    def test_counters_survive_snapshot_journal_restart(self, tmp_path):
        state = tmp_path / "state"
        server = BrokerServer(MESH, state_dir=state)
        server.handle_request({"op": "admit", "streams": [spec()]})
        server.handle_request(
            {"op": "admit", "streams": [spec(src=6, dst=9)]})
        before = server.handle_request(
            {"op": "stats", "format": "prometheus"})["prometheus"]
        assert "repro_engine_admitted_streams 2" in before

        recovered = BrokerServer(MESH, state_dir=state)
        after = recovered.handle_request(
            {"op": "stats", "format": "prometheus"})["prometheus"]
        families = check_exposition(after)
        assert "repro_engine_admitted_streams 2" in after
        # Recovery replays the journal through the engine, so ops resume
        # from a non-zero count rather than resetting to an empty engine.
        (ops_line,) = families["repro_engine_ops_total"]["samples"]
        assert float(ops_line.rsplit(" ", 1)[1]) > 0
        server.close()
        recovered.close()

    def test_journal_size_and_compactions_exported(self, tmp_path):
        """What a restart would replay and how often the journal was
        compacted are scrapeable, on a broker and per fleet tenant."""
        server = BrokerServer(MESH, state_dir=tmp_path / "state")
        for src in (0, 6):
            server.handle_request(
                {"op": "admit", "streams": [spec(src=src, dst=src + 3)]})
        assert server.handle_request({"op": "stats"})["service"][
            "journal"] == {"records": 2, "compactions": 0,
                           "compaction_failures": 0}
        server.handle_request({"op": "snapshot"})
        families = check_exposition(server.handle_request(
            {"op": "stats", "format": "prometheus"})["prometheus"])
        for name, value in (
            ("repro_broker_journal_records", 0),
            ("repro_broker_compactions_total", 1),
            ("repro_broker_compaction_failures_total", 0),
        ):
            assert families[name]["samples"] == [f"{name} {value}"]
        server.state.close()

        fleet = Fleet([TenantSpec("acme", "secret", MESH)],
                      state_dir=tmp_path / "fleet")
        try:
            fleet.handle_request(
                "acme", {"op": "admit", "streams": [spec()]})
            families = check_exposition(export_stats(fleet.stats()).render())
        finally:
            fleet.close()
        assert families["repro_broker_journal_records"]["samples"] == [
            'repro_broker_journal_records{tenant="acme"} 1',
        ]
        assert families["repro_broker_compactions_total"]["samples"] == [
            'repro_broker_compactions_total{tenant="acme"} 0',
        ]

    def test_http_scrape_endpoint(self):
        server = BrokerServer(MESH)
        server.handle_request({"op": "admit", "streams": [spec()]})

        def get(url):
            try:
                with urllib.request.urlopen(url, timeout=5) as resp:
                    return resp.status, resp.headers, resp.read().decode()
            except urllib.error.HTTPError as exc:
                return exc.code, exc.headers, ""

        base = f"http://127.0.0.1:{server.bind_metrics_http('127.0.0.1', 0)}"
        answers = []

        def scrape():
            try:
                answers.extend([get(base + "/metrics"), get(base + "/nope")])
            finally:
                server.request_shutdown()

        thread = threading.Thread(target=scrape)
        thread.start()
        server.run()
        thread.join(timeout=10)
        assert not thread.is_alive()
        (status, headers, text), (bad_status, _, _) = answers
        assert status == 200 and bad_status == 404
        assert headers["Content-Type"].startswith("text/plain")
        check_exposition(text)
        assert "repro_engine_admitted_streams 1" in text


#: ``stats`` fields (dotted paths, ``*`` for a map key) that have no
#: series of their own, each for its reason. Every other field of the
#: answer must move the exposition when it moves.
NO_SERIES = {
    "next_id": "an id high-water mark, not a measurement: admits and "
               "releases count the ops that move it",
    "service.batching.mean_size": "requests over batches, two series "
                                  "already",
    "service.latency.*.mean_ms": "the histogram's _sum over its _count, "
                                 "rounded",
    "service.latency.*.p50_ms": "a bucket bound read off the histogram",
    "service.latency.*.p99_ms": "a bucket bound read off the histogram",
    "service.latency.*.max_ms": "a running max, which a Prometheus "
                                "histogram does not carry; its buckets "
                                "bound it",
}


def stats_leaves(answer, path=()):
    """``(path, value)`` of every scalar in a ``stats`` answer."""
    for key, value in answer.items():
        if isinstance(value, dict):
            yield from stats_leaves(value, path + (key,))
        else:
            yield path + (key,), value


def exempt(path):
    return any(
        len(pattern) == len(path)
        and all(p in ("*", k) for p, k in zip(pattern, path))
        for pattern in (key.split(".") for key in NO_SERIES)
    )


def drive(handle):
    """One fixed op sequence through ``handle(request)``: admits that
    pass and fail, a rid replay, reads, an error, a link failure and
    its restore, a release and a snapshot."""
    for request in (
        {"op": "admit", "streams": [spec()]},
        {"op": "admit", "streams": [spec(src=6, dst=9)], "rid": "r"},
        {"op": "admit", "streams": [spec(src=6, dst=9)], "rid": "r"},
        {"op": "admit", "streams": [spec(src=1, dst=5, period=10,
                                         length=9)] * 2},
        {"op": "query", "stream": 0},
        {"op": "query", "stream": 99},
        {"op": "report"},
        {"op": "fail_link", "link": [0, 1]},
        {"op": "restore_link", "link": [0, 1]},
        {"op": "release", "ids": [0]},
        {"op": "snapshot"},
        {"op": "admit", "streams": [spec(src=12, dst=15)]},
    ):
        handle(dict(request))


#: What a broker's listeners count (``stats`` → ``service.connections``
#: and ``service.batching``).
FRONT_END_FAMILIES = {
    "repro_broker_connections_total", "repro_broker_batches_total",
    "repro_broker_batched_requests_total", "repro_broker_batch_max_size",
    "repro_broker_readahead_full_total",
}


class TestOneRenderer:
    """Every series is a rendering of a ``stats`` answer, by one
    function, the same for a broker and for a fleet tenant."""

    def test_every_stats_field_has_a_series(self, tmp_path):
        server = BrokerServer(MESH, state_dir=tmp_path)
        drive(server.handle_request)
        server.front.record_batch(3)
        stats = server.handle_request({"op": "stats"})
        server.close()
        base = export_stats({None: stats}).render()
        leaves = [(p, v) for p, v in stats_leaves(stats)
                  if isinstance(v, (int, float)) and not exempt(p)]
        assert len(leaves) > 60
        silent = []
        for path, value in leaves:
            moved = copy.deepcopy(stats)
            parent = moved
            for key in path[:-1]:
                parent = parent[key]
            parent[path[-1]] = (not value if isinstance(value, bool)
                                else value + 7)
            if export_stats({None: moved}).render() == base:
                silent.append(".".join(path))
        assert silent == [], f"stats fields without a series: {silent}"

    @staticmethod
    def _exposition(text, tenant=None):
        """``({family: (type, help)}, {sample without tenant: value})``."""
        families, samples = {}, {}
        for line in text.splitlines():
            if line.startswith("# HELP "):
                name, help_text = line[7:].split(" ", 1)
                families[name] = [None, help_text]
            elif line.startswith("# TYPE "):
                name, kind = line[7:].split(" ")
                families[name][0] = kind
            else:
                series, value = line.rsplit(" ", 1)
                if tenant is not None:
                    label = f'tenant="{tenant}"'
                    assert label in series, series
                    series = (series.replace("," + label, "")
                              .replace(label + ",", "").replace(label, "")
                              .replace("{}", ""))
                samples[series] = value
        return {k: tuple(v) for k, v in families.items()}, samples

    @pytest.mark.parametrize("workers", [0, 1])
    def test_a_tenant_renders_what_a_broker_renders(self, tmp_path, workers):
        server = BrokerServer(MESH, state_dir=tmp_path / "broker")
        drive(server.handle_request)
        broker = server.prometheus_text()
        server.close()
        fleet = Fleet([TenantSpec("acme", "secret", MESH)],
                      state_dir=tmp_path / "fleet", workers=workers)
        try:
            drive(lambda request: fleet.handle_request("acme", request))
            tenant = export_stats(fleet.stats()).render()
        finally:
            fleet.close()
        b_families, b_samples = self._exposition(broker)
        t_families, t_samples = self._exposition(tenant, "acme")
        # A tenant owns no connection: the broker's front-end families
        # are all it lacks.
        assert set(b_families) - set(t_families) == FRONT_END_FAMILIES
        for name in FRONT_END_FAMILIES:
            del b_families[name], b_samples[name]
        assert t_families == b_families
        assert set(t_samples) == set(b_samples)
        timed = ("repro_broker_uptime_seconds", "repro_broker_op_latency_us",
                 "_seconds_total")
        exact = [s for s in b_samples if not any(t in s for t in timed)]
        assert any(s.startswith("repro_broker_journal") for s in exact)
        assert any(s.startswith("repro_broker_ops_total") for s in exact)
        assert {s: t_samples[s] for s in exact} == \
            {s: b_samples[s] for s in exact}


class TestHandOffRatios:
    """RPCs per op and the mean batch are scrapeable: counters whose
    ratios say how many hand-offs an op costs, without a benchmark."""

    def test_worker_rpcs_and_batch_counters(self, tmp_path):
        fleet = Fleet([TenantSpec("acme", "secret", MESH)],
                      state_dir=tmp_path, workers=1)
        gateway = GatewayServer(fleet)
        try:
            # Readiness is a byte on a pipe: nothing is asked at start.
            assert fleet.supervisor.workers[0].client.calls == {}
            admit = fleet.handle_request(
                "acme", {"op": "admit", "streams": [spec()]}
            )
            assert admit["ok"] and admit["admitted"]
            fleet.handle_request(
                "acme", {"op": "query", "stream": admit["ids"][0]}
            )
            gateway.batches, gateway.batched_requests = 2, 5
            reg = export_stats(fleet.stats())
            gateway._gateway_metrics(reg)
            families = check_exposition(reg.render())
        finally:
            fleet.close()
        rpcs = families["repro_fleet_worker_rpcs_total"]
        assert rpcs["type"] == "counter"
        # Exactly one round trip each, the scrape's stats included.
        assert rpcs["samples"] == [
            f'repro_fleet_worker_rpcs_total{{op="{op}",worker="0"}} 1'
            for op in ("admit", "query", "stats")
        ]
        for name, value in (
            ("repro_gateway_batches_total", 2),
            ("repro_gateway_batched_requests_total", 5),
            ("repro_gateway_readahead_full_total", 0),
        ):
            assert families[name]["type"] == "counter"
            assert families[name]["samples"] == [f"{name} {value}"]


class TestAssertStatsCoversGauges:
    class _FakeClient:
        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

    class _FakeSummary:
        def __init__(self, engine):
            self.errors = 0
            self.server_stats = {"engine": engine}

        def to_dict(self):
            return {"errors": self.errors,
                    "server_stats": self.server_stats}

    def _run(self, monkeypatch, engine):
        import repro.service.loadgen as loadgen

        monkeypatch.setattr(
            loadgen.BrokerClient, "wait_for_unix",
            classmethod(lambda cls, path, timeout=0: self._FakeClient()),
        )
        monkeypatch.setattr(
            loadgen, "run_load",
            lambda client, **kw: self._FakeSummary(engine),
        )
        return main(["load", "--socket", "/tmp/fake.sock",
                     "--assert-stats"])

    def test_missing_dirty_gauges_fail(self, monkeypatch, capsys):
        code = self._run(monkeypatch, {"ops": 5})
        assert code == 1
        assert "dirty_last" in capsys.readouterr().err

    def test_full_engine_stats_pass(self, monkeypatch, capsys):
        code = self._run(monkeypatch, {
            "ops": 5, "dirty_last": 1, "dirty_max": 2, "dirty_total": 3,
        })
        assert code == 0

    def test_zero_ops_fail(self, monkeypatch, capsys):
        code = self._run(monkeypatch, {
            "ops": 0, "dirty_last": 0, "dirty_max": 0, "dirty_total": 0,
        })
        assert code == 1
        assert "stats empty" in capsys.readouterr().err
