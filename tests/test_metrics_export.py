"""Tests for Prometheus metrics export (repro.obs.metrics and the broker's
``stats --format prometheus`` / ``--metrics-port`` surfaces)."""

import asyncio
import re
import urllib.request
from bisect import bisect_left

import pytest

from repro.cli import main
from repro.errors import ReproError
from repro.fleet.gateway import GatewayServer
from repro.fleet.replication import StandbyPool
from repro.fleet.shards import Fleet, TenantSpec
from repro.obs.metrics import (
    DEFAULT_TIME_BUCKETS_US,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.service.metrics import ServiceMetrics
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
    def test_counter_monotone(self):
        c = Counter()
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5
        with pytest.raises(ReproError):
            c.inc(-1)

    def test_gauge_set_inc_dec(self):
        g = Gauge()
        g.set(10)
        g.inc(5)
        g.dec(2)
        assert g.value == 13

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
        reg.counter("esc_total", "h", msg='say "hi"\nplease\\now').inc()
        line = reg.render().splitlines()[2]
        assert line == \
            'esc_total{msg="say \\"hi\\"\\nplease\\\\now"} 1'

    def test_render_sorted_and_parseable(self):
        reg = MetricsRegistry()
        reg.counter("b_total", "B.", op="z").inc()
        reg.counter("b_total", "B.", op="a").inc(2)
        reg.gauge("a_gauge", "A.").set(1.5)
        reg.histogram("c_us", "C.", bounds=(1, 2)).observe(1)
        families = check_exposition(reg.render())
        assert list(families) == ["a_gauge", "b_total", "c_us"]
        assert families["b_total"]["samples"] == [
            'b_total{op="a"} 2', 'b_total{op="z"} 1',
        ]
        assert families["a_gauge"]["samples"] == ["a_gauge 1.5"]


class TestServiceMetricsExport:
    def test_sync_registry_matches_scalars(self):
        m = ServiceMetrics()
        m.record_op("admit", 0.001)
        m.record_op("admit", 0.002)
        m.record_op("query", 0.001, error=True)
        m.admitted_ok += 1
        m.admitted_rejected += 2
        m.connections += 3
        m.record_batch(4)
        text = m.render_prometheus()
        families = check_exposition(text)
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
        m = ServiceMetrics()
        for s in (1e-6, 5e-6, 1e-3, 0.1, 2.0):
            m.record_op("admit", s)
        lines = [
            ln for ln in m.render_prometheus().splitlines()
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

    def test_http_scrape_endpoint(self):
        server = BrokerServer(MESH)
        server.handle_request({"op": "admit", "streams": [spec()]})

        def get(url):
            try:
                with urllib.request.urlopen(url, timeout=5) as resp:
                    return resp.status, resp.headers, resp.read().decode()
            except urllib.error.HTTPError as exc:
                return exc.code, exc.headers, ""

        async def scrape():
            await server.start_metrics_http("127.0.0.1", 0)
            port = server._metrics_server.sockets[0].getsockname()[1]
            base = f"http://127.0.0.1:{port}"
            good = await asyncio.to_thread(get, base + "/metrics")
            missing = await asyncio.to_thread(get, base + "/nope")
            await server.aclose()
            return good, missing

        (status, headers, text), (bad_status, _, _) = asyncio.run(scrape())
        assert status == 200 and bad_status == 404
        assert headers["Content-Type"].startswith("text/plain")
        check_exposition(text)
        assert "repro_engine_admitted_streams 1" in text


class TestStaleGauges:
    """Deferred verdict work is visible: a primary always scrapes 0, a
    warm standby scrapes what its promotion would have to settle."""

    def test_standby_gauge_counts_unsettled_streams(self, tmp_path):
        fleet = Fleet([TenantSpec("acme", "secret", MESH)], shards=1,
                      state_dir=tmp_path)
        pool = StandbyPool(fleet)
        gateway = GatewayServer(fleet, standbys=pool)
        for src in (0, 6, 12):
            response = fleet.handle_request(
                "acme", {"op": "admit", "streams": [spec(src=src,
                                                         dst=src + 3)]}
            )
            assert response["ok"] and response["admitted"]
        assert pool.catch_up() == 3

        def scrape():
            return check_exposition(
                fleet.prometheus_text(gateway._gateway_metrics)
            )

        labels = '{shard="0",tenant="acme"}'
        families = scrape()
        assert families["repro_fleet_standby_ops_applied_total"][
            "samples"] == [f"repro_fleet_standby_ops_applied_total{labels} 3"]
        assert families["repro_fleet_standby_stale_streams"][
            "samples"] == [f"repro_fleet_standby_stale_streams{labels} 3"]
        assert families["repro_fleet_standby_stale_streams"][
            "type"] == "gauge"
        # Reading the replica settles it; the primary never deferred.
        pool.standbys[("acme", 0)].fingerprint()
        assert scrape()["repro_fleet_standby_stale_streams"][
            "samples"] == [f"repro_fleet_standby_stale_streams{labels} 0"]
        assert fleet.tenants["acme"].hosts[0].engine_stats()["stale"] == 0
        fleet.close()


class TestHandOffRatios:
    """RPCs per op and the mean batch are scrapeable: counters whose
    ratios say how many hand-offs an op costs, without a benchmark."""

    def test_worker_rpcs_and_batch_counters(self, tmp_path):
        fleet = Fleet([TenantSpec("acme", "secret", MESH)], shards=2,
                      state_dir=tmp_path, workers=1)
        gateway = GatewayServer(fleet)
        try:
            before = dict(fleet.supervisor.workers[0].client.calls)
            # The start-up sweep: one full dump per shard, never again.
            assert before["worker_dump"] == 2
            admit = fleet.handle_request(
                "acme", {"op": "admit", "streams": [spec()]}
            )
            assert admit["ok"] and admit["admitted"]
            fleet.handle_request(
                "acme", {"op": "query", "stream": admit["ids"][0]}
            )
            gateway.batches, gateway.batched_requests = 2, 5
            families = check_exposition(
                fleet.prometheus_text(gateway._gateway_metrics)
            )
        finally:
            fleet.close()
        rpcs = families["repro_fleet_worker_rpcs_total"]
        assert rpcs["type"] == "counter"
        for op in ("admit", "query"):   # exactly one round trip each
            assert (f'repro_fleet_worker_rpcs_total{{op="{op}",'
                    f'worker="0"}} 1') in rpcs["samples"]
        assert ('repro_fleet_worker_rpcs_total{op="worker_dump",'
                'worker="0"} 2') in rpcs["samples"]
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
