"""Unit tests for the streaming localization service.

Covers the wire protocol, per-tenant sessions (buffer/sort/close
semantics, limits), the calibration warm-start store, shard queueing and
eviction, and the TCP front end including the ``/metrics`` scrape.
"""

from __future__ import annotations

import asyncio
import json

import pytest

import repro.experiments  # noqa: F401  (breaks the orchestrator import cycle)
from repro.core.pdf_table import PdfTable
from repro.orchestrator.cache import ResultCache
from repro.serve import (
    InProcessClient,
    LocalizationServer,
    ProtocolError,
    ServeClient,
    ServeConfig,
    ServiceCore,
    SessionLimits,
    Shard,
    TenantSession,
    calibration_fingerprint,
    shard_index_for,
)
from repro.serve.protocol import (
    MAX_LINE_BYTES,
    FixRequest,
    HelloRequest,
    ObserveRequest,
    PingRequest,
    StatsRequest,
    WindowRequest,
    encode_request,
    encode_response,
    parse_request,
    parse_response,
)
from repro.serve.session import CalibrationStore


BEACONS = [
    (10.0, 10.0, -60.0),
    (70.0, 10.0, -72.0),
    (40.0, 70.0, -68.0),
    (20.0, 40.0, -64.0),
]


def _hello(tenant="t", **kwargs):
    kwargs.setdefault("area_side_m", 80.0)
    return HelloRequest(tenant=tenant, **kwargs)


def _session(pdf_table, tenant="t", limits=None, clock=None, **kwargs):
    return TenantSession(
        _hello(tenant, **kwargs), table=pdf_table,
        limits=limits, clock=clock,
    )


def _run_window(session, robot=0, order=None):
    """Open, observe BEACONS (optionally permuted), close; return payload."""
    assert session.handle(
        WindowRequest(tenant=session.tenant, robot=robot, event="open")
    ).ok
    indices = order if order is not None else range(len(BEACONS))
    for seq in indices:
        x, y, rssi = BEACONS[seq]
        response = session.handle(ObserveRequest(
            tenant=session.tenant, robot=robot, seq=seq,
            x=x, y=y, rssi_dbm=rssi,
        ))
        assert response.ok
    close = session.handle(
        WindowRequest(tenant=session.tenant, robot=robot, event="close")
    )
    assert close.ok
    return close.payload


# -- protocol -----------------------------------------------------------------


def test_protocol_request_round_trip():
    requests = [
        _hello("alpha", calibration_seed=7, lut=True),
        WindowRequest(tenant="alpha", robot=3, event="open", t=12.5),
        ObserveRequest(tenant="alpha", robot=3, seq=2, x=1.25, y=-4.5,
                       rssi_dbm=-63.5, anchor_id=9, t=12.75),
        FixRequest(tenant="alpha", robot=3),
        StatsRequest(tenant="alpha"),
        PingRequest(),
    ]
    for request in requests:
        assert parse_request(encode_request(request)) == request


def test_protocol_floats_survive_the_wire_exactly():
    value = 67.14279829037997
    request = ObserveRequest(tenant="t", robot=0, seq=0, x=value,
                             y=value / 3.0, rssi_dbm=-61.123456789)
    decoded = parse_request(encode_request(request))
    assert decoded.x.hex() == request.x.hex()
    assert decoded.y.hex() == request.y.hex()
    assert decoded.rssi_dbm.hex() == request.rssi_dbm.hex()


@pytest.mark.parametrize("line", [
    "not json",
    '{"op": "warp"}',
    '{"op": "observe", "tenant": "t"}',                     # missing fields
    '{"op": "window", "tenant": "t", "robot": 0, "event": "pause"}',
    '{"op": "observe", "tenant": "", "robot": 0, "seq": 0, '
    '"x": 1, "y": 2, "rssi_dbm": -60}',                      # empty tenant
    '{"op": "observe", "tenant": "t", "robot": true, "seq": 0, '
    '"x": 1, "y": 2, "rssi_dbm": -60}',                      # bool robot
    '{"op": "hello", "tenant": "t", "calibration_samples": 0}',
])
def test_protocol_rejects_bad_lines(line):
    with pytest.raises(ProtocolError):
        parse_request(line)


def test_protocol_rejects_oversized_line():
    line = json.dumps({"op": "ping", "tenant": "x" * 70_000})
    with pytest.raises(ProtocolError):
        parse_request(line)


def test_protocol_response_round_trip():
    from repro.serve.protocol import Response, error_response

    ok = Response(ok=True, payload={"fixes": 2, "x_hex": "0x1.8p+5"})
    assert parse_response(encode_response(ok)) == ok
    bad = error_response("overloaded", "queue full")
    decoded = parse_response(encode_response(bad))
    assert not decoded.ok
    assert decoded.error == "overloaded"
    assert decoded.payload == {"detail": "queue full"}


# -- session ------------------------------------------------------------------


def test_session_window_produces_fix(pdf_table):
    session = _session(pdf_table)
    payload = _run_window(session)
    assert payload["fixed"]
    assert payload["applied"] == len(BEACONS)
    assert payload["x_hex"] == float(payload["x"]).hex()
    fix = session.handle(FixRequest(tenant="t", robot=0))
    assert fix.ok and fix.payload["has_fix"]
    assert fix.payload["x_hex"] == payload["x_hex"]


def test_session_sorts_by_source_seq(pdf_table):
    in_order = _run_window(_session(pdf_table))
    reversed_order = _run_window(
        _session(pdf_table), order=list(reversed(range(len(BEACONS))))
    )
    assert in_order["x_hex"] == reversed_order["x_hex"]
    assert in_order["y_hex"] == reversed_order["y_hex"]


def test_session_acknowledges_out_of_window_observations(pdf_table):
    session = _session(pdf_table)
    response = session.handle(ObserveRequest(
        tenant="t", robot=0, seq=0, x=1.0, y=2.0, rssi_dbm=-60.0,
    ))
    assert response.ok
    assert response.payload == {"buffered": False}
    assert session.observations_out_of_window == 1
    # ... and the next full window is unaffected by the stray beacon.
    assert _run_window(session)["applied"] == len(BEACONS)


def test_session_pending_limit_sheds(pdf_table):
    limits = SessionLimits(max_pending_observations=2)
    session = _session(pdf_table, limits=limits)
    session.handle(WindowRequest(tenant="t", robot=0, event="open"))
    results = []
    for seq in range(4):
        results.append(session.handle(ObserveRequest(
            tenant="t", robot=0, seq=seq, x=1.0, y=2.0, rssi_dbm=-60.0,
        )))
    assert [r.ok for r in results] == [True, True, False, False]
    assert results[2].error == "pending_limit"
    assert session.observations_dropped == 2


def test_session_robot_limit(pdf_table):
    session = _session(pdf_table, limits=SessionLimits(max_robots=1))
    assert session.handle(
        WindowRequest(tenant="t", robot=0, event="open")
    ).ok
    refused = session.handle(
        WindowRequest(tenant="t", robot=1, event="open")
    )
    assert not refused.ok
    assert refused.error == "robot_limit"


def test_session_reopen_drops_stale_pending(pdf_table):
    session = _session(pdf_table)
    session.handle(WindowRequest(tenant="t", robot=0, event="open"))
    session.handle(ObserveRequest(tenant="t", robot=0, seq=0,
                                  x=1.0, y=2.0, rssi_dbm=-60.0))
    # Window never closed; the next open must not leak the stale beacon.
    payload = _run_window(session)
    assert payload["applied"] == len(BEACONS)
    assert session.observations_dropped == 1


def test_session_stats_and_idle_tracking(pdf_table):
    now = {"t": 100.0}
    session = _session(pdf_table, clock=lambda: now["t"])
    _run_window(session)
    stats = session.handle(StatsRequest(tenant="t"))
    assert stats.ok
    assert stats.payload["windows_closed"] == 1
    assert stats.payload["observations"] == len(BEACONS)
    now["t"] = 160.0
    assert session.idle_for(now["t"]) == pytest.approx(60.0)


# -- calibration store --------------------------------------------------------


def test_calibration_fingerprint_is_prefixed_and_stable():
    a = calibration_fingerprint(1, 1000)
    assert a.startswith("cal-")
    assert a == calibration_fingerprint(1, 1000)
    assert a != calibration_fingerprint(2, 1000)
    assert a != calibration_fingerprint(1, 2000)


def test_calibration_store_shares_tables_in_process():
    store = CalibrationStore()
    first = store.table_for(_hello(calibration_samples=2000))
    second = store.table_for(_hello("other", calibration_samples=2000))
    assert first is second
    different = store.table_for(_hello(calibration_samples=3000))
    assert different is not first


def test_calibration_store_warm_starts_from_result_cache(tmp_path):
    cache = ResultCache(root=str(tmp_path / "cache"))
    cold = CalibrationStore(warm_store=cache)
    table = cold.table_for(_hello(calibration_samples=2000))
    assert cache.stats.stores == 1
    # A fresh process (new store instance) warm-starts from disk.
    warm_cache = ResultCache(root=str(tmp_path / "cache"))
    warm = CalibrationStore(warm_store=warm_cache)
    restored = warm.table_for(_hello(calibration_samples=2000))
    assert warm_cache.stats.hits == 1
    assert restored.rssi_range == table.rssi_range
    assert isinstance(restored, PdfTable)


def test_result_cache_payload_type_check(tmp_path):
    cache = ResultCache(root=str(tmp_path / "cache"))
    assert cache.put_payload("cal-xyz", {"not": "a table"})
    assert cache.get_payload("cal-xyz", PdfTable) is None  # typed miss
    assert cache.get_payload("cal-xyz", dict) == {"not": "a table"}


# -- shard --------------------------------------------------------------------


def test_shard_index_is_stable_and_in_range():
    assert shard_index_for("tenant-a", 4) == shard_index_for("tenant-a", 4)
    spread = {shard_index_for("tenant-%d" % i, 4) for i in range(64)}
    assert spread == {0, 1, 2, 3}


def _failing_factory(hello):
    raise RuntimeError("no sessions today")


def test_shard_queue_full_sheds():
    async def scenario():
        shard = Shard(0, _failing_factory, queue_limit=1,
                      tenant_inflight_limit=10)
        # Worker not started: the queue fills and stays full.
        futures = [shard.submit(PingRequest()) for _ in range(3)]
        shed = [f for f in futures if f.done()]
        assert len(shed) == 2
        for future in shed:
            assert future.result().error == "overloaded"
        assert shard.shed == 2
        await shard.stop()

    asyncio.run(scenario())


def test_shard_tenant_inflight_limit_sheds():
    async def scenario():
        shard = Shard(0, _failing_factory, queue_limit=100,
                      tenant_inflight_limit=2)
        futures = [
            shard.submit(StatsRequest(tenant="hog")) for _ in range(4)
        ]
        tenant_shed = [f for f in futures if f.done()]
        assert len(tenant_shed) == 2
        for future in tenant_shed:
            assert future.result().error == "tenant_overloaded"
        await shard.stop()

    asyncio.run(scenario())


def test_shard_routes_and_reports_unknown_tenant(pdf_table):
    async def scenario():
        shard = Shard(0, lambda hello: TenantSession(hello, pdf_table))
        shard.start()
        missing = await shard.submit(StatsRequest(tenant="ghost"))
        assert missing.error == "unknown_tenant"
        assert (await shard.submit(_hello("real"))).ok
        assert (await shard.submit(StatsRequest(tenant="real"))).ok
        bye = await shard.submit(
            parse_request('{"op": "bye", "tenant": "real"}')
        )
        assert bye.ok and bye.payload["tenant"] == "real"
        assert (await shard.submit(StatsRequest(tenant="real"))).error \
            == "unknown_tenant"
        await shard.stop()

    asyncio.run(scenario())


def test_shard_internal_errors_do_not_kill_the_worker():
    async def scenario():
        shard = Shard(0, _failing_factory)
        shard.start()
        broken = await shard.submit(_hello("doomed"))
        assert broken.error == "internal"
        assert (await shard.submit(PingRequest())).ok  # worker survived
        await shard.stop()

    asyncio.run(scenario())


def test_shard_evicts_idle_sessions(pdf_table):
    async def scenario():
        now = {"t": 0.0}
        shard = Shard(
            0, lambda hello: TenantSession(hello, pdf_table,
                                           clock=lambda: now["t"]),
            session_ttl_s=30.0, clock=lambda: now["t"],
        )
        shard.start()
        assert (await shard.submit(_hello("idler"))).ok
        assert (await shard.submit(_hello("active"))).ok
        now["t"] = 20.0
        assert (await shard.submit(StatsRequest(tenant="active"))).ok
        now["t"] = 40.0  # idler idle 40s > 30s TTL; active idle 20s
        assert shard.sweep_idle_sessions() == 1
        assert "idler" not in shard.sessions
        assert "active" in shard.sessions
        await shard.stop()

    asyncio.run(scenario())


def test_shard_stop_clears_inflight_ledger():
    async def scenario():
        shard = Shard(0, _failing_factory, queue_limit=100,
                      tenant_inflight_limit=2)
        # Worker not started: both submissions sit queued, charged to
        # the tenant's in-flight budget.
        futures = [
            shard.submit(StatsRequest(tenant="hog")) for _ in range(2)
        ]
        await shard.stop()
        for future in futures:
            assert future.result().error == "shutting_down"
        # A restarted shard must not shed the tenant against in-flight
        # counts from its previous life.
        shard.start()
        response = await shard.submit(StatsRequest(tenant="hog"))
        assert response.error == "unknown_tenant"  # routed, not shed
        await shard.stop()

    asyncio.run(scenario())


def test_shard_sweeper_survives_sweep_errors():
    async def scenario():
        shard = Shard(0, _failing_factory, session_ttl_s=30.0,
                      sweep_interval_s=0.01)
        calls = {"n": 0}
        recovered = asyncio.Event()

        def flaky_sweep():
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("checkpoint store hiccup")
            recovered.set()
            return 0

        shard.sweep_idle_sessions = flaky_sweep
        shard.start()
        # The first sweep raises; the sweeper must survive it and keep
        # sweeping (TTL eviction used to die silently here, and the
        # stored exception then re-raised out of stop()).
        await asyncio.wait_for(recovered.wait(), timeout=5.0)
        await shard.stop()
        assert calls["n"] >= 2

    asyncio.run(scenario())


# -- server + clients ---------------------------------------------------------


def _small_core(**overrides):
    config = ServeConfig(n_shards=2, **overrides)
    return ServiceCore(config)


def test_in_process_client_round_trip():
    async def scenario():
        client = InProcessClient(_small_core())
        assert (await client.hello(
            "t", calibration_samples=2000, area_side_m=80.0
        )).ok
        await client.window_open("t", 0)
        for seq, (x, y, rssi) in enumerate(BEACONS):
            assert (await client.observe("t", 0, seq=seq, x=x, y=y,
                                         rssi_dbm=rssi)).ok
        close = await client.window_close("t", 0)
        assert close.ok and close.payload["fixed"]
        confidence = await client.confidence("t", 0)
        assert confidence.ok
        assert confidence.payload["beacons_applied"] == len(BEACONS)
        await client.core.stop()

    asyncio.run(scenario())


def test_tcp_round_trip_with_pipelining():
    async def scenario():
        server = LocalizationServer(_small_core())
        await server.start()
        async with ServeClient("127.0.0.1", server.port) as client:
            assert (await client.hello(
                "t", calibration_samples=2000, area_side_m=80.0
            )).ok
            await client.window_open("t", 0)
            # Pipelined: all observes in flight before any response read.
            futures = [
                await client.send(ObserveRequest(
                    tenant="t", robot=0, seq=seq, x=x, y=y, rssi_dbm=rssi,
                ))
                for seq, (x, y, rssi) in enumerate(BEACONS)
            ]
            for future in futures:
                assert (await future).ok
            close = await client.window_close("t", 0)
            assert close.ok and close.payload["fixed"]
        await server.stop()

    asyncio.run(scenario())


def test_tcp_bad_line_keeps_connection_usable():
    async def scenario():
        server = LocalizationServer(_small_core())
        await server.start()
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", server.port
        )
        writer.write(b"this is not json\n")
        writer.write(b'{"op": "ping"}\n')
        await writer.drain()
        first = parse_response(await reader.readline())
        second = parse_response(await reader.readline())
        assert not first.ok and first.error == "bad_request"
        assert second.ok and second.payload["pong"]
        writer.close()
        await writer.wait_closed()
        await server.stop()

    asyncio.run(scenario())


def test_tcp_line_limit_is_the_protocol_limit():
    """A line of exactly MAX_LINE_BYTES is parsed; longer lines get a
    ``bad_request`` and a counter increment, and the connection goes on
    with the next line.  Other connections are unaffected."""
    ping = b'{"op": "ping"}'
    # JSON whitespace pads a valid ping to exactly the limit.
    exact = ping[:-1] + b" " * (MAX_LINE_BYTES - len(ping)) + b"}"
    assert len(exact) == MAX_LINE_BYTES
    over_by_one = exact[:-1] + b" }"
    # Far over the limit: the tail arrives after the first overrun.
    huge = b"x" * (3 * MAX_LINE_BYTES)

    async def scenario():
        core = _small_core()
        server = LocalizationServer(core)
        await server.start()
        errors = core.registry.counter("serve_protocol_errors")
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", server.port
        )
        other_reader, other_writer = await asyncio.open_connection(
            "127.0.0.1", server.port
        )
        writer.write(exact + b"\n" + over_by_one + b"\n" + ping + b"\n")
        await writer.drain()
        replies = [parse_response(await reader.readline()) for _ in range(3)]
        assert replies[0].ok and replies[0].payload["pong"]
        assert not replies[1].ok and replies[1].error == "bad_request"
        assert replies[2].ok and replies[2].payload["pong"]
        assert errors.value == 1

        writer.write(huge + b"\n" + ping + b"\n")
        await writer.drain()
        rejected = parse_response(await reader.readline())
        after = parse_response(await reader.readline())
        assert not rejected.ok and rejected.error == "bad_request"
        assert after.ok and after.payload["pong"]
        assert errors.value == 2

        other_writer.write(ping + b"\n")
        await other_writer.drain()
        assert parse_response(await other_reader.readline()).ok
        for w in (writer, other_writer):
            w.close()
            await w.wait_closed()
        await server.stop()

    asyncio.run(scenario())


async def _http_get(port, path):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(b"GET %s HTTP/1.1\r\nHost: test\r\n\r\n" % path)
    await writer.drain()
    data = await reader.read(-1)
    writer.close()
    await writer.wait_closed()
    return data


def test_metrics_endpoint_serves_prometheus_text():
    async def scenario():
        server = LocalizationServer(_small_core())
        await server.start()
        client = InProcessClient(server.core)
        await client.ping()
        scrape = await _http_get(server.port, b"/metrics")
        assert b"200 OK" in scrape
        assert b"repro_serve_requests_total" in scrape
        missing = await _http_get(server.port, b"/nope")
        assert b"404" in missing
        await server.stop()

    asyncio.run(scenario())


def test_service_core_stats_exposes_counters():
    async def scenario():
        core = _small_core()
        client = InProcessClient(core)
        await client.ping()
        stats = core.stats()
        assert stats["serve_requests_total"] == 1.0
        assert stats["serve_processed_total"] == 1.0
        assert "serve_request_latency_s_p50" in stats
        assert core.metrics_text().startswith("# TYPE")
        await core.stop()

    asyncio.run(scenario())


def test_cli_serve_smoke(capsys):
    from repro.cli import main

    code = main(["serve", "--port", "0", "--shards", "2", "--smoke"])
    out = capsys.readouterr().out
    assert code == 0, out
    assert "smoke: /metrics scrape ok" in out


@pytest.mark.parametrize("argv", [
    ["serve", "--port", "-5"],
    ["serve", "--port", "70000"],
])
def test_cli_serve_bad_config_exits_2(capsys, argv):
    from repro.cli import main

    code = main(argv)
    out = capsys.readouterr().out
    assert code == 2
    assert out.startswith("serve: ")


# -- observability: trace echo, gauges, probes under load ---------------------


def test_tcp_echoes_client_stamped_trace():
    async def scenario():
        server = LocalizationServer(_small_core())
        await server.start()
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", server.port
        )
        writer.write(b'{"op": "ping", "trace": "client-abc"}\n')
        writer.write(b'{"op": "ping"}\n')
        await writer.drain()
        stamped = json.loads(await reader.readline())
        assert stamped["trace"] == "client-abc"
        # Sampled mode still answers the raw peer with a minted id.
        unstamped = json.loads(await reader.readline())
        assert unstamped.get("trace")
        assert unstamped["trace"] != "client-abc"
        writer.close()
        await writer.wait_closed()
        await server.stop()

    asyncio.run(scenario())


def test_trace_echo_survives_tracing_off():
    async def scenario():
        server = LocalizationServer(_small_core(trace_mode="off"))
        await server.start()
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", server.port
        )
        writer.write(b'{"op": "ping", "trace": "still-here"}\n')
        writer.write(b'{"op": "ping"}\n')
        await writer.drain()
        stamped = json.loads(await reader.readline())
        assert stamped["trace"] == "still-here"
        # No client id and no tracing: nothing to echo, nothing minted.
        unstamped = json.loads(await reader.readline())
        assert "trace" not in unstamped
        writer.close()
        await writer.wait_closed()
        await server.stop()

    asyncio.run(scenario())


def test_trace_never_leaks_into_cached_replies(pdf_table):
    # An idempotent retry carrying a *different* trace id must get the
    # cached payload byte-identically, echoing the retry's own id.
    session = _session(pdf_table)
    first = session.handle(WindowRequest(
        tenant="t", robot=0, event="open", rid=1, trace="attempt-1",
    ))
    retry = session.handle(WindowRequest(
        tenant="t", robot=0, event="open", rid=1, trace="attempt-2",
    ))
    assert retry is first  # cache hit: the very same Response object
    assert first.trace is None
    assert (encode_response(first, trace="attempt-1")
            != encode_response(first, trace="attempt-2"))
    assert json.loads(encode_response(first, trace="attempt-2"))["trace"] \
        == "attempt-2"


def test_tracer_records_per_hop_spans():
    async def scenario():
        core = _small_core(trace_mode="always")
        client = InProcessClient(core)
        assert (await client.hello(
            "t", calibration_samples=2000, area_side_m=80.0
        )).ok
        await client.window_open("t", 0)
        for seq, (x, y, rssi) in enumerate(BEACONS):
            await client.observe("t", 0, seq=seq, x=x, y=y, rssi_dbm=rssi)
        close = await client.window_close("t", 0)
        assert close.ok and close.payload["fixed"]
        records = core.tracer.records()
        await core.stop()
        return records

    records = asyncio.run(scenario())
    names = {record["name"] for record in records}
    assert {"request", "queue", "shard_service",
            "estimator_ingest", "checkpoint"} <= names
    # Every non-root span is parented inside its own trace's root.
    roots = {record["trace"]: record["span"] for record in records
             if record["name"] == "request"}
    for record in records:
        if record["name"] != "request":
            assert record["parent"] == roots[record["trace"]]
    # Closed spans nest inside their root's interval.
    for record in records:
        root_spans = [r for r in records
                      if r["trace"] == record["trace"]
                      and r["name"] == "request"]
        assert record["start_s"] >= root_spans[0]["start_s"]
        assert record["end_s"] <= root_spans[0]["end_s"]


def test_robots_active_gauge_tracks_lifecycle():
    async def scenario():
        core = _small_core()
        client = InProcessClient(core)
        await client.hello("a", calibration_samples=2000, area_side_m=80.0)
        await client.hello("b", calibration_samples=2000, area_side_m=80.0)
        for tenant in ("a", "b"):
            await client.window_open(tenant, 0)
            await client.window_open(tenant, 1)
        # Live gauge moved by add() at lane creation, before any scrape.
        assert core.registry.gauge("serve_robots_active").value == 4.0
        assert core.registry.gauge("serve_robots_active_peak").value == 4.0
        assert (await client.bye("a")).ok
        # Decrement-on-evict: bye subtracts the tenant's robots.
        assert core.registry.gauge("serve_robots_active").value == 2.0
        stats = core.stats()
        await core.stop()
        return stats

    stats = asyncio.run(scenario())
    # The scrape recomputes truth; the peak survives the eviction.
    assert stats["serve_robots_active"] == 2.0
    assert stats["serve_robots_active_peak"] == 4.0


def test_health_probes_concurrent_with_live_ingest():
    async def scenario():
        server = LocalizationServer(_small_core())
        await server.start()

        async def load(tenant):
            async with ServeClient("127.0.0.1", server.port) as client:
                await client.hello(tenant, calibration_samples=2000,
                                   area_side_m=80.0)
                for window in range(4):
                    await client.window_open(tenant, 0, t=float(window))
                    for seq, (x, y, rssi) in enumerate(BEACONS):
                        await client.observe(tenant, 0, seq=seq, x=x, y=y,
                                             rssi_dbm=rssi, t=float(window))
                    close = await client.window_close(tenant, 0,
                                                      t=float(window))
                    assert close.ok
            return True

        async def scrape_loop():
            bodies = []
            for _ in range(6):
                for path in (b"/healthz", b"/readyz", b"/metrics"):
                    bodies.append((path, await _http_get(server.port, path)))
                await asyncio.sleep(0)
            return bodies

        results = await asyncio.gather(
            load("probe-a"), load("probe-b"),
            scrape_loop(), scrape_loop(),
        )
        await server.stop()
        return results

    load_a, load_b, *scrapes = asyncio.run(scenario())
    assert load_a and load_b
    for bodies in scrapes:
        for path, body in bodies:
            assert b"200 OK" in body, path
            if path == b"/healthz":
                assert b"ok" in body
            elif path == b"/readyz":
                assert b"ready" in body
            else:
                assert b"repro_serve_requests_total" in body
