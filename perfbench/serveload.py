"""The ``serve-replay`` workload: recorded Fig.-7 traffic, replayed
open-loop over TCP to a :class:`~repro.serve.server.LocalizationServer`.

Before any timer starts, a Fig.-7 team is recorded with
:func:`~repro.serve.replay.record_replay_log` for each scenario seed (its
science payload is checked against the ``fig7`` digest).  The run then
starts a server (checkpointing on, tracing at the default ``sampled``
mode) and replays the recordings as ``TENANTS`` tenants multiplexed over
``CONNECTIONS`` connections, all in this one process and event loop.

Open loop: each tenant sends its windows (open, every observation, close)
on a fixed wall-clock schedule, ``TENANTS / CLOSE_RATE_PER_S`` apart,
with tenants phase-staggered evenly across that interval; ``--seed``
jitters the phases and picks which recording each tenant replays.  A
tenant that reaches the end of its recording says bye and starts it
again under a fresh session.  Fix latency runs from each close's
*scheduled* send time to its response, so a stalled server or generator
shows up in every later close; ``send_lag`` says how late the generator
itself ran.  Because the schedule fixes the phase's wall time, the
throughput metrics (``fixes_per_s``, ``sim_s_per_wall_s``) divide by the
process CPU time of the phase instead; both are one capacity figure.

Every close is one operation.  It fails when any request of its window
is refused or errors, or when :func:`~repro.serve.replay.diff_fixes`
finds its fix differs from the batch recording.
"""

from __future__ import annotations

import asyncio
import gc
import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence

import numpy as np

from perfbench.common import RunResult, median, peak_rss_mb, percentile, science_digest
from perfbench.layers import install_layers
from perfbench.simload import SCENARIO_SEEDS, scenario_config, warm_lut
from perfbench.tracing import LayerTracer

__all__ = ["TENANTS", "CONNECTIONS", "CLOSE_RATE_PER_S", "run_serve_workload",
           "Window", "build_windows", "Schedule", "Tenant", "Replay"]

_clock = time.perf_counter

TENANTS = 4
CONNECTIONS = 2
#: Offered window closes per second, summed over tenants.  The server
#: spends about 10 ms of CPU per close, so this keeps it about a fifth
#: busy: a slow spell on a shared host stretches service times but does
#: not tip the schedule into queueing.
CLOSE_RATE_PER_S = 20.0
#: Server starts timed per run; ``setup_s`` is their median.
SETUP_TRIALS = 11


@dataclass
class Window:
    """One robot's beacon round as the tenant sends it."""

    requests: list            # open, observations..., close
    close_event: dict         # the recording's close (robot, window, fix)


def build_windows(log, tenant: str) -> List[Window]:
    """Split a recording into per-window request bursts for ``tenant``,
    grouping events exactly as :func:`~repro.serve.replay.replay_log`."""
    from repro.serve.protocol import ObserveRequest, WindowRequest

    windows: List[Window] = []
    opened: Dict[int, dict] = {}
    pending: Dict[int, list] = {}
    for event in log.events:
        robot = event["robot"]
        if event["kind"] == "open":
            opened[robot] = event
            pending[robot] = []
        elif event["kind"] == "beacon":
            pending.setdefault(robot, []).append(event)
        elif event["kind"] == "close":
            beacons = pending.pop(robot, [])
            requests = []
            if robot in opened:
                requests.append(WindowRequest(
                    tenant=tenant, robot=robot, event="open",
                    t=opened.pop(robot).get("t", 0.0)))
            requests.extend(
                ObserveRequest(
                    tenant=tenant, robot=robot, seq=b["seq"], x=b["x"], y=b["y"],
                    rssi_dbm=b["rssi_dbm"], anchor_id=b.get("anchor_id"),
                    t=b.get("t", 0.0))
                for b in beacons
            )
            requests.append(WindowRequest(
                tenant=tenant, robot=robot, event="close",
                t=event.get("t", 0.0), expected=len(beacons)))
            windows.append(Window(requests, event))
    return windows


class Schedule:
    """When each tenant's ``j``-th window is due, relative to the start.

    Tenant ``i`` sends every ``interval_s`` from phase
    ``(i + jitter_i) * interval_s / tenants``, ``|jitter_i| <= 0.1``.
    """

    def __init__(self, tenants: int, rate_per_s: float, seed: int) -> None:
        self.interval_s = tenants / rate_per_s
        jitter = np.random.default_rng(seed % 2**32).uniform(-0.1, 0.1, size=tenants)
        self.phases_s = [
            (i + 0.5 + float(jitter[i])) * self.interval_s / tenants
            for i in range(tenants)
        ]

    def due_s(self, tenant: int, j: int) -> float:
        return self.phases_s[tenant] + j * self.interval_s

    def count(self, tenant: int, budget_s: float) -> int:
        """Windows of ``tenant`` due before ``budget_s``."""
        return max(0, int(np.ceil((budget_s - self.phases_s[tenant]) / self.interval_s)))


@dataclass
class Tenant:
    name: str
    log: object
    windows: List[Window]


@dataclass
class _Phase:
    """What one replay phase produced."""

    attempted: int = 0
    failed: int = 0
    fixes: int = 0
    closes: int = 0
    sim_s: float = 0.0
    wall_s: float = 0.0
    cpu_s: float = 0.0
    latencies_ms: List[float] = field(default_factory=list)
    lags_ms: List[float] = field(default_factory=list)


class Replay:
    """The open-loop generator for one phase."""

    def __init__(self, tenants: Sequence[Tenant], clients, schedule: Schedule) -> None:
        self.tenants = tenants
        self.clients = clients
        self.schedule = schedule
        # Per tenant, per round: close index -> (record, latency ms); the
        # record is None for a refused window and the latency None until
        # the close is answered.
        self.outcomes: List[Dict[int, Dict[int, tuple]]] = [{} for _ in tenants]
        self.lags_ms: List[float] = []
        self.inflight: List[asyncio.Future] = []
        self.last_done = 0.0

    async def run(self, budget_s: float) -> float:
        """Send the phase's schedule; returns its start time."""
        start = _clock() + 0.05
        await asyncio.gather(*[
            self._drive(i, start, self.schedule.count(i, budget_s))
            for i in range(len(self.tenants))
        ])
        if self.inflight:
            await asyncio.wait(self.inflight, timeout=60.0)
        return start

    async def _drive(self, index: int, start: float, count: int) -> None:
        tenant = self.tenants[index]
        client = self.clients[index % len(self.clients)]
        per_round = len(tenant.windows)
        for j in range(count):
            due = start + self.schedule.due_s(index, j)
            delay = due - _clock()
            if delay > 0:
                await asyncio.sleep(delay)
            self.lags_ms.append((_clock() - due) * 1000.0)
            round_no, w = divmod(j, per_round)
            setup = []
            if w == 0:
                if round_no:
                    setup.append(await client.send(_bye(tenant.name)))
                setup.append(await client.send(_hello(tenant.log, tenant.name)))
            futures = setup + [await client.send(r) for r in tenant.windows[w].requests]
            slot = self.outcomes[index].setdefault(round_no, {})
            slot[w] = (None, None)
            close = futures[-1]
            close.add_done_callback(
                lambda done, f=futures, s=slot, k=w, d=due: self._closed(f, s, k, d))
            self.inflight.append(close)

    def _closed(self, futures, slot, w: int, due: float) -> None:
        now = _clock()
        self.last_done = max(self.last_done, now)
        record = None
        if all(not f.cancelled() and f.exception() is None and f.result().ok
               for f in futures):
            payload = futures[-1].result().payload
            record = {"fixed": bool(payload.get("fixed"))}
            if record["fixed"]:
                record["x_hex"] = payload["x_hex"]
                record["y_hex"] = payload["y_hex"]
        slot[w] = (record, (now - due) * 1000.0)

    def score(self, start: float) -> _Phase:
        """Check every close against the recording."""
        from repro.serve.replay import diff_fixes

        phase = _Phase(lags_ms=self.lags_ms)
        for tenant, rounds in zip(self.tenants, self.outcomes):
            for slot in rounds.values():
                sim_s = 0.0
                for w in sorted(slot):
                    record, latency_ms = slot[w]
                    phase.attempted += 1
                    if record is None or latency_ms is None:
                        phase.failed += 1
                        continue
                    event = tenant.windows[w].close_event
                    replayed = dict(record, robot=event["robot"], window=event["window"])
                    phase.latencies_ms.append(latency_ms)
                    phase.closes += 1
                    # One close, one operation: however many axes differ.
                    if diff_fixes(replace(tenant.log, events=[event]), [replayed]):
                        phase.failed += 1
                    else:
                        phase.fixes += int(record["fixed"])
                        sim_s = max(sim_s, event.get("t", 0.0))
                phase.sim_s += sim_s
        phase.wall_s = max(self.last_done - start, 1e-9)
        return phase


def _hello(log, tenant: str):
    from repro.serve.protocol import HelloRequest

    return HelloRequest(
        tenant=tenant,
        calibration_seed=log.calibration_seed,
        calibration_samples=log.calibration_samples,
        area_side_m=log.area_side_m,
        grid_resolution_m=log.grid_resolution_m,
        min_beacons_for_fix=log.min_beacons_for_fix,
        lut=log.lut,
    )


def _bye(tenant: str):
    from repro.serve.protocol import ByeRequest

    return ByeRequest(tenant=tenant)


def _serve_config():
    from repro.serve import ServeConfig

    # A window is one pipelined burst of up to ~80 requests, so the
    # per-tenant in-flight cap and the reply queue sit above two bursts.
    return ServeConfig(
        port=0,
        n_shards=2,
        queue_limit=2048,
        tenant_inflight_limit=512,
        reply_queue_limit=512,
        checkpointing=True,
        trace_mode="sampled",
    )


async def _start_server(logs):
    """Server start plus calibration warm-up for every recording."""
    from repro.serve import LocalizationServer, ServiceCore

    server = LocalizationServer(ServiceCore(_serve_config()))
    await server.start()
    for log in logs:
        warm_lut(server.core.calibrations.table_for(_hello(log, "warmup")))
    return server


async def _phase(tenants, clients, seed: int, budget_s: float) -> _Phase:
    replay = Replay(tenants, clients, Schedule(len(tenants), CLOSE_RATE_PER_S, seed))
    gc.collect()
    cpu = time.process_time()
    start = await replay.run(budget_s)
    cpu = time.process_time() - cpu
    # Close every session so the next phase (or shutdown) starts clean.
    for i, tenant in enumerate(tenants):
        await clients[i % len(clients)].request(_bye(tenant.name))
    phase = replay.score(start)
    phase.cpu_s = cpu
    return phase


def record_logs(seeds: Sequence[int], digests: Dict[str, str]):
    """Record one Fig.-7 replay log per seed; returns the logs, the batch
    results and how many recordings missed their pinned digest."""
    from repro.serve.replay import record_replay_log

    logs, results, mismatched = {}, {}, 0
    for seed in seeds:
        log, result = record_replay_log(scenario_config("fig7", seed))
        logs[seed], results[seed] = log, result
        mismatched += science_digest(result) != digests.get(str(seed))
    return logs, results, mismatched


async def _run(seed, seconds, trace, digests, scenario_seeds, tracer):
    from repro.serve import ServeClient
    from repro.serve.session import CalibrationStore

    out = RunResult()
    seeds = sorted(scenario_seeds)
    logs, results, mismatched = record_logs(seeds, digests)
    out.attempted += len(seeds)
    out.failed += mismatched
    tenants = []
    for i in range(TENANTS):
        log = logs[seeds[(i + seed) % len(seeds)]]
        name = "tenant-%d" % i
        tenants.append(Tenant(name, log, build_windows(log, name)))
    # The recordings and prebuilt requests are the load generator's, not
    # the server's: keep the collector from walking them during every
    # full collection the server triggers.
    gc.collect()
    gc.freeze()

    setup_walls = []
    server = None
    for _ in range(SETUP_TRIALS):
        if server is not None:
            await server.stop()
        gc.collect()
        begun = _clock()
        server = await _start_server(logs.values())
        setup_walls.append(_clock() - begun)
    clients = [ServeClient(server.core.config.host, server.port)
               for _ in range(CONNECTIONS)]
    try:
        for client in clients:
            await client.connect()
        plain = await _phase(tenants, clients, seed, seconds / 2.0 if trace else seconds)
        traced = None
        if trace:
            shed_before = server.core.stats().get("serve_shed_total_all", 0.0)
            with tracer:
                waits = install_layers(tracer, _clock)
                store = CalibrationStore()
                for log in logs.values():
                    store.table_for(_hello(log, "calibration"))
                calibration_s = tracer.total_s["core.calibration.build"]
                traced = await _phase(tenants, clients, seed + 1, seconds / 2.0)
            stats = server.core.stats()
    finally:
        for client in clients:
            await client.close()
        await server.stop()

    out.attempted += plain.attempted
    out.failed += plain.failed
    out.notes.append(
        "serve-replay: %d tenants over %d connections, %.0f closes/s offered, "
        "%d closes answered in %.2f s using %.2f CPU s, fix p99 %.2f ms, "
        "send lag p50 %.2f ms p99 %.2f ms"
        % (TENANTS, CONNECTIONS, CLOSE_RATE_PER_S, plain.closes, plain.wall_s, plain.cpu_s,
           percentile(plain.latencies_ms, 99.0),
           percentile(plain.lags_ms, 50.0), percentile(plain.lags_ms, 99.0)))
    if not trace:
        # The open loop fixes the phase's wall time, so throughput is
        # per process-CPU second (server and generator together): what
        # the work costs, which the schedule does not fix.
        out.put("sim_s_per_wall_s", plain.sim_s / plain.cpu_s, "sim_s/s")
        out.put("fixes_per_s", plain.fixes / plain.cpu_s, "1/s")
        out.put("fix_p50_ms", percentile(plain.latencies_ms, 50.0), "ms")
        out.put("fix_p90_ms", percentile(plain.latencies_ms, 90.0), "ms")
        out.put("loc_error_m", float(np.mean(
            [results[s].time_average_error() for s in seeds])), "m")
        out.put("energy_j", float(np.mean(
            [results[s].total_energy_j() for s in seeds])), "J")
        out.put("peak_rss_mb", peak_rss_mb(), "MiB")
        out.put("setup_s", median(setup_walls), "s")
        return out

    out.attempted += traced.attempted
    out.failed += traced.failed
    _put_serve_layers(out, tracer, waits, traced, calibration_s)
    out.put("serve.shed", stats.get("serve_shed_total_all", 0.0) - shed_before, "count")
    out.put("serve.queue_depth_max", stats.get("serve_queue_depth_max", 0.0), "count")
    out.put("trace.overhead_frac",
            (traced.cpu_s / traced.closes) / (plain.cpu_s / plain.closes) - 1.0, "ratio")
    out.notes.append(
        "serve-replay traced: %d closes untraced, %d traced; %d spans kept, %d dropped"
        % (plain.closes, traced.closes, tracer.kept, tracer.dropped))
    return out


def _put_serve_layers(out: RunResult, tracer: LayerTracer, waits, traced: _Phase,
                      calibration_s: float) -> None:
    """Per-layer totals over the traced phase (its schedule is fixed work)."""
    total, self_s, calls = tracer.total_s, tracer.self_s, tracer.calls
    out.put("core.estimator.on_beacon_s", self_s["core.estimator.on_beacon"], "s")
    out.put("core.bayes.apply_beacon_s", total["core.bayes.apply_beacon"], "s")
    out.put("core.bayes.apply_beacon_calls", calls["core.bayes.apply_beacon"], "count")
    out.put("core.estimator.on_window_close_s",
            total["core.estimator.on_window_close"], "s")
    out.put("core.estimator.fixes", traced.fixes, "count")
    out.put("core.estimator.advance_to_s", self_s["core.estimator.advance_to"], "s")
    out.put("core.calibration.build_s", calibration_s, "s")
    out.put("serve.protocol.parse_request_s", total["serve.protocol.parse_request"], "s")
    out.put("serve.protocol.encode_response_s",
            total["serve.protocol.encode_response"], "s")
    out.put("serve.shard.queue_wait_p50_ms", percentile(waits.waits_ms, 50.0), "ms")
    out.put("serve.shard.queue_wait_p99_ms", percentile(waits.waits_ms, 99.0), "ms")
    out.put("serve.session.observe_s", total["serve.session.observe"], "s")
    out.put("serve.session.close_s", total["serve.session.close"], "s")
    out.put("serve.checkpoint.save_s", total["serve.checkpoint.save"], "s")
    out.put("serve.checkpoint.saves", calls["serve.checkpoint.save"], "count")
    out.put("serve.generator.send_lag_p99_ms", percentile(traced.lags_ms, 99.0), "ms")


def run_serve_workload(
    seed: int,
    seconds: float,
    trace: bool,
    digests: Dict[str, str],
    scenario_seeds: Sequence[int] = SCENARIO_SEEDS,
    tracer: Optional[LayerTracer] = None,
) -> RunResult:
    """One benchmark run of ``serve-replay``; ``digests`` are the
    ``fig7`` digests the recordings must match."""
    tracer = tracer if tracer is not None else LayerTracer()
    try:
        return asyncio.run(_run(seed, seconds, trace, digests, scenario_seeds, tracer))
    finally:
        gc.unfreeze()
