"""Load benchmark for the streaming localization service.

Drives N concurrent tenants x M robots each through the real TCP path
(NDJSON protocol, shard queues, per-tenant sessions) and reports
sustained fix throughput plus fix latency quantiles:

    PYTHONPATH=src python benchmarks/bench_serve.py --quick
    PYTHONPATH=src python benchmarks/bench_serve.py --tenants 16 --robots 8

Each robot runs a sequence of beacon windows; a window is one
``window open`` + ``k`` pipelined observations + ``window close``, and
the *fix latency* is the wall time from sending the close (the request
that triggers the Bayes update) to receiving its response.  All tenants
share one calibration identity, so the PDF table is built once and the
measurement isolates the serving path, not calibration.

The workload runs three times — checkpointing off (baseline),
checkpointing on (the production default and the headline pass), and
checkpointing on with request tracing forced to ``always`` — so the
report states both the checkpoint overhead and the tracing overhead as
fixes/sec ratios.  ``--trace-out`` additionally dumps the traced
pass's spans as trace JSONL for ``repro trace``.

Writes ``BENCH_serve.json`` (see ``--out``) with the scenario shape,
sustained fixes/sec, p50/p90/p99 latency in milliseconds and the
checkpointing/tracing comparisons — the same file the CI
``serve-smoke`` job uploads as an artifact.  The headline numbers are
the checkpointing-on, tracing-off run (what a real deployment
serves).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import time
from typing import Dict, List

import numpy as np

from repro.analysis.stats import percentile
from repro.serve import LocalizationServer, ServeConfig, ServeClient, ServiceCore
from repro.telemetry.export import write_jsonl

AREA_SIDE_M = 120.0
RSSI_RANGE_DBM = (-82.0, -55.0)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tenants", type=int, default=12,
                        help="concurrent tenants (default 12)")
    parser.add_argument("--robots", type=int, default=8,
                        help="robots per tenant (default 8)")
    parser.add_argument("--windows", type=int, default=15,
                        help="beacon windows per robot (default 15)")
    parser.add_argument("--beacons", type=int, default=4,
                        help="observations per window (default 4)")
    parser.add_argument("--shards", type=int, default=4,
                        help="service shards (default 4)")
    parser.add_argument("--calibration-samples", type=int, default=20_000,
                        help="calibration table size (shared by tenants)")
    parser.add_argument("--seed", type=int, default=1,
                        help="master seed for the synthetic traffic")
    parser.add_argument("--quick", action="store_true",
                        help="CI shape: 8 tenants x 4 robots x 5 windows")
    parser.add_argument("--out", default="BENCH_serve.json",
                        help="report path (default BENCH_serve.json)")
    parser.add_argument("--trace-out", default=None, metavar="PATH",
                        help="write the traced pass's spans as trace "
                             "JSONL here (feed to 'repro trace')")
    args = parser.parse_args(argv)
    if args.quick:
        args.tenants = min(args.tenants, 8)
        args.robots = min(args.robots, 4)
        args.windows = min(args.windows, 5)
        args.calibration_samples = min(args.calibration_samples, 4000)
    return args


async def drive_tenant(
    host: str,
    port: int,
    tenant: str,
    args: argparse.Namespace,
    seed: int,
    latencies_ms: List[float],
) -> Dict[str, int]:
    """One tenant's full workload; appends fix latencies in place."""
    rng = np.random.default_rng(seed)
    fixes = 0
    closes = 0
    async with ServeClient(host, port) as client:
        hello = await client.hello(
            tenant,
            calibration_samples=args.calibration_samples,
            area_side_m=AREA_SIDE_M,
        )
        if not hello.ok:
            raise RuntimeError("hello failed for %s: %s"
                               % (tenant, hello.error))
        for window in range(args.windows):
            for robot in range(args.robots):
                await client.window_open(tenant, robot, t=float(window))
                pending = []
                for seq in range(args.beacons):
                    x = float(rng.uniform(0.0, AREA_SIDE_M))
                    y = float(rng.uniform(0.0, AREA_SIDE_M))
                    rssi = float(rng.uniform(*RSSI_RANGE_DBM))
                    pending.append(await client.send(
                        _observe(tenant, robot, seq, x, y, rssi,
                                 t=float(window))
                    ))
                for future in pending:
                    response = await future
                    if not response.ok:
                        raise RuntimeError("observe shed: %s"
                                           % response.error)
                started = time.perf_counter()
                close = await client.window_close(tenant, robot,
                                                  t=float(window))
                latencies_ms.append(
                    (time.perf_counter() - started) * 1000.0
                )
                if not close.ok:
                    raise RuntimeError("close failed: %s" % close.error)
                closes += 1
                if close.payload.get("fixed"):
                    fixes += 1
        await client.bye(tenant)
    return {"fixes": fixes, "closes": closes}


def _observe(tenant, robot, seq, x, y, rssi, t):
    from repro.serve.protocol import ObserveRequest

    return ObserveRequest(tenant=tenant, robot=robot, seq=seq,
                          x=x, y=y, rssi_dbm=rssi, t=t)


async def _run_load(args: argparse.Namespace,
                    checkpointing: bool,
                    trace_mode: str = "off") -> Dict[str, object]:
    """One full workload pass; returns raw totals for that pass."""
    core = ServiceCore(ServeConfig(
        port=0,
        n_shards=args.shards,
        queue_limit=max(256, args.tenants * args.robots * 4),
        tenant_inflight_limit=max(64, args.beacons * args.robots * 2),
        checkpointing=checkpointing,
        trace_mode=trace_mode,
    ))
    server = LocalizationServer(core)
    await server.start()
    host, port = core.config.host, server.port
    # Pre-build the shared calibration table outside the timed window,
    # so the measurement (and the checkpointing-on/off comparison) is
    # pure serving path, not one-off table construction.
    from repro.serve.protocol import HelloRequest

    core.calibrations.table_for(HelloRequest(
        tenant="warmup",
        calibration_samples=args.calibration_samples,
        area_side_m=AREA_SIDE_M,
    ))
    latencies_ms: List[float] = []
    started = time.perf_counter()
    totals = await asyncio.gather(*[
        drive_tenant(host, port, "bench-%02d" % i, args,
                     seed=args.seed * 1000 + i, latencies_ms=latencies_ms)
        for i in range(args.tenants)
    ])
    wall_s = time.perf_counter() - started
    stats = core.stats()
    trace_records = core.tracer.records()
    await server.stop()
    fixes = sum(t["fixes"] for t in totals)
    return {
        "wall_s": wall_s,
        "fixes": fixes,
        "closes": sum(t["closes"] for t in totals),
        "fixes_per_s": fixes / wall_s if wall_s else 0.0,
        "latencies_ms": latencies_ms,
        "stats": stats,
        "trace_records": trace_records,
    }


async def run_bench(args: argparse.Namespace) -> Dict[str, object]:
    # Baseline (no durability, no tracing), then the headline run
    # (checkpointing on, tracing off), then the traced run (tracing
    # forced to "always" — the worst case; the serving default samples).
    # Each pass boots a fresh server, so no pass warms another.
    baseline = await _run_load(args, checkpointing=False)
    durable = await _run_load(args, checkpointing=True)
    traced = await _run_load(args, checkpointing=True, trace_mode="always")
    if args.trace_out is not None:
        await asyncio.to_thread(
            write_jsonl, args.trace_out, traced["trace_records"]
        )

    latencies_ms = durable["latencies_ms"]
    stats = durable["stats"]
    wall_s = durable["wall_s"]
    fixes = durable["fixes"]
    closes = durable["closes"]
    overhead_pct = 0.0
    if baseline["fixes_per_s"] > 0:
        overhead_pct = 100.0 * (
            1.0 - durable["fixes_per_s"] / baseline["fixes_per_s"]
        )
    trace_overhead_pct = 0.0
    if durable["fixes_per_s"] > 0:
        trace_overhead_pct = 100.0 * (
            1.0 - traced["fixes_per_s"] / durable["fixes_per_s"]
        )
    return {
        "benchmark": "serve",
        "quick": bool(args.quick),
        "scenario": {
            "tenants": args.tenants,
            "robots_per_tenant": args.robots,
            "windows_per_robot": args.windows,
            "beacons_per_window": args.beacons,
            "shards": args.shards,
            "calibration_samples": args.calibration_samples,
            "area_side_m": AREA_SIDE_M,
            "seed": args.seed,
        },
        "totals": {
            "wall_s": round(wall_s, 4),
            "window_closes": closes,
            "fixes": fixes,
            "fixes_per_s": round(fixes / wall_s, 2) if wall_s else 0.0,
            "requests_per_s": round(
                stats.get("serve_requests_total", 0.0) / wall_s, 2
            ) if wall_s else 0.0,
            "shed": stats.get("serve_shed_total_all", 0.0),
        },
        "fix_latency_ms": {
            "p50": round(percentile(latencies_ms, 50.0), 3),
            "p90": round(percentile(latencies_ms, 90.0), 3),
            "p99": round(percentile(latencies_ms, 99.0), 3),
            "mean": round(float(np.mean(latencies_ms)), 3),
            "max": round(float(np.max(latencies_ms)), 3),
            "samples": len(latencies_ms),
        },
        "checkpointing": {
            "on_fixes_per_s": round(durable["fixes_per_s"], 2),
            "off_fixes_per_s": round(baseline["fixes_per_s"], 2),
            "overhead_pct": round(overhead_pct, 2),
            "checkpoints_saved": stats.get("serve_checkpoints_saved", 0.0),
        },
        "tracing": {
            "mode": "always",
            "on_fixes_per_s": round(traced["fixes_per_s"], 2),
            "off_fixes_per_s": round(durable["fixes_per_s"], 2),
            "overhead_pct": round(trace_overhead_pct, 2),
            "spans_recorded": len(traced["trace_records"]),
            "traces_recorded": traced["stats"].get(
                "obs_traces_recorded", 0.0
            ),
        },
        "service_metrics": {
            key: value for key, value in sorted(stats.items())
            if key.startswith("serve_")
        },
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    report = asyncio.run(run_bench(args))
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    totals = report["totals"]
    latency = report["fix_latency_ms"]
    scenario = report["scenario"]
    print("serve bench: %d tenants x %d robots x %d windows (%d shards)%s"
          % (scenario["tenants"], scenario["robots_per_tenant"],
             scenario["windows_per_robot"], scenario["shards"],
             " (quick)" if report["quick"] else ""))
    print("  sustained: %.1f fixes/s, %.1f requests/s over %.2fs "
          "(%d fixes, %d sheds)"
          % (totals["fixes_per_s"], totals["requests_per_s"],
             totals["wall_s"], totals["fixes"], int(totals["shed"])))
    print("  fix latency: p50 %.2f ms  p90 %.2f ms  p99 %.2f ms "
          "(max %.2f ms, n=%d)"
          % (latency["p50"], latency["p90"], latency["p99"],
             latency["max"], latency["samples"]))
    durability = report["checkpointing"]
    print("  checkpointing: %.1f fixes/s on vs %.1f off "
          "(%.1f%% overhead, %d checkpoints)"
          % (durability["on_fixes_per_s"], durability["off_fixes_per_s"],
             durability["overhead_pct"],
             int(durability["checkpoints_saved"])))
    tracing = report["tracing"]
    print("  tracing (always): %.1f fixes/s on vs %.1f off "
          "(%.1f%% overhead, %d spans / %d traces)"
          % (tracing["on_fixes_per_s"], tracing["off_fixes_per_s"],
             tracing["overhead_pct"], tracing["spans_recorded"],
             int(tracing["traces_recorded"])))
    if args.trace_out is not None:
        print("  traced pass spans written to %s" % args.trace_out)
    print("  report written to %s" % args.out)
    if totals["fixes"] == 0:
        print("FAIL: benchmark produced no fixes")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
