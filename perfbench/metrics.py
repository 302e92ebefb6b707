"""The benchmark's metric tables.

``BENCHMARK.json`` at the repository root lists the same metrics (a
self-test keeps the two in step).  Every run prints every metric of its
table — untraced runs the end-to-end table, traced runs the per-layer
table — on every workload; a layer a workload never calls reads 0.

Per-layer times are seconds per *unit of work*: one pass (one run of
each scenario seed) on the simulation workloads, one traced phase of the
fixed open-loop schedule on ``serve-replay``.  Counts use the same unit.
"""

from __future__ import annotations

__all__ = ["END_TO_END", "PER_LAYER", "MOVES", "WORKLOADS"]

#: name -> one-line reason the workload is in the benchmark.
WORKLOADS = {
    "fig7": "the paper's Fig.-7 CoCoA arm (50 robots, 25 anchors, T = 100 s): "
            "harness work, engine dispatch and the cached Bayes update",
    "scale200": "200 robots at the paper's density (400 m, 100 anchors): "
                "the O(n^2) channel fan-out and per-hearer Bayes update dominate",
    "serve-replay": "recorded Fig.-7 beacons replayed open-loop over TCP: "
                    "uncached Bayes lanes, checkpoints and serve hops; no sim/net/mobility",
}

#: (name, unit, better, bound)
END_TO_END = [
    ("sim_s_per_wall_s", "sim_s/s", "higher", 0.25),
    ("fixes_per_s", "1/s", "higher", 0.25),
    ("fix_p50_ms", "ms", "lower", 0.25),
    ("fix_p90_ms", "ms", "lower", 0.25),
    ("loc_error_m", "m", "lower", 0.01),
    ("energy_j", "J", "lower", 0.01),
    ("peak_rss_mb", "MiB", "lower", 0.15),
    ("setup_s", "s", "lower", 0.25),
]

#: (name, unit, better)
PER_LAYER = [
    ("sim.engine.self_s", "s", "lower"),
    ("sim.engine.events", "count", "lower"),
    ("net.channel.transmit_s", "s", "lower"),
    ("net.channel.transmit_calls", "count", "lower"),
    ("net.channel.frames_offered", "count", "lower"),
    ("net.channel.frames_delivered", "count", "higher"),
    ("net.channel.delivered_per_offered", "ratio", "higher"),
    ("net.channel.medium_busy_s", "s", "lower"),
    ("net.mac.send_broadcast_s", "s", "lower"),
    ("core.estimator.on_beacon_s", "s", "lower"),
    ("core.bayes.apply_beacon_s", "s", "lower"),
    ("core.bayes.apply_beacon_calls", "count", "lower"),
    ("core.constraint_cache.hit_ratio", "ratio", "higher"),
    ("core.estimator.on_window_close_s", "s", "lower"),
    ("core.estimator.fixes", "count", "higher"),
    ("core.estimator.advance_to_s", "s", "lower"),
    ("mobility.odometry.read_s", "s", "lower"),
    ("mobility.odometry.read_calls", "count", "lower"),
    ("core.node.localization_error_s", "s", "lower"),
    ("sim.world.positions_at_s", "s", "lower"),
    ("multicast.send_s", "s", "lower"),
    ("core.calibration.build_s", "s", "lower"),
    ("core.team.build_s", "s", "lower"),
    ("serve.protocol.parse_request_s", "s", "lower"),
    ("serve.protocol.encode_response_s", "s", "lower"),
    ("serve.shard.queue_wait_p50_ms", "ms", "lower"),
    ("serve.shard.queue_wait_p99_ms", "ms", "lower"),
    ("serve.session.observe_s", "s", "lower"),
    ("serve.session.close_s", "s", "lower"),
    ("serve.checkpoint.save_s", "s", "lower"),
    ("serve.checkpoint.saves", "count", "lower"),
    ("serve.shed", "count", "lower"),
    ("serve.queue_depth_max", "count", "lower"),
    ("serve.generator.send_lag_p99_ms", "ms", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
]

#: Per-layer metric -> the (end-to-end metric, workload) pairs it should
#: move, written down before any measurement.  None points at
#: ``fixes_per_s`` on a simulation workload: a pass makes a fixed number
#: of fixes there, so it only rescales ``sim_s_per_wall_s``.
MOVES = {
    "sim.engine.self_s": [("sim_s_per_wall_s", "fig7")],
    "sim.engine.events": [("sim_s_per_wall_s", "fig7")],
    "net.channel.transmit_s": [("sim_s_per_wall_s", "scale200")],
    "net.channel.transmit_calls": [("sim_s_per_wall_s", "scale200")],
    "net.channel.frames_offered": [("sim_s_per_wall_s", "scale200")],
    "net.channel.frames_delivered": [("sim_s_per_wall_s", "scale200")],
    "net.channel.delivered_per_offered": [("sim_s_per_wall_s", "scale200")],
    "net.channel.medium_busy_s": [("sim_s_per_wall_s", "fig7")],
    "net.mac.send_broadcast_s": [("sim_s_per_wall_s", "fig7")],
    "core.estimator.on_beacon_s": [("sim_s_per_wall_s", "scale200"),
                                   ("sim_s_per_wall_s", "fig7")],
    "core.bayes.apply_beacon_s": [("sim_s_per_wall_s", "scale200"),
                                  ("sim_s_per_wall_s", "fig7"),
                                  ("fix_p50_ms", "serve-replay")],
    "core.bayes.apply_beacon_calls": [("sim_s_per_wall_s", "scale200")],
    "core.constraint_cache.hit_ratio": [("sim_s_per_wall_s", "scale200"),
                                        ("sim_s_per_wall_s", "fig7")],
    "core.estimator.on_window_close_s": [("fix_p50_ms", "serve-replay"),
                                         ("fix_p50_ms", "fig7")],
    "core.estimator.fixes": [("fix_p50_ms", "serve-replay"),
                             ("fix_p50_ms", "fig7")],
    "core.estimator.advance_to_s": [("sim_s_per_wall_s", "fig7")],
    "mobility.odometry.read_s": [("sim_s_per_wall_s", "fig7")],
    "mobility.odometry.read_calls": [("sim_s_per_wall_s", "fig7")],
    "core.node.localization_error_s": [("sim_s_per_wall_s", "fig7")],
    "sim.world.positions_at_s": [("sim_s_per_wall_s", "fig7")],
    "multicast.send_s": [("sim_s_per_wall_s", "fig7")],
    "core.calibration.build_s": [("setup_s", "scale200")],
    "core.team.build_s": [("setup_s", "scale200")],
    "serve.protocol.parse_request_s": [("fix_p90_ms", "serve-replay"),
                                       ("fixes_per_s", "serve-replay")],
    "serve.protocol.encode_response_s": [("fix_p90_ms", "serve-replay"),
                                         ("fixes_per_s", "serve-replay")],
    "serve.shard.queue_wait_p50_ms": [("fix_p90_ms", "serve-replay")],
    "serve.shard.queue_wait_p99_ms": [("fix_p90_ms", "serve-replay")],
    "serve.session.observe_s": [("fix_p90_ms", "serve-replay"),
                                ("fixes_per_s", "serve-replay")],
    "serve.session.close_s": [("fix_p90_ms", "serve-replay"),
                              ("fixes_per_s", "serve-replay")],
    "serve.checkpoint.save_s": [("fix_p90_ms", "serve-replay"),
                                ("fixes_per_s", "serve-replay")],
    "serve.checkpoint.saves": [("fix_p90_ms", "serve-replay")],
    "serve.shed": [("fixes_per_s", "serve-replay")],
    "serve.queue_depth_max": [("fix_p90_ms", "serve-replay")],
    "serve.generator.send_lag_p99_ms": [("fix_p90_ms", "serve-replay")],
    "trace.overhead_frac": [],
}
