"""The simulation workloads: ``fig7`` and ``scale200``.

A *pass* runs every scenario seed of the workload once, in an order the
run's ``--seed`` rotates.  Each run repeats whole passes until its time
budget is spent, so every run simulates the same scenarios and the
simulated metrics (``loc_error_m``, ``energy_j``) read the same on every
run, while the host-time metrics carry only host noise.  Every scenario
run's science payload is checked against its pinned SHA-256 digest; a
mismatch is a failed operation.

Fix latency on these workloads is the host time a robot's window close
takes to produce its fix (``PositionEstimator.on_window_close``, timed
per estimator instance, never on the class); closes without a fix are
not samples.  ``fixes_per_s`` is the pass's fixes over its wall: a pass
makes a fixed number of fixes, so on these workloads it is
``sim_s_per_wall_s`` rescaled, kept so every workload reports it.
"""

from __future__ import annotations

import gc
import time
from dataclasses import replace
from typing import Dict, List, Optional, Sequence

import numpy as np

from perfbench.common import RunResult, median, peak_rss_mb, percentile, science_digest
from perfbench.layers import install_layers
from perfbench.tracing import LayerTracer

__all__ = ["SCENARIO_SEEDS", "HELD_OUT_SEEDS", "scenario_config", "run_sim_workload",
           "warm_lut"]

_clock = time.perf_counter

#: Seeds every pass runs.
SCENARIO_SEEDS = (1, 2)
#: Seeds with pinned digests that default runs never use, so a claim
#: can be re-checked on inputs it was not tuned on
#: (``--scenario-seeds 3``).
HELD_OUT_SEEDS = (3,)

#: Set-ups timed per run; ``setup_s`` is their median.
SETUP_TRIALS = 11


def scenario_config(workload: str, seed: int):
    """The scenario of ``workload`` under master seed ``seed``."""
    from repro.experiments.bench import pinned_config
    from repro.util.geometry import Rect

    if workload == "fig7":
        return pinned_config(seed=seed, duration_s=600.0)
    if workload == "scale200":
        # The paper's density (50 robots per 200 m square) at 4x the
        # area; two beacon rounds.
        return replace(
            pinned_config(seed=seed, duration_s=200.0),
            area=Rect.square(400.0),
            n_robots=200,
            n_anchors=100,
        )
    raise ValueError("not a simulation workload: %r" % workload)


def warm_lut(table) -> None:
    """Build every density LUT of a calibrated table (lazy otherwise)."""
    probe = np.zeros(1)
    for key, _distribution in table.items():
        table.pdf_for_key(key, probe)


class _FixTimer:
    """Stands in for one estimator's bound ``on_window_close`` and times
    the closes that produce a fix."""

    __slots__ = ("_estimator", "_close", "_latencies_ms")

    def __init__(self, estimator, latencies_ms: List[float]) -> None:
        self._estimator = estimator
        self._close = estimator.on_window_close
        self._latencies_ms = latencies_ms

    def __call__(self) -> None:
        fixes = self._estimator.fixes
        begun = _clock()
        self._close()
        if self._estimator.fixes != fixes:
            self._latencies_ms.append((_clock() - begun) * 1000.0)


class _Pass:
    """Accumulates scenario runs, keyed by seed."""

    def __init__(self) -> None:
        self.walls: Dict[int, List[float]] = {}
        self.results: Dict[int, object] = {}
        self.events = 0
        self.runs = 0
        self.passes = 0
        self.failed = 0
        self.cache_hits = 0
        self.cache_lookups = 0
        self.latencies_ms: List[float] = []

    def pass_wall(self) -> float:
        """One pass's wall: the per-seed medians, summed."""
        return sum(median(walls) for walls in self.walls.values())


def _set_up(workload: str, seeds: Sequence[int]):
    """Calibration, team build and LUT warm-up for every seed."""
    from repro.core.team import CoCoATeam
    from repro.experiments.runner import SharedCalibration

    calibration = SharedCalibration(max_entries=max(8, len(seeds)))
    for seed in seeds:
        config = scenario_config(workload, seed)
        table = calibration.table_for(config)
        CoCoATeam(config, pdf_table=table)
        warm_lut(table)
    return calibration


def _run_passes(workload, seeds, budget_s, calibration, digests, into: _Pass) -> None:
    """Whole passes until the next one would overrun ``budget_s``."""
    from repro.core.team import CoCoATeam

    started = _clock()
    while True:
        for seed in seeds:
            config = scenario_config(workload, seed)
            team = CoCoATeam(config, pdf_table=calibration.table_for(config))
            for node in team.nodes:
                if node.estimator is not None:
                    node.estimator.on_window_close = _FixTimer(node.estimator,
                                                               into.latencies_ms)
            # Start every timed run from the same collector state, so a
            # full collection of the previous run's garbage never lands
            # inside this one.
            gc.collect()
            begun = _clock()
            result = team.run()
            into.walls.setdefault(seed, []).append(_clock() - begun)
            into.runs += 1
            into.events += team.sim.events_processed
            if team.constraint_cache is not None:
                counters = team.constraint_cache.counters()
                hits = counters["kernel_cache_constraint_hits"]
                into.cache_hits += hits
                into.cache_lookups += hits + counters["kernel_cache_constraint_misses"]
            into.results[seed] = result
            if science_digest(result) != digests.get(str(seed)):
                into.failed += 1
            del team
        into.passes += 1
        elapsed = _clock() - started
        if elapsed + elapsed / into.passes > budget_s:
            return


def run_sim_workload(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    digests: Dict[str, str],
    scenario_seeds: Sequence[int] = SCENARIO_SEEDS,
    tracer: Optional[LayerTracer] = None,
) -> RunResult:
    """One benchmark run of a simulation workload."""
    shift = seed % len(scenario_seeds)
    seeds = list(scenario_seeds[shift:]) + list(scenario_seeds[:shift])
    out = RunResult()

    setup_walls = []
    for _ in range(SETUP_TRIALS):
        gc.collect()
        begun = _clock()
        calibration = _set_up(workload, seeds)
        setup_walls.append(_clock() - begun)

    plain = _Pass()
    _run_passes(workload, seeds, seconds / 2.0 if trace else seconds,
                calibration, digests, plain)
    out.attempted += plain.runs
    out.failed += plain.failed
    if not trace:
        pass_sim_s = sum(scenario_config(workload, s).duration_s for s in seeds)
        pass_fixes = sum(plain.results[s].fixes for s in seeds)
        pass_wall = plain.pass_wall()
        out.put("sim_s_per_wall_s", pass_sim_s / pass_wall, "sim_s/s")
        out.put("fixes_per_s", pass_fixes / pass_wall, "1/s")
        out.put("fix_p50_ms", percentile(plain.latencies_ms, 50.0), "ms")
        out.put("fix_p90_ms", percentile(plain.latencies_ms, 90.0), "ms")
        out.put("loc_error_m", float(np.mean(
            [plain.results[s].time_average_error() for s in sorted(seeds)])), "m")
        out.put("energy_j", float(np.mean(
            [plain.results[s].total_energy_j() for s in sorted(seeds)])), "J")
        out.put("peak_rss_mb", peak_rss_mb(), "MiB")
        out.put("setup_s", median(setup_walls), "s")
        out.notes.append(
            "%s: %d passes x %d scenario seeds %s, %d fix-latency samples"
            % (workload, plain.passes, len(seeds), seeds, len(plain.latencies_ms))
        )
        return out

    tracer = tracer if tracer is not None else LayerTracer()
    traced = _Pass()
    with tracer:
        install_layers(tracer, _clock)
        _set_up(workload, seeds)
        calibration_s = tracer.total_s["core.calibration.build"]
        setup_build_s = tracer.total_s["core.team.build"]
        _run_passes(workload, seeds, seconds / 2.0, calibration, digests, traced)
    out.attempted += traced.runs
    out.failed += traced.failed
    _put_sim_layers(out, tracer, traced, calibration_s, setup_build_s)
    out.put("trace.overhead_frac", traced.pass_wall() / plain.pass_wall() - 1.0, "ratio")
    out.notes.append(
        "%s traced: %d untraced + %d traced passes, %d spans kept, %d dropped"
        % (workload, plain.passes, traced.passes, tracer.kept, tracer.dropped)
    )
    return out


def _put_sim_layers(out: RunResult, tracer: LayerTracer, traced: _Pass,
                    calibration_s: float, setup_build_s: float) -> None:
    per = 1.0 / traced.passes
    total, self_s, calls = tracer.total_s, tracer.self_s, tracer.calls
    offered = sum(r.channel_stats.frames_offered for r in traced.results.values())
    delivered = sum(r.channel_stats.frames_delivered for r in traced.results.values())
    # Channel counts are deterministic per scenario, so the last pass's
    # results stand for every pass.
    out.put("sim.engine.self_s", self_s["sim.engine"] * per, "s")
    out.put("sim.engine.events", traced.events * per, "count")
    out.put("net.channel.transmit_s", total["net.channel.transmit"] * per, "s")
    out.put("net.channel.transmit_calls", calls["net.channel.transmit"] * per, "count")
    out.put("net.channel.frames_offered", offered, "count")
    out.put("net.channel.frames_delivered", delivered, "count")
    out.put("net.channel.delivered_per_offered",
            delivered / offered if offered else 0.0, "ratio")
    out.put("net.channel.medium_busy_s", total["net.channel.medium_busy"] * per, "s")
    out.put("net.mac.send_broadcast_s", total["net.mac.send_broadcast"] * per, "s")
    out.put("core.estimator.on_beacon_s", self_s["core.estimator.on_beacon"] * per, "s")
    out.put("core.bayes.apply_beacon_s", total["core.bayes.apply_beacon"] * per, "s")
    out.put("core.bayes.apply_beacon_calls", calls["core.bayes.apply_beacon"] * per,
            "count")
    out.put("core.constraint_cache.hit_ratio",
            traced.cache_hits / traced.cache_lookups if traced.cache_lookups else 0.0,
            "ratio")
    out.put("core.estimator.on_window_close_s",
            total["core.estimator.on_window_close"] * per, "s")
    out.put("core.estimator.fixes",
            sum(r.fixes for r in traced.results.values()), "count")
    out.put("core.estimator.advance_to_s", self_s["core.estimator.advance_to"] * per, "s")
    out.put("mobility.odometry.read_s", total["mobility.odometry.read"] * per, "s")
    out.put("mobility.odometry.read_calls", calls["mobility.odometry.read"] * per, "count")
    out.put("core.node.localization_error_s",
            total["core.node.localization_error"] * per, "s")
    out.put("sim.world.positions_at_s", total["sim.world.positions_at"] * per, "s")
    out.put("multicast.send_s", total["multicast.send"] * per, "s")
    out.put("core.calibration.build_s", calibration_s, "s")
    out.put("core.team.build_s", (total["core.team.build"] - setup_build_s) * per, "s")
