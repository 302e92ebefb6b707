"""The hot-path kernel benchmark behind ``repro bench``.

:func:`run_hotpath_bench` times the pinned Fig.-7-shaped scenario (the
paper's §4.3 headline: 50 robots, 25 anchors, CoCoA at T = 100 s,
v_max = 2 m/s) end to end with every kernel on and with every kernel
off, and additionally times each kernel's own inner loop in isolation.
The two layers answer different questions:

- **End to end** — what a user of ``run_scenario`` actually gains.  The
  kernels-off variant turns off the two science kernels of
  :class:`~repro.kernels.KernelConfig` (LUT densities and the
  constraint-field cache); the event-driven protocol machinery (radio
  state billing, MAC timers, frame delivery) has one implementation, runs
  identically under both settings and bounds this ratio well below the
  per-loop gains.
- **Components** — what each kernel does to the loop it replaces
  (batched RSSI sampling vs. the scalar draw loop, LUT density lookup
  vs. exact evaluation, cached constraint fields vs. recomputation).
  This is where the ≥3× hot-path target is measured.

``--profile`` additionally cProfiles one end-to-end run per kernel
variant and writes the cumtime-sorted tables next to the JSON, so the
next per-event-wall diagnosis starts from data instead of ad-hoc
scripts.

The report is written as ``BENCH_hotpath.json`` (no absolute
timestamps — reports must be content-comparable across runs) and
includes the scenario's content fingerprint so regressions can tell
"the code got slower" apart from "the scenario changed".
"""

from __future__ import annotations

import cProfile
import io
import json
import math
import pstats
import time
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.bayes import GridBayesFilter
from repro.core.config import CoCoAConfig, LocalizationMode
from repro.core.constraint_cache import ConstraintFieldCache
from repro.core.team import CoCoATeam
from repro.experiments.presets import fig7_config
from repro.experiments.runner import SharedCalibration
from repro.kernels import KERNELS_OFF, KERNELS_ON, KernelConfig
from repro.orchestrator.jobs import config_digest
from repro.util.geometry import Vec2

__all__ = ["pinned_config", "profile_path_for", "run_hotpath_bench"]

#: Simulated seconds of the pinned scenario in the full / quick shapes.
DEFAULT_DURATION_S = 600.0
QUICK_DURATION_S = 120.0
#: End-to-end repeats per kernel variant in the full / quick shapes.
DEFAULT_REPEATS = 3
QUICK_REPEATS = 2


def pinned_config(
    seed: int = 1, duration_s: float = DEFAULT_DURATION_S
) -> CoCoAConfig:
    """The benchmark scenario: Figure 7's CoCoA arm at v_max = 2 m/s."""
    return fig7_config(
        LocalizationMode.COCOA,
        v_max=2.0,
        duration_s=duration_s,
        master_seed=seed,
    )


def _best_of(fn: Callable[[], None], repeats: int) -> float:
    """Minimum wall time of ``repeats`` calls — the standard estimator
    for short loops, since scheduling noise only ever adds time."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - start
        if elapsed < best:
            best = elapsed
    return best


def _percentile(values: List[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def _time_one_run(
    config: CoCoAConfig,
    kernels: KernelConfig,
    calibration: SharedCalibration,
) -> Tuple[float, int]:
    team = CoCoATeam(
        config,
        pdf_table=calibration.table_for(config),
        kernels=kernels,
    )
    start = time.perf_counter()
    team.run()
    return time.perf_counter() - start, team.sim.events_processed


def _summarize_walls(walls: List[float], events: int) -> Dict[str, object]:
    p50 = _percentile(walls, 50.0)
    return {
        "wall_s": [round(w, 6) for w in walls],
        "wall_p50_s": round(p50, 6),
        "wall_p90_s": round(_percentile(walls, 90.0), 6),
        "events_processed": int(events),
        "events_per_s": round(events / p50, 1),
    }


def _run_end_to_end_pair(
    config: CoCoAConfig,
    calibration: SharedCalibration,
    repeats: int,
) -> Tuple[Dict[str, object], Dict[str, object]]:
    """Time the kernels-off and kernels-on variants, *interleaved*.

    Alternating OFF/ON per repeat instead of timing one block after the
    other means slow drift in machine load inflates both variants about
    equally, keeping their ratio honest.
    """
    off_walls: List[float] = []
    on_walls: List[float] = []
    off_events = on_events = 0
    for _ in range(repeats):
        wall, off_events = _time_one_run(config, KERNELS_OFF, calibration)
        off_walls.append(wall)
        wall, on_events = _time_one_run(config, KERNELS_ON, calibration)
        on_walls.append(wall)
    return (
        _summarize_walls(off_walls, off_events),
        _summarize_walls(on_walls, on_events),
    )


def _bench_rssi_sampling(
    config: CoCoAConfig, frames: int, timing_repeats: int
) -> Dict[str, float]:
    """Batched RSSI draw vs. the per-receiver scalar loop.

    One "frame" samples a realistic receiver count (everyone but the
    transmitter) at distances spread over the deployment area; both
    variants consume identical generator streams, which the kernel test
    suite separately verifies to be draw-for-draw equivalent.
    """
    phy = config.path_loss
    receivers = config.n_robots - 1
    shape_rng = np.random.default_rng(2006)
    distances = [
        float(d)
        for d in shape_rng.uniform(
            1.0, 0.75 * config.area.width, size=receivers
        )
    ]
    batch = np.asarray(distances)

    def scalar() -> None:
        rng = np.random.default_rng(1)
        for _ in range(frames):
            for d in distances:
                phy.sample_rssi(d, rng)

    def batched() -> None:
        rng = np.random.default_rng(1)
        for _ in range(frames):
            phy.sample_rssi_batch(batch, rng)

    scalar_s = _best_of(scalar, timing_repeats)
    batched_s = _best_of(batched, timing_repeats)
    return {
        "scalar_s": round(scalar_s, 6),
        "batched_s": round(batched_s, 6),
        "speedup": round(scalar_s / batched_s, 2),
    }


def _bench_pdf_eval(
    config: CoCoAConfig,
    calibration: SharedCalibration,
    evals: int,
    timing_repeats: int,
    lut_entries: int,
) -> Dict[str, float]:
    """LUT density lookup vs. exact per-bin evaluation on the real grid."""
    table = calibration.table_for(config)
    grid = GridBayesFilter(config.area, config.grid_resolution_m)
    beacon = Vec2(
        config.area.x_min + 0.31 * config.area.width,
        config.area.y_min + 0.57 * config.area.height,
    )
    distances = grid.compute_distance_field(beacon)
    lo, hi = table.rssi_range
    key = table.bin_key_for((lo + hi) / 2.0)
    out = np.empty_like(distances)

    def exact() -> None:
        for _ in range(evals):
            table.pdf_for_key(key, distances, out=out)

    def lut() -> None:
        for _ in range(evals):
            table.pdf_for_key(key, distances, out=out)

    table.set_lut(False)
    exact_s = _best_of(exact, timing_repeats)
    table.set_lut(True, lut_entries)
    table.pdf_for_key(key, distances)  # build the LUT outside the timer
    lut_s = _best_of(lut, timing_repeats)
    table.set_lut(False)
    return {
        "exact_s": round(exact_s, 6),
        "lut_s": round(lut_s, 6),
        "speedup": round(exact_s / lut_s, 2),
    }


def _bench_constraint_field(
    config: CoCoAConfig,
    calibration: SharedCalibration,
    rounds: int,
    timing_repeats: int,
    lut_entries: int,
) -> Dict[str, float]:
    """Full ``apply_beacon`` under both kernel settings.

    The uncached variant recomputes the distance field and evaluates the
    exact density per beacon, as every robot did before the kernel layer;
    the cached variant replays warmed constraint fields through the LUT
    path — the steady state of a team whose robots hear the same anchors.
    """
    table = calibration.table_for(config)
    shape_rng = np.random.default_rng(2006)
    lo, hi = table.rssi_range
    beacons = [
        (
            anchor_id,
            Vec2(
                float(
                    shape_rng.uniform(config.area.x_min, config.area.x_max)
                ),
                float(
                    shape_rng.uniform(config.area.y_min, config.area.y_max)
                ),
            ),
            float(shape_rng.uniform(lo, hi)),
        )
        for anchor_id in range(16)
    ]

    plain = GridBayesFilter(config.area, config.grid_resolution_m)

    def uncached() -> None:
        plain.reset_uniform()
        for _ in range(rounds):
            for anchor_id, beacon, rssi in beacons:
                plain.apply_beacon(beacon, rssi, table, anchor_id=anchor_id)

    cached_filter = GridBayesFilter(config.area, config.grid_resolution_m)
    cache = ConstraintFieldCache(capacity=max(128, 2 * len(beacons)))
    cached_filter.attach_constraint_cache(cache)

    def cached() -> None:
        cached_filter.reset_uniform()
        for _ in range(rounds):
            for anchor_id, beacon, rssi in beacons:
                cached_filter.apply_beacon(
                    beacon, rssi, table, anchor_id=anchor_id
                )

    table.set_lut(False)
    uncached_s = _best_of(uncached, timing_repeats)
    table.set_lut(True, lut_entries)
    cached()  # warm the cache and the LUTs outside the timer
    cached_s = _best_of(cached, timing_repeats)
    table.set_lut(False)
    return {
        "uncached_s": round(uncached_s, 6),
        "cached_s": round(cached_s, 6),
        "speedup": round(uncached_s / cached_s, 2),
    }


def _profile_variant(
    config: CoCoAConfig,
    kernels: KernelConfig,
    calibration: SharedCalibration,
    top_n: int,
) -> str:
    """One profiled end-to-end run, rendered as cumtime-sorted text."""
    team = CoCoATeam(
        config,
        pdf_table=calibration.table_for(config),
        kernels=kernels,
    )
    profiler = cProfile.Profile()
    profiler.enable()
    team.run()
    profiler.disable()
    stream = io.StringIO()
    stats = pstats.Stats(profiler, stream=stream)
    stats.sort_stats("cumulative").print_stats(top_n)
    return stream.getvalue()


def profile_path_for(out_path: str) -> str:
    """Where ``--profile`` output lands, next to the JSON report."""
    if out_path.endswith(".json"):
        return out_path[: -len(".json")] + "_profile.txt"
    return out_path + "_profile.txt"


def run_hotpath_bench(
    seed: int = 1,
    quick: bool = False,
    repeats: Optional[int] = None,
    out_path: Optional[str] = "BENCH_hotpath.json",
    profile: bool = False,
    profile_top_n: int = 40,
) -> Dict[str, object]:
    """Run the full benchmark and (optionally) write the JSON report.

    Args:
        seed: master seed of the pinned scenario.
        quick: CI smoke shape — a shorter scenario, fewer repeats and
            lighter component loops.
        repeats: end-to-end repeats per kernel variant; defaults to the
            shape's standard count.
        out_path: where to write the report; ``None`` skips the write.
        profile: additionally cProfile one end-to-end run per kernel
            variant and write the cumtime-sorted top tables next to the
            JSON (see :func:`profile_path_for`), so a per-event-wall
            diagnosis doesn't need ad-hoc scripts.
        profile_top_n: rows per profile table.

    Returns:
        The report dict (exactly what lands in the JSON file).
    """
    duration = QUICK_DURATION_S if quick else DEFAULT_DURATION_S
    if repeats is None:
        repeats = QUICK_REPEATS if quick else DEFAULT_REPEATS
    if repeats < 1:
        raise ValueError("repeats must be >= 1, got %d" % repeats)
    frames = 100 if quick else 400
    evals = 100 if quick else 400
    rounds = 4 if quick else 12
    timing_repeats = 3 if quick else 5

    config = pinned_config(seed=seed, duration_s=duration)
    calibration = SharedCalibration()
    calibration.table_for(config)  # calibrate outside every timer

    off, on = _run_end_to_end_pair(config, calibration, repeats)
    end_to_end_speedup = round(
        float(off["wall_p50_s"]) / float(on["wall_p50_s"]), 2
    )

    lut_entries = KERNELS_ON.lut_entries
    components = {
        "rssi_sampling": _bench_rssi_sampling(config, frames, timing_repeats),
        "pdf_eval": _bench_pdf_eval(
            config, calibration, evals, timing_repeats, lut_entries
        ),
        "constraint_field": _bench_constraint_field(
            config, calibration, rounds, timing_repeats, lut_entries
        ),
    }
    hotpath_speedup = round(
        math.exp(
            sum(math.log(c["speedup"]) for c in components.values())
            / len(components)
        ),
        2,
    )

    report: Dict[str, object] = {
        "bench": "hotpath",
        "seed": seed,
        "quick": quick,
        "scenario": {
            "fingerprint": config_digest(config),
            "preset": "fig7 cocoa v_max=2.0",
            "n_robots": config.n_robots,
            "n_anchors": config.n_anchors,
            "beacon_period_s": config.beacon_period_s,
            "duration_s": duration,
        },
        "repeats": repeats,
        "end_to_end": {
            "kernels_off": off,
            "kernels_on": on,
            "speedup": end_to_end_speedup,
        },
        "components": components,
        "kernel_speedup": end_to_end_speedup,
        "hotpath_speedup": hotpath_speedup,
    }
    if out_path is not None:
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
    if profile:
        sections = []
        for label, kernels in (
            ("kernels_on", KERNELS_ON),
            ("kernels_off", KERNELS_OFF),
        ):
            sections.append(
                "==== %s (one end-to-end run, cumtime top %d) ====\n%s"
                % (
                    label,
                    profile_top_n,
                    _profile_variant(
                        config, kernels, calibration, profile_top_n
                    ),
                )
            )
        text = "\n".join(sections)
        target = profile_path_for(out_path or "BENCH_hotpath.json")
        with open(target, "w", encoding="utf-8") as handle:
            handle.write(text)
        report["profile_path"] = target
    return report
