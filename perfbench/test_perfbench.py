"""Self-tests of the benchmark itself: ``python -m pytest perfbench``.

They check the benchmark's own promises — metric names, that a wrong
output is caught, that tracing leaves nothing behind, and that open-loop
latency counts from the scheduled send time — never the program's
science, which the repository's own suite covers.
"""

from __future__ import annotations

import asyncio
import json
import os
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

from perfbench.common import METRIC_NAME, load_digests, science_digest
from perfbench.layers import install_layers
from perfbench.metrics import END_TO_END, MOVES, PER_LAYER, WORKLOADS
from perfbench.serveload import Replay, Schedule, Tenant, build_windows, run_serve_workload
from perfbench.simload import run_sim_workload
from perfbench.tracing import LayerTracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


# -- metric tables ------------------------------------------------------------


def test_metric_names_use_only_the_allowed_characters():
    names = [row[0] for row in END_TO_END] + [row[0] for row in PER_LAYER]
    assert len(names) == len(set(names))
    for name in names + list(WORKLOADS):
        assert METRIC_NAME.match(name), name


def test_benchmark_json_matches_the_metric_tables():
    spec = _benchmark_json()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == list(WORKLOADS.values())
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in spec["end_to_end"]] == END_TO_END
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == PER_LAYER


def test_every_layer_metric_names_what_it_should_move():
    e2e = {row[0] for row in END_TO_END}
    assert set(MOVES) == {row[0] for row in PER_LAYER}
    for pairs in MOVES.values():
        for metric, workload in pairs:
            assert metric in e2e and workload in WORKLOADS


# -- output checks ------------------------------------------------------------


def _nudge_errors(monkeypatch):
    """Perturb every run's localization errors by one ulp — in the test,
    after the program produced them."""
    from repro.core.team import CoCoATeam

    original = CoCoATeam.run

    def perturbed(team):
        result = original(team)
        result.errors = np.nextafter(result.errors, np.inf)
        return result

    monkeypatch.setattr(CoCoATeam, "run", perturbed)


def test_a_perturbed_science_payload_counts_as_failed(monkeypatch):
    digests = load_digests()["fig7"]
    clean = run_sim_workload("fig7", 0, 0.01, False, digests, scenario_seeds=(1,))
    assert clean.attempted >= 1 and clean.failed == 0
    _nudge_errors(monkeypatch)
    dirty = run_sim_workload("fig7", 0, 0.01, False, digests, scenario_seeds=(1,))
    assert dirty.attempted >= 1
    assert dirty.failed == dirty.attempted
    assert dirty.failed_frac == 1.0


def test_a_perturbed_served_fix_counts_as_failed(monkeypatch):
    from repro.serve.session import TenantSession

    original = TenantSession.handle
    state = {"bent": 0}

    def bent(session, request, *args, **kwargs):
        response = original(session, request, *args, **kwargs)
        payload = response.payload
        if state["bent"] < 3 and payload.get("fixed") and "x_hex" in payload:
            state["bent"] += 1
            # Both axes wrong is still one wrong close.
            for axis in ("x_hex", "y_hex"):
                value = float.fromhex(payload[axis])
                payload[axis] = float(np.nextafter(value, np.inf)).hex()
        return response

    monkeypatch.setattr(TenantSession, "handle", bent)
    result = run_serve_workload(0, 1.0, False, load_digests()["fig7"], scenario_seeds=(1,))
    assert state["bent"] == 3
    assert result.failed == 3
    assert result.failed_frac > 0.0


# -- traced run ---------------------------------------------------------------


def test_traced_run_restores_every_wrapper_and_keeps_digests():
    from repro.core.bayes import GridBayesFilter
    from repro.serve import server
    from repro.sim.engine import Simulator

    before = (Simulator.run, GridBayesFilter.apply_beacon, server.parse_request)
    digests = load_digests()["fig7"]
    tracer = LayerTracer()
    traced = run_sim_workload("fig7", 0, 0.01, True, digests, scenario_seeds=(1,),
                              tracer=tracer)
    assert traced.failed == 0
    assert not tracer.active
    assert (Simulator.run, GridBayesFilter.apply_beacon, server.parse_request) == before
    assert not hasattr(Simulator.run, "__wrapped__")
    assert tracer.kept > 0 and tracer.calls["sim.engine"] >= 1
    plain = run_sim_workload("fig7", 0, 0.01, False, digests, scenario_seeds=(1,))
    assert plain.failed == 0


def test_install_layers_wraps_every_public_function_it_names():
    tracer = LayerTracer()
    with tracer:
        install_layers(tracer, time.perf_counter)
        patched = list(tracer._patches)
    assert patched
    for owner, attr, original in patched:
        assert vars(owner)[attr] is original


def test_self_time_is_span_minus_wrapped_children():
    class Work:
        def outer(self):
            time.sleep(0.02)
            self.inner()

        def inner(self):
            time.sleep(0.03)

    tracer = LayerTracer()
    with tracer:
        tracer.wrap(Work, "outer", "outer")
        tracer.wrap(Work, "inner", "inner")
        Work().outer()
    assert "__wrapped__" not in vars(Work)["outer"].__dict__
    assert tracer.total_s["outer"] >= 0.05
    assert 0.02 <= tracer.self_s["outer"] < 0.03
    assert tracer.self_s["inner"] == pytest.approx(tracer.total_s["inner"])
    (inner, outer) = sorted(tracer.spans, key=lambda span: span[1])
    assert inner[4] == outer[0] and outer[4] == -1


# -- open loop ----------------------------------------------------------------


class _InstantClient:
    """Answers every request at once; the service takes no time."""

    async def send(self, request):
        from repro.serve.protocol import Response

        future = asyncio.get_running_loop().create_future()
        future.set_result(Response(ok=True, payload={"fixed": False}))
        return future


def _tiny_log():
    from repro.serve.replay import ReplayLog

    log = ReplayLog(calibration_seed=1, calibration_samples=100, lut=True,
                    area_side_m=50.0, grid_resolution_m=2.0, min_beacons_for_fix=3)
    for window in range(1, 4):
        log.events += [
            {"kind": "open", "robot": 7, "window": window, "t": float(window)},
            {"kind": "beacon", "robot": 7, "seq": 0, "x": 1.0, "y": 2.0,
             "rssi_dbm": -60.0, "t": float(window)},
            {"kind": "close", "robot": 7, "window": window, "fixed": False,
             "t": float(window) + 3.0},
        ]
    return log


def test_open_loop_latency_counts_from_the_scheduled_time():
    log = _tiny_log()
    tenants = [Tenant("t", log, build_windows(log, "t"))]
    replay = Replay(tenants, [_InstantClient()], Schedule(1, 100.0, seed=0))
    stall_s = 0.2

    async def scenario():
        async def stall():
            time.sleep(stall_s)  # repro: noqa[ASY001] the stall under test

        task = asyncio.get_running_loop().create_task(stall())
        start = await replay.run(0.1)
        await task
        return replay.score(start)

    phase = asyncio.run(scenario())
    assert phase.failed == 0 and phase.attempted == 10
    latencies = phase.latencies_ms
    assert len(latencies) == len(phase.lags_ms) == 10
    # The service answered instantly, so latency from the actual send
    # would be ~0; from the schedule it includes the generator's lag.
    for latency, lag in zip(latencies, phase.lags_ms):
        assert latency >= lag
    assert max(latencies) >= 0.5 * stall_s * 1000.0


# -- a directory without the program -----------------------------------------


def test_run_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig7", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_science_digest_is_stable_for_equal_results():
    class Result:
        errors = np.arange(4.0)
        measured_ids = [1, 2]
        fixes = 3
        per_node_energy_j = {2: 1.5, 1: 0.5}
        channel_stats = "c"
        multicast_stats = "m"

        def total_energy_j(self):
            return 2.0

    assert science_digest(Result()) == science_digest(Result())


def test_sim_fix_latency_has_one_sample_per_fix():
    from perfbench.simload import _FixTimer, scenario_config
    from repro.core.team import CoCoATeam

    team = CoCoATeam(scenario_config("fig7", 1))
    estimators = [node.estimator for node in team.nodes if node.estimator is not None]
    latencies = []
    for estimator in estimators:
        estimator.on_window_close = _FixTimer(estimator, latencies)
    team.run()
    fixes = sum(estimator.fixes for estimator in estimators)
    assert fixes > 0 and len(latencies) == fixes
    assert all(latency > 0.0 for latency in latencies)
