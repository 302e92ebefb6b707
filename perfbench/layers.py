"""Which public functions the traced run wraps, and under what names.

Span names are the per-layer metric names without their unit suffix
(``net.channel.transmit`` feeds ``net.channel.transmit_s`` and
``net.channel.transmit_calls``).  Module-level functions are patched in
every module that looks them up by name, since ``from x import f``
copies the reference.
"""

from __future__ import annotations

import importlib

from perfbench.tracing import LayerTracer

__all__ = ["install_layers"]

#: (module, owner attribute or None for the module itself, function, span)
_WRAPPED = [
    ("repro.sim.engine", "Simulator", "run", "sim.engine"),
    ("repro.sim.world", "WorldState", "positions_at", "sim.world.positions_at"),
    ("repro.net.channel", "BroadcastChannel", "transmit", "net.channel.transmit"),
    ("repro.net.channel", "BroadcastChannel", "medium_busy",
     "net.channel.medium_busy"),
    ("repro.net.mac", "CsmaMac", "send_broadcast", "net.mac.send_broadcast"),
    ("repro.core.estimator", "PositionEstimator", "on_beacon",
     "core.estimator.on_beacon"),
    ("repro.core.estimator", "PositionEstimator", "on_window_close",
     "core.estimator.on_window_close"),
    ("repro.core.estimator", "PositionEstimator", "advance_to",
     "core.estimator.advance_to"),
    ("repro.core.bayes", "GridBayesFilter", "apply_beacon",
     "core.bayes.apply_beacon"),
    ("repro.mobility.odometry", "OdometrySensor", "read", "mobility.odometry.read"),
    ("repro.core.node", "RobotNode", "localization_error",
     "core.node.localization_error"),
    ("repro.core.node", "RobotNode", "localization_error_from",
     "core.node.localization_error"),
    ("repro.multicast.odmrp", "OdmrpNode", "send_join_query", "multicast.send"),
    ("repro.multicast.odmrp", "OdmrpNode", "send_data", "multicast.send"),
    ("repro.core.team", "CoCoATeam", "__init__", "core.team.build"),
    ("repro.experiments.runner", None, "build_pdf_table", "core.calibration.build"),
    ("repro.core.team", None, "build_pdf_table", "core.calibration.build"),
    ("repro.serve.session", None, "build_pdf_table", "core.calibration.build"),
    ("repro.serve.server", None, "parse_request", "serve.protocol.parse_request"),
    ("repro.serve.server", None, "encode_response", "serve.protocol.encode_response"),
    ("repro.serve.checkpoint", "CheckpointStore", "save", "serve.checkpoint.save"),
]


def _session_span(_session, request, *args, **kwargs):
    """Split ``TenantSession.handle`` by request type."""
    from repro.serve.protocol import ObserveRequest, WindowRequest

    if isinstance(request, ObserveRequest):
        return "serve.session.observe"
    if isinstance(request, WindowRequest) and request.event == "close":
        return "serve.session.close"
    return "serve.session.other"


class QueueWaits:
    """Shard queue wait: from ``Shard.submit`` to ``Shard.handle``."""

    def __init__(self, clock) -> None:
        self._clock = clock
        self._submitted = {}
        self.waits_ms = []

    def install(self, tracer: LayerTracer) -> None:
        from repro.serve.shard import Shard

        waits = self

        def make_submit(original):
            def submit(shard, request, *args, **kwargs):
                waits._submitted[id(request)] = waits._clock()
                return original(shard, request, *args, **kwargs)
            return submit

        def make_handle(original):
            def handle(shard, request, *args, **kwargs):
                started = waits._submitted.pop(id(request), None)
                if started is not None:
                    waits.waits_ms.append((waits._clock() - started) * 1000.0)
                return original(shard, request, *args, **kwargs)
            return handle

        tracer.patch(Shard, "submit", make_submit)
        tracer.patch(Shard, "handle", make_handle)


def install_layers(tracer: LayerTracer, clock) -> QueueWaits:
    """Wrap every traced layer; returns the shard queue-wait recorder."""
    for module_name, owner_name, attr, span in _WRAPPED:
        module = importlib.import_module(module_name)
        owner = module if owner_name is None else getattr(module, owner_name)
        tracer.wrap(owner, attr, span)
    from repro.serve.session import TenantSession

    tracer.wrap(TenantSession, "handle", None, classify=_session_span)
    waits = QueueWaits(clock)
    waits.install(tracer)
    return waits
