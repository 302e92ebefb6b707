"""Tests for channel-level tracing and RobotNode queries."""

import pytest

from repro.core.beaconing import BEACON_KIND, BeaconPayload
from repro.core.config import CoCoAConfig
from repro.core.team import CoCoATeam
from repro.energy.model import EnergyModel, RadioState
from repro.faults.injector import FaultInjector
from repro.faults.spec import FaultPlan, PayloadCorruptionSpec, RssiBiasSpec
from repro.mobility.base import StationaryMobility
from repro.net.channel import BroadcastChannel
from repro.net.interface import NetworkInterface
from repro.net.packet import Packet
from repro.net.phy import PathLossModel
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from repro.telemetry.spans import SpanTracer
from repro.util.geometry import Vec2


def traced_network(traced=True, faults=None, crc_check=False):
    """Three stationary nodes 15 m apart on one channel, traced by a
    :class:`SpanTracer` unless ``traced`` is false.

    With ``faults`` (a :class:`FaultPlan`) a :class:`FaultInjector` is
    installed on the channel, as a faulted team would have it.
    """
    sim = Simulator()
    streams = RandomStreams(2)
    trace = SpanTracer() if traced else None
    channel = BroadcastChannel(
        sim, PathLossModel(), streams.get("phy"), trace=trace
    )
    if faults is not None:
        channel.install_faults(
            FaultInjector(faults, streams, crc_check=crc_check)
        )
    interfaces = [
        NetworkInterface(
            sim,
            i,
            StationaryMobility(pos),
            channel,
            EnergyModel.wavelan_2mbps(),
            streams.spawn("mac", i),
        )
        for i, pos in enumerate([Vec2(0, 0), Vec2(15, 0), Vec2(30, 0)])
    ]
    return sim, channel, interfaces, trace


class TestChannelTracing:
    def test_tx_and_rx_traced(self):
        sim, channel, interfaces, trace = traced_network()
        interfaces[0].send_broadcast(
            Packet(src=0, kind="test", payload=None, payload_bytes=16)
        )
        sim.run(until=1.0)
        assert trace.count("channel.tx") == 1
        assert trace.count("channel.rx") == 2
        rx = trace.records("channel.rx")[0]
        assert rx.clock == "sim"
        assert rx.start_s == rx.end_s
        assert rx.attrs["kind"] == "test"
        assert "rssi" in rx.attrs

    def test_collision_traced(self):
        sim, channel, interfaces, trace = traced_network()
        # Two equal-power frames overlap at the middle receiver.
        channel.transmit(
            0, Packet(src=0, kind="x", payload=None, payload_bytes=500)
        )
        channel.transmit(
            2, Packet(src=2, kind="x", payload=None, payload_bytes=500)
        )
        sim.run(until=1.0)
        assert trace.count("channel.collision") >= 1

    def test_disabled_categories_stay_silent(self):
        # Without a tracer the channel records nothing, yet delivers the
        # same frames a traced channel does.
        sim, channel, interfaces, trace = traced_network(traced=False)
        assert trace is None
        interfaces[0].send_broadcast(
            Packet(src=0, kind="test", payload=None, payload_bytes=16)
        )
        sim.run(until=1.0)
        assert channel.stats.frames_sent == 1
        assert channel.stats.frames_delivered == 2


def beacon(src=0):
    return Packet(
        src=src,
        kind=BEACON_KIND,
        payload=BeaconPayload(x=1.0, y=2.0, anchor_id=src),
        payload_bytes=16,
    )


class TestFaultedDelivery:
    """The fault branches of frame delivery, seen through channel.rx."""

    def test_rx_record_carries_the_biased_rssi(self):
        clean_sim, _, clean, clean_trace = traced_network()
        plan = FaultPlan(
            rssi_bias=RssiBiasSpec(bias_std_db=6.0, fraction_affected=1.0)
        )
        sim, channel, interfaces, trace = traced_network(faults=plan)
        inbox = []
        interfaces[1].on_receive(BEACON_KIND, inbox.append)
        clean[0].send_broadcast(beacon())
        interfaces[0].send_broadcast(beacon())
        clean_sim.run(until=1.0)
        sim.run(until=1.0)
        # Same PHY stream, so the same sampled RSSI; only the report moves.
        sampled = [r.attrs["rssi"] for r in clean_trace.records("channel.rx")]
        reported = [r.attrs["rssi"] for r in trace.records("channel.rx")]
        assert len(reported) == len(sampled) == 2
        assert all(a != b for a, b in zip(reported, sampled))
        # The sender's bias is one offset for every receiver.
        offsets = [a - b for a, b in zip(reported, sampled)]
        assert offsets[0] == pytest.approx(offsets[1])
        # The handler sees exactly what the trace recorded.
        assert [r.rssi_dbm for r in inbox] == [reported[0]]

    def test_crc_dropped_frames_are_billed_but_not_traced(self):
        plan = FaultPlan(corruption=PayloadCorruptionSpec(corrupt_prob=1.0))
        sim, channel, interfaces, trace = traced_network(
            faults=plan, crc_check=True
        )
        inbox = []
        for interface in interfaces[1:]:
            interface.on_receive(BEACON_KIND, inbox.append)
        interfaces[0].send_broadcast(beacon())
        sim.run(until=1.0)
        assert channel.stats.frames_crc_dropped == 2
        assert channel.stats.frames_delivered == 0
        assert trace.count("channel.rx") == 0
        assert inbox == []
        for interface in interfaces[1:]:
            assert interface.meter.packets_received == 1
            assert interface.meter.breakdown.packet_recv_j > 0.0

    def test_brownout_mid_frame_is_counted(self):
        sim, channel, interfaces, trace = traced_network(faults=FaultPlan())
        deaf_radio = interfaces[1].radio
        # Hears the frame start at t = 0, deaf by the time it ends.
        deaf_radio.set_receive_fault(lambda now: now > 0.0)
        airtime = channel.transmit(0, beacon())
        sim.run(until=1.0)
        assert channel.stats.frames_missed_brownout == 1
        assert channel.stats.frames_delivered == 1
        assert [r.node for r in trace.records("channel.rx")] == [2]
        # The reception still ended, and was billed, with the frame.
        assert deaf_radio.state is RadioState.IDLE
        assert deaf_radio.meter.state_durations_s[RadioState.RX] == airtime
        assert deaf_radio.meter.packets_received == 0


class TestRobotNodeQueries:
    @pytest.fixture(scope="class")
    def team(self, pdf_table):
        config = CoCoAConfig(
            n_robots=8,
            n_anchors=4,
            beacon_period_s=20.0,
            duration_s=45.0,
            master_seed=3,
        )
        team = CoCoATeam(config, pdf_table=pdf_table)
        team.run()
        return team

    def test_anchor_reports_device_position(self, team):
        anchor = team.nodes[1]
        t = team.sim.now
        assert anchor.is_anchor
        assert anchor.estimated_position(t) == anchor.true_position(t)
        assert anchor.localization_error(t) == pytest.approx(0.0)

    def test_unknown_reports_estimator_position(self, team):
        unknown = team.nodes[5]
        t = team.sim.now
        assert not unknown.is_anchor
        assert unknown.estimated_position(t) == unknown.estimator.estimate

    def test_localization_error_is_distance(self, team):
        unknown = team.nodes[6]
        t = team.sim.now
        expected = unknown.true_position(t).distance_to(
            unknown.estimated_position(t)
        )
        assert unknown.localization_error(t) == pytest.approx(expected)

    def test_node_role_invariants(self, team):
        from repro.core.node import RobotNode, RobotRole

        with pytest.raises(ValueError):
            RobotNode(
                node_id=99,
                role=RobotRole.ANCHOR,
                mobility=team.nodes[0].mobility,
                interface=team.nodes[0].interface,
            )
