"""The shared broadcast medium.

:class:`BroadcastChannel` connects every node's radio through the
:class:`~repro.net.phy.PathLossModel`.  A transmission is delivered
independently to each receiver that

1. is awake for the frame's whole airtime,
2. samples an RSSI at or above its sensitivity,
3. is not itself transmitting during the frame (half duplex), and
4. survives capture: its sampled RSSI must exceed the summed power of all
   overlapping foreign transmissions by the capture threshold.

Each (transmitter, receiver, frame) triple samples the RSSI noise once; the
delivered value is exactly what the localization algorithm later looks up in
the PDF Table, so ranging error in the localization results comes from the
same channel realization that decided reception.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.mobility.base import MobilityModel
from repro.net.packet import Packet, ReceivedPacket
from repro.net.phy import PathLossModel, ReceiverModel
from repro.net.radio import Radio
from repro.sim.engine import Simulator
from repro.telemetry.spans import SpanTracer
from repro.util.geometry import Vec2
from repro.util.units import dbm_to_mw, mw_to_dbm

ReceiveCallback = Callable[[ReceivedPacket], None]

#: 802.11b long preamble + PLCP header airtime in seconds.
PREAMBLE_S = 192e-6


@dataclass
class Transmission:
    """One frame on the air."""

    src: int
    packet: Packet
    start: float
    end: float
    src_position: Vec2


@dataclass
class _NodeEntry:
    node_id: int
    mobility: MobilityModel
    radio: Radio
    receiver: ReceiverModel
    on_receive: ReceiveCallback
    #: Carrier-sense distance guard band, precomputed at registration by
    #: inverting the (monotone) mean path loss at the CS threshold.  At
    #: distances at or below ``cs_dist_lo`` the medium is certainly busy;
    #: at or beyond ``cs_dist_hi`` it certainly is not; only the narrow
    #: band in between (1e-9 relative — six orders of magnitude wider
    #: than the inversion's float error) falls back to the exact
    #: ``mean_rssi``/``senses_busy`` computation.
    cs_dist_lo: float = 0.0
    cs_dist_hi: float = 0.0


@dataclass
class ChannelStats:
    """Counters the energy/efficiency analyses read after a run.

    The last four counters only move when a
    :class:`~repro.faults.injector.FaultInjector` is installed.
    """

    frames_sent: int = 0
    frames_offered: int = 0
    frames_delivered: int = 0
    frames_below_sensitivity: int = 0
    frames_collided: int = 0
    frames_missed_asleep: int = 0
    frames_missed_half_duplex: int = 0
    frames_jammed: int = 0
    frames_missed_brownout: int = 0
    frames_corrupted: int = 0
    frames_crc_dropped: int = 0
    airtime_s: float = 0.0


class BroadcastChannel:
    """The wireless medium shared by all robots.

    Args:
        sim: simulation engine.
        path_loss: the channel's signal model.
        rng: random stream for RSSI noise.
        bitrate_bps: physical bitrate (paper: 2 Mbps).
        preamble_s: fixed per-frame preamble airtime.
        trace: optional sim-clock tracer; when given, every frame put on
            the air, delivered or lost to a collision is recorded as a
            ``channel.tx`` / ``channel.rx`` / ``channel.collision`` point
            event.  Without one the channel records nothing.
    """

    def __init__(
        self,
        sim: Simulator,
        path_loss: PathLossModel,
        rng: np.random.Generator,
        bitrate_bps: float = 2e6,
        preamble_s: float = PREAMBLE_S,
        trace: Optional[SpanTracer] = None,
    ) -> None:
        if bitrate_bps <= 0:
            raise ValueError(
                "bitrate_bps must be positive, got %r" % bitrate_bps
            )
        self._sim = sim
        self._path_loss = path_loss
        self._rng = rng
        self._bitrate = bitrate_bps
        self._preamble_s = preamble_s
        self._nodes: Dict[int, _NodeEntry] = {}
        self._transmissions: List[Transmission] = []
        self._trace = trace
        self._faults = None
        self._world = None
        self._row_entries: Optional[List[_NodeEntry]] = None
        self.stats = ChannelStats()

    def attach_world(self, world) -> None:
        """Use a :class:`~repro.sim.world.WorldState` for bulk eligibility.

        The world's rows must cover exactly the node ids registered on
        this channel (the team binds node ``i`` to row ``i``), with every
        mobility model and radio bound to it — otherwise the masks would
        disagree with the per-object state.  The bulk path stands down
        whenever any radio arms a receive-fault gate, since brownouts are
        per-receiver decisions.  Without a world (stationary or scripted
        mobility) every frame takes the per-node scan.
        """
        self._world = world
        self._row_entries = None

    def install_faults(self, injector) -> None:
        """Attach a :class:`~repro.faults.injector.FaultInjector`.

        The channel consults it at its two decision points: frame offer
        (burst jamming / noise-floor elevation before the decode check)
        and frame delivery (payload corruption, CRC verdict, and the
        receiver's reported RSSI).  Without an injector none of these
        paths execute.
        """
        self._faults = injector

    @property
    def path_loss(self) -> PathLossModel:
        return self._path_loss

    @property
    def node_ids(self) -> List[int]:
        return sorted(self._nodes)

    def register(
        self,
        node_id: int,
        mobility: MobilityModel,
        radio: Radio,
        receiver: ReceiverModel,
        on_receive: ReceiveCallback,
    ) -> None:
        """Attach a node to the medium.

        Raises:
            ValueError: if the node id is already registered.
        """
        if node_id in self._nodes:
            raise ValueError("node %d already registered" % node_id)
        cs_dist = self._path_loss.distance_for_mean_rssi(
            receiver.carrier_sense_dbm
        )
        self._nodes[node_id] = _NodeEntry(
            node_id,
            mobility,
            radio,
            receiver,
            on_receive,
            cs_dist_lo=cs_dist * (1.0 - 1e-9),
            cs_dist_hi=cs_dist * (1.0 + 1e-9),
        )
        self._row_entries = None

    def airtime_s(self, size_bytes: int) -> float:
        """Airtime of a frame: preamble plus payload serialization."""
        return self._preamble_s + (size_bytes * 8.0) / self._bitrate

    def medium_busy(self, node_id: int) -> bool:
        """Carrier sense: does ``node_id`` hear energy above its CS threshold?

        Uses mean (noise-free) RSSI — carrier sensing integrates energy over
        time, which averages fast fading out.  Since mean path loss is
        monotone in distance, the threshold comparison happens in distance
        space against the guard band precomputed at registration; only
        distances inside the band pay for the exact ``mean_rssi`` call.
        """
        now = self._sim.now
        self._prune(now)
        if not self._transmissions:
            # Nothing on the air: skip the mobility query entirely (pose
            # queries are pure and lazy, so skipping one is unobservable).
            return False
        entry = self._nodes[node_id]
        position = entry.mobility.position(now)
        for tx in self._transmissions:
            if tx.src == node_id:
                continue
            if tx.start <= now < tx.end:
                distance = max(position.distance_to(tx.src_position), 1.0)
                if distance <= entry.cs_dist_lo:
                    return True
                if distance >= entry.cs_dist_hi:
                    continue
                rssi = self._path_loss.mean_rssi(distance)
                if entry.receiver.senses_busy(rssi):
                    return True
        return False

    def transmit(self, src_id: int, packet: Packet) -> float:
        """Put a frame on the air from ``src_id``.

        Returns the frame airtime.  The source radio must be awake; the MAC
        guarantees this.

        Raises:
            KeyError: if the source is not registered.
        """
        entry = self._nodes[src_id]
        now = self._sim.now
        airtime = self.airtime_s(packet.size_bytes)
        src_position = entry.mobility.position(now)
        tx = Transmission(src_id, packet, now, now + airtime, src_position)
        self._prune(now)
        self._transmissions.append(tx)
        entry.radio.begin_transmit(airtime)
        entry.radio.meter.charge_send(packet.size_bytes)
        self.stats.frames_sent += 1
        self.stats.airtime_s += airtime
        if self._trace is not None:
            self._trace.event(
                now, "channel.tx", src_id, kind=packet.kind, uid=packet.uid
            )

        self._offer_frame(tx, airtime)
        return airtime

    def _offer_frame(self, tx: Transmission, airtime: float) -> None:
        """Offer ``tx`` to every other node; schedule its delivery.

        Three steps, all in node order.  Eligibility first: every
        receiver must be awake, not browned out and not transmitting
        (bulk masks over the SoA world when one is attached and no radio
        has a receive-fault gate, a per-node scan otherwise).  Then one
        batched RSSI draw for every eligible receiver
        (:meth:`~repro.net.phy.PathLossModel.sample_rssi_batch` consumes
        the stream exactly as one scalar draw per receiver would).  Then
        the survivor walk: burst jamming and noise elevation when a fault
        injector is installed, the decode threshold, and entry into RX
        for the frame's airtime.  The filters never depend on the draw
        and fault draws come from their own streams, so this order is the
        per-receiver interleaving's, draw for draw.

        Receivers that pass all of it share one frame-completion event,
        :meth:`_deliver_frame`, which ends their receptions and runs
        their deliveries.
        """
        now = self._sim.now
        stats = self.stats
        world = self._world
        if world is not None and not world.has_receive_faults:
            eligible, distances = self._eligible_soa(tx, now, world)
        else:
            eligible = []
            distances = []
            for receiver in self._nodes.values():
                if receiver.node_id == tx.src:
                    continue
                stats.frames_offered += 1
                radio = receiver.radio
                if not radio.is_awake:
                    stats.frames_missed_asleep += 1
                    continue
                if radio.reception_impaired:
                    stats.frames_missed_brownout += 1
                    continue
                if radio.is_transmitting:
                    stats.frames_missed_half_duplex += 1
                    continue
                position = receiver.mobility.position(now)
                eligible.append(receiver)
                # Vec2.distance_to (math.hypot) — NOT a vectorized hypot:
                # np.hypot and sqrt(dx*dx + dy*dy) are not bit-identical
                # to it.
                distances.append(
                    max(position.distance_to(tx.src_position), 1.0)
                )
        if not eligible:
            return
        rssi_batch = self._path_loss.sample_rssi_batch(
            np.asarray(distances), self._rng
        )
        faults = self._faults
        pending: List[Tuple[_NodeEntry, float]] = []
        for receiver, sampled in zip(eligible, rssi_batch):
            rssi = float(sampled)
            effective_rssi = rssi
            if faults is not None:
                offered = faults.offer_rssi(
                    now, tx.src, receiver.node_id, rssi
                )
                if offered is None:
                    stats.frames_jammed += 1
                    continue
                effective_rssi = offered
            # Inlined ReceiverModel.can_decode (rssi >= sensitivity);
            # sampled RSSI is always finite, so the negated comparison
            # is exact.
            if effective_rssi < receiver.receiver.sensitivity_dbm:
                stats.frames_below_sensitivity += 1
                continue
            receiver.radio.begin_receive(airtime)
            pending.append((receiver, rssi))
        if pending:
            self._sim.schedule(
                airtime, self._deliver_frame, tx, pending, name="deliver"
            )

    def _eligible_soa(
        self, tx: Transmission, now: float, world
    ) -> Tuple[List[_NodeEntry], List[float]]:
        """SoA fast path of the eligibility scan in :meth:`_offer_frame`.

        Bit-identical to the per-node scan: rows ascend like the
        node-order walk; the awake/transmitting masks are write-through
        mirrors of the exact radio predicates; brownouts cannot occur
        (this path is gated on no receive-fault gates); and the
        world refreshes *every* node's position where the scalar loop
        queries only eligible ones — invisible, because a trajectory's
        leg draws by time ``t`` do not depend on who queries it when.
        Distances still go through scalar ``math.hypot``, matching
        ``Vec2.distance_to`` bit for bit.
        """
        entries = self._row_entries
        if entries is None:
            entries = [self._nodes[row] for row in range(world.n)]
            self._row_entries = entries
        awake = world.awake
        transmitting = world.transmitting
        # The source is mid-begin_transmit: awake and transmitting, so it
        # drops out of `awake & ~transmitting` with no explicit exclusion,
        # and the counter arithmetic below accounts for it.
        stats = self.stats
        stats.frames_offered += world.n - 1
        stats.frames_missed_asleep += world.n - int(awake.sum())
        stats.frames_missed_half_duplex += (
            int((awake & transmitting).sum()) - 1
        )
        rows = np.flatnonzero(awake & ~transmitting).tolist()
        xs, ys = world.positions_at(now)
        src_x = tx.src_position.x
        src_y = tx.src_position.y
        hypot = math.hypot
        eligible = [entries[row] for row in rows]
        distances = [
            max(hypot(xs[row] - src_x, ys[row] - src_y), 1.0)
            for row in rows
        ]
        return eligible, distances

    def _deliver_frame(
        self, tx: Transmission, pending: List[Tuple[_NodeEntry, float]]
    ) -> None:
        """End every reception of one frame, then deliver it in node order.

        Every pending radio leaves RX before the first handler runs.  A
        radio whose busy window a later overlapping frame extended keeps
        receiving (``finish_receive`` checks the window); that frame's own
        delivery releases it.

        Each receiver then must still be awake and not browned out, must
        not have transmitted during the frame (half duplex), and must
        survive capture against the summed power of the overlapping
        foreign frames.  Those frames are the same for every receiver, so
        they are collected once.  Transmissions that delivery handlers
        append mid-loop start exactly at the frame end and never satisfy
        the strict overlap test.  A delivered frame is billed; an
        installed fault injector may then corrupt it (a CRC failure drops
        it after billing) and bias the RSSI the receiver reports.
        """
        now = self._sim.now
        for receiver, _ in pending:
            receiver.radio.finish_receive()
        overlapping = [
            other
            for other in self._transmissions
            if other is not tx
            and other.start < tx.end
            and other.end > tx.start
        ]
        stats = self.stats
        trace = self._trace
        faults = self._faults
        packet = tx.packet
        size_bytes = packet.size_bytes
        for receiver, rssi in pending:
            radio = receiver.radio
            if not radio.is_awake:
                # Slept mid-frame (coordination closed the window).
                stats.frames_missed_asleep += 1
                continue
            if radio.reception_impaired:
                # Browned out mid-frame.
                stats.frames_missed_brownout += 1
                continue
            receiver_id = receiver.node_id
            if overlapping:
                if any(other.src == receiver_id for other in overlapping):
                    stats.frames_missed_half_duplex += 1
                    continue
                interference_mw = self._foreign_power_mw(
                    overlapping, receiver
                )
                if interference_mw > 0.0:
                    sinr_db = rssi - mw_to_dbm(interference_mw)
                    if sinr_db < receiver.receiver.capture_threshold_db:
                        stats.frames_collided += 1
                        if trace is not None:
                            trace.event(
                                now,
                                "channel.collision",
                                receiver_id,
                                kind=packet.kind,
                                uid=packet.uid,
                            )
                        continue
            radio.meter.charge_recv(size_bytes)
            received = packet
            if faults is not None:
                damaged = faults.maybe_corrupt(now, receiver_id, packet)
                if damaged is not None:
                    if faults.crc_check:
                        # Received (and paid for) but fails its checksum;
                        # the link layer drops it silently.
                        stats.frames_crc_dropped += 1
                        continue
                    received = damaged
                    stats.frames_corrupted += 1
                rssi = faults.reported_rssi(now, tx.src, rssi)
            stats.frames_delivered += 1
            if trace is not None:
                trace.event(
                    now,
                    "channel.rx",
                    receiver_id,
                    kind=received.kind,
                    uid=received.uid,
                    rssi=rssi,
                )
            receiver.on_receive(
                ReceivedPacket(
                    packet=received,
                    rssi_dbm=rssi,
                    receive_time=now,
                    receiver=receiver_id,
                )
            )

    def _foreign_power_mw(
        self, overlapping: List[Transmission], receiver: _NodeEntry
    ) -> float:
        """Summed mean power, in milliwatts, of the overlapping frames at
        the receiver (none of them its own: half duplex ruled those out)."""
        position = None
        total = 0.0
        for other in overlapping:
            if position is None:
                position = receiver.mobility.position(self._sim.now)
            distance = max(position.distance_to(other.src_position), 1.0)
            total += dbm_to_mw(self._path_loss.mean_rssi(distance))
        return total

    def _prune(self, now: float) -> None:
        """Drop transmissions that can no longer affect any decision.

        A one-second grace period comfortably exceeds any frame airtime
        (a 1500-byte frame at 2 Mbps flies for 6.2 ms).
        """
        if self._transmissions and self._transmissions[0].end < now - 1.0:
            self._transmissions = [
                tx for tx in self._transmissions if tx.end >= now - 1.0
            ]
