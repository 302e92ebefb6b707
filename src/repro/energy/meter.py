"""Per-node energy accounting.

An :class:`EnergyMeter` integrates a radio's state timeline against an
:class:`~repro.energy.model.EnergyModel` and accumulates per-packet costs.
The meter is driven by the radio (state changes) and the MAC (packet
events); the experiment harness reads the final :class:`EnergyBreakdown`.

The paper's energy metric (§3) "includes energy spent during sending and
receiving both data and control packets as well as energy spent when the
wireless device is idle or in sleep mode" — the breakdown mirrors exactly
those categories plus on/off transitions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.energy.model import EnergyModel, RadioState


@dataclass
class EnergyBreakdown:
    """Joules consumed, split by cause."""

    tx_j: float = 0.0
    rx_j: float = 0.0
    idle_j: float = 0.0
    sleep_j: float = 0.0
    packet_send_j: float = 0.0
    packet_recv_j: float = 0.0
    transition_j: float = 0.0

    @property
    def total_j(self) -> float:
        """Total energy across all categories."""
        return (
            self.tx_j
            + self.rx_j
            + self.idle_j
            + self.sleep_j
            + self.packet_send_j
            + self.packet_recv_j
            + self.transition_j
        )

    def as_dict(self) -> Dict[str, float]:
        """Return the breakdown as a plain dict (stable key order)."""
        return {
            "tx_j": self.tx_j,
            "rx_j": self.rx_j,
            "idle_j": self.idle_j,
            "sleep_j": self.sleep_j,
            "packet_send_j": self.packet_send_j,
            "packet_recv_j": self.packet_recv_j,
            "transition_j": self.transition_j,
            "total_j": self.total_j,
        }


class EnergyMeter:
    """Integrates radio state durations and per-packet costs into joules."""

    def __init__(self, model: EnergyModel) -> None:
        self._model = model
        self._breakdown = EnergyBreakdown()
        self._packets_sent = 0
        self._packets_received = 0
        self._transitions = 0
        # Per-state duration scalars instead of an enum-keyed dict:
        # charge_state runs once per radio transition (tens of thousands
        # per run) and enum hashing dominated its profile.
        self._dur_tx = 0.0
        self._dur_rx = 0.0
        self._dur_idle = 0.0
        self._dur_sleep = 0.0
        self._dur_off = 0.0
        # Baseline power per state in watts.  ``mw * 1e-3`` is exactly the
        # first multiplication the expression
        # ``state_power_mw(state) * 1e-3 * duration_s`` performs (Python
        # evaluates left to right), so hoisting it preserves the charged
        # joules bit for bit.
        self._w_tx = model.state_power_mw(RadioState.TX) * 1e-3
        self._w_rx = model.state_power_mw(RadioState.RX) * 1e-3
        self._w_idle = model.state_power_mw(RadioState.IDLE) * 1e-3
        self._w_sleep = model.state_power_mw(RadioState.SLEEP) * 1e-3
        self._w_off = model.state_power_mw(RadioState.OFF) * 1e-3
        # Per-size packet cost memos: frames come in a handful of fixed
        # sizes, so the linear cost model runs once per distinct size.
        self._send_costs: Dict[int, float] = {}
        self._recv_costs: Dict[int, float] = {}

    @property
    def model(self) -> EnergyModel:
        return self._model

    @property
    def breakdown(self) -> EnergyBreakdown:
        return self._breakdown

    @property
    def total_j(self) -> float:
        return self._breakdown.total_j

    @property
    def packets_sent(self) -> int:
        return self._packets_sent

    @property
    def packets_received(self) -> int:
        return self._packets_received

    @property
    def transitions(self) -> int:
        """Number of sleep/wake (and on/off) transitions charged."""
        return self._transitions

    @property
    def state_durations_s(self) -> Dict[RadioState, float]:
        """Seconds charged per radio state (a copy; all states present)."""
        return {
            RadioState.OFF: self._dur_off,
            RadioState.SLEEP: self._dur_sleep,
            RadioState.IDLE: self._dur_idle,
            RadioState.RX: self._dur_rx,
            RadioState.TX: self._dur_tx,
        }

    def metrics(self) -> Dict[str, float]:
        """Flat metric mapping for telemetry collection."""
        out = {
            "radio_%s_s" % state.value: duration
            for state, duration in self.state_durations_s.items()
        }
        out["radio_transitions"] = float(self._transitions)
        out["radio_packets_sent"] = float(self._packets_sent)
        out["radio_packets_received"] = float(self._packets_received)
        for key, value in self._breakdown.as_dict().items():
            out["energy_%s" % key] = value
        return out

    def charge_state(self, state: RadioState, duration_s: float) -> None:
        """Charge baseline power for spending ``duration_s`` in ``state``.

        Branch order follows billing frequency: receive/idle intervals
        alternate on every reception, so those two states take the bulk
        of the calls.
        """
        if duration_s < 0:
            raise ValueError(
                "duration_s must be non-negative, got %r" % duration_s
            )
        breakdown = self._breakdown
        if state is RadioState.IDLE:
            self._dur_idle += duration_s
            breakdown.idle_j += self._w_idle * duration_s
        elif state is RadioState.RX:
            self._dur_rx += duration_s
            breakdown.rx_j += self._w_rx * duration_s
        elif state is RadioState.TX:
            self._dur_tx += duration_s
            breakdown.tx_j += self._w_tx * duration_s
        elif state is RadioState.SLEEP:
            self._dur_sleep += duration_s
            breakdown.sleep_j += self._w_sleep * duration_s
        else:
            self._dur_off += duration_s
            energy_j = self._w_off * duration_s
            # OFF draws nothing by default; if a nonzero off power is
            # configured it is folded into idle for reporting purposes.
            if energy_j > 0.0:
                breakdown.idle_j += energy_j

    def charge_send(self, size_bytes: int) -> None:
        """Charge the per-packet broadcast-send cost."""
        cost = self._send_costs.get(size_bytes)
        if cost is None:
            cost = self._model.send_cost_j(size_bytes)
            self._send_costs[size_bytes] = cost
        self._breakdown.packet_send_j += cost
        self._packets_sent += 1

    def charge_recv(self, size_bytes: int) -> None:
        """Charge the per-packet broadcast-receive cost."""
        cost = self._recv_costs.get(size_bytes)
        if cost is None:
            cost = self._model.recv_cost_j(size_bytes)
            self._recv_costs[size_bytes] = cost
        self._breakdown.packet_recv_j += cost
        self._packets_received += 1

    def charge_wake_transition(self) -> None:
        """Charge the fixed energy of a SLEEP/OFF -> IDLE transition."""
        self._breakdown.transition_j += self._model.wake_transition_uj * 1e-6
        self._transitions += 1

    def charge_sleep_transition(self) -> None:
        """Charge the fixed energy of an IDLE -> SLEEP transition."""
        self._breakdown.transition_j += (
            self._model.sleep_transition_uj * 1e-6
        )
        self._transitions += 1
