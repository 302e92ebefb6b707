"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.sim.engine import Simulator, SimulationError


class TestScheduling:
    def test_clock_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_custom_start_time(self):
        assert Simulator(start_time=5.0).now == 5.0

    def test_events_fire_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(2.0, fired.append, "late")
        sim.schedule(1.0, fired.append, "early")
        sim.run()
        assert fired == ["early", "late"]

    def test_ties_fire_in_fifo_order(self):
        sim = Simulator()
        fired = []
        for tag in ("a", "b", "c"):
            sim.schedule(1.0, fired.append, tag)
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(3.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [3.5]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-0.1, lambda: None)

    def test_schedule_at_in_past_rejected(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(0.5, lambda: None)

    def test_callback_args_passed(self):
        sim = Simulator()
        got = []
        sim.schedule(0.0, lambda a, b: got.append((a, b)), 1, "x")
        sim.run()
        assert got == [(1, "x")]

    def test_events_scheduled_from_callbacks(self):
        sim = Simulator()
        fired = []

        def chain(depth):
            fired.append(sim.now)
            if depth:
                sim.schedule(1.0, chain, depth - 1)

        sim.schedule(0.0, chain, 3)
        sim.run()
        assert fired == [0.0, 1.0, 2.0, 3.0]


class TestRunUntil:
    def test_run_until_stops_before_later_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(5.0, fired.append, "b")
        sim.run(until=2.0)
        assert fired == ["a"]
        assert sim.now == 2.0

    def test_later_events_survive_run_until(self):
        sim = Simulator()
        fired = []
        sim.schedule(5.0, fired.append, "b")
        sim.run(until=2.0)
        sim.run(until=10.0)
        assert fired == ["b"]

    def test_run_until_exact_event_time_includes_event(self):
        sim = Simulator()
        fired = []
        sim.schedule(2.0, fired.append, "x")
        sim.run(until=2.0)
        assert fired == ["x"]

    def test_run_until_past_rejected(self):
        sim = Simulator()
        sim.schedule(3.0, lambda: None)
        sim.run(until=3.0)
        with pytest.raises(SimulationError):
            sim.run(until=1.0)

    def test_run_empty_queue_advances_clock_to_until(self):
        sim = Simulator()
        sim.run(until=7.0)
        assert sim.now == 7.0

    def test_run_is_not_reentrant(self):
        sim = Simulator()
        errors = []

        def reenter():
            try:
                sim.run()
            except SimulationError as exc:
                errors.append(exc)

        sim.schedule(0.0, reenter)
        sim.run()
        assert len(errors) == 1


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        event = sim.schedule(1.0, fired.append, "x")
        event.cancel()
        sim.run()
        assert fired == []

    def test_cancel_is_idempotent(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        event.cancel()
        event.cancel()
        assert event.cancelled

    def test_pending_count_excludes_cancelled(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        event = sim.schedule(2.0, lambda: None)
        event.cancel()
        assert sim.pending_count == 1

    def test_events_processed_counts_only_fired(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        cancelled = sim.schedule(2.0, lambda: None)
        cancelled.cancel()
        sim.run()
        assert sim.events_processed == 1


class TestStepAndClear:
    def test_step_processes_one_event(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(2.0, fired.append, "b")
        assert sim.step()
        assert fired == ["a"]

    def test_step_on_empty_queue_returns_false(self):
        assert not Simulator().step()

    def test_step_skips_cancelled(self):
        sim = Simulator()
        fired = []
        event = sim.schedule(1.0, fired.append, "a")
        sim.schedule(2.0, fired.append, "b")
        event.cancel()
        assert sim.step()
        assert fired == ["b"]

    def test_clear_drops_pending(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, "a")
        sim.clear()
        sim.run()
        assert fired == []


class TestScheduleTimeGuards:
    """Non-finite timestamps must be rejected, not silently enqueued.

    ``time < now`` is False for NaN, so a plain in-the-past check waves
    NaN through — and a NaN timestamp poisons heap ordering for every
    event scheduled after it.
    """

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_schedule_at_non_finite_rejected(self, bad):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule_at(bad, lambda: None)
        assert sim.pending_count == 0

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_schedule_non_finite_delay_rejected(self, bad):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(bad, lambda: None)
        assert sim.pending_count == 0

class TestPendingCountLiveCounter:
    """pending_count is a live O(1) counter, exact under cancel/fire/clear."""

    def test_schedule_increments_and_fire_decrements(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        assert sim.pending_count == 2
        sim.step()
        assert sim.pending_count == 1
        sim.run()
        assert sim.pending_count == 0

    def test_cancel_decrements_immediately(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        event.cancel()
        assert sim.pending_count == 1

    def test_double_cancel_decrements_once(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        event.cancel()
        event.cancel()
        assert sim.pending_count == 0

    def test_clear_resets_counter_and_marks_handles(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        sim.clear()
        assert sim.pending_count == 0
        assert event.cancelled
        # A late cancel() of a cleared handle must not drive it negative.
        event.cancel()
        assert sim.pending_count == 0

    def test_cancel_after_fire_does_not_corrupt_counter(self):
        """A late cancel() of an already-fired handle must be a no-op."""
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.run()
        event.cancel()
        assert sim.pending_count == 0
        sim.schedule(3.0, lambda: None)
        assert sim.pending_count == 1

class TestStepAndClearCounters:
    def test_step_across_cancelled_runs(self):
        """step() must discard arbitrarily long cancelled runs lazily."""
        sim = Simulator()
        fired = []
        cancelled = [sim.schedule(1.0 + i, lambda: None) for i in range(4)]
        sim.schedule(10.0, fired.append, "live")
        for event in cancelled:
            event.cancel()
        assert sim.step()
        assert fired == ["live"]
        assert sim.now == 10.0
        assert sim.events_cancelled == 4
        assert sim.events_processed == 1
        assert not sim.step()

    def test_clear_does_not_count_as_lazy_cancellations(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.schedule(1.0, lambda: None)
        sim.clear()
        sim.run()
        # events_cancelled only counts lazy pop-time discards.
        assert sim.events_cancelled == 0
        assert sim.events_processed == 0

    def test_clear_preserves_processed_count(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        sim.schedule(1.0, lambda: None)
        sim.clear()
        assert sim.events_processed == 1
