"""Unit tests for the mobility substrate: waypoint model and base classes."""

import math

import pytest

from repro.mobility.base import ScriptedMobility, StationaryMobility
from repro.mobility.waypoint import WaypointMobility
from repro.sim.rng import RandomStreams
from repro.util.geometry import Rect, Vec2


@pytest.fixture()
def area():
    return Rect.square(200.0)


@pytest.fixture()
def rng():
    return RandomStreams(11).get("mobility")


class TestStationaryMobility:
    def test_never_moves(self):
        mob = StationaryMobility(Vec2(5, 5), heading=1.0)
        assert mob.position(0.0) == Vec2(5, 5)
        assert mob.position(1000.0) == Vec2(5, 5)
        assert mob.heading(500.0) == 1.0
        assert mob.speed(500.0) == 0.0


class TestScriptedMobility:
    def test_starts_at_first_waypoint(self):
        mob = ScriptedMobility([Vec2(0, 0), Vec2(10, 0)], speed=1.0)
        assert mob.position(0.0) == Vec2(0, 0)

    def test_interpolates_along_segment(self):
        mob = ScriptedMobility([Vec2(0, 0), Vec2(10, 0)], speed=2.0)
        p = mob.position(2.5)
        assert p.x == pytest.approx(5.0)
        assert p.y == pytest.approx(0.0)

    def test_travel_time(self):
        mob = ScriptedMobility(
            [Vec2(0, 0), Vec2(10, 0), Vec2(10, 10)], speed=2.0
        )
        assert mob.travel_time == pytest.approx(10.0)

    def test_stops_at_final_waypoint(self):
        mob = ScriptedMobility([Vec2(0, 0), Vec2(10, 0)], speed=1.0)
        assert mob.position(100.0) == Vec2(10, 0)
        assert mob.speed(100.0) == 0.0

    def test_heading_follows_segments(self):
        mob = ScriptedMobility(
            [Vec2(0, 0), Vec2(10, 0), Vec2(10, 10)], speed=1.0
        )
        assert mob.heading(5.0) == pytest.approx(0.0)
        assert mob.heading(15.0) == pytest.approx(math.pi / 2)

    def test_loop_repeats(self):
        mob = ScriptedMobility(
            [Vec2(0, 0), Vec2(10, 0)], speed=1.0, loop=True
        )
        # Loop path: 0 -> 10 -> back to 0, total 20 s.
        p = mob.position(25.0)
        assert p.x == pytest.approx(5.0)

    def test_requires_two_waypoints(self):
        with pytest.raises(ValueError):
            ScriptedMobility([Vec2(0, 0)], speed=1.0)

    def test_rejects_identical_waypoints(self):
        with pytest.raises(ValueError):
            ScriptedMobility([Vec2(1, 1), Vec2(1, 1)], speed=1.0)

    def test_rejects_nonpositive_speed(self):
        with pytest.raises(ValueError):
            ScriptedMobility([Vec2(0, 0), Vec2(1, 0)], speed=0.0)

    def test_start_time_delays_motion(self):
        mob = ScriptedMobility(
            [Vec2(0, 0), Vec2(10, 0)], speed=1.0, start_time=5.0
        )
        assert mob.position(3.0) == Vec2(0, 0)
        assert mob.position(7.0).x == pytest.approx(2.0)


class TestWaypointMobility:
    def test_stays_inside_area(self, area, rng):
        mob = WaypointMobility(area, rng, v_max=2.0)
        for t in range(0, 2000, 50):
            assert area.contains(mob.position(float(t)), tolerance=1e-9)

    def test_speed_within_bounds_while_moving(self, area, rng):
        mob = WaypointMobility(area, rng, v_min=0.1, v_max=2.0)
        for t in range(0, 1000, 25):
            pose = mob.pose(float(t))
            if pose.speed > 0:
                assert 0.1 <= pose.speed <= 2.0

    def test_continuous_position(self, area, rng):
        """Positions at close times must be close (no teleporting)."""
        mob = WaypointMobility(area, rng, v_max=2.0)
        prev = mob.position(0.0)
        for i in range(1, 600):
            t = i * 0.5
            cur = mob.position(t)
            assert prev.distance_to(cur) <= 2.0 * 0.5 + 1e-9
            prev = cur

    def test_moves_over_time(self, area, rng):
        mob = WaypointMobility(area, rng, v_max=2.0)
        start = mob.position(0.0)
        later = mob.position(300.0)
        assert start.distance_to(later) > 0.0

    def test_fixed_start_position(self, area, rng):
        mob = WaypointMobility(area, rng, start=Vec2(50, 50))
        assert mob.position(0.0) == Vec2(50, 50)

    def test_start_outside_area_rejected(self, area, rng):
        with pytest.raises(ValueError):
            WaypointMobility(area, rng, start=Vec2(-5, 50))

    def test_backwards_query_rejected(self, area, rng):
        mob = WaypointMobility(area, rng)
        mob.position(100.0)
        with pytest.raises(ValueError):
            mob.position(50.0)

    def test_invalid_speed_bounds_rejected(self, area, rng):
        with pytest.raises(ValueError):
            WaypointMobility(area, rng, v_min=2.0, v_max=0.5)
        with pytest.raises(ValueError):
            WaypointMobility(area, rng, v_min=0.0, v_max=1.0)

    def test_negative_rest_rejected(self, area, rng):
        with pytest.raises(ValueError):
            WaypointMobility(area, rng, rest_time_max=-1.0)

    def test_trajectory_reproducible_with_same_stream(self, area):
        mob1 = WaypointMobility(area, RandomStreams(5).spawn("m", 0))
        mob2 = WaypointMobility(area, RandomStreams(5).spawn("m", 0))
        for t in (0.0, 10.0, 100.0, 500.0):
            assert mob1.position(t) == mob2.position(t)

    def test_trajectory_independent_of_query_granularity(self, area):
        mob1 = WaypointMobility(area, RandomStreams(5).spawn("m", 1))
        mob2 = WaypointMobility(area, RandomStreams(5).spawn("m", 1))
        for t in range(0, 500):
            mob1.position(float(t))
        assert mob1.position(500.0) == mob2.position(500.0)

    def test_rest_time_pauses_robot(self, area):
        rng = RandomStreams(5).spawn("m", 2)
        mob = WaypointMobility(area, rng, rest_time_max=30.0)
        leg = mob.current_leg(0.0)
        if leg.rest_until > leg.arrive_time:
            mid_rest = (leg.arrive_time + leg.rest_until) / 2.0
            assert mob.pose(mid_rest).speed == 0.0
            assert mob.position(mid_rest) == leg.dest

    def test_time_to_waypoint_decreases(self, area, rng):
        mob = WaypointMobility(area, rng)
        t0 = mob.time_to_waypoint(0.0)
        t1 = mob.time_to_waypoint(min(5.0, t0 / 2))
        assert t1 < t0

    def test_rest_remaining_zero_while_moving(self, area, rng):
        mob = WaypointMobility(area, rng, rest_time_max=0.0)
        assert mob.rest_remaining(0.0) == 0.0

    def test_legs_chain_without_gaps(self, area, rng):
        mob = WaypointMobility(area, rng, v_max=2.0)
        mob.position(1000.0)
        legs = mob._legs
        assert len(legs) >= 2
        for a, b in zip(legs, legs[1:]):
            assert b.start == a.dest
            assert b.depart_time == pytest.approx(a.rest_until)

    def test_pose_heading_points_at_destination(self, area, rng):
        mob = WaypointMobility(area, rng)
        leg = mob.current_leg(0.0)
        pose = mob.pose(leg.depart_time + 0.1)
        assert pose.heading == pytest.approx(leg.heading)
