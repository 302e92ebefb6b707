"""Mobility model interface and simple reference implementations.

All mobility models are *analytic*: they answer "where is the robot at time
``t``" for any non-decreasing sequence of queries, instead of being stepped
by simulation events.  This keeps the event queue free of per-robot movement
events and lets the channel model evaluate positions exactly at packet time.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

from repro.util.geometry import Vec2


class Pose:
    """A robot pose: position, heading (radians, CCW from +x) and speed.

    A plain ``__slots__`` class (not a frozen dataclass) because poses
    are materialized on every odometry read and kinematics query;
    immutable by convention, like :class:`~repro.util.geometry.Vec2`.
    """

    __slots__ = ("position", "heading", "speed")

    def __init__(
        self, position: Vec2, heading: float, speed: float
    ) -> None:
        self.position = position
        self.heading = heading
        self.speed = speed

    def __repr__(self) -> str:
        return "Pose(position=%r, heading=%r, speed=%r)" % (
            self.position, self.heading, self.speed
        )

    def __eq__(self, other: object) -> bool:
        if other.__class__ is Pose:
            return (
                self.position == other.position
                and self.heading == other.heading
                and self.speed == other.speed
            )
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.position, self.heading, self.speed))

    @property
    def x(self) -> float:
        return self.position.x

    @property
    def y(self) -> float:
        return self.position.y


class MobilityModel:
    """Base class for analytic mobility models.

    Subclasses implement :meth:`pose`.  Queries must use non-decreasing
    times; models may advance internal state lazily and are not required to
    answer queries about the past.
    """

    def pose(self, t: float) -> Pose:
        """Return the robot's pose at simulation time ``t`` (seconds)."""
        raise NotImplementedError

    def position(self, t: float) -> Vec2:
        """Return the robot's position at time ``t``."""
        return self.pose(t).position

    def heading(self, t: float) -> float:
        """Return the robot's heading at time ``t``."""
        return self.pose(t).heading

    def speed(self, t: float) -> float:
        """Return the robot's speed at time ``t``."""
        return self.pose(t).speed


class StationaryMobility(MobilityModel):
    """A robot that never moves.  Useful in tests and as static landmarks."""

    def __init__(self, position: Vec2, heading: float = 0.0) -> None:
        self._pose = Pose(position, heading, 0.0)

    def pose(self, t: float) -> Pose:
        return self._pose


class ScriptedMobility(MobilityModel):
    """Follow a fixed list of waypoints at a constant speed.

    Used by the Figure 5 reproduction, where a deterministic path with
    well-defined turns illustrates odometry error accumulation, and by
    integration tests that need exactly repeatable trajectories.

    Args:
        waypoints: at least two points; the robot starts at the first one.
        speed: constant movement speed in m/s.
        start_time: simulation time at which movement begins; before it the
            robot sits at the first waypoint.
        loop: if True, the robot returns to the first waypoint and repeats.
    """

    def __init__(
        self,
        waypoints: Sequence[Vec2],
        speed: float,
        start_time: float = 0.0,
        loop: bool = False,
    ) -> None:
        if len(waypoints) < 2:
            raise ValueError(
                "ScriptedMobility needs >= 2 waypoints, got %d"
                % len(waypoints)
            )
        if speed <= 0:
            raise ValueError("speed must be positive, got %r" % speed)
        self._waypoints = list(waypoints)
        self._speed = speed
        self._start_time = start_time
        self._loop = loop
        self._segments = self._build_segments()
        self._total_time = self._segments[-1][1] if self._segments else 0.0

    def _build_segments(self) -> List[Tuple[float, float, Vec2, Vec2]]:
        """Return (start_offset, end_offset, from, to) per segment."""
        points = list(self._waypoints)
        if self._loop:
            points.append(points[0])
        segments = []
        offset = 0.0
        for a, b in zip(points, points[1:]):
            duration = a.distance_to(b) / self._speed
            # repro: noqa[REP004] exact-zero skip of degenerate segments
            if duration == 0.0:
                continue
            segments.append((offset, offset + duration, a, b))
            offset += duration
        if not segments:
            raise ValueError("waypoints are all identical")
        return segments

    @property
    def travel_time(self) -> float:
        """Time to traverse the whole path once."""
        return self._total_time

    def pose(self, t: float) -> Pose:
        elapsed = t - self._start_time
        if elapsed <= 0.0:
            first = self._segments[0]
            return Pose(first[2], first[2].heading_to(first[3]), 0.0)
        if self._loop:
            elapsed = math.fmod(elapsed, self._total_time)
        if elapsed >= self._total_time:
            last = self._segments[-1]
            return Pose(last[3], last[2].heading_to(last[3]), 0.0)
        for start, end, a, b in self._segments:
            if start <= elapsed < end:
                frac = (elapsed - start) / (end - start)
                position = a + (b - a) * frac
                return Pose(position, a.heading_to(b), self._speed)
        # Floating-point edge: treat as path end.
        last = self._segments[-1]
        return Pose(last[3], last[2].heading_to(last[3]), 0.0)
