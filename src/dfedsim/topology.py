"""Device positions, mobility, link delays and the connectivity cutoff.

Delays are either manual per-device overrides (used for device to base
station links) or derived from euclidean distance at a configurable
propagation rate. A link is usable iff its delay does not exceed the
maximum transmission time; equality still connects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Position:
    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"position coordinates must be finite, got ({self.x}, {self.y})")


def distance_m(a: Position, b: Position) -> float:
    """Euclidean distance between two positions, in meters."""
    return math.hypot(a.x - b.x, a.y - b.y)


@dataclass(frozen=True)
class DeviceNode:
    """A simulated edge device.

    ``bs_latency_s`` is the manually assigned base-station link latency;
    ``None`` means the latency is derived from distance like any other link.
    """

    id: int
    pos: Position
    mobile: bool = False
    battery: float = 100.0
    bs_latency_s: float | None = None

    def __post_init__(self):
        if not 0.0 <= self.battery <= 100.0:
            raise ValueError(f"battery must be in [0, 100], got {self.battery}")
        if self.bs_latency_s is not None:
            if not math.isfinite(self.bs_latency_s) or self.bs_latency_s < 0:
                raise ValueError(f"bs_latency_s must be finite and >= 0, got {self.bs_latency_s}")


@dataclass(frozen=True)
class LinkModel:
    max_transmission_time_s: float = 0.1
    delay_per_meter_s: float = 1e-3

    def __post_init__(self):
        for value in (self.max_transmission_time_s, self.delay_per_meter_s):
            if not (math.isfinite(value) and value > 0):
                raise ValueError("link parameters must be finite and strictly positive")


def transmission_delay(
    link: LinkModel,
    from_node: DeviceNode,
    to_pos: Position,
    override_latency_s: float | None = None,
) -> float:
    """Delay of one transmission: the manual override if given, else distance-derived."""
    if override_latency_s is not None:
        if override_latency_s < 0:
            raise ValueError("override latency must be >= 0")
        return override_latency_s
    return distance_m(from_node.pos, to_pos) * link.delay_per_meter_s


def can_connect(link: LinkModel, delay_s: float) -> bool:
    """True iff the delay is within the transmission-time cutoff (boundary inclusive)."""
    if delay_s < 0:
        raise ValueError("delay must be >= 0")
    return delay_s <= link.max_transmission_time_s


def random_step(pos: Position, rng: np.random.Generator, max_step_m: float = 5.0) -> Position:
    """One mobility step: a uniformly random heading and a length up to ``max_step_m``."""
    angle = rng.uniform(0.0, 2.0 * math.pi)
    length = rng.uniform(0.0, max_step_m)
    return Position(pos.x + length * math.cos(angle), pos.y + length * math.sin(angle))
