"""Run configuration: scenario kinds, aggregation methods, the reference
fleet and ``ScenarioConfig``.

Imports no learning code, so the network plane (``network``) reads a
config without the learning stack. ``cli`` decodes a config file against
these field annotations, so every annotation type is imported here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

from .clustering import ClusterPolicy
from .data import DataPlan
from .energy import EnergyParams
from .errors import ConfigError
from .head_selection import HeadPolicy
from .topology import DeviceNode, LinkModel, Position


# Adaptive aggregation searches a simplex grid of C(19 + m, m - 1) weight
# rows for a level of m members, and one level can hold every device (the
# CVFL base station averages all participants): 53,130 rows at m = 6, and
# 230,230 at m = 7, where one search takes seconds.
MAX_ADAPTIVE_DEVICES = 6

# Cluster formation searches anchor assignments in time exponential in the
# fleet, at every refresh. Over 50 random fleets per size (+-50 m, half the
# devices connectable, 100 m range), the worst single call took at most
# 0.26 s up to 16 devices, up to 1.06 s at 17 and over 3 s at 18.
MAX_CLUSTERED_DEVICES = 16


class ScenarioKind(Enum):
    CVFL = "cvfl"
    DBFL_HOMOGENEOUS = "dbfl_homogeneous"
    DBFL_HETEROGENEOUS = "dbfl_heterogeneous"


class AggregationMethod(Enum):
    WEIGHTED_AVERAGING = "weighted"
    ADAPTIVE_WEIGHTED_AVERAGING = "adaptive"
    META_LEARNING = "meta"
    RETRAINING = "retrain"


def default_devices() -> tuple[DeviceNode, ...]:
    """The five-device reference fleet: three fixed, two mobile.

    Base-station latencies are set manually so that exactly the two mobile
    devices miss the 0.1 s cutoff; the would-be heads start at full
    battery, the rest in the 80-100 band.
    """
    return (
        DeviceNode(0, Position(-12.0, 16.0), mobile=False, battery=100.0, bs_latency_s=0.05),
        DeviceNode(1, Position(19.2, 25.6), mobile=False, battery=85.0, bs_latency_s=0.08),
        DeviceNode(2, Position(21.6, 28.8), mobile=False, battery=100.0, bs_latency_s=0.09),
        DeviceNode(3, Position(-28.8, 38.4), mobile=True, battery=90.0, bs_latency_s=0.12),
        DeviceNode(4, Position(36.0, 48.0), mobile=True, battery=80.0, bs_latency_s=0.15),
    )


@dataclass(frozen=True)
class ScenarioConfig:
    kind: ScenarioKind
    devices: tuple[DeviceNode, ...] = field(default_factory=default_devices)
    rounds: int = 100
    link: LinkModel = LinkModel()
    cluster_policy: ClusterPolicy = ClusterPolicy()
    head_policy: HeadPolicy = HeadPolicy()
    aggregation: AggregationMethod = AggregationMethod.WEIGHTED_AVERAGING
    energy: EnergyParams = EnergyParams()
    data: DataPlan = DataPlan()
    local_epochs: int = 1
    hidden_units: int = 80
    learning_rate: float = 0.01
    batch_size: int = 32
    max_step_m: float = 5.0
    mobility_radius_m: float = 15.0
    seed: int = 0

    def __post_init__(self):
        if self.rounds < 0:
            raise ConfigError("rounds must be >= 0")
        if self.seed < 0:
            # numpy seed sequences take only non-negative entropy
            raise ConfigError("seed must be >= 0")
        if not self.devices:
            raise ConfigError("need at least one device")
        ids = [d.id for d in self.devices]
        if len(set(ids)) != len(ids):
            raise ConfigError("device ids must be unique")
        if min(ids) < 0:
            # run-seed substreams are keyed by device id, and -1 marks the base station
            raise ConfigError("device ids must be >= 0")
        planned = self.data.partition.devices
        if planned is not None and planned != len(self.devices):
            raise ConfigError(
                f"data.partition.devices is {planned} but the fleet has "
                f"{len(self.devices)} devices; leave it out or make them equal"
            )
        if self.local_epochs < 1 or self.hidden_units < 1:
            raise ConfigError("local_epochs and hidden_units must be >= 1")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ConfigError("learning_rate must be finite and > 0")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if not (math.isfinite(self.max_step_m) and self.max_step_m >= 0):
            raise ConfigError("max_step_m must be finite and >= 0")
        if not (math.isfinite(self.mobility_radius_m) and self.mobility_radius_m > 0):
            raise ConfigError("mobility_radius_m must be finite and > 0")
        if max(self.max_step_m, self.mobility_radius_m) > 1e150:
            # the mobility clamp multiplies a displacement by the radius
            raise ConfigError("max_step_m and mobility_radius_m must be <= 1e150")
        if self.link.max_transmission_time_s / self.link.delay_per_meter_s > 1e150:
            # cluster formation sums member-to-seed distances up to this range
            raise ConfigError(
                "link range max_transmission_time_s / delay_per_meter_s must be <= 1e150 m"
            )
        if (
            self.aggregation is AggregationMethod.RETRAINING
            and self.kind is ScenarioKind.DBFL_HETEROGENEOUS
        ):
            # members train on different feature columns, so their pooled
            # rows share no input layout the raw base-station probe fits
            raise ConfigError("retrain aggregation does not support dbfl_heterogeneous")
        if (
            self.aggregation is AggregationMethod.ADAPTIVE_WEIGHTED_AVERAGING
            and len(self.devices) > MAX_ADAPTIVE_DEVICES
        ):
            raise ConfigError(
                f"adaptive aggregation takes at most {MAX_ADAPTIVE_DEVICES} devices, "
                f"got {len(self.devices)}: its weight grid grows as C(19 + m, m - 1) "
                "in the m members of a level"
            )
        if self.kind is not ScenarioKind.CVFL and len(self.devices) > MAX_CLUSTERED_DEVICES:
            raise ConfigError(
                f"{self.kind.value} takes at most {MAX_CLUSTERED_DEVICES} devices, "
                f"got {len(self.devices)}: cluster formation is exponential in the fleet"
            )
        object.__setattr__(self, "devices", tuple(self.devices))
