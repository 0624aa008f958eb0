"""End-to-end simulation of the three experiment scenarios.

Each communication round runs in two planes.

The network plane (``_Network``) reads only the config, the device
positions, the consumption cycles and the energy ledger. It steps the
mobile devices, works out who is alive and who can reach the base station,
refreshes clusters and elects heads on the head-policy cadence, and charges
the round. Its output is a ``_RoundPlan``: who trains, which groups
aggregate where, the link records and the effective charges. Energy never
depends on a trained weight: every device trains on ``samples_per_device``
rows minus its probe split and ships a model whose size the config fixes,
so the plane needs neither data nor models.

The learning plane (``_Run._learn``) consumes the plan the same way for
all three schemes: every participant trains its one local network, each
group with a head aggregates there, the base station aggregates what
reaches it, and the result is scored on the held-out test split. The
conventional variant (CVFL) has one group without a head: only devices
whose base-station delay clears the cutoff take part, and the devices
shut out of the round still burn transmission attempts toward the
far-away station. The cluster-routed variants (DBFL) have one group per
participating cluster whose head is alive; a round in which no alive
device can reach the base station has no groups at all.

A device's model is a column projection followed by one network. In the
heterogeneous scheme each device sees only its own feature columns: its
training rows are projected onto them once at setup, and the first layer
of its network is the encoder of an autoencoder fitted to that
projection, trained on jointly with the classifier layers above it.
Elsewhere the projection is the identity and the network a plain
classifier on the raw features.

Everything is a deterministic function of the config seed: data
generation, partitioning, mobility, training shuffles, and consumption
cycles all come from labelled substreams of that one seed. Learning draws
only from keyed substreams, so charging a round before training it leaves
every draw unchanged.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .aggregation import (
    AggregationMethod,
    ModelArtifact,
    ProbeSet,
    _adaptive_weights,
    adaptive_average,
    aggregate_weighted,
    artifact_probabilities,
    closest_member,
    member_probabilities,
    retrain_pooled,
    train_meta,
)
from .clustering import ClusterAssignment, ClusterPolicy, DataSignature, form_clusters
from .data import (
    DataPlan,
    DevicePartition,
    FeatureSubsetPlan,
    _generate,
    load_csv,
    partition,
    select_features,
)
from .energy import EnergyParams, EnergyState, apply_round, round_energy
from .errors import ConfigError
from .head_selection import HeadCandidateView, HeadPolicy, select_head
from .ml_core import (
    AutoencoderConfig,
    ClassifierConfig,
    DenseNetwork,
    feature_scale,
    glorot_init,
    train_autoencoder,
    train_classifier,
)
from .rngs import substream
from .topology import (
    DeviceNode,
    LinkModel,
    Position,
    can_connect,
    distance_m,
    random_step,
    transmission_delay,
)

BS_POSITION = Position(0.0, 0.0)
BS_NODE_ID = -1  # destination marker in link-delay records

# Delay-per-meter value at which geometric distance and energy distance
# coincide; sweeping the delay above it scales transmission energy up.
REFERENCE_DELAY_PER_METER = 1e-3

# Head-side aggregation work, as a fraction of one local training epoch.
HEAD_AGGREGATION_EPOCHS = 0.1


class ScenarioKind(Enum):
    CVFL = "cvfl"
    DBFL_HOMOGENEOUS = "dbfl_homogeneous"
    DBFL_HETEROGENEOUS = "dbfl_heterogeneous"


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
        if not self.devices:
            raise ConfigError("need at least one device")
        ids = [d.id for d in self.devices]
        if len(set(ids)) != len(ids):
            raise ConfigError("device ids must be unique")
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
        if (
            self.aggregation is AggregationMethod.RETRAINING
            and self.kind is ScenarioKind.DBFL_HETEROGENEOUS
        ):
            # members train on different feature columns, so their pooled
            # rows share no input layout the raw base-station probe fits
            raise ConfigError("retrain aggregation does not support dbfl_heterogeneous")
        object.__setattr__(self, "devices", tuple(self.devices))


@dataclass(frozen=True)
class RoundTrace:
    round_index: int
    participants: tuple[int, ...]
    clusters: ClusterAssignment | None
    head_ids: tuple[int, ...]
    accuracy: float
    energy_spent: dict[int, float]
    link_delays: tuple[tuple[int, int, float], ...]  # (src, dst, seconds); dst -1 = BS

    def __post_init__(self):
        if not 0.0 <= self.accuracy <= 1.0:
            raise ValueError("accuracy must lie in [0, 1]")
        if any(v < 0 for v in self.energy_spent.values()):
            raise ValueError("energy entries must be >= 0")


def _classifier_params(input_dim: int, hidden: int, classes: int) -> int:
    if hidden > 0:
        return hidden * (input_dim + 1) + classes * (hidden + 1)
    return classes * (input_dim + 1)


def _probe_rows(plan: DataPlan) -> int:
    # partition hands every device exactly samples_per_device rows
    return max(1, int(round(plan.probe_fraction * plan.partition.samples_per_device)))


def _derive_seed(seed: int, *key) -> int:
    return int(substream(seed, *key).integers(0, 2**63))


def _seed_node_key(node_id: int) -> int | str:
    # substream keys must be non-negative, and the base station's id is -1
    return "base-station" if node_id == BS_NODE_ID else node_id


@dataclass
class _ProbModel:
    """One node of the aggregation tree.

    ``artifact`` is the concrete model a node relays onward (for weighted
    and adaptive methods the member closest to the average); calling
    ``probabilities`` evaluates what the aggregation at this node actually
    computes, which for averaging methods is the combination of all
    children, not just the relayed artifact.
    """

    artifact: ModelArtifact
    children: list["_ProbModel"] | None = None
    method: AggregationMethod | None = None
    weights: np.ndarray | None = None

    def probabilities(self, features: np.ndarray) -> np.ndarray:
        if not self.children:
            return artifact_probabilities(self.artifact, features)
        stacked = np.stack([c.probabilities(features) for c in self.children])
        if self.method is AggregationMethod.ADAPTIVE_WEIGHTED_AVERAGING:
            return adaptive_average(stacked, self.weights)
        return stacked.mean(axis=0)


@dataclass
class _DeviceRuntime:
    device_id: int
    train_x: np.ndarray
    train_y: np.ndarray
    probe_x: np.ndarray
    probe_y: np.ndarray
    feature_indices: tuple[int, ...] | None = None  # train_x holds only these columns
    local_net: DenseNetwork | None = None

    @functools.cached_property
    def scale(self) -> tuple[np.ndarray, np.ndarray]:
        """`feature_scale` of train_x, computed on first use: the rows
        never change once training starts."""
        return feature_scale(self.train_x)


@dataclass(frozen=True)
class _RoundPlan:
    """One round as the network plane scheduled and charged it.

    ``groups`` lists (head, members) in aggregation order; a group with
    head None uploads straight to the base station.
    """

    participants: tuple[int, ...]
    clusters: ClusterAssignment | None
    head_ids: tuple[int, ...]
    groups: tuple[tuple[int | None, tuple[int, ...]], ...]
    links: tuple[tuple[int, int, float], ...]
    charges: dict[int, float]


class _Network:
    """The network plane of a run: reads the config, never a device's data."""

    def __init__(self, config: ScenarioConfig):
        self.config = config
        self.hetero = config.kind is ScenarioKind.DBFL_HETEROGENEOUS
        self.nodes = {d.id: d for d in config.devices}
        self.positions: dict[int, Position] = {d.id: d.pos for d in config.devices}
        self.mobility_rng = substream(config.seed, "mobility")
        self.cycles = self._draw_cycles()
        self.energy_state = EnergyState.start({d.id: d.battery for d in config.devices})
        self.assignment: ClusterAssignment | None = None
        self.heads: dict[int, int] = {}  # cluster_id -> head device id
        schema = config.data.schema
        # every device consumes raw probe features with the same label set
        self.signature = DataSignature(schema.num_features, tuple(range(schema.num_classes)))
        # shipped model size relative to the reference classifier; the
        # heterogeneous scheme also ships its one-layer encoder
        input_dim = schema.num_features
        encoder = 0
        if self.hetero:
            input_dim = config.data.latent_dim
            encoder = _classifier_params(config.data.subset_size, 0, input_dim)
        reference = _classifier_params(input_dim, config.hidden_units, schema.num_classes)
        self.payload = (reference + encoder) / reference
        self.train_samples = config.data.partition.samples_per_device - _probe_rows(
            config.data
        )

    def _draw_cycles(self) -> dict[int, EnergyParams]:
        rng = substream(self.config.seed, "consumption-cycles")
        out = {}
        for device in sorted(self.config.devices, key=lambda d: d.id):
            cycle = float(rng.uniform(0.2, 0.35))
            out[device.id] = dataclasses.replace(self.config.energy, cycle=cycle)
        return out

    # ------------------------------------------------------- connectivity

    def _moved(self, device_id: int) -> DeviceNode:
        return dataclasses.replace(self.nodes[device_id], pos=self.positions[device_id])

    def _bs_delay(self, device_id: int) -> float:
        return transmission_delay(
            self.config.link,
            self._moved(device_id),
            BS_POSITION,
            override_latency_s=self.nodes[device_id].bs_latency_s,
        )

    def _bs_distance(self, device_id: int) -> float:
        return distance_m(self.positions[device_id], BS_POSITION)

    def _energy_distance(self, geometric_m: float) -> float:
        # Slower links keep the radio on longer, so transmission energy grows
        # in proportion to the delay setting. Folding the ratio into the
        # distance through the attenuation root keeps the power-law form.
        ratio = self.config.link.delay_per_meter_s / REFERENCE_DELAY_PER_METER
        return geometric_m * ratio ** (1.0 / self.config.energy.attenuation)

    def _move_mobiles(self) -> None:
        limit = self.config.mobility_radius_m
        for device in sorted(self.config.devices, key=lambda d: d.id):
            if not device.mobile:
                continue
            pos = random_step(
                self.positions[device.id], self.mobility_rng, self.config.max_step_m
            )
            # waypoints stay inside a patrol disc around the device's home
            # position; an unbounded walk would let transmission distances
            # (and thus the quadratic energy cost) grow without limit
            home = device.pos
            dx, dy = pos.x - home.x, pos.y - home.y
            radius = math.hypot(dx, dy)
            if radius > limit:
                pos = Position(home.x + dx * limit / radius, home.y + dy * limit / radius)
            self.positions[device.id] = pos

    def _refresh_clusters(self) -> None:
        alive = self.energy_state.alive()
        delays = {d: self._bs_delay(d) for d in alive}
        connectable = {d: can_connect(self.config.link, delays[d]) for d in alive}
        self.heads = {}
        if not any(connectable.values()):
            # nobody alive reaches the base station: no cluster can form
            self.assignment = None
            return
        max_range = (
            self.config.link.max_transmission_time_s / self.config.link.delay_per_meter_s
        )
        self.assignment = form_clusters(
            [self._moved(d) for d in alive],
            [connectable[d] for d in alive],
            [self.signature] * len(alive),
            self.config.cluster_policy,
            max_member_distance_m=max_range,
        )
        for cluster in self.assignment.clusters:
            if not cluster.participating:
                continue
            candidates = []
            for m in cluster.member_ids:
                others = [o for o in cluster.member_ids if o != m]
                agg = sum(
                    distance_m(self.positions[m], self.positions[o]) for o in others
                )
                candidates.append(
                    HeadCandidateView(
                        device_id=m,
                        bs_connectable=connectable[m],
                        aggregated_distance_m=agg,
                        battery=self.energy_state.remaining(m),
                        mobile=self.nodes[m].mobile,
                        bs_latency_s=delays[m],
                    )
                )
            self.heads[cluster.cluster_id] = select_head(candidates)

    # ------------------------------------------------------------ rounds

    def _schedule_direct(self) -> tuple[tuple, list, dict[int, float]]:
        """CVFL: devices whose base-station delay clears the cutoff upload
        straight to it; the rest still burn a transmission attempt."""
        alive = self.energy_state.alive()
        delays = {d: self._bs_delay(d) for d in alive}
        participants = tuple(d for d in alive if can_connect(self.config.link, delays[d]))
        links = []
        costs: dict[int, float] = {}
        for d in alive:
            links.append((d, BS_NODE_ID, delays[d]))
            distance = self._energy_distance(self._bs_distance(d))
            if d in participants:
                costs[d] = round_energy(
                    self.cycles[d],
                    distance,
                    self.payload,
                    self.train_samples,
                    self.config.local_epochs,
                )
            else:
                # out of reach: the upload attempt still burns transmit power
                costs[d] = round_energy(self.cycles[d], distance, 1.0, 0, 0)
        groups = ((None, participants),) if participants else ()
        return groups, links, costs

    def _schedule_clustered(self, round_index: int) -> tuple[tuple, list, dict[int, float]]:
        """DBFL: members upload to their cluster head, heads relay to the
        base station; clusters whose head has died sit the round out."""
        if (
            self.assignment is None
            or round_index % self.config.head_policy.reselect_interval_rounds == 0
        ):
            self._refresh_clusters()
        if self.assignment is None:
            return (), [], {}
        alive = set(self.energy_state.alive())
        groups = []
        links = []
        costs: dict[int, float] = {}
        for cluster in self.assignment.clusters:
            if not cluster.participating:
                continue
            head = self.heads[cluster.cluster_id]
            members = tuple(sorted(m for m in cluster.member_ids if m in alive))
            if head not in members:
                continue
            for m in members:
                if m == head:
                    # head: local training plus aggregation work plus relay to BS
                    distance = self._bs_distance(m)
                    epochs = self.config.local_epochs + HEAD_AGGREGATION_EPOCHS
                    links.append((m, BS_NODE_ID, self._bs_delay(m)))
                else:
                    distance = distance_m(self.positions[m], self.positions[head])
                    epochs = self.config.local_epochs
                    delay = transmission_delay(
                        self.config.link, self._moved(m), self.positions[head]
                    )
                    links.append((m, head, delay))
                costs[m] = round_energy(
                    self.cycles[m],
                    self._energy_distance(distance),
                    self.payload,
                    self.train_samples,
                    epochs,
                )
                if round_index == 0 and self.hetero:
                    # one-time autoencoder fit, charged as compute
                    ae_epochs = self.config.data.ae_epochs
                    costs[m] += round_energy(
                        self.cycles[m], 0.0, 0.0, self.train_samples, ae_epochs
                    )
            groups.append((head, members))
        return tuple(groups), links, costs

    def plan_round(self, round_index: int) -> _RoundPlan:
        """Move the mobile devices, schedule the round and charge its energy."""
        self._move_mobiles()
        if self.config.kind is ScenarioKind.CVFL:
            groups, links, costs = self._schedule_direct()
        else:
            groups, links, costs = self._schedule_clustered(round_index)
        self.energy_state, charges = apply_round(self.energy_state, costs)
        return _RoundPlan(
            participants=tuple(sorted(m for _, members in groups for m in members)),
            clusters=self.assignment,
            head_ids=tuple(sorted(head for head, _ in groups if head is not None)),
            groups=groups,
            links=tuple(sorted(links)),
            charges=charges,
        )


class _Run:
    """One run: the network plane plans and charges each round, then the
    learning plane (device data, local models, aggregation) trains it."""

    def __init__(self, config: ScenarioConfig):
        self.config = config
        self.network = _Network(config)
        self.schema = config.data.schema
        self.num_classes = self.schema.num_classes
        self.devices = self._prepare_devices()

    # ------------------------------------------------------------ setup

    def _load_dataset(self) -> tuple[np.ndarray, np.ndarray]:
        plan = self.config.data
        if plan.csv_path is not None:
            return load_csv(plan.csv_path, self.schema)
        total = (
            len(self.config.devices) * plan.partition.samples_per_device
            + plan.test_samples
        )
        return _generate(plan, total, self.config.seed)

    def _prepare_devices(self) -> dict[int, _DeviceRuntime]:
        plan = self.config.data
        features, labels = self._load_dataset()
        if features.shape[0] <= plan.test_samples:
            raise ConfigError("dataset smaller than the held-out test split")
        self.test_x = features[-plan.test_samples :]
        self.test_y = labels[-plan.test_samples :]
        pool_x = features[: -plan.test_samples]
        pool_y = labels[: -plan.test_samples]

        part_plan = dataclasses.replace(
            plan.partition,
            devices=len(self.config.devices),
            seed=self.config.seed,
        )
        parts = partition(pool_x, pool_y, part_plan)

        subset_plan = None
        if self.network.hetero:
            subset_plan = FeatureSubsetPlan.random(
                self.schema,
                devices=len(self.config.devices),
                subset_size=plan.subset_size,
                seed=self.config.seed,
            )

        devices: dict[int, _DeviceRuntime] = {}
        ordered = sorted(self.config.devices, key=lambda d: d.id)
        probe_len = _probe_rows(plan)
        for index, device in enumerate(ordered):
            data: DevicePartition = parts[index]
            runtime = _DeviceRuntime(
                device_id=device.id,
                train_x=data.features[probe_len:],
                train_y=data.labels[probe_len:],
                probe_x=data.features[:probe_len],
                probe_y=data.labels[:probe_len],
            )
            if subset_plan is not None:
                runtime.feature_indices = subset_plan.indices[index]
                runtime.train_x = select_features(runtime.train_x, subset_plan, index)
            devices[device.id] = runtime
        if subset_plan is not None:
            # every device's autoencoder is fitted in one stacked pass
            runtimes = list(devices.values())
            configs = [
                AutoencoderConfig(
                    input_dim=plan.subset_size,
                    latent_dim=plan.latent_dim,
                    learning_rate=plan.ae_learning_rate,
                    epochs=plan.ae_epochs,
                    seed=_derive_seed(self.config.seed, "autoencoder", r.device_id),
                )
                for r in runtimes
            ]
            fitted = train_autoencoder(
                configs, [r.train_x for r in runtimes], scales=[r.scale for r in runtimes]
            )
            for runtime, (encoder, _) in zip(runtimes, fitted):
                head = glorot_init(
                    [plan.latent_dim, self.config.hidden_units, self.num_classes],
                    ["relu", "linear"],
                    substream(self.config.seed, "classifier-init", runtime.device_id),
                )
                # the encoder joins the classifier's gradient steps, so the
                # latent code keeps adapting to what the classifier needs
                runtime.local_net = DenseNetwork(encoder.layers + head.layers)
        return devices

    # ---------------------------------------------------------- training

    def _train(self, runtimes: list[_DeviceRuntime], round_index: int) -> list[ModelArtifact]:
        """One local update of every given device, in one stacked pass;
        returns the artifacts they ship, in the same order."""
        configs = [
            ClassifierConfig(
                input_dim=runtime.train_x.shape[1],
                hidden_units=self.config.hidden_units,
                num_classes=self.num_classes,
                learning_rate=self.config.learning_rate,
                epochs=self.config.local_epochs,
                batch_size=self.config.batch_size,
                seed=_derive_seed(self.config.seed, "train", runtime.device_id, round_index),
            )
            for runtime in runtimes
        ]
        nets = train_classifier(
            configs,
            [r.train_x for r in runtimes],
            [r.train_y for r in runtimes],
            [r.local_net for r in runtimes],
            scales=[r.scale for r in runtimes],
        )
        artifacts = []
        for runtime, net in zip(runtimes, nets):
            runtime.local_net = net
            artifacts.append(
                ModelArtifact(
                    network=net,
                    source_id=runtime.device_id,
                    round_index=round_index,
                    signature=self.network.signature,
                    feature_indices=runtime.feature_indices,
                )
            )
        return artifacts

    def _probe_union(self, device_ids: tuple[int, ...]) -> ProbeSet:
        xs = [self.devices[d].probe_x for d in sorted(device_ids)]
        ys = [self.devices[d].probe_y for d in sorted(device_ids)]
        return ProbeSet(features=np.vstack(xs), labels=np.concatenate(ys))

    def _aggregate(
        self,
        models: list["_ProbModel"],
        source_id: int,
        round_index: int,
        member_ids: tuple[int, ...],
    ) -> "_ProbModel":
        """Aggregate one level; the result carries both the relayable
        artifact and the probability model the level actually computes."""
        artifacts = [m.artifact for m in models]
        probe = self._probe_union(member_ids)
        method = self.config.aggregation
        if method is AggregationMethod.WEIGHTED_AVERAGING:
            selected, _ = aggregate_weighted(artifacts, probe)
            return _ProbModel(selected, children=models, method=method)
        if method is AggregationMethod.ADAPTIVE_WEIGHTED_AVERAGING:
            probs = member_probabilities(artifacts, probe)
            weights = _adaptive_weights(probs, probe.labels)
            selected = closest_member(artifacts, probs, adaptive_average(probs, weights))
            return _ProbModel(selected, children=models, method=method, weights=weights)
        if method is AggregationMethod.META_LEARNING:
            cfg = ClassifierConfig(
                input_dim=1,  # replaced inside train_meta
                hidden_units=0,
                num_classes=self.num_classes,
                learning_rate=0.1,
                epochs=30,
                seed=_derive_seed(
                    self.config.seed, "meta", _seed_node_key(source_id), round_index
                ),
            )
            return _ProbModel(
                train_meta(artifacts, probe, cfg, source_id=source_id), method=method
            )
        if method is AggregationMethod.RETRAINING:
            pooled = [
                (self.devices[d].train_x, self.devices[d].train_y)
                for d in sorted(member_ids)
            ]
            cfg = ClassifierConfig(
                input_dim=self.schema.num_features,
                hidden_units=self.config.hidden_units,
                num_classes=self.num_classes,
                learning_rate=self.config.learning_rate,
                epochs=self.config.local_epochs,
                batch_size=self.config.batch_size,
                seed=_derive_seed(
                    self.config.seed, "retrain", _seed_node_key(source_id), round_index
                ),
            )
            return _ProbModel(retrain_pooled(pooled, cfg, source_id=source_id), method=method)
        raise ConfigError(f"unsupported aggregation method {method}")

    # ------------------------------------------------------------ rounds

    def _learn(self, plan: _RoundPlan, round_index: int) -> float:
        """Train every participant, aggregate each headed group at its head
        and the result at the base station; returns the test accuracy."""
        if not plan.groups:
            return 0.0
        # training reads no aggregation result, so every participant trains
        # before any group aggregates
        artifacts = self._train([self.devices[d] for d in plan.participants], round_index)
        trained = dict(zip(plan.participants, artifacts))
        level: list[_ProbModel] = []
        for head, members in plan.groups:
            models = [_ProbModel(trained[m]) for m in members]
            if head is not None:
                models = [self._aggregate(models, head, round_index, members)]
            level.extend(models)
        global_model = self._aggregate(level, BS_NODE_ID, round_index, plan.participants)
        probs = global_model.probabilities(self.test_x)
        return float(np.mean(probs.argmax(axis=1) == self.test_y))

    def execute(self) -> list[RoundTrace]:
        traces = []
        for round_index in range(self.config.rounds):
            # energy never reads a trained weight, so the round is charged
            # before it is trained; learning draws only keyed substreams
            plan = self.network.plan_round(round_index)
            traces.append(
                RoundTrace(
                    round_index=round_index,
                    participants=plan.participants,
                    clusters=plan.clusters,
                    head_ids=plan.head_ids,
                    accuracy=self._learn(plan, round_index),
                    energy_spent=plan.charges,
                    link_delays=plan.links,
                )
            )
        return traces


def run_scenario(config: ScenarioConfig) -> list[RoundTrace]:
    """Simulate one scenario; returns one trace per communication round."""
    return _Run(config).execute()


def total_energy(traces: list[RoundTrace]) -> float:
    """Sum of all effective charges over a run (grid-exact by ledger design)."""
    total = 0.0
    for trace in traces:
        for node in sorted(trace.energy_spent):
            total += trace.energy_spent[node]
    return total


def _sweep_configs(
    base: ScenarioConfig, delays: list[float]
) -> list[tuple[float, ScenarioKind, ScenarioConfig]]:
    """Check a delay sweep and expand it into one config per point, ordered
    by (delay value, scenario kind); every point keeps the base seed."""
    if not delays:
        raise ConfigError("sweep needs at least one delay value")
    if not all(math.isfinite(v) and v > 0 for v in delays):
        raise ConfigError("sweep delays must be finite and positive")
    points = []
    for delay in delays:
        link = dataclasses.replace(base.link, delay_per_meter_s=delay)
        for kind in ScenarioKind:
            points.append((delay, kind, dataclasses.replace(base, kind=kind, link=link)))
    return points


def delay_sweep(
    base: ScenarioConfig, sweep: list[float]
) -> list[tuple[float, ScenarioKind, float]]:
    """Run all three scenario kinds at each delay-per-meter setting.

    Every run shares the base config's seed; rows come back ordered by
    (delay value, scenario kind).
    """
    return [
        (delay, kind, total_energy(run_scenario(config)))
        for delay, kind, config in _sweep_configs(base, sweep)
    ]
