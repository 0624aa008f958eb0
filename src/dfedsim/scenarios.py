"""End-to-end simulation of the three experiment scenarios.

One run is a sequential state machine over communication rounds: mobile
devices step, connectivity is re-evaluated, clusters and heads refresh on
the head-policy cadence, devices train locally (through their autoencoder
in the heterogeneous case), heads aggregate their cluster, the base
station aggregates the heads, and the energy ledger is charged. The
conventional variant (CVFL) skips clustering entirely: only devices whose
base-station delay clears the cutoff contribute, and the devices shut out
of the round still burn transmission attempts toward the far-away station.

Everything is a deterministic function of the config seed: data
generation, partitioning, mobility, training shuffles, and consumption
cycles all come from labelled substreams of that one seed.
"""

from __future__ import annotations

import dataclasses
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
    gen_ring_sectors,
    gen_synthetic,
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
        if self.max_step_m < 0:
            raise ConfigError("max_step_m must be >= 0")
        if self.mobility_radius_m <= 0:
            raise ConfigError("mobility_radius_m must be > 0")
        if (
            self.aggregation is AggregationMethod.RETRAINING
            and self.kind is ScenarioKind.DBFL_HETEROGENEOUS
        ):
            # heads pool latent codes of per-device encoders, so the pooled
            # model has no input pipeline for the raw base-station probe
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


def _artifact_payload(artifact: ModelArtifact, reference_params: int) -> float:
    size = artifact.network.parameter_count()
    if artifact.encoder is not None:
        size += artifact.encoder.parameter_count()
    return size / reference_params


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
    node: DeviceNode
    train_x: np.ndarray
    train_y: np.ndarray
    probe_x: np.ndarray
    probe_y: np.ndarray
    feature_indices: tuple[int, ...] | None = None
    encoder: DenseNetwork | None = None
    local_net: DenseNetwork | None = None

    def classifier_inputs(self, features: np.ndarray) -> np.ndarray:
        x = features
        if self.feature_indices is not None:
            x = x[:, list(self.feature_indices)]
        if self.encoder is not None:
            x = self.encoder.forward(x)
        return x


class _Run:
    def __init__(self, config: ScenarioConfig):
        self.config = config
        self.kind = config.kind
        self.schema = config.data.schema
        self.num_classes = self.schema.num_classes
        self.positions: dict[int, Position] = {d.id: d.pos for d in config.devices}
        self.mobility_rng = substream(config.seed, "mobility")
        self.hetero = self.kind is ScenarioKind.DBFL_HETEROGENEOUS
        self.classifier_input_dim = (
            config.data.latent_dim if self.hetero else self.schema.num_features
        )
        self.reference_params = _classifier_params(
            self.classifier_input_dim, config.hidden_units, self.num_classes
        )
        self.cycles = self._draw_cycles()
        self.devices = self._prepare_devices()
        self.energy_state = EnergyState.start(
            {d.id: d.battery for d in config.devices}
        )
        self.assignment: ClusterAssignment | None = None
        self.heads: dict[int, int] = {}  # cluster_id -> head device id
        self.signature = DataSignature(
            self.schema.num_features, tuple(range(self.num_classes))
        )
        self.cluster_signature = DataSignature(
            self.classifier_input_dim, tuple(range(self.num_classes))
        )

    # ------------------------------------------------------------ setup

    def _draw_cycles(self) -> dict[int, EnergyParams]:
        rng = substream(self.config.seed, "consumption-cycles")
        out = {}
        for device in sorted(self.config.devices, key=lambda d: d.id):
            cycle = float(rng.uniform(0.2, 0.35))
            out[device.id] = dataclasses.replace(self.config.energy, cycle=cycle)
        return out

    def _load_dataset(self) -> tuple[np.ndarray, np.ndarray]:
        plan = self.config.data
        if plan.csv_path is not None:
            return load_csv(plan.csv_path, self.schema)
        total = (
            len(self.config.devices) * plan.partition.samples_per_device
            + plan.test_samples
        )
        if plan.task == "sectors":
            return gen_ring_sectors(
                self.schema,
                total,
                seed=self.config.seed,
                sectors=plan.sectors,
                spread=plan.spread,
                latent_factors=plan.latent_factors,
                center_scale=plan.center_scale,
            )
        return gen_synthetic(
            self.schema,
            total,
            seed=self.config.seed,
            spread=plan.spread,
            latent_factors=plan.latent_factors,
            center_scale=plan.center_scale,
        )

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
        if self.hetero:
            subset_plan = FeatureSubsetPlan.random(
                self.schema,
                devices=len(self.config.devices),
                subset_size=plan.subset_size,
                seed=self.config.seed,
            )

        devices: dict[int, _DeviceRuntime] = {}
        ordered = sorted(self.config.devices, key=lambda d: d.id)
        for index, device in enumerate(ordered):
            data: DevicePartition = parts[index]
            probe_len = max(1, int(round(plan.probe_fraction * data.features.shape[0])))
            runtime = _DeviceRuntime(
                node=device,
                train_x=data.features[probe_len:],
                train_y=data.labels[probe_len:],
                probe_x=data.features[:probe_len],
                probe_y=data.labels[:probe_len],
            )
            if subset_plan is not None:
                runtime.feature_indices = subset_plan.indices[index]
                ae_cfg = AutoencoderConfig(
                    input_dim=plan.subset_size,
                    latent_dim=plan.latent_dim,
                    learning_rate=plan.ae_learning_rate,
                    epochs=plan.ae_epochs,
                    seed=_derive_seed(self.config.seed, "autoencoder", device.id),
                )
                subset = select_features(runtime.train_x, subset_plan, index)
                runtime.encoder, _ = train_autoencoder(ae_cfg, subset)
            devices[device.id] = runtime
        return devices

    # ------------------------------------------------------- connectivity

    def _bs_delay(self, device_id: int) -> float:
        runtime = self.devices[device_id]
        node = dataclasses.replace(runtime.node, pos=self.positions[device_id])
        return transmission_delay(
            self.config.link, node, BS_POSITION, override_latency_s=runtime.node.bs_latency_s
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

    # ---------------------------------------------------------- training

    def _train_local(self, runtime: _DeviceRuntime, round_index: int) -> DenseNetwork:
        seed = _derive_seed(self.config.seed, "train", runtime.node.id, round_index)
        if not self.hetero:
            cfg = ClassifierConfig(
                input_dim=self.classifier_input_dim,
                hidden_units=self.config.hidden_units,
                num_classes=self.num_classes,
                learning_rate=self.config.learning_rate,
                epochs=self.config.local_epochs,
                batch_size=self.config.batch_size,
                seed=seed,
            )
            net = train_classifier(
                cfg, runtime.train_x, runtime.train_y, init=runtime.local_net
            )
            runtime.local_net = net
            return net

        # heterogeneous: the encoder joins the classifier's gradient steps,
        # so the latent code keeps adapting to what the classifier needs
        assert runtime.encoder is not None and runtime.feature_indices is not None
        x = runtime.train_x[:, list(runtime.feature_indices)]
        head = runtime.local_net
        if head is None:
            init_rng = substream(self.config.seed, "classifier-init", runtime.node.id)
            head = glorot_init(
                [self.config.data.latent_dim, self.config.hidden_units, self.num_classes],
                ["relu", "linear"],
                init_rng,
            )
        composite = DenseNetwork(list(runtime.encoder.layers) + list(head.layers))
        cfg = ClassifierConfig(
            input_dim=self.config.data.subset_size,
            hidden_units=self.config.hidden_units,
            num_classes=self.num_classes,
            learning_rate=self.config.learning_rate,
            epochs=self.config.local_epochs,
            batch_size=self.config.batch_size,
            seed=seed,
        )
        net = train_classifier(cfg, x, runtime.train_y, init=composite)
        runtime.encoder = DenseNetwork(list(net.layers[:1]))
        runtime.local_net = DenseNetwork(list(net.layers[1:]))
        return runtime.local_net

    def _artifact(self, runtime: _DeviceRuntime, round_index: int) -> ModelArtifact:
        assert runtime.local_net is not None
        return ModelArtifact(
            network=runtime.local_net,
            source_id=runtime.node.id,
            round_index=round_index,
            signature=self.signature,
            encoder=runtime.encoder,
            feature_indices=runtime.feature_indices,
        )

    def _probe_union(self, device_ids: list[int]) -> ProbeSet:
        xs = [self.devices[d].probe_x for d in sorted(device_ids)]
        ys = [self.devices[d].probe_y for d in sorted(device_ids)]
        return ProbeSet(features=np.vstack(xs), labels=np.concatenate(ys))

    def _aggregate(
        self,
        models: list["_ProbModel"],
        probe: ProbeSet,
        source_id: int,
        round_index: int,
        member_ids: list[int],
    ) -> "_ProbModel":
        """Aggregate one level; the result carries both the relayable
        artifact and the probability model the level actually computes."""
        artifacts = [m.artifact for m in models]
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
                (
                    self.devices[d].classifier_inputs(self.devices[d].train_x),
                    self.devices[d].train_y,
                )
                for d in sorted(member_ids)
            ]
            cfg = ClassifierConfig(
                input_dim=self.classifier_input_dim,
                hidden_units=self.config.hidden_units,
                num_classes=self.num_classes,
                learning_rate=self.config.learning_rate,
                epochs=self.config.local_epochs,
                batch_size=self.config.batch_size,
                seed=_derive_seed(
                    self.config.seed, "retrain", _seed_node_key(source_id), round_index
                ),
            )
            pooled_artifact = retrain_pooled(
                pooled, cfg, source_id=source_id, signature=self.cluster_signature
            )
            return _ProbModel(pooled_artifact, method=method)
        raise ConfigError(f"unsupported aggregation method {method}")

    # -------------------------------------------------------- evaluation

    def _accuracy(self, model: "_ProbModel") -> float:
        probs = model.probabilities(self.test_x)
        return float(np.mean(probs.argmax(axis=1) == self.test_y))

    # ------------------------------------------------------------ rounds

    def _round_cvfl(self, round_index: int) -> RoundTrace:
        alive = set(self.energy_state.alive())
        delays = {d.id: self._bs_delay(d.id) for d in self.config.devices}
        participants = sorted(
            d
            for d in alive
            if can_connect(self.config.link, delays[d])
        )
        costs: dict[int, float] = {}
        links: list[tuple[int, int, float]] = []
        models: list[_ProbModel] = []
        for d in sorted(alive):
            links.append((d, BS_NODE_ID, delays[d]))
            distance = self._energy_distance(self._bs_distance(d))
            if d in participants:
                self._train_local(self.devices[d], round_index)
                artifact = self._artifact(self.devices[d], round_index)
                models.append(_ProbModel(artifact))
                costs[d] = round_energy(
                    self.cycles[d],
                    distance,
                    _artifact_payload(artifact, self.reference_params),
                    self.devices[d].train_x.shape[0],
                    self.config.local_epochs,
                )
            else:
                # out of reach: the upload attempt still burns transmit power
                costs[d] = round_energy(self.cycles[d], distance, 1.0, 0, 0)

        accuracy = 0.0
        if models:
            probe = self._probe_union(participants)
            global_model = self._aggregate(
                models, probe, BS_NODE_ID, round_index, participants
            )
            accuracy = self._accuracy(global_model)

        self.energy_state, charges = apply_round(self.energy_state, costs)
        return RoundTrace(
            round_index=round_index,
            participants=tuple(participants),
            clusters=None,
            head_ids=(),
            accuracy=accuracy,
            energy_spent=charges,
            link_delays=tuple(sorted(links)),
        )

    def _refresh_clusters(self) -> None:
        alive = self.energy_state.alive()
        nodes = []
        connectable = []
        signatures = []
        for d in alive:
            runtime = self.devices[d]
            node = dataclasses.replace(runtime.node, pos=self.positions[d])
            nodes.append(node)
            connectable.append(can_connect(self.config.link, self._bs_delay(d)))
            signatures.append(self.cluster_signature)
        max_range = (
            self.config.link.max_transmission_time_s / self.config.link.delay_per_meter_s
        )
        self.assignment = form_clusters(
            nodes,
            connectable,
            signatures,
            self.config.cluster_policy,
            max_member_distance_m=max_range,
        )
        self.heads = {}
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
                        bs_connectable=can_connect(self.config.link, self._bs_delay(m)),
                        aggregated_distance_m=agg,
                        battery=self.energy_state.remaining(m),
                        mobile=self.devices[m].node.mobile,
                        bs_latency_s=self._bs_delay(m),
                    )
                )
            self.heads[cluster.cluster_id] = select_head(candidates)

    def _round_dbfl(self, round_index: int) -> RoundTrace:
        if (
            self.assignment is None
            or round_index % self.config.head_policy.reselect_interval_rounds == 0
        ):
            self._refresh_clusters()
        assert self.assignment is not None

        alive = set(self.energy_state.alive())
        costs: dict[int, float] = {}
        links: list[tuple[int, int, float]] = []
        head_ids: list[int] = []
        cluster_models: list[_ProbModel] = []
        participants: list[int] = []
        bs_member_ids: list[int] = []

        for cluster in self.assignment.clusters:
            if not cluster.participating:
                continue
            head = self.heads[cluster.cluster_id]
            members = [m for m in cluster.member_ids if m in alive]
            if head not in members:
                continue
            head_ids.append(head)
            member_models: list[_ProbModel] = []
            for m in sorted(members):
                runtime = self.devices[m]
                self._train_local(runtime, round_index)
                artifact = self._artifact(runtime, round_index)
                member_models.append(_ProbModel(artifact))
                payload = _artifact_payload(artifact, self.reference_params)
                samples = runtime.train_x.shape[0]
                if m == head:
                    # head: local training plus aggregation work plus relay to BS
                    head_distance = self._energy_distance(self._bs_distance(m))
                    costs[m] = round_energy(
                        self.cycles[m],
                        head_distance,
                        payload,
                        samples,
                        self.config.local_epochs + HEAD_AGGREGATION_EPOCHS,
                    )
                    links.append((m, BS_NODE_ID, self._bs_delay(m)))
                else:
                    d2d = distance_m(self.positions[m], self.positions[head])
                    costs[m] = round_energy(
                        self.cycles[m],
                        self._energy_distance(d2d),
                        payload,
                        samples,
                        self.config.local_epochs,
                    )
                    links.append(
                        (
                            m,
                            head,
                            transmission_delay(
                                self.config.link,
                                dataclasses.replace(
                                    runtime.node, pos=self.positions[m]
                                ),
                                self.positions[head],
                            ),
                        )
                    )
            if round_index == 0 and self.hetero:
                # one-time autoencoder fit, charged as compute
                for m in sorted(members):
                    ae_work = round_energy(
                        self.cycles[m],
                        0.0,
                        0.0,
                        self.devices[m].train_x.shape[0],
                        self.config.data.ae_epochs,
                    )
                    costs[m] = costs.get(m, 0.0) + ae_work
            probe = self._probe_union(members)
            cluster_models.append(
                self._aggregate(member_models, probe, head, round_index, members)
            )
            participants.extend(members)
            bs_member_ids.extend(members)

        accuracy = 0.0
        if cluster_models:
            bs_probe = self._probe_union(bs_member_ids)
            global_model = self._aggregate(
                cluster_models, bs_probe, BS_NODE_ID, round_index, bs_member_ids
            )
            accuracy = self._accuracy(global_model)

        self.energy_state, charges = apply_round(self.energy_state, costs)
        return RoundTrace(
            round_index=round_index,
            participants=tuple(sorted(participants)),
            clusters=self.assignment,
            head_ids=tuple(sorted(head_ids)),
            accuracy=accuracy,
            energy_spent=charges,
            link_delays=tuple(sorted(links)),
        )

    def execute(self) -> list[RoundTrace]:
        traces = []
        for round_index in range(self.config.rounds):
            self._move_mobiles()
            if self.kind is ScenarioKind.CVFL:
                traces.append(self._round_cvfl(round_index))
            else:
                traces.append(self._round_dbfl(round_index))
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


def delay_sweep(
    base: ScenarioConfig, sweep: list[float]
) -> list[tuple[float, ScenarioKind, float]]:
    """Run all three scenario kinds at each delay-per-meter setting.

    Every run shares the base config's seed; rows come back ordered by
    (delay value, scenario kind).
    """
    if not sweep:
        raise ConfigError("sweep needs at least one delay value")
    if any(v <= 0 for v in sweep):
        raise ConfigError("sweep delays must be positive")
    rows = []
    for delay in sweep:
        link = dataclasses.replace(base.link, delay_per_meter_s=delay)
        for kind in ScenarioKind:
            config = dataclasses.replace(base, kind=kind, link=link)
            rows.append((delay, kind, total_energy(run_scenario(config))))
    return rows
