"""End-to-end simulation of the three experiment scenarios.

Each communication round runs in two planes.

The network plane (``network._Network``) plans and charges each round
from the config alone; its ``_RoundPlan`` says who trains and which
groups aggregate where.

The learning plane (``_Run._learn``) consumes the plan the same way for
all three schemes: every participant trains its one local network, each
group with a head aggregates there, the base station aggregates what
reaches it, and the result is scored on the held-out test split. Each
level hands up class probabilities, never a model (``_Run._aggregate``).
Under retraining the base station instead fits one classifier on every
participant's pooled rows, and no head or device trains, since nothing
would read their models; the network plane charges the round as for any
method. The conventional variant (CVFL) has one group without a head:
only devices whose base-station delay clears the cutoff take part, and
the devices shut out of the round still burn transmission attempts
toward the far-away station. The cluster-routed variants (DBFL) have one
group per participating cluster whose head is alive; a round in which no
alive device can reach the base station has no groups at all.

A device's model is a column projection followed by one network. In the
heterogeneous scheme each device sees only its own feature columns: its
training rows are projected onto them once at setup, and the first layer
of its network is the encoder of an autoencoder fitted to that
projection, trained on jointly with the classifier layers above it.
Elsewhere the projection is the identity and the network a plain
classifier on the raw features.

Runs over one dataset advance round by round, in lockstep (``_lockstep``):
``compare_scenarios`` runs its three kinds that way, and ``run_scenario``
is the one-run case. Each round every distinct training request (device,
classifier config, start network, training rows) trains once, and every
run that made it gets the same network, which is also scored only once on
the test split. Start networks and rows match by identity, so a device's
model is shared between two runs only while its history in both is the
same: one missed round or an earlier death and its requests part for good.
Nothing is kept across rounds.

Everything is a deterministic function of the config seed: data
generation, partitioning, mobility, training shuffles, and consumption
cycles all come from labelled substreams of that one seed. Learning draws
only from keyed substreams, so charging a round before training it leaves
every draw unchanged.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import functools
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .aggregation import (
    ModelArtifact,
    adaptive_average,
    aggregate_weighted,
    artifact_probabilities,
    optimize_adaptive_weights,
    retrain_pooled,
    train_meta,
)
from .clustering import ClusterAssignment
from .config import AggregationMethod, ScenarioConfig, ScenarioKind
from .data import _feature_subsets, _generate, load_csv, partition
from .errors import ConfigError
from .ml_core import (
    AutoencoderConfig,
    ClassifierConfig,
    DenseNetwork,
    feature_scale,
    glorot_init,
    predict_proba,
    train_autoencoder,
    train_classifier,
)
from .network import BS_NODE_ID, _Network, _RoundPlan
from .rngs import substream


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


def _derive_seed(seed: int, *key) -> int:
    return int(substream(seed, *key).integers(0, 2**63))


def _seed_node_key(node_id: int) -> int | str:
    # substream keys must be non-negative, and the base station's id is -1
    return "base-station" if node_id == BS_NODE_ID else node_id


@dataclass(frozen=True)
class _DeviceRows:
    """One device's training rows and probe split. ``feature_indices``,
    when set, names the raw columns ``train_x`` was projected onto."""

    train_x: np.ndarray
    train_y: np.ndarray
    probe_x: np.ndarray
    probe_y: np.ndarray
    feature_indices: tuple[int, ...] | None = None

    @functools.cached_property
    def scale(self) -> tuple[np.ndarray, np.ndarray]:
        """`feature_scale` of train_x, computed on first use: the rows
        never change once training starts."""
        return feature_scale(self.train_x)


@dataclass
class _DeviceRuntime:
    device_id: int
    rows: _DeviceRows
    local_net: DenseNetwork | None = None


@dataclass(frozen=True)
class _Dataset:
    """A run's data: the held-out test split and one partition per device
    in device-id order, split into its probe and training rows. Every array
    is read-only, so runs that share one dataset cannot write into each
    other's data; runs that train on raw features share the rows objects
    too, and so their feature scales."""

    test_x: np.ndarray
    test_y: np.ndarray
    devices: tuple[_DeviceRows, ...]


def _dataset_rows(config: ScenarioConfig) -> int:
    """Rows a generated dataset needs: every device's partition plus the
    held-out test split."""
    plan = config.data
    return len(config.devices) * plan.partition.samples_per_device + plan.test_samples


def _build_dataset(config: ScenarioConfig) -> _Dataset:
    """Load or generate the config's data, hold out the test split,
    partition the rest over the fleet and split off each device's probe.

    Reads only ``config.data``, ``len(config.devices)`` and ``config.seed``,
    never the scenario kind, so the kinds of one base config can share it.
    """
    plan = config.data
    devices = len(config.devices)
    if plan.csv_path is not None:
        features, labels = load_csv(plan.csv_path, plan.schema)
    else:
        features, labels = _generate(plan, _dataset_rows(config), config.seed)
    if features.shape[0] <= plan.test_samples:
        raise ConfigError("dataset smaller than the held-out test split")
    pool = features.shape[0] - plan.test_samples
    part_plan = dataclasses.replace(plan.partition, devices=devices)
    test_x, test_y = features[pool:], labels[pool:]
    parts = partition(features[:pool], labels[:pool], part_plan, config.seed)
    arrays = [test_x, test_y]
    for part in parts:
        arrays += [part.features, part.labels]
    for array in arrays:
        # before any view is taken: a view keeps the flag its base had then
        array.flags.writeable = False
    probe = plan.probe_rows
    rows = tuple(
        _DeviceRows(p.features[probe:], p.labels[probe:], p.features[:probe], p.labels[:probe])
        for p in parts
    )
    return _Dataset(test_x, test_y, rows)


@dataclass(frozen=True)
class _RoundProbe:
    """Every participant's probe rows in device-id order: their features,
    their labels and the id of the device each row is from."""

    features: np.ndarray
    labels: np.ndarray
    owner: np.ndarray


class _Run:
    """One run: the network plane plans and charges each round, then the
    learning plane (device data, local models, aggregation) trains it."""

    def __init__(self, config: ScenarioConfig, dataset: _Dataset):
        self.config = config
        self.dataset = dataset
        self.network = _Network(config)
        self.schema = config.data.schema
        self.num_classes = self.schema.num_classes
        self.devices = self._prepare_devices()

    # ------------------------------------------------------------ setup

    def _prepare_devices(self) -> dict[int, _DeviceRuntime]:
        ordered = sorted(self.config.devices, key=lambda d: d.id)
        shared = self.dataset.devices
        if not self.network.hetero:
            return {
                device.id: _DeviceRuntime(device.id, rows)
                for device, rows in zip(ordered, shared)
            }
        plan = self.config.data
        subsets = _feature_subsets(
            self.schema.num_features, len(ordered), plan.subset_size, self.config.seed
        )
        runtimes = [
            _DeviceRuntime(
                device.id,
                # take, unlike x[:, cols], returns a fresh C-ordered matrix
                dataclasses.replace(
                    rows, train_x=rows.train_x.take(cols, axis=1), feature_indices=cols
                ),
            )
            for device, rows, cols in zip(ordered, shared, subsets)
        ]
        # every device's autoencoder is fitted in one stacked pass
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
            configs,
            [r.rows.train_x for r in runtimes],
            scales=[r.rows.scale for r in runtimes],
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
        return {r.device_id: r for r in runtimes}

    # ---------------------------------------------------------- training

    def _classifier_config(self, rows: _DeviceRows, *seed_key) -> ClassifierConfig:
        """The run's classifier on these rows, seeded by the keyed substream."""
        return ClassifierConfig(
            input_dim=rows.train_x.shape[1],
            hidden_units=self.config.hidden_units,
            num_classes=self.num_classes,
            learning_rate=self.config.learning_rate,
            epochs=self.config.local_epochs,
            batch_size=self.config.batch_size,
            seed=_derive_seed(self.config.seed, *seed_key),
        )

    def _round_probe(self, participants: tuple[int, ...]) -> _RoundProbe:
        rows = [(d, self.devices[d].rows) for d in sorted(participants)]
        return _RoundProbe(
            np.vstack([r.probe_x for _, r in rows]),
            np.concatenate([r.probe_y for _, r in rows]),
            np.concatenate([np.full(len(r.probe_y), d) for d, r in rows]),
        )

    def _aggregate(
        self,
        nodes: list[tuple[np.ndarray, np.ndarray | None]],
        probe: _RoundProbe | None,
        member_ids: tuple[int, ...],
        node_id: int,
        round_index: int,
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """Combine one level's nodes into this node's pair of probability
        matrices, one on the test split and one on the round's probe.

        A level fits its weights or stacker on its members' probe rows and
        applies them to both matrices, so the level above fits on exactly
        what this level outputs. Weighted averaging fits nothing, and so
        has no probe."""
        tests = [t for t, _ in nodes]
        if probe is None:
            return aggregate_weighted(tests), None
        probes = [p for _, p in nodes]
        rows = np.isin(probe.owner, member_ids)
        fit_on, labels = [p[rows] for p in probes], probe.labels[rows]
        method = self.config.aggregation
        if method is AggregationMethod.ADAPTIVE_WEIGHTED_AVERAGING:
            weights = optimize_adaptive_weights(fit_on, labels)
            return tuple(adaptive_average(np.stack(s), weights) for s in (tests, probes))
        if method is AggregationMethod.META_LEARNING:
            cfg = ClassifierConfig(
                input_dim=1,  # replaced inside train_meta
                hidden_units=0,
                num_classes=self.num_classes,
                learning_rate=0.1,
                epochs=30,
                seed=_derive_seed(
                    self.config.seed, "meta", _seed_node_key(node_id), round_index
                ),
            )
            stacker = train_meta(fit_on, labels, cfg)
            return tuple(predict_proba(stacker, np.hstack(s)) for s in (tests, probes))
        raise ConfigError(f"unsupported aggregation method {method}")

    def _retrain(self, participants: tuple[int, ...], round_index: int) -> ModelArtifact:
        """The base station's model under retraining: one classifier fitted
        on every participant's pooled training rows."""
        rows = [self.devices[d].rows for d in sorted(participants)]
        cfg = self._classifier_config(rows[0], "retrain", _seed_node_key(BS_NODE_ID), round_index)
        pooled = [(r.train_x, r.train_y) for r in rows]
        return retrain_pooled(pooled, cfg)

    # ------------------------------------------------------------ rounds

    def _learn(
        self,
        plan: _RoundPlan,
        round_index: int,
        trained: dict[int, ModelArtifact],
        score: Callable[[ModelArtifact], np.ndarray],
    ) -> float:
        """Aggregate each headed group's trained models at its head and the
        result at the base station, or retrain there; returns the test
        accuracy, with ``score`` giving an artifact's probabilities on the
        test split. A leaf is a trained model, scored once on each split."""
        if not plan.groups:
            return 0.0
        method = self.config.aggregation
        if method is AggregationMethod.RETRAINING:
            probs = score(self._retrain(plan.participants, round_index))
        else:
            probe = None
            if method is not AggregationMethod.WEIGHTED_AVERAGING:
                probe = self._round_probe(plan.participants)

            def leaf(artifact: ModelArtifact) -> tuple[np.ndarray, np.ndarray | None]:
                if probe is None:
                    return score(artifact), None
                return score(artifact), artifact_probabilities(artifact, probe.features)

            level = []
            for head, members in plan.groups:
                leaves = [leaf(trained[m]) for m in members]
                if head is None:
                    level.extend(leaves)
                else:
                    level.append(self._aggregate(leaves, probe, members, head, round_index))
            probs, _ = self._aggregate(
                level, probe, plan.participants, BS_NODE_ID, round_index
            )
        return float(np.mean(probs.argmax(axis=1) == self.dataset.test_y))


def _layer_shapes(net: DenseNetwork | None) -> tuple | None:
    return None if net is None else tuple(layer.weights.shape for layer in net.layers)


def _train_round(
    runs: list[_Run], plans: list[_RoundPlan], round_index: int
) -> list[dict[int, ModelArtifact]]:
    """Train every run's participants, each distinct request once; returns
    each run's trained artifacts by device id (none for a retraining run).

    A request is (device id, classifier config, start network, training
    rows), with the network and rows matched by identity. Every object a
    key names stays alive until the round ends, so no id is reused. Two
    runs that make one request get the same network and artifact, and it
    becomes both devices' local network. Requests of one network shape and
    config (but the seed) train in one stacked pass.
    """
    requests: dict[tuple, tuple[_Run, _DeviceRuntime, ClassifierConfig]] = {}
    asked = []
    for run, plan in zip(runs, plans):
        keys = []
        if run.config.aggregation is AggregationMethod.RETRAINING:
            # the base station retrains from the rows and reads no local network
            asked.append(keys)
            continue
        for d in plan.participants:
            runtime = run.devices[d]
            config = run._classifier_config(runtime.rows, "train", d, round_index)
            key = (d, config, id(runtime.local_net), id(runtime.rows))
            requests.setdefault(key, (run, runtime, config))
            keys.append((runtime, key))
        asked.append(keys)

    stacks: dict[tuple, list[tuple]] = {}
    for key, (_, runtime, config) in requests.items():
        stack = (dataclasses.replace(config, seed=0), _layer_shapes(runtime.local_net))
        stacks.setdefault(stack, []).append(key)
    artifacts: dict[tuple, ModelArtifact] = {}
    for keys in stacks.values():
        asks = [requests[key] for key in keys]
        nets = train_classifier(
            [config for _, _, config in asks],
            [r.rows.train_x for _, r, _ in asks],
            [r.rows.train_y for _, r, _ in asks],
            [r.local_net for _, r, _ in asks],
            scales=[r.rows.scale for _, r, _ in asks],
        )
        for key, (run, runtime, _), net in zip(keys, asks, nets):
            artifacts[key] = ModelArtifact(
                network=net,
                input_dim=run.schema.num_features,
                feature_indices=runtime.rows.feature_indices,
            )

    trained = []
    for keys in asked:
        by_device = {}
        for runtime, key in keys:
            runtime.local_net = artifacts[key].network
            by_device[runtime.device_id] = artifacts[key]
        trained.append(by_device)
    return trained


def _test_scorer(features: np.ndarray) -> Callable[[ModelArtifact], np.ndarray]:
    """``artifact_probabilities`` on ``features``, once per artifact. The
    memo holds each artifact it has scored, so no id is reused."""
    memo: dict[int, tuple[ModelArtifact, np.ndarray]] = {}

    def score(artifact: ModelArtifact) -> np.ndarray:
        if id(artifact) not in memo:
            memo[id(artifact)] = (artifact, artifact_probabilities(artifact, features))
        return memo[id(artifact)][1]

    return score


def _lockstep(runs: list[_Run]) -> list[list[RoundTrace]]:
    """Advance runs over one dataset round by round; returns each run's
    traces.

    Each round every run's network plane plans and charges it, the
    participants train (`_train_round`), and each run aggregates and scores
    its round on the shared test split. Energy never reads a trained
    weight, so a round is charged before it is trained, and learning draws
    only keyed substreams: each run's traces equal those it gets alone.
    """
    dataset = runs[0].dataset
    if any(run.dataset is not dataset for run in runs):
        raise ValueError("runs in lockstep must share one dataset")
    traces: list[list[RoundTrace]] = [[] for _ in runs]
    for round_index in range(runs[0].config.rounds):
        plans = [run.network.plan_round(round_index) for run in runs]
        trained = _train_round(runs, plans, round_index)
        score = _test_scorer(dataset.test_x)
        for run, plan, models, out in zip(runs, plans, trained, traces):
            out.append(
                RoundTrace(
                    round_index,
                    participants=plan.participants,
                    clusters=plan.clusters,
                    head_ids=plan.head_ids,
                    accuracy=run._learn(plan, round_index, models, score),
                    energy_spent=plan.charges,
                    link_delays=plan.links,
                )
            )
    return traces


def run_scenario(config: ScenarioConfig) -> list[RoundTrace]:
    """Simulate one scenario; returns one trace per communication round."""
    (traces,) = _lockstep([_Run(config, _build_dataset(config))])
    return traces


def _kind_configs(base: ScenarioConfig) -> list[ScenarioConfig]:
    """The base config as each scenario kind, in ``ScenarioKind`` order;
    building them checks each, so a setting one kind rejects raises here."""
    return [dataclasses.replace(base, kind=kind) for kind in ScenarioKind]


def compare_scenarios(base: ScenarioConfig) -> dict[ScenarioKind, list[RoundTrace]]:
    """Run every scenario kind on the base config's fleet, data and seed.

    All kinds' configs are built, and so checked, before any data is built
    or any round runs. The kinds then share one dataset, which reads no
    kind, and run in lockstep, sharing a device's model while its history
    is the same in both runs; each run's traces equal those of its own
    ``run_scenario``. Keys come in ``ScenarioKind`` order.
    """
    configs = _kind_configs(base)
    dataset = _build_dataset(base)
    runs = [_Run(config, dataset) for config in configs]
    return {config.kind: traces for config, traces in zip(configs, _lockstep(runs))}


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
        for config in _kind_configs(dataclasses.replace(base, link=link)):
            points.append((delay, config.kind, config))
    return points


def _run_energy(config: ScenarioConfig) -> float:
    return total_energy(run_scenario(config))


def delay_sweep(
    base: ScenarioConfig, delays: list[float], jobs: int = 1
) -> list[tuple[float, ScenarioKind, float]]:
    """Run all three scenario kinds at each delay-per-meter setting.

    Every run shares the base config's seed, and every point is checked
    before any runs; rows come back ordered by (delay value, scenario kind).
    With ``jobs`` 1 the points run in turn in this process; with more they
    run over a process pool of ``min(jobs, points)`` workers, same rows.
    """
    points = _sweep_configs(base, delays)
    if jobs < 1:
        raise ConfigError("jobs must be >= 1")
    configs = [config for _, _, config in points]
    if jobs == 1:
        totals = list(map(_run_energy, configs))
    else:
        # a fork pool starts all its workers at the first submit
        with concurrent.futures.ProcessPoolExecutor(max_workers=min(jobs, len(configs))) as pool:
            totals = list(pool.map(_run_energy, configs))
    return [(delay, kind, total) for (delay, kind, _), total in zip(points, totals)]
