"""Dataset handling: CSV ingestion, a synthetic surrogate generator,
per-device partitioning, and the per-device feature-column draw of
heterogeneous runs.

The synthetic generator draws class-conditional Gaussians through a shared
latent-factor projection, so features are correlated and any moderately
sized feature subset still carries class information. That mirrors the
kind of redundancy real sensor captures have and is what makes training on
per-device feature subsets viable.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, EmptyDataset, ParseError, SchemaMismatch
from .rngs import substream

# Feature scales and the principal-plane covariance square the features, so
# a larger value overflows them; both data sources reject one.
MAX_FEATURE_MAGNITUDE = 1e150


@dataclass(frozen=True)
class DatasetSchema:
    num_features: int
    num_classes: int
    label_column: str | int = "label"

    def __post_init__(self):
        if self.num_features < 1 or self.num_classes < 1:
            raise ValueError("schema counts must be positive")


@dataclass(frozen=True)
class PartitionPlan:
    devices: int
    samples_per_device: int = 3500
    strategy: str = "iid"

    def __post_init__(self):
        if self.devices < 1 or self.samples_per_device < 1:
            raise ValueError("devices and samples_per_device must be >= 1")
        if self.strategy not in ("iid", "coverage"):
            raise ValueError(f"unknown partition strategy {self.strategy!r}")


@dataclass(frozen=True)
class DevicePartition:
    features: np.ndarray
    labels: np.ndarray


def _parse_label_column(schema: DatasetSchema, header: list[str]) -> int:
    if isinstance(schema.label_column, int):
        col = schema.label_column
        if not 0 <= col < len(header):
            raise SchemaMismatch(
                f"label column index {col} outside header of width {len(header)}"
            )
        return col
    try:
        return header.index(schema.label_column)
    except ValueError:
        raise SchemaMismatch(
            f"label column {schema.label_column!r} not found in header"
        ) from None


def load_csv(path, schema: DatasetSchema) -> tuple[np.ndarray, np.ndarray]:
    """Read a one-header CSV into a feature matrix and integer labels.

    Label values are mapped to [0, num_classes) by sorted label-name
    order, so the encoding is stable across runs and platforms. A feature
    cell that is not finite or lies beyond ``MAX_FEATURE_MAGNITUDE`` is a
    ParseError.
    """
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError("file is empty, expected a header row", row=1, column=0) from None
        label_col = _parse_label_column(schema, header)
        if len(header) - 1 != schema.num_features:
            raise SchemaMismatch(
                f"expected {schema.num_features} feature columns, header has {len(header) - 1}"
            )
        rows: list[list[float]] = []
        raw_labels: list[str] = []
        for line_no, record in enumerate(reader, start=2):
            if not record:
                continue
            if len(record) != len(header):
                raise ParseError(
                    f"expected {len(header)} cells, got {len(record)}",
                    row=line_no,
                    column=min(len(record), len(header)) - 1 if record else 0,
                )
            values = []
            for col, cell in enumerate(record):
                if col == label_col:
                    continue
                try:
                    value = float(cell)
                except ValueError:
                    raise ParseError(
                        f"non-numeric feature value {cell!r}", row=line_no, column=col
                    ) from None
                if not abs(value) <= MAX_FEATURE_MAGNITUDE:  # nan fails it too
                    raise ParseError(
                        f"feature value {cell!r} is not finite or beyond "
                        f"{MAX_FEATURE_MAGNITUDE:g} in magnitude",
                        row=line_no,
                        column=col,
                    )
                values.append(value)
            rows.append(values)
            raw_labels.append(record[label_col])
    if not rows:
        raise EmptyDataset(f"{path} contains a header but no data rows")

    names = sorted(set(raw_labels))
    if len(names) > schema.num_classes:
        raise SchemaMismatch(
            f"found {len(names)} distinct labels, schema allows {schema.num_classes}"
        )
    mapping = {name: idx for idx, name in enumerate(names)}
    features = np.asarray(rows, dtype=np.float64)
    labels = np.asarray([mapping[v] for v in raw_labels], dtype=np.int64)
    return features, labels


def write_csv(path, features: np.ndarray, labels: np.ndarray, schema: DatasetSchema) -> None:
    """Inverse of load_csv for generated data; feature columns f0..fN."""
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels)
    if x.ndim != 2 or x.shape[1] != schema.num_features:
        raise SchemaMismatch("feature matrix does not match the schema")
    if y.shape[0] != x.shape[0]:
        raise SchemaMismatch("label count does not match the sample count")
    label_name = (
        schema.label_column if isinstance(schema.label_column, str) else "label"
    )
    width = len(str(schema.num_classes - 1))
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow([f"f{i}" for i in range(schema.num_features)] + [label_name])
        for row, label in zip(x, y):
            writer.writerow([repr(float(v)) for v in row] + [f"c{int(label):0{width}d}"])


def gen_synthetic(
    schema: DatasetSchema,
    samples: int,
    seed: int,
    spread: float = 1.0,
    latent_factors: int = 16,
    center_scale: float = 3.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Balanced class-conditional Gaussian data through a latent projection.

    Per class k a latent center c_k is drawn once; a sample of class k is
    (c_k + spread * h) @ P + spread * e with h, e standard normal and P a
    shared latent-to-feature projection. ``spread`` scales both noise
    terms, so spread -> 0 collapses every class onto its own point and a
    nearest-centroid classifier becomes perfect.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if spread < 0:
        raise ValueError("spread must be >= 0")
    rng = substream(seed, "synthetic-data")
    projection = rng.normal(size=(latent_factors, schema.num_features)) / np.sqrt(
        latent_factors
    )
    centers = center_scale * rng.normal(size=(schema.num_classes, latent_factors))

    per_class = samples // schema.num_classes
    remainder = samples % schema.num_classes
    counts = [per_class + (1 if k < remainder else 0) for k in range(schema.num_classes)]
    labels = np.concatenate(
        [np.full(c, k, dtype=np.int64) for k, c in enumerate(counts)]
    )
    latent = centers[labels] + spread * rng.normal(size=(samples, latent_factors))
    features = latent @ projection + spread * rng.normal(
        size=(samples, schema.num_features)
    )
    order = rng.permutation(samples)
    return features[order], labels[order]


def gen_ring_sectors(
    schema: DatasetSchema,
    samples: int,
    seed: int,
    sectors: int = 36,
    spread: float = 0.5,
    latent_factors: int = 16,
    center_scale: float = 3.0,
    ring_radius: float = 2.0,
    ring_width: float = 1.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Angular-sector labels on a ring, embedded through a latent projection.

    Two latent coordinates carry the signal: a point at angle theta and
    radius ring_radius + |ring_width * g| gets the label of its sector,
    floor(theta / (2 pi / sectors)) mod num_classes. The remaining latent
    coordinates are unit-variance nuisance. With more sectors than
    classes the label wraps around the ring several times, so accuracy is
    limited by how precisely the sector boundaries are pinned down, which
    keeps test accuracy improving with training-set size far beyond what
    blob-shaped classes need.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if sectors < schema.num_classes:
        raise ValueError("sectors must be >= num_classes")
    if spread < 0 or ring_radius <= 0 or ring_width < 0:
        raise ValueError("bad ring geometry")
    if latent_factors < 2:
        raise ValueError("need at least two latent factors for the ring plane")
    rng = substream(seed, "synthetic-data")
    projection = rng.normal(size=(latent_factors, schema.num_features)) / np.sqrt(
        latent_factors
    )
    theta = rng.uniform(0.0, 2.0 * np.pi, size=samples)
    radius = ring_radius + ring_width * np.abs(rng.normal(size=samples))
    latent = np.zeros((samples, latent_factors))
    latent[:, 0] = center_scale * radius * np.cos(theta)
    latent[:, 1] = center_scale * radius * np.sin(theta)
    latent[:, 2:] = rng.normal(size=(samples, latent_factors - 2))
    labels = np.floor(theta / (2.0 * np.pi / sectors)).astype(np.int64)
    labels %= schema.num_classes
    features = latent @ projection + spread * rng.normal(
        size=(samples, schema.num_features)
    )
    return features, labels


def principal_plane_angles(features: np.ndarray) -> np.ndarray:
    """Angle of every sample in the dataset's top-2 principal plane.

    The two leading eigenvectors of the feature covariance span the plane;
    the returned angles lie in [-pi, pi). Deterministic for a given matrix.
    """
    x = np.asarray(features, dtype=np.float64)
    centered = x - x.mean(axis=0)
    cov = centered.T @ centered / max(1, x.shape[0] - 1)
    _, vecs = np.linalg.eigh(cov)
    u = centered @ vecs[:, -1]
    v = centered @ vecs[:, -2]
    return np.arctan2(v, u)


def partition(
    features: np.ndarray, labels: np.ndarray, plan: PartitionPlan, seed: int
) -> list[DevicePartition]:
    """Split a dataset into per-device subsets, drawing from ``seed``.

    Strategy "iid" assigns rows uniformly at random. Strategy "coverage"
    models devices that each observe their own region of the environment:
    device d draws its rows from a half-circle arc of the dataset's
    principal plane, with arc offsets spread evenly over the devices, so
    the union of all devices covers everything while any strict subset of
    devices can leave a blind region. Without-replacement (disjoint)
    sampling is used whenever the dataset is large enough; otherwise
    sampling is with replacement.
    """
    x = np.asarray(features)
    y = np.asarray(labels)
    if x.shape[0] == 0:
        raise EmptyDataset("cannot partition an empty dataset")
    if x.shape[0] != y.shape[0]:
        raise ValueError("features and labels must have the same length")
    total = plan.devices * plan.samples_per_device
    rng = substream(seed, "partition")
    rows: list[np.ndarray] = []
    if plan.strategy == "coverage":
        angles = principal_plane_angles(x)
        width = np.pi
        in_arc = np.stack(
            [
                np.mod(angles - (-np.pi + 2.0 * np.pi * d / plan.devices), 2.0 * np.pi)
                < width
                for d in range(plan.devices)
            ]
        )
        # bit d of a row's mask is set when the row lies in device d's arc;
        # each distinct mask maps to its devices in ascending order
        masks = [0] * x.shape[0]
        for d in range(plan.devices):
            for i in np.flatnonzero(in_arc[d]).tolist():
                masks[i] |= 1 << d
        arc_devices = {m: [d for d in range(plan.devices) if m >> d & 1] for m in set(masks)}
        quota = [plan.samples_per_device] * plan.devices
        chosen: list[list[int]] = [[] for _ in range(plan.devices)]
        for i in rng.permutation(x.shape[0]).tolist():
            # hand the row to the hungriest eligible device (ties: lower id)
            best, hunger = -1, 0
            for d in arc_devices[masks[i]]:
                if quota[d] > hunger:
                    best, hunger = d, quota[d]
            if best >= 0:
                chosen[best].append(i)
                quota[best] -= 1
        for d in range(plan.devices):
            if quota[d] > 0:
                arc_rows = np.flatnonzero(in_arc[d])
                if arc_rows.shape[0] == 0:
                    arc_rows = np.arange(x.shape[0])
                chosen[d] += arc_rows[rng.integers(0, arc_rows.shape[0], size=quota[d])].tolist()
            rows.append(np.array(chosen[d], dtype=np.int64))
    elif total <= x.shape[0]:
        order = rng.permutation(x.shape[0])
        rows = [
            order[d * plan.samples_per_device : (d + 1) * plan.samples_per_device]
            for d in range(plan.devices)
        ]
    else:
        rows = [
            rng.integers(0, x.shape[0], size=plan.samples_per_device)
            for _ in range(plan.devices)
        ]
    # One gather for all devices, so the partitions are views of one block.
    # Per-device copies fall under malloc's adaptive mmap threshold once a
    # first set has been freed and land on the heap, where one small block
    # allocated above them kept them resident after the run freed them.
    idx = np.concatenate(rows)
    xs = np.split(x[idx], plan.devices)
    ys = np.split(y[idx], plan.devices)
    return [DevicePartition(a, b) for a, b in zip(xs, ys)]


def _feature_subsets(
    num_features: int, devices: int, subset_size: int, seed: int
) -> list[tuple[int, ...]]:
    """Each device's distinct random feature columns, drawn from the seed."""
    rng = substream(seed, "feature-subsets")
    return [
        tuple(int(i) for i in rng.choice(num_features, size=subset_size, replace=False))
        for _ in range(devices)
    ]


@dataclass(frozen=True)
class DataPlan:
    """Everything a scenario needs to materialize its dataset.

    Covers the synthetic generator knobs, the per-device partitioning, the
    held-out global test split, the calibration (probe) fraction carved
    from each device, and the heterogeneous-pipeline settings (feature
    subset size, autoencoder latent width and training budget). Point
    ``csv_path`` at a file to load data instead of generating it.
    """

    schema: DatasetSchema = DatasetSchema(num_features=274, num_classes=9)
    partition: PartitionPlan = PartitionPlan(devices=5, strategy="coverage")
    task: str = "sectors"
    sectors: int = 36
    subset_size: int = 50
    latent_dim: int = 25
    spread: float = 0.5
    latent_factors: int = 16
    center_scale: float = 3.0
    test_samples: int = 2000
    probe_fraction: float = 0.1
    ae_epochs: int = 30
    ae_learning_rate: float = 0.01
    csv_path: str | None = None

    def __post_init__(self):
        if self.task not in ("blobs", "sectors"):
            raise ValueError(f"unknown task {self.task!r}")
        if self.schema.num_classes < 2:
            raise ValueError("a classifier needs num_classes >= 2")
        if self.partition.strategy == "coverage" and self.schema.num_features < 2:
            # devices draw arcs of the top-2 principal plane
            raise ValueError("the coverage partition needs num_features >= 2")
        if self.task == "sectors" and self.latent_factors < 2:
            raise ValueError("the sectors task needs latent_factors >= 2")
        if self.sectors < self.schema.num_classes:
            raise ValueError("sectors must be >= num_classes")
        if not 0 < self.subset_size <= self.schema.num_features:
            raise ValueError("subset_size must be in 1..num_features")
        if not 0 < self.latent_dim <= self.subset_size:
            raise ValueError("latent_dim must be in 1..subset_size")
        if self.spread < 0 or self.center_scale <= 0:
            raise ValueError("spread must be >= 0 and center_scale > 0")
        if self.latent_factors < 1 or self.test_samples < 1:
            raise ValueError("latent_factors and test_samples must be >= 1")
        if not 0.0 < self.probe_fraction < 1.0:
            raise ValueError("probe_fraction must lie strictly between 0 and 1")
        if self.probe_rows >= self.partition.samples_per_device:
            raise ValueError("the probe split leaves a device no training row")
        if self.ae_epochs < 0 or self.ae_learning_rate <= 0:
            raise ValueError("bad autoencoder training settings")

    @property
    def probe_rows(self) -> int:
        """Rows each device holds out as its probe; partition hands every
        device exactly samples_per_device rows."""
        return max(1, int(round(self.probe_fraction * self.partition.samples_per_device)))


def _generate(plan: DataPlan, samples: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Draw ``samples`` rows of the plan's synthetic task; a draw that
    leaves the float range is a ConfigError."""
    # overflow shows in the result, which is checked below
    with np.errstate(over="ignore", invalid="ignore"):
        if plan.task == "sectors":
            features, labels = gen_ring_sectors(
                plan.schema,
                samples,
                seed=seed,
                sectors=plan.sectors,
                spread=plan.spread,
                latent_factors=plan.latent_factors,
                center_scale=plan.center_scale,
            )
        else:
            features, labels = gen_synthetic(
                plan.schema,
                samples,
                seed=seed,
                spread=plan.spread,
                latent_factors=plan.latent_factors,
                center_scale=plan.center_scale,
            )
    # min and max propagate nan, and need no array as large as the data
    if not -MAX_FEATURE_MAGNITUDE <= features.min() <= features.max() <= MAX_FEATURE_MAGNITUDE:
        raise ConfigError(
            f"data.spread {plan.spread!r} and data.center_scale {plan.center_scale!r} "
            f"generate features beyond {MAX_FEATURE_MAGNITUDE:g} in magnitude"
        )
    return features, labels
