"""Model aggregation in class-probability space.

A head (or the base station, the operations are level-agnostic) evaluates
every member model on a shared probe set, combines the resulting
probability matrices, and forwards one representative model. Four methods:
plain weighted averaging, per-class adaptive weighting, a shallow stacking
meta-learner, and pooled retraining.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, EmptyDataset, EmptyMemberList, MissingLabels
from .ml_core import (
    ClassifierConfig,
    DenseNetwork,
    predict_proba,
    train_classifier,
)

ADAPTIVE_GRID_STEP = 0.05
ADAPTIVE_MAX_SWEEPS = 50


@dataclass(frozen=True)
class ModelArtifact:
    """A trained model plus the context needed to evaluate it.

    The input pipeline is a column projection, then one network:
    ``feature_indices``, when set, picks the raw probe columns the device
    sees, and ``network`` maps them to class logits (for a heterogeneous
    device its first layer compresses them to a latent code).
    ``input_dim`` is always the raw probe-feature width the artifact
    consumes. Meta artifacts carry the member models their stacker feeds
    on in ``meta_members``.
    """

    network: DenseNetwork
    source_id: int
    input_dim: int
    feature_indices: tuple[int, ...] | None = None
    meta_members: tuple["ModelArtifact", ...] | None = None

    def __post_init__(self):
        if self.input_dim < 1:
            raise ValueError("input_dim must be positive")
        if self.meta_members is not None and not self.meta_members:
            raise ValueError("meta artifacts need their member models")


@dataclass(frozen=True)
class ProbeSet:
    features: np.ndarray
    labels: np.ndarray | None = None

    def __post_init__(self):
        x = np.asarray(self.features, dtype=np.float64)
        if x.ndim != 2 or x.shape[0] == 0:
            raise EmptyDataset("probe set must be a non-empty 2-D sample matrix")
        object.__setattr__(self, "features", x)
        if self.labels is not None:
            y = np.asarray(self.labels)
            if y.shape[0] != x.shape[0]:
                raise DimensionMismatch("probe labels must align with probe features")
            object.__setattr__(self, "labels", y)


def artifact_probabilities(artifact: ModelArtifact, features: np.ndarray) -> np.ndarray:
    """Class probabilities of an artifact on raw probe features.

    Applies the artifact's feature-column projection, then its network.
    Meta artifacts first evaluate their members and stack the concatenated
    probabilities.
    """
    x = np.asarray(features, dtype=np.float64)
    if artifact.meta_members is not None:
        stacked = np.hstack(
            [artifact_probabilities(m, x) for m in artifact.meta_members]
        )
        return predict_proba(artifact.network, stacked)
    if x.ndim != 2 or x.shape[1] != artifact.input_dim:
        raise DimensionMismatch(
            f"artifact consumes {artifact.input_dim} features, "
            f"got {x.shape[1] if x.ndim == 2 else 'non-matrix'}"
        )
    if artifact.feature_indices is not None:
        x = x[:, list(artifact.feature_indices)]
    return predict_proba(artifact.network, x)


def _check_members(members: list[ModelArtifact]) -> None:
    """Members must share one probe width and one class count."""
    if not members:
        raise EmptyMemberList("aggregation needs at least one member model")
    first = members[0]
    for m in members[1:]:
        if (m.input_dim, m.network.output_dim) != (first.input_dim, first.network.output_dim):
            raise DimensionMismatch(
                f"member {m.source_id} consumes {m.input_dim} features into "
                f"{m.network.output_dim} classes, member {first.source_id} "
                f"{first.input_dim} into {first.network.output_dim}"
            )


def member_probabilities(
    members: list[ModelArtifact], probe: ProbeSet
) -> np.ndarray:
    """Stack of per-member probability matrices, shape (members, samples, classes)."""
    _check_members(members)
    return np.stack([artifact_probabilities(m, probe.features) for m in members])


def aggregate_weighted(
    members: list[ModelArtifact],
    probe: ProbeSet,
    weights: np.ndarray | None = None,
) -> tuple[ModelArtifact, np.ndarray]:
    """Average member class probabilities; forward the member closest to it.

    ``weights`` is a point on the member simplex (uniform when omitted).
    Returns (selected member, averaged probability matrix); the selected
    member minimizes the Frobenius distance to the average, ties going to
    the lower source_id.
    """
    probs = member_probabilities(members, probe)
    m = len(members)
    if weights is None:
        w = np.full(m, 1.0 / m)
    else:
        w = np.asarray(weights, dtype=np.float64)
        if w.shape != (m,):
            raise DimensionMismatch(f"expected {m} weights, got shape {w.shape}")
        if np.any(w < 0) or abs(float(w.sum()) - 1.0) > 1e-9:
            raise ValueError("weights must be nonnegative and sum to 1")
    avg = np.tensordot(w, probs, axes=1)
    selected = closest_member(members, probs, avg)
    return selected, avg


def closest_member(
    members: list[ModelArtifact], probs: np.ndarray, target: np.ndarray
) -> ModelArtifact:
    """Member whose probability matrix is Frobenius-closest to ``target``."""
    best_idx = 0
    best_key = None
    for i, member in enumerate(members):
        d = float(np.linalg.norm(probs[i] - target))
        key = (d, member.source_id)
        if best_key is None or key < best_key:
            best_key = key
            best_idx = i
    return members[best_idx]


@functools.cache
def _simplex_grid(m: int) -> np.ndarray:
    """All weight vectors over m members on the step-resolution simplex, one
    read-only row each, in lexicographic order. Stars and bars: each
    combination of m - 1 bar slots among ticks + m - 1, taken in
    lexicographic order, counts the ticks between consecutive bars."""
    ticks = round(1.0 / ADAPTIVE_GRID_STEP)
    bars = np.array(list(itertools.combinations(range(ticks + m - 1), m - 1)))
    edges = np.pad(bars, ((0, 0), (1, 1)), constant_values=(-1, ticks + m - 1))
    grid = (np.diff(edges, axis=1) - 1) / ticks
    grid.flags.writeable = False
    return grid


def _class_sums(probs: np.ndarray, weight_matrix: np.ndarray) -> np.ndarray:
    """Per-class weighted sum of member probabilities, shape (samples, classes)."""
    return np.einsum("cm,mnc->nc", weight_matrix, probs)


def adaptive_accuracy(
    probs: np.ndarray, weight_matrix: np.ndarray, labels: np.ndarray
) -> float:
    """Probe accuracy of the per-class weighted probability average."""
    return float(np.mean(_class_sums(probs, weight_matrix).argmax(axis=1) == labels))


def adaptive_average(probs: np.ndarray, weight_matrix: np.ndarray) -> np.ndarray:
    """Per-class weighted average, renormalized to a valid probability matrix."""
    avg = _class_sums(probs, weight_matrix)
    return avg / avg.sum(axis=1, keepdims=True)


# Grid rows scored per numpy pass: bounds the (rows x samples) temporaries of
# the weight search, whose grid has 10,626 rows at five members.
_GRID_BLOCK_ROWS = 256


def _candidate_columns(rows: np.ndarray, class_probs: np.ndarray) -> np.ndarray:
    """Weighted sums ``rows @ class_probs`` with the rounding of ``_class_sums``.

    Accumulates member by member, as einsum does, so every value matches
    the corresponding entry of ``_class_sums`` bit for bit; a BLAS matmul
    may add in another order.
    """
    out = rows[:, :1] * class_probs[0]
    for k in range(1, class_probs.shape[0]):
        out += rows[:, k : k + 1] * class_probs[k]
    return out


def _grid_correct_counts(
    grid: np.ndarray,
    probs: np.ndarray,
    sums: np.ndarray,
    labels: np.ndarray,
    cls: int,
) -> np.ndarray:
    """Correct probe predictions with each grid row as class ``cls``'s weights.

    Only column ``cls`` of ``sums`` varies across the grid. argmax takes the
    first maximum, so a sample is predicted ``cls`` exactly when the
    candidate beats every earlier column and matches every later one;
    otherwise its prediction is the argmax of the fixed other columns. Only
    samples labelled ``cls``, or already right without it, can be correct.
    """
    left = sums[:, :cls].max(axis=1, initial=-np.inf)
    right = sums[:, cls + 1 :].max(axis=1, initial=-np.inf)
    others = np.delete(sums, cls, axis=1).argmax(axis=1)
    others += others >= cls
    hit = np.flatnonzero(labels == cls)
    kept = np.flatnonzero(others == labels)
    samples = np.concatenate([hit, kept])
    class_probs = probs[:, samples, cls]
    left, right = left[samples], right[samples]
    counts = np.empty(grid.shape[0], dtype=np.int64)
    for start in range(0, grid.shape[0], _GRID_BLOCK_ROWS):
        cand = _candidate_columns(grid[start : start + _GRID_BLOCK_ROWS], class_probs)
        wins = (cand > left) & (cand >= right)
        counts[start : start + cand.shape[0]] = (
            kept.size
            + wins[:, : hit.size].sum(axis=1)
            - wins[:, hit.size :].sum(axis=1)
        )
    return counts


def optimize_adaptive_weights(
    members: list[ModelArtifact], probe: ProbeSet
) -> np.ndarray:
    """Per-class member weights (classes x members) tuned on the probe set.

    Coordinate ascent over one class row at a time on a 0.05-resolution
    simplex grid, starting from uniform weights, in deterministic sweep
    order; a row changes only when it strictly improves probe accuracy
    (the first best grid row wins), so the result never scores below
    uniform.

    Each class is scored against the whole grid at once, in blocks of grid
    rows, from a running copy of the weighted class sums. The result is
    the same, bit for bit, as scoring every row with ``adaptive_accuracy``:
    a candidate column is accumulated member by member with the rounding
    of einsum, the other columns stay fixed during the trial so the maxima
    of the columns before and after the class decide the first-index
    argmax, and accuracies are the same ``count / n`` that ``np.mean``
    computes.
    """
    if probe.labels is None:
        raise MissingLabels("adaptive weighting needs probe labels")
    probs = member_probabilities(members, probe)
    return _adaptive_weights(probs, np.asarray(probe.labels))


def _adaptive_weights(probs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """The search of ``optimize_adaptive_weights`` on a probability stack."""
    m, n, num_classes = probs.shape
    weights = np.full((num_classes, m), 1.0 / m)
    if m == 1:
        return weights
    grid = _simplex_grid(m)
    current = adaptive_accuracy(probs, weights, labels)
    sums = _class_sums(probs, weights)
    for _ in range(ADAPTIVE_MAX_SWEEPS):
        improved = False
        for cls in range(num_classes):
            accs = _grid_correct_counts(grid, probs, sums, labels, cls) / n
            best = int(np.argmax(accs))
            if accs[best] > current:
                weights[cls] = grid[best]
                column = _candidate_columns(grid[best : best + 1], probs[:, :, cls])
                sums[:, cls] = column[0]
                current = float(accs[best])
                improved = True
        if not improved:
            break
    return weights


def train_meta(
    members: list[ModelArtifact],
    probe: ProbeSet,
    config: ClassifierConfig,
    source_id: int = -1,
) -> ModelArtifact:
    """Stacking: a shallow classifier over concatenated member probabilities.

    The returned artifact keeps references to its members in
    ``meta_members``, since inference has to evaluate them first.
    """
    if probe.labels is None:
        raise MissingLabels("meta-learning needs probe labels")
    probs = member_probabilities(members, probe)
    m, n, num_classes = probs.shape
    stacked = np.hstack(list(probs))
    cfg = dataclasses.replace(
        config, input_dim=m * num_classes, num_classes=num_classes, hidden_units=0
    )
    net = train_classifier(cfg, stacked, np.asarray(probe.labels))
    return ModelArtifact(
        network=net,
        source_id=source_id,
        input_dim=members[0].input_dim,
        meta_members=tuple(members),
    )


def retrain_pooled(
    member_data: list[tuple[np.ndarray, np.ndarray]],
    config: ClassifierConfig,
    source_id: int = -1,
) -> ModelArtifact:
    """One classifier trained on the concatenation of all member datasets."""
    if not member_data:
        raise EmptyDataset("no member datasets to pool")
    dims = {np.asarray(x).shape[1] for x, _ in member_data}
    if len(dims) != 1:
        raise DimensionMismatch(f"member feature dimensions differ: {sorted(dims)}")
    features = np.vstack([np.asarray(x, dtype=np.float64) for x, _ in member_data])
    labels = np.concatenate([np.asarray(y) for _, y in member_data])
    net = train_classifier(config, features, labels)
    return ModelArtifact(network=net, source_id=source_id, input_dim=dims.pop())
