"""Aggregation in class-probability space.

A head, or the base station (the operations are level-agnostic), combines
its members' outputs, each a class-probability matrix over the same rows,
into one such matrix. Three methods work on such a probability stack:
the uniform mean, per-class adaptive weights and a shallow stacking
meta-learner, the last two fitted on labelled probe rows. The fourth,
pooled retraining, fits one model on the members' training rows instead.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, EmptyDataset
from .ml_core import ClassifierConfig, DenseNetwork, predict_proba, train_classifier

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
    consumes.
    """

    network: DenseNetwork
    input_dim: int
    feature_indices: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.input_dim < 1:
            raise ValueError("input_dim must be positive")


def artifact_probabilities(artifact: ModelArtifact, features: np.ndarray) -> np.ndarray:
    """Class probabilities of an artifact on raw probe features: its
    feature-column projection, then its network."""
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != artifact.input_dim:
        raise DimensionMismatch(
            f"artifact consumes {artifact.input_dim} features, "
            f"got {x.shape[1] if x.ndim == 2 else 'non-matrix'}"
        )
    if artifact.feature_indices is not None:
        x = x[:, list(artifact.feature_indices)]
    return predict_proba(artifact.network, x)


def _labelled_stack(probs: Sequence[np.ndarray], labels) -> tuple[np.ndarray, np.ndarray]:
    """The members' probability matrices as one (members, samples, classes)
    stack, and the labels of its samples: one class index per sample, and
    at least one sample."""
    stack, y = np.stack(probs), np.asarray(labels)
    if y.shape != stack.shape[1:2]:
        raise DimensionMismatch(f"{stack.shape[1]} probe rows, labels of shape {y.shape}")
    if not y.size:
        raise EmptyDataset("no labelled probe rows to fit on")
    if y.min() < 0 or y.max() >= stack.shape[2]:
        raise ValueError(f"labels must lie in [0, {stack.shape[2]})")
    return stack, y


def aggregate_weighted(probs: Sequence[np.ndarray]) -> np.ndarray:
    """Uniform mean of the members' probability matrices."""
    return np.stack(probs).mean(axis=0)


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


# Grid rows x contested samples scored per numpy pass: keeps each temporary
# of the weight search near 256 KB, whose grid has 10,626 rows at five members.
_GRID_BLOCK_CELLS = 1 << 15

# Slack on the bounds of a candidate column: a convex combination of the
# members' values lies in [min, max] up to rounding of a few ulps of the
# largest magnitude (far inside 1e-9 of it), and the smallest normal covers
# rounding among subnormals.
_BOUND_SLACK = 1e-9
_BOUND_TINY = np.finfo(np.float64).tiny


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
    class_probs: np.ndarray,
    sums: np.ndarray,
    labels: np.ndarray,
    cls: int,
) -> np.ndarray:
    """Correct probe predictions (as floats) with each grid row as class
    ``cls``'s weights.

    ``class_probs`` is the members' (members x samples) class-``cls``
    probabilities and ``sums`` the class-major (classes x samples) weighted
    sums; only row ``cls`` of ``sums`` varies across the grid. argmax takes
    the first maximum, so a sample is predicted ``cls`` exactly when the
    candidate beats every earlier class and matches every later one;
    otherwise its prediction is the argmax of the fixed other classes. Only
    samples labelled ``cls``, or already right without it, can be correct.

    A candidate lies within the members' smallest and largest probability,
    up to rounding, so a sample whose bounds lose (or win) against the other
    classes loses (or wins) under every grid row and counts as a constant;
    only the contested rest is scored against the grid.
    """
    left = sums[:cls].max(axis=0, initial=-np.inf)
    right = sums[cls + 1 :].max(axis=0, initial=-np.inf)
    # already right without cls: the label's column is the first maximum of
    # the other classes, so it ties none of the classes before it
    label_sums = sums.take(labels * labels.size + np.arange(labels.size))
    tops = np.flatnonzero((label_sums >= np.maximum(left, right)) & (labels != cls))
    earlier = np.arange(sums.shape[0])[:, None] < labels[tops]
    earlier[cls] = False
    kept = tops[~(earlier & (sums.take(tops, axis=1) >= label_sums[tops])).any(axis=0)]
    samples = np.concatenate([np.flatnonzero(labels == cls), kept])
    # a win gains a sample labelled cls and loses a kept one
    signs = np.repeat([1.0, -1.0], [samples.size - kept.size, kept.size])
    # a candidate c wins when c > left and c >= right, that is c > threshold
    left, right = left[samples], right[samples]
    threshold = np.where(left >= right, left, np.nextafter(right, -np.inf))
    class_probs = class_probs.take(samples, axis=1)
    low, high = class_probs.min(axis=0), class_probs.max(axis=0)
    slack = np.maximum(-low, high) * _BOUND_SLACK + _BOUND_TINY
    always = low - slack > threshold
    contested = np.flatnonzero(~always & (high + slack > threshold))
    counts = np.full(grid.shape[0], kept.size + always @ signs)
    if not contested.size:
        return counts
    signs, threshold = signs[contested], threshold[contested]
    class_probs = class_probs.take(contested, axis=1)
    block = max(1, _GRID_BLOCK_CELLS // contested.size)
    for start in range(0, grid.shape[0], block):
        wins = _candidate_columns(grid[start : start + block], class_probs) > threshold
        counts[start : start + block] += wins @ signs
    return counts


def optimize_adaptive_weights(
    probs: Sequence[np.ndarray], labels: np.ndarray
) -> np.ndarray:
    """Per-class member weights (classes x members) tuned on labelled probe
    rows, given each member's probability matrix on them.

    Coordinate ascent over one class row at a time on a 0.05-resolution
    simplex grid, starting from uniform weights, in deterministic sweep
    order; a row changes only when it strictly improves probe accuracy
    (the first best grid row wins), so the result never scores below
    uniform.

    Each class is scored against the whole grid at once, in blocks of grid
    rows, from a running class-major copy of the weighted class sums, and
    only on the probe rows whose prediction some grid row can still flip.
    The result is the same, bit for bit, as scoring every grid row with
    ``adaptive_accuracy``: a candidate column is accumulated member by
    member with the rounding of einsum, the other columns stay fixed during
    the trial so the maxima of the columns before and after the class
    decide the first-index argmax, and accuracies are the same ``count / n``
    that ``np.mean`` computes. A class is scored again only once another
    class's column has changed since its last scoring: its scores read only
    the other columns, so until then it would pick the row it holds.
    """
    probs, labels = _labelled_stack(probs, labels)
    m, n, num_classes = probs.shape
    weights = np.full((num_classes, m), 1.0 / m)
    if m == 1:
        return weights
    grid = _simplex_grid(m)
    labels = labels.astype(np.intp, copy=False)
    current = adaptive_accuracy(probs, weights, labels)
    by_class = np.ascontiguousarray(probs.transpose(2, 0, 1))
    sums = np.ascontiguousarray(_class_sums(probs, weights).T)
    stale = [True] * num_classes
    for _ in range(ADAPTIVE_MAX_SWEEPS):
        improved = False
        for cls in range(num_classes):
            if not stale[cls]:
                continue
            stale[cls] = False
            accs = _grid_correct_counts(grid, by_class[cls], sums, labels, cls) / n
            best = int(np.argmax(accs))
            if accs[best] > current:
                weights[cls] = grid[best]
                sums[cls] = _candidate_columns(grid[best : best + 1], by_class[cls])[0]
                current = float(accs[best])
                improved = True
                stale = [c != cls for c in range(num_classes)]
        if not improved:
            break
    return weights


def train_meta(
    probs: Sequence[np.ndarray], labels: np.ndarray, config: ClassifierConfig
) -> DenseNetwork:
    """Stacking: a shallow classifier over the members' probability matrices
    side by side, fitted on labelled probe rows. Apply it to
    ``np.hstack(probs)`` of the same members on any rows."""
    probs, labels = _labelled_stack(probs, labels)
    m, _, num_classes = probs.shape
    cfg = dataclasses.replace(
        config, input_dim=m * num_classes, num_classes=num_classes, hidden_units=0
    )
    return train_classifier(cfg, np.hstack(list(probs)), labels)


def retrain_pooled(
    member_data: list[tuple[np.ndarray, np.ndarray]],
    config: ClassifierConfig,
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
    return ModelArtifact(network=net, input_dim=dims.pop())
