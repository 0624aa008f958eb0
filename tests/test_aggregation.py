"""Aggregation methods: averaging, adaptive weights, stacking, retraining."""

import math

import numpy as np
import pytest

from test_ml_core import check_probability_matrix

from dfedsim import aggregation
from dfedsim.aggregation import (
    ADAPTIVE_GRID_STEP,
    ADAPTIVE_MAX_SWEEPS,
    ModelArtifact,
    _simplex_grid,
    adaptive_accuracy,
    adaptive_average,
    aggregate_weighted,
    artifact_probabilities,
    optimize_adaptive_weights,
    retrain_pooled,
    train_meta,
)
from dfedsim.config import AggregationMethod
from dfedsim.errors import DimensionMismatch, EmptyDataset
from dfedsim.ml_core import (
    ClassifierConfig,
    DenseNetwork,
    Layer,
    glorot_init,
    predict_proba,
    softmax,
    train_classifier,
)


def make_probs(rng, m, n=40, feature_dim=6, classes=3):
    """m random linear members' probability matrices on n shared rows."""
    x = rng.normal(size=(n, feature_dim))
    return [predict_proba(glorot_init([feature_dim, classes], ["linear"], rng), x) for _ in range(m)]


def make_labels(rng, n=40, classes=3):
    return rng.integers(0, classes, size=n)


def test_weighted_average_is_the_plain_mean_of_the_stack():
    rng = np.random.default_rng(601)
    for m in (1, 2, 3, 5):
        probs = make_probs(rng, m)
        assert aggregate_weighted(probs).tobytes() == np.stack(probs).mean(axis=0).tobytes()


def test_identical_members_average_to_themselves():
    (p,) = make_probs(np.random.default_rng(602), 1)
    assert np.array_equal(aggregate_weighted([p, p]), p)


def test_average_is_a_convex_combination():
    rng = np.random.default_rng(604)
    probs = make_probs(rng, 3)
    avg = aggregate_weighted(probs)
    check_probability_matrix(avg, tol=1e-9)
    assert np.all(avg >= np.min(probs, axis=0) - 1e-12)
    assert np.all(avg <= np.max(probs, axis=0) + 1e-12)


def test_aggregate_error_contracts():
    rng = np.random.default_rng(606)
    with pytest.raises(ValueError):
        aggregate_weighted([])
    # members must share one row count and one class count
    for mixed in (
        [make_probs(rng, 1)[0], make_probs(rng, 1, classes=4)[0]],
        [make_probs(rng, 1)[0], make_probs(rng, 1, n=41)[0]],
    ):
        with pytest.raises(ValueError):
            aggregate_weighted(mixed)
        with pytest.raises(ValueError):
            optimize_adaptive_weights(mixed, make_labels(rng))
    net = glorot_init([6, 3], ["linear"], rng)
    with pytest.raises(ValueError):
        ModelArtifact(net, input_dim=0)


def test_adaptive_and_meta_need_one_label_per_probe_row():
    rng = np.random.default_rng(611)
    probs = make_probs(rng, 2)
    cfg = ClassifierConfig(input_dim=1, hidden_units=0, num_classes=3, epochs=1, seed=5)
    for labels in (make_labels(rng, n=39), make_labels(rng, n=41), make_labels(rng)[None, :]):
        with pytest.raises(DimensionMismatch):
            optimize_adaptive_weights(probs, labels)
        with pytest.raises(DimensionMismatch):
            train_meta(probs, labels, cfg)


def test_adaptive_and_meta_need_a_probe_row(recwarn):
    probs, labels = [np.empty((0, 3))] * 2, np.empty(0, dtype=int)
    cfg = ClassifierConfig(input_dim=1, hidden_units=0, num_classes=3, epochs=1, seed=5)
    with pytest.raises(EmptyDataset):
        optimize_adaptive_weights(probs, labels)
    with pytest.raises(EmptyDataset):
        train_meta(probs, labels, cfg)
    assert not recwarn.list


def test_adaptive_and_meta_need_labels_among_the_classes():
    rng = np.random.default_rng(620)
    probs = make_probs(rng, 2)
    cfg = ClassifierConfig(input_dim=1, hidden_units=0, num_classes=3, epochs=1, seed=5)
    for bad in (-1, 3):
        labels = make_labels(rng)
        labels[7] = bad
        with pytest.raises(ValueError, match=r"labels must lie in \[0, 3\)"):
            optimize_adaptive_weights(probs, labels)
        with pytest.raises(ValueError, match=r"labels must lie in \[0, 3\)"):
            train_meta(probs, labels, cfg)


def test_adaptive_single_member_is_forced_uniform():
    rng = np.random.default_rng(607)
    w = optimize_adaptive_weights(make_probs(rng, 1), make_labels(rng))
    assert w.shape == (3, 1)
    assert np.all(w == 1.0)


def _perfect_and_uniform_members(rng, n=60, classes=3):
    """A sharp member that is right on every row and a flat one that says
    nothing: their probability matrices, and the rows' labels."""
    labels = rng.integers(0, classes, size=n)
    features = np.eye(classes)[labels] * 4.0 + rng.normal(size=(n, classes)) * 0.05
    sharp = DenseNetwork([Layer(np.eye(classes) * 5.0, np.zeros(classes))])
    flat = DenseNetwork([Layer(np.zeros((classes, classes)), np.zeros(classes))])
    return [predict_proba(sharp, features), predict_proba(flat, features)], labels


def test_adaptive_concentrates_on_the_perfect_member():
    rng = np.random.default_rng(608)
    probs, labels = _perfect_and_uniform_members(rng)
    solo = float(np.mean(probs[0].argmax(axis=1) == labels))
    assert solo == 1.0
    w = optimize_adaptive_weights(probs, labels)
    achieved = adaptive_accuracy(np.stack(probs), w, labels)
    assert achieved == solo
    assert np.all(w[:, 0] >= 0.5)


def test_adaptive_never_scores_below_uniform():
    rng = np.random.default_rng(609)
    for trial in range(40):
        m = int(rng.integers(2, 4))
        n = int(rng.integers(10, 50))
        probs, labels = np.stack(make_probs(rng, m, n=n)), make_labels(rng, n=n)
        uniform = np.full((3, m), 1.0 / m)
        base = adaptive_accuracy(probs, uniform, labels)
        w = optimize_adaptive_weights(probs, labels)
        assert adaptive_accuracy(probs, w, labels) >= base, f"trial {trial}"
        assert np.allclose(w.sum(axis=1), 1.0)
        assert np.all(w >= 0.0)


def test_adaptive_matches_exhaustive_grid_for_two_members():
    """Oracle: exhaustive search over per-class rows at the same resolution,
    greedily per class in the same order (two members, tiny grid)."""
    rng = np.random.default_rng(610)
    for trial in range(10):
        probs, labels = np.stack(make_probs(rng, 2, n=25)), make_labels(rng, n=25)
        got = optimize_adaptive_weights(probs, labels)
        achieved = adaptive_accuracy(probs, got, labels)

        ticks = round(1.0 / ADAPTIVE_GRID_STEP)
        rows = [np.array([t / ticks, 1.0 - t / ticks]) for t in range(ticks + 1)]
        weights = np.full((3, 2), 0.5)
        current = adaptive_accuracy(probs, weights, labels)
        for _ in range(50):
            improved = False
            for cls in range(3):
                best_acc, best_row = current, weights[cls].copy()
                trial_w = weights.copy()
                for row in rows:
                    trial_w[cls] = row
                    acc = adaptive_accuracy(probs, trial_w, labels)
                    if acc > best_acc:
                        best_acc, best_row = acc, row.copy()
                if best_acc > current:
                    weights[cls] = best_row
                    current = best_acc
                    improved = True
            if not improved:
                break
        assert achieved == current, f"trial {trial}"


def _recursive_simplex_grid(m):
    """The recursive generator the grid was once built by, one weight
    vector at a time: the oracle for its rows and their order."""
    ticks = round(1.0 / ADAPTIVE_GRID_STEP)

    def rec(remaining, parts):
        if parts == 1:
            yield (remaining,)
            return
        for first in range(remaining + 1):
            for rest in rec(remaining - first, parts - 1):
                yield (first,) + rest

    for combo in rec(ticks, m):
        yield np.array(combo, dtype=np.float64) / ticks


@pytest.mark.parametrize("m", range(1, 7))
def test_simplex_grid_equals_the_recursive_generator(m):
    grid = _simplex_grid(m)
    expected = np.array(list(_recursive_simplex_grid(m)))
    assert grid.dtype == np.float64
    assert grid.shape == expected.shape == (math.comb(19 + m, m - 1), m)
    assert grid.tobytes() == expected.tobytes()
    # built once per member count, and shared read-only
    assert _simplex_grid(m) is grid
    assert not grid.flags.writeable


def _per_row_adaptive_weights(probs, labels):
    """The search scoring one grid row per adaptive_accuracy call: the oracle
    for the blockwise grid scoring, kept as the loop it replaced."""
    m, _, num_classes = probs.shape
    weights = np.full((num_classes, m), 1.0 / m)
    if m == 1:
        return weights
    grid = list(_simplex_grid(m))
    current = adaptive_accuracy(probs, weights, labels)
    for _ in range(ADAPTIVE_MAX_SWEEPS):
        improved = False
        for cls in range(num_classes):
            best_row = weights[cls].copy()
            best_acc = current
            trial = weights.copy()
            for row in grid:
                trial[cls] = row
                acc = adaptive_accuracy(probs, trial, labels)
                if acc > best_acc:
                    best_acc = acc
                    best_row = row.copy()
            if best_acc > current:
                weights[cls] = best_row
                current = best_acc
                improved = True
        if not improved:
            break
    return weights


def test_grid_scoring_matches_the_per_row_search_bit_for_bit():
    rng = np.random.default_rng(614)
    for trial in range(201):
        # four members span several grid blocks, but their 1771-row grid
        # makes the oracle slow, so they come rarer and with smaller probes
        m = 4 if trial % 25 == 0 else 2 + trial % 2
        classes = 9 if rng.random() < 1 / 3 else 3
        n = int(np.exp(rng.uniform(np.log(25), np.log(201 if m == 4 else 701))))
        logits = rng.normal(scale=rng.uniform(0.5, 3.0), size=(m, n, classes))
        if trial % 3 == 0:
            logits = np.round(logits)  # equal logits force argmax ties
        probs = np.stack([softmax(z) for z in logits])
        labels = rng.integers(0, classes, size=n)
        expected = _per_row_adaptive_weights(probs, labels)
        got = optimize_adaptive_weights(probs, labels)
        assert got.tobytes() == expected.tobytes(), f"trial {trial}"


def _identical_members_with_ties(rng, m, n, classes):
    """m copies of one member whose top class ties another class on about
    half the rows. A grid row's weighted sum of equal values rounds to either
    side of that value, so a tied row is won or lost by one ulp."""
    logits = rng.normal(scale=2.0, size=(n, classes))
    top = logits.argmax(axis=1)
    other = (top + rng.integers(1, classes, size=n)) % classes
    tied = np.flatnonzero(rng.random(n) < 0.5)
    logits[tied, other[tied]] = logits[tied, top[tied]]
    return np.stack([softmax(logits)] * m)


def test_grid_scoring_keeps_rounding_slack_on_tied_identical_members():
    # the members' min and max bound every candidate only up to rounding:
    # bounds without slack call these tied rows won or lost for every grid row
    rng = np.random.default_rng(618)
    for trial in range(120):
        m = 3 if trial % 10 == 0 else 2
        classes = int(rng.integers(2, 6))
        n = int(rng.integers(10, 60))
        probs = _identical_members_with_ties(rng, m, n, classes)
        labels = rng.integers(0, classes, size=n)
        expected = _per_row_adaptive_weights(probs, labels)
        got = optimize_adaptive_weights(probs, labels)
        assert got.tobytes() == expected.tobytes(), f"trial {trial}"


def test_grid_search_rescores_a_class_only_after_another_column_changed(monkeypatch):
    # a class's scores read only the other class columns of the running sums
    # (class-major), so scoring it again before one of them changed is waste
    scored = []
    score = aggregation._grid_correct_counts

    def recording(grid, class_probs, sums, labels, cls):
        scored.append((cls, sums.copy()))
        return score(grid, class_probs, sums, labels, cls)

    monkeypatch.setattr(aggregation, "_grid_correct_counts", recording)
    rng = np.random.default_rng(619)
    for trial in range(6):
        m, classes, n = 2 + trial % 2, 3 + trial % 3, 120
        logits = rng.normal(scale=2.0, size=(m, n, classes))
        probs = np.stack([softmax(z) for z in logits])
        labels = rng.integers(0, classes, size=n)
        scored.clear()
        got = optimize_adaptive_weights(probs, labels)
        assert got.tobytes() == _per_row_adaptive_weights(probs, labels).tobytes()
        assert np.any(got != 1.0 / m), f"trial {trial}: no class column changed"
        last = {}
        for cls, sums in scored:
            others = np.arange(classes) != cls
            if cls in last:
                assert not np.array_equal(sums[others], last[cls][others]), f"trial {trial}"
            last[cls] = sums


def test_adaptive_average_is_row_stochastic():
    rng = np.random.default_rng(612)
    probs, labels = make_probs(rng, 3), make_labels(rng)
    w = optimize_adaptive_weights(probs, labels)
    check_probability_matrix(adaptive_average(np.stack(probs), w), tol=1e-9)


def test_meta_reaches_perfect_member_performance():
    rng = np.random.default_rng(613)
    probs, labels = _perfect_and_uniform_members(rng, n=120)
    cfg = ClassifierConfig(input_dim=1, hidden_units=0, num_classes=3,
                           epochs=300, learning_rate=0.5, seed=4)
    stacker = train_meta(probs, labels, cfg)
    out = predict_proba(stacker, np.hstack(probs))
    assert float(np.mean(out.argmax(axis=1) == labels)) >= 0.99


def test_meta_zero_epochs_and_determinism():
    rng = np.random.default_rng(614)
    probs, labels = make_probs(rng, 2), make_labels(rng)
    cfg = ClassifierConfig(input_dim=1, hidden_units=0, num_classes=3, epochs=0, seed=5)
    a = train_meta(probs, labels, cfg)
    b = train_meta(probs, labels, cfg)
    assert np.array_equal(a.layers[0].weights, b.layers[0].weights)
    # input side: 2 members x 3 classes
    assert a.input_dim == 6


def test_retrain_single_member_equals_direct_training():
    rng = np.random.default_rng(615)
    x = rng.normal(size=(50, 4))
    y = rng.integers(0, 3, 50)
    cfg = ClassifierConfig(input_dim=4, hidden_units=5, num_classes=3, epochs=3, seed=6)
    direct = train_classifier(cfg, x, y)
    pooled = retrain_pooled([(x, y)], cfg)
    for la, lb in zip(direct.layers, pooled.network.layers):
        assert np.array_equal(la.weights, lb.weights)
        assert np.array_equal(la.bias, lb.bias)


def test_retrain_pooled_covers_both_classes():
    rng = np.random.default_rng(616)
    xa = rng.normal(size=(80, 3)) + np.array([4.0, 0.0, 0.0])
    xb = rng.normal(size=(80, 3)) - np.array([4.0, 0.0, 0.0])
    ya, yb = np.zeros(80, dtype=int), np.ones(80, dtype=int)
    cfg = ClassifierConfig(input_dim=3, hidden_units=6, num_classes=2, epochs=60, seed=7)
    artifact = retrain_pooled([(xa, ya), (xb, yb)], cfg)
    acc_a = np.mean(predict_proba(artifact.network, xa).argmax(axis=1) == ya)
    acc_b = np.mean(predict_proba(artifact.network, xb).argmax(axis=1) == yb)
    assert acc_a >= 0.95 and acc_b >= 0.95


def test_retrain_error_contracts():
    cfg = ClassifierConfig(input_dim=3, num_classes=2)
    with pytest.raises(EmptyDataset):
        retrain_pooled([], cfg)
    with pytest.raises(DimensionMismatch):
        retrain_pooled(
            [(np.zeros((5, 3)), np.zeros(5, dtype=int)), (np.zeros((5, 4)), np.zeros(5, dtype=int))],
            cfg,
        )


def test_artifact_pipeline_applies_subset_then_encoder():
    rng = np.random.default_rng(617)
    encoder = glorot_init([4, 2], ["sigmoid"], rng)
    head = glorot_init([2, 3], ["linear"], rng)
    # a heterogeneous device ships one network whose first layer is its encoder
    artifact = ModelArtifact(
        network=DenseNetwork(encoder.layers + head.layers),
        input_dim=10,
        feature_indices=(9, 0, 3, 5),
    )
    x = rng.normal(size=(8, 10))
    manual = predict_proba(head, encoder.forward(x[:, [9, 0, 3, 5]]))
    assert np.array_equal(artifact_probabilities(artifact, x), manual)
    # the width check is on the raw probe row, before the column projection:
    # these rows hold every projected column, but are not 10 wide
    for width in (9, 11):
        with pytest.raises(DimensionMismatch):
            artifact_probabilities(artifact, rng.normal(size=(8, width)))


def test_method_enum_values():
    assert AggregationMethod("weighted") is AggregationMethod.WEIGHTED_AVERAGING
    assert AggregationMethod("adaptive") is AggregationMethod.ADAPTIVE_WEIGHTED_AVERAGING
    assert AggregationMethod("meta") is AggregationMethod.META_LEARNING
    assert AggregationMethod("retrain") is AggregationMethod.RETRAINING
