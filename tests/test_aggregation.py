"""Aggregation methods: averaging, adaptive weights, stacking, retraining."""

import math

import numpy as np
import pytest

from test_ml_core import check_probability_matrix

from dfedsim.aggregation import (
    ADAPTIVE_GRID_STEP,
    ADAPTIVE_MAX_SWEEPS,
    ModelArtifact,
    ProbeSet,
    _adaptive_weights,
    _simplex_grid,
    adaptive_accuracy,
    adaptive_average,
    aggregate_weighted,
    artifact_probabilities,
    member_probabilities,
    optimize_adaptive_weights,
    retrain_pooled,
    train_meta,
)
from dfedsim.config import AggregationMethod
from dfedsim.errors import (
    DimensionMismatch,
    EmptyDataset,
    EmptyMemberList,
    MissingLabels,
)
from dfedsim.ml_core import (
    ClassifierConfig,
    DenseNetwork,
    Layer,
    glorot_init,
    predict_proba,
    softmax,
    train_classifier,
)


def make_artifact(rng, source_id, feature_dim=6, classes=3, net=None):
    if net is None:
        net = glorot_init([feature_dim, classes], ["linear"], rng)
    return ModelArtifact(network=net, source_id=source_id, input_dim=feature_dim)


def make_probe(rng, n=40, feature_dim=6, classes=3, labeled=True):
    labels = rng.integers(0, classes, size=n) if labeled else None
    return ProbeSet(features=rng.normal(size=(n, feature_dim)), labels=labels)


def test_identical_members_average_to_themselves():
    rng = np.random.default_rng(601)
    net = glorot_init([6, 3], ["linear"], rng)
    members = [make_artifact(rng, 3, net=net), make_artifact(rng, 1, net=net)]
    probe = make_probe(rng, labeled=False)
    selected, avg = aggregate_weighted(members, probe)
    assert np.array_equal(avg, artifact_probabilities(members[0], probe.features))
    assert selected.source_id == 1  # distance tie, lower id


def test_degenerate_weights_select_the_weighted_member():
    rng = np.random.default_rng(602)
    members = [make_artifact(rng, 0), make_artifact(rng, 1)]
    probe = make_probe(rng, labeled=False)
    selected, avg = aggregate_weighted(members, probe, weights=np.array([1.0, 0.0]))
    assert np.array_equal(avg, artifact_probabilities(members[0], probe.features))
    assert selected.source_id == 0


def test_selection_matches_exhaustive_distance_recomputation():
    rng = np.random.default_rng(603)
    for trial in range(100):
        members = [make_artifact(rng, i) for i in range(3)]
        probe = make_probe(rng, n=int(rng.integers(5, 30)), labeled=False)
        selected, avg = aggregate_weighted(members, probe)
        probs = [artifact_probabilities(m, probe.features) for m in members]
        dists = [float(np.sqrt(((p - avg) ** 2).sum())) for p in probs]
        assert selected.source_id == int(np.argmin(dists)), f"trial {trial}"


def test_average_is_a_convex_combination():
    rng = np.random.default_rng(604)
    members = [make_artifact(rng, i) for i in range(3)]
    probe = make_probe(rng, labeled=False)
    _, avg = aggregate_weighted(members, probe)
    check_probability_matrix(avg, tol=1e-9)
    probs = np.stack([artifact_probabilities(m, probe.features) for m in members])
    assert np.all(avg >= probs.min(axis=0) - 1e-12)
    assert np.all(avg <= probs.max(axis=0) + 1e-12)


def test_duplicating_the_winner_does_not_change_the_winning_model():
    rng = np.random.default_rng(605)
    for _ in range(20):
        members = [make_artifact(rng, i) for i in range(2)]
        probe = make_probe(rng, labeled=False)
        selected, _ = aggregate_weighted(members, probe)
        clones = members + [
            ModelArtifact(
                network=selected.network,
                source_id=10 + i,
                input_dim=selected.input_dim,
            )
            for i in range(2)
        ]
        again, _ = aggregate_weighted(clones, probe)
        assert again.network is selected.network


def test_aggregate_error_contracts():
    rng = np.random.default_rng(606)
    probe = make_probe(rng, labeled=False)
    with pytest.raises(EmptyMemberList):
        aggregate_weighted([], probe)
    mixed = [make_artifact(rng, 0, feature_dim=6), make_artifact(rng, 1, feature_dim=6, classes=4)]
    with pytest.raises(DimensionMismatch):
        aggregate_weighted(mixed, probe)
    # same class count, but one member consumes a wider probe row
    wide = [make_artifact(rng, 0, feature_dim=6), make_artifact(rng, 1, feature_dim=7)]
    with pytest.raises(DimensionMismatch):
        aggregate_weighted(wide, probe)
    members = [make_artifact(rng, 0), make_artifact(rng, 1)]
    with pytest.raises(ValueError):
        aggregate_weighted(members, probe, weights=np.array([0.7, 0.7]))
    with pytest.raises(ValueError):
        ModelArtifact(members[0].network, 0, input_dim=0)


def test_adaptive_single_member_is_forced_uniform():
    rng = np.random.default_rng(607)
    members = [make_artifact(rng, 0)]
    probe = make_probe(rng)
    w = optimize_adaptive_weights(members, probe)
    assert w.shape == (3, 1)
    assert np.all(w == 1.0)


def _perfect_and_uniform_members(rng, n=60, classes=3):
    labels = rng.integers(0, classes, size=n)
    features = np.eye(classes)[labels] * 4.0 + rng.normal(size=(n, classes)) * 0.05
    sharp = DenseNetwork([Layer(np.eye(classes) * 5.0, np.zeros(classes))])
    flat = DenseNetwork([Layer(np.zeros((classes, classes)), np.zeros(classes))])
    a = ModelArtifact(sharp, 0, classes)
    b = ModelArtifact(flat, 1, classes)
    return [a, b], ProbeSet(features=features, labels=labels)


def test_adaptive_concentrates_on_the_perfect_member():
    rng = np.random.default_rng(608)
    members, probe = _perfect_and_uniform_members(rng)
    probs = member_probabilities(members, probe)
    solo = float(np.mean(probs[0].argmax(axis=1) == probe.labels))
    assert solo == 1.0
    w = optimize_adaptive_weights(members, probe)
    achieved = adaptive_accuracy(probs, w, probe.labels)
    assert achieved == solo
    assert np.all(w[:, 0] >= 0.5)


def test_adaptive_never_scores_below_uniform():
    rng = np.random.default_rng(609)
    for trial in range(40):
        m = int(rng.integers(2, 4))
        members = [make_artifact(rng, i) for i in range(m)]
        probe = make_probe(rng, n=int(rng.integers(10, 50)))
        probs = member_probabilities(members, probe)
        uniform = np.full((3, m), 1.0 / m)
        base = adaptive_accuracy(probs, uniform, probe.labels)
        w = optimize_adaptive_weights(members, probe)
        assert adaptive_accuracy(probs, w, probe.labels) >= base, f"trial {trial}"
        assert np.allclose(w.sum(axis=1), 1.0)
        assert np.all(w >= 0.0)


def test_adaptive_matches_exhaustive_grid_for_two_members():
    """Oracle: exhaustive search over per-class rows at the same resolution,
    greedily per class in the same order (two members, tiny grid)."""
    rng = np.random.default_rng(610)
    for trial in range(10):
        members = [make_artifact(rng, i) for i in range(2)]
        probe = make_probe(rng, n=25)
        probs = member_probabilities(members, probe)
        got = optimize_adaptive_weights(members, probe)
        achieved = adaptive_accuracy(probs, got, probe.labels)

        ticks = round(1.0 / ADAPTIVE_GRID_STEP)
        rows = [np.array([t / ticks, 1.0 - t / ticks]) for t in range(ticks + 1)]
        weights = np.full((3, 2), 0.5)
        current = adaptive_accuracy(probs, weights, probe.labels)
        for _ in range(50):
            improved = False
            for cls in range(3):
                best_acc, best_row = current, weights[cls].copy()
                trial_w = weights.copy()
                for row in rows:
                    trial_w[cls] = row
                    acc = adaptive_accuracy(probs, trial_w, probe.labels)
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
        got = _adaptive_weights(probs, labels)
        assert got.tobytes() == expected.tobytes(), f"trial {trial}"


def test_adaptive_requires_labels():
    rng = np.random.default_rng(611)
    members = [make_artifact(rng, 0), make_artifact(rng, 1)]
    with pytest.raises(MissingLabels):
        optimize_adaptive_weights(members, make_probe(rng, labeled=False))
    with pytest.raises(EmptyMemberList):
        optimize_adaptive_weights([], make_probe(rng))


def test_adaptive_average_is_row_stochastic():
    rng = np.random.default_rng(612)
    members = [make_artifact(rng, i) for i in range(3)]
    probe = make_probe(rng)
    probs = member_probabilities(members, probe)
    w = optimize_adaptive_weights(members, probe)
    check_probability_matrix(adaptive_average(probs, w), tol=1e-9)


def test_meta_reaches_perfect_member_performance():
    rng = np.random.default_rng(613)
    members, probe = _perfect_and_uniform_members(rng, n=120)
    cfg = ClassifierConfig(input_dim=1, hidden_units=0, num_classes=3,
                           epochs=300, learning_rate=0.5, seed=4)
    meta = train_meta(members, probe, cfg)
    assert meta.meta_members == tuple(members)
    probs = artifact_probabilities(meta, probe.features)
    assert float(np.mean(probs.argmax(axis=1) == probe.labels)) >= 0.99


def test_meta_zero_epochs_and_determinism():
    rng = np.random.default_rng(614)
    members = [make_artifact(rng, i) for i in range(2)]
    probe = make_probe(rng)
    cfg = ClassifierConfig(input_dim=1, hidden_units=0, num_classes=3, epochs=0, seed=5)
    a = train_meta(members, probe, cfg)
    b = train_meta(members, probe, cfg)
    assert np.array_equal(a.network.layers[0].weights, b.network.layers[0].weights)
    # input side: 2 members x 3 classes
    assert a.network.input_dim == 6
    with pytest.raises(MissingLabels):
        train_meta(members, make_probe(rng, labeled=False), cfg)


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
        source_id=0,
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
