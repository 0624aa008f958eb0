"""Combine member models four ways and score each combination.

Three members each train on their own modest slice of a ring-sector
problem. Aggregation works in probability space: each member reports its
class probabilities on a labelled probe slice and on the test rows, and
the combiner merges those stacks, fitting on the probe and applying the
fit to the test rows. The merged output beats every individual member.
The four methods differ in how much they trust each member.
"""

import numpy as np

from dfedsim import (
    ClassifierConfig,
    DatasetSchema,
    ModelArtifact,
    adaptive_average,
    aggregate_weighted,
    artifact_probabilities,
    gen_ring_sectors,
    optimize_adaptive_weights,
    predict_proba,
    retrain_pooled,
    train_classifier,
    train_meta,
)

schema = DatasetSchema(num_features=60, num_classes=9)
features, labels = gen_ring_sectors(schema, 2400, seed=21, sectors=9, latent_factors=8)
test_x, test_y = features[1800:], labels[1800:]
probe_x, probe_y = features[1600:1800], labels[1600:1800]

config = ClassifierConfig(input_dim=60, hidden_units=40, num_classes=9,
                          learning_rate=0.05, epochs=12, seed=9)

# members see disjoint, deliberately uneven slices
slices = [(0, 400), (400, 1000), (1000, 1600)]
members = []
member_data = []
for lo, hi in slices:
    net = train_classifier(config, features[lo:hi], labels[lo:hi])
    members.append(ModelArtifact(network=net, input_dim=60))
    member_data.append((features[lo:hi], labels[lo:hi]))


def acc(probs):
    return float(np.mean(probs.argmax(axis=1) == test_y))


# one probability matrix per member, on the probe and on the test rows
on_probe = [artifact_probabilities(m, probe_x) for m in members]
on_test = [artifact_probabilities(m, test_x) for m in members]
for device_id, probs in enumerate(on_test):
    print(f"member {device_id} alone: {acc(probs):.3f}")

print(f"\nuniform averaging:      {acc(aggregate_weighted(on_test)):.3f}")

# per-class weights tuned on the labelled probe, applied to test data
weight_matrix = optimize_adaptive_weights(on_probe, probe_y)
print(f"adaptive averaging:     {acc(adaptive_average(np.stack(on_test), weight_matrix)):.3f}")

# a stacker over the members' probabilities side by side
stacker = train_meta(on_probe, probe_y, config)
print(f"meta-learner stacking:  {acc(predict_proba(stacker, np.hstack(on_test))):.3f}")

pooled = retrain_pooled(member_data, config)
print(f"retraining on the pool: {acc(artifact_probabilities(pooled, test_x)):.3f}")
