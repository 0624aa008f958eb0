"""Combine member models four ways and score each combination.

Three members each train on their own modest slice of a ring-sector
problem. Aggregation works in probability space: members report class
probabilities and the combiner merges them, and the merged model beats
every individual member. The four methods differ in how much they trust
each member.
"""

import numpy as np

from dfedsim import (
    ClassifierConfig,
    DatasetSchema,
    ModelArtifact,
    ProbeSet,
    adaptive_average,
    aggregate_weighted,
    artifact_probabilities,
    gen_ring_sectors,
    member_probabilities,
    optimize_adaptive_weights,
    retrain_pooled,
    train_classifier,
    train_meta,
)

schema = DatasetSchema(num_features=60, num_classes=9)
features, labels = gen_ring_sectors(schema, 2400, seed=21, sectors=9, latent_factors=8)
test_x, test_y = features[1800:], labels[1800:]
probe = ProbeSet(features=features[1600:1800], labels=labels[1600:1800])

config = ClassifierConfig(input_dim=60, hidden_units=40, num_classes=9,
                          learning_rate=0.05, epochs=12, seed=9)

# members see disjoint, deliberately uneven slices
slices = [(0, 400), (400, 1000), (1000, 1600)]
members = []
member_data = []
for device_id, (lo, hi) in enumerate(slices):
    net = train_classifier(config, features[lo:hi], labels[lo:hi])
    members.append(ModelArtifact(network=net, source_id=device_id, input_dim=60))
    member_data.append((features[lo:hi], labels[lo:hi]))


def acc(probs):
    return float(np.mean(probs.argmax(axis=1) == test_y))


stack = member_probabilities(members, ProbeSet(features=test_x))  # (members, n, classes)
for device_id in range(len(members)):
    print(f"member {device_id} alone: {acc(stack[device_id]):.3f}")

print(f"\nuniform averaging:      {acc(stack.mean(axis=0)):.3f}")

# per-class weights tuned on the labeled probe slice, applied to test data
weight_matrix = optimize_adaptive_weights(members, probe)
print(f"adaptive averaging:     {acc(adaptive_average(stack, weight_matrix)):.3f}")

meta = train_meta(members, probe, config)
print(f"meta-learner stacking:  {acc(artifact_probabilities(meta, test_x)):.3f}")

pooled = retrain_pooled(member_data, config)
print(f"retraining on the pool: {acc(artifact_probabilities(pooled, test_x)):.3f}")

# the artifact that travels onward is always a real member model, chosen
# as the one closest to the averaged probabilities
selected, _ = aggregate_weighted(members, probe)
print(f"\nmember forwarded as the cluster's artifact: device {selected.source_id}")
