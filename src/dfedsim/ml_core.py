"""From-scratch dense networks: a softmax classifier and an autoencoder
trained with minibatch SGD in float64.

Networks returned by the trainers consume raw (unstandardized) features:
the per-dataset z-score transform used internally for stable training is
folded into the first layer's weights, and the autoencoder's decoder folds
the inverse transform into its output layer. Training is bitwise
deterministic for a given config seed; minibatch shuffling depends only on
(seed, epoch), never on data order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit

from .errors import DimensionMismatch, EmptyDataset
from .rngs import substream

ACTIVATIONS = ("linear", "relu", "sigmoid")


@dataclass
class Layer:
    weights: np.ndarray  # (out_dim, in_dim)
    bias: np.ndarray  # (out_dim,)
    activation: str = "linear"

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        if self.weights.ndim != 2 or self.bias.ndim != 1:
            raise DimensionMismatch("layer expects a 2-D weight matrix and 1-D bias")
        if self.weights.shape[0] != self.bias.shape[0]:
            raise DimensionMismatch(
                f"bias length {self.bias.shape[0]} != weight rows {self.weights.shape[0]}"
            )
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")


@dataclass
class DenseNetwork:
    layers: list[Layer]

    def __post_init__(self):
        if not self.layers:
            raise DimensionMismatch("network needs at least one layer")
        for prev, nxt in zip(self.layers, self.layers[1:]):
            if nxt.weights.shape[1] != prev.weights.shape[0]:
                raise DimensionMismatch(
                    f"layer input {nxt.weights.shape[1]} does not chain from "
                    f"previous output {prev.weights.shape[0]}"
                )
        for layer in self.layers:
            if not (np.all(np.isfinite(layer.weights)) and np.all(np.isfinite(layer.bias))):
                raise ValueError("network parameters must be finite")

    @property
    def input_dim(self) -> int:
        return self.layers[0].weights.shape[1]

    @property
    def output_dim(self) -> int:
        return self.layers[-1].weights.shape[0]

    def forward(self, features: np.ndarray) -> np.ndarray:
        out = _as_matrix(features, self.input_dim)
        for layer in self.layers:
            out = _activate(out @ layer.weights.T + layer.bias, layer.activation)
        return out

    def copy(self) -> "DenseNetwork":
        return DenseNetwork(
            [Layer(l.weights.copy(), l.bias.copy(), l.activation) for l in self.layers]
        )


def _as_matrix(features: np.ndarray, expected_dim: int) -> np.ndarray:
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2:
        raise DimensionMismatch(f"expected a 2-D sample matrix, got ndim={x.ndim}")
    if x.shape[1] != expected_dim:
        raise DimensionMismatch(f"expected {expected_dim} feature columns, got {x.shape[1]}")
    return x


def _activate(z: np.ndarray, kind: str) -> np.ndarray:
    if kind == "linear":
        return z
    if kind == "relu":
        return np.maximum(z, 0.0)
    if kind == "sigmoid":
        return expit(z)
    raise ValueError(f"unknown activation {kind!r}")


def _activate_grad(z: np.ndarray, kind: str) -> np.ndarray:
    if kind == "linear":
        return np.ones_like(z)
    if kind == "relu":
        return (z > 0.0).astype(np.float64)
    if kind == "sigmoid":
        s = expit(z)
        return s * (1.0 - s)
    raise ValueError(f"unknown activation {kind!r}")


def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def predict_proba(net: DenseNetwork, features: np.ndarray) -> np.ndarray:
    """Class probabilities: softmax over the network's final outputs."""
    return softmax(net.forward(features))


def check_probability_matrix(probs: np.ndarray, tol: float = 1e-9) -> None:
    """Raise if ``probs`` is not a valid row-stochastic probability matrix."""
    p = np.asarray(probs)
    if p.ndim != 2:
        raise DimensionMismatch("probability matrix must be 2-D")
    if np.any(p < 0.0) or np.any(p > 1.0):
        raise ValueError("probabilities must lie in [0, 1]")
    deviation = np.abs(p.sum(axis=1) - 1.0)
    if np.any(deviation > tol):
        raise ValueError(f"row sums deviate from 1 by up to {deviation.max():.3g}")


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    y = np.asarray(labels)
    if y.ndim != 1:
        raise DimensionMismatch("labels must be a 1-D array")
    if y.size and (y.min() < 0 or y.max() >= num_classes):
        raise ValueError(f"labels must lie in [0, {num_classes})")
    out = np.zeros((y.shape[0], num_classes), dtype=np.float64)
    out[np.arange(y.shape[0]), y.astype(int)] = 1.0
    return out


def cross_entropy(net: DenseNetwork, features: np.ndarray, labels: np.ndarray) -> float:
    """Mean softmax cross-entropy treating the network output as logits."""
    return _logit_cross_entropy(net.forward(features), labels)


def _logit_cross_entropy(logits: np.ndarray, labels: np.ndarray) -> float:
    y = np.asarray(labels).astype(int)
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_norm = np.log(np.exp(shifted).sum(axis=1))
    picked = shifted[np.arange(logits.shape[0]), y]
    return float(np.mean(log_norm - picked))


def mean_squared_error(net: DenseNetwork, features: np.ndarray, targets: np.ndarray) -> float:
    """Mean over all entries of the squared reconstruction error."""
    out = net.forward(features)
    t = np.asarray(targets, dtype=np.float64)
    if t.shape != out.shape:
        raise DimensionMismatch(f"target shape {t.shape} != output shape {out.shape}")
    return float(np.mean((out - t) ** 2))


def loss_gradients(
    net: DenseNetwork,
    features: np.ndarray,
    target: np.ndarray,
    loss: str = "cross_entropy",
) -> tuple[list[tuple[np.ndarray, np.ndarray]], float]:
    """Analytic parameter gradients of the given loss.

    ``loss`` is "cross_entropy" (target = integer labels) or "mse"
    (target = real matrix matching the output shape). Returns per-layer
    (dW, db) in layer order plus the loss value.
    """
    x = _as_matrix(features, net.input_dim)
    n = x.shape[0]
    if n == 0:
        raise EmptyDataset("cannot compute gradients on an empty batch")

    pre: list[np.ndarray] = []
    post: list[np.ndarray] = [x]
    out = x
    for layer in net.layers:
        z = out @ layer.weights.T + layer.bias
        pre.append(z)
        out = _activate(z, layer.activation)
        post.append(out)

    if loss == "cross_entropy":
        probs = softmax(out)
        y = one_hot(np.asarray(target), net.output_dim)
        value = _logit_cross_entropy(out, target)
        d_out = (probs - y) / n
    elif loss == "mse":
        t = np.asarray(target, dtype=np.float64)
        if t.shape != out.shape:
            raise DimensionMismatch(f"target shape {t.shape} != output shape {out.shape}")
        value = float(np.mean((out - t) ** 2))
        d_out = 2.0 * (out - t) / out.size
    else:
        raise ValueError(f"unknown loss {loss!r}")

    grads: list[tuple[np.ndarray, np.ndarray]] = [None] * len(net.layers)  # type: ignore
    delta = d_out * _activate_grad(pre[-1], net.layers[-1].activation)
    for idx in range(len(net.layers) - 1, -1, -1):
        grads[idx] = (delta.T @ post[idx], delta.sum(axis=0))
        if idx > 0:
            delta = (delta @ net.layers[idx].weights) * _activate_grad(
                pre[idx - 1], net.layers[idx - 1].activation
            )
    return grads, value


def glorot_init(
    dims: list[int], activations: list[str], rng: np.random.Generator
) -> DenseNetwork:
    """Uniform(-r, r) initialization with r = sqrt(6 / (fan_in + fan_out))."""
    if len(dims) != len(activations) + 1:
        raise DimensionMismatch("need one activation per layer")
    layers = []
    for fan_in, fan_out, act in zip(dims, dims[1:], activations):
        r = np.sqrt(6.0 / (fan_in + fan_out))
        w = rng.uniform(-r, r, size=(fan_out, fan_in))
        layers.append(Layer(w, np.zeros(fan_out), act))
    return DenseNetwork(layers)


# ---------------------------------------------------------------- training


@dataclass(frozen=True)
class ClassifierConfig:
    """Hyperparameters of the local classifier.

    ``hidden_units = 0`` drops the hidden layer and trains a plain softmax
    (logistic) classifier, used by the shallow meta-learner.
    """

    input_dim: int
    hidden_units: int = 80
    num_classes: int = 9
    learning_rate: float = 0.01
    epochs: int = 1
    batch_size: int = 32
    seed: int = 0
    shuffle: bool = True
    standardize: bool = True

    def __post_init__(self):
        if self.input_dim < 1 or self.num_classes < 2:
            raise ValueError("input_dim must be >= 1 and num_classes >= 2")
        if self.hidden_units < 0 or self.epochs < 0:
            raise ValueError("hidden_units and epochs must be >= 0")
        if self.learning_rate <= 0 or self.batch_size < 1:
            raise ValueError("learning_rate must be > 0 and batch_size >= 1")


@dataclass(frozen=True)
class AutoencoderConfig:
    input_dim: int
    latent_dim: int = 25
    learning_rate: float = 0.01
    epochs: int = 30
    seed: int = 0
    batch_size: int = 32
    hidden_activation: str = "sigmoid"
    shuffle: bool = True
    standardize: bool = True

    def __post_init__(self):
        if self.input_dim < 1 or self.latent_dim < 1:
            raise ValueError("dimensions must be positive")
        if self.latent_dim > self.input_dim:
            raise ValueError("latent_dim must not exceed input_dim")
        if self.learning_rate <= 0 or self.epochs < 0 or self.batch_size < 1:
            raise ValueError("invalid training hyperparameters")
        if self.hidden_activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.hidden_activation!r}")


def _standardizer(x: np.ndarray, enabled: bool) -> tuple[np.ndarray, np.ndarray]:
    if not enabled:
        return np.zeros(x.shape[1]), np.ones(x.shape[1])
    mean = x.mean(axis=0)
    std = x.std(axis=0)
    std = np.where(std == 0.0, 1.0, std)
    return mean, std


def _fold_input_transform(net: DenseNetwork, mean: np.ndarray, std: np.ndarray) -> DenseNetwork:
    # Rewrite layer 0 so the net consumes raw features: W' = W/std, b' = b - W (mean/std).
    first = net.layers[0]
    w = first.weights / std[np.newaxis, :]
    b = first.bias - first.weights @ (mean / std)
    return DenseNetwork([Layer(w, b, first.activation)] + net.layers[1:])


def _unfold_input_transform(net: DenseNetwork, mean: np.ndarray, std: np.ndarray) -> DenseNetwork:
    first = net.layers[0]
    w = first.weights * std[np.newaxis, :]
    b = first.bias + first.weights @ mean
    return DenseNetwork([Layer(w, b, first.activation)] + net.layers[1:])


def _sgd(
    net: DenseNetwork,
    x: np.ndarray,
    target: np.ndarray,
    loss: str,
    epochs: int,
    learning_rate: float,
    batch_size: int,
    seed: int,
    shuffle: bool,
    stream: str,
) -> DenseNetwork:
    n = x.shape[0]
    for epoch in range(epochs):
        if shuffle:
            order = substream(seed, stream, epoch).permutation(n)
        else:
            order = np.arange(n)
        for start in range(0, n, batch_size):
            idx = order[start : start + batch_size]
            grads, _ = loss_gradients(net, x[idx], target[idx], loss=loss)
            for layer, (dw, db) in zip(net.layers, grads):
                layer.weights -= learning_rate * dw
                layer.bias -= learning_rate * db
    return net


def train_classifier(
    config: ClassifierConfig,
    features: np.ndarray,
    labels: np.ndarray,
    init: DenseNetwork | None = None,
) -> DenseNetwork:
    """Minibatch-SGD training of the softmax classifier.

    With ``init`` the network continues from the given parameters (warm
    start) instead of a fresh seeded initialization; the seed then only
    drives minibatch shuffling.
    """
    x = _as_matrix(features, config.input_dim)
    y = np.asarray(labels).astype(int)
    if x.shape[0] == 0:
        raise EmptyDataset("training needs at least one sample")
    if y.shape[0] != x.shape[0]:
        raise DimensionMismatch(f"{x.shape[0]} samples but {y.shape[0]} labels")
    if y.min() < 0 or y.max() >= config.num_classes:
        raise ValueError(f"labels must lie in [0, {config.num_classes})")

    mean, std = _standardizer(x, config.standardize)
    xs = (x - mean) / std

    if init is None:
        if config.hidden_units > 0:
            dims = [config.input_dim, config.hidden_units, config.num_classes]
            acts = ["relu", "linear"]
        else:
            dims = [config.input_dim, config.num_classes]
            acts = ["linear"]
        net = glorot_init(dims, acts, substream(config.seed, "classifier-init"))
    else:
        if init.input_dim != config.input_dim or init.output_dim != config.num_classes:
            raise DimensionMismatch("init network does not match the config dimensions")
        net = _unfold_input_transform(init.copy(), mean, std)

    net = _sgd(
        net, xs, y, "cross_entropy",
        config.epochs, config.learning_rate, config.batch_size,
        config.seed, config.shuffle, "classifier-shuffle",
    )
    return _fold_input_transform(net, mean, std)


def train_autoencoder(
    config: AutoencoderConfig, features: np.ndarray
) -> tuple[DenseNetwork, DenseNetwork]:
    """Train a single-hidden-layer autoencoder; returns (encoder, decoder).

    The encoder maps raw features to the latent space; the decoder maps
    latent codes back to raw feature space (the internal z-score transform
    is folded into both).
    """
    x = _as_matrix(features, config.input_dim)
    if x.shape[0] == 0:
        raise EmptyDataset("training needs at least one sample")

    mean, std = _standardizer(x, config.standardize)
    xs = (x - mean) / std

    rng = substream(config.seed, "autoencoder-init")
    net = glorot_init(
        [config.input_dim, config.latent_dim, config.input_dim],
        [config.hidden_activation, "linear"],
        rng,
    )
    net = _sgd(
        net, xs, xs, "mse",
        config.epochs, config.learning_rate, config.batch_size,
        config.seed, config.shuffle, "autoencoder-shuffle",
    )

    enc_layer = net.layers[0]
    dec_layer = net.layers[1]
    encoder = _fold_input_transform(DenseNetwork([enc_layer]), mean, std)
    # Un-standardize the decoder output: x_raw = std * x_std + mean.
    dec_w = dec_layer.weights * std[:, np.newaxis]
    dec_b = dec_layer.bias * std + mean
    decoder = DenseNetwork([Layer(dec_w, dec_b, "linear")])
    return encoder, decoder


# ------------------------------------------------------------ serialization

FORMAT_VERSION = 1


def save_network(net: DenseNetwork, path) -> None:
    """Write a flat, versioned dump of layer shapes and parameters (.npz)."""
    payload: dict[str, np.ndarray] = {
        "format_version": np.array([FORMAT_VERSION], dtype=np.int64),
        "num_layers": np.array([len(net.layers)], dtype=np.int64),
        "activations": np.array([l.activation for l in net.layers]),
    }
    for i, layer in enumerate(net.layers):
        payload[f"w{i}"] = layer.weights
        payload[f"b{i}"] = layer.bias
    np.savez(path, **payload)


def load_network(path) -> DenseNetwork:
    with np.load(path, allow_pickle=False) as data:
        version = int(data["format_version"][0])
        if version != FORMAT_VERSION:
            raise ValueError(f"unsupported network format version {version}")
        count = int(data["num_layers"][0])
        activations = [str(a) for a in data["activations"]]
        layers = [
            Layer(data[f"w{i}"], data[f"b{i}"], activations[i]) for i in range(count)
        ]
    return DenseNetwork(layers)
