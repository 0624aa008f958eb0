"""From-scratch dense networks: a softmax classifier and an autoencoder
trained with minibatch SGD in float64.

Networks returned by the trainers consume raw (unstandardized) features:
the per-dataset z-score transform used internally for stable training is
folded into the first layer's weights, and the autoencoder's decoder folds
the inverse transform into its output layer. Training is bitwise
deterministic for a given config seed; minibatch shuffling depends only on
(seed, epoch), never on data order. Equal-shaped networks of several
devices train in one stacked SGD pass, and each comes out bit for bit as
if it had trained alone. The parameter arrays of every network the
trainers return are read-only, so callers may share one.

Both trainers run one fit path, `_fit`: it checks the configs and rows,
takes the scales, starts each network, runs `_sgd` and hands each trained
network to the trainer's finishing step, which folds the classifier and
splits the autoencoder into its encoder and decoder. Scoring and training
run one forward pass, `_forward`, on a stack of networks (a lone network
is a stack of one), and `cross_entropy` is the loss of `loss_gradients`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DimensionMismatch, EmptyDataset, TrainingDiverged
from .rngs import substream

ACTIVATIONS = ("linear", "relu", "sigmoid")

# minibatch size of every autoencoder fit
AUTOENCODER_BATCH_SIZE = 32


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
        x = _as_matrix(features, self.input_dim)
        return _forward(_NetworkStack.of([self]), x[np.newaxis])[-1][0]


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
        # 1 / (1 + exp(-z)) in one buffer; exp overflows to inf for very
        # negative z, which the reciprocal turns into an exact 0
        s = np.negative(z)
        with np.errstate(over="ignore"):
            np.exp(s, out=s)
        s += 1.0
        return np.reciprocal(s, out=s)
    raise ValueError(f"unknown activation {kind!r}")


def _check_labels(labels: np.ndarray, classes: int) -> None:
    """Raise unless every label is a class index in [0, classes)."""
    if labels.size and (labels.min() < 0 or labels.max() >= classes):
        raise ValueError(f"labels must lie in [0, {classes})")


def softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax over the last axis."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def predict_proba(net: DenseNetwork, features: np.ndarray) -> np.ndarray:
    """Class probabilities: softmax over the network's final outputs. A
    network with finite parameters can still have outputs past the float
    range, and then it has diverged."""
    with np.errstate(over="ignore", invalid="ignore"):
        probs = softmax(net.forward(features))
    if not np.all(np.isfinite(probs)):
        raise TrainingDiverged("training diverged: network outputs leave the float range")
    return probs


def cross_entropy(net: DenseNetwork, features: np.ndarray, labels: np.ndarray) -> float:
    """Mean softmax cross-entropy treating the network output as logits:
    the loss that `loss_gradients` returns."""
    return loss_gradients(net, features, labels)[1]


@dataclass
class _NetworkStack:
    """D equal-shaped networks held in stacked parameters, which SGD
    updates in place: ``weights[l]`` is (D, out, in), ``biases[l]`` (D, out)."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    activations: list[str]

    @classmethod
    def of(cls, nets: list[DenseNetwork]) -> "_NetworkStack":
        """Copies of the given networks' parameters, stacked."""
        shapes = {tuple((l.weights.shape, l.activation) for l in net.layers) for net in nets}
        if len(shapes) != 1:
            raise DimensionMismatch("stacked networks need equal shapes and activations")
        depth = range(len(nets[0].layers))
        return cls(
            [np.stack([net.layers[i].weights for net in nets]) for i in depth],
            [np.stack([net.layers[i].bias for net in nets]) for i in depth],
            [layer.activation for layer in nets[0].layers],
        )

    @property
    def size(self) -> int:
        return self.weights[0].shape[0]

    @property
    def input_dim(self) -> int:
        return self.weights[0].shape[2]

    @property
    def output_dim(self) -> int:
        return self.weights[-1].shape[1]

    def networks(self) -> list[DenseNetwork]:
        layers = list(zip(self.weights, self.biases, self.activations))
        return [
            DenseNetwork([Layer(w[d], b[d], act) for w, b, act in layers])
            for d in range(self.size)
        ]


def _forward(stack: _NetworkStack, x: np.ndarray) -> list[np.ndarray]:
    """The one forward pass of scoring and training: the input ``x``, (D,
    rows, in) with one block of rows per network, and each layer's output."""
    post = [x]
    for w, b, act in zip(stack.weights, stack.biases, stack.activations):
        out = post[-1] @ w.transpose(0, 2, 1)
        out += b[:, np.newaxis, :]
        post.append(_activate(out, act))
    return post


def loss_gradients(
    net: DenseNetwork | _NetworkStack,
    features: np.ndarray,
    target: np.ndarray,
    loss: str = "cross_entropy",
) -> tuple[list[tuple[np.ndarray, np.ndarray]], float | np.ndarray]:
    """Analytic parameter gradients of the given loss.

    ``loss`` is "cross_entropy" (target = integer labels) or "mse"
    (target = real matrix matching the output shape). Returns per-layer
    (dW, db) in layer order plus the loss value.

    The SGD trainers pass a `_NetworkStack` of D equal-shaped networks
    instead, with ``features`` (D, B, in) and ``target`` stacked the same
    way, one minibatch per network. A batched matmul makes the same BLAS
    call for each network that it alone would, so network d's gradients
    are bit for bit its solo ones. The gradients then come back stacked
    (D, ...) and the loss as one value per network.
    """
    stacked = isinstance(net, _NetworkStack)
    if stacked:
        x = np.asarray(features, dtype=np.float64)
        if x.ndim != 3 or x.shape[0] != net.size or x.shape[2] != net.input_dim:
            raise DimensionMismatch(
                f"expected ({net.size}, rows, {net.input_dim}) stacked samples, got {x.shape}"
            )
    else:
        x = _as_matrix(features, net.input_dim)
        net = _NetworkStack.of([net])
    rows = x.shape[:-1]
    n = rows[-1]
    if n == 0:
        raise EmptyDataset("cannot compute gradients on an empty batch")
    if loss == "cross_entropy":
        t = np.asarray(target)
        if t.shape != rows:
            raise DimensionMismatch(f"expected labels of shape {rows}, got shape {t.shape}")
        _check_labels(t, net.output_dim)
        t = t.astype(int, copy=False)
    elif loss == "mse":
        t = np.asarray(target, dtype=np.float64)
        if t.shape != rows + (net.output_dim,):
            raise DimensionMismatch(
                f"target shape {t.shape} != output shape {rows + (net.output_dim,)}"
            )
    else:
        raise ValueError(f"unknown loss {loss!r}")
    if not stacked:
        x, t = x[np.newaxis], t[np.newaxis]

    post = _forward(net, x)
    out = post[-1]
    if loss == "cross_entropy":
        # softmax(out) and its mean cross-entropy, sharing terms
        shifted = out - out.max(axis=2, keepdims=True)
        delta = np.exp(shifted)
        norm = delta.sum(axis=2, keepdims=True)
        picks = (np.arange(x.shape[0])[:, np.newaxis], np.arange(n), t)
        value = np.mean(np.log(norm[:, :, 0]) - shifted[picks], axis=1)
        delta /= norm
        delta[picks] -= 1.0
        delta /= n
    else:
        delta = out - t
        value = np.mean(delta**2, axis=(1, 2))
        delta *= 2.0
        delta /= n * out.shape[2]

    grads: list[tuple[np.ndarray, np.ndarray]] = [None] * len(net.weights)  # type: ignore
    for idx in range(len(net.weights) - 1, -1, -1):
        # each activation's derivative, written in terms of its output
        activated = post[idx + 1]
        if net.activations[idx] == "relu":
            delta *= activated > 0.0
        elif net.activations[idx] == "sigmoid":
            delta *= activated * (1.0 - activated)
        grads[idx] = (delta.transpose(0, 2, 1) @ post[idx], delta.sum(axis=1))
        if idx > 0:
            delta = delta @ net.weights[idx]
    if stacked:
        return grads, value
    return [(dw[0], db[0]) for dw, db in grads], float(value[0])


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

    def __post_init__(self):
        if self.input_dim < 1 or self.num_classes < 2:
            raise ValueError("input_dim must be >= 1 and num_classes >= 2")
        if self.hidden_units < 0 or self.epochs < 0:
            raise ValueError("hidden_units and epochs must be >= 0")
        if self.learning_rate <= 0 or self.batch_size < 1:
            raise ValueError("learning_rate must be > 0 and batch_size >= 1")


@dataclass(frozen=True)
class AutoencoderConfig:
    """Hyperparameters of an autoencoder with one sigmoid hidden layer."""

    input_dim: int
    latent_dim: int = 25
    learning_rate: float = 0.01
    epochs: int = 30
    seed: int = 0

    def __post_init__(self):
        if self.input_dim < 1 or self.latent_dim < 1:
            raise ValueError("dimensions must be positive")
        if self.latent_dim > self.input_dim:
            raise ValueError("latent_dim must not exceed input_dim")
        if self.learning_rate <= 0 or self.epochs < 0:
            raise ValueError("invalid training hyperparameters")


def feature_scale(features: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-column (mean, std) of a sample matrix, a zero std read as 1:
    the z-score the trainers apply."""
    x = np.asarray(features, dtype=np.float64)
    mean = x.mean(axis=0)
    std = x.std(axis=0)
    return mean, np.where(std == 0.0, 1.0, std)


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
    nets: list[DenseNetwork],
    xs: list[np.ndarray],
    scales: list[tuple[np.ndarray, np.ndarray]],
    labels: list[np.ndarray] | None,
    epochs: int,
    learning_rate: float,
    batch_size: int,
    seeds: list[int],
    stream: str,
) -> list[DenseNetwork]:
    """Minibatch SGD on D equal-shaped networks at once; returns the trained
    networks, leaving the given ones untouched.

    Device d walks its raw rows ``xs[d]`` in the order of
    ``substream(seeds[d], stream, epoch)`` and standardizes each minibatch
    with its ``scales[d] = (mean, std)``. It learns ``labels[d]`` under
    cross-entropy or, with ``labels`` None, reconstructs the standardized
    minibatch itself under squared error (an autoencoder). Each minibatch
    of all D devices is one `loss_gradients` call on their stack, and
    every device comes out bit for bit as if trained alone.
    """
    if len({x.shape for x in xs}) != 1:
        raise DimensionMismatch("stacked training needs equal-shaped data")
    stack = _NetworkStack.of(nets)
    mean = np.stack([m for m, _ in scales])[:, np.newaxis, :]
    std = np.stack([s for _, s in scales])[:, np.newaxis, :]

    loss = "mse" if labels is None else "cross_entropy"
    n, width = xs[0].shape
    # minibatch rows are gathered here, so no standardized copy of any
    # device's training set is ever built
    buffer = np.empty((len(nets), min(batch_size, n), width))
    for epoch in range(epochs):
        orders = [substream(seed, stream, epoch).permutation(n) for seed in seeds]
        if labels is not None:
            ordered = np.stack([y[order] for y, order in zip(labels, orders)])
        for start in range(0, n, batch_size):
            batch = buffer[:, : min(batch_size, n - start)]
            for x, order, rows in zip(xs, orders, batch):
                x.take(order[start : start + batch_size], axis=0, out=rows, mode="clip")
            batch -= mean
            batch /= std
            target = batch if labels is None else ordered[:, start : start + batch_size]
            grads, _ = loss_gradients(stack, batch, target, loss)
            for w, b, (dw, db) in zip(stack.weights, stack.biases, grads):
                dw *= learning_rate
                w -= dw
                db *= learning_rate
                b -= db
    return stack.networks()


def _read_only(net: DenseNetwork) -> DenseNetwork:
    """Mark every parameter array of a trained network read-only, so that
    callers which share one network cannot write into each other's model."""
    for layer in net.layers:
        layer.weights.flags.writeable = False
        layer.bias.flags.writeable = False
    return net


def _fit(name, config, features, labels, init, scales, shape, finish):
    """The one fit path of both trainers, in their single or list form;
    ``labels`` None fits an autoencoder.

    ``shape(config)`` gives the layer widths, activations and minibatch
    size. Device d starts from a Glorot draw of ``substream(seed,
    f"{name}-init")`` or from ``init[d]`` unfolded onto its standardized
    input, shuffles by ``f"{name}-shuffle"`` and comes back as
    ``finish(trained, mean, std)``. Every check runs before training, so
    that only a step past the float range is a `TrainingDiverged`.
    """
    single = isinstance(config, (ClassifierConfig, AutoencoderConfig))
    if single:
        config, features, init = [config], [features], [init]
        labels = None if labels is None else [labels]
        scales = None if scales is None else [scales]
    configs, inits = config, init or [None] * len(config)
    if len({replace(c, seed=0) for c in configs}) != 1:
        raise ValueError("stacked devices must share every hyperparameter but the seed")
    dims, acts, batch_size = shape(configs[0])
    xs = [_as_matrix(x, dims[0]) for x in features]
    if len(xs) != len(configs):
        raise ValueError(f"{len(configs)} configs but {len(xs)} sample matrices")
    if any(x.shape[0] == 0 for x in xs):
        raise EmptyDataset("training needs at least one sample")
    ys = None
    if labels is not None:
        ys = [np.asarray(y).astype(int) for y in labels]
        for x, y in zip(xs, ys, strict=True):
            if y.shape[0] != x.shape[0]:
                raise DimensionMismatch(f"{x.shape[0]} samples but {y.shape[0]} labels")
            _check_labels(y, dims[-1])
    if scales is None:
        scales = [feature_scale(x) for x in xs]
    for x, (mean, std) in zip(xs, scales, strict=True):
        if mean.shape != (x.shape[1],) or std.shape != (x.shape[1],):
            raise DimensionMismatch("scales need one mean and one std per feature column")

    nets = []
    for cfg, net, (mean, std) in zip(configs, inits, scales, strict=True):
        if net is None:
            nets.append(glorot_init(dims, acts, substream(cfg.seed, f"{name}-init")))
        elif net.input_dim != dims[0] or net.output_dim != dims[-1]:
            raise DimensionMismatch("init network does not match the config dimensions")
        else:
            nets.append(_unfold_input_transform(net, mean, std))
    try:
        # a step past the float range shows as a non-finite parameter
        with np.errstate(over="ignore", invalid="ignore"):
            trained = _sgd(
                nets, xs, scales, ys,
                configs[0].epochs, configs[0].learning_rate, batch_size,
                [cfg.seed for cfg in configs], f"{name}-shuffle",
            )
            fitted = [finish(net, mean, std) for net, (mean, std) in zip(trained, scales)]
    except ValueError as exc:  # DenseNetwork rejects a non-finite parameter
        raise TrainingDiverged(f"training diverged: {exc}") from exc
    return fitted[0] if single else fitted


def _classifier_shape(c: ClassifierConfig) -> tuple[list[int], list[str], int]:
    hidden = [c.hidden_units] if c.hidden_units > 0 else []
    acts = ["relu"] * len(hidden) + ["linear"]
    return [c.input_dim, *hidden, c.num_classes], acts, c.batch_size


def train_classifier(
    config: ClassifierConfig | list[ClassifierConfig],
    features: np.ndarray | list[np.ndarray],
    labels: np.ndarray | list[np.ndarray],
    init: DenseNetwork | list[DenseNetwork | None] | None = None,
    *,
    scales: list[tuple[np.ndarray, np.ndarray]] | None = None,
) -> DenseNetwork | list[DenseNetwork]:
    """Minibatch-SGD training of the softmax classifier.

    With ``init`` the network continues from the given parameters (warm
    start) instead of a fresh seeded initialization; the seed then only
    drives minibatch shuffling.

    Given a list of configs that differ only in their seeds, with one
    entry per device in ``features``, ``labels`` and ``init`` (or ``init``
    None), the devices train in one stacked SGD pass; the list of networks
    that comes back is bit for bit what each device gets alone. ``scales``
    lists ``feature_scale(features[d])`` of each device, computed earlier
    by a caller that trains the same rows again (one pair for one config).
    """
    return _fit(
        "classifier", config, features, labels, init, scales, _classifier_shape,
        lambda net, mean, std: _read_only(_fold_input_transform(net, mean, std)),
    )


def _split_autoencoder(
    net: DenseNetwork, mean: np.ndarray, std: np.ndarray
) -> tuple[DenseNetwork, DenseNetwork]:
    enc_layer, dec_layer = net.layers
    encoder = _fold_input_transform(DenseNetwork([enc_layer]), mean, std)
    # Un-standardize the decoder output: x_raw = std * x_std + mean.
    dec_w, dec_b = dec_layer.weights * std[:, np.newaxis], dec_layer.bias * std + mean
    decoder = DenseNetwork([Layer(dec_w, dec_b)])
    return _read_only(encoder), _read_only(decoder)


def train_autoencoder(
    config: AutoencoderConfig | list[AutoencoderConfig],
    features: np.ndarray | list[np.ndarray],
    *,
    scales: list[tuple[np.ndarray, np.ndarray]] | None = None,
) -> tuple[DenseNetwork, DenseNetwork] | list[tuple[DenseNetwork, DenseNetwork]]:
    """Train a single-hidden-layer autoencoder; returns (encoder, decoder).

    The encoder maps raw features to the latent space; the decoder maps
    latent codes back to raw feature space (the internal z-score transform
    is folded into both). A list of configs trains one autoencoder per
    device in one stacked pass, as `train_classifier` does, and returns
    their (encoder, decoder) pairs.
    """
    return _fit(
        "autoencoder", config, features, None, None, scales,
        lambda c: ([c.input_dim, c.latent_dim, c.input_dim], ["sigmoid", "linear"],
                   AUTOENCODER_BATCH_SIZE),
        _split_autoencoder,
    )
