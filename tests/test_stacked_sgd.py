"""The stacked trainer against the per-device SGD loop it replaced.

`ml_core._sgd` trains D equal-shaped networks in one pass, one
`loss_gradients` call on their stack per minibatch. The functions below,
down to `_sgd`, are the per-device loop as it stood before, kept verbatim
as the reference: every device must come out of the stacked pass with
exactly the bytes it gets when trained alone. The one edit is that the
sigmoid derivative takes its sigmoid from `ml_core._activate`, so the
reference checks the stacking and not the sigmoid formula.
"""

import numpy as np
import pytest

from dfedsim import ml_core
from dfedsim.errors import DimensionMismatch, EmptyDataset
from dfedsim.ml_core import (
    DenseNetwork,
    _activate,
    _as_matrix,
    feature_scale,
    glorot_init,
)
from dfedsim.rngs import substream

# ------------------------------------------------------ reference (verbatim)


def _activate_grad(z: np.ndarray, kind: str) -> np.ndarray:
    if kind == "linear":
        return np.ones_like(z)
    if kind == "relu":
        return (z > 0.0).astype(np.float64)
    if kind == "sigmoid":
        s = _activate(z, "sigmoid")
        return s * (1.0 - s)
    raise ValueError(f"unknown activation {kind!r}")


def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def _logit_cross_entropy(logits: np.ndarray, labels: np.ndarray) -> float:
    y = np.asarray(labels).astype(int)
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_norm = np.log(np.exp(shifted).sum(axis=1))
    picked = shifted[np.arange(logits.shape[0]), y]
    return float(np.mean(log_norm - picked))


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    y = np.asarray(labels)
    if y.ndim != 1:
        raise DimensionMismatch("labels must be a 1-D array")
    if y.size and (y.min() < 0 or y.max() >= num_classes):
        raise ValueError(f"labels must lie in [0, {num_classes})")
    out = np.zeros((y.shape[0], num_classes), dtype=np.float64)
    out[np.arange(y.shape[0]), y.astype(int)] = 1.0
    return out


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


# --------------------------------------------------------------- the tests

# (layer widths, activations, loss): a classifier with one hidden layer, the
# plain softmax of hidden_units=0 (the meta-learner), a deeper net, and the
# autoencoder, whose target is its own standardized input
SHAPES = [
    ([6, 5, 3], ["relu", "linear"], "cross_entropy"),
    ([6, 3], ["linear"], "cross_entropy"),
    ([6, 7, 4, 3], ["sigmoid", "relu", "linear"], "cross_entropy"),
    ([6, 4, 6], ["sigmoid", "linear"], "mse"),
]


def _devices(count, rows, dims, acts, loss, seed):
    rng = np.random.default_rng(seed)
    xs, labels, nets, scales = [], [], [], []
    for d in range(count):
        # each device has its own feature scales, so its (mean, std) matters
        x = rng.normal(size=(rows, dims[0])) * rng.uniform(0.5, 20.0, dims[0])
        x += rng.normal(size=dims[0]) * 5.0
        if d == 0:
            x[:, 1] = 4.0  # a constant column: std 0 is replaced by 1
        xs.append(x)
        labels.append(rng.integers(0, dims[-1], size=rows) if loss == "cross_entropy" else None)
        nets.append(glorot_init(dims, acts, substream(seed, "net", d)))
        scales.append(feature_scale(x))
    return xs, labels, nets, scales


@pytest.mark.parametrize("count", [1, 2, 5])
@pytest.mark.parametrize("dims, acts, loss", SHAPES)
@pytest.mark.parametrize("rows, batch_size", [(70, 16), (64, 16), (40, 64), (33, 1)])
def test_stacked_sgd_is_bitwise_the_per_device_loop(count, dims, acts, loss, rows, batch_size):
    xs, labels, nets, scales = _devices(count, rows, dims, acts, loss, seed=count + rows)
    seeds = [1000 + 17 * d for d in range(count)]
    stacked = ml_core._sgd(
        nets, xs, scales, None if loss == "mse" else labels,
        2, 0.05, batch_size, seeds, "stacked-test",
    )
    for d in range(count):
        mean, std = scales[d]
        x = (xs[d] - mean) / std
        target = x if loss == "mse" else labels[d]
        alone = _sgd(
            nets[d].copy(), x, target, loss, 2, 0.05, batch_size, seeds[d], True,
            "stacked-test",
        )
        for got, want in zip(stacked[d].layers, alone.layers, strict=True):
            assert got.weights.tobytes() == want.weights.tobytes()
            assert got.bias.tobytes() == want.bias.tobytes()
            assert got.activation == want.activation


def test_stacked_sgd_leaves_its_input_networks_untouched():
    xs, labels, nets, scales = _devices(2, 30, [6, 5, 3], ["relu", "linear"], "cross_entropy", 4)
    before = [[layer.weights.tobytes() for layer in net.layers] for net in nets]
    ml_core._sgd(nets, xs, scales, labels, 1, 0.1, 8, [1, 2], "s")
    assert [[layer.weights.tobytes() for layer in net.layers] for net in nets] == before


@pytest.mark.parametrize("dims, acts, loss", SHAPES)
def test_loss_gradients_is_bitwise_the_per_device_routine(dims, acts, loss):
    rng = np.random.default_rng(len(dims))
    for trial in range(10):
        net = glorot_init(dims, acts, substream(trial, "grad-net"))
        rows = int(rng.integers(1, 40))
        x = rng.normal(size=(rows, dims[0])) * 3.0
        if loss == "cross_entropy":
            target = rng.integers(0, dims[-1], size=rows)
        else:
            target = rng.normal(size=(rows, dims[-1]))
        got, got_value = ml_core.loss_gradients(net, x, target, loss=loss)
        want, want_value = loss_gradients(net, x, target, loss=loss)
        assert got_value == want_value
        for (gw, gb), (ww, wb) in zip(got, want, strict=True):
            assert gw.tobytes() == ww.tobytes()
            assert gb.tobytes() == wb.tobytes()


def test_unequal_devices_raise_dimension_mismatch():
    xs, labels, nets, scales = _devices(2, 30, [6, 5, 3], ["relu", "linear"], "cross_entropy", 5)
    with pytest.raises(DimensionMismatch):
        ml_core._sgd(
            nets, [xs[0], xs[1][:20]], scales, [labels[0], labels[1][:20]],
            1, 0.1, 8, [1, 2], "s",
        )
    wider = glorot_init([6, 4, 3], ["relu", "linear"], substream(0, "wider"))
    with pytest.raises(DimensionMismatch):
        ml_core._sgd(
            [nets[0], wider], xs, scales, labels, 1, 0.1, 8, [1, 2], "s"
        )


def test_stacked_devices_must_share_hyperparameters():
    base = ml_core.ClassifierConfig(input_dim=6, hidden_units=5, num_classes=3, seed=1)
    other = ml_core.ClassifierConfig(input_dim=6, hidden_units=5, num_classes=3, seed=2,
                                     learning_rate=0.5)
    xs, labels, _, _ = _devices(2, 30, [6, 5, 3], ["relu", "linear"], "cross_entropy", 6)
    with pytest.raises(ValueError):
        ml_core.train_classifier([base, other], xs, labels)


@pytest.mark.parametrize("dims, acts, loss", SHAPES)
def test_stacked_loss_gradients_are_each_networks_own(dims, acts, loss):
    rng = np.random.default_rng(7 + len(dims))
    nets = [glorot_init(dims, acts, substream(d, "stack-net")) for d in range(3)]
    x = rng.normal(size=(3, 11, dims[0]))
    if loss == "cross_entropy":
        target = rng.integers(0, dims[-1], size=(3, 11))
    else:
        target = rng.normal(size=(3, 11, dims[-1]))
    grads, values = ml_core.loss_gradients(ml_core._NetworkStack.of(nets), x, target, loss)
    assert values.shape == (3,)
    for d, net in enumerate(nets):
        want, want_value = loss_gradients(net, x[d], target[d], loss=loss)
        assert values[d] == want_value
        for (gw, gb), (ww, wb) in zip(grads, want, strict=True):
            assert gw[d].tobytes() == ww.tobytes()
            assert gb[d].tobytes() == wb.tobytes()
    with pytest.raises(DimensionMismatch):
        ml_core.loss_gradients(ml_core._NetworkStack.of(nets), x[:2], target[:2], loss)


def _same_bytes(a: DenseNetwork, b: DenseNetwork) -> None:
    for got, want in zip(a.layers, b.layers, strict=True):
        assert got.weights.tobytes() == want.weights.tobytes()
        assert got.bias.tobytes() == want.bias.tobytes()


@pytest.mark.parametrize("hidden_units", [5, 0])
def test_a_list_of_configs_trains_each_device_as_alone(hidden_units):
    xs, labels, _, _ = _devices(3, 50, [6, 5, 3], ["relu", "linear"], "cross_entropy", 8)
    configs = [
        ml_core.ClassifierConfig(
            input_dim=6, hidden_units=hidden_units, num_classes=3, epochs=2,
            batch_size=16, seed=40 + d,
        )
        for d in range(3)
    ]
    alone = [ml_core.train_classifier(c, x, y) for c, x, y in zip(configs, xs, labels)]
    # a warm start from the first pass, as a device's next round is
    again = [
        ml_core.train_classifier(c, x, y, init=net)
        for c, x, y, net in zip(configs, xs, labels, alone)
    ]
    scales = [feature_scale(x) for x in xs]
    for got, want in zip(ml_core.train_classifier(configs, xs, labels), alone):
        _same_bytes(got, want)
    stacked = ml_core.train_classifier(configs, xs, labels, alone, scales=scales)
    for got, want in zip(stacked, again):
        _same_bytes(got, want)


def test_a_list_of_autoencoder_configs_trains_each_device_as_alone():
    xs, _, _, _ = _devices(3, 40, [6, 4, 6], ["sigmoid", "linear"], "mse", 9)
    configs = [
        ml_core.AutoencoderConfig(input_dim=6, latent_dim=4, epochs=2, seed=d)
        for d in range(3)
    ]
    stacked = ml_core.train_autoencoder(
        configs, xs, scales=[feature_scale(x) for x in xs]
    )
    for (enc, dec), c, x in zip(stacked, configs, xs, strict=True):
        want_enc, want_dec = ml_core.train_autoencoder(c, x)
        _same_bytes(enc, want_enc)
        _same_bytes(dec, want_dec)


def test_scales_that_do_not_fit_the_features_are_rejected():
    xs, labels, _, _ = _devices(2, 30, [6, 5, 3], ["relu", "linear"], "cross_entropy", 10)
    configs = [ml_core.ClassifierConfig(input_dim=6, hidden_units=5, num_classes=3, seed=d)
               for d in range(2)]
    narrow = [(np.zeros(5), np.ones(5))] * 2
    with pytest.raises(DimensionMismatch):
        ml_core.train_classifier(configs, xs, labels, scales=narrow)
