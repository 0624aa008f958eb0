"""Network training, gradients vs finite differences, and read-only results."""

import numpy as np
import pytest

from dfedsim.errors import DimensionMismatch, EmptyDataset
from dfedsim.ml_core import (
    AutoencoderConfig,
    ClassifierConfig,
    DenseNetwork,
    Layer,
    cross_entropy,
    glorot_init,
    loss_gradients,
    predict_proba,
    train_autoencoder,
    train_classifier,
)
from dfedsim.rngs import substream


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


def mean_squared_error(net: DenseNetwork, features: np.ndarray, targets: np.ndarray) -> float:
    """Mean over all entries of the squared reconstruction error."""
    out = net.forward(features)
    t = np.asarray(targets, dtype=np.float64)
    if t.shape != out.shape:
        raise DimensionMismatch(f"target shape {t.shape} != output shape {out.shape}")
    return float(np.mean((out - t) ** 2))


def random_net(rng, dims=None, final="linear"):
    if dims is None:
        depth = int(rng.integers(1, 4))
        dims = [int(rng.integers(2, 8)) for _ in range(depth + 1)]
    acts = [str(rng.choice(["relu", "sigmoid", "linear"])) for _ in dims[1:-1]] + [final]
    return glorot_init(dims, acts, rng)


def numeric_grads(net, x, target, loss, h=1e-6):
    """Central finite differences of the forward-only loss."""
    loss_fn = cross_entropy if loss == "cross_entropy" else mean_squared_error
    out = []
    for layer in net.layers:
        gw = np.zeros_like(layer.weights)
        for idx in np.ndindex(*layer.weights.shape):
            orig = layer.weights[idx]
            layer.weights[idx] = orig + h
            up = loss_fn(net, x, target)
            layer.weights[idx] = orig - h
            down = loss_fn(net, x, target)
            layer.weights[idx] = orig
            gw[idx] = (up - down) / (2 * h)
        gb = np.zeros_like(layer.bias)
        for idx in range(layer.bias.shape[0]):
            orig = layer.bias[idx]
            layer.bias[idx] = orig + h
            up = loss_fn(net, x, target)
            layer.bias[idx] = orig - h
            down = loss_fn(net, x, target)
            layer.bias[idx] = orig
            gb[idx] = (up - down) / (2 * h)
        out.append((gw, gb))
    return out


def grads_close(analytic, numeric, tol=1e-4):
    for (aw, ab), (nw, nb) in zip(analytic, numeric):
        for a, n in ((aw, nw), (ab, nb)):
            denom = np.maximum(np.abs(n), 1e-6)
            if np.max(np.abs(a - n) / denom) > tol:
                return False
    return True


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(501)
    for trial in range(12):
        net = random_net(rng)
        n = int(rng.integers(2, 6))
        x = rng.normal(size=(n, net.input_dim))
        labels = rng.integers(0, net.output_dim, size=n)
        analytic, _ = loss_gradients(net, x, labels, loss="cross_entropy")
        assert grads_close(analytic, numeric_grads(net, x, labels, "cross_entropy")), trial


def test_cross_entropy_gradient_loss_equals_cross_entropy_exactly():
    rng = np.random.default_rng(503)
    for trial in range(12):
        net = random_net(rng)
        n = int(rng.integers(1, 40))
        x = rng.normal(size=(n, net.input_dim))
        labels = rng.integers(0, net.output_dim, size=n)
        _, value = loss_gradients(net, x, labels, loss="cross_entropy")
        assert value == cross_entropy(net, x, labels), trial


def test_mse_gradients_match_finite_differences():
    rng = np.random.default_rng(502)
    for trial in range(12):
        final = str(rng.choice(["linear", "sigmoid"]))
        net = random_net(rng, final=final)
        n = int(rng.integers(2, 6))
        x = rng.normal(size=(n, net.input_dim))
        target = rng.normal(size=(n, net.output_dim))
        analytic, _ = loss_gradients(net, x, target, loss="mse")
        assert grads_close(analytic, numeric_grads(net, x, target, "mse")), trial


def test_all_zero_net_gives_uniform_probabilities():
    net = DenseNetwork([Layer(np.zeros((9, 4)), np.zeros(9))])
    probs = predict_proba(net, np.zeros((3, 4)))
    assert np.all(probs == pytest.approx(1.0 / 9.0, rel=1e-15))


def test_softmax_closed_form():
    # logits (ln 2, 0) -> probabilities (2/3, 1/3)
    net = DenseNetwork([Layer(np.array([[np.log(2.0)], [0.0]]), np.zeros(2))])
    probs = predict_proba(net, np.array([[1.0]]))
    assert probs[0, 0] == pytest.approx(2.0 / 3.0, rel=1e-12)
    assert probs[0, 1] == pytest.approx(1.0 / 3.0, rel=1e-12)


def test_probability_rows_sum_to_one():
    rng = np.random.default_rng(503)
    for _ in range(200):
        net = random_net(rng)
        x = rng.normal(size=(int(rng.integers(1, 8)), net.input_dim)) * 5.0
        probs = predict_proba(net, x)
        check_probability_matrix(probs, tol=1e-9)


def test_check_probability_matrix_rejects_bad_rows():
    with pytest.raises(ValueError):
        check_probability_matrix(np.array([[0.5, 0.4]]))
    with pytest.raises(ValueError):
        check_probability_matrix(np.array([[-0.1, 1.1]]))


def test_separable_toy_reaches_full_accuracy():
    rng = np.random.default_rng(504)
    n = 200
    x = rng.normal(size=(n, 2))
    x[:, 0] += np.where(x[:, 0] >= 0, 1.0, -1.0)  # margin around zero
    y = (x[:, 0] >= 0).astype(int)
    cfg = ClassifierConfig(input_dim=2, hidden_units=8, num_classes=2, epochs=200, seed=1)
    net = train_classifier(cfg, x, y)
    pred = predict_proba(net, x).argmax(axis=1)
    assert np.mean(pred == y) == 1.0


def unit_signs(rng, rows, cols):
    """A +-1 matrix whose every column has mean exactly 0 and std exactly 1,
    in any row order: its z-score is the identity, bit for bit."""
    half = rng.choice([-1.0, 1.0], size=(rows // 2, cols))
    return np.vstack([half, -half])


def test_zero_epochs_is_data_independent():
    # zero epochs read the data only through its z-score, here the identity
    cfg = ClassifierConfig(input_dim=3, hidden_units=4, num_classes=2, epochs=0, seed=9)
    rng = np.random.default_rng(505)
    a = train_classifier(cfg, unit_signs(rng, 20, 3), rng.integers(0, 2, 20))
    b = train_classifier(cfg, unit_signs(rng, 50, 3), rng.integers(0, 2, 50))
    for la, lb in zip(a.layers, b.layers):
        assert np.array_equal(la.weights, lb.weights)
        assert np.array_equal(la.bias, lb.bias)


def test_zero_epochs_warm_start_passthrough():
    # on rows whose z-score is the identity, unfolding and refolding the
    # start network is exact
    rng = np.random.default_rng(506)
    x = unit_signs(rng, 30, 3)
    y = rng.integers(0, 2, 30)
    cfg = ClassifierConfig(input_dim=3, hidden_units=4, num_classes=2, epochs=2, seed=2)
    base = train_classifier(cfg, x, y)
    again = train_classifier(
        ClassifierConfig(input_dim=3, hidden_units=4, num_classes=2, epochs=0, seed=3),
        x, y, init=base,
    )
    for la, lb in zip(base.layers, again.layers):
        assert np.array_equal(la.weights, lb.weights)
        assert np.array_equal(la.bias, lb.bias)


def test_training_is_bitwise_deterministic():
    rng = np.random.default_rng(507)
    x = rng.normal(size=(64, 5))
    y = rng.integers(0, 3, 64)
    cfg = ClassifierConfig(input_dim=5, hidden_units=6, num_classes=3, epochs=3, seed=11)
    a = train_classifier(cfg, x, y)
    b = train_classifier(cfg, x, y)
    for la, lb in zip(a.layers, b.layers):
        assert np.array_equal(la.weights, lb.weights)
        assert np.array_equal(la.bias, lb.bias)


def test_shuffling_is_a_function_of_seed_not_input_order():
    # seed 21 walks x in the order of its permutation; seed 22 gets the
    # rows laid out so that its own permutation walks them in that order.
    # Both z-scores are the identity, and both start from one network.
    rng = np.random.default_rng(508)
    x = unit_signs(rng, 40, 4)
    y = rng.integers(0, 2, 40)
    init = glorot_init([4, 5, 2], ["relu", "linear"], rng)
    cfg = ClassifierConfig(input_dim=4, hidden_units=5, num_classes=2, epochs=1, seed=21)
    shuffled_run = train_classifier(cfg, x, y, init=init)
    perm = substream(21, "classifier-shuffle", 0).permutation(40)
    other = substream(22, "classifier-shuffle", 0).permutation(40)
    laid_x, laid_y = np.empty_like(x), np.empty_like(y)
    laid_x[other], laid_y[other] = x[perm], y[perm]
    manual = train_classifier(
        ClassifierConfig(input_dim=4, hidden_units=5, num_classes=2, epochs=1, seed=22),
        laid_x, laid_y, init=init,
    )
    for la, lb in zip(shuffled_run.layers, manual.layers):
        assert np.array_equal(la.weights, lb.weights)
        assert np.array_equal(la.bias, lb.bias)


def test_final_loss_not_above_initial():
    rng = np.random.default_rng(509)
    x = np.concatenate([rng.normal(size=(60, 6)) + 2.0, rng.normal(size=(60, 6)) - 2.0])
    y = np.concatenate([np.zeros(60, dtype=int), np.ones(60, dtype=int)])
    cfg = ClassifierConfig(input_dim=6, hidden_units=10, num_classes=2, epochs=5, seed=3)
    initial = train_classifier(
        ClassifierConfig(input_dim=6, hidden_units=10, num_classes=2, epochs=0, seed=3), x, y
    )
    trained = train_classifier(cfg, x, y)
    assert cross_entropy(trained, x, y) <= cross_entropy(initial, x, y)


def test_standardization_fold_returns_raw_input_net():
    # the returned classifier must consume unstandardized features
    rng = np.random.default_rng(510)
    x = rng.normal(size=(80, 3)) * np.array([100.0, 0.01, 5.0]) + np.array([50.0, -3.0, 0.0])
    y = (x[:, 0] > 50.0).astype(int)
    x[:, 0] += np.where(y == 1, 60.0, -60.0)  # margin, in raw feature units
    cfg = ClassifierConfig(input_dim=3, hidden_units=6, num_classes=2, epochs=50, seed=5)
    net = train_classifier(cfg, x, y)
    acc = np.mean(predict_proba(net, x).argmax(axis=1) == y)
    assert acc > 0.9


def test_train_classifier_error_contracts():
    cfg = ClassifierConfig(input_dim=3, num_classes=2)
    with pytest.raises(EmptyDataset):
        train_classifier(cfg, np.zeros((0, 3)), np.zeros(0, dtype=int))
    with pytest.raises(DimensionMismatch):
        train_classifier(cfg, np.zeros((5, 4)), np.zeros(5, dtype=int))
    with pytest.raises(ValueError):
        train_classifier(cfg, np.zeros((5, 3)), np.full(5, 7))
    with pytest.raises(ValueError):
        ClassifierConfig(input_dim=0)
    with pytest.raises(ValueError):
        ClassifierConfig(input_dim=3, learning_rate=0.0)


def test_autoencoder_output_dimensions():
    rng = np.random.default_rng(512)
    x = rng.normal(size=(40, 50))
    cfg = AutoencoderConfig(input_dim=50, latent_dim=25, epochs=1, seed=7)
    enc, dec = train_autoencoder(cfg, x)
    latent = enc.forward(x)
    assert latent.shape == (40, 25)
    assert dec.forward(latent).shape == (40, 50)


def test_autoencoder_reconstruction_improves():
    rng = np.random.default_rng(514)
    x = rng.normal(size=(120, 8))
    base = AutoencoderConfig(input_dim=8, latent_dim=4, epochs=0, seed=9)
    cfg = AutoencoderConfig(input_dim=8, latent_dim=4, epochs=60, learning_rate=0.05, seed=9)
    enc0, dec0 = train_autoencoder(base, x)
    enc1, dec1 = train_autoencoder(cfg, x)
    mse0 = float(np.mean((dec0.forward(enc0.forward(x)) - x) ** 2))
    mse1 = float(np.mean((dec1.forward(enc1.forward(x)) - x) ** 2))
    assert mse1 <= mse0


def test_autoencoder_determinism():
    rng = np.random.default_rng(515)
    x = rng.normal(size=(50, 6))
    cfg = AutoencoderConfig(input_dim=6, latent_dim=3, epochs=5, seed=10)
    enc_a, dec_a = train_autoencoder(cfg, x)
    enc_b, dec_b = train_autoencoder(cfg, x)
    assert np.array_equal(enc_a.layers[0].weights, enc_b.layers[0].weights)
    assert np.array_equal(dec_a.layers[0].weights, dec_b.layers[0].weights)


def test_autoencoder_config_validation():
    with pytest.raises(ValueError):
        AutoencoderConfig(input_dim=10, latent_dim=11)
    with pytest.raises(ValueError):
        AutoencoderConfig(input_dim=0, latent_dim=0)


def test_encode_is_pointwise():
    rng = np.random.default_rng(516)
    enc = random_net(rng, dims=[6, 3], final="sigmoid")
    a = rng.normal(size=(10, 6))
    b = rng.normal(size=(7, 6))
    joint = enc.forward(np.vstack([a, b]))
    assert np.array_equal(joint, np.vstack([enc.forward(a), enc.forward(b)]))


def test_zero_weight_encoder_maps_to_zero():
    enc = DenseNetwork([Layer(np.zeros((3, 5)), np.zeros(3))])
    assert np.all(enc.forward(np.ones((4, 5))) == 0.0)


def _assert_read_only(net):
    for layer in net.layers:
        with pytest.raises(ValueError):
            layer.weights[0, 0] = 1.0
        with pytest.raises(ValueError):
            layer.bias[0] = 1.0


def test_trained_networks_are_read_only():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(24, 4))
    y = rng.integers(0, 3, size=24)
    cfg = ClassifierConfig(input_dim=4, hidden_units=5, num_classes=3, batch_size=8)
    _assert_read_only(train_classifier(cfg, x, y))
    for net in train_classifier([cfg, cfg], [x, x], [y, y]):
        _assert_read_only(net)
    _assert_read_only(train_classifier(cfg, x, y, init=train_classifier(cfg, x, y)))
    ae = AutoencoderConfig(input_dim=4, latent_dim=2, epochs=1)
    for pair in [train_autoencoder(ae, x), *train_autoencoder([ae, ae], [x, x])]:
        for net in pair:
            _assert_read_only(net)


def test_network_shape_validation():
    with pytest.raises(DimensionMismatch):
        DenseNetwork([Layer(np.zeros((3, 2)), np.zeros(3)), Layer(np.zeros((2, 4)), np.zeros(2))])
    with pytest.raises(ValueError):
        DenseNetwork([Layer(np.full((2, 2), np.nan), np.zeros(2))])


def test_hidden_units_zero_trains_plain_softmax():
    rng = np.random.default_rng(518)
    x = rng.normal(size=(100, 4))
    y = (x[:, 1] > 0).astype(int)
    x[:, 1] += np.where(y == 1, 1.5, -1.5)
    cfg = ClassifierConfig(input_dim=4, hidden_units=0, num_classes=2, epochs=100, seed=12)
    net = train_classifier(cfg, x, y)
    assert len(net.layers) == 1
    assert np.mean(predict_proba(net, x).argmax(axis=1) == y) > 0.95
