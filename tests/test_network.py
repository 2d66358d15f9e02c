import copy
import dataclasses
import math
import warnings

import numpy as np
import pytest

from conftest import count_linalg_calls, dense_rho, random_psd, trace_normalize
from covdensity.covariance import as_matrix
from covdensity.density import density_operator, density_values
from covdensity.filtering import FilterSpec, filter_apply
from covdensity.network import (
    ACTIVATIONS,
    FORWARD_BLOCK,
    HeadParams,
    LayerParams,
    ModelParams,
    TrainConfig,
    evaluate_loss,
    forward_rows,
    _ADAM_BETAS,
    _ADAM_EPS,
    _aggregate,
    _forward,
    _layer_channels,
    init_model,
    model_from_dict,
    model_gradients,
    model_to_dict,
    train,
)
from covdensity.errors import ConfigError, ShapeError, TrainingError, _array
from covdensity.spectral import eigh


def layer_oracle(params, rhos, x_in):
    """Literal loop nest over the layer definition, scale by scale."""
    act = ACTIVATIONS[params.activation][0]
    outs = []
    for mo in range(params.f_out):
        acc = np.zeros(x_in.shape[1])
        for g in range(params.coeffs.shape[1]):
            taps = params.coeffs[mo, g].copy()
            taps[: params.k_start] = 0.0  # a skip_k0 layer leaves out its h_0
            acc = acc + filter_apply(FilterSpec(coeffs=taps, beta=params.betas[mo]), rhos[mo], x_in[g])
        outs.append(act(acc))
    return np.stack(outs)


def model_oracle(model, cov_matrix, x, mask=None):
    """Independently coded forward pass of one signal x (dim,): layers, flatten, head (hidden units times ``mask``)."""
    channels = np.asarray(x)[None, :]
    for layer in model.layers:
        rhos = [density_operator(cov_matrix, b) for b in layer.betas]
        channels = layer_oracle(layer, rhos, channels)
        if layer.aggregation == "sum":
            channels = channels.sum(axis=0)[None, :]
        elif layer.aggregation == "mean":
            channels = channels.mean(axis=0)[None, :]
    flat = channels.reshape(-1)
    act = ACTIVATIONS[model.head.activation][0]
    hidden = act(model.head.w1 @ flat + model.head.b1)
    if mask is not None:
        hidden = hidden * mask
    return model.head.w2 @ hidden + model.head.b2


def small_model(rng, c, n_out=2, betas=(0.5, -0.4, 2.0), **kwargs):
    cfg = TrainConfig(betas=betas, hidden_dim=kwargs.pop("hidden_dim", 5), seed=int(rng.integers(0, 2**31)), **kwargs)
    return init_model(c, n_out, cfg)


def layer_output(params, c, x_in):
    """One layer's aggregated output for f_in input channels, each a dim vector, from the batched kernel."""
    decomp = eigh(as_matrix(c))
    rho = density_values(decomp.eigenvalues, params.betas)[0]
    x = np.atleast_2d(np.asarray(x_in, dtype=float))
    out, _ = _layer_channels(params, decomp.eigenvectors, rho, x[None])
    return _aggregate(params.aggregation, out).reshape(-1)


class TestLayerForward:
    def test_single_identity_scale(self, rng):
        c = random_psd(rng, 4)
        layer = LayerParams(
            coeffs=np.array([[[1.0]]]), betas=np.array([0.7]),
            aggregation="concatenate", activation="identity",
        )
        x = rng.standard_normal(4)
        np.testing.assert_allclose(layer_output(layer, c, x), x, atol=1e-12)

    def test_single_scale_matches_dense_composition(self, rng):
        c = random_psd(rng, 5)
        layer = LayerParams(coeffs=rng.standard_normal((1, 1, 3)), betas=np.array([1.3]), activation="tanh")
        x = rng.standard_normal(5)
        dense = dense_rho(density_operator(c, 1.3))
        h = layer.coeffs[0, 0]
        want = np.tanh(h[0] * x + h[1] * dense @ x + h[2] * dense @ dense @ x)
        np.testing.assert_allclose(layer_output(layer, c, x), want, rtol=1e-9, atol=1e-12)

    def test_sum_of_identical_scales_doubles(self, rng):
        c = random_psd(rng, 3)
        coeffs = rng.standard_normal((1, 1, 3))
        single = LayerParams(
            coeffs=coeffs, betas=np.array([1.1]), aggregation="sum", activation="identity"
        )
        double = LayerParams(
            coeffs=np.repeat(coeffs, 2, axis=0), betas=np.array([1.1, 1.1]),
            aggregation="sum", activation="identity",
        )
        x = rng.standard_normal(3)
        np.testing.assert_allclose(
            layer_output(double, c, x),
            2.0 * layer_output(single, c, x),
            rtol=1e-12,
        )

    def test_matches_loop_nest_oracle(self, rng):
        c = random_psd(rng, 5)
        layer = LayerParams(
            coeffs=rng.standard_normal((3, 2, 3)),
            betas=np.array([0.2, -1.0, 3.0]),
            aggregation="concatenate",
            activation="tanh",
        )
        rhos = [density_operator(c, b) for b in layer.betas]
        x_in = rng.standard_normal((2, 5))
        got = layer_output(layer, c, x_in)
        want = layer_oracle(layer, rhos, x_in).reshape(-1)
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12)

    def test_permutation_covariance(self, rng):
        c = random_psd(rng, 5)
        layer = LayerParams(
            coeffs=rng.standard_normal((2, 1, 3)),
            betas=np.array([0.8, -0.6]),
            aggregation="sum",
            activation="tanh",
        )
        x = rng.standard_normal(5)
        perm = rng.permutation(5)
        base = layer_output(layer, c, x)
        c_perm = c.matrix[np.ix_(perm, perm)]
        got = layer_output(layer, c_perm, x[perm])
        np.testing.assert_allclose(got, base[perm], atol=1e-8)


class TestModelForward:
    def test_identity_pipeline_returns_input(self, rng):
        c = random_psd(rng, 3)
        layer = LayerParams(
            coeffs=np.array([[[1.0]]]), betas=np.array([1.0]),
            aggregation="concatenate", activation="identity",
        )
        head = HeadParams(w1=np.eye(3), b1=np.zeros(3), w2=np.eye(3), b2=np.zeros(3), activation="identity")
        model = ModelParams(c.matrix, layers=[layer], head=head, task="regression")
        x = rng.standard_normal(3)
        np.testing.assert_allclose(forward_rows(model, [x])[0], x, atol=1e-12)

    def test_zero_head_weights_give_bias(self, rng):
        c = random_psd(rng, 3)
        layer = LayerParams(
            coeffs=rng.standard_normal((2, 1, 2)), betas=np.array([0.5, 2.0]),
            aggregation="concatenate", activation="tanh",
        )
        bias = np.array([0.7, -1.2])
        head = HeadParams(
            w1=np.zeros((4, 6)), b1=np.zeros(4), w2=np.zeros((2, 4)), b2=bias, activation="tanh"
        )
        model = ModelParams(c.matrix, layers=[layer], head=head, task="regression")
        np.testing.assert_allclose(forward_rows(model, [rng.standard_normal(3)])[0], bias, atol=1e-15)

    @pytest.mark.parametrize("aggregation", ["concatenate", "sum", "mean"])
    @pytest.mark.parametrize("skip_k0", [False, True])
    def test_matches_duplicate_oracle(self, rng, aggregation, skip_k0):
        dim = 4
        c = random_psd(rng, dim)
        cfg = TrainConfig(
            betas=(0.3, -0.7, 5.0), order=2, hidden_dim=6, aggregation=aggregation, skip_k0=skip_k0, seed=7
        )
        model = init_model(c, 2, cfg)
        x = rng.standard_normal(dim)
        got = forward_rows(model, [x])[0]
        want = model_oracle(model, c.matrix, x)
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-11)

    def test_two_layer_stack(self, rng):
        dim = 3
        c = random_psd(rng, dim)
        model = init_model(c, 1, TrainConfig(betas=(0.5, 1.5), order=1, hidden_dim=4, num_layers=2, seed=3))
        x = rng.standard_normal(dim)
        got = forward_rows(model, [x])[0]
        want = model_oracle(model, c.matrix, x)
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-11)

    @pytest.mark.parametrize("skip_k0", [False, True])
    def test_forward_rows_match_single_rows_across_blocks(self, rng, skip_k0):
        dim = 4
        c = random_psd(rng, dim)
        model = init_model(c, 3, TrainConfig(betas=(0.3, 2.0), hidden_dim=6, skip_k0=skip_k0, seed=5))
        xs = rng.standard_normal((FORWARD_BLOCK + 3, dim))
        got = forward_rows(model, xs)
        want = np.stack([forward_rows(model, [x])[0] for x in xs])
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_permuted_covariance_and_head_features_give_the_same_outputs(self, rng):
        dim = 5
        c = random_psd(rng, dim)
        model = init_model(c, 2, TrainConfig(betas=(0.8, -0.6), hidden_dim=4, num_layers=2, seed=2))
        perm = rng.permutation(dim)
        w1 = model.head.w1.reshape(4, -1, dim)[:, :, perm].reshape(4, -1)  # each channel's features, permuted
        permuted = dataclasses.replace(
            model, covariance=c.matrix[np.ix_(perm, perm)], head=dataclasses.replace(model.head, w1=w1)
        )
        np.testing.assert_allclose(permuted.basis.eigenvalues, model.basis.eigenvalues, rtol=1e-12)  # decomposed anew
        xs = rng.standard_normal((3, dim))
        np.testing.assert_allclose(forward_rows(permuted, xs[:, perm]), forward_rows(model, xs), atol=1e-8)

    def test_model_decomposes_its_covariance_once_and_checks_it(self, rng, monkeypatch):
        c = random_psd(rng, 4)
        eigvalsh_calls, eigh_calls = count_linalg_calls(monkeypatch, "eigvalsh"), count_linalg_calls(monkeypatch, "eigh")
        model = init_model(c, 2, TrainConfig(betas=(0.5, 2.0), hidden_dim=3))
        forward_rows(model, rng.standard_normal((FORWARD_BLOCK + 1, 4)))
        model_gradients(model, rng.standard_normal((2, 4)), rng.standard_normal((2, 2)), "mse")
        assert (eigvalsh_calls, eigh_calls) == ([], [(4, 4)])
        with pytest.raises(ValueError, match=r"^/covariance: matrix is not PSD within tolerance: min eigenvalue -1"):
            dataclasses.replace(model, covariance=np.diag([1.0, -1.0, 2.0, 3.0]))
        with pytest.raises(ShapeError, match=r"^input has 3 columns, model expects 4$"):
            forward_rows(model, np.zeros((2, 3)))


def named_parameters(model):
    """Every trainable array by name, in training order: coeffs_i, then betas_i when learnable; then head_*."""
    arrays = {}
    for li, layer in enumerate(model.layers):
        arrays[f"coeffs_{li}"] = layer.coeffs
        if layer.betas_learnable:
            arrays[f"betas_{li}"] = layer.betas
    arrays.update(
        head_w1=model.head.w1, head_b1=model.head.b1,
        head_w2=model.head.w2, head_b2=model.head.b2,
    )
    return arrays


def gradient_arrays(model, grads):
    """The gradient list ``model_gradients`` returns, keyed by ``named_parameters`` names in order."""
    arrays = named_parameters(model)
    assert len(grads) == len(arrays)
    for (name, arr), grad in zip(arrays.items(), grads):
        assert grad.shape == arr.shape, name
    return dict(zip(arrays, grads))


def finite_difference_gradients(model, xs, ys, loss, step=1e-5):
    """Central differences on every trainable array, one entry at a time."""
    def batch_loss():
        return evaluate_loss(model, xs, ys, loss) * 1.0

    grads = {}
    for name, arr in named_parameters(model).items():
        grad = np.zeros_like(arr)
        flat = arr.reshape(-1)
        gflat = grad.reshape(-1)
        for i in range(flat.size):
            original = flat[i]
            flat[i] = original + step
            up = batch_loss()
            flat[i] = original - step
            down = batch_loss()
            flat[i] = original
            gflat[i] = (up - down) / (2 * step)
        grads[name] = grad
    return grads


def min_pre_activation(model, xs):
    """Smallest |pre-activation| of any layer or head unit over the batch ``xs``, (n, dim)."""
    _, tape = _forward(model, np.asarray(xs, dtype=float), 1.0)
    return min(float(np.min(np.abs(a))) for a in [tape.z1, *(layer.pre_activation for layer in tape.layers)])


def relative_error(a, b):
    denom = max(float(np.linalg.norm(a)), float(np.linalg.norm(b)), 1e-8)
    return float(np.linalg.norm(a - b)) / denom


class TestGradients:
    def test_zero_input_zero_coeff_gradients(self, rng):
        c = random_psd(rng, 3)
        model = small_model(rng, c, betas_learnable=True)
        xs = [np.zeros(3)] * 4
        ys = [np.zeros(2)] * 4
        _, grads = model_gradients(model, xs, ys, "mse")
        grads = gradient_arrays(model, grads)
        np.testing.assert_allclose(grads["coeffs_0"], 0.0, atol=1e-15)
        np.testing.assert_allclose(grads["betas_0"], 0.0, atol=1e-15)

    def test_beta_gradient_matches_symbolic_two_eigenvalue_case(self):
        # One scale, filter h = (0, 1), identity everything: output o = sum(rho x).
        # With C = diag(a, b): o(beta) = r1 x1 + r2 x2, r1 = e^{-ba}/Z, and
        # d r_i / d beta = r_i (r1 a + r2 b - lambda_i).
        a, b = 0.6, 2.3
        beta = 0.9
        c = np.diag([a, b])
        x = np.array([1.3, -0.4])
        target = np.array([0.2])
        layer = LayerParams(
            coeffs=np.array([[[0.0, 1.0]]]), betas=np.array([beta]),
            betas_learnable=True, aggregation="concatenate", activation="identity",
        )
        head = HeadParams(
            w1=np.eye(2), b1=np.zeros(2), w2=np.ones((1, 2)), b2=np.zeros(1), activation="identity"
        )
        model = ModelParams(c, layers=[layer], head=head, task="regression")
        loss_value, grads = model_gradients(model, [x], [target], "mse")

        z = math.exp(-beta * a) + math.exp(-beta * b)
        r1, r2 = math.exp(-beta * a) / z, math.exp(-beta * b) / z
        mean_lam = r1 * a + r2 * b
        o = r1 * x[0] + r2 * x[1]
        do_dbeta = r1 * (mean_lam - a) * x[0] + r2 * (mean_lam - b) * x[1]
        want = 2.0 * (o - target[0]) * do_dbeta
        assert gradient_arrays(model, grads)["betas_0"][0] == pytest.approx(want, rel=1e-10)
        assert loss_value == pytest.approx((o - target[0]) ** 2, rel=1e-12)

    @pytest.mark.parametrize("activation", ["tanh", "elu", "relu", "identity"])
    @pytest.mark.parametrize("loss", ["mse", "mae", "cross_entropy"])
    def test_matches_finite_differences(self, rng, loss, activation):
        for trial in range(4):
            dim = int(rng.integers(3, 6))
            c = random_psd(rng, dim)
            model = small_model(
                rng, c, n_out=3, betas=(0.4, -0.8), betas_learnable=True,
                activation=activation, head_activation=activation,
            )
            xs = [rng.standard_normal(dim) for _ in range(3)]
            while activation in ("elu", "relu") and min_pre_activation(model, xs) < 1e-3:  # off the kink at 0
                xs = [rng.standard_normal(dim) for _ in range(3)]
            if loss == "cross_entropy":
                ys = [int(rng.integers(0, 3)) for _ in range(3)]
            else:
                ys = [rng.standard_normal(3) for _ in range(3)]
            if loss == "mae":
                # keep |residual| away from 0 where mae is non-smooth
                ys = [y + np.sign(y) * 0.5 for y in ys]
            _, grads = model_gradients(model, xs, ys, loss)
            grads = gradient_arrays(model, grads)
            fd = finite_difference_gradients(model, xs, ys, loss)
            assert relative_error(grads["coeffs_0"], fd["coeffs_0"]) <= 1e-5
            assert relative_error(grads["betas_0"], fd["betas_0"]) <= 1e-5
            assert relative_error(grads["head_w1"], fd["head_w1"]) <= 1e-5
            assert relative_error(grads["head_b1"], fd["head_b1"]) <= 1e-5
            assert relative_error(grads["head_w2"], fd["head_w2"]) <= 1e-5
            assert relative_error(grads["head_b2"], fd["head_b2"]) <= 1e-5

    @pytest.mark.parametrize("aggregation", ["concatenate", "sum", "mean"])
    def test_two_layer_gradients_match_finite_differences(self, rng, aggregation):
        dim = 4
        c = random_psd(rng, dim)
        cfg = TrainConfig(
            betas=(0.4, -0.6), order=2, hidden_dim=4, num_layers=2, aggregation=aggregation,
            betas_learnable=True, activation="tanh", seed=17,
        )
        model = init_model(c, 2, cfg)
        xs = [rng.standard_normal(dim) for _ in range(2)]
        ys = [rng.standard_normal(2) for _ in range(2)]
        _, grads = model_gradients(model, xs, ys, "mse")
        grads = gradient_arrays(model, grads)
        fd = finite_difference_gradients(model, xs, ys, "mse")
        for li in range(2):
            assert relative_error(grads[f"coeffs_{li}"], fd[f"coeffs_{li}"]) <= 1e-5
            assert relative_error(grads[f"betas_{li}"], fd[f"betas_{li}"]) <= 1e-5
        assert relative_error(grads["head_w1"], fd["head_w1"]) <= 1e-5

    def test_non_finite_loss_raises(self, rng):
        c = random_psd(rng, 3)
        model = small_model(rng, c)
        with pytest.raises(TrainingError):
            model_gradients(model, [np.zeros(3)], [np.array([np.nan, 0.0])], "mse")


def per_sample_oracle(model, xs, ys, loss, rng=None, dropout=0.0):
    """Mean loss and mean gradients over a loop of B = 1 model_gradients calls."""
    losses, per_sample = [], []
    for x, y in zip(xs, ys):
        value, grads = model_gradients(model, [x], [y], loss, rng=rng, dropout=dropout)
        losses.append(value)
        per_sample.append(gradient_arrays(model, grads))
    mean_grads = {name: np.mean([g[name] for g in per_sample], axis=0) for name in per_sample[0]}
    return float(np.mean(losses)), mean_grads


def assert_gradients_match(model, grads, oracle):
    """Equal to rtol 1e-12; entries that cancel to near zero are held to 1e-12 of their array's scale,
    since the batch and the loop add the same per-sample terms in a different order."""
    got = gradient_arrays(model, grads)
    assert sorted(got) == sorted(oracle)
    for name, want in oracle.items():
        scale = float(np.max(np.abs(want), initial=0.0))
        np.testing.assert_allclose(got[name], want, rtol=1e-12, atol=1e-12 * scale, err_msg=name)


class TestBatchedEngine:
    @pytest.mark.parametrize("batch", [1, 7, 64])
    @pytest.mark.parametrize("aggregation", ["concatenate", "sum", "mean"])
    @pytest.mark.parametrize("num_layers", [1, 2])
    @pytest.mark.parametrize("loss", ["mse", "mae", "cross_entropy"])
    @pytest.mark.parametrize("learnable", [True, False])
    @pytest.mark.parametrize("skip_k0", [False, True])
    def test_matches_per_sample_oracle(self, rng, batch, aggregation, num_layers, loss, learnable, skip_k0):
        dim, n_out = 4, 3
        c = random_psd(rng, dim)
        cfg = TrainConfig(
            betas=(0.4, -0.8, 2.5), order=2, hidden_dim=5, num_layers=num_layers, aggregation=aggregation,
            betas_learnable=learnable, skip_k0=skip_k0, seed=int(rng.integers(0, 2**31)),
        )
        model = init_model(c, n_out, cfg)
        xs = rng.standard_normal((batch, dim))
        if loss == "cross_entropy":
            ys = [int(v) for v in rng.integers(0, n_out, batch)]
        else:
            ys = rng.standard_normal((batch, n_out))
        value, grads = model_gradients(model, xs, ys, loss)
        want_value, want_grads = per_sample_oracle(model, xs, ys, loss)
        assert value == pytest.approx(want_value, rel=1e-12)
        assert_gradients_match(model, grads, want_grads)

    def test_dropout_mask_is_the_sequential_per_sample_stream(self, rng):
        dim, hidden, batch, dropout = 4, 6, 9, 0.4
        c = random_psd(rng, dim)
        model = init_model(c, 2, TrainConfig(betas=(0.5, 3.0), hidden_dim=hidden, seed=8))
        xs = rng.standard_normal((batch, dim))
        ys = rng.standard_normal((batch, 2))
        batched_rng, loop_rng, draw_rng = (np.random.default_rng(99) for _ in range(3))

        value, grads = model_gradients(model, xs, ys, "mse", rng=batched_rng, dropout=dropout)
        want_value, want_grads = per_sample_oracle(model, xs, ys, "mse", rng=loop_rng, dropout=dropout)
        assert value == pytest.approx(want_value, rel=1e-12)
        assert_gradients_match(model, grads, want_grads)

        # B sequential rng.random(hidden) draws, one per sample, give the same loss.
        masks = [(draw_rng.random(hidden) >= dropout) / (1.0 - dropout) for _ in range(batch)]
        per_row = [np.mean((model_oracle(model, c.matrix, x, m) - y) ** 2) for x, y, m in zip(xs, ys, masks)]
        assert value == pytest.approx(float(np.mean(per_row)), rel=1e-9)
        assert batched_rng.bit_generator.state == loop_rng.bit_generator.state
        assert batched_rng.bit_generator.state == draw_rng.bit_generator.state


def toy_two_class_problem(rng, n=200, dim=4):
    """Two well-separated Gaussian clusters; linearly separable by construction."""
    centers = np.array([[-1.5] * dim, [1.5] * dim])
    xs, ys = [], []
    for i in range(n):
        label = i % 2
        xs.append(centers[label] + 0.5 * rng.standard_normal(dim))
        ys.append(label)
    return xs, ys


class ReferenceAdam:
    """Adam stepped array by array, each with its own moments: the optimizer ``train`` is checked against."""

    def __init__(self, params, lr):
        self.params, self.lr, self.t = params, lr, 0
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]

    def step(self, grads):
        self.t += 1
        b1, b2 = _ADAM_BETAS
        for p, g, m, v in zip(self.params, grads, self.m, self.v):
            m *= b1
            m += (1 - b1) * g
            v *= b2
            with np.errstate(over="ignore"):
                v += (1 - b2) * g * g
            if not np.all(np.isfinite(v)):
                largest = np.max(np.abs(g))
                raise TrainingError(f"Adam's second moment overflows a double (largest |gradient| {largest:.3g})")
            m_hat = m / (1 - b1**self.t)
            v_hat = v / (1 - b2**self.t)
            p -= self.lr * m_hat / (np.sqrt(v_hat) + _ADAM_EPS)


def reference_train(model, train_data, val_data, cfg):
    """``train``'s oracle: per-array Adam over ``model``'s own arrays, and a deep copy of the whole model at each new
    best epoch.  Returns (best model, history, best epoch, diverged)."""
    xs, ys = np.asarray(train_data[0], dtype=float), np.asarray(train_data[1])
    loss, rng = cfg.task_loss, np.random.default_rng(cfg.seed)
    optimizer = ReferenceAdam(list(named_parameters(model).values()), cfg.learning_rate)
    history = {"train_loss": [], "val_loss": []}
    best_val, best_epoch, best_model, diverged = math.inf, 0, copy.deepcopy(model), False
    for epoch in range(cfg.epochs):
        order = rng.permutation(len(xs))
        try:
            for start in range(0, len(xs), cfg.batch_size):
                idx = order[start : start + cfg.batch_size]
                optimizer.step(model_gradients(model, xs[idx], ys[idx], loss, rng, cfg.dropout)[1])
            with np.errstate(over="ignore", invalid="ignore"):
                train_loss = evaluate_loss(model, xs, ys, loss)
                val_loss = evaluate_loss(model, *val_data, loss)
            if not (math.isfinite(train_loss) and math.isfinite(val_loss)):
                raise TrainingError("non-finite loss")
        except TrainingError:
            diverged = True
            break
        history["train_loss"].append(train_loss)
        history["val_loss"].append(val_loss)
        if val_loss < best_val:
            best_val, best_epoch, best_model = val_loss, epoch, copy.deepcopy(model)
    return best_model, history, best_epoch, diverged


def parity_case(rng, case):
    """(cfg, train_data, val_data) of one ``train`` parity case."""
    xs = rng.standard_normal((40, 4))
    ys = (xs @ rng.standard_normal(4))[:, None]
    if case == "diverges":  # test_divergence_aborts_with_flag's recipe: the validation loss overflows in epoch 5
        cfg = TrainConfig(
            betas=(0.5,), hidden_dim=4, activation="identity", head_activation="identity",
            learning_rate=0.1, epochs=30, batch_size=8, seed=0,
        )
        return cfg, (xs, 1e3 * ys), (1e152 * xs[:8], np.zeros((8, 1)))
    cfg = TrainConfig(hidden_dim=6, learning_rate=0.02, epochs=8, batch_size=8, seed=3, **{
        "dropout": dict(betas=(0.1, 5.0), dropout=0.5, task="classification"),
        "learned": dict(betas=(0.0, 0.5, 1.0), betas_learnable=True),
        "two_layer": dict(betas=(0.5, 2.0), num_layers=2, aggregation="sum", skip_k0=True),
    }[case])
    if cfg.task == "classification":
        ys = (ys[:, 0] > 0).astype(int)
    return cfg, (xs[:30], ys[:30]), (xs[30:], ys[30:])


class TestTrain:
    def test_zero_learning_rate_keeps_parameters(self, rng):
        c = random_psd(rng, 3)
        model = small_model(rng, c, n_out=1)
        before = copy.deepcopy(model)
        xs = [rng.standard_normal(3) for _ in range(8)]
        ys = [rng.standard_normal(1) for _ in range(8)]
        cfg = TrainConfig(betas=(1.0,), learning_rate=0.0, epochs=3, batch_size=4, seed=0)
        result = train(model, (xs, ys), (xs, ys), cfg)
        np.testing.assert_array_equal(result.model.layers[0].coeffs, before.layers[0].coeffs)
        np.testing.assert_array_equal(result.model.head.w1, before.head.w1)

    def test_separable_toy_classification(self, rng):
        xs, ys = toy_two_class_problem(rng)
        cov = random_psd_from_features(xs)
        cfg = TrainConfig(
            betas=(0.1, 5.0), order=2, hidden_dim=8, task="classification", seed=11,
            learning_rate=0.02, epochs=60, batch_size=32,
        )
        model = init_model(cov, 2, cfg)
        result = train(model, (xs, ys), (xs, ys), dataclasses.replace(cfg, seed=1))
        assert np.mean(np.argmax(forward_rows(result.model, xs), axis=1) == ys) >= 0.95
        assert len(result.history["train_loss"]) == 60

    def test_deterministic_history(self, rng):
        xs, ys = toy_two_class_problem(rng, n=60)
        cov = random_psd_from_features(xs)
        histories = []
        for _ in range(2):
            cfg = TrainConfig(
                betas=(0.5,), hidden_dim=4, task="classification", seed=5, learning_rate=0.01, epochs=5, batch_size=16
            )
            model = init_model(cov, 2, cfg)
            histories.append(train(model, (xs, ys), (xs, ys), dataclasses.replace(cfg, seed=9)).history)
        assert histories[0] == histories[1]

    def test_best_model_selected_by_validation(self, rng):
        xs, ys = toy_two_class_problem(rng, n=80)
        cov = random_psd_from_features(xs)
        cfg = TrainConfig(
            betas=(1.0,), hidden_dim=4, task="classification", seed=2, learning_rate=0.05, epochs=10, batch_size=16
        )
        model = init_model(cov, 2, cfg)
        result = train(model, (xs[:60], ys[:60]), (xs[60:], ys[60:]), dataclasses.replace(cfg, seed=3))
        val_losses = result.history["val_loss"]
        assert result.best_epoch == int(np.argmin(val_losses))

    def test_divergence_aborts_with_flag(self, rng):
        # Validation rows 1e152 times the training rows: through identity activations the validation
        # loss grows about 100-fold an epoch as the weights grow, and overflows in epoch 5.
        xs = rng.standard_normal((40, 4))
        ys = 1e3 * (xs @ rng.standard_normal(4))[:, None]
        cov = random_psd_from_features(list(xs))
        cfg = TrainConfig(
            betas=(0.5,), hidden_dim=4, activation="identity", head_activation="identity",
            learning_rate=0.1, epochs=30, batch_size=8, seed=0,
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = train(init_model(cov, 1, cfg), (xs, ys), (1e152 * xs[:8], np.zeros((8, 1))), cfg)
        assert caught == []
        assert result.diverged
        assert 1 <= len(result.history["val_loss"]) < cfg.epochs
        assert all(math.isfinite(v) for v in result.history["val_loss"])
        assert np.all(np.isfinite(result.model.head.w1))

    @pytest.mark.parametrize("case", ["dropout", "learned", "two_layer", "diverges"])
    def test_matches_the_per_array_reference(self, rng, case):
        cfg, train_data, val_data = parity_case(rng, case)
        cov = random_psd_from_features(list(train_data[0]))
        n_out = 2 if cfg.task == "classification" else 1
        want, history, best_epoch, diverged = reference_train(init_model(cov, n_out, cfg), train_data, val_data, cfg)
        result = train(init_model(cov, n_out, cfg), train_data, val_data, cfg)
        assert diverged == (case == "diverges") and len(history["val_loss"]) > 1
        assert (result.history, result.best_epoch, result.diverged) == (history, best_epoch, diverged)
        got = named_parameters(result.model)
        assert list(got) == list(named_parameters(want))
        for name, expected in named_parameters(want).items():
            np.testing.assert_array_equal(got[name], expected, err_msg=name)

    def test_adam_second_moment_overflow_raises_without_warning(self):
        # Rows scaled by 1e200 through identity activations give gradient entries near 1e199, whose squares
        # pass the largest double; the mae loss itself stays finite.
        rng = np.random.default_rng(0)
        xs, ys = rng.standard_normal((16, 3)), rng.standard_normal((16, 1))
        cfg = TrainConfig(
            betas=(0.5,), hidden_dim=4, activation="identity", head_activation="identity", loss="mae",
            epochs=2, batch_size=8, seed=0,
        )
        model = init_model(random_psd_from_features(list(xs)), 1, cfg)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            message = (
                r"^train epoch 1 of 2 diverged before any finite validation loss: "
                r"Adam's second moment overflows a double \(largest \|gradient\| 4\.56e\+199\)$"
            )
            with pytest.raises(TrainingError, match=message):
                train(model, (1e200 * xs, ys), (xs, ys), cfg)
        assert caught == []

    def test_returns_the_trained_model_at_its_best_epoch(self):
        # Four samples a batch at lr 0.05 make the validation loss wander: its minimum is not the last epoch.
        rng = np.random.default_rng(3)
        xs, ys = rng.standard_normal((24, 4)), rng.standard_normal((24, 1))
        val_data = (rng.standard_normal((12, 4)), rng.standard_normal((12, 1)))
        cfg = TrainConfig(betas=(0.5, 2.0), hidden_dim=16, learning_rate=0.05, epochs=12, batch_size=4, seed=1)
        model = init_model(random_psd_from_features(list(xs)), 1, cfg)
        covariance, basis = model.covariance, model.basis
        result = train(model, (xs, ys), val_data, cfg)
        assert result.best_epoch < len(result.history["val_loss"]) - 1
        assert evaluate_loss(result.model, *val_data, "mse") == result.history["val_loss"][result.best_epoch]
        assert result.model is model
        assert result.model.covariance is covariance and result.model.basis is basis

    def test_divergence_before_the_first_epoch_ends_raises_naming_the_stage(self, rng):
        xs, ys = toy_two_class_problem(rng, n=20)
        cov = random_psd_from_features(xs)
        ys_reg = [np.array([float(y)]) for y in ys]
        cfg = TrainConfig(betas=(0.5,), hidden_dim=4, seed=2, learning_rate=1e200, epochs=6, batch_size=8)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(TrainingError) as info:
                train(init_model(cov, 1, cfg), (xs, ys_reg), (xs, ys_reg), dataclasses.replace(cfg, seed=0))
        assert caught == []
        assert str(info.value) == (
            "train epoch 1 of 6 diverged before any finite validation loss: non-finite batch loss inf"
        )

    def test_learned_beta_parity_with_fixed_grid(self, rng):
        xs, ys = toy_two_class_problem(rng)
        cov = random_psd_from_features(xs)
        split = 150
        train_set = (xs[:split], ys[:split])
        val_set = (xs[split:], ys[split:])
        cfg = TrainConfig(betas=(0.0,), learning_rate=0.02, epochs=60, batch_size=32, seed=4, task="classification")

        fixed_accuracies = []
        for beta in (0.1, 5.0, 15.0):
            model = init_model(cov, 2, TrainConfig(betas=(beta,), order=2, hidden_dim=8, task="classification", seed=11))
            result = train(model, train_set, val_set, cfg)
            fixed_accuracies.append(np.mean(np.argmax(forward_rows(result.model, val_set[0]), axis=1) == val_set[1]))

        learned = init_model(
            cov, 2, TrainConfig(betas=(0.0, 0.0, 0.0), hidden_dim=8, task="classification", betas_learnable=True, seed=11)
        )
        learned_result = train(learned, train_set, val_set, cfg)
        learned_acc = np.mean(np.argmax(forward_rows(learned_result.model, val_set[0]), axis=1) == val_set[1])
        assert learned_acc >= max(fixed_accuracies) - 0.03
        assert not np.allclose(learned_result.model.layers[0].betas, 0.0)


def random_psd_from_features(xs):
    from covdensity.covariance import DataMatrix, sample_covariance

    return trace_normalize(sample_covariance(DataMatrix(values=np.stack(xs))))


class TestCheckpoint:
    def test_round_trip_exact(self, rng, tmp_path):
        c = random_psd(rng, 4)
        model = small_model(rng, c, betas_learnable=True)
        payload = model_to_dict(model)
        restored = model_from_dict(payload)
        np.testing.assert_array_equal(restored.layers[0].coeffs, model.layers[0].coeffs)
        np.testing.assert_array_equal(restored.head.w2, model.head.w2)
        np.testing.assert_array_equal(restored.covariance, c.matrix)
        x = rng.standard_normal(4)
        np.testing.assert_array_equal(
            forward_rows(restored, [x])[0], forward_rows(model, [x])[0]
        )

    def test_json_file_round_trip(self, rng, tmp_path):
        from covdensity.network import load_model, save_model

        c = random_psd(rng, 3)
        model = small_model(rng, c)
        path = tmp_path / "model.json"
        save_model(path, model)
        restored = load_model(path)
        x = rng.standard_normal(3)
        np.testing.assert_array_equal(
            forward_rows(restored, [x])[0], forward_rows(model, [x])[0]
        )

    def test_version_check(self, rng):
        c = random_psd(rng, 3)
        payload = model_to_dict(small_model(rng, c))
        payload["version"] = 99
        with pytest.raises(ValueError, match="version"):
            model_from_dict(payload)

    @pytest.mark.parametrize(
        "corrupt",
        [
            pytest.param(lambda p: p["head"].update(b1=p["head"]["b1"][:-1]), id="b1-length"),
            pytest.param(lambda p: p["head"].update(w2=[r + [0.0] for r in p["head"]["w2"]]), id="w2-columns"),
            pytest.param(lambda p: p["head"].update(b2=[0.0]), id="b2-length"),
            pytest.param(lambda p: p.update(covariance=p["covariance"][:-1]), id="covariance-not-square"),
            pytest.param(lambda p: p.update(covariance=[r[:-1] for r in p["covariance"][:-1]]), id="w1-width"),
        ],
    )
    def test_inconsistent_shapes_rejected_at_load(self, rng, corrupt):
        payload = model_to_dict(small_model(rng, random_psd(rng, 5), n_out=2))
        model_from_dict(copy.deepcopy(payload))
        corrupt(payload)
        with pytest.raises(ShapeError):
            model_from_dict(payload)

    @pytest.mark.parametrize(
        "corrupt,error,message",
        [
            pytest.param(
                lambda p: p.pop("head"), ConfigError,
                "checkpoint /head: missing key, got ['version', 'task', 'covariance', 'layers']", id="no-head",
            ),
            pytest.param(
                lambda p: p["layers"][0].pop("betas"), ConfigError,
                "checkpoint /layers/0/betas: missing key, got ['coeffs', 'betas_learnable', 'aggregation', "
                "'activation', 'skip_k0']",
                id="no-layer-betas",
            ),
            pytest.param(
                lambda p: p["layers"][0].update(scale=1.0), ConfigError,
                "checkpoint /layers/0/scale: unknown key, got 1.0", id="unknown-layer-key",
            ),
            pytest.param(
                lambda p: p["layers"][0].update(betas_learnable=1), ConfigError,
                "checkpoint /layers/0/betas_learnable: expected bool, got 1", id="int-learnable",
            ),
            pytest.param(
                lambda p: p["layers"][0].update(skip_k0="no"), ConfigError,
                "checkpoint /layers/0/skip_k0: expected bool, got 'no'", id="str-skip-k0",
            ),
            pytest.param(
                lambda p: p["layers"][0].update(coeffs=[[[]]], betas=[1.0]), ShapeError,
                "checkpoint /layers/0/coeffs: must have non-empty shape [f_out, f_in, taps], got [1, 1, 0]",
                id="no-taps",
            ),
        ],
    )
    def test_malformed_entries_rejected_at_load(self, rng, corrupt, error, message):
        payload = model_to_dict(small_model(rng, random_psd(rng, 5), n_out=2))
        corrupt(payload)
        with pytest.raises(error) as info:
            model_from_dict(payload)
        assert type(info.value) is error and str(info.value) == message

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("key", ["w1", "b1", "w2", "b2"])
    def test_non_finite_head_rejected_at_load(self, rng, key, value):
        payload = model_to_dict(small_model(rng, random_psd(rng, 5), n_out=2))
        entries = payload["head"][key]
        (entries[0] if key.startswith("w") else entries)[-1] = value
        with pytest.raises(ValueError) as info:
            model_from_dict(payload)
        assert str(info.value) == f"checkpoint /head/{key}: entries must be finite, got {value!r}"

    def test_fields_written_in_declaration_order_and_skip_k0_defaults(self, rng):
        payload = model_to_dict(small_model(rng, random_psd(rng, 3)))
        assert list(payload["layers"][0]) == ["coeffs", "betas", "betas_learnable", "aggregation", "activation", "skip_k0"]
        assert list(payload["head"]) == ["w1", "b1", "w2", "b2", "activation"]
        del payload["layers"][0]["skip_k0"]
        model = model_from_dict(payload)
        assert model.layers[0].skip_k0 is False

    def test_direct_model_checks_that_each_layer_reads_the_channels_before_it(self, rng):
        model = small_model(rng, random_psd(rng, 3), num_layers=2)  # layer 0 writes 3 channels
        layer = dataclasses.replace(model.layers[1], coeffs=np.zeros((3, 2, 3)))
        with pytest.raises(ShapeError) as info:
            dataclasses.replace(model, layers=[model.layers[0], layer])
        assert str(info.value) == "/layers/1/coeffs: must have non-empty shape [f_out, 3, taps], got [3, 2, 3]"
        first = dataclasses.replace(model.layers[0], coeffs=np.zeros((3, 2, 3)))  # the signal has one channel
        with pytest.raises(ShapeError) as info:
            dataclasses.replace(model, layers=[first, model.layers[1]])
        assert str(info.value) == "/layers/0/coeffs: must have non-empty shape [f_out, 1, taps], got [3, 2, 3]"
        with pytest.raises(ValueError, match=r"^/layers: must be a non-empty list, got \[\]$"):
            dataclasses.replace(model, layers=[])

    @pytest.mark.parametrize("value", [
        [[1.0, -2.5], [0.0, 3.0]], [[1.0, math.inf]], [[math.nan, 1.0]], [1.0, 2.0], [[]], [[1.0, 2.0, 3.0]],
    ])
    def test_array_check_reads_a_float_array_as_its_nested_list(self, value):
        def outcome(v):
            try:
                return _array("/w", v, ("rows", "cols"), {"cols": 2})
            except ValueError as exc:
                return type(exc), str(exc)

        got, want = outcome(np.array(value)), outcome(value)
        if isinstance(want, np.ndarray):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes() and got.shape == want.shape
        else:
            assert got == want

    def test_array_check_scans_a_bool_array(self):
        with pytest.raises(ConfigError, match=r"^/w: entries must be numbers a double holds, got True$"):
            _array("/w", np.array([[True, False]]), ("rows", "cols"), {})

    def test_zero_tap_filter_bank_rejected(self):
        with pytest.raises(ShapeError, match="non-empty"):
            LayerParams(coeffs=np.zeros((1, 1, 0)), betas=[1.0])
