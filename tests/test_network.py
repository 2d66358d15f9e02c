import copy
import math

import numpy as np
import pytest

from conftest import random_psd
from covdensity.density import _as_decomposition, density_operator, density_values
from covdensity.filtering import FilterSpec, filter_apply
from covdensity.network import (
    ACTIVATIONS,
    FORWARD_BLOCK,
    HeadParams,
    LayerParams,
    ModelParams,
    TrainConfig,
    accuracy,
    evaluate_loss,
    forward_rows,
    _aggregate,
    _layer_channels,
    init_model,
    model_from_dict,
    model_gradients,
    model_to_dict,
    train,
)
from covdensity.errors import ShapeError, TrainingError


def layer_oracle(params, rhos, x_in):
    """Literal loop nest over the layer definition, scale by scale."""
    act = ACTIVATIONS[params.activation][0]
    outs = []
    for mo in range(params.f_out):
        acc = np.zeros(x_in.shape[1])
        for g in range(params.f_in):
            spec = FilterSpec(
                coeffs=params.coeffs[mo, g], beta=params.betas[mo], skip_k0=params.skip_k0
            )
            acc = acc + filter_apply(spec, rhos[mo], x_in[g])
        outs.append(act(acc))
    return np.stack(outs)


def model_oracle(model, cov_matrix, x, mask=None):
    """Independently coded forward pass: per-time layers, flatten, head (hidden units times ``mask``)."""
    if x.ndim == 1:
        x = x[:, None]
    per_time = []
    for t in range(x.shape[1]):
        channels = x[:, t][None, :]
        for layer in model.layers:
            rhos = [density_operator(cov_matrix, b) for b in layer.betas]
            channels = layer_oracle(layer, rhos, channels)
            if layer.aggregation == "sum":
                channels = channels.sum(axis=0)[None, :]
            elif layer.aggregation == "mean":
                channels = channels.mean(axis=0)[None, :]
        final = channels.reshape(-1)
        per_time.append(final)
    flat = np.stack(per_time, axis=1).reshape(-1)
    act = ACTIVATIONS[model.head.activation][0]
    hidden = act(model.head.w1 @ flat + model.head.b1)
    if mask is not None:
        hidden = hidden * mask
    return model.head.w2 @ hidden + model.head.b2


def small_model(rng, dim=4, n_out=2, betas=(0.5, -0.4, 2.0), **kwargs):
    return init_model(
        dim=dim,
        n_outputs=n_out,
        betas=betas,
        order=kwargs.pop("order", 2),
        hidden_dim=kwargs.pop("hidden_dim", 5),
        seed=int(rng.integers(0, 2**31)),
        **kwargs,
    )


def layer_output(params, c, x_in):
    """One layer's aggregated output for f_in input channels, each a dim vector, from the batched kernel."""
    decomp = _as_decomposition(c)
    rho = density_values(decomp.eigenvalues, params.betas)[0]
    x = np.atleast_2d(np.asarray(x_in, dtype=float))
    out, _ = _layer_channels(params, decomp.eigenvectors, rho, x[None, :, :, None])
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
        dense = density_operator(c, 1.3).matrix()
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
        model = ModelParams(layers=[layer], head=head, task="regression")
        x = rng.standard_normal(3)
        np.testing.assert_allclose(forward_rows(model, c, [x])[0], x, atol=1e-12)

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
        model = ModelParams(layers=[layer], head=head, task="regression")
        np.testing.assert_allclose(forward_rows(model, c, [rng.standard_normal(3)])[0], bias, atol=1e-15)

    @pytest.mark.parametrize("aggregation", ["concatenate", "sum", "mean"])
    @pytest.mark.parametrize("time_points", [1, 3])
    def test_matches_duplicate_oracle(self, rng, aggregation, time_points):
        dim = 4
        c = random_psd(rng, dim)
        model = init_model(
            dim=dim, n_outputs=2, betas=(0.3, -0.7, 5.0), order=2, hidden_dim=6,
            aggregation=aggregation, time_points=time_points, seed=7,
        )
        x = rng.standard_normal((dim, time_points))
        got = forward_rows(model, c, [x])[0]
        want = model_oracle(model, c.matrix, x)
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-11)

    def test_two_layer_stack(self, rng):
        dim = 3
        c = random_psd(rng, dim)
        model = init_model(
            dim=dim, n_outputs=1, betas=(0.5, 1.5), order=1, hidden_dim=4,
            num_layers=2, aggregation="concatenate", seed=3,
        )
        x = rng.standard_normal(dim)
        got = forward_rows(model, c, [x])[0]
        want = model_oracle(model, c.matrix, x)
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-11)

    @pytest.mark.parametrize("time_points", [1, 3])
    def test_forward_rows_match_single_rows_across_blocks(self, rng, time_points):
        dim = 4
        c = random_psd(rng, dim)
        model = init_model(dim=dim, n_outputs=3, betas=(0.3, 2.0), hidden_dim=6, time_points=time_points, seed=5)
        xs = rng.standard_normal((FORWARD_BLOCK + 3, dim, time_points))
        got = forward_rows(model, c, xs)
        want = np.stack([forward_rows(model, c, [x])[0] for x in xs])
        np.testing.assert_allclose(got, want, rtol=1e-12)


def finite_difference_gradients(model, cov, xs, ys, loss, step=1e-5):
    """Central differences on every trainable array, one entry at a time."""
    def batch_loss():
        return evaluate_loss(model, cov, xs, ys, loss) * 1.0

    grads = {}
    arrays = {}
    for li, layer in enumerate(model.layers):
        arrays[f"coeffs_{li}"] = layer.coeffs
        if layer.betas_learnable:
            arrays[f"betas_{li}"] = layer.betas
    arrays.update(
        head_w1=model.head.w1, head_b1=model.head.b1,
        head_w2=model.head.w2, head_b2=model.head.b2,
    )
    for name, arr in arrays.items():
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


def relative_error(a, b):
    denom = max(float(np.linalg.norm(a)), float(np.linalg.norm(b)), 1e-8)
    return float(np.linalg.norm(a - b)) / denom


class TestGradients:
    def test_zero_input_zero_coeff_gradients(self, rng):
        c = random_psd(rng, 3)
        model = small_model(rng, dim=3, betas_learnable=True)
        xs = [np.zeros(3)] * 4
        ys = [np.zeros(2)] * 4
        _, grads = model_gradients(model, c, xs, ys, "mse")
        np.testing.assert_allclose(grads.layer_coeffs[0], 0.0, atol=1e-15)
        np.testing.assert_allclose(grads.layer_betas[0], 0.0, atol=1e-15)

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
        model = ModelParams(layers=[layer], head=head, task="regression")
        loss_value, grads = model_gradients(model, c, [x], [target], "mse")

        z = math.exp(-beta * a) + math.exp(-beta * b)
        r1, r2 = math.exp(-beta * a) / z, math.exp(-beta * b) / z
        mean_lam = r1 * a + r2 * b
        o = r1 * x[0] + r2 * x[1]
        do_dbeta = r1 * (mean_lam - a) * x[0] + r2 * (mean_lam - b) * x[1]
        want = 2.0 * (o - target[0]) * do_dbeta
        assert grads.layer_betas[0][0] == pytest.approx(want, rel=1e-10)
        assert loss_value == pytest.approx((o - target[0]) ** 2, rel=1e-12)

    @pytest.mark.parametrize("loss", ["mse", "mae", "cross_entropy"])
    def test_matches_finite_differences(self, rng, loss):
        for trial in range(4):
            dim = int(rng.integers(3, 6))
            c = random_psd(rng, dim)
            model = small_model(
                rng, dim=dim, n_out=3, betas=(0.4, -0.8), betas_learnable=True,
                activation="tanh", head_activation="tanh",
            )
            xs = [rng.standard_normal(dim) for _ in range(3)]
            if loss == "cross_entropy":
                ys = [int(rng.integers(0, 3)) for _ in range(3)]
            else:
                ys = [rng.standard_normal(3) for _ in range(3)]
            if loss == "mae":
                # keep |residual| away from 0 where mae is non-smooth
                ys = [y + np.sign(y) * 0.5 for y in ys]
            _, grads = model_gradients(model, c, xs, ys, loss)
            fd = finite_difference_gradients(model, c, xs, ys, loss)
            assert relative_error(grads.layer_coeffs[0], fd["coeffs_0"]) <= 1e-5
            assert relative_error(grads.layer_betas[0], fd["betas_0"]) <= 1e-5
            assert relative_error(grads.head_w1, fd["head_w1"]) <= 1e-5
            assert relative_error(grads.head_b1, fd["head_b1"]) <= 1e-5
            assert relative_error(grads.head_w2, fd["head_w2"]) <= 1e-5
            assert relative_error(grads.head_b2, fd["head_b2"]) <= 1e-5

    @pytest.mark.parametrize("aggregation", ["concatenate", "sum", "mean"])
    def test_two_layer_gradients_match_finite_differences(self, rng, aggregation):
        dim = 4
        c = random_psd(rng, dim)
        model = init_model(
            dim=dim, n_outputs=2, betas=(0.4, -0.6), order=2, hidden_dim=4,
            num_layers=2, aggregation=aggregation, betas_learnable=True,
            activation="tanh", seed=17,
        )
        xs = [rng.standard_normal(dim) for _ in range(2)]
        ys = [rng.standard_normal(2) for _ in range(2)]
        _, grads = model_gradients(model, c, xs, ys, "mse")
        fd = finite_difference_gradients(model, c, xs, ys, "mse")
        for li in range(2):
            assert relative_error(grads.layer_coeffs[li], fd[f"coeffs_{li}"]) <= 1e-5
            assert relative_error(grads.layer_betas[li], fd[f"betas_{li}"]) <= 1e-5
        assert relative_error(grads.head_w1, fd["head_w1"]) <= 1e-5

    def test_non_finite_loss_raises(self, rng):
        c = random_psd(rng, 3)
        model = small_model(rng, dim=3)
        with pytest.raises(TrainingError):
            model_gradients(model, c, [np.zeros(3)], [np.array([np.nan, 0.0])], "mse")


def gradient_arrays(grads):
    """Every gradient array of a ModelGradients, by name."""
    arrays = {f"coeffs_{i}": g for i, g in enumerate(grads.layer_coeffs)}
    arrays.update({f"betas_{i}": g for i, g in enumerate(grads.layer_betas)})
    arrays.update(
        head_w1=grads.head_w1, head_b1=grads.head_b1, head_w2=grads.head_w2, head_b2=grads.head_b2
    )
    return arrays


def per_sample_oracle(model, c, xs, ys, loss, rng=None, dropout=0.0):
    """Mean loss and mean gradients over a loop of B = 1 model_gradients calls."""
    losses, per_sample = [], []
    for x, y in zip(xs, ys):
        value, grads = model_gradients(model, c, [x], [y], loss, rng=rng, dropout=dropout)
        losses.append(value)
        per_sample.append(gradient_arrays(grads))
    mean_grads = {name: np.mean([g[name] for g in per_sample], axis=0) for name in per_sample[0]}
    return float(np.mean(losses)), mean_grads


def assert_gradients_match(grads, oracle):
    """Equal to rtol 1e-12; entries that cancel to near zero are held to 1e-12 of their array's scale,
    since the batch and the loop add the same per-sample terms in a different order."""
    got = gradient_arrays(grads)
    assert sorted(got) == sorted(oracle)
    for name, want in oracle.items():
        scale = float(np.max(np.abs(want), initial=0.0))
        np.testing.assert_allclose(got[name], want, rtol=1e-12, atol=1e-12 * scale, err_msg=name)


class TestBatchedEngine:
    @pytest.mark.parametrize("batch", [1, 7, 64])
    @pytest.mark.parametrize("aggregation", ["concatenate", "sum", "mean"])
    @pytest.mark.parametrize("num_layers", [1, 2])
    @pytest.mark.parametrize("time_points", [1, 3])
    @pytest.mark.parametrize("loss", ["mse", "mae", "cross_entropy"])
    @pytest.mark.parametrize("learnable", [True, False])
    def test_matches_per_sample_oracle(self, rng, batch, aggregation, num_layers, time_points, loss, learnable):
        dim, n_out = 4, 3
        c = random_psd(rng, dim)
        model = init_model(
            dim=dim, n_outputs=n_out, betas=(0.4, -0.8, 2.5), order=2, hidden_dim=5,
            num_layers=num_layers, aggregation=aggregation, betas_learnable=learnable,
            time_points=time_points, seed=int(rng.integers(0, 2**31)),
        )
        xs = rng.standard_normal((batch, dim, time_points))
        if loss == "cross_entropy":
            ys = [int(v) for v in rng.integers(0, n_out, batch)]
        else:
            ys = rng.standard_normal((batch, n_out))
        value, grads = model_gradients(model, c, xs, ys, loss)
        want_value, want_grads = per_sample_oracle(model, c, xs, ys, loss)
        assert value == pytest.approx(want_value, rel=1e-12)
        assert_gradients_match(grads, want_grads)

    def test_dropout_mask_is_the_sequential_per_sample_stream(self, rng):
        dim, hidden, batch, dropout = 4, 6, 9, 0.4
        c = random_psd(rng, dim)
        model = init_model(dim=dim, n_outputs=2, betas=(0.5, 3.0), hidden_dim=hidden, seed=8)
        xs = rng.standard_normal((batch, dim))
        ys = rng.standard_normal((batch, 2))
        batched_rng, loop_rng, draw_rng = (np.random.default_rng(99) for _ in range(3))

        value, grads = model_gradients(model, c, xs, ys, "mse", rng=batched_rng, dropout=dropout)
        want_value, want_grads = per_sample_oracle(model, c, xs, ys, "mse", rng=loop_rng, dropout=dropout)
        assert value == pytest.approx(want_value, rel=1e-12)
        assert_gradients_match(grads, want_grads)

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


class TestTrain:
    def test_zero_learning_rate_keeps_parameters(self, rng):
        c = random_psd(rng, 3)
        model = small_model(rng, dim=3, n_out=1)
        before = copy.deepcopy(model)
        xs = [rng.standard_normal(3) for _ in range(8)]
        ys = [rng.standard_normal(1) for _ in range(8)]
        cfg = TrainConfig(learning_rate=0.0, epochs=3, batch_size=4, seed=0)
        result = train(model, c, (xs, ys), (xs, ys), cfg)
        np.testing.assert_array_equal(result.model.layers[0].coeffs, before.layers[0].coeffs)
        np.testing.assert_array_equal(result.model.head.w1, before.head.w1)

    def test_separable_toy_classification(self, rng):
        xs, ys = toy_two_class_problem(rng)
        cov = random_psd_from_features(xs)
        model = init_model(
            dim=4, n_outputs=2, betas=(0.1, 5.0), order=2, hidden_dim=8,
            task="classification", seed=11,
        )
        cfg = TrainConfig(learning_rate=0.02, epochs=60, batch_size=32, seed=1, loss="cross_entropy")
        result = train(model, cov, (xs, ys), (xs, ys), cfg)
        assert accuracy(result.model, cov, xs, ys) >= 0.95
        assert len(result.history["train_loss"]) == 60

    def test_deterministic_history(self, rng):
        xs, ys = toy_two_class_problem(rng, n=60)
        cov = random_psd_from_features(xs)
        histories = []
        for _ in range(2):
            model = init_model(
                dim=4, n_outputs=2, betas=(0.5,), hidden_dim=4, task="classification", seed=5
            )
            cfg = TrainConfig(learning_rate=0.01, epochs=5, batch_size=16, seed=9, loss="cross_entropy")
            histories.append(train(model, cov, (xs, ys), (xs, ys), cfg).history)
        assert histories[0] == histories[1]

    def test_best_model_selected_by_validation(self, rng):
        xs, ys = toy_two_class_problem(rng, n=80)
        cov = random_psd_from_features(xs)
        model = init_model(dim=4, n_outputs=2, betas=(1.0,), hidden_dim=4, task="classification", seed=2)
        cfg = TrainConfig(learning_rate=0.05, epochs=10, batch_size=16, seed=3, loss="cross_entropy")
        result = train(model, cov, (xs[:60], ys[:60]), (xs[60:], ys[60:]), cfg)
        val_losses = result.history["val_loss"]
        assert result.best_epoch == int(np.argmin(val_losses))

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_divergence_aborts_with_flag(self, rng):
        xs, ys = toy_two_class_problem(rng, n=20)
        cov = random_psd_from_features(xs)
        model = init_model(dim=4, n_outputs=1, betas=(0.5,), hidden_dim=4, seed=2)
        ys_reg = [np.array([float(y)]) for y in ys]
        cfg = TrainConfig(learning_rate=1e200, epochs=6, batch_size=8, seed=0, loss="mse")
        result = train(model, cov, (xs, ys_reg), (xs, ys_reg), cfg)
        assert result.diverged
        assert np.all(np.isfinite(result.model.head.w1))

    def test_learned_beta_parity_with_fixed_grid(self, rng):
        xs, ys = toy_two_class_problem(rng)
        cov = random_psd_from_features(xs)
        split = 150
        train_set = (xs[:split], ys[:split])
        val_set = (xs[split:], ys[split:])
        cfg = TrainConfig(learning_rate=0.02, epochs=60, batch_size=32, seed=4, loss="cross_entropy")

        fixed_accuracies = []
        for beta in (0.1, 5.0, 15.0):
            model = init_model(
                dim=4, n_outputs=2, betas=(beta,), order=2, hidden_dim=8,
                task="classification", seed=11,
            )
            result = train(model, cov, train_set, val_set, cfg)
            fixed_accuracies.append(accuracy(result.model, cov, *val_set))

        learned = init_model(
            dim=4, n_outputs=2, betas=(0.0, 0.0, 0.0), order=2, hidden_dim=8,
            task="classification", betas_learnable=True, seed=11,
        )
        learned_result = train(learned, cov, train_set, val_set, cfg)
        learned_acc = accuracy(learned_result.model, cov, *val_set)
        assert learned_acc >= max(fixed_accuracies) - 0.03
        assert not np.allclose(learned_result.model.layers[0].betas, 0.0)


def random_psd_from_features(xs):
    from covdensity.covariance import DataMatrix, sample_covariance, trace_normalize

    return trace_normalize(sample_covariance(DataMatrix(values=np.stack(xs))))


class TestCheckpoint:
    def test_round_trip_exact(self, rng, tmp_path):
        c = random_psd(rng, 4)
        model = small_model(rng, dim=4, betas_learnable=True)
        payload = model_to_dict(model, c)
        restored, cov_matrix = model_from_dict(payload)
        np.testing.assert_array_equal(restored.layers[0].coeffs, model.layers[0].coeffs)
        np.testing.assert_array_equal(restored.head.w2, model.head.w2)
        np.testing.assert_array_equal(cov_matrix, c.matrix)
        x = rng.standard_normal(4)
        np.testing.assert_array_equal(
            forward_rows(restored, cov_matrix, [x])[0], forward_rows(model, c, [x])[0]
        )

    def test_json_file_round_trip(self, rng, tmp_path):
        from covdensity.network import load_model, save_model

        c = random_psd(rng, 3)
        model = small_model(rng, dim=3)
        path = tmp_path / "model.json"
        save_model(path, model, c)
        restored, cov_matrix = load_model(path)
        x = rng.standard_normal(3)
        np.testing.assert_array_equal(
            forward_rows(restored, cov_matrix, [x])[0], forward_rows(model, c, [x])[0]
        )

    def test_version_check(self, rng):
        c = random_psd(rng, 3)
        payload = model_to_dict(small_model(rng, dim=3), c)
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
        payload = model_to_dict(small_model(rng, dim=5, n_out=2), random_psd(rng, 5))
        model_from_dict(copy.deepcopy(payload))
        corrupt(payload)
        with pytest.raises(ShapeError):
            model_from_dict(payload)
