"""Trainable multi-scale density-filter network.

Architecture: one or more filter-bank layers over a fixed covariance matrix
(one inverse temperature per output scale, optionally learnable), applied
independently to every time point of the input signal, followed by a flatten
across channels and time and a single-hidden-layer fully connected head.

The covariance is computed once from training data and held fixed, so every
scale's density eigenvalues live on the same fixed spectrum; beta gradients
therefore flow through the eigenvalue map only, via
d rho_i / d beta = rho_i (E_q[lambda] - lambda_i).

Batch layout: every pass carries a batch axis.  A layer's input is an array
of shape (B, f_in, m, T) -- B samples, f_in channels, m covariance
eigen-directions, T time points -- and its output is (B, f_out, m, T).  The
density eigenvalues rho and the filter responses depend only on the
parameters, so each layer computes them once per call; the basis changes are
the broadcast matmuls v.T @ x and v @ y; the head works on the flattened
(B, C * m * T) features.  Every forward pass, training or not, runs this one
kernel, and the backward pass reduces over B.

Block forward: forward-only calls over many rows (``forward_rows``, and
through it ``evaluate_loss``, ``accuracy`` and CLI ``predict``) run the rows in
blocks of ``FORWARD_BLOCK`` and keep no backward tape, so peak memory does not
grow with the row count.  ``model_gradients`` runs its batch as one block.

Dropout stream: ``model_gradients`` draws its dropout mask as one
``rng.random((B, hidden))`` call.  That consumes the generator's stream exactly
as B consecutive ``rng.random(hidden)`` draws, one per sample in batch order,
so seeded training does not depend on how samples are grouped into passes.

All gradients are analytic (no autodiff dependency) and are validated against
central finite differences in the test suite.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass

import numpy as np

from .covariance import CovarianceMatrix, as_matrix
from .density import _as_decomposition, density_values
from .errors import ShapeError, TrainingError

AGGREGATIONS = ("concatenate", "sum", "mean")
TASKS = ("regression", "classification")
LOSSES = ("mse", "mae", "cross_entropy")

# Rows per forward-only pass: large enough to amortise per-call overhead, small
# enough that the pass's temporaries (about 4.5 KB a row at dim 22, three
# scales, 128 hidden units) stay a small fraction of the process.
FORWARD_BLOCK = 64


def _dtanh(x):
    t = np.tanh(x)
    return 1.0 - t * t


def _elu(x):
    return np.where(x > 0, x, np.expm1(x))


def _delu(x):
    return np.where(x > 0, 1.0, np.exp(x))


def _relu(x):
    return np.maximum(x, 0.0)


def _drelu(x):
    return np.where(x > 0, 1.0, 0.0)


def _identity(x):
    return x


def _didentity(x):
    return np.ones_like(x)


ACTIVATIONS = {
    "tanh": (np.tanh, _dtanh),
    "elu": (_elu, _delu),
    "relu": (_relu, _drelu),
    "identity": (_identity, _didentity),
}


@dataclass
class LayerParams:
    """One filter-bank layer: coeffs[scale, in_channel, tap] plus a beta per scale."""

    coeffs: np.ndarray
    betas: np.ndarray
    betas_learnable: bool = False
    aggregation: str = "concatenate"
    activation: str = "tanh"
    skip_k0: bool = False

    def __post_init__(self):
        self.coeffs = np.array(self.coeffs, dtype=float)
        self.betas = np.array(self.betas, dtype=float)
        if self.coeffs.ndim != 3:
            raise ShapeError("coeffs must have shape (f_out, f_in, order + 1)")
        if self.betas.shape != (self.coeffs.shape[0],):
            raise ShapeError("need exactly one beta per output scale")
        if not np.all(np.isfinite(self.coeffs)) or not np.all(np.isfinite(self.betas)):
            raise ValueError("layer parameters must be finite")
        if self.aggregation not in AGGREGATIONS:
            raise ValueError(f"unknown aggregation {self.aggregation!r}")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")

    @property
    def f_out(self) -> int:
        return self.coeffs.shape[0]

    @property
    def f_in(self) -> int:
        return self.coeffs.shape[1]

    @property
    def order(self) -> int:
        return self.coeffs.shape[2] - 1

    @property
    def k_start(self) -> int:
        return 1 if self.skip_k0 else 0

    def out_channels(self) -> int:
        """Channel count seen by the next layer (aggregation folds scales)."""
        return self.f_out if self.aggregation == "concatenate" else 1


@dataclass
class HeadParams:
    """Single hidden layer: out = w2 @ act(w1 @ flat + b1) + b2."""

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    activation: str = "tanh"

    def __post_init__(self):
        self.w1 = np.array(self.w1, dtype=float)
        self.b1 = np.array(self.b1, dtype=float)
        self.w2 = np.array(self.w2, dtype=float)
        self.b2 = np.array(self.b2, dtype=float)
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if self.w1.ndim != 2 or self.w2.ndim != 2:
            raise ShapeError(f"w1 and w2 must be matrices, got shapes {self.w1.shape} and {self.w2.shape}")
        hidden = self.w1.shape[0]
        if self.b1.shape != (hidden,):
            raise ShapeError(f"b1 has shape {self.b1.shape}, but w1 has {hidden} rows")
        if self.w2.shape[1] != hidden:
            raise ShapeError(f"w2 has {self.w2.shape[1]} columns, but the hidden size is {hidden}")
        if self.b2.shape != (self.w2.shape[0],):
            raise ShapeError(f"b2 has shape {self.b2.shape}, but w2 has {self.w2.shape[0]} rows")

    @property
    def n_outputs(self) -> int:
        return self.w2.shape[0]


@dataclass
class ModelParams:
    layers: list[LayerParams]
    head: HeadParams
    task: str = "regression"

    def __post_init__(self):
        if self.task not in TASKS:
            raise ValueError(f"unknown task {self.task!r}")
        if not self.layers:
            raise ValueError("need at least one layer")
        channels = self.layers[0].f_in
        for i, layer in enumerate(self.layers):
            if layer.f_in != channels:
                raise ShapeError(f"layer {i} expects {layer.f_in} channels, got {channels}")
            channels = layer.out_channels()


@dataclass
class TrainConfig:
    learning_rate: float = 1e-3
    epochs: int = 100
    batch_size: int = 32
    seed: int = 0
    adam_betas: tuple[float, float] = (0.9, 0.999)
    adam_eps: float = 1e-8
    loss: str = "mse"
    dropout: float = 0.0

    def __post_init__(self):
        if self.learning_rate < 0:
            raise ValueError("learning rate must be nonnegative")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch size must be >= 1")
        if self.loss not in LOSSES:
            raise ValueError(f"unknown loss {self.loss!r}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")


def _tap_powers(rho: np.ndarray, order: int) -> np.ndarray:
    """rho**k for k = 0..order, shape (f_out, order + 1, m), by repeated products."""
    powers = np.ones((rho.shape[0], order + 1, rho.shape[1]))
    for k in range(1, order + 1):
        powers[:, k] = powers[:, k - 1] * rho
    return powers


def _aggregate(mode: str, channels: np.ndarray) -> np.ndarray:
    """Fold per-scale outputs (B, f_out, m, T): concatenate keeps them, sum/mean leave one channel."""
    if mode == "concatenate":
        return channels
    if mode == "sum":
        return channels.sum(axis=1, keepdims=True)
    if mode == "mean":
        return channels.mean(axis=1, keepdims=True)
    raise ValueError(f"unknown aggregation {mode!r}")


def _unaggregate(p: LayerParams, d_folded: np.ndarray) -> np.ndarray:
    """Gradient of the per-scale outputs (B, f_out, m, T) from that of the aggregated ones."""
    if p.aggregation == "concatenate":
        return d_folded
    if p.aggregation == "mean":
        d_folded = d_folded / p.f_out
    return np.broadcast_to(d_folded, (d_folded.shape[0], p.f_out, *d_folded.shape[2:]))


@dataclass
class _LayerTape:
    """What the backward pass of one layer needs from its forward pass."""

    x_hat: np.ndarray  # input in the eigenbasis, (B, f_in, m, T)
    rho: np.ndarray  # density eigenvalues, (f_out, m)
    powers: np.ndarray  # rho**k, (f_out, order + 1, m)
    response: np.ndarray  # filter responses, (f_out, f_in, m)
    pre_activation: np.ndarray  # (B, f_out, m, T)


def _layer_channels(p: LayerParams, v: np.ndarray, rho: np.ndarray, x: np.ndarray):
    """Activated per-scale outputs (B, f_out, m, T) for input channels x of shape (B, f_in, m, T).

    ``v`` is the covariance eigenbasis and ``rho`` the (f_out, m) density
    eigenvalues.  Returns the outputs and the layer's tape for backprop.
    """
    powers = _tap_powers(rho, p.order)
    k0 = p.k_start
    response = np.einsum("ogk,oki->ogi", p.coeffs[:, :, k0:], powers[:, k0:])
    x_hat = v.T @ x
    y = v @ np.einsum("ogi,bgit->boit", response, x_hat)
    out = ACTIVATIONS[p.activation][0](y)
    return out, _LayerTape(x_hat, rho, powers, response, y)


def forward_rows(model: ModelParams, c, xs) -> np.ndarray:
    """Outputs (n, n_outputs) for n signals, each (dim,) or (dim, time).

    Rows run through the network in blocks of ``FORWARD_BLOCK``, so the pass's
    temporaries do not grow with n.
    """
    decomp = _as_decomposition(c)
    x = _as_signals(xs)
    blocks = [_forward(model, decomp, x[s : s + FORWARD_BLOCK])[0] for s in range(0, len(x), FORWARD_BLOCK)]
    return np.concatenate(blocks)


def _as_signals(xs) -> np.ndarray:
    x = np.asarray(xs, dtype=float)
    if x.ndim == 2:
        x = x[:, :, None]
    if x.ndim != 3 or not len(x):
        raise ShapeError(f"signals must be (n, dim) or (n, dim, time) with n >= 1, got shape {x.shape}")
    return x


@dataclass
class _Tape:
    layers: list  # one _LayerTape per layer
    flat: np.ndarray  # (B, head inputs)
    z1: np.ndarray  # hidden pre-activation, (B, hidden)
    h1: np.ndarray  # hidden activation after dropout, (B, hidden)
    mask: np.ndarray | None  # dropout mask, (B, hidden)
    final_shape: tuple  # last layer's aggregated output, (B, C, m, T)


def _forward(model: ModelParams, decomp, x: np.ndarray, mask=None, keep_tape=False):
    """Outputs (B, n_outputs) for signals x of shape (B, m, T), and the tape if ``keep_tape``."""
    v, lam = decomp.eigenvectors, decomp.eigenvalues
    signal = x[:, None]
    layer_tapes = []
    for layer in model.layers:
        out, tape = _layer_channels(layer, v, density_values(lam, layer.betas)[0], signal)
        if keep_tape:
            layer_tapes.append(tape)
        signal = _aggregate(layer.aggregation, out)
    flat = signal.reshape(len(x), -1)

    head = model.head
    if head.w1.shape[1] != flat.shape[1]:
        raise ShapeError(
            f"head expects {head.w1.shape[1]} flattened features, got {flat.shape[1]} "
            f"(check dim/time_points against the model)"
        )
    z1 = flat @ head.w1.T + head.b1
    h1 = ACTIVATIONS[head.activation][0](z1)
    if mask is not None:
        h1 = h1 * mask
    out = h1 @ head.w2.T + head.b2
    return out, (_Tape(layer_tapes, flat, z1, h1, mask, signal.shape) if keep_tape else None)


@dataclass
class ModelGradients:
    layer_coeffs: list[np.ndarray]
    layer_betas: list[np.ndarray]
    head_w1: np.ndarray
    head_b1: np.ndarray
    head_w2: np.ndarray
    head_b2: np.ndarray


def _loss_and_grad(out: np.ndarray, targets, loss: str):
    """Per-row losses (B,) and their gradients (B, n_outputs) with respect to ``out``."""
    if loss == "cross_entropy":
        rows = np.arange(len(out))
        labels = np.asarray(targets).reshape(len(out)).astype(int)
        shifted = out - out.max(axis=1, keepdims=True)
        log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        grad = np.exp(log_probs)
        grad[rows, labels] -= 1.0
        return -log_probs[rows, labels], grad
    if loss not in ("mse", "mae"):
        raise ValueError(f"unknown loss {loss!r}")
    diff = out - np.asarray(targets, dtype=float).reshape(out.shape)
    if loss == "mse":
        return np.mean(diff * diff, axis=1), 2.0 * diff / diff.shape[1]
    return np.mean(np.abs(diff), axis=1), np.sign(diff) / diff.shape[1]


def _backward(model: ModelParams, decomp, tape: _Tape, d_out: np.ndarray) -> ModelGradients:
    """Gradients of sum_b <d_out[b], out[b]>, reduced over the batch axis."""
    head = model.head
    d_h1 = d_out @ head.w2
    if tape.mask is not None:
        d_h1 = d_h1 * tape.mask
    d_z1 = d_h1 * ACTIVATIONS[head.activation][1](tape.z1)
    d_signal = (d_z1 @ head.w1).reshape(tape.final_shape)

    v, lam = decomp.eigenvectors, decomp.eigenvalues
    n_layers = len(model.layers)
    coeff_grads, beta_grads = [None] * n_layers, [None] * n_layers
    for idx in range(n_layers - 1, -1, -1):
        layer = model.layers[idx]
        ltape = tape.layers[idx]
        d_y = _unaggregate(layer, d_signal) * ACTIVATIONS[layer.activation][1](ltape.pre_activation)
        d_y_hat = v.T @ d_y
        d_resp = np.einsum("boit,bgit->ogi", d_y_hat, ltape.x_hat)
        # Coefficient taps: d h_k = sum_i d_resp_i rho_i^k.
        k0 = layer.k_start
        coeff_grads[idx] = np.zeros_like(layer.coeffs)
        coeff_grads[idx][:, :, k0:] = np.einsum("ogi,oki->ogk", d_resp, ltape.powers[:, k0:])
        beta_grads[idx] = np.zeros_like(layer.betas)
        if layer.betas_learnable:
            rho = ltape.rho
            taps = np.arange(1, layer.order + 1)
            d_response = np.einsum("ogk,oki->ogi", layer.coeffs[:, :, 1:] * taps, ltape.powers[:, :-1])
            d_rho_d_beta = rho * ((rho @ lam)[:, None] - lam[None, :])
            beta_grads[idx] = np.einsum("ogi,ogi,oi->o", d_resp, d_response, d_rho_d_beta)
        if idx:
            d_signal = v @ np.einsum("ogi,boit->bgit", ltape.response, d_y_hat)

    return ModelGradients(
        layer_coeffs=coeff_grads,
        layer_betas=beta_grads,
        head_w1=d_z1.T @ tape.flat,
        head_b1=d_z1.sum(axis=0),
        head_w2=d_out.T @ tape.h1,
        head_b2=d_out.sum(axis=0),
    )


def model_gradients(model: ModelParams, c, batch_x, batch_y, loss: str, rng=None, dropout: float = 0.0):
    """Mean batch loss and analytic gradients for coeffs, betas, and head weights.

    The whole batch runs as one pass.  With ``dropout > 0`` each hidden unit of
    each sample is kept with probability ``1 - dropout`` (and scaled by its
    inverse), by a mask drawn from ``rng`` as described in the module docstring.

    Raises:
        TrainingError: the loss is non-finite.
    """
    decomp = _as_decomposition(c)
    x = _as_signals(batch_x)
    mask = None
    if dropout > 0.0:
        if rng is None:
            raise ValueError("dropout needs an rng")
        mask = (rng.random((len(x), model.head.w1.shape[0])) >= dropout) / (1.0 - dropout)
    out, tape = _forward(model, decomp, x, mask, keep_tape=True)
    losses, d_out = _loss_and_grad(out, batch_y, loss)
    mean_loss = float(losses.sum()) / len(x)
    if not math.isfinite(mean_loss):
        raise TrainingError(f"non-finite batch loss {mean_loss!r}")
    return mean_loss, _backward(model, decomp, tape, d_out / len(x))


def evaluate_loss(model: ModelParams, c, xs, ys, loss: str) -> float:
    losses, _ = _loss_and_grad(forward_rows(model, c, xs), ys, loss)
    return float(losses.sum()) / len(losses)


def accuracy(model: ModelParams, c, xs, ys) -> float:
    labels = np.argmax(forward_rows(model, c, xs), axis=1)
    return float(np.mean(labels == np.asarray(ys).reshape(-1).astype(int)))


@dataclass
class TrainResult:
    model: ModelParams
    history: dict
    best_epoch: int
    diverged: bool = False


class _Adam:
    def __init__(self, params: list[np.ndarray], lr, betas, eps):
        self.params = params
        self.lr = lr
        self.b1, self.b2 = betas
        self.eps = eps
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]
        self.t = 0

    def step(self, grads: list[np.ndarray]):
        self.t += 1
        for p, g, m, v in zip(self.params, grads, self.m, self.v):
            m *= self.b1
            m += (1 - self.b1) * g
            v *= self.b2
            v += (1 - self.b2) * g * g
            m_hat = m / (1 - self.b1**self.t)
            v_hat = v / (1 - self.b2**self.t)
            p -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def _trainable_params(model: ModelParams):
    params = []
    for layer in model.layers:
        params.append(layer.coeffs)
        if layer.betas_learnable:
            params.append(layer.betas)
    params.extend([model.head.w1, model.head.b1, model.head.w2, model.head.b2])
    return params


def _gradient_list(model: ModelParams, grads: ModelGradients):
    out = []
    for i, layer in enumerate(model.layers):
        out.append(grads.layer_coeffs[i])
        if layer.betas_learnable:
            out.append(grads.layer_betas[i])
    out.extend([grads.head_w1, grads.head_b1, grads.head_w2, grads.head_b2])
    return out


def train(model: ModelParams, c, train_data, val_data, cfg: TrainConfig) -> TrainResult:
    """Adam training with validation-based model selection.

    ``train_data`` and ``val_data`` are (xs, ys) pairs.  The returned model is
    a copy of the parameters at the epoch with the lowest validation loss
    (ties broken by the earliest epoch).  If the loss goes non-finite, training
    aborts and the last finite state is kept, with ``diverged=True``.
    """
    decomp = _as_decomposition(c)
    xs, ys = _as_signals(train_data[0]), np.asarray(train_data[1])
    val_xs, val_ys = val_data
    rng = np.random.default_rng(cfg.seed)
    optimizer = _Adam(_trainable_params(model), cfg.learning_rate, cfg.adam_betas, cfg.adam_eps)
    history = {"train_loss": [], "val_loss": []}
    best_val = math.inf
    best_epoch = 0
    best_model = copy.deepcopy(model)
    diverged = False
    n = len(xs)
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        try:
            for start in range(0, n, cfg.batch_size):
                idx = order[start : start + cfg.batch_size]
                _, grads = model_gradients(model, decomp, xs[idx], ys[idx], cfg.loss, rng, cfg.dropout)
                optimizer.step(_gradient_list(model, grads))
        except TrainingError:
            diverged = True
            break
        train_loss = evaluate_loss(model, decomp, xs, ys, cfg.loss)
        val_loss = evaluate_loss(model, decomp, val_xs, val_ys, cfg.loss)
        if not (math.isfinite(train_loss) and math.isfinite(val_loss)):
            diverged = True
            break
        history["train_loss"].append(train_loss)
        history["val_loss"].append(val_loss)
        if val_loss < best_val:
            best_val = val_loss
            best_epoch = epoch
            best_model = copy.deepcopy(model)
    return TrainResult(model=best_model, history=history, best_epoch=best_epoch, diverged=diverged)


def init_model(
    dim: int,
    n_outputs: int,
    betas,
    order: int = 2,
    hidden_dim: int = 16,
    num_layers: int = 1,
    activation: str = "tanh",
    head_activation: str = "tanh",
    aggregation: str = "concatenate",
    task: str = "regression",
    betas_learnable: bool = False,
    skip_k0: bool = False,
    time_points: int = 1,
    seed: int = 0,
) -> ModelParams:
    """Build a model with small random weights sized for (dim, time_points) inputs."""
    rng = np.random.default_rng(seed)
    betas = np.asarray(betas, dtype=float)
    f_out = betas.size
    layers = []
    f_in = 1
    for _ in range(num_layers):
        coeffs = rng.normal(0.0, 0.3, size=(f_out, f_in, order + 1))
        layers.append(
            LayerParams(
                coeffs=coeffs,
                betas=betas.copy(),
                betas_learnable=betas_learnable,
                aggregation=aggregation,
                activation=activation,
                skip_k0=skip_k0,
            )
        )
        f_in = layers[-1].out_channels()
    final_dim = f_out * dim if aggregation == "concatenate" else dim
    flat_dim = final_dim * time_points
    head = HeadParams(
        w1=rng.normal(0.0, 1.0 / math.sqrt(flat_dim), size=(hidden_dim, flat_dim)),
        b1=np.zeros(hidden_dim),
        w2=rng.normal(0.0, 1.0 / math.sqrt(hidden_dim), size=(n_outputs, hidden_dim)),
        b2=np.zeros(n_outputs),
        activation=head_activation,
    )
    return ModelParams(layers=layers, head=head, task=task)


CHECKPOINT_VERSION = 1


def model_to_dict(model: ModelParams, cov: CovarianceMatrix | np.ndarray) -> dict:
    return {
        "version": CHECKPOINT_VERSION,
        "task": model.task,
        "covariance": np.asarray(as_matrix(cov)).tolist(),
        "layers": [
            {
                "coeffs": layer.coeffs.tolist(),
                "betas": layer.betas.tolist(),
                "betas_learnable": layer.betas_learnable,
                "aggregation": layer.aggregation,
                "activation": layer.activation,
                "skip_k0": layer.skip_k0,
            }
            for layer in model.layers
        ],
        "head": {
            "w1": model.head.w1.tolist(),
            "b1": model.head.b1.tolist(),
            "w2": model.head.w2.tolist(),
            "b2": model.head.b2.tolist(),
            "activation": model.head.activation,
        },
    }


def model_from_dict(payload: dict) -> tuple[ModelParams, np.ndarray]:
    if payload.get("version") != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {payload.get('version')!r}")
    layers = [
        LayerParams(
            coeffs=np.array(entry["coeffs"], dtype=float),
            betas=np.array(entry["betas"], dtype=float),
            betas_learnable=bool(entry["betas_learnable"]),
            aggregation=entry["aggregation"],
            activation=entry["activation"],
            skip_k0=bool(entry.get("skip_k0", False)),
        )
        for entry in payload["layers"]
    ]
    head = HeadParams(
        w1=np.array(payload["head"]["w1"], dtype=float),
        b1=np.array(payload["head"]["b1"], dtype=float),
        w2=np.array(payload["head"]["w2"], dtype=float),
        b2=np.array(payload["head"]["b2"], dtype=float),
        activation=payload["head"]["activation"],
    )
    model = ModelParams(layers=layers, head=head, task=payload["task"])
    covariance = np.array(payload["covariance"], dtype=float)
    if covariance.ndim != 2 or covariance.shape[0] != covariance.shape[1] or not covariance.size:
        raise ShapeError(f"checkpoint covariance must be a non-empty square matrix, got shape {covariance.shape}")
    channels, dim = layers[-1].out_channels(), covariance.shape[0]
    if head.w1.shape[1] % (channels * dim):
        raise ShapeError(
            f"head w1 has {head.w1.shape[1]} columns, not a multiple of "
            f"{channels} channels x covariance dim {dim}"
        )
    return model, covariance


def save_model(path, model: ModelParams, cov) -> None:
    with open(path, "w") as fh:
        json.dump(model_to_dict(model, cov), fh, indent=1)


def load_model(path) -> tuple[ModelParams, np.ndarray]:
    with open(path) as fh:
        return model_from_dict(json.load(fh))
