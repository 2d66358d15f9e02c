"""Trainable multi-scale density-filter network.

Architecture: one or more filter-bank layers over a fixed covariance matrix
(one inverse temperature per output scale, optionally learnable), followed by
a flatten across channels and a single-hidden-layer fully connected head.

The covariance, the graph shift operator, is part of the model: only ``init_model``
takes it, and ``ModelParams`` decomposes it once, for every later call to read.
It is computed from training data and held fixed, so every scale's density
eigenvalues live on one fixed spectrum; beta gradients therefore flow through the
eigenvalue map only, via d rho_i / d beta = rho_i (E_q[lambda] - lambda_i).

Batch layout: every pass carries a batch axis.  A layer's input is an array
of shape (B, f_in, m) -- B samples, f_in channels, m covariance eigen-directions
-- and its output is (B, f_out, m).  The density eigenvalues rho and the filter
responses depend only on the parameters, so each layer computes them once per
call.  The responses contract the taps with the power ladder rho^k of
``filtering._powers``, the one that ``filtering.polynomial_response`` evaluates
every other filter with, and the backward pass reads that ladder for the tap and
beta gradients.  The basis changes are the matmuls x_hat = x V and
y = (...) V^T; the head works on the flattened (B, C * m) features.  Every
forward pass, training or not, runs this one kernel, and the backward pass
reduces over B.

Block forward: forward-only calls over many rows (``forward_rows``, and
through it ``evaluate_loss`` and CLI ``predict``) run the rows in
blocks of ``FORWARD_BLOCK`` and keep no backward tape, so peak memory does not
grow with the row count.  ``model_gradients`` runs its batch as one block.

Dropout stream: ``model_gradients`` draws its dropout mask as one
``rng.random((B, hidden))`` call.  That consumes the generator's stream exactly
as B consecutive ``rng.random(hidden)`` draws, one per sample in batch order,
so seeded training does not depend on how samples are grouped into passes.

Parameter order: the trained arrays are, per layer, its coeffs, then its betas if
learnable; then the head's w1, b1, w2, b2.  ``model_gradients`` returns one gradient
per array in that order.  ``train`` packs the arrays, in that order, into one flat
vector whose views the records then hold, and runs Adam, fixed at (0.9, 0.999, 1e-8),
over that vector; its best-epoch snapshot is a copy of the vector.

Checkpoints: ``model_from_dict`` builds each record from model.json; ``ModelParams`` checks the rules across records.

All gradients are analytic (no autodiff dependency) and are validated against
central finite differences in the test suite.
"""

from __future__ import annotations

import contextlib
import json
import math
import reprlib
from dataclasses import dataclass, fields

import numpy as np

from .covariance import _check_psd, as_matrix
from .density import density_values
from .errors import ConfigError, ShapeError, TrainingError, _array, _Checked, _Config, _keys, _read_json, _version
from .filtering import _powers
from .spectral import eigh

AGGREGATIONS = ("concatenate", "sum", "mean")
TASK_LOSSES = {"regression": ("mse", "mae"), "classification": ("cross_entropy",)}  # the first is the default

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


@contextlib.contextmanager
def _under(path: str):
    """Prefix ``path`` to the message of a ValueError raised in the block."""
    try:
        yield
    except ValueError as exc:
        raise type(exc)(f"{path}{exc}") from None


class _Record(_Checked):  # a checked record whose name keys read this module's tables
    _names = {"activation": ACTIVATIONS, "head_activation": ACTIVATIONS, "aggregation": AGGREGATIONS,
              "task": TASK_LOSSES}


@dataclass
class LayerParams(_Record):
    """One filter-bank layer: coeffs[scale, in_channel, tap] plus a beta per scale."""

    _axes = {"coeffs": ("f_out", "f_in", "taps"), "betas": ("f_out",)}
    coeffs: np.ndarray
    betas: np.ndarray
    betas_learnable: bool = False
    aggregation: str = "concatenate"
    activation: str = "tanh"
    skip_k0: bool = False

    @property
    def f_out(self) -> int:
        return self.coeffs.shape[0]

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
class HeadParams(_Record):
    """Single hidden layer: out = w2 @ act(w1 @ flat + b1) + b2."""

    _axes = {"w1": ("hidden", "features"), "b1": ("hidden",), "w2": ("n_out", "hidden"), "b2": ("n_out",)}
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    activation: str = "tanh"


@dataclass
class ModelParams(_Record):
    """Layers and head over a symmetric PSD ``covariance``, decomposed once into ``basis``, the SpectralDecomposition
    every pass reads.  ``dataclasses.replace(model, covariance=...)`` checks and decomposes another covariance."""

    _axes = {"covariance": ("dim", "dim")}
    covariance: np.ndarray
    layers: list[LayerParams]
    head: HeadParams
    task: str = "regression"

    def __post_init__(self):
        super().__post_init__()
        with _under("/covariance: "):
            self.basis = eigh(self.covariance)
            _check_psd(self.basis.eigenvalues)
        if not (isinstance(self.layers, list) and self.layers):
            raise ConfigError(f"/layers: must be a non-empty list, got {reprlib.repr(self.layers)}")
        for i, layer in enumerate(self.layers):  # layer 0 reads the one signal channel, a later one what it is fed
            f_in = self.layers[i - 1].out_channels() if i else 1
            _array(f"/layers/{i}/coeffs", layer.coeffs, LayerParams._axes["coeffs"], {"f_in": f_in})
        features = self.layers[-1].out_channels() * self.basis.dim  # the last layer's channels x dim
        _array("/head/w1", self.head.w1, HeadParams._axes["w1"], {"features": features})


@dataclass(frozen=True)
class TrainConfig(_Config, _Record):
    """Every train config key with its default.  ``init_model`` reads the architecture keys, ``train`` the optimizer
    keys, the CLI ``val_fraction``.  ``betas`` defaults to ``betas_init``, a ``loss`` of None to ``task_loss``."""

    learning_rate: float = 1e-3
    epochs: int = 100
    batch_size: int = 32
    hidden_dim: int = 32
    num_layers: int = 1
    activation: str = "tanh"
    head_activation: str = "tanh"
    dropout: float = 0.0
    betas: tuple[float, ...] | None = None
    betas_learnable: bool = False
    betas_init: tuple[float, ...] | None = None
    order: int = 2
    loss: str | None = None
    task: str = "regression"
    aggregation: str = "concatenate"
    skip_k0: bool = False
    val_fraction: float = 0.2
    _distinct = ()  # betas index filter scales, not rows: betas_init [0, 0, 0, 0] is a valid start

    def _rules(self):  # a loss of None takes the task's default; a bad task fails its name check before this
        names = TASK_LOSSES[self.task]
        yield "loss", self.loss is None or self.loss in names, (
            f"expected {' or '.join(map(repr, names))} for task {self.task!r}, got {self.loss!r}")

    @property
    def task_loss(self) -> str:
        """``loss``, or the task's default where it is None: mse for regression, cross_entropy for classification."""
        return self.loss or TASK_LOSSES[self.task][0]


def _aggregate(mode: str, channels: np.ndarray) -> np.ndarray:
    """Fold per-scale outputs (B, f_out, m): concatenate keeps them, sum/mean leave one channel."""
    if mode == "concatenate":
        return channels
    if mode == "sum":
        return channels.sum(axis=1, keepdims=True)
    return channels.mean(axis=1, keepdims=True)


def _unaggregate(p: LayerParams, d_folded: np.ndarray) -> np.ndarray:
    """Gradient of the per-scale outputs (B, f_out, m) from the aggregated ones' (concatenate's is that shape)."""
    if p.aggregation == "mean":
        d_folded = d_folded / p.f_out
    return np.broadcast_to(d_folded, (d_folded.shape[0], p.f_out, d_folded.shape[2]))


@dataclass
class _LayerTape:
    """What the backward pass of one layer needs from its forward pass."""

    x_hat: np.ndarray  # input in the eigenbasis, (B, f_in, m)
    rho: np.ndarray  # density eigenvalues, (f_out, m)
    powers: np.ndarray  # rho**k, (f_out, order + 1, m)
    response: np.ndarray  # filter responses, (f_out, f_in, m)
    pre_activation: np.ndarray  # (B, f_out, m)


def _layer_channels(p: LayerParams, v: np.ndarray, rho: np.ndarray, x: np.ndarray):
    """Activated per-scale outputs (B, f_out, m) for input channels x of shape (B, f_in, m), and the layer's tape
    for backprop.  ``v`` is the covariance eigenbasis and ``rho`` the (f_out, m) density eigenvalues."""
    powers = _powers(rho, p.order)
    k0 = p.k_start
    response = np.einsum("ogk,oki->ogi", p.coeffs[:, :, k0:], powers[:, k0:])
    x_hat = x @ v
    y = np.einsum("ogi,bgi->boi", response, x_hat) @ v.T
    out = ACTIVATIONS[p.activation][0](y)
    return out, _LayerTape(x_hat, rho, powers, response, y)


def forward_rows(model: ModelParams, xs) -> np.ndarray:
    """Outputs (n, n_outputs) for n signals of shape (dim,), run through the network in blocks of
    ``FORWARD_BLOCK`` so that the pass's temporaries do not grow with n."""
    x = _as_signals(model, xs)
    blocks = [_forward(model, x[s : s + FORWARD_BLOCK], 1.0)[0] for s in range(0, len(x), FORWARD_BLOCK)]
    return np.concatenate(blocks)


def _as_signals(model: ModelParams, xs) -> np.ndarray:
    x = np.asarray(xs, dtype=float)
    if x.ndim != 2 or not len(x):
        raise ShapeError(f"signals must be (n, dim) with n >= 1, got shape {x.shape}")
    if x.shape[1] != model.basis.dim:
        raise ShapeError(f"input has {x.shape[1]} columns, model expects {model.basis.dim}")
    return x


@dataclass
class _Tape:
    layers: list  # one _LayerTape per layer
    flat: np.ndarray  # (B, head inputs)
    z1: np.ndarray  # hidden pre-activation, (B, hidden)
    h1: np.ndarray  # hidden activation after dropout, (B, hidden)
    mask: np.ndarray | float  # dropout mask, (B, hidden); 1.0 for no dropout, since h * 1.0 is h bit for bit
    final_shape: tuple  # last layer's aggregated output, (B, C, m)


def _forward(model: ModelParams, x: np.ndarray, mask):
    """Outputs (B, n_outputs) for signals x of shape (B, m), hidden units times ``mask`` (1.0: no dropout), and tape."""
    v, lam = model.basis.eigenvectors, model.basis.eigenvalues
    signal = x[:, None]
    layer_tapes = []
    for layer in model.layers:
        out, tape = _layer_channels(layer, v, density_values(lam, layer.betas)[0], signal)
        layer_tapes.append(tape)
        signal = _aggregate(layer.aggregation, out)
    flat = signal.reshape(len(x), -1)

    head = model.head
    z1 = flat @ head.w1.T + head.b1
    h1 = ACTIVATIONS[head.activation][0](z1) * mask
    out = h1 @ head.w2.T + head.b2
    return out, _Tape(layer_tapes, flat, z1, h1, mask, signal.shape)


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


def _backward(model: ModelParams, tape: _Tape, d_out: np.ndarray) -> list[np.ndarray]:
    """Gradients of sum_b <d_out[b], out[b]>, reduced over the batch axis, in parameter order (module docstring)."""
    head = model.head
    d_h1 = d_out @ head.w2 * tape.mask
    d_z1 = d_h1 * ACTIVATIONS[head.activation][1](tape.z1)
    d_signal = (d_z1 @ head.w1).reshape(tape.final_shape)
    grads = [d_z1.T @ tape.flat, d_z1.sum(axis=0), d_out.T @ tape.h1, d_out.sum(axis=0)]

    v, lam = model.basis.eigenvectors, model.basis.eigenvalues
    for idx in range(len(model.layers) - 1, -1, -1):
        layer, ltape = model.layers[idx], tape.layers[idx]
        d_y = _unaggregate(layer, d_signal) * ACTIVATIONS[layer.activation][1](ltape.pre_activation)
        d_y_hat = d_y @ v
        d_resp = np.einsum("boi,bgi->ogi", d_y_hat, ltape.x_hat)
        # Coefficient taps: d h_k = sum_i d_resp_i rho_i^k.
        k0 = layer.k_start
        d_coeffs = np.zeros_like(layer.coeffs)
        d_coeffs[:, :, k0:] = np.einsum("ogi,oki->ogk", d_resp, ltape.powers[:, k0:])
        layer_grads = [d_coeffs]
        if layer.betas_learnable:
            rho = ltape.rho
            taps = np.arange(1, layer.order + 1)
            d_response = np.einsum("ogk,oki->ogi", layer.coeffs[:, :, 1:] * taps, ltape.powers[:, :-1])
            d_rho_d_beta = rho * ((rho @ lam)[:, None] - lam[None, :])
            layer_grads.append(np.einsum("ogi,ogi,oi->o", d_resp, d_response, d_rho_d_beta))
        grads = layer_grads + grads  # layers run last to first
        if idx:
            d_signal = np.einsum("ogi,boi->bgi", ltape.response, d_y_hat) @ v.T
    return grads


def model_gradients(model: ModelParams, batch_x, batch_y, loss: str, rng=None, dropout: float = 0.0):
    """Mean batch loss and its analytic gradients, one per trained array, in parameter order (module docstring).

    The whole batch runs as one pass.  With ``dropout > 0`` each hidden unit of
    each sample is kept with probability ``1 - dropout`` (and scaled by its
    inverse), by a mask drawn from ``rng`` as described in the module docstring.

    Raises:
        TrainingError: the loss is non-finite.
    """
    x = _as_signals(model, batch_x)
    mask = 1.0
    if dropout > 0.0:
        if rng is None:
            raise ValueError("dropout needs an rng")
        mask = (rng.random((len(x), model.head.w1.shape[0])) >= dropout) / (1.0 - dropout)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow leaves a non-finite loss, checked next
        out, tape = _forward(model, x, mask)
        losses, d_out = _loss_and_grad(out, batch_y, loss)
        mean_loss = float(losses.sum()) / len(x)
    if not math.isfinite(mean_loss):
        raise TrainingError(f"non-finite batch loss {mean_loss!r}")
    return mean_loss, _backward(model, tape, d_out / len(x))


def evaluate_loss(model: ModelParams, xs, ys, loss: str) -> float:
    losses, _ = _loss_and_grad(forward_rows(model, xs), ys, loss)
    return float(losses.sum()) / len(losses)


@dataclass
class TrainResult:
    model: ModelParams
    history: dict
    best_epoch: int
    diverged: bool = False


_ADAM_BETAS, _ADAM_EPS = (0.9, 0.999), 1e-8  # moment decay rates and denominator floor (Kingma & Ba)


def train(model: ModelParams, train_data, val_data, cfg: TrainConfig) -> TrainResult:
    """Adam training with validation-based model selection, reading the optimizer keys of ``cfg``.

    ``train_data`` and ``val_data`` are (xs, ys) pairs.  ``model`` is trained in
    place and returned at the epoch with the lowest validation loss (ties broken
    by the earliest epoch).  If the loss goes non-finite, training aborts and the
    last finite state is kept, with ``diverged=True``.

    Raises:
        TrainingError: the loss goes non-finite before the first epoch has a finite validation loss.
    """
    xs, ys = _as_signals(model, train_data[0]), np.asarray(train_data[1])
    loss = cfg.task_loss
    rng = np.random.default_rng(cfg.seed)
    slots = [(layer, key) for layer in model.layers for key in ("coeffs", "betas")[: 1 + layer.betas_learnable]]
    slots += [(model.head, key) for key in ("w1", "b1", "w2", "b2")]
    arrays = [getattr(record, key) for record, key in slots]
    params = np.concatenate([a.ravel() for a in arrays])  # each trained field becomes a view of it, below
    for (record, key), a, view in zip(slots, arrays, np.split(params, np.cumsum([a.size for a in arrays[:-1]]))):
        setattr(record, key, view.reshape(a.shape))
    m, v, step = np.zeros_like(params), np.zeros_like(params), 0  # Adam's moments and step count
    b1, b2 = _ADAM_BETAS
    history = {"train_loss": [], "val_loss": []}
    best_val, best_epoch = math.inf, 0
    best = params.copy()
    diverged = False
    n = len(xs)
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        try:
            for start in range(0, n, cfg.batch_size):
                idx = order[start : start + cfg.batch_size]
                _, grads = model_gradients(model, xs[idx], ys[idx], loss, rng, cfg.dropout)
                g = np.concatenate([a.ravel() for a in grads])
                step += 1
                m *= b1
                m += (1 - b1) * g
                v *= b2
                with np.errstate(over="ignore"):  # an overflow leaves an inf, checked next
                    v += (1 - b2) * g * g
                if not np.all(np.isfinite(v)):
                    largest = np.max(np.abs(g))
                    raise TrainingError(f"Adam's second moment overflows a double (largest |gradient| {largest:.3g})")
                params -= cfg.learning_rate * (m / (1 - b1**step)) / (np.sqrt(v / (1 - b2**step)) + _ADAM_EPS)
            with np.errstate(over="ignore", invalid="ignore"):  # an overflow leaves a non-finite loss, checked next
                train_loss = evaluate_loss(model, xs, ys, loss)
                val_loss = evaluate_loss(model, *val_data, loss)
            if not (math.isfinite(train_loss) and math.isfinite(val_loss)):
                raise TrainingError(f"non-finite loss: train {train_loss!r}, validation {val_loss!r}")
        except TrainingError as exc:
            if not history["val_loss"]:
                stage = f"train epoch 1 of {cfg.epochs}"
                raise TrainingError(f"{stage} diverged before any finite validation loss: {exc}") from exc
            diverged = True
            break
        history["train_loss"].append(train_loss)
        history["val_loss"].append(val_loss)
        if val_loss < best_val:
            best_val = val_loss
            best_epoch = epoch
            best = params.copy()
    params[...] = best
    return TrainResult(model=model, history=history, best_epoch=best_epoch, diverged=diverged)


def init_model(cov, n_outputs: int, cfg: TrainConfig) -> ModelParams:
    """Build a model over the covariance ``cov`` (a CovarianceMatrix or a symmetric array) with small random weights,
    from the architecture keys of ``cfg`` (betas, order, hidden_dim, num_layers, activations, aggregation, task,
    betas_learnable, skip_k0) and its seed."""
    matrix = as_matrix(cov)
    rng = np.random.default_rng(cfg.seed)
    layers, f_in = [], 1
    for _ in range(cfg.num_layers):
        coeffs = rng.normal(0.0, 0.3, size=(len(cfg.betas), f_in, cfg.order + 1))
        layers.append(LayerParams(coeffs, cfg.betas, cfg.betas_learnable, cfg.aggregation, cfg.activation, cfg.skip_k0))
        f_in = layers[-1].out_channels()
    flat_dim = f_in * len(matrix)  # the last layer's channels, per eigen-direction
    w1 = rng.normal(0.0, 1.0 / math.sqrt(flat_dim), size=(cfg.hidden_dim, flat_dim))
    w2 = rng.normal(0.0, 1.0 / math.sqrt(cfg.hidden_dim), size=(n_outputs, cfg.hidden_dim))
    head = HeadParams(w1, np.zeros(cfg.hidden_dim), w2, np.zeros(n_outputs), cfg.head_activation)
    return ModelParams(matrix, layers, head, cfg.task)


CHECKPOINT_VERSION = 1


def _fields_dict(params) -> dict:
    """A parameter dataclass as a dict in field order, with arrays as nested lists."""
    return {
        f.name: value.tolist() if isinstance(value := getattr(params, f.name), np.ndarray) else value
        for f in fields(params)
    }


def model_to_dict(model: ModelParams) -> dict:
    return {
        "version": CHECKPOINT_VERSION,
        "task": model.task,
        "covariance": model.covariance.tolist(),
        "layers": [_fields_dict(layer) for layer in model.layers],
        "head": _fields_dict(model.head),
    }


def _record(path: str, node, record):
    """``record`` built from the JSON object ``node`` at ``path``."""
    with _under(path):
        return record(**_keys("", node, record))


def model_from_dict(payload) -> ModelParams:
    """The model of a ``model_to_dict`` payload: a fault raises ``checkpoint /<path>: <rule>, got <value>``."""
    with _under("checkpoint "):
        doc = _keys("/", payload, ("version", "task", "covariance", "layers", "head"))
        _version("/version", doc["version"], CHECKPOINT_VERSION)
        layers = doc["layers"]
        if isinstance(layers, list):  # else ModelParams names it
            layers = [_record(f"/layers/{i}", entry, LayerParams) for i, entry in enumerate(layers)]
        return ModelParams(doc["covariance"], layers, _record("/head", doc["head"], HeadParams), doc["task"])


def save_model(path, model: ModelParams) -> None:
    with open(path, "w") as fh:
        fh.write(json.dumps(model_to_dict(model)))  # json.dumps without indent runs the C encoder


def load_model(path) -> ModelParams:
    return model_from_dict(_read_json(path))
