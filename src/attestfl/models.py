"""Local training: multinomial logistic regression and a one-hidden-layer MLP.

Everything runs in float64 with analytic gradients.  `_forward` is the one
definition of the network; each training step runs it once, for the loss and
the gradient together, on a raw float64 parameter array.  Training is plain
gradient descent, full batch by default, optional shuffled mini-batches with
a seeded generator.  The parameter update returned by `local_train` is always
new parameters minus starting parameters, computed exactly that way.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .datasets import Dataset
from .params import ParameterLayout, ParameterVector

__all__ = [
    "TrainingError",
    "TrainingConfig",
    "Model",
    "logistic_regression",
    "mlp",
    "loss",
    "gradient",
    "local_train",
    "evaluate",
]

KIND_LOGREG = "logistic-regression"
KIND_MLP = "mlp"
FULL_BATCH = "full"


class TrainingError(RuntimeError):
    """Raised when training produces a non-finite loss, gradient, or step."""


@dataclass(frozen=True)
class TrainingConfig:
    learning_rate: float = 0.1
    epochs: int = 5
    batch_size: int | str = FULL_BATCH
    seed: int = 0

    def __post_init__(self) -> None:
        if not (np.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError("learning_rate must be positive and finite")
        if self.epochs < 1:
            raise ValueError("epochs must be at least 1")
        if self.batch_size != FULL_BATCH and (not isinstance(self.batch_size, int) or self.batch_size < 1):
            raise ValueError("batch_size must be a positive int or 'full'")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


@dataclass(frozen=True)
class Model:
    kind: str
    params: ParameterVector
    num_features: int
    num_classes: int
    hidden_width: int | None = None
    activation: str = "tanh"

    def __post_init__(self) -> None:
        if self.kind not in (KIND_LOGREG, KIND_MLP):
            raise ValueError(f"unknown model kind {self.kind!r}")
        if self.kind == KIND_MLP and (self.hidden_width is None or self.hidden_width < 1):
            raise ValueError("mlp requires a positive hidden_width")
        if self.kind == KIND_MLP and self.activation not in ("tanh", "relu"):
            raise ValueError("activation must be 'tanh' or 'relu'")

    def with_params(self, params: ParameterVector) -> "Model":
        if params.layout != self.params.layout:
            raise ValueError("replacement parameters use a different layout")
        return replace(self, params=params)


def logreg_layout(num_features: int, num_classes: int) -> ParameterLayout:
    return ParameterLayout((("weights", (num_classes, num_features)), ("bias", (num_classes,))))


def mlp_layout(num_features: int, num_classes: int, hidden_width: int) -> ParameterLayout:
    return ParameterLayout(
        (
            ("w1", (hidden_width, num_features)),
            ("b1", (hidden_width,)),
            ("w2", (num_classes, hidden_width)),
            ("b2", (num_classes,)),
        )
    )


def logistic_regression(num_features: int, num_classes: int) -> Model:
    """Zero-initialised softmax regression."""
    layout = logreg_layout(num_features, num_classes)
    return Model(
        kind=KIND_LOGREG,
        params=ParameterVector.zeros(layout),
        num_features=num_features,
        num_classes=num_classes,
    )


def mlp(num_features: int, num_classes: int, hidden_width: int, activation: str = "tanh", seed: int = 0) -> Model:
    """One-hidden-layer network with seeded scaled-Gaussian initialisation."""
    layout = mlp_layout(num_features, num_classes, hidden_width)
    rng = np.random.default_rng(seed)
    values = np.zeros(layout.size)
    views = layout.split(values)
    for name, fan_in in (("w1", num_features), ("w2", hidden_width)):
        views[name][...] = rng.standard_normal(views[name].shape) / np.sqrt(fan_in)
    return Model(
        kind=KIND_MLP,
        params=ParameterVector(values, layout),
        num_features=num_features,
        num_classes=num_classes,
        hidden_width=hidden_width,
        activation=activation,
    )


# --------------------------------------------------------------------------- #
# the network: one forward pass, one loss-and-gradient pass
# --------------------------------------------------------------------------- #


def _forward(model: Model, values: np.ndarray, features: np.ndarray) -> tuple[np.ndarray, tuple | None]:
    """Logits under the flat parameters `values`, and the MLP's (pre, hidden)
    activations for backpropagation (None for logistic regression)."""
    t = model.params.layout.split(values)
    if model.kind == KIND_LOGREG:
        return features @ t["weights"].T + t["bias"], None
    pre = features @ t["w1"].T + t["b1"]
    hidden = np.tanh(pre) if model.activation == "tanh" else np.maximum(pre, 0.0)
    return hidden @ t["w2"].T + t["b2"], (pre, hidden)


def _loss_and_gradient(
    model: Model, values: np.ndarray, features: np.ndarray, labels: np.ndarray
) -> tuple[float, np.ndarray]:
    """Mean cross-entropy and its flat gradient from one forward pass, unchecked.

    `exp(logits - max)` serves both the log-sum-exp loss and the softmax.
    Extreme parameters overflow to inf or nan, which callers treat as
    divergence, so numpy's warnings are suppressed rather than surfaced.
    """
    n = labels.shape[0]
    rows = np.arange(n)
    with np.errstate(over="ignore", invalid="ignore"):
        logits, cache = _forward(model, values, features)
        top = logits.max(axis=1, keepdims=True)
        expd = np.exp(logits - top)
        total = expd.sum(axis=1, keepdims=True)
        mean_loss = float(np.mean(np.log(total[:, 0]) + top[:, 0] - logits[rows, labels]))
        # d(mean CE)/d(logits): predicted probability minus one-hot target
        delta = expd / total
        delta[rows, labels] -= 1.0
        delta /= n

        layout = model.params.layout
        grad = np.zeros(layout.size)
        g = layout.split(grad)
        if cache is None:
            g["weights"][...] = delta.T @ features
            g["bias"][...] = delta.sum(axis=0)
        else:
            pre, hidden = cache
            g["w2"][...] = delta.T @ hidden
            g["b2"][...] = delta.sum(axis=0)
            back = delta @ layout.split(values)["w2"]
            if model.activation == "tanh":
                back = back * (1.0 - hidden**2)
            else:
                back = back * (pre > 0.0)
            g["w1"][...] = back.T @ features
            g["b1"][...] = back.sum(axis=0)
    return mean_loss, grad


def _require_data(model: Model, data: Dataset) -> None:
    if data.size == 0:
        raise ValueError("dataset is empty")
    if data.num_features != model.num_features:
        raise ValueError("dataset feature width does not match model")
    if data.num_classes != model.num_classes:
        raise ValueError("dataset class count does not match model")


def loss(model: Model, data: Dataset) -> float:
    """Mean cross-entropy, through log-sum-exp; non-finite only on overflow."""
    _require_data(model, data)
    return _loss_and_gradient(model, model.params.values, data.features, data.labels)[0]


def gradient(model: Model, data: Dataset) -> ParameterVector:
    """Mean-loss gradient in the model's parameter layout."""
    _require_data(model, data)
    _, grad = _loss_and_gradient(model, model.params.values, data.features, data.labels)
    if not np.all(np.isfinite(grad)):
        raise TrainingError("non-finite gradient")
    return ParameterVector(grad, model.params.layout)


# --------------------------------------------------------------------------- #
# training and evaluation
# --------------------------------------------------------------------------- #


def _batches(data: Dataset, batch_size: int | str, rng: np.random.Generator):
    """(features, labels) per step; with a seeded shuffle the last batch may be short."""
    if batch_size == FULL_BATCH or batch_size >= data.size:
        yield data.features, data.labels
        return
    order = rng.permutation(data.size)
    for start in range(0, data.size, batch_size):
        rows = order[start : start + batch_size]
        yield data.features[rows], data.labels[rows]


def local_train(model: Model, data: Dataset, cfg: TrainingConfig) -> tuple[ParameterVector, ParameterVector]:
    """Gradient-descent training pass.

    Returns (new_params, update) where update is exactly new_params minus the
    starting parameters.  Aborts with TrainingError if the loss, gradient, or
    a parameter step stops being finite, checked in that order each step.
    """
    _require_data(model, data)
    start = model.params
    values = start.values
    rng = np.random.default_rng(cfg.seed)
    for _ in range(cfg.epochs):
        for features, labels in _batches(data, cfg.batch_size, rng):
            batch_loss, grad = _loss_and_gradient(model, values, features, labels)
            if not np.isfinite(batch_loss):
                raise TrainingError("non-finite loss")
            if not np.all(np.isfinite(grad)):
                raise TrainingError("non-finite gradient")
            with np.errstate(over="ignore"):  # overflow is detected, not warned
                values = values - cfg.learning_rate * grad
            if not np.all(np.isfinite(values)):
                raise TrainingError("non-finite parameter step")
    new_params = ParameterVector(values, start.layout)
    update = ParameterVector(new_params.values - start.values, start.layout)
    return new_params, update


def evaluate(model: Model, data: Dataset) -> float:
    """Accuracy under argmax prediction; ties resolve to the lowest class index."""
    _require_data(model, data)
    # huge parameters overflow to inf or nan; argmax still decides, silently
    with np.errstate(over="ignore", invalid="ignore"):
        logits, _ = _forward(model, model.params.values, data.features)
    predicted = np.argmax(logits, axis=1)  # argmax takes the first maximum
    return float(np.mean(predicted == data.labels))
