"""Local training: multinomial logistic regression and a one-hidden-layer MLP.

Everything runs in float64 with analytic gradients.  Training is plain
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
    "forward",
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
    epochs: int = 1
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
    slices = layout.slices()
    for name, fan_in in (("w1", num_features), ("w2", hidden_width)):
        sl, shape = slices[name]
        values[sl] = (rng.standard_normal(shape) / np.sqrt(fan_in)).reshape(-1)
    return Model(
        kind=KIND_MLP,
        params=ParameterVector(values, layout),
        num_features=num_features,
        num_classes=num_classes,
        hidden_width=hidden_width,
        activation=activation,
    )


# --------------------------------------------------------------------------- #
# forward / loss / gradient
# --------------------------------------------------------------------------- #


def _logits(model: Model, features: np.ndarray) -> tuple[np.ndarray, dict]:
    t = model.params.tensors()
    if model.kind == KIND_LOGREG:
        return features @ t["weights"].T + t["bias"], {}
    pre = features @ t["w1"].T + t["b1"]
    hidden = np.tanh(pre) if model.activation == "tanh" else np.maximum(pre, 0.0)
    logits = hidden @ t["w2"].T + t["b2"]
    return logits, {"pre": pre, "hidden": hidden}


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    expd = np.exp(shifted)
    return expd / expd.sum(axis=-1, keepdims=True)


def _check_features(model: Model, features: np.ndarray) -> np.ndarray:
    features = np.asarray(features, dtype=np.float64)
    if features.shape[-1] != model.num_features:
        raise ValueError(
            f"feature width {features.shape[-1]} does not match model ({model.num_features})"
        )
    return features


def forward(model: Model, features: np.ndarray) -> np.ndarray:
    """Class probabilities for a single feature row."""
    row = _check_features(model, features)
    if row.ndim != 1:
        raise ValueError("forward takes a single feature row")
    logits, _ = _logits(model, row[None, :])
    return _softmax(logits)[0]


def _require_data(model: Model, data: Dataset) -> None:
    if data.size == 0:
        raise ValueError("dataset is empty")
    if data.num_features != model.num_features:
        raise ValueError("dataset feature width does not match model")
    if data.num_classes != model.num_classes:
        raise ValueError("dataset class count does not match model")


def loss(model: Model, data: Dataset) -> float:
    """Mean cross-entropy, computed through log-sum-exp so it stays finite
    for any finite parameters.

    Extreme parameters can push intermediate logits to inf; the result is
    then non-finite, which training treats as divergence, so the numpy
    overflow warning is suppressed rather than surfaced.
    """
    _require_data(model, data)
    with np.errstate(over="ignore", invalid="ignore"):
        logits, _ = _logits(model, data.features)
        shifted = logits - logits.max(axis=1, keepdims=True)
        lse = np.log(np.exp(shifted).sum(axis=1)) + logits.max(axis=1)
        true_logit = logits[np.arange(data.size), data.labels]
        return float(np.mean(lse - true_logit))


def gradient(model: Model, data: Dataset) -> ParameterVector:
    """Mean-loss gradient in the model's parameter layout."""
    _require_data(model, data)
    X = data.features
    n = data.size
    logits, cache = _logits(model, X)
    probs = _softmax(logits)
    # d(mean CE)/d(logits): predicted probability minus one-hot target
    delta = probs
    delta[np.arange(n), data.labels] -= 1.0
    delta /= n

    layout = model.params.layout
    grad = np.zeros(layout.size)
    slices = layout.slices()
    if model.kind == KIND_LOGREG:
        grad[slices["weights"][0]] = (delta.T @ X).reshape(-1)
        grad[slices["bias"][0]] = delta.sum(axis=0)
    else:
        t = model.params.tensors()
        hidden, pre = cache["hidden"], cache["pre"]
        grad[slices["w2"][0]] = (delta.T @ hidden).reshape(-1)
        grad[slices["b2"][0]] = delta.sum(axis=0)
        back = delta @ t["w2"]
        if model.activation == "tanh":
            back = back * (1.0 - hidden**2)
        else:
            back = back * (pre > 0.0)
        grad[slices["w1"][0]] = (back.T @ X).reshape(-1)
        grad[slices["b1"][0]] = back.sum(axis=0)

    if not np.all(np.isfinite(grad)):
        raise TrainingError("non-finite gradient")
    return ParameterVector._wrap(grad, layout)


# --------------------------------------------------------------------------- #
# training and evaluation
# --------------------------------------------------------------------------- #


def _batches(data: Dataset, batch_size: int | str, rng: np.random.Generator):
    if batch_size == FULL_BATCH or batch_size >= data.size:
        yield data
        return
    order = rng.permutation(data.size)
    for start in range(0, data.size, batch_size):
        rows = order[start : start + batch_size]
        yield Dataset(
            features=data.features[rows],
            labels=data.labels[rows],
            num_classes=data.num_classes,
        )


def local_train(model: Model, data: Dataset, cfg: TrainingConfig) -> tuple[ParameterVector, ParameterVector]:
    """Gradient-descent training pass.

    Returns (new_params, update) where update is exactly new_params minus the
    starting parameters.  Aborts with TrainingError if the loss, gradient, or
    a parameter step stops being finite.
    """
    _require_data(model, data)
    start = model.params
    current = model
    rng = np.random.default_rng(cfg.seed)
    for _ in range(cfg.epochs):
        for batch in _batches(data, cfg.batch_size, rng):
            batch_loss = loss(current, batch)
            if not np.isfinite(batch_loss):
                raise TrainingError("non-finite loss")
            grad = gradient(current, batch)
            with np.errstate(over="ignore"):  # overflow is detected, not warned
                stepped = current.params.values - cfg.learning_rate * grad.values
            if not np.all(np.isfinite(stepped)):
                raise TrainingError("non-finite parameter step")
            current = current.with_params(ParameterVector._wrap(stepped, start.layout))
    new_params = current.params
    update = ParameterVector._wrap(new_params.values - start.values, start.layout)
    return new_params, update


def evaluate(model: Model, data: Dataset) -> float:
    """Accuracy under argmax prediction; ties resolve to the lowest class index."""
    _require_data(model, data)
    # huge parameters overflow to inf or nan; argmax still decides, silently
    with np.errstate(over="ignore", invalid="ignore"):
        logits, _ = _logits(model, data.features)
    predicted = np.argmax(logits, axis=1)  # argmax takes the first maximum
    return float(np.mean(predicted == data.labels))
