"""Local training: softmax networks whose parameter layout is their architecture.

Everything runs in float64 with analytic gradients.  A layout is (weight,
bias) layers, input side first; the activation follows every layer but the
last, so multinomial logistic regression is the network with no hidden layer.
Each training step walks the layers once forward (`_forward`) and once back,
on a raw float64 parameter array, for the loss and the gradient together.  The
walk holds the module's 3 matrix products: the forward one, the weight
gradient and the back-propagated delta.  Training is plain gradient descent,
full batch by default, optional shuffled mini-batches with a seeded generator.
The update `local_train` returns is always new parameters minus starting
parameters, computed exactly that way.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .datasets import Dataset
from .params import LayoutError, ParameterLayout, ParameterVector

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
ACTIVATIONS = ("tanh", "relu")
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
        # a bool is an int: True would step at rate 1.0, for one epoch, in 1-row batches
        if any(isinstance(value, bool) for value in (self.learning_rate, self.epochs, self.batch_size)):
            raise ValueError("learning_rate, epochs and batch_size must not be booleans")
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
    """A network is its parameters: the layout fixes every width."""

    params: ParameterVector
    activation: str = "tanh"

    def __post_init__(self) -> None:
        if self.activation not in ACTIVATIONS:
            raise ValueError("activation must be 'tanh' or 'relu'")
        # (weight, bias) layers, each weight taking the previous one's outputs
        shapes = [tuple(shape) for _, shape in self.params.layout.layers]
        if not shapes or len(shapes) % 2:
            raise LayoutError("a model layout is a non-empty run of (weight, bias) layers")
        outputs = None
        for weight, bias in zip(shapes[::2], shapes[1::2]):
            if len(weight) != 2 or bias != weight[:1] or outputs not in (None, weight[1]):
                raise LayoutError(f"weight {weight} and bias {bias} do not continue the layer chain")
            outputs = weight[0]

    @property
    def num_features(self) -> int:
        return self.params.layout.layers[0][1][1]

    @property
    def num_classes(self) -> int:
        return self.params.layout.layers[-1][1][0]

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
    return Model(ParameterVector.zeros(logreg_layout(num_features, num_classes)))


def mlp(num_features: int, num_classes: int, hidden_width: int, activation: str = "tanh", seed: int = 0) -> Model:
    """One-hidden-layer network with seeded scaled-Gaussian initialisation."""
    layout = mlp_layout(num_features, num_classes, hidden_width)
    rng = np.random.default_rng(seed)
    values = np.zeros(layout.size)
    for weight, _ in _layers(layout, values):
        weight[...] = rng.standard_normal(weight.shape) / np.sqrt(weight.shape[1])
    return Model(ParameterVector(values, layout), activation)


# --------------------------------------------------------------------------- #
# the network: one layer walk forward, the same walk backwards
# --------------------------------------------------------------------------- #


def _layers(layout: ParameterLayout, values: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """(weight, bias) views of a flat array, input side first."""
    views = list(layout.split(values).values())
    return list(zip(views[::2], views[1::2]))


def _forward(model: Model, values: np.ndarray, features: np.ndarray) -> tuple[np.ndarray, list]:
    """Logits under the flat parameters `values`, and each layer's (weight,
    input) for backpropagation."""
    walk = []
    out = features
    for weight, bias in _layers(model.params.layout, values):
        if walk:
            out = np.tanh(out) if model.activation == "tanh" else np.maximum(out, 0.0)
        walk.append((weight, out))
        out = out @ weight.T + bias
    return out, walk


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
        logits, walk = _forward(model, values, features)
        top = logits.max(axis=1, keepdims=True)
        expd = np.exp(logits - top)
        total = expd.sum(axis=1, keepdims=True)
        mean_loss = float(np.mean(np.log(total[:, 0]) + top[:, 0] - logits[rows, labels]))
        # d(mean CE)/d(logits): predicted probability minus one-hot target
        delta = expd / total
        delta[rows, labels] -= 1.0
        delta /= n

        grad = np.zeros(values.size)
        grads = _layers(model.params.layout, grad)
        for depth in range(len(walk) - 1, -1, -1):
            weight, inputs = walk[depth]
            g_weight, g_bias = grads[depth]
            g_weight[...] = delta.T @ inputs
            g_bias[...] = delta.sum(axis=0)
            if depth:
                # the slope of the activation that made `inputs`; relu's is
                # read off its output, which is positive where its input was
                back = delta @ weight
                delta = back * (1.0 - inputs**2) if model.activation == "tanh" else back * (inputs > 0.0)
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
