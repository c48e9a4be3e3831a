"""Model-core tests.

Gradient correctness is checked against a central finite-difference oracle
that only uses the loss function.  Small forward/gradient cases are recomputed
here with plain scalar math so the expectations never depend on the code they
are testing.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from attestfl import models
from attestfl.datasets import Dataset, generate_holdout, generate_synthetic
from attestfl.params import LayoutError, ParameterLayout, ParameterVector

FD_STEP = 1e-5
FD_REL_TOL = 1e-4


def fd_gradient(model: models.Model, data: Dataset, step: float = FD_STEP) -> np.ndarray:
    """Central finite differences of the mean loss, the independent oracle."""
    base = model.params.values
    out = np.zeros_like(base)
    for i in range(base.size):
        plus = base.copy()
        plus[i] += step
        minus = base.copy()
        minus[i] -= step
        layout = model.params.layout
        loss_plus = models.loss(model.with_params(ParameterVector(plus, layout)), data)
        loss_minus = models.loss(model.with_params(ParameterVector(minus, layout)), data)
        out[i] = (loss_plus - loss_minus) / (2 * step)
    return out


def max_rel_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    scale = np.maximum(1e-6, np.maximum(np.abs(analytic), np.abs(numeric)))
    return float(np.max(np.abs(analytic - numeric) / scale))


def tiny_dataset() -> Dataset:
    return Dataset(features=np.array([[1.0, 0.0]]), labels=np.array([1]), num_classes=2)


# --------------------------------------------------------------------------- #
# parameter vectors
# --------------------------------------------------------------------------- #


def test_layout_size_and_slices():
    layout = models.logreg_layout(3, 2)
    assert layout.size == 8
    values = np.arange(8.0)
    views = layout.split(values)
    assert np.array_equal(views["weights"], [[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]])
    assert np.array_equal(views["bias"], [6.0, 7.0])
    views["bias"][0] = -1.0  # views, not copies: writes land in the flat vector
    assert values[6] == -1.0


def test_parameter_vector_rejects_bad_length_and_nonfinite():
    layout = models.logreg_layout(2, 2)
    with pytest.raises(LayoutError):
        ParameterVector(np.zeros(5), layout)
    with pytest.raises(ValueError):
        ParameterVector(np.array([np.inf, 0, 0, 0, 0, 0]), layout)


def test_parameter_vector_is_immutable():
    vec = ParameterVector.zeros(models.logreg_layout(2, 2))
    with pytest.raises(ValueError):
        vec.values[0] = 1.0


def test_parameter_arithmetic_and_layout_guard():
    layout = ParameterLayout((("w", (2,)),))
    a = ParameterVector(np.array([1.0, 2.0]), layout)
    b = ParameterVector(np.array([0.5, -1.0]), layout)
    assert np.array_equal(a.add(b).values, [1.5, 1.0])
    other = ParameterVector(np.array([0.0, 0.0]), ParameterLayout((("v", (2,)),)))
    with pytest.raises(LayoutError):
        a.add(other)


def test_model_widths_are_read_from_the_layout():
    logreg = models.logistic_regression(4, 3)
    assert (logreg.num_features, logreg.num_classes) == (4, 3)
    net = models.mlp(4, 3, hidden_width=7)
    assert (net.num_features, net.num_classes) == (4, 3)
    deep = ParameterLayout(
        (("w1", (4, 3)), ("b1", (4,)), ("w2", (5, 4)), ("b2", (5,)), ("w3", (2, 5)), ("b3", (2,)))
    )
    deep_net = models.Model(ParameterVector.zeros(deep))
    assert (deep_net.num_features, deep_net.num_classes) == (3, 2)
    with pytest.raises(LayoutError):  # before any draw
        models.mlp(4, 3, hidden_width=0)
    # a model with no hidden layer still names a known activation
    with pytest.raises(ValueError, match="activation"):
        models.Model(models.logistic_regression(4, 3).params, activation="sigmoid")


@pytest.mark.parametrize(
    "layers",
    [
        (),
        (("w", (3,)),),  # a lone entry: no (weight, bias) pair
        (("w", (2, 3)),),
        (("w", (2, 3)), ("b", (2,)), ("v", (2, 2))),  # odd count
        (("w", (6,)), ("b", (1,))),  # 1-D weight
        (("w", (2, 3, 1)), ("b", (2,))),  # 3-D weight
        (("w", (2, 3)), ("b", (3,))),  # bias is not the weight's row count
        (("w", (2, 3)), ("b", (2, 1))),  # 2-D bias
        (("w1", (4, 3)), ("b1", (4,)), ("w2", (2, 5)), ("b2", (2,))),  # 5 inputs after 4 outputs
    ],
)
def test_model_rejects_a_layout_that_is_not_a_layer_chain(layers):
    with pytest.raises(LayoutError):
        models.Model(ParameterVector.zeros(ParameterLayout(layers)))


# --------------------------------------------------------------------------- #
# forward and loss
# --------------------------------------------------------------------------- #


def class_probabilities(model: models.Model, row) -> np.ndarray:
    """Forward pass of one feature row through the loss: on a one-row dataset,
    exp(-loss) is the probability the model gives that row's label."""
    return np.array(
        [
            math.exp(-models.loss(model, Dataset(features=[row], labels=[label], num_classes=model.num_classes)))
            for label in range(model.num_classes)
        ]
    )


def test_forward_uniform_at_zero_parameters():
    model = models.logistic_regression(2, 2)
    probs = class_probabilities(model, [3.0, -1.0])
    assert np.allclose(probs, [0.5, 0.5], atol=1e-15)


def test_forward_probabilities_normalised():
    model = models.mlp(4, 3, hidden_width=5, seed=1)
    probs = class_probabilities(model, np.arange(4.0))
    assert abs(probs.sum() - 1.0) < 1e-12
    assert np.all(probs >= 0.0) and np.all(probs <= 1.0)


def test_forward_mlp_matches_scalar_arithmetic():
    # hand-built 2-2-2 tanh network evaluated with plain math calls
    layout = models.mlp_layout(2, 2, 2)
    values = np.zeros(layout.size)
    views = layout.split(values)
    views["w1"][...] = [[0.5, 0.0], [0.0, 0.5]]
    views["w2"][...] = [[1.0, 0.0], [0.0, 1.0]]  # identity
    model = models.mlp(2, 2, hidden_width=2).with_params(ParameterVector(values, layout))
    x = [1.0, -1.0]
    h0 = math.tanh(0.5 * x[0])
    h1 = math.tanh(0.5 * x[1])
    e0, e1 = math.exp(h0), math.exp(h1)
    expected = np.array([e0 / (e0 + e1), e1 / (e0 + e1)])
    assert np.allclose(class_probabilities(model, x), expected, atol=1e-15)


def test_loss_uniform_is_log_num_classes():
    data = Dataset(
        features=np.array([[1.0, 2.0], [0.0, -1.0], [3.0, 0.5]]),
        labels=np.array([0, 1, 1]),
        num_classes=2,
    )
    model = models.logistic_regression(2, 2)
    assert abs(models.loss(model, data) - math.log(2)) < 1e-12
    three = models.logistic_regression(2, 3)
    data3 = Dataset(features=data.features, labels=np.array([0, 1, 2]), num_classes=3)
    assert abs(models.loss(three, data3) - math.log(3)) < 1e-12


def test_loss_finite_for_extreme_parameters():
    layout = models.logreg_layout(2, 2)
    huge = ParameterVector(np.array([1e300, -1e300, 1e300, -1e300, 0.0, 0.0]), layout)
    model = models.logistic_regression(2, 2).with_params(huge)
    data = tiny_dataset()
    assert np.isfinite(models.loss(model, data))


def test_loss_and_gradient_reject_empty_or_mismatched_data():
    model = models.logistic_regression(2, 2)
    empty = Dataset(features=np.zeros((0, 2)), labels=np.zeros(0, dtype=int), num_classes=2)
    with pytest.raises(ValueError):
        models.loss(model, empty)
    wrong_width = Dataset(features=np.zeros((1, 3)), labels=np.array([0]), num_classes=2)
    with pytest.raises(ValueError):
        models.gradient(model, wrong_width)
    with pytest.raises(ValueError):
        models.evaluate(model, empty)


# --------------------------------------------------------------------------- #
# gradients
# --------------------------------------------------------------------------- #


def test_gradient_hand_case_logreg():
    # zero parameters, one example x=[1,0] labelled class 1:
    # probabilities are (.5,.5); d/dlogits = (.5, -.5)
    model = models.logistic_regression(2, 2)
    grad = models.gradient(model, tiny_dataset())
    layers = grad.layout.split(grad.values)
    assert np.allclose(layers["weights"], [[0.5, 0.0], [-0.5, 0.0]], atol=1e-15)
    assert np.allclose(layers["bias"], [0.5, -0.5], atol=1e-15)


def test_gradient_matches_finite_differences_logreg():
    rng = np.random.default_rng(0)
    data = Dataset(
        features=rng.standard_normal((12, 3)),
        labels=rng.integers(0, 4, 12),
        num_classes=4,
    )
    model = models.logistic_regression(3, 4)
    model = model.with_params(
        ParameterVector(rng.standard_normal(model.params.size) * 0.5, model.params.layout)
    )
    analytic = models.gradient(model, data).values
    numeric = fd_gradient(model, data)
    assert max_rel_error(analytic, numeric) < FD_REL_TOL


@pytest.mark.parametrize("activation", ["tanh", "relu"])
def test_gradient_matches_finite_differences_mlp(activation):
    rng = np.random.default_rng(3)
    data = Dataset(
        features=rng.standard_normal((10, 3)),
        labels=rng.integers(0, 3, 10),
        num_classes=3,
    )
    model = models.mlp(3, 3, hidden_width=4, activation=activation, seed=11)
    analytic = models.gradient(model, data).values
    numeric = fd_gradient(model, data)
    assert max_rel_error(analytic, numeric) < FD_REL_TOL


def test_gradient_mean_unchanged_by_duplicating_dataset():
    rng = np.random.default_rng(5)
    feats = rng.standard_normal((7, 2))
    labels = rng.integers(0, 2, 7)
    data = Dataset(features=feats, labels=labels, num_classes=2)
    doubled = Dataset(
        features=np.vstack([feats, feats]),
        labels=np.concatenate([labels, labels]),
        num_classes=2,
    )
    model = models.logistic_regression(2, 2)
    g1 = models.gradient(model, data).values
    g2 = models.gradient(model, doubled).values
    assert np.allclose(g1, g2, atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_gradient_fd_property_random_instances(seed):
    rng = np.random.default_rng(seed)
    n_features = int(rng.integers(1, 4))
    n_classes = int(rng.integers(2, 4))
    n = int(rng.integers(2, 9))
    data = Dataset(
        features=rng.standard_normal((n, n_features)),
        labels=rng.integers(0, n_classes, n),
        num_classes=n_classes,
    )
    if seed % 2:
        model = models.mlp(n_features, n_classes, hidden_width=3, seed=seed)
    else:
        base = models.logistic_regression(n_features, n_classes)
        model = base.with_params(
            ParameterVector(rng.standard_normal(base.params.size), base.params.layout)
        )
    assert max_rel_error(models.gradient(model, data).values, fd_gradient(model, data)) < FD_REL_TOL


# --------------------------------------------------------------------------- #
# training
# --------------------------------------------------------------------------- #


def test_single_full_batch_epoch_is_one_gradient_step():
    rng = np.random.default_rng(9)
    data = Dataset(
        features=rng.standard_normal((20, 2)),
        labels=rng.integers(0, 2, 20),
        num_classes=2,
    )
    model = models.logistic_regression(2, 2)
    lr = 0.3
    cfg = models.TrainingConfig(learning_rate=lr, epochs=1, batch_size="full")
    expected = -lr * models.gradient(model, data).values
    _, update = models.local_train(model, data, cfg)
    assert np.max(np.abs(update.values - expected)) < 1e-12


def test_update_is_exactly_new_minus_start():
    rng = np.random.default_rng(10)
    data = Dataset(
        features=rng.standard_normal((15, 2)),
        labels=rng.integers(0, 2, 15),
        num_classes=2,
    )
    start = models.logistic_regression(2, 2).with_params(
        ParameterVector(rng.standard_normal(6), models.logreg_layout(2, 2))
    )
    cfg = models.TrainingConfig(learning_rate=0.05, epochs=3)
    new_params, update = models.local_train(start, data, cfg)
    assert np.array_equal(update.values, new_params.values - start.params.values)


def test_training_reduces_loss_on_separable_data():
    shard = generate_synthetic(1, 200, 2, 2, separation=6.0, seed=4)[0]
    model = models.logistic_regression(2, 2)
    before = models.loss(model, shard)
    cfg = models.TrainingConfig(learning_rate=0.1, epochs=5)
    new_params, _ = models.local_train(model, shard, cfg)
    after = models.loss(model.with_params(new_params), shard)
    assert after < before


def test_minibatch_training_is_seed_deterministic():
    shard = generate_synthetic(1, 64, 2, 2, separation=2.0, seed=8)[0]
    model = models.logistic_regression(2, 2)
    cfg = models.TrainingConfig(learning_rate=0.1, epochs=2, batch_size=16, seed=21)
    first, _ = models.local_train(model, shard, cfg)
    second, _ = models.local_train(model, shard, cfg)
    assert np.array_equal(first.values, second.values)
    other_seed, _ = models.local_train(
        model, shard, models.TrainingConfig(learning_rate=0.1, epochs=2, batch_size=16, seed=22)
    )
    assert not np.array_equal(first.values, other_seed.values)


# SHA-256 over new_params.values and update.values of four chained
# `local_train` calls; see test_local_train_bytes_are_pinned
TRAINING_PINS = {
    ("logreg", "full"): "023df25bab25d54f3c52e068395a941bb8b52e756695c6afdbb7db1d84c32c62",
    ("logreg", 16): "15007caee0bd9655490ef68e87f63dd64cd33cb767d45d451b148836f8cbb57d",
    ("logreg", 7): "95f541832e7c18522eadc9694101977a619262188e0b55700c9be91528b0b182",
    ("tanh", "full"): "7259b90abbc033e007a33e9a38f70e91ed68f458c4b8dc64256c4794bcc44b0b",
    ("tanh", 16): "a3314b549583d4b2f0838a4d967c1493136ace9116b0c2023f32f01df67b7650",
    ("tanh", 7): "ecc7308651b0e9a449b5af2330a072262cea7738cfb31426b2c3679b951ea4e6",
    ("relu", "full"): "3c1c356da5ecafd64ab5cd9a055945e0aa1c60c630fa373b25531d8f71872ab7",
    ("relu", 16): "34445e17acb73e222ae6d72566b434ffbe0222b5e6414a1b3419e24622f8b842",
    ("relu", 7): "c679ba9e0aa252cf9626ce06a460001afef49918e1b9472b0bcb72c031eb89da",
}


@pytest.mark.parametrize("kind, batch_size", list(TRAINING_PINS))
def test_local_train_bytes_are_pinned(kind, batch_size):
    """Training output bytes for logistic regression and tanh/relu MLPs,
    full batch, even mini-batches and a ragged last batch (50 rows in 7s).

    A refactor of the training code keeps every pin.  Like `GOLDEN`, these
    bytes hold only on this CPU's BLAS kernel and numpy SIMD level: `@`,
    `exp`, `log` and `tanh` round differently elsewhere.
    """
    shard = generate_synthetic(1, 50, 5, 3, separation=2.0, seed=12)[0]
    if kind == "logreg":
        model = models.logistic_regression(5, 3)
    else:
        model = models.mlp(5, 3, hidden_width=6, activation=kind, seed=5)
    digest = hashlib.sha256()
    for call in range(4):
        cfg = models.TrainingConfig(learning_rate=0.3, epochs=2, batch_size=batch_size, seed=call)
        new_params, update = models.local_train(model, shard, cfg)
        digest.update(new_params.values.tobytes())
        digest.update(update.values.tobytes())
        model = model.with_params(new_params)
    assert digest.hexdigest() == TRAINING_PINS[(kind, batch_size)]


# SHA-256 over `_forward`'s logits, `loss`'s float64 bytes and `gradient`'s
# values on the TRAINING_PINS shard; see test_forward_loss_gradient_bytes_are_pinned
FORWARD_PINS = {
    "logreg": "d23d7445fc173933b54d431fd60cdb0c439c37f6595e99a8667adbd52e5c6f2d",
    "tanh": "dc8e80fdc3c643849f0778299696994e023bee6bf85eb2b8984dd8a91a86991a",
    "relu": "aaf85a5f77768cdaf219daf3e0e280b38f2b5d06b6ba6011ae9da012c7f5f34c",
}


@pytest.mark.parametrize("kind", list(FORWARD_PINS))
def test_forward_loss_gradient_bytes_are_pinned(kind):
    """Evaluation-path bytes: the logits `evaluate` takes its argmax of, and
    the loss and gradient, under seeded parameters that are not zero.

    `TRAINING_PINS` see only trained parameters and the golden digests see
    `evaluate` only as an accuracy, so these pin the rest of the network.
    The same CPU caveat as `TRAINING_PINS` applies.
    """
    shard = generate_synthetic(1, 50, 5, 3, separation=2.0, seed=12)[0]
    if kind == "logreg":
        model = models.logistic_regression(5, 3)
    else:
        model = models.mlp(5, 3, hidden_width=6, activation=kind, seed=5)
    layout = model.params.layout
    drawn = np.random.default_rng(17).standard_normal(layout.size)
    model = model.with_params(ParameterVector(drawn, layout))
    logits = models._forward(model, model.params.values, shard.features)[0]
    digest = hashlib.sha256(logits.tobytes())
    digest.update(np.float64(models.loss(model, shard)).tobytes())
    digest.update(models.gradient(model, shard).values.tobytes())
    assert digest.hexdigest() == FORWARD_PINS[kind]


def test_training_runs_one_forward_pass_per_step(monkeypatch):
    calls = []
    forward = models._forward

    def counted(*args):
        calls.append(args)
        return forward(*args)

    monkeypatch.setattr(models, "_forward", counted)
    shard = generate_synthetic(1, 50, 5, 3, separation=2.0, seed=12)[0]
    cfg = models.TrainingConfig(epochs=3, batch_size=16)
    models.local_train(models.mlp(5, 3, hidden_width=6), shard, cfg)
    assert len(calls) == 12  # 3 epochs of 4 batches: 16, 16, 16 and 2 rows


def test_training_aborts_on_overflow():
    data = Dataset(features=np.array([[10.0]]), labels=np.array([1]), num_classes=2)
    model = models.logistic_regression(1, 2)
    cfg = models.TrainingConfig(learning_rate=1e308, epochs=1)
    with pytest.raises(models.TrainingError):
        models.local_train(model, data, cfg)


def test_training_config_validation():
    with pytest.raises(ValueError):
        models.TrainingConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        models.TrainingConfig(epochs=0)
    with pytest.raises(ValueError):
        models.TrainingConfig(batch_size=0)
    with pytest.raises(ValueError):
        models.TrainingConfig(batch_size="half")
    # a bool is an int, but True is not a batch size, an epoch count or a rate
    for flag in ({"batch_size": True}, {"epochs": True}, {"learning_rate": True}):
        with pytest.raises(ValueError):
            models.TrainingConfig(**flag)


# --------------------------------------------------------------------------- #
# evaluation
# --------------------------------------------------------------------------- #


def test_evaluate_tie_break_picks_lowest_class():
    # zero parameters give uniform probabilities for every row, so the
    # prediction is always class 0 and accuracy equals the share of zeros
    rng = np.random.default_rng(2)
    labels = rng.integers(0, 3, 60)
    data = Dataset(features=rng.standard_normal((60, 2)), labels=labels, num_classes=3)
    model = models.logistic_regression(2, 3)
    assert models.evaluate(model, data) == pytest.approx(np.mean(labels == 0))


def test_evaluate_perfect_on_trivially_separated_data():
    shard = generate_synthetic(1, 100, 2, 2, separation=20.0, seed=3)[0]
    model = models.logistic_regression(2, 2)
    cfg = models.TrainingConfig(learning_rate=0.5, epochs=20)
    new_params, _ = models.local_train(model, shard, cfg)
    assert models.evaluate(model.with_params(new_params), shard) >= 0.99


# --------------------------------------------------------------------------- #
# synthetic data
# --------------------------------------------------------------------------- #


def test_synthetic_shapes_and_balance():
    shards = generate_synthetic(3, 101, 4, 3, separation=2.0, seed=0)
    assert len(shards) == 3
    for shard in shards:
        assert shard.size == 101
        assert shard.num_features == 4
        counts = np.bincount(shard.labels, minlength=3)
        assert counts.max() - counts.min() <= 1


def test_synthetic_deterministic_and_client_distinct():
    a = generate_synthetic(2, 50, 2, 2, separation=3.0, seed=7)
    b = generate_synthetic(2, 50, 2, 2, separation=3.0, seed=7)
    assert np.array_equal(a[0].features, b[0].features)
    assert np.array_equal(a[1].labels, b[1].labels)
    assert not np.array_equal(a[0].features, a[1].features)


def test_synthetic_zero_separation_is_chance_level():
    shard = generate_synthetic(1, 600, 2, 2, separation=0.0, seed=11)[0]
    model = models.logistic_regression(2, 2)
    cfg = models.TrainingConfig(learning_rate=0.1, epochs=5)
    new_params, _ = models.local_train(model, shard, cfg)
    holdout = generate_holdout(600, 2, 2, separation=0.0, seed=11)
    acc = models.evaluate(model.with_params(new_params), holdout)
    assert abs(acc - 0.5) <= 0.1


def test_synthetic_wide_separation_is_nearly_perfect():
    shard = generate_synthetic(1, 500, 2, 2, separation=8.0, seed=12)[0]
    model = models.logistic_regression(2, 2)
    cfg = models.TrainingConfig(learning_rate=0.1, epochs=5)
    new_params, _ = models.local_train(model, shard, cfg)
    holdout = generate_holdout(500, 2, 2, separation=8.0, seed=12)
    assert models.evaluate(model.with_params(new_params), holdout) >= 0.95


def test_holdout_uses_distinct_stream():
    shard = generate_synthetic(1, 50, 2, 2, separation=3.0, seed=9)[0]
    holdout = generate_holdout(50, 2, 2, separation=3.0, seed=9)
    assert not np.array_equal(shard.features, holdout.features)
