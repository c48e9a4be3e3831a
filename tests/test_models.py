"""Model-core tests.

Gradient correctness is checked against a central finite-difference oracle
that only uses the loss function.  Small forward/gradient cases are recomputed
here with plain scalar math so the expectations never depend on the code they
are testing.
"""

from __future__ import annotations

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
    slices = layout.slices()
    assert slices["weights"][0] == slice(0, 6)
    assert slices["bias"][0] == slice(6, 8)


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
    assert np.array_equal(a.scale(2.0).values, [2.0, 4.0])
    other = ParameterVector(np.array([0.0, 0.0]), ParameterLayout((("v", (2,)),)))
    with pytest.raises(LayoutError):
        a.add(other)


# --------------------------------------------------------------------------- #
# forward and loss
# --------------------------------------------------------------------------- #


def test_forward_uniform_at_zero_parameters():
    model = models.logistic_regression(2, 2)
    probs = models.forward(model, np.array([3.0, -1.0]))
    assert np.allclose(probs, [0.5, 0.5], atol=1e-15)


def test_forward_probabilities_normalised():
    model = models.mlp(4, 3, hidden_width=5, seed=1)
    probs = models.forward(model, np.arange(4.0))
    assert abs(probs.sum() - 1.0) < 1e-12
    assert np.all(probs >= 0.0) and np.all(probs <= 1.0)


def test_forward_mlp_matches_scalar_arithmetic():
    # hand-built 2-2-2 tanh network evaluated with plain math calls
    layout = models.mlp_layout(2, 2, 2)
    values = np.zeros(layout.size)
    slices = layout.slices()
    values[slices["w1"][0]] = [0.5, 0.0, 0.0, 0.5]  # w1 = [[.5,0],[0,.5]]
    values[slices["w2"][0]] = [1.0, 0.0, 0.0, 1.0]  # w2 = identity
    model = models.mlp(2, 2, hidden_width=2).with_params(ParameterVector(values, layout))
    x = [1.0, -1.0]
    h0 = math.tanh(0.5 * x[0])
    h1 = math.tanh(0.5 * x[1])
    e0, e1 = math.exp(h0), math.exp(h1)
    expected = np.array([e0 / (e0 + e1), e1 / (e0 + e1)])
    assert np.allclose(models.forward(model, np.array(x)), expected, atol=1e-15)


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
    grad = models.gradient(model, tiny_dataset()).tensors()
    assert np.allclose(grad["weights"], [[0.5, 0.0], [-0.5, 0.0]], atol=1e-15)
    assert np.allclose(grad["bias"], [0.5, -0.5], atol=1e-15)


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
    expected = models.gradient(model, data).scale(-lr)
    _, update = models.local_train(model, data, cfg)
    assert np.max(np.abs(update.values - expected.values)) < 1e-12


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
