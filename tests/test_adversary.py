"""Attack model tests.

Counts (compromised clients, flipped labels, sybils, replays) are pinned
exactly: fraction-to-count rounding is half-up, and flip targets always
change class.  Tampering is checked bit-for-bit against the original
payload.
"""

from __future__ import annotations

from dataclasses import replace as dc_replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from attestfl import adversary, crypto, datasets, models
from attestfl.adversary import (
    AttackConfig,
    AttackPlan,
    arm,
    choose_compromised,
    flip_labels,
    make_poison,
    spawn_sybils,
    tamper_bytes,
)
from attestfl.models import TrainingConfig, TrainingError
from attestfl.params import ParameterVector
from attestfl.protocol import ClientActor, Delivery, Server, SignedUpdate, client_round

ARCH = models.logistic_regression(2, 2)
TRAIN_CFG = TrainingConfig(learning_rate=0.1, epochs=1, batch_size="full", seed=0)
SHARD = datasets.generate_synthetic(
    num_clients=1, per_client=40, num_features=2, num_classes=2, separation=6.0, seed=5
)[0]


def update_of(*values):
    return ParameterVector(values=np.array(values, dtype=np.float64), layout=ARCH.params.layout)


# ---- config validation ---- #


def test_attack_config_defaults_are_valid():
    cfg = AttackConfig()
    assert cfg.kind == "none"


@pytest.mark.parametrize(
    "kwargs",
    [
        {"kind": "ddos"},
        {"fraction": -0.1},
        {"fraction": 1.5},
        {"strength": float("inf")},
        {"seed": -1},
    ],
)
def test_attack_config_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        AttackConfig(**kwargs)


# ---- compromised selection ---- #


def test_choose_compromised_counts_round_half_up():
    ids = [f"c{i}" for i in range(8)]
    assert len(choose_compromised(ids, 0.0, 1)) == 0
    assert len(choose_compromised(ids, 0.25, 1)) == 2
    assert len(choose_compromised(ids, 0.3, 1)) == 2  # 2.4 rounds down
    assert len(choose_compromised(ids, 0.32, 1)) == 3  # 2.56 rounds up
    assert len(choose_compromised(ids, 1.0, 1)) == 8


def test_choose_compromised_half_rounds_up():
    assert len(choose_compromised(["a", "b"], 0.25, 1)) == 1  # 0.5 -> 1


def test_choose_compromised_is_deterministic_and_subset():
    ids = [f"c{i}" for i in range(10)]
    first = choose_compromised(ids, 0.4, 9)
    second = choose_compromised(ids, 0.4, 9)
    assert first == second
    assert first <= set(ids)
    assert choose_compromised(ids, 0.4, 10) != first  # {c0, c2, c3, c5} against {c6, c7, c8, c9}


# ---- poisoning ---- #


def poison_noise(seed, round_no, size):
    return np.random.default_rng(crypto.derive_seed("poison", seed, round_no)).standard_normal(size)


def test_poison_identity_case():
    # strength 1 keeps the update and adds unit-scale noise
    u = update_of(1.0, -2.0, 0.5, 3.0, -1.0, 0.0)
    rewrite = make_poison(1.0, seed=0)
    assert np.array_equal(rewrite(u, 3).values, 1.0 * u.values + 1.0 * poison_noise(0, 3, u.size))


def test_poison_scales_update_and_adds_noise():
    u = update_of(1.0, -2.0, 0.5, 3.0, -1.0, 0.25)
    rewrite = make_poison(-10.0, seed=0)
    assert np.array_equal(rewrite(u, 0).values, -10.0 * u.values + 10.0 * poison_noise(0, 0, u.size))


def test_poison_noise_is_seeded_per_round():
    u = update_of(1.0, -2.0, 0.5, 3.0, -1.0, 0.25)
    rewrite = make_poison(-10.0, seed=4)
    same_round = rewrite(u, 1)
    assert np.array_equal(same_round.values, rewrite(u, 1).values)
    assert not np.array_equal(same_round.values, rewrite(u, 2).values)


def test_poison_overflow_is_a_training_failure():
    u = update_of(1.0, -2.0, 0.5, 3.0, -1.0, 0.25)
    with pytest.raises(TrainingError):
        make_poison(1e308, seed=0)(u, 0)


# ---- label flipping ---- #


def test_flip_labels_exact_count_and_changed_classes():
    flipped = flip_labels(SHARD, 0.25, seed=7)
    changed = flipped.labels != SHARD.labels
    assert int(changed.sum()) == 10  # 0.25 * 40
    assert np.array_equal(flipped.features, SHARD.features)
    # every touched row moved to a different class, never out of range
    assert np.all(flipped.labels[changed] != SHARD.labels[changed])
    assert flipped.labels.min() >= 0 and flipped.labels.max() < SHARD.num_classes


def test_flip_labels_rounds_half_up():
    small = datasets.Dataset(
        features=np.zeros((5, 2)), labels=np.array([0, 1, 0, 1, 0]), num_classes=2
    )
    flipped = flip_labels(small, 0.5, seed=1)  # 2.5 -> 3
    assert int((flipped.labels != small.labels).sum()) == 3


def test_flip_labels_zero_fraction_is_identity():
    assert flip_labels(SHARD, 0.0, seed=1) is SHARD


def test_flip_labels_needs_two_classes():
    single = datasets.Dataset(features=np.zeros((4, 1)), labels=np.zeros(4, dtype=int), num_classes=1)
    with pytest.raises(ValueError):
        flip_labels(single, 0.5, seed=1)


def test_flip_labels_is_deterministic():
    a = flip_labels(SHARD, 0.4, seed=11)
    b = flip_labels(SHARD, 0.4, seed=11)
    assert np.array_equal(a.labels, b.labels)


# ---- byte tampering ---- #


def test_tamper_flips_exactly_one_bit():
    payload = bytes(range(16))
    out = tamper_bytes(payload, 21)  # byte 2, offset 5 from the MSB
    assert out[2] == payload[2] ^ (0x80 >> 5)
    assert out[:2] == payload[:2] and out[3:] == payload[3:]


def test_tamper_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        tamper_bytes(b"", 0)
    with pytest.raises(ValueError):
        tamper_bytes(b"ab", 16)
    with pytest.raises(ValueError):
        tamper_bytes(b"ab", -1)


@settings(max_examples=100, deadline=None)
@given(st.binary(min_size=1, max_size=64), st.data())
def test_tamper_twice_restores_payload(payload, data):
    bit = data.draw(st.integers(min_value=0, max_value=8 * len(payload) - 1))
    once = tamper_bytes(payload, bit)
    assert once != payload
    assert tamper_bytes(once, bit) == payload


# ---- sybil spawning ---- #


def test_spawn_sybils_zero_is_empty():
    assert spawn_sybils(0, ARCH, TRAIN_CFG, separation=6.0, seed=1) == []


def test_spawn_sybils_have_distinct_identities_and_keys():
    sybils = spawn_sybils(3, ARCH, TRAIN_CFG, separation=6.0, seed=1, key_bits=1024)
    assert [s.client_id for s in sybils] == ["sybil-0", "sybil-1", "sybil-2"]
    keys = {s.sig_pair.public.n for s in sybils}
    assert len(keys) == 3
    # each produces a structurally complete, signed submission
    msg = client_round(sybils[0], ARCH.params, 0)
    assert isinstance(msg, SignedUpdate)
    assert crypto.verify(msg.digest, msg.signature, sybils[0].sig_pair.public)


# ---- plan behaviour ---- #


def make_honest_delivery(seed=500):
    client = ClientActor.create(
        "client-0", SHARD, ARCH, TRAIN_CFG,
        key_seed=seed, key_bits=1024,
    )
    msg = client_round(client, ARCH.params, 0)
    return Delivery(payload=msg, source="client-0", honest=True)


def test_plan_none_kind_rejected():
    # a plan exists only for the kinds that act on deliveries
    for kind in ("bogus", "none", "model-poison", "data-poison"):
        with pytest.raises(ValueError):
            AttackPlan(kind=kind, seed=1)


def test_tamper_plan_rewrites_only_compromised_sources():
    delivery = make_honest_delivery()
    clean = Delivery(payload=delivery.payload, source="client-1", honest=True)
    plan = AttackPlan(kind="tamper", seed=2, compromised=frozenset({"client-0"}))
    out = plan.transform([delivery, clean], 0, ARCH.params)
    assert out[1] is clean
    original = delivery.payload.to_wire_bytes()
    tampered = out[0].payload
    assert isinstance(tampered, bytes)
    diff = [i for i, (a, b) in enumerate(zip(original, tampered)) if a != b]
    assert len(diff) == 1
    assert bin(original[diff[0]] ^ tampered[diff[0]]).count("1") == 1
    assert out[0].honest  # the sender was honest; transit was not


def test_tamper_plan_is_deterministic():
    delivery = make_honest_delivery()
    out_a = AttackPlan(kind="tamper", seed=2, compromised=frozenset({"client-0"})).transform(
        [delivery], 0, ARCH.params
    )
    out_b = AttackPlan(kind="tamper", seed=2, compromised=frozenset({"client-0"})).transform(
        [delivery], 0, ARCH.params
    )
    assert out_a[0].payload == out_b[0].payload


def test_sybil_plan_appends_fakes():
    delivery = make_honest_delivery()
    sybils = spawn_sybils(2, ARCH, TRAIN_CFG, separation=6.0, seed=1, key_bits=1024)
    plan = AttackPlan(kind="sybil", seed=1, sybils=sybils)
    out = plan.transform([delivery], 0, ARCH.params)
    assert len(out) == 3
    assert out[0] is delivery
    assert [d.source for d in out[1:]] == ["sybil-0", "sybil-1"]
    assert all(not d.honest for d in out[1:])


def test_replay_plan_captures_then_resends():
    plan = AttackPlan(kind="replay", seed=3, replays_per_round=2)
    first = make_honest_delivery()
    out0 = plan.transform([first], 0, ARCH.params)
    assert out0 == [first]  # nothing captured yet
    second = make_honest_delivery(seed=501)
    out1 = plan.transform([second], 1, ARCH.params)
    assert len(out1) == 3
    replayed = out1[1:]
    assert all(not d.honest for d in replayed)
    assert all(d.payload is first.payload for d in replayed)
    assert len(plan.captured) == 2


# ---- arming an honest world ---- #


@pytest.mark.parametrize("kind", sorted(adversary.ATTACK_KINDS))
def test_arm_applies_each_kind_to_exactly_the_chosen_clients(kind):
    shards = datasets.generate_synthetic(
        num_clients=4, per_client=20, num_features=2, num_classes=2, separation=6.0, seed=8
    )
    server = Server.create(ARCH, key_seed=900, key_bits=1024)
    clients = []
    for i, shard in enumerate(shards):
        client = ClientActor.create(f"client-{i}", shard, ARCH, TRAIN_CFG, key_seed=901 + i, key_bits=1024)
        server.register(client)
        clients.append(client)
    # the same registered identities holding one-class shards
    one_class = [
        dc_replace(c, data=datasets.Dataset(c.data.features, np.zeros(c.data.size, dtype=int), 1))
        for c in clients
    ]
    attack = AttackConfig(kind=kind, fraction=0.5, seed=3)
    chosen = choose_compromised([c.client_id for c in clients], 0.5, 3)
    assert len(chosen) == 2

    plan = arm(attack, clients, separation=6.0, key_bits=1024)

    if kind in ("none", "model-poison", "data-poison"):
        assert plan is None
    else:
        assert plan.kind == kind
        assert plan.compromised == (chosen if kind == "tamper" else frozenset())
        assert len(plan.sybils) == (2 if kind == "sybil" else 0)
        assert plan.replays_per_round == (2 if kind == "replay" else 0)
    for client, shard in zip(clients, shards):
        attacked = client.client_id in chosen
        flipped = not np.array_equal(client.data.labels, shard.labels)
        assert flipped == (kind == "data-poison" and attacked)
        assert (client.compromise is not None) == (kind == "model-poison" and attacked)
    if kind == "data-poison":
        with pytest.raises(ValueError, match="two classes"):
            arm(attack, one_class, separation=6.0, key_bits=1024)
    else:
        arm(attack, one_class, separation=6.0, key_bits=1024)  # only label flipping needs two classes
