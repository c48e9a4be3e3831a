"""Round protocol tests: registration, message integrity, verification
order, weighted aggregation, and full-round orchestration.

The aggregation hand example is checked against values worked out by
hand, and the general case against a direct numpy weighted average
computed independently of the implementation.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from attestfl import crypto, datasets, models, protocol, reporting
from attestfl.attestation import (
    Checkpoint,
    CheckpointLabel,
    DEFAULT_CLIENT_GRAPH,
    DEFAULT_SERVER_GRAPH,
    finalize_report,
    record_checkpoint,
    verify_trace,
)
from attestfl.models import TrainingConfig
from attestfl.params import ParameterLayout, ParameterVector
from attestfl.protocol import (
    AggregationError,
    ClientActor,
    Delivery,
    DuplicateClientError,
    GlobalModelState,
    ProtocolError,
    Server,
    SignedUpdate,
    WireFormatError,
    advance_round,
    aggregate,
    apply_global,
    build_signed_update,
    client_round,
    run_round,
    server_verify,
)

# ---- shared fixtures (1024-bit keys keep the suite quick) ---- #

ARCH = models.logistic_regression(2, 2)
LAYOUT = ARCH.params.layout
TRAIN_CFG = TrainingConfig(learning_rate=0.1, epochs=2, batch_size="full", seed=0)
SHARDS = datasets.generate_synthetic(
    num_clients=3, per_client=30, num_features=2, num_classes=2, separation=6.0, seed=5
)
HOLDOUT = datasets.generate_holdout(size=40, num_features=2, num_classes=2, separation=6.0, seed=5)


def make_world(security=True, encrypt=False, num_clients=3):
    server = Server.create(ARCH, key_seed=7, key_bits=1024, security=security)
    clients = []
    for i in range(num_clients):
        client = ClientActor.create(
            f"client-{i}",
            SHARDS[i % len(SHARDS)],
            ARCH,
            TRAIN_CFG,
            key_seed=100 + i,
            key_bits=1024,
            encrypt=encrypt,
        )
        server.register(client)
        clients.append(client)
    return server, clients


def vector(*values):
    return ParameterVector(values=np.array(values, dtype=np.float64), layout=LAYOUT)


def scaled(update, factor):
    return ParameterVector(update.values * factor, update.layout)


def honest_message(client, server, round_no=0):
    return client_round(client, server.state.params, round_no)


def verify_with(server, msg, round_no=0, accepted=frozenset()):
    return server_verify(
        server.registry.get(msg.client_id),
        msg,
        layout=LAYOUT,
        session_key=server.session_keys.get(msg.client_id),
        current_round=round_no,
        accepted_pairs=accepted,
    )


# ---- registration ---- #


def test_register_rejects_duplicate_id():
    server, clients = make_world()
    with pytest.raises(DuplicateClientError):
        server.register(clients[0])


def test_failed_registration_changes_nothing():
    from dataclasses import replace as dc_replace

    server, _ = make_world()
    newcomer = ClientActor.create("client-3", SHARDS[0], ARCH, TRAIN_CFG, key_seed=103, key_bits=1024)
    before = (dict(server.registry), dict(server.session_keys))
    broken = dc_replace(newcomer, dh_public=1)  # outside the accepted [2, p-2]
    with pytest.raises(ValueError):
        server.register(broken)
    assert (server.registry, server.session_keys) == before
    assert broken.session_key is None
    # the server's own value out of range fails the client half, on a copy
    # and on the server itself; the range check reads the current dh_public
    misconfigured = dc_replace(server, dh_public=1)
    with pytest.raises(ValueError):
        misconfigured.register(newcomer)
    assert (misconfigured.registry, misconfigured.session_keys) == before
    assert newcomer.session_key is None
    server.dh_public, kept = 1, server.dh_public
    with pytest.raises(ValueError):
        server.register(newcomer)
    assert (server.registry, server.session_keys) == before
    assert newcomer.session_key is None
    server.dh_public = kept
    server.register(newcomer)
    assert server.registry["client-3"] == newcomer.sig_pair.public
    assert newcomer.session_key == server.session_keys["client-3"]


def test_registry_is_a_dict_of_entries():
    server, clients = make_world()
    assert list(server.registry) == [c.client_id for c in clients]
    assert server.registry["client-1"] == clients[1].sig_pair.public
    assert server.registry.get("missing") is None
    nameless = ClientActor.create("", SHARDS[0], ARCH, TRAIN_CFG, key_seed=50, key_bits=1024)
    with pytest.raises(ValueError):
        server.register(nameless)
    assert len(server.registry) == len(server.session_keys) == 3


def test_session_keys_agree_across_both_sides():
    server, clients = make_world()
    for client in clients:
        assert client.session_key == server.session_keys[client.client_id]
        assert len(client.session_key) == crypto.KEY_LEN


# ---- signed update construction and wire form ---- #


def test_digest_covers_canonical_encoding():
    server, clients = make_world()
    msg = honest_message(clients[0], server)
    blob = crypto.canonical_encode(msg.update.values, msg.round, msg.client_id, msg.data_size)
    assert msg.digest == hashlib.sha256(blob).digest()
    assert crypto.verify(msg.digest, msg.signature, clients[0].sig_pair.public)


def test_wire_round_trip_plaintext():
    server, clients = make_world()
    msg = honest_message(clients[0], server)
    back = SignedUpdate.from_wire_bytes(msg.to_wire_bytes(), LAYOUT)
    assert back.client_id == msg.client_id
    assert back.round == msg.round
    assert back.data_size == msg.data_size
    assert np.array_equal(back.update.values, msg.update.values)
    assert back.digest == msg.digest
    assert back.signature == msg.signature
    assert back.attestation == msg.attestation


def test_wire_round_trip_sealed():
    server, clients = make_world(encrypt=True)
    msg = honest_message(clients[0], server)
    assert isinstance(msg.update, crypto.CipherEnvelope)
    back = SignedUpdate.from_wire_bytes(msg.to_wire_bytes(), LAYOUT)
    assert back.update == msg.update
    reason, update = verify_with(server, back)
    assert reason == reporting.REASON_OK and update is not None


@pytest.mark.parametrize(
    "mangle",
    [
        lambda b: b + b"\x00",  # trailing byte
        lambda b: b[:-1],  # truncation
        lambda b: b"\x02" + b[1:],  # unknown version
    ],
)
def test_wire_rejects_structural_damage(mangle):
    server, clients = make_world()
    blob = honest_message(clients[0], server).to_wire_bytes()
    with pytest.raises(WireFormatError):
        SignedUpdate.from_wire_bytes(mangle(blob), LAYOUT)


def test_wire_rejects_unknown_payload_flag():
    server, clients = make_world()
    msg = honest_message(clients[0], server)
    blob = msg.to_wire_bytes()
    # flag sits after version, framed id, round, and data size
    offset = 1 + 2 + len(msg.client_id.encode()) + 4 + 8
    assert blob[offset] == 0x00
    damaged = blob[:offset] + b"\x07" + blob[offset + 1 :]
    with pytest.raises(WireFormatError):
        SignedUpdate.from_wire_bytes(damaged, LAYOUT)


def test_wire_rejects_wrong_parameter_count():
    server, clients = make_world()
    msg = honest_message(clients[0], server)
    other_layout = ParameterLayout((("w", (3,)),))
    with pytest.raises(WireFormatError):
        SignedUpdate.from_wire_bytes(msg.to_wire_bytes(), other_layout)


# ---- client round behaviour ---- #


def test_client_trace_matches_client_graph():
    server, clients = make_world()
    msg = honest_message(clients[0], server)
    labels = [e.checkpoint.label for e in msg.attestation.entries]
    assert labels == [
        CheckpointLabel.ROUND_START,
        CheckpointLabel.TRAIN_BEGIN,
        CheckpointLabel.TRAIN_END,
        CheckpointLabel.UPDATE_HASHED,
        CheckpointLabel.UPDATE_SIGNED,
        CheckpointLabel.UPDATE_SENT,
        CheckpointLabel.ROUND_END,
    ]
    reason, _ = verify_with(server, msg)
    assert reason == reporting.REASON_OK


def test_compromised_client_trace_shows_training_reentry():
    server, clients = make_world()
    clients[0].compromise = lambda update, round_no: scaled(update, -10.0)
    msg = honest_message(clients[0], server)
    labels = [e.checkpoint.label for e in msg.attestation.entries]
    # the rewrite pass appears as a second TRAIN_BEGIN/TRAIN_END pair
    assert labels[2:5] == [
        CheckpointLabel.TRAIN_END,
        CheckpointLabel.TRAIN_BEGIN,
        CheckpointLabel.TRAIN_END,
    ]
    # the bytes it sends are still correctly hashed and signed
    blob = crypto.canonical_encode(msg.update.values, msg.round, msg.client_id, msg.data_size)
    assert msg.digest == hashlib.sha256(blob).digest()
    reason, _ = verify_with(server, msg)
    assert reason == reporting.REASON_CFA_HALT


def test_client_round_is_deterministic():
    _, clients_a = make_world()
    server_b, clients_b = make_world()
    msg_a = client_round(clients_a[0], ARCH.params, 0)
    msg_b = client_round(clients_b[0], server_b.state.params, 0)
    assert msg_a.to_wire_bytes() == msg_b.to_wire_bytes()


def test_dropout_keeps_partial_log():
    server, clients = make_world()
    diverging = ClientActor.create(
        "diverges",
        SHARDS[0],
        ARCH,
        TrainingConfig(learning_rate=1e308, epochs=2, batch_size="full", seed=0),
        key_seed=900,
        key_bits=1024,
    )
    assert client_round(diverging, ARCH.params, 0) is None
    labels = [e.checkpoint.label for e in diverging.last_log]
    assert labels == [CheckpointLabel.ROUND_START, CheckpointLabel.TRAIN_BEGIN]
    # the partial trace is provably incomplete: it never reaches the end label
    assert labels[-1] != CheckpointLabel.ROUND_END


# ---- verification verdicts, one per reason ---- #


def test_verify_accepts_honest_message():
    server, clients = make_world()
    reason, update = verify_with(server, honest_message(clients[0], server))
    assert reason == reporting.REASON_OK
    assert update is not None


def test_verify_unknown_identity():
    server, _ = make_world()
    outsider = ClientActor.create(
        "outsider",
        SHARDS[0],
        ARCH,
        TRAIN_CFG,
        key_seed=901,
        key_bits=1024,
    )
    msg = client_round(outsider, server.state.params, 0)
    assert verify_with(server, msg) == (reporting.REASON_UNKNOWN_IDENTITY, None)


def test_verify_digest_mismatch():
    from dataclasses import replace as dc_replace

    server, clients = make_world()
    msg = honest_message(clients[0], server)
    altered = dc_replace(msg, update=scaled(msg.update, 2.0))
    reason, _ = verify_with(server, altered)
    assert reason == reporting.REASON_DIGEST_MISMATCH


def test_verify_bad_signature():
    from dataclasses import replace as dc_replace

    server, clients = make_world()
    msg = honest_message(clients[0], server)
    wrong_key = crypto.keygen_signature(key_bits=1024, seed=902)
    forged = dc_replace(msg, signature=crypto.sign(msg.digest, wrong_key.private))
    reason, _ = verify_with(server, forged)
    assert reason == reporting.REASON_BAD_SIGNATURE


def test_verify_stale_round_is_replay():
    server, clients = make_world()
    msg = honest_message(clients[0], server, round_no=0)
    reason, _ = verify_with(server, msg, round_no=3)
    assert reason == reporting.REASON_REPLAYED_ROUND


def test_verify_duplicate_within_round_is_replay():
    server, clients = make_world()
    msg = honest_message(clients[0], server)
    reason, _ = verify_with(server, msg, accepted={(msg.client_id, 0)})
    assert reason == reporting.REASON_REPLAYED_ROUND


def test_verify_rejects_trace_borrowed_from_other_actor():
    from dataclasses import replace as dc_replace

    server, clients = make_world()
    msg0 = honest_message(clients[0], server)
    msg1 = honest_message(clients[1], server)
    # client-1 presents client-0's perfectly legal trace as its own
    hijacked = dc_replace(msg1, attestation=msg0.attestation)
    reason, _ = verify_with(server, hijacked)
    assert reason == reporting.REASON_CFA_HALT


def test_verify_rejects_own_trace_from_another_round():
    from dataclasses import replace as dc_replace

    server, clients = make_world()
    earlier = honest_message(clients[0], server, round_no=0)
    msg = honest_message(clients[0], server, round_no=1)
    # the sender's own signed trace, but of the round before
    reason, _ = verify_with(server, dc_replace(msg, attestation=earlier.attestation), round_no=1)
    assert reason == reporting.REASON_CFA_HALT


def test_verify_rejects_truncated_trace():
    from dataclasses import replace as dc_replace

    server, clients = make_world()
    msg = honest_message(clients[0], server)
    cut = msg.attestation.entries[:-1]
    report = finalize_report(cut, clients[0].sig_pair.private)
    reason, _ = verify_with(server, dc_replace(msg, attestation=report))
    assert reason == reporting.REASON_CFA_HALT


def test_verify_decrypt_failure_on_corrupted_envelope():
    from dataclasses import replace as dc_replace

    server, clients = make_world(encrypt=True)
    msg = honest_message(clients[0], server)
    env = msg.update
    bad_ct = bytes([env.ciphertext[0] ^ 0x01]) + env.ciphertext[1:]
    broken = dc_replace(msg, update=crypto.CipherEnvelope(env.nonce, bad_ct, env.tag))
    reason, _ = verify_with(server, broken)
    assert reason == reporting.REASON_DECRYPT_FAILURE


def test_verify_sealed_message_without_session_key():
    server, clients = make_world(encrypt=True)
    msg = honest_message(clients[0], server)
    reason, _ = server_verify(
        server.registry.get(msg.client_id),
        msg,
        layout=LAYOUT,
        session_key=None,
        current_round=0,
        accepted_pairs=frozenset(),
    )
    assert reason == reporting.REASON_DECRYPT_FAILURE


@pytest.mark.parametrize("encrypt", [False, True], ids=["plaintext", "sealed"])
def test_identity_check_precedes_payload_checks(encrypt):
    from dataclasses import replace as dc_replace

    server, clients = make_world(encrypt=encrypt)
    msg = honest_message(clients[0], server)
    # a name the server does not know, on a broken digest and, when sealed,
    # with no key to open it: the unknown sender is reported first
    mangled = dc_replace(msg, client_id="outsider", digest=bytes(32))
    assert verify_with(server, mangled) == (reporting.REASON_UNKNOWN_IDENTITY, None)


def test_freshness_check_precedes_attestation():
    from dataclasses import replace as dc_replace

    server, clients = make_world()
    msg = honest_message(clients[0], server)
    cut = msg.attestation.entries[:-1]
    stale_and_broken = dc_replace(msg, attestation=finalize_report(cut, clients[0].sig_pair.private))
    reason, _ = verify_with(server, stale_and_broken, round_no=2)
    assert reason == reporting.REASON_REPLAYED_ROUND


# ---- aggregation ---- #


def test_aggregate_hand_example():
    # weights 10 and 30: (10*[1,1,1,1,1,1] + 30*[-1,3,...]) / 40
    a = vector(1.0, 1.0, 1.0, 1.0, 1.0, 1.0)
    b = vector(-1.0, 3.0, -1.0, 3.0, -1.0, 3.0)
    out = aggregate([("a", 10, a), ("b", 30, b)])
    expected = np.array([-0.5, 2.5, -0.5, 2.5, -0.5, 2.5])
    assert np.all(np.abs(out.values - expected) <= 1e-15)


def test_aggregate_single_update_is_bitwise_identical():
    a = vector(0.1, -0.2, 0.3, 10.4, -5.0, 2.0**-40)
    out = aggregate([("solo", 17, a)])
    assert out.values.tobytes() == a.values.tobytes()


def test_aggregate_empty_is_none():
    assert aggregate([]) is None


def test_aggregate_is_order_independent():
    rng = np.random.default_rng(3)
    items = [(f"c{i}", int(rng.integers(1, 50)), vector(*rng.normal(size=6))) for i in range(5)]
    forward = aggregate(items)
    backward = aggregate(list(reversed(items)))
    assert forward.values.tobytes() == backward.values.tobytes()


def test_aggregate_folds_equal_ids_in_arrival_order():
    # a security-off replay delivers one client id more than once; the float
    # sum of 1e16, -1e16 and 1 keeps the 1 only when it comes last
    items = [("c", 1, vector(x, 0, 0, 0, 0, 0)) for x in (1e16, -1e16, 1.0)]
    acc = np.zeros(6)
    for _, _, update in items:
        acc += (1.0 / 3.0) * update.values
    assert aggregate(items).values.tobytes() == acc.tobytes()
    assert aggregate(items[::-1]).values[0] != acc[0]


def test_aggregate_rejects_zero_total_weight():
    with pytest.raises(AggregationError):
        aggregate([("a", 0, vector(1, 1, 1, 1, 1, 1)), ("b", 0, vector(2, 2, 2, 2, 2, 2))])


def test_aggregate_rejects_mixed_layouts():
    other = ParameterLayout((("w", (6,)),))
    b = ParameterVector(values=np.ones(6), layout=other)
    with pytest.raises(AggregationError):
        aggregate([("a", 1, vector(1, 1, 1, 1, 1, 1)), ("b", 1, b)])


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_aggregate_matches_direct_weighted_average(data):
    n = data.draw(st.integers(min_value=1, max_value=8))
    sizes = data.draw(
        st.lists(st.integers(min_value=1, max_value=10_000), min_size=n, max_size=n)
    )
    finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
    rows = [
        np.array(data.draw(st.lists(finite, min_size=6, max_size=6)), dtype=np.float64)
        for _ in range(n)
    ]
    items = [(f"c{i}", sizes[i], ParameterVector(values=rows[i], layout=LAYOUT)) for i in range(n)]
    out = aggregate(items)
    oracle = np.average(np.stack(rows), axis=0, weights=np.array(sizes, dtype=np.float64))
    assert np.allclose(out.values, oracle, rtol=1e-12, atol=1e-12)


# ---- global state ---- #


def test_apply_global_adds_and_records_history():
    state = GlobalModelState(round=0, params=ParameterVector.zeros(LAYOUT))
    delta = vector(1.0, -1.0, 0.5, 0.0, 2.0, -0.25)
    new = apply_global(state, delta)
    assert new.round == 1
    assert np.array_equal(new.params.values, delta.values)
    expected_digest = hashlib.sha256(crypto.encode_param_values(delta.values)).digest()
    assert new.history == (expected_digest,)
    assert state.round == 0  # original untouched


def test_apply_global_rejects_overflowing_delta():
    state = GlobalModelState(round=0, params=vector(1e308, 0, 0, 0, 0, 0))
    with pytest.raises(ProtocolError):
        apply_global(state, vector(1e308, 0, 0, 0, 0, 0))


def test_advance_round_keeps_params():
    state = GlobalModelState(round=4, params=vector(1, 2, 3, 4, 5, 6), history=(b"x" * 32,))
    new = advance_round(state)
    assert new.round == 5
    assert new.params is state.params
    assert new.history == state.history


# ---- full round orchestration ---- #


def test_honest_round_metrics_and_conservation():
    server, clients = make_world()
    individual = {}
    for client in clients:
        msg = client_round(client, server.state.params, 0)
        individual[client.client_id] = (msg.data_size, msg.update)
    report = run_round(server, clients, eval_data=HOLDOUT)

    assert report.round == 1
    assert report.verification_rate == 100.0
    assert report.authentication_rate == 100.0
    assert report.non_repudiation_incidents == 0
    assert report.accepted_count == len(clients)
    # the applied delta is exactly the weighted mean of what clients sent
    expected = aggregate([(cid, size, upd) for cid, (size, upd) in sorted(individual.items())])
    assert np.array_equal(server.state.params.values, expected.values)


def test_round_report_round_trips_through_audit_log():
    server, clients = make_world()
    report = run_round(server, clients, eval_data=HOLDOUT)
    records = [o.audit for o in report.outcomes if o.accepted]
    assert len(records) == len(clients)
    for record in records:
        assert reporting.replay_audit_record(record)


def test_security_off_accepts_everything_opened():
    server, clients = make_world(security=False)
    clients[0].compromise = lambda update, round_no: scaled(update, -10.0)
    report = run_round(server, clients, eval_data=HOLDOUT)
    assert report.accepted_count == 3
    assert all(o.reason == reporting.REASON_OK for o in report.outcomes)


def test_security_on_drops_compromised_update():
    server, clients = make_world()
    clients[0].compromise = lambda update, round_no: scaled(update, -10.0)
    report = run_round(server, clients, eval_data=HOLDOUT)
    assert report.accepted_count == 2
    reasons = {o.client_id: o.reason for o in report.outcomes}
    assert reasons["client-0"] == reporting.REASON_CFA_HALT
    # the compromised sender is not in the honest denominator
    assert report.verification_rate == 100.0


def test_round_with_no_deliveries_is_flagged_degenerate():
    server, _ = make_world()
    before = server.state.params
    report = run_round(server, [], eval_data=HOLDOUT)
    assert report.round == 1
    assert report.accepted_count == 0
    assert report.verification_rate is None
    assert report.authentication_rate is None
    assert server.state.params is before


def test_empty_round_self_verifies_server_trace(monkeypatch):
    server, _ = make_world()
    checks = []

    def spy(graph, report, public, actor, round_no):
        verdict = verify_trace(graph, report, public, actor, round_no)
        checks.append((graph, [e.checkpoint.label for e in report.entries], public, actor, round_no, verdict.ok))
        return verdict

    monkeypatch.setattr(protocol, "verify_trace", spy)
    run_round(server, [], eval_data=HOLDOUT)
    labels = [
        CheckpointLabel.ROUND_START,
        CheckpointLabel.SERVER_VERIFIED,
        CheckpointLabel.AGGREGATED,
        CheckpointLabel.GLOBAL_APPLIED,
        CheckpointLabel.ROUND_END,
    ]
    assert checks == [(DEFAULT_SERVER_GRAPH, labels, server.sig_pair.public, protocol.SERVER_ID, 0, True)]


def test_encrypted_round_matches_plaintext_round_accuracy():
    server_a, clients_a = make_world(encrypt=False)
    server_b, clients_b = make_world(encrypt=True)
    rep_a = run_round(server_a, clients_a, eval_data=HOLDOUT)
    rep_b = run_round(server_b, clients_b, eval_data=HOLDOUT)
    assert server_a.state.params.values.tobytes() == server_b.state.params.values.tobytes()
    assert rep_a.accuracy == rep_b.accuracy


def test_malformed_bytes_are_reported_not_crashed():
    server, clients = make_world()

    class Garbage:
        def transform(self, deliveries, round_no, params):
            return deliveries + [Delivery(payload=b"\xff\x00junk", source="noise", honest=False)]

    report = run_round(server, clients, plan=Garbage(), eval_data=HOLDOUT)
    reasons = [o.reason for o in report.outcomes]
    assert reasons.count(reporting.REASON_MALFORMED) == 1
    assert report.accepted_count == 3


def test_two_worlds_same_seeds_run_identically():
    server_a, clients_a = make_world()
    server_b, clients_b = make_world()
    for _ in range(2):
        rep_a = run_round(server_a, clients_a, eval_data=HOLDOUT)
        rep_b = run_round(server_b, clients_b, eval_data=HOLDOUT)
        assert rep_a.accuracy == rep_b.accuracy
    assert server_a.state.params.values.tobytes() == server_b.state.params.values.tobytes()
    assert server_a.state.history == server_b.state.history


# ---- intake robustness: non-finite sealed payloads, aborted rounds ---- #


def sealed_nan_message(client, server, round_no=0):
    """A correctly signed and sealed message whose parameters are all NaN."""
    honest = honest_message(client, server, round_no)
    blob = crypto.canonical_encode(np.full(LAYOUT.size, np.nan), round_no, client.client_id, client.data.size)
    digest = crypto.sha256(blob)
    nonce = crypto.derive_nonce(client.client_id, round_no)
    return SignedUpdate(
        client_id=client.client_id,
        round=round_no,
        data_size=client.data.size,
        update=crypto.encrypt(client.session_key, nonce, blob),
        digest=digest,
        signature=crypto.sign(digest, client.sig_pair.private),
        attestation=honest.attestation,
    )


@pytest.mark.parametrize("security", [True, False])
def test_sealed_non_finite_payload_is_decrypt_failure(security):
    server, clients = make_world(security=security, encrypt=True)
    forged = sealed_nan_message(clients[0], server)
    assert verify_with(server, forged) == (reporting.REASON_DECRYPT_FAILURE, None)

    class SwapIn:
        def transform(self, deliveries, round_no, params):
            return [Delivery(payload=forged, source="client-0", honest=False)] + deliveries[1:]

    report = run_round(server, clients, plan=SwapIn(), eval_data=HOLDOUT)
    assert [o.reason for o in report.outcomes] == [reporting.REASON_DECRYPT_FAILURE] + [reporting.REASON_OK] * 2
    assert report.accepted_count == 2


def test_aborted_round_leaves_server_unchanged():
    from copy import copy
    from dataclasses import replace as dc_replace

    server, clients = make_world(security=False)
    huge = dc_replace(honest_message(clients[0], server), update=vector(1e308, 0, 0, 0, 0, 0))

    class Overflow:
        # a lone 1e308 update is applied in round 0; the second overflows
        def transform(self, deliveries, round_no, params):
            return [Delivery(payload=dc_replace(huge, round=round_no), source="client-0", honest=False)]

    first = run_round(server, clients, plan=Overflow(), eval_data=HOLDOUT)
    assert [o.audit is not None for o in first.outcomes] == [True]
    state = server.state
    before = {name: copy(value) for name, value in vars(server).items()}
    with pytest.raises(ProtocolError):
        run_round(server, clients, plan=Overflow(), eval_data=HOLDOUT)
    assert server.state is state
    assert vars(server) == before


def test_only_history_grows():
    server, clients = make_world()

    def sizes():
        return {name: len(value) for name, value in vars(server).items() if hasattr(value, "__len__")}

    run_round(server, clients, eval_data=HOLDOUT)
    first = sizes()
    for _ in range(3):
        run_round(server, clients, eval_data=HOLDOUT)
    grown = {name for name, size in sizes().items() if size != first[name]}
    assert grown == set()
    assert len(server.state.history) == 4


def test_server_memory_does_not_grow_with_rounds():
    import gc
    import tracemalloc

    def settled():
        gc.collect()
        return tracemalloc.get_traced_memory()[0]

    server, clients = make_world()
    for _ in range(5):
        run_round(server, clients, eval_data=HOLDOUT)
    tracemalloc.start()
    try:
        before = settled()
        for _ in range(40):
            run_round(server, clients, eval_data=HOLDOUT)  # each report is dropped
        after = settled()
    finally:
        tracemalloc.stop()
    # about 9 KB: 40 history digests and per-round state that replaced state
    # allocated before tracing began; 120 kept audit records took about 75 KB
    assert after - before < 16 * 1024
