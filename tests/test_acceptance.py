"""Acceptance gate: eleven end-to-end criteria, one test each.

Every test prints a single PASS/FAIL line (run with -s to stream them) and
pins its own tolerances and time bounds.  Shared setup is kept in module
fixtures so the whole gate stays fast; 1024-bit keys are used throughout,
which the key generator documents as its test size.
"""

from __future__ import annotations

import time
from dataclasses import replace as dc_replace

import numpy as np
import pytest

from attestfl import adversary, crypto, datasets, harness, models, reporting
from attestfl.attestation import (
    Checkpoint,
    CheckpointLabel,
    DEFAULT_CLIENT_GRAPH,
    LogEntry,
    finalize_report,
    record_checkpoint,
    verify_trace,
)
from attestfl.models import TrainingConfig
from attestfl.params import ParameterVector
from attestfl.protocol import (
    ClientActor,
    Server,
    SignedUpdate,
    WireFormatError,
    aggregate,
    client_round,
    run_round,
    server_verify,
)

FAST_KEYS = "crypto.key_bits = 1024\n"


def _verdict(num: int, ok: bool, detail: str) -> bool:
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


# --------------------------------------------------------------------------- #
# shared honest run (criteria 1 and 2)
# --------------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def honest_run():
    cfg = harness.parse_config("rounds = 5\nclients = 4\nseed = 2\n" + FAST_KEYS)
    sim = harness.build_simulation(cfg)
    started = time.perf_counter()
    reports = list(harness.run_rounds(sim))
    elapsed = time.perf_counter() - started
    return sim, reports, elapsed


def test_c01_honest_run_has_exact_rates_within_time(honest_run):
    _, reports, elapsed = honest_run
    rates_exact = all(
        r.verification_rate == 100.0 and r.authentication_rate == 100.0 for r in reports
    )
    ok = len(reports) == 5 and rates_exact and elapsed < 10.0
    assert _verdict(
        1, ok, f"5 honest rounds, rates all exactly 100/100, {elapsed:.2f}s (< 10s)"
    )


def test_c02_audit_log_supports_off_line_replay(honest_run):
    sim, reports, _ = honest_run
    incidents = sum(r.non_repudiation_incidents for r in reports)
    records = [o.audit for r in reports for o in r.outcomes if o.accepted]
    replayable = all(rec is not None and reporting.replay_audit_record(rec) for rec in records)
    ok = incidents == 0 and len(records) == 20 and replayable
    assert _verdict(
        2, ok, f"0 incidents; all {len(records)} audit records re-verify from stored material alone"
    )


# --------------------------------------------------------------------------- #
# integrity under exhaustive single-bit corruption
# --------------------------------------------------------------------------- #


def test_c03_every_single_bit_flip_is_rejected():
    arch = models.logistic_regression(9, 2)  # 9*2 weights + 2 biases = 20 parameters
    assert arch.params.layout.size == 20
    shard = datasets.generate_synthetic(
        num_clients=1, per_client=30, num_features=9, num_classes=2, separation=6.0, seed=3
    )[0]
    server = Server.create(arch, key_seed=7, key_bits=1024)
    client = ClientActor.create(
        "client-0", shard, arch,
        TrainingConfig(learning_rate=0.1, epochs=1, batch_size="full", seed=0),
        key_seed=100, key_bits=1024,
    )
    server.register(client)
    blob = client_round(client, server.state.params, 0).to_wire_bytes()

    started = time.perf_counter()
    accepted = []
    for bit in range(8 * len(blob)):
        mutated = adversary.tamper_bytes(blob, bit)
        try:
            parsed = SignedUpdate.from_wire_bytes(mutated, arch.params.layout)
        except WireFormatError:
            continue
        reason, update = server_verify(
            server.registry.get(parsed.client_id), parsed,
            layout=arch.params.layout,
            session_key=server.session_keys.get(parsed.client_id),
            current_round=0, accepted_pairs=set(),
        )
        if reason == reporting.REASON_OK:
            accepted.append((parsed.client_id, 0, update))
    elapsed = time.perf_counter() - started

    ok = not accepted and aggregate(accepted) is None and elapsed < 60.0
    assert _verdict(
        3, ok,
        f"{8 * len(blob)} single-bit flips over a 20-parameter message, "
        f"{len(accepted)} accepted, nothing aggregated, {elapsed:.1f}s (< 60s)",
    )


# --------------------------------------------------------------------------- #
# identity and freshness attacks
# --------------------------------------------------------------------------- #


def test_c04_sybils_are_rejected_by_exact_count():
    cfg = harness.parse_config(
        "rounds = 3\nclients = 4\nseed = 4\nattack.kind = sybil\nattack.fraction = 0.75\n" + FAST_KEYS
    )
    sim = harness.build_simulation(cfg)
    assert len(sim.plan.sybils) == 3
    ok = True
    for report in harness.run_rounds(sim):
        unknown = sum(1 for o in report.outcomes if o.reason == reporting.REASON_UNKNOWN_IDENTITY)
        ok = ok and unknown == 3 and report.accepted_count == 4
    assert _verdict(
        4, ok, "3 forged identities + 4 registered clients: exactly 3 unknown-identity and 4 accepted per round"
    )


def test_c05_replayed_messages_never_reach_aggregation():
    cfg = harness.parse_config("rounds = 5\nclients = 4\nseed = 5\n" + FAST_KEYS)
    sim = harness.build_simulation(cfg)
    sim.plan = adversary.AttackPlan(kind="replay", seed=5, replays_per_round=25)
    replayed_total = 0
    replayed_accepted = 0
    honest_accept_ok = True
    for report in harness.run_rounds(sim):
        injected = [o for o in report.outcomes if not o.honest]
        replayed_total += len(injected)
        replayed_accepted += sum(1 for o in injected if o.accepted)
        honest_accept_ok = honest_accept_ok and report.accepted_count == 4
    ok = replayed_total == 100 and replayed_accepted == 0 and honest_accept_ok
    assert _verdict(
        5, ok, f"{replayed_total} randomized replays delivered, {replayed_accepted} accepted"
    )


# --------------------------------------------------------------------------- #
# poisoning outcome ordering
# --------------------------------------------------------------------------- #


def test_c06_verification_preserves_accuracy_under_insider_poison():
    base = (
        "clients = 4\nrounds = 10\ndata.separation = 6.0\n"
        "attack.fraction = 0.25\nattack.strength = -10\n" + FAST_KEYS
    )
    runs = (
        ("clean", "attack.kind = none\nsecurity = on"),
        ("guarded", "attack.kind = model-poison\nsecurity = on"),
        ("unguarded", "attack.kind = model-poison\nsecurity = off"),
    )
    started = time.perf_counter()
    ok = True
    margins = []
    for seed in (2, 3, 4, 5, 6):
        acc = {}
        for label, extra in runs:
            cfg = harness.parse_config(base + f"seed = {seed}\n" + extra)
            acc[label] = harness.run_experiment(harness.build_simulation(cfg)).final_accuracy
        seed_ok = (
            acc["clean"] - acc["guarded"] <= 0.05
            and acc["guarded"] >= acc["unguarded"]
            and acc["clean"] - acc["unguarded"] >= 0.05
        )
        ok = ok and seed_ok
        margins.append(acc["clean"] - acc["unguarded"])
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 120.0
    assert _verdict(
        6, ok,
        "5 seeds x (clean, guarded, unguarded): guarded within 0.05 of clean, "
        f"unguarded at least 0.05 below (min poison damage {min(margins):.3f}), {elapsed:.1f}s (< 120s)",
    )


# --------------------------------------------------------------------------- #
# numeric ground truth
# --------------------------------------------------------------------------- #


def _fd_gradient(model, data, step=1e-5):
    """Central finite differences, computed without touching the backprop path."""
    base = model.params.values
    out = np.zeros_like(base)
    for i in range(base.size):
        plus = base.copy()
        plus[i] += step
        minus = base.copy()
        minus[i] -= step
        lo = models.loss(model.with_params(ParameterVector(values=minus, layout=model.params.layout)), data)
        hi = models.loss(model.with_params(ParameterVector(values=plus, layout=model.params.layout)), data)
        out[i] = (hi - lo) / (2 * step)
    return out


def test_c07_gradients_match_finite_differences():
    rng = np.random.default_rng(7)
    worst = 0.0
    for case in range(20):
        features = int(rng.integers(1, 6))
        classes = int(rng.integers(2, 5))
        samples = int(rng.integers(3, 13))
        kind = case % 3
        if kind == 0:
            model = models.logistic_regression(features, classes)
        else:
            model = models.mlp(
                features, classes, int(rng.integers(2, 7)),
                activation="tanh" if kind == 1 else "relu", seed=int(rng.integers(1000)),
            )
        params = ParameterVector(
            values=rng.normal(scale=0.7, size=model.params.layout.size), layout=model.params.layout
        )
        model = model.with_params(params)
        data = datasets.Dataset(
            features=rng.normal(size=(samples, features)),
            labels=rng.integers(0, classes, size=samples),
            num_classes=classes,
        )
        analytic = models.gradient(model, data).values
        numeric = _fd_gradient(model, data)
        denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-6)
        worst = max(worst, float(np.max(np.abs(analytic - numeric) / denom)))
    ok = worst < 1e-4
    assert _verdict(7, ok, f"20 random models: max gradient relative error {worst:.2e} (< 1e-4)")


def test_c08_aggregation_matches_independent_oracle():
    layout = models.logreg_layout(2, 2)

    a = ParameterVector(values=np.array([1.0, 1.0, 1.0, 1.0, 1.0, 1.0]), layout=layout)
    b = ParameterVector(values=np.array([-1.0, 3.0, -1.0, 3.0, -1.0, 3.0]), layout=layout)
    hand = aggregate([("a", 10, a), ("b", 30, b)])
    hand_expected = np.array([-0.5, 2.5, -0.5, 2.5, -0.5, 2.5])
    hand_ok = bool(np.all(np.abs(hand.values - hand_expected) <= 1e-15))

    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 9))
        sizes = rng.integers(1, 10_000, size=n)
        rows = rng.uniform(-1e6, 1e6, size=(n, layout.size))
        items = [
            (f"c{i}", int(sizes[i]), ParameterVector(values=rows[i], layout=layout))
            for i in range(n)
        ]
        got = aggregate(items).values
        oracle = np.average(rows, axis=0, weights=sizes.astype(np.float64))
        scale = np.maximum(np.abs(oracle), 1.0)
        worst = max(worst, float(np.max(np.abs(got - oracle) / scale)))
    ok = hand_ok and worst < 1e-12
    assert _verdict(
        8, ok,
        f"hand-worked weighted mean exact to 1e-15; 50 random cases vs numpy oracle, worst {worst:.2e} (< 1e-12)",
    )


def test_c09_crypto_spot_suite():
    sha_ok = (
        crypto.sha256(b"").hex()
        == "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        and crypto.sha256(b"abc").hex()
        == "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    )

    a, pub_a = crypto.dh_keygen(seed=6)
    b, pub_b = crypto.dh_keygen(seed=15)
    shared = crypto.dh_shared(a, pub_b)
    dh_ok = shared == crypto.dh_shared(b, pub_a) == pow(crypto.DH_GENERATOR, a * b, crypto.DH_PRIME)

    rng = np.random.default_rng(9)
    cipher_ok = True
    for _ in range(1000):
        key = rng.bytes(32)
        nonce = rng.bytes(16)
        plaintext = rng.bytes(int(rng.integers(0, 129)))
        envelope = crypto.encrypt(key, nonce, plaintext)
        cipher_ok = cipher_ok and crypto.decrypt(key, envelope) == plaintext

    key = rng.bytes(32)
    envelope = crypto.encrypt(key, rng.bytes(16), rng.bytes(64))
    corruption_rejections = 0
    total_bits = 8 * len(envelope.ciphertext)
    for bit in range(total_bits):
        damaged = crypto.CipherEnvelope(
            nonce=envelope.nonce,
            ciphertext=adversary.tamper_bytes(envelope.ciphertext, bit),
            tag=envelope.tag,
        )
        try:
            crypto.decrypt(key, damaged)
        except crypto.IntegrityError:
            corruption_rejections += 1
    ok = sha_ok and dh_ok and cipher_ok and corruption_rejections == total_bits
    assert _verdict(
        9, ok,
        "hash test vectors, key-exchange worked example, 1000 seal/open round trips, "
        f"{corruption_rejections}/{total_bits} ciphertext bit flips rejected",
    )


# --------------------------------------------------------------------------- #
# attested trace mutation sweep
# --------------------------------------------------------------------------- #


def _honest_trace(pair):
    log = []
    for label in (
        CheckpointLabel.ROUND_START,
        CheckpointLabel.TRAIN_BEGIN,
        CheckpointLabel.TRAIN_END,
        CheckpointLabel.UPDATE_HASHED,
        CheckpointLabel.UPDATE_SIGNED,
        CheckpointLabel.UPDATE_SENT,
        CheckpointLabel.ROUND_END,
    ):
        record_checkpoint(log, Checkpoint(label=label, actor="client-0", round=0))
    return finalize_report(log, pair.private)


def _rebuild_chain(checkpoints):
    log = []
    for cp in checkpoints:
        record_checkpoint(log, cp)
    return log


def _mutate(report, rng):
    """One guaranteed-effect corruption; half the structural ones also
    recompute the hash chain (an attacker without the signing key)."""
    entries = list(report.entries)
    kind = rng.integers(0, 6)
    if kind == 0:  # delete an entry
        i = int(rng.integers(0, len(entries)))
        checkpoints = [e.checkpoint for j, e in enumerate(entries) if j != i]
        structural = True
    elif kind == 1:  # duplicate an entry
        i = int(rng.integers(0, len(entries)))
        checkpoints = [e.checkpoint for e in entries]
        checkpoints.insert(i, checkpoints[i])
        structural = True
    elif kind == 2:  # swap two adjacent (always distinct) checkpoints
        i = int(rng.integers(0, len(entries) - 1))
        checkpoints = [e.checkpoint for e in entries]
        checkpoints[i], checkpoints[i + 1] = checkpoints[i + 1], checkpoints[i]
        structural = True
    elif kind == 3:  # rewrite one checkpoint's label to a different one
        i = int(rng.integers(0, len(entries)))
        old = entries[i].checkpoint
        others = [l for l in CheckpointLabel if l != old.label]
        new_cp = Checkpoint(label=others[int(rng.integers(0, len(others)))], actor=old.actor, round=old.round)
        checkpoints = [e.checkpoint for e in entries]
        checkpoints[i] = new_cp
        structural = True
    elif kind == 4:  # flip a bit inside a stored chain digest
        i = int(rng.integers(0, len(entries)))
        digest = adversary.tamper_bytes(entries[i].chain_digest, int(rng.integers(0, 256)))
        entries[i] = LogEntry(entries[i].checkpoint, digest)
        return dc_replace(report, entries=tuple(entries))
    else:  # flip a bit in the signature
        sig = adversary.tamper_bytes(report.signature, int(rng.integers(0, 8 * len(report.signature))))
        return dc_replace(report, signature=sig)

    if structural and rng.integers(0, 2) == 1:
        # stronger adversary: rebuild a consistent chain; the signature
        # over the old final digest is then the only thing left to catch it
        log = _rebuild_chain(checkpoints)
        return dc_replace(report, entries=tuple(log), final_digest=log[-1].chain_digest)
    # naive adversary: stored digests kept, chain replay catches it
    prior = {e.checkpoint: e.chain_digest for e in report.entries}
    fake_entries = tuple(LogEntry(cp, prior.get(cp, bytes(32))) for cp in checkpoints)
    return dc_replace(report, entries=fake_entries)


def test_c10_all_single_mutations_halt():
    pair = crypto.keygen_signature(key_bits=1024, seed=1010)
    report = _honest_trace(pair)
    honest_ok = verify_trace(DEFAULT_CLIENT_GRAPH, report, pair.public, "client-0", 0).ok

    rng = np.random.default_rng(10)
    halts = 0
    for _ in range(1000):
        mutated = _mutate(report, rng)
        outcome = verify_trace(DEFAULT_CLIENT_GRAPH, mutated, pair.public, "client-0", 0)
        if not outcome.ok:
            halts += 1
    ok = honest_ok and halts == 1000
    assert _verdict(
        10, ok, f"honest trace verifies; {halts}/1000 single corruptions halt verification"
    )


# --------------------------------------------------------------------------- #
# scaling
# --------------------------------------------------------------------------- #


def test_c11_per_client_round_cost_is_flat(monkeypatch):
    # the work check: RSA operations per round, counted exactly
    calls = {"sign": 0, "verify": 0}

    def counted(name):
        real = getattr(crypto, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(crypto, name, counted(name))
    work = {}

    def per_client_seconds(n):
        cfg = harness.parse_config(
            f"clients = {n}\nrounds = 7\nseed = 9\ndata.per_client = 50\ntrain.epochs = 2\n" + FAST_KEYS
        )
        sim = harness.build_simulation(cfg)
        times, counts = [], set()
        for _ in range(cfg.rounds):
            before = dict(calls)
            t0 = time.perf_counter()
            report = run_round(sim.server, sim.clients, plan=sim.plan, eval_data=sim.holdout)
            times.append(time.perf_counter() - t0)
            assert report.accepted_count == n
            counts.add((calls["sign"] - before["sign"], calls["verify"] - before["verify"]))
        work[n] = counts
        return min(times) / n

    started = time.perf_counter()
    per = {n: per_client_seconds(n) for n in (10, 20, 40)}
    elapsed = time.perf_counter() - started
    ratio = per[40] / per[10]
    # signs: each client's update and report, and the server's report; verifies:
    # one inside each sign, each update, each client trace, each audit record
    # and the server's own trace
    exact = all(work[n] == {(2 * n + 1, 5 * n + 2)} for n in per)
    ok = ratio < 1.5 and elapsed < 180.0 and exact
    assert _verdict(
        11, ok,
        f"per-client round time at N=10/20/40: "
        f"{per[10]*1e3:.2f}/{per[20]*1e3:.2f}/{per[40]*1e3:.2f} ms, "
        f"ratio {ratio:.2f} (< 1.5), {elapsed:.1f}s (< 180s); "
        f"(signs, verifies) per round {[sorted(work[n]) for n in per]} (2N+1, 5N+2)",
    )
