"""Attestation layer tests.

The chain-rule expectations are recomputed here directly with hashlib and
hand-assembled checkpoint bytes.  Mutation tests cover both naive tampering
(stored digests kept) and a stronger adversary who recomputes the chain but
cannot re-sign it.
"""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from attestfl import crypto
from attestfl.attestation import (
    BAD_SIGNATURE,
    CHAIN_TAMPER,
    DEFAULT_CLIENT_GRAPH,
    DEFAULT_SERVER_GRAPH,
    ILLEGAL_TRANSITION,
    WRONG_ENDPOINTS,
    AttestationReport,
    Checkpoint,
    CheckpointLabel,
    LogEntry,
    finalize_report,
    record_checkpoint,
    verify_trace,
)

KEYS = crypto.keygen_signature(key_bits=1024, seed=1001)
OTHER_KEYS = crypto.keygen_signature(key_bits=1024, seed=1002)

CLIENT_PATH = [
    CheckpointLabel.ROUND_START,
    CheckpointLabel.TRAIN_BEGIN,
    CheckpointLabel.TRAIN_END,
    CheckpointLabel.UPDATE_HASHED,
    CheckpointLabel.UPDATE_SIGNED,
    CheckpointLabel.UPDATE_SENT,
    CheckpointLabel.ROUND_END,
]


def build_log(labels, actor="client-00", round_no=0) -> list[LogEntry]:
    log = []
    for label in labels:
        record_checkpoint(log, Checkpoint(label=label, actor=actor, round=round_no))
    return log


def build_report(labels, keys=KEYS, actor="client-00", round_no=0) -> AttestationReport:
    return finalize_report(build_log(labels, actor, round_no), keys.private)


# --------------------------------------------------------------------------- #
# expected control flow
# --------------------------------------------------------------------------- #


def test_cfa_check_edges():
    # the control-flow check is edge membership in the fixed client graph
    g = DEFAULT_CLIENT_GRAPH
    assert g == frozenset(zip(CLIENT_PATH, CLIENT_PATH[1:]))
    assert (CheckpointLabel.TRAIN_BEGIN, CheckpointLabel.TRAIN_END) in g
    assert (CheckpointLabel.TRAIN_END, CheckpointLabel.TRAIN_BEGIN) not in g
    assert (CheckpointLabel.UPDATE_HASHED, CheckpointLabel.UPDATE_SENT) not in g


def test_cfa_check_foreign_label_scores_zero():
    # a server-side label is on no client edge
    assert (CheckpointLabel.ROUND_START, CheckpointLabel.SERVER_RECEIVED) not in DEFAULT_CLIENT_GRAPH


def test_server_graph_allows_repeated_receives():
    g = DEFAULT_SERVER_GRAPH
    assert (CheckpointLabel.SERVER_RECEIVED, CheckpointLabel.SERVER_RECEIVED) in g
    # zero receives is a round where nothing arrived
    for receives in (0, 1, 3):
        labels = [
            CheckpointLabel.ROUND_START,
            *[CheckpointLabel.SERVER_RECEIVED] * receives,
            CheckpointLabel.SERVER_VERIFIED,
            CheckpointLabel.AGGREGATED,
            CheckpointLabel.GLOBAL_APPLIED,
            CheckpointLabel.ROUND_END,
        ]
        report = finalize_report(build_log(labels, actor="server", round_no=2), KEYS.private)
        assert verify_trace(g, report, KEYS.public, "server", 2).ok, receives


# --------------------------------------------------------------------------- #
# chain rule
# --------------------------------------------------------------------------- #


def test_chain_first_entry_matches_manual_hash():
    cp = Checkpoint(label=CheckpointLabel.ROUND_START, actor="client-00", round=0)
    log = []
    assert record_checkpoint(log, cp) is None
    # label and actor are length-prefixed UTF-8, round is a u32
    encoded = (
        len(b"ROUND_START").to_bytes(2, "big")
        + b"ROUND_START"
        + len(b"client-00").to_bytes(2, "big")
        + b"client-00"
        + (0).to_bytes(4, "big")
    )
    genesis = hashlib.sha256(b"").digest()
    expected = hashlib.sha256(genesis + encoded).digest()
    assert log[0].chain_digest == expected
    assert finalize_report(log, KEYS.private).final_digest == expected


@pytest.mark.parametrize("actor", ["server", "client-00", ""])
def test_checkpoint_decode_is_total_on_prefixes(actor):
    blob = Checkpoint(CheckpointLabel.TRAIN_END, actor, 7).encode()
    reader = crypto.Reader(blob)
    decoded = Checkpoint.read(reader)
    assert reader.pos == len(blob)
    assert decoded.encode() == blob
    for cut in range(len(blob)):
        with pytest.raises(ValueError):
            Checkpoint.read(crypto.Reader(blob[:cut]))


def test_chain_links_consecutive_entries():
    log = build_log(CLIENT_PATH[:3])
    d0 = log[0].chain_digest
    manual = hashlib.sha256(d0 + log[1].checkpoint.encode()).digest()
    assert log[1].chain_digest == manual


def test_report_keeps_its_entries_when_the_trace_grows():
    log = build_log(CLIENT_PATH)
    report = finalize_report(log, KEYS.private)
    record_checkpoint(log, Checkpoint(CheckpointLabel.ROUND_START, "client-00", 0))
    assert len(log) == len(CLIENT_PATH) + 1
    assert report.entries == tuple(log[:-1])
    assert report.final_digest == log[-2].chain_digest
    assert verify_trace(DEFAULT_CLIENT_GRAPH, report, KEYS.public, "client-00", 0).ok


# --------------------------------------------------------------------------- #
# trace verification
# --------------------------------------------------------------------------- #


def test_legal_client_trace_verifies():
    report = build_report(CLIENT_PATH)
    assert verify_trace(DEFAULT_CLIENT_GRAPH, report, KEYS.public, "client-00", 0).ok


def test_missing_step_halts_with_illegal_transition():
    labels = [l for l in CLIENT_PATH if l != CheckpointLabel.UPDATE_SIGNED]
    verdict = verify_trace(DEFAULT_CLIENT_GRAPH, build_report(labels), KEYS.public, "client-00", 0)
    assert not verdict.ok
    assert verdict.reason == ILLEGAL_TRANSITION
    assert verdict.index == labels.index(CheckpointLabel.UPDATE_SENT)


def test_truncated_trace_halts_with_wrong_endpoints():
    verdict = verify_trace(DEFAULT_CLIENT_GRAPH, build_report(CLIENT_PATH[:4]), KEYS.public, "client-00", 0)
    assert not verdict.ok
    assert verdict.reason == WRONG_ENDPOINTS


def test_wrong_signer_halts_with_bad_signature():
    report = build_report(CLIENT_PATH, keys=KEYS)
    verdict = verify_trace(DEFAULT_CLIENT_GRAPH, report, OTHER_KEYS.public, "client-00", 0)
    assert not verdict.ok
    assert verdict.reason == BAD_SIGNATURE
    assert verdict.index == len(CLIENT_PATH)


def test_tampered_chain_halts_with_chain_tamper():
    report = build_report(CLIENT_PATH)
    entries = list(report.entries)
    entries[2] = LogEntry(
        Checkpoint(CheckpointLabel.TRAIN_END, "client-00", 5),  # round changed
        entries[2].chain_digest,
    )
    forged = AttestationReport(
        entries=tuple(entries),
        final_digest=report.final_digest,
        signature=report.signature,
    )
    verdict = verify_trace(DEFAULT_CLIENT_GRAPH, forged, KEYS.public, "client-00", 0)
    assert not verdict.ok
    assert verdict.reason == CHAIN_TAMPER
    assert verdict.index == 2


def test_empty_signed_log_halts_with_wrong_endpoints():
    report = finalize_report([], KEYS.private)
    verdict = verify_trace(DEFAULT_CLIENT_GRAPH, report, KEYS.public, "client-00", 0)
    assert not verdict.ok
    assert verdict.reason == WRONG_ENDPOINTS


def test_wrong_start_label_halts_at_index_zero():
    verdict = verify_trace(DEFAULT_CLIENT_GRAPH, build_report(CLIENT_PATH[1:]), KEYS.public, "client-00", 0)
    assert not verdict.ok
    assert verdict.index == 0
    assert verdict.reason == ILLEGAL_TRANSITION


def test_signed_trace_of_another_actor_or_round_halts():
    # chained and signed by the right key, but not the claimed sender's run
    # for the claimed round
    mixed = build_log(CLIENT_PATH[:3])
    for label in CLIENT_PATH[3:]:
        record_checkpoint(mixed, Checkpoint(label, "client-00", 1))
    cases = [
        (build_report(CLIENT_PATH, actor="client-01"), 0),
        (build_report(CLIENT_PATH, round_no=1), 0),
        (finalize_report(mixed, KEYS.private), 3),
    ]
    for report, index in cases:
        verdict = verify_trace(DEFAULT_CLIENT_GRAPH, report, KEYS.public, "client-00", 0)
        assert (verdict.index, verdict.reason) == (index, ILLEGAL_TRANSITION)


def test_report_serialization_round_trip():
    report = build_report(CLIENT_PATH)
    restored = AttestationReport.from_bytes(report.to_bytes())
    assert restored == report
    assert verify_trace(DEFAULT_CLIENT_GRAPH, restored, KEYS.public, "client-00", 0).ok


def test_report_serialization_rejects_trailing_bytes():
    blob = build_report(CLIENT_PATH).to_bytes() + b"\x00"
    with pytest.raises(ValueError):
        AttestationReport.from_bytes(blob)


# --------------------------------------------------------------------------- #
# mutation properties
# --------------------------------------------------------------------------- #


def _mutate_entries(entries, kind, i, j, round_no):
    """Single structural mutation of an entry tuple; returns None for no-ops."""
    entries = list(entries)
    if kind == "delete":
        del entries[i]
    elif kind == "duplicate":
        entries.insert(i, entries[i])
    elif kind == "swap":
        if i == j or entries[i] == entries[j]:
            return None
        entries[i], entries[j] = entries[j], entries[i]
    elif kind == "substitute":
        old = entries[i]
        new_cp = Checkpoint(CheckpointLabel.SERVER_VERIFIED, old.checkpoint.actor, round_no)
        if new_cp == old.checkpoint:
            return None
        entries[i] = LogEntry(new_cp, old.chain_digest)
    return tuple(entries)


@settings(max_examples=200, deadline=None)
@given(
    kind=st.sampled_from(["delete", "duplicate", "swap", "substitute"]),
    i=st.integers(min_value=0, max_value=len(CLIENT_PATH) - 1),
    j=st.integers(min_value=0, max_value=len(CLIENT_PATH) - 1),
    round_no=st.integers(min_value=0, max_value=3),
    recompute=st.booleans(),
)
def test_any_single_mutation_halts(kind, i, j, round_no, recompute):
    base = build_report(CLIENT_PATH)
    mutated = _mutate_entries(base.entries, kind, i, j, round_no)
    if mutated is None:
        return
    if recompute:
        # stronger adversary: rebuild the chain over the mutated checkpoints,
        # but the original signature cannot be reproduced
        log = []
        for entry in mutated:
            record_checkpoint(log, entry.checkpoint)
        forged = AttestationReport(
            entries=tuple(log), final_digest=log[-1].chain_digest, signature=base.signature
        )
    else:
        forged = AttestationReport(
            entries=mutated, final_digest=base.final_digest, signature=base.signature
        )
    verdict = verify_trace(DEFAULT_CLIENT_GRAPH, forged, KEYS.public, "client-00", 0)
    assert not verdict.ok
    assert verdict.reason in (CHAIN_TAMPER, BAD_SIGNATURE, ILLEGAL_TRANSITION, WRONG_ENDPOINTS)
