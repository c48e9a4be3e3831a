"""Golden-run digests: fixed configs whose observable output is pinned.

Each config is built with `harness.build_simulation` and run round by round
the way `harness.run_experiment` runs it.  One SHA-256 per config covers:

  - the CSV table without its `duration_ms` column (abort marker included)
  - the digest of every applied aggregate (`state.history`)
  - every round's per-message outcomes, in delivery order
  - every record in the server's audit log

The matrix runs each attack kind sealed and unsealed with security on, and
the honest and tamper runs with security off, at 1024-bit keys, 3 clients
and 3 rounds.  A refactor keeps every digest; a change that alters output
on purpose re-pins them and gives the reason in CHANGES.md.
"""

from __future__ import annotations

import hashlib

import pytest

from attestfl import adversary, harness, protocol, reporting

ROUNDS = 3

GOLDEN = {
    ("none", "off", "on"): "e2c14c8865523aef93654edf2b4e7d3e64ecbe92ad7023854ed98b6427971c4b",
    ("none", "on", "on"): "e2c14c8865523aef93654edf2b4e7d3e64ecbe92ad7023854ed98b6427971c4b",
    ("model-poison", "off", "on"): "cc0a65cb63424e756b0db314b337316dcfe8b676f364f2d97724f21050a4ebea",
    ("model-poison", "on", "on"): "cc0a65cb63424e756b0db314b337316dcfe8b676f364f2d97724f21050a4ebea",
    ("data-poison", "off", "on"): "277f3b4e1b7d0ed86cd98ace02a9333992902b27dfd01bf26e88c6b08d6584f7",
    ("data-poison", "on", "on"): "277f3b4e1b7d0ed86cd98ace02a9333992902b27dfd01bf26e88c6b08d6584f7",
    ("tamper", "off", "on"): "0cea51d5ee7ce5aa9a11a044065e03362166b949f035905e4ce8a8ba2e74c587",
    ("tamper", "on", "on"): "aa5141629b352f6b7fece7029c122f4114648f371a32f659aa78542cbdd54a17",
    ("sybil", "off", "on"): "b5821739de75034c0ee1cab8e3b076286d360ad6854981c55657e5209567e844",
    ("sybil", "on", "on"): "b5821739de75034c0ee1cab8e3b076286d360ad6854981c55657e5209567e844",
    ("replay", "off", "on"): "ee98ccc31b43969a2d22573c04e21ded6a2a6fa75ddfe2699a6d1f05d8efb43b",
    ("replay", "on", "on"): "ee98ccc31b43969a2d22573c04e21ded6a2a6fa75ddfe2699a6d1f05d8efb43b",
    ("none", "off", "off"): "e2c14c8865523aef93654edf2b4e7d3e64ecbe92ad7023854ed98b6427971c4b",
    ("none", "on", "off"): "e2c14c8865523aef93654edf2b4e7d3e64ecbe92ad7023854ed98b6427971c4b",
    ("tamper", "off", "off"): "45cb03550f1e3713fe11f41a154a116d79420c72e253568ca0b4e42e2c3bb111",
    ("tamper", "on", "off"): "f7966be07a6e315cc7e84994c06174fed0264d9114c45617bfe6f675601e7412",
}


def golden_digest(kind: str, encrypt: str, security: str, tmp_path) -> str:
    config = harness.parse_config(
        "",
        {
            "crypto.key_bits": "1024",
            "clients": "3",
            "rounds": str(ROUNDS),
            "model.kind": "logistic-regression",
            "attack.kind": kind,
            "encrypt": encrypt,
            "security": security,
        },
    )
    sim = harness.build_simulation(config)
    table = reporting.MetricsTable(client_count=config.clients)
    for _ in range(config.rounds):
        try:
            report = protocol.run_round(sim.server, sim.clients, plan=sim.plan, eval_data=sim.holdout)
        except protocol.ProtocolError as exc:
            table.aborted = str(exc)
            break
        table.reports.append(report)

    hasher = hashlib.sha256()
    path = tmp_path / "golden.csv"
    reporting.emit_csv(table, str(path))
    for line in path.read_text().splitlines():
        kept = line if line.startswith("#") else line.rsplit(",", 1)[0]
        hasher.update(kept.encode() + b"\n")
    for digest in sim.server.state.history:
        hasher.update(digest)
    for report in table.reports:
        for o in report.outcomes:
            hasher.update(repr((o.client_id, o.reason, o.accepted, o.honest, o.attributable)).encode())
        hasher.update(b"\n")
    for record in sim.server.audit_log:
        key = None if record.public_key is None else record.public_key.hex()
        fields = (record.round, record.client_id, record.digest.hex(), record.signature.hex(), key)
        hasher.update(repr(fields).encode() + b"\n")
    return hasher.hexdigest()


def test_matrix_covers_every_attack_kind():
    secured = {kind for kind, _, security in GOLDEN if security == "on"}
    assert secured == adversary.ATTACK_KINDS


@pytest.mark.parametrize("kind,encrypt,security", sorted(GOLDEN))
def test_golden_digest(kind, encrypt, security, tmp_path):
    assert golden_digest(kind, encrypt, security, tmp_path) == GOLDEN[(kind, encrypt, security)]
