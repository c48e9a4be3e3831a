"""Golden-run digests: fixed configs whose observable output is pinned.

Each config is built with `harness.build_simulation` and run round by round
the way `harness.run_experiment` runs it.  One SHA-256 per config covers:

  - the CSV table without its `duration_ms` column (abort marker included)
  - the digest of every applied aggregate (`state.history`)
  - every round's per-message outcomes, in delivery order
  - every record in the server's audit log

A second SHA-256 per config (`GOLDEN_WIRE`) covers the wire: every delivery
the server receives, after the attack plan has rewritten the batch, in
delivery order over all rounds.  Raw byte payloads are hashed as they are,
parsed messages as their `to_wire_bytes()`, with no separators.  Sealed and
plaintext configs differ here, so envelope and attestation-report bytes are
pinned too.  Both digests come from the same run.

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

GOLDEN_WIRE = {
    ("none", "off", "on"): "9ed13f33a56f3326d1706a3a9bfe5338dd115ce7a63f1f377b7e6ada4583f7a8",
    ("none", "on", "on"): "da4a05961cf28ec56b0b4292d034413675b905fb472e87d8b195a320a8bd3cd6",
    ("model-poison", "off", "on"): "7f47f6c8cd295cf58477b9c4be296c4e82c03c4500e0c7b5368a74d1ff9c9a4d",
    ("model-poison", "on", "on"): "e85ef8add9cda0100bb203eb64b24a3c2a396e099aa48a0ea7111aae4d992d44",
    ("data-poison", "off", "on"): "c5f7d8165a42fbee7a120e3bd7f6c46543cc898833641c6b87ab94675121a1a4",
    ("data-poison", "on", "on"): "67a558c84aba205fe457963c2587e5683faa34c320d6fc7fe820a1cd20a15123",
    ("tamper", "off", "on"): "1e19fae4126a961c1c908f17a4dccd5a6fc8dded908e82321181b8859c0daa86",
    ("tamper", "on", "on"): "073e884d7f02e76d2b2d7bb2cecbc79563a3b1ff42689ccce9d1d7f9adcc7671",
    ("sybil", "off", "on"): "aa05b563abf5e1796b9697bc319cbb3e6c42088bf664321dd307c3184cf1b126",
    ("sybil", "on", "on"): "56b31a851ecbe5bca63b68b1015315385e6543c17392493b1a9a3b022e9b9f63",
    ("replay", "off", "on"): "16dc81878a54308d07d634bac9512cd45463c3ca3970cb5c45811ad1372fa0e6",
    ("replay", "on", "on"): "7d6a572809fbf9584f6adf71337772be7d4ad77b16046d157536499c5b889703",
    ("none", "off", "off"): "9ed13f33a56f3326d1706a3a9bfe5338dd115ce7a63f1f377b7e6ada4583f7a8",
    ("none", "on", "off"): "da4a05961cf28ec56b0b4292d034413675b905fb472e87d8b195a320a8bd3cd6",
    ("tamper", "off", "off"): "c3f66e523c225c63beb8bdb4faa18439033ecda0a95beb98f2226b5ebd2160d9",
    ("tamper", "on", "off"): "4bc4c91b0aed8e8d7a9b3b32d02cdf9dc1f97e9d1e969f4ce5fc113b31a6922c",
}


class WireRecorder:
    """Stands in for the round's plan and hashes what the server will receive."""

    def __init__(self, plan):
        self.plan = plan
        self.hasher = hashlib.sha256()

    def transform(self, deliveries, round_no, global_params):
        if self.plan is not None:
            deliveries = self.plan.transform(deliveries, round_no, global_params)
        for delivery in deliveries:
            payload = delivery.payload
            self.hasher.update(payload if isinstance(payload, bytes) else payload.to_wire_bytes())
        return deliveries


def golden_digests(kind: str, encrypt: str, security: str, tmp_path) -> str:
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
    wire = WireRecorder(sim.plan)
    table = reporting.MetricsTable(client_count=config.clients)
    for _ in range(config.rounds):
        try:
            report = protocol.run_round(sim.server, sim.clients, plan=wire, eval_data=sim.holdout)
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
    return hasher.hexdigest(), wire.hasher.hexdigest()


def test_matrix_covers_every_attack_kind():
    secured = {kind for kind, _, security in GOLDEN if security == "on"}
    assert secured == adversary.ATTACK_KINDS
    assert set(GOLDEN_WIRE) == set(GOLDEN)


@pytest.mark.parametrize("kind,encrypt,security", sorted(GOLDEN))
def test_golden_digest(kind, encrypt, security, tmp_path):
    digest, wire = golden_digests(kind, encrypt, security, tmp_path)
    assert digest == GOLDEN[(kind, encrypt, security)]
    assert wire == GOLDEN_WIRE[(kind, encrypt, security)]
