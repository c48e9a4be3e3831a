"""Golden-run digests: fixed configs whose observable output is pinned.

Each config is built with `harness.build_simulation` and run by
`harness.run_experiment`, the function the command line runs, abort
handling included.  The table it returns keeps no outcomes, so the test
wraps `harness.run_rounds`, the loop that function folds, and collects each
full report as it passes through.  One SHA-256 per config covers:

  - the CSV table without its `duration_ms` column (abort marker included)
  - the digest of every applied aggregate (`state.history`)
  - every round's per-message outcomes, in delivery order
  - the audit record on every accepted outcome, in delivery order

`GOLDEN_VERDICTS` pins the first three items alone, without the audit
records: it holds what the run decided and computed, with no signature or key
bytes in it.  A change that moves key material moves `GOLDEN` and keeps
`GOLDEN_VERDICTS`; one that moves a verdict, a rate or a model moves both.

A further SHA-256 per config (`GOLDEN_WIRE`) covers the wire: every delivery
the server receives, after the attack plan has rewritten the batch, in
delivery order over all rounds.  Raw byte payloads are hashed as they are,
parsed messages as their `to_wire_bytes()`, with no separators.  Sealed and
plaintext configs differ here, so envelope and attestation-report bytes are
pinned too.  All three digests come from the same run.

The matrix runs each attack kind sealed and unsealed with security on, and
the honest and tamper runs with security off, at 1024-bit keys, 3 clients
and 3 rounds.  A refactor keeps every digest; a change that alters output
on purpose re-pins them and gives the reason in CHANGES.md.

The same configs run once more with `crypto.sign` wrapped: every client
update, client report and server report signature made in the run must
verify under the `cryptography` package, apart from this package's own
verifier.
"""

from __future__ import annotations

import hashlib

import pytest

from attestfl import adversary, crypto, harness, reporting

ROUNDS = 3

GOLDEN = {
    ("none", "off", "on"): "0b4382c30b340e2f1b921c082d99d3a65898af2ed103261f8686334039d7a062",
    ("none", "on", "on"): "0b4382c30b340e2f1b921c082d99d3a65898af2ed103261f8686334039d7a062",
    ("model-poison", "off", "on"): "4846332b9606ca99129e0d842c6cdb8b34a9c2a9ddfdde160e6789a6e10b061c",
    ("model-poison", "on", "on"): "4846332b9606ca99129e0d842c6cdb8b34a9c2a9ddfdde160e6789a6e10b061c",
    ("data-poison", "off", "on"): "25e95ea9ab060be8e447a04bf0d63d249b276fa6aae2b48502646ecc94a7d40d",
    ("data-poison", "on", "on"): "25e95ea9ab060be8e447a04bf0d63d249b276fa6aae2b48502646ecc94a7d40d",
    ("tamper", "off", "on"): "cc341a2fbb8ee7c9b0dd64c13015663bb686ee1a9150badf3399da3fb1744dd9",
    ("tamper", "on", "on"): "df01283da0aae257b6266cf4e07f9ef2756c76844fc048e71793ad286824c8b1",
    ("sybil", "off", "on"): "6b55437843e1dc035b9af7d46bfbae8ad2b60391c77a4084984336b9799f2926",
    ("sybil", "on", "on"): "6b55437843e1dc035b9af7d46bfbae8ad2b60391c77a4084984336b9799f2926",
    ("replay", "off", "on"): "5f3b2bad9e22352736ff38be7800bb8436fa67c584a3ce749601c67d76493e0c",
    ("replay", "on", "on"): "5f3b2bad9e22352736ff38be7800bb8436fa67c584a3ce749601c67d76493e0c",
    ("none", "off", "off"): "0b4382c30b340e2f1b921c082d99d3a65898af2ed103261f8686334039d7a062",
    ("none", "on", "off"): "0b4382c30b340e2f1b921c082d99d3a65898af2ed103261f8686334039d7a062",
    ("tamper", "off", "off"): "e3136ee9167547fdaf5fb4e1f9e8d44ad825fa09f2f1a485ac721bcff86c0eea",
    ("tamper", "on", "off"): "633b3128ff74e47278d4897e8aef392c63f290bb4133a52c5697a05973ec94e9",
}

GOLDEN_VERDICTS = {
    ("none", "off", "on"): "a7ff61d61de248614cdf8c64a3d5116c28dae1fc13e1e0b098665c932677ee30",
    ("none", "on", "on"): "a7ff61d61de248614cdf8c64a3d5116c28dae1fc13e1e0b098665c932677ee30",
    ("model-poison", "off", "on"): "9f0bba06c13229e6294656462aa9490cf396e4e3a9b6f48a13dc452f18a2208a",
    ("model-poison", "on", "on"): "9f0bba06c13229e6294656462aa9490cf396e4e3a9b6f48a13dc452f18a2208a",
    ("data-poison", "off", "on"): "27d874e7df5fdd088da25d0ad1b33fba2e088161064281ff9ad8a123cc451c88",
    ("data-poison", "on", "on"): "27d874e7df5fdd088da25d0ad1b33fba2e088161064281ff9ad8a123cc451c88",
    ("tamper", "off", "on"): "b8302ce42c1537aff3052e3c1edd3f3de773bd8c959aaac8f03b0fb184884bc7",
    ("tamper", "on", "on"): "74017e12e65b651771375582c04b3172c6fb63c397fb10588fa42e57f5364b41",
    ("sybil", "off", "on"): "66bcc50c47d8930b3793c5ff68b30a08b86a2644a7457b6453aea80af0c778a6",
    ("sybil", "on", "on"): "66bcc50c47d8930b3793c5ff68b30a08b86a2644a7457b6453aea80af0c778a6",
    ("replay", "off", "on"): "b3568326a0c370549ac64c6ff75e7e31bf0439f4134ff0e351ed8791988f7c7e",
    ("replay", "on", "on"): "b3568326a0c370549ac64c6ff75e7e31bf0439f4134ff0e351ed8791988f7c7e",
    ("none", "off", "off"): "a7ff61d61de248614cdf8c64a3d5116c28dae1fc13e1e0b098665c932677ee30",
    ("none", "on", "off"): "a7ff61d61de248614cdf8c64a3d5116c28dae1fc13e1e0b098665c932677ee30",
    ("tamper", "off", "off"): "d6a2cbe912deb44b6a8e61a1bbfdd6d4b2a87c8c0e5913da2e4173176452b5fd",
    ("tamper", "on", "off"): "ba2452fec19fcf8bb5d93546714ee25912fce91e1c25708b0150a3763d569f16",
}

GOLDEN_WIRE = {
    ("none", "off", "on"): "d69d431d4182676c2c09459469a028f05564ca4542fe50e08c67a7a023c9fc9d",
    ("none", "on", "on"): "d28400d1f53a36876995b28e18e824eb7e22e18df0b499cca1d11aa85e62f1da",
    ("model-poison", "off", "on"): "e9cea39e148f9326decb6a21a3c0762a870227dfe9743eb3976b4f1a99ee2e06",
    ("model-poison", "on", "on"): "33c6990237b7a6aed566034dc247137be0f60e1ad6a39f1c66dd075c869b3683",
    ("data-poison", "off", "on"): "c3f84e63acf2dd687230f233c3b3e5f24a32bd124b7cb214656180888dd82522",
    ("data-poison", "on", "on"): "13e475502b177154805983dc838bc4af5462b23b992e76ec4e099eb7bbb383e9",
    ("tamper", "off", "on"): "f9b86205654e3452c2087f57a7fb21a3bfe05e3f610e778b4aa0eeb9556e2a9d",
    ("tamper", "on", "on"): "c9614f0e66cdb25780e7d3081dfb340959d72be05fa61fd78547c558a6325642",
    ("sybil", "off", "on"): "84bab82d0021d6733a09b08330fa114d1300125627db43aa458af452db0302be",
    ("sybil", "on", "on"): "26b4097c8bbe38f93faa27240dee0c81c00d21bee185db3f7f7039ba29cb3e45",
    ("replay", "off", "on"): "9d8f9e21a2cf99c6726b84effd45637375974f9c892bb210ad25671d29d4152a",
    ("replay", "on", "on"): "93d08bb63c54d9df627afae4d5dc0604db7531c0e978f30e1b04140e7bd00d9a",
    ("none", "off", "off"): "d69d431d4182676c2c09459469a028f05564ca4542fe50e08c67a7a023c9fc9d",
    ("none", "on", "off"): "d28400d1f53a36876995b28e18e824eb7e22e18df0b499cca1d11aa85e62f1da",
    ("tamper", "off", "off"): "500267c233459397071c8392664b036dcf1de0544acb549adf0e00dc4832e9f7",
    ("tamper", "on", "off"): "f11b13d322052289c0c2f7b29692f404b41a0b6ba608a099d6a40ae3df05652a",
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


def golden_digests(kind: str, encrypt: str, security: str, tmp_path, monkeypatch) -> tuple[str, str, str]:
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
    sim.plan = wire = WireRecorder(sim.plan)
    reports = []
    stream = harness.run_rounds

    def collect(sim):
        for report in stream(sim):
            reports.append(report)
            yield report

    monkeypatch.setattr(harness, "run_rounds", collect)
    table = harness.run_experiment(sim)

    hasher = hashlib.sha256()
    path = tmp_path / "golden.csv"
    reporting.emit_csv(table, str(path))
    for line in path.read_text().splitlines():
        kept = line if line.startswith("#") else line.rsplit(",", 1)[0]
        hasher.update(kept.encode() + b"\n")
    for digest in sim.server.state.history:
        hasher.update(digest)
    for report in reports:
        for o in report.outcomes:
            hasher.update(repr((o.client_id, o.reason, o.accepted, o.honest, o.attributable)).encode())
        hasher.update(b"\n")
    verdicts = hasher.hexdigest()
    for report in reports:
        for o in report.outcomes:
            record = o.audit
            assert (record is not None) == o.accepted
            if record is not None:
                key = None if record.public_key is None else record.public_key.hex()
                fields = (record.round, record.client_id, record.digest.hex(), record.signature.hex(), key)
                hasher.update(repr(fields).encode() + b"\n")
    return hasher.hexdigest(), verdicts, wire.hasher.hexdigest()


def test_matrix_covers_every_attack_kind():
    secured = {kind for kind, _, security in GOLDEN if security == "on"}
    assert secured == adversary.ATTACK_KINDS
    assert set(GOLDEN_WIRE) == set(GOLDEN_VERDICTS) == set(GOLDEN)


@pytest.mark.parametrize("kind,encrypt,security", sorted(GOLDEN))
def test_golden_digest(kind, encrypt, security, tmp_path, monkeypatch):
    digest, verdicts, wire = golden_digests(kind, encrypt, security, tmp_path, monkeypatch)
    assert verdicts == GOLDEN_VERDICTS[(kind, encrypt, security)]
    assert digest == GOLDEN[(kind, encrypt, security)]
    assert wire == GOLDEN_WIRE[(kind, encrypt, security)]


@pytest.mark.parametrize("kind,encrypt,security", sorted(GOLDEN))
def test_every_signature_verifies_under_cryptography(kind, encrypt, security, tmp_path, monkeypatch):
    rsa = pytest.importorskip("cryptography.hazmat.primitives.asymmetric.rsa")
    from cryptography.hazmat.primitives.asymmetric.padding import PKCS1v15
    from cryptography.hazmat.primitives.asymmetric.utils import Prehashed
    from cryptography.hazmat.primitives.hashes import SHA256

    signed = []
    real_sign = crypto.sign

    def capture(digest, private):
        signature = real_sign(digest, private)
        signed.append((digest, signature, private))
        return signature

    monkeypatch.setattr(crypto, "sign", capture)
    golden_digests(kind, encrypt, security, tmp_path, monkeypatch)
    # each round, each of the 3 clients signs its update and its report, and
    # the server signs its own report
    assert len(signed) >= ROUNDS * (2 * 3 + 1)
    assert len({private.n for _, _, private in signed}) >= 3 + 1
    for digest, signature, private in signed:
        public_key = rsa.RSAPublicNumbers(private.e, private.n).public_key()
        public_key.verify(signature, digest, PKCS1v15(), Prehashed(SHA256()))
