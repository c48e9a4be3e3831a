"""Benchmark workloads: attestfl config overrides, and why each one exists.

Every workload runs with security on.  Each puts a different module in
front, so a speed-up in one layer shows on one workload and is predicted to
change nothing on another (see bench/README.md for the layer map).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    why: str
    overrides: dict[str, str]


WORKLOADS: dict[str, Workload] = {
    "honest-2048": Workload(
        why="CLI default shape (2048-bit keys, 4 clients, plaintext, no attack): RSA sign and keygen dominate",
        overrides={"crypto.key_bits": "2048", "clients": "4"},
    ),
    "sealed-mlp": Workload(
        why="sealed 19,210-parameter MLP on 8 clients: training, seal/unseal and large-vector encoding carry weight",
        overrides={
            "crypto.key_bits": "1024",
            "clients": "8",
            "encrypt": "on",
            "model.kind": "mlp",
            "model.hidden": "256",
            "data.features": "64",
            "data.classes": "10",
            "data.per_client": "200",
            "train.epochs": "2",
        },
    ),
    "tamper-16": Workload(
        why="16 clients, half tampered in transit: wire parsing and every rejection stage of the verifier; largest cohort",
        overrides={
            "crypto.key_bits": "1024",
            "clients": "16",
            "attack.kind": "tamper",
            "attack.fraction": "0.5",
        },
    ),
}
