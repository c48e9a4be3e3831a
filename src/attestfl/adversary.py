"""Attack models: poisoning, transit tampering, identity forgery, replay.

Each attack maps onto a different layer of the pipeline:

  model-poison   a compromised training runtime rewrites the update after
                 the legitimate pass (the client still signs correctly, but
                 the attested trace shows the re-entered training phase)
  data-poison    labels are flipped in the client's shard before any round
                 runs; execution itself stays honest
  tamper         message bytes are flipped in transit, after signing
  sybil          unregistered actors fabricate well-formed submissions
                 under their own keys
  replay         previously sent messages are captured and re-delivered in
                 later rounds

The plan object plugs into the round loop and rewrites in-flight
deliveries; it never touches server or client internals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from . import crypto, datasets, models
from .datasets import Dataset
from .models import Model, TrainingConfig
from .params import ParameterVector
from .protocol import ClientActor, Delivery, SignedUpdate, client_round

__all__ = [
    "ATTACK_NONE",
    "ATTACK_MODEL_POISON",
    "ATTACK_DATA_POISON",
    "ATTACK_TAMPER",
    "ATTACK_SYBIL",
    "ATTACK_REPLAY",
    "ATTACK_KINDS",
    "AttackConfig",
    "AttackPlan",
    "choose_compromised",
    "make_poison",
    "flip_labels",
    "tamper_bytes",
    "spawn_sybils",
]

ATTACK_NONE = "none"
ATTACK_MODEL_POISON = "model-poison"
ATTACK_DATA_POISON = "data-poison"
ATTACK_TAMPER = "tamper"
ATTACK_SYBIL = "sybil"
ATTACK_REPLAY = "replay"

ATTACK_KINDS = frozenset(
    {ATTACK_NONE, ATTACK_MODEL_POISON, ATTACK_DATA_POISON, ATTACK_TAMPER, ATTACK_SYBIL, ATTACK_REPLAY}
)


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


@dataclass(frozen=True)
class AttackConfig:
    """What the adversary does and how hard.

    `fraction` is the share of the honest population that is compromised
    (or, for sybil and replay, sets how many fakes or re-sends appear per
    round).  `strength` only matters for model poisoning, where the update
    is replaced by strength * update + noise.
    """

    kind: str = ATTACK_NONE
    fraction: float = 0.25
    strength: float = -10.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ATTACK_KINDS:
            raise ValueError(f"unknown attack kind {self.kind!r}")
        if not 0.0 <= self.fraction <= 1.0:
            raise ValueError("fraction must lie in [0, 1]")
        if not math.isfinite(self.strength):
            raise ValueError("strength must be finite")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")

    @property
    def active(self) -> bool:
        return self.kind != ATTACK_NONE


def choose_compromised(client_ids: Sequence[str], fraction: float, seed: int) -> frozenset[str]:
    """Pick round-half-up(fraction * n) distinct clients, seeded."""
    ids = sorted(client_ids)
    count = _round_half_up(fraction * len(ids))
    if count == 0:
        return frozenset()
    rng = np.random.default_rng(crypto.derive_seed("choose-compromised", seed))
    picked = rng.choice(len(ids), size=count, replace=False)
    return frozenset(ids[i] for i in picked)


# --------------------------------------------------------------------------- #
# payload corruption primitives
# --------------------------------------------------------------------------- #


def make_poison(
    strength: float,
    seed: int,
    noise_scale: Optional[float] = None,
) -> Callable[[ParameterVector, int], ParameterVector]:
    """Update rewrite for a compromised runtime: strength * update + noise.

    Noise is Gaussian with the given scale (default |strength|), drawn from
    a stream keyed by seed and round so repeated rounds differ but reruns
    do not.  strength=1 with noise_scale=0 reproduces the input exactly.
    """
    scale = abs(strength) if noise_scale is None else noise_scale
    if scale < 0 or not math.isfinite(scale):
        raise ValueError("noise scale must be finite and non-negative")

    def rewrite(update: ParameterVector, round_no: int) -> ParameterVector:
        rng = np.random.default_rng(crypto.derive_seed("poison", seed, round_no))
        noise = rng.standard_normal(update.size) * scale
        return ParameterVector._wrap(strength * update.values + noise, update.layout)

    return rewrite


def flip_labels(data: Dataset, fraction: float, seed: int) -> Dataset:
    """Relabel a seeded sample of exactly round-half-up(fraction * n) rows.

    Every touched row gets a uniformly random *different* class, so the
    flip count is exact.  Needs at least two classes when any row flips.
    """
    count = _round_half_up(fraction * data.size)
    if count == 0:
        return data
    if data.num_classes < 2:
        raise ValueError("cannot flip labels with fewer than two classes")
    rng = np.random.default_rng(crypto.derive_seed("label-flip", seed))
    rows = rng.choice(data.size, size=count, replace=False)
    labels = data.labels.copy()
    offsets = rng.integers(1, data.num_classes, size=count)
    labels[rows] = (labels[rows] + offsets) % data.num_classes
    return Dataset(features=data.features, labels=labels, num_classes=data.num_classes)


def tamper_bytes(payload: bytes, bit_index: int) -> bytes:
    """Flip one bit; bit 0 is the most significant bit of byte 0."""
    if len(payload) == 0:
        raise ValueError("cannot tamper with an empty payload")
    if not 0 <= bit_index < 8 * len(payload):
        raise ValueError("bit index out of range")
    byte_index, offset = divmod(bit_index, 8)
    out = bytearray(payload)
    out[byte_index] ^= 0x80 >> offset
    return bytes(out)


def spawn_sybils(
    count: int,
    architecture: Model,
    train_cfg: TrainingConfig,
    *,
    num_features: int,
    num_classes: int,
    separation: float,
    seed: int,
    key_bits: int = 2048,
    dh_params: crypto.DhParams = crypto.MODP_2048,
    per_sybil: int = 30,
) -> list[ClientActor]:
    """Fabricated actors with their own keys, data, and legal-looking traces.

    Nothing distinguishes their submissions from honest ones except that no
    registry entry matches their identity.
    """
    if count == 0:
        return []
    shards = datasets.generate_synthetic(
        num_clients=count,
        per_client=per_sybil,
        num_features=num_features,
        num_classes=num_classes,
        separation=separation,
        seed=crypto.derive_seed("sybil-data", seed),
    )
    actors = []
    for i, shard in enumerate(shards):
        actors.append(
            ClientActor.create(
                f"sybil-{i}",
                shard,
                architecture,
                train_cfg,
                key_seed=crypto.derive_seed("sybil-key", seed, i),
                key_bits=key_bits,
                dh_params=dh_params,
            )
        )
    return actors


# --------------------------------------------------------------------------- #
# in-flight delivery rewriting
# --------------------------------------------------------------------------- #


@dataclass
class AttackPlan:
    """Stateful interceptor the round loop hands every outgoing batch to.

    Construction wires in whatever the kind needs: compromised ids for
    tampering, prebuilt sybil actors, or a capture buffer plus per-round
    resend count for replay.  Kinds that act before any message exists
    (model-poison, data-poison) leave deliveries untouched here; they are
    applied when the simulation is assembled.
    """

    kind: str
    seed: int
    compromised: frozenset[str] = frozenset()
    sybils: list[ClientActor] = field(default_factory=list)
    replays_per_round: int = 0
    captured: list[SignedUpdate] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.kind not in ATTACK_KINDS:
            raise ValueError(f"unknown attack kind {self.kind!r}")
        self._rng = np.random.default_rng(crypto.derive_seed("attack-plan", self.seed))

    def transform(
        self,
        deliveries: list[Delivery],
        round_no: int,
        global_params: ParameterVector,
    ) -> list[Delivery]:
        if self.kind == ATTACK_TAMPER:
            return [self._tampered(d) if d.source in self.compromised else d for d in deliveries]
        if self.kind == ATTACK_SYBIL:
            out = list(deliveries)
            for sybil in self.sybils:
                msg = client_round(sybil, global_params, round_no)
                if msg is not None:
                    out.append(Delivery(payload=msg, source=sybil.client_id, honest=False))
            return out
        if self.kind == ATTACK_REPLAY:
            out = list(deliveries)
            if self.captured and self.replays_per_round > 0:
                picks = self._rng.integers(0, len(self.captured), size=self.replays_per_round)
                for i in picks:
                    msg = self.captured[i]
                    out.append(Delivery(payload=msg, source=msg.client_id, honest=False))
            self.captured.extend(d.payload for d in deliveries)
            return out
        return deliveries

    def _tampered(self, delivery: Delivery) -> Delivery:
        blob = delivery.payload.to_wire_bytes()
        bit = int(self._rng.integers(0, 8 * len(blob)))
        # the sender was honest; the corruption happened on the wire
        return Delivery(payload=tamper_bytes(blob, bit), source=delivery.source, honest=delivery.honest)
