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

`arm` applies an attack to an honest, registered world: it picks the
compromised clients, flips a data-poisoned client's labels or sets a
model-poisoned client's `compromise` hook, and returns an `AttackPlan` for
the three kinds that act on deliveries (tamper, sybil, replay).  The plan
plugs into the round loop and rewrites in-flight deliveries; it never
touches server or client internals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import crypto, datasets
from .datasets import Dataset
from .models import Model, TrainingConfig, TrainingError
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
    "arm",
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

# kinds that act on deliveries, so only they have an AttackPlan
_IN_TRANSIT_KINDS = frozenset({ATTACK_TAMPER, ATTACK_SYBIL, ATTACK_REPLAY})
ATTACK_KINDS = frozenset({ATTACK_NONE, ATTACK_MODEL_POISON, ATTACK_DATA_POISON}) | _IN_TRANSIT_KINDS


# training examples behind each fabricated sybil actor
_SYBIL_SHARD_SIZE = 30


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
        if not 0 <= self.seed < crypto.SEED_LIMIT:
            raise ValueError("seed must lie in [0, 2**127)")


def choose_compromised(client_ids: Sequence[str], fraction: float, seed: int) -> frozenset[str]:
    """Pick round-half-up(fraction * n) distinct clients, seeded."""
    ids = sorted(client_ids)
    count = _round_half_up(fraction * len(ids))
    if count == 0:
        return frozenset()
    rng = np.random.default_rng(crypto.derive_seed("choose-compromised", seed))
    picked = rng.choice(len(ids), size=count, replace=False)
    return frozenset(ids[i] for i in picked)


def arm(
    attack: AttackConfig, clients: Sequence[ClientActor], *, separation: float, key_bits: int
) -> AttackPlan | None:
    """Apply `attack` to honest, registered clients; return its plan, if any.

    Model-poison and data-poison change the compromised clients in place
    (a `compromise` hook, or labels flipped before any round runs) and
    return None.  Tamper, sybil and replay leave the clients alone and
    return the plan that acts on their deliveries.  Raises ValueError when
    data-poison meets a one-class shard.
    """
    compromised = choose_compromised([c.client_id for c in clients], attack.fraction, attack.seed)
    for client in clients:
        if client.client_id in compromised:
            seed = crypto.derive_seed(attack.seed, client.client_id)
            if attack.kind == ATTACK_DATA_POISON:
                client.data = flip_labels(client.data, 1.0, seed)
            elif attack.kind == ATTACK_MODEL_POISON:
                client.compromise = make_poison(attack.strength, seed)
    count = _round_half_up(attack.fraction * len(clients))
    if attack.kind == ATTACK_TAMPER:
        return AttackPlan(kind=attack.kind, seed=attack.seed, compromised=compromised)
    if attack.kind == ATTACK_SYBIL:
        model, train_cfg = clients[0].architecture, clients[0].train_cfg
        sybils = spawn_sybils(count, model, train_cfg, separation=separation, seed=attack.seed, key_bits=key_bits)
        return AttackPlan(kind=attack.kind, seed=attack.seed, sybils=sybils)
    if attack.kind == ATTACK_REPLAY:
        return AttackPlan(kind=attack.kind, seed=attack.seed, replays_per_round=max(1, count))
    return None


# --------------------------------------------------------------------------- #
# payload corruption primitives
# --------------------------------------------------------------------------- #


def make_poison(strength: float, seed: int) -> Callable[[ParameterVector, int], ParameterVector]:
    """Update rewrite for a compromised runtime: strength * update + noise.

    Noise is Gaussian with scale |strength|, drawn from a stream keyed by
    seed and round so repeated rounds differ but reruns do not.  A rewrite
    that overflows raises TrainingError, so the client drops out of that
    round as if its training had failed.
    """

    def rewrite(update: ParameterVector, round_no: int) -> ParameterVector:
        rng = np.random.default_rng(crypto.derive_seed("poison", seed, round_no))
        with np.errstate(over="ignore", invalid="ignore"):  # detected below, not warned
            values = strength * update.values + rng.standard_normal(update.size) * abs(strength)
        if not np.all(np.isfinite(values)):
            raise TrainingError("poisoned update is not finite")
        return ParameterVector(values, update.layout)

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
        raise ValueError(f"flipping labels needs two classes, got {data.num_classes}")
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
    separation: float,
    seed: int,
    key_bits: int = 2048,
) -> list[ClientActor]:
    """Fabricated actors with their own keys, data, and legal-looking traces.

    Their shards have the architecture's feature and class counts.  Nothing
    distinguishes their submissions from honest ones except that no
    registry entry matches their identity.
    """
    if count == 0:
        return []
    shards = datasets.generate_synthetic(
        num_clients=count,
        per_client=_SYBIL_SHARD_SIZE,
        num_features=architecture.num_features,
        num_classes=architecture.num_classes,
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
            )
        )
    return actors


# --------------------------------------------------------------------------- #
# in-flight delivery rewriting
# --------------------------------------------------------------------------- #


@dataclass
class AttackPlan:
    """Stateful interceptor the round loop hands every outgoing batch to.

    A plan exists only for the in-transit kinds.  Construction wires in
    whatever the kind needs: compromised ids for tampering, prebuilt sybil
    actors, or a capture buffer plus per-round resend count for replay.
    Model-poison and data-poison act before any message exists, so `arm`
    applies them to the clients and returns no plan.
    """

    kind: str
    seed: int
    compromised: frozenset[str] = frozenset()
    sybils: list[ClientActor] = field(default_factory=list)
    replays_per_round: int = 0
    captured: list[SignedUpdate] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.kind not in _IN_TRANSIT_KINDS:
            raise ValueError(f"no in-transit attack of kind {self.kind!r}")
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
        out = list(deliveries)  # replay
        if self.captured and self.replays_per_round > 0:
            picks = self._rng.integers(0, len(self.captured), size=self.replays_per_round)
            for i in picks:
                msg = self.captured[i]
                out.append(Delivery(payload=msg, source=msg.client_id, honest=False))
        self.captured.extend(d.payload for d in deliveries)
        return out

    def _tampered(self, delivery: Delivery) -> Delivery:
        blob = delivery.payload.to_wire_bytes()
        bit = int(self._rng.integers(0, 8 * len(blob)))
        # the sender was honest; the corruption happened on the wire
        return Delivery(payload=tamper_bytes(blob, bit), source=delivery.source, honest=delivery.honest)
