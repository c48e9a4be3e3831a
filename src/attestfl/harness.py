"""Experiment assembly: config parsing, seeded builds, multi-round runs.

Config files are flat `key = value` lines; a `#` at the start of a line or
after whitespace starts a comment, so values may contain `#`.  Keys are
dotted paths (`train.lr`, `attack.kind`); every key has a default, unknown
or repeated keys are rejected with their line number.  The same dotted
keys double as CLI override names, so one parser serves both.

Everything downstream is derived from the single top-level seed: shard
contents, signing keys, minibatch order, attack choices.  Two runs with
the same config produce identical tables except for wall-clock durations.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, replace
from typing import Optional

from . import adversary, crypto, datasets, models, protocol
from .adversary import AttackConfig, AttackPlan
from .datasets import Dataset
from .models import Model, TrainingConfig
from .protocol import ClientActor, ProtocolError, Server
from .reporting import MetricsTable

__all__ = [
    "ConfigError",
    "ModelSpec",
    "DataSpec",
    "CryptoSpec",
    "ExperimentConfig",
    "parse_config",
    "Simulation",
    "build_simulation",
    "run_experiment",
]

SOURCE_SYNTHETIC = "synthetic"
SOURCE_IDX = "idx"


class ConfigError(ValueError):
    """A config file or override set could not be interpreted."""


# --------------------------------------------------------------------------- #
# config schema
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class ModelSpec:
    kind: str = models.KIND_LOGREG
    hidden: int = 16
    activation: str = "tanh"

    def __post_init__(self) -> None:
        if self.kind not in (models.KIND_LOGREG, models.KIND_MLP):
            raise ConfigError(f"unknown model kind {self.kind!r}")
        if self.hidden < 1:
            raise ConfigError("model.hidden must be positive")
        if self.activation not in models.ACTIVATIONS:
            raise ConfigError(f"unknown activation {self.activation!r}")


@dataclass(frozen=True)
class DataSpec:
    source: str = SOURCE_SYNTHETIC
    features: int = 2
    classes: int = 2
    separation: float = 6.0
    per_client: int = 100
    idx_images: Optional[str] = None
    idx_labels: Optional[str] = None
    subset: int = 1000

    def __post_init__(self) -> None:
        if self.source not in (SOURCE_SYNTHETIC, SOURCE_IDX):
            raise ConfigError(f"unknown data source {self.source!r}")
        if self.features < 1 or self.classes < 1:
            raise ConfigError("data.features and data.classes must be positive")
        if not 0 <= self.separation < math.inf:
            raise ConfigError("data.separation must be finite and non-negative")
        if self.per_client < 1:
            raise ConfigError("data.per_client must be positive")
        if self.subset < 1:
            raise ConfigError("data.subset must be positive")
        if self.source == SOURCE_IDX and (self.idx_images is None or self.idx_labels is None):
            raise ConfigError("idx source needs data.idx_images and data.idx_labels")


@dataclass(frozen=True)
class CryptoSpec:
    key_bits: int = 2048

    def __post_init__(self) -> None:
        if self.key_bits not in (1024, 2048):
            raise ConfigError("crypto.key_bits must be 1024 or 2048")


@dataclass(frozen=True)
class ExperimentConfig:
    rounds: int = 5
    clients: int = 4
    seed: int = 0
    security: bool = True
    encrypt: bool = False
    model: ModelSpec = field(default_factory=ModelSpec)
    data: DataSpec = field(default_factory=DataSpec)
    train: TrainingConfig = field(default_factory=TrainingConfig)
    crypto: CryptoSpec = field(default_factory=CryptoSpec)
    attack: AttackConfig = field(default_factory=AttackConfig)

    def __post_init__(self) -> None:
        if self.rounds < 1:
            raise ConfigError("rounds must be positive")
        if self.clients < 1:
            raise ConfigError("clients must be positive")
        if not 0 <= self.seed < crypto.SEED_LIMIT:
            raise ConfigError("seed must lie in [0, 2**127)")
        # training draws from the one top-level seed
        object.__setattr__(self, "train", replace(self.train, seed=self.seed))


# --------------------------------------------------------------------------- #
# parsing
# --------------------------------------------------------------------------- #


def _to_int(key: str, raw: str) -> int:
    try:
        return int(raw, 10)
    except ValueError:
        raise ConfigError(f"{key}: expected an integer, got {raw!r}") from None


def _to_float(key: str, raw: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got {raw!r}") from None


def _to_switch(key: str, raw: str) -> bool:
    if raw == "on":
        return True
    if raw == "off":
        return False
    raise ConfigError(f"{key}: expected on or off, got {raw!r}")


def _to_batch(key: str, raw: str) -> int | str:
    return raw if raw == models.FULL_BATCH else _to_int(key, raw)


def _to_str(key: str, raw: str) -> str:
    return raw


_CONVERTERS = {
    "rounds": _to_int,
    "clients": _to_int,
    "seed": _to_int,
    "security": _to_switch,
    "encrypt": _to_switch,
    "model.kind": _to_str,
    "model.hidden": _to_int,
    "model.activation": _to_str,
    "data.source": _to_str,
    "data.features": _to_int,
    "data.classes": _to_int,
    "data.separation": _to_float,
    "data.per_client": _to_int,
    "data.idx_images": _to_str,
    "data.idx_labels": _to_str,
    "data.subset": _to_int,
    "train.lr": _to_float,
    "train.epochs": _to_int,
    "train.batch": _to_batch,
    "crypto.key_bits": _to_int,
    "attack.kind": _to_str,
    "attack.fraction": _to_float,
    "attack.strength": _to_float,
    "attack.seed": _to_int,
}


_COMMENT = re.compile(r"(^|\s)#.*")


def parse_config(text: str, overrides: Optional[dict[str, str]] = None) -> ExperimentConfig:
    """Parse `key = value` lines; later CLI overrides win over file values."""
    entries: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = _COMMENT.sub("", line).strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key = value, got {line.strip()!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        raw = raw.strip()
        if not key or not raw:
            raise ConfigError(f"line {lineno}: empty key or value")
        if key in entries:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        if key not in _CONVERTERS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        entries[key] = raw
    if overrides:
        entries.update(overrides)
    values: dict[str, object] = {}
    for key, raw in entries.items():
        converter = _CONVERTERS.get(key)
        if converter is None:
            raise ConfigError(f"unknown key {key!r}")
        values[key] = converter(key, raw)

    def pick(prefix: str, cls, **renames):
        kwargs = {}
        for key, value in values.items():
            if not key.startswith(prefix + "."):
                continue
            name = key[len(prefix) + 1 :]
            kwargs[renames.get(name, name)] = value
        return cls(**kwargs)

    if values.get("data.source", SOURCE_SYNTHETIC) == SOURCE_SYNTHETIC:
        stray = [key for key in ("data.idx_images", "data.idx_labels", "data.subset") if key in values]
        if stray:
            raise ConfigError(f"{', '.join(stray)} need data.source = idx")
    # attack.seed defaults to the top-level seed, so one knob reseeds a run
    values.setdefault("attack.seed", values.get("seed", ExperimentConfig.seed))
    try:
        return ExperimentConfig(
            **{key: value for key, value in values.items() if "." not in key},
            model=pick("model", ModelSpec),
            data=pick("data", DataSpec),
            train=pick("train", TrainingConfig, lr="learning_rate", batch="batch_size"),
            crypto=pick("crypto", CryptoSpec),
            attack=pick("attack", AttackConfig),
        )
    except ConfigError:
        raise
    except ValueError as exc:
        # component validators raise plain ValueError; keep one error type
        # at this boundary so callers handle a single class
        raise ConfigError(str(exc)) from exc


# --------------------------------------------------------------------------- #
# simulation assembly
# --------------------------------------------------------------------------- #


@dataclass
class Simulation:
    config: ExperimentConfig
    server: Server
    clients: list[ClientActor]
    plan: Optional[AttackPlan]
    holdout: Dataset


def _architecture(config: ExperimentConfig, num_features: int, num_classes: int) -> Model:
    if config.model.kind == models.KIND_LOGREG:
        return models.logistic_regression(num_features, num_classes)
    return models.mlp(
        num_features,
        num_classes,
        config.model.hidden,
        activation=config.model.activation,
        seed=crypto.derive_seed(config.seed, "init"),
    )


def _load_data(config: ExperimentConfig) -> tuple[list[Dataset], Dataset]:
    """Per-client shards plus a held-out evaluation split (~20% extra)."""
    data = config.data
    if data.source == SOURCE_SYNTHETIC:
        shards = datasets.generate_synthetic(
            num_clients=config.clients,
            per_client=data.per_client,
            num_features=data.features,
            num_classes=data.classes,
            separation=data.separation,
            seed=crypto.derive_seed(config.seed, "data"),
        )
        holdout = datasets.generate_holdout(
            size=max(1, (config.clients * data.per_client) // 5),
            num_features=data.features,
            num_classes=data.classes,
            separation=data.separation,
            seed=crypto.derive_seed(config.seed, "data"),
        )
        return shards, holdout

    try:
        pool = datasets.load_idx(
            data.idx_images, data.idx_labels, subset=data.subset, seed=crypto.derive_seed(config.seed, "data")
        )
    except (OSError, ValueError) as exc:
        raise ConfigError(f"data.idx_images / data.idx_labels / data.subset: {exc}") from exc
    # last fifth held out, remainder dealt round-robin across clients
    cut = max(config.clients, (pool.size * 4) // 5)
    if cut >= pool.size:
        raise ConfigError("data.subset too small to carve a holdout split")
    n = config.clients
    shards = [
        Dataset(features=pool.features[i:cut:n], labels=pool.labels[i:cut:n], num_classes=pool.num_classes)
        for i in range(n)
    ]
    holdout = Dataset(
        features=pool.features[cut:], labels=pool.labels[cut:], num_classes=pool.num_classes
    )
    return shards, holdout


def build_simulation(config: ExperimentConfig) -> Simulation:
    shards, holdout = _load_data(config)
    architecture = _architecture(config, shards[0].num_features, shards[0].num_classes)
    server = Server.create(
        architecture,
        key_seed=crypto.derive_seed(config.seed, "server-key"),
        key_bits=config.crypto.key_bits,
        security=config.security,
    )
    clients: list[ClientActor] = []
    for i, shard in enumerate(shards):
        client = ClientActor.create(
            f"client-{i}",
            shard,
            architecture,
            config.train,
            key_seed=crypto.derive_seed(config.seed, "client-key", i),
            key_bits=config.crypto.key_bits,
            encrypt=config.encrypt,
        )
        server.register(client)
        clients.append(client)
    try:
        plan = adversary.arm(
            config.attack, clients, separation=config.data.separation, key_bits=config.crypto.key_bits
        )
    except ValueError as exc:
        raise ConfigError(f"attack.kind = {config.attack.kind}: {exc}") from exc
    return Simulation(config=config, server=server, clients=clients, plan=plan, holdout=holdout)


def run_experiment(sim: Simulation) -> MetricsTable:
    """Run a built world for its configured rounds; the one multi-round loop.

    `reporting.emit_csv` writes the table it returns.  A server-side abort
    stops the run early; whatever rounds completed are kept and the table
    carries the abort reason.
    """
    table = MetricsTable(client_count=sim.config.clients)
    for _ in range(sim.config.rounds):
        try:
            report = protocol.run_round(
                sim.server, sim.clients, plan=sim.plan, eval_data=sim.holdout
            )
        except ProtocolError as exc:
            table.aborted = str(exc)
            break
        table.reports.append(report)
    return table
