"""Datasets: validated containers, a seeded synthetic generator, and an IDX
file loader.

Synthetic data is drawn from per-class Gaussian clusters.  Class means are a
deterministic function of (classes, features, separation, seed) alone, so
client shards and held-out splits generated from the same seed share the same
underlying distribution while using disjoint random streams.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Dataset",
    "generate_synthetic",
    "generate_holdout",
    "load_idx",
    "IDX_IMAGES_MAGIC",
    "IDX_LABELS_MAGIC",
]

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801

# spawn-key tags keeping the mean/client/holdout streams disjoint
_MEANS_STREAM = 0
_CLIENT_STREAM = 1
_HOLDOUT_STREAM = 2


@dataclass(frozen=True, eq=False)
class Dataset:
    """Feature matrix with integer labels and a declared class count."""

    features: np.ndarray  # (n, d) float64
    labels: np.ndarray  # (n,) int64 in [0, num_classes)
    num_classes: int

    def __post_init__(self) -> None:
        feats = np.array(self.features, dtype=np.float64, copy=True)
        labs = np.array(self.labels, dtype=np.int64, copy=True)
        if feats.ndim != 2:
            raise ValueError("features must be a 2-D array")
        if labs.ndim != 1 or labs.shape[0] != feats.shape[0]:
            raise ValueError("labels must be 1-D and match the feature rows")
        if not np.all(np.isfinite(feats)):
            raise ValueError("features must be finite")
        if self.num_classes < 1:
            raise ValueError("num_classes must be positive")
        if labs.size and (labs.min() < 0 or labs.max() >= self.num_classes):
            raise ValueError("labels out of range")
        feats.setflags(write=False)
        labs.setflags(write=False)
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labs)

    @property
    def size(self) -> int:
        return int(self.labels.shape[0])

    @property
    def num_features(self) -> int:
        return int(self.features.shape[1])


# --------------------------------------------------------------------------- #
# synthetic Gaussian clusters
# --------------------------------------------------------------------------- #


def _class_means(num_classes: int, num_features: int, separation: float, seed: int) -> np.ndarray:
    """Deterministic class means whose minimum pairwise distance is `separation`."""
    if separation < 0:
        raise ValueError("separation must be non-negative")
    if num_classes == 1 or separation == 0.0:
        return np.zeros((num_classes, num_features))
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(_MEANS_STREAM,)))
    raw = rng.standard_normal((num_classes, num_features))
    raw -= raw.mean(axis=0)  # centre the cluster layout so feature norms stay modest
    dists = [
        float(np.linalg.norm(raw[i] - raw[j]))
        for i in range(num_classes)
        for j in range(i + 1, num_classes)
    ]
    closest = min(dists)
    if closest == 0.0:  # astronomically unlikely; keep the function total
        raise RuntimeError("degenerate mean draw")
    return raw * (separation / closest)


def _balanced_labels(n: int, num_classes: int, rng: np.random.Generator) -> np.ndarray:
    # round-robin assignment keeps class counts within one of each other
    labels = np.arange(n, dtype=np.int64) % num_classes
    return labels[rng.permutation(n)]


def _cluster_dataset(
    n: int,
    means: np.ndarray,
    num_classes: int,
    rng: np.random.Generator,
) -> Dataset:
    labels = _balanced_labels(n, num_classes, rng)
    features = means[labels] + rng.standard_normal((n, means.shape[1]))
    return Dataset(features=features, labels=labels, num_classes=num_classes)


def generate_synthetic(
    num_clients: int,
    per_client: int,
    num_features: int,
    num_classes: int,
    separation: float,
    seed: int,
) -> list[Dataset]:
    """Per-client shards of unit-variance Gaussian clusters.

    Each client draws from its own seeded stream, so the list is reproducible
    as a whole and also stable if clients are provisioned in any order.
    Class counts inside each shard are balanced within one example.
    """
    if num_clients < 1 or per_client < 1:
        raise ValueError("num_clients and per_client must be positive")
    if num_features < 1 or num_classes < 1:
        raise ValueError("num_features and num_classes must be positive")
    means = _class_means(num_classes, num_features, separation, seed)
    shards = []
    for idx in range(num_clients):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(_CLIENT_STREAM, idx)))
        shards.append(_cluster_dataset(per_client, means, num_classes, rng))
    return shards


def generate_holdout(
    size: int,
    num_features: int,
    num_classes: int,
    separation: float,
    seed: int,
) -> Dataset:
    """Evaluation split from the same class means but a disjoint stream."""
    if size < 1:
        raise ValueError("size must be positive")
    means = _class_means(num_classes, num_features, separation, seed)
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(_HOLDOUT_STREAM,)))
    return _cluster_dataset(size, means, num_classes, rng)


# --------------------------------------------------------------------------- #
# IDX files
# --------------------------------------------------------------------------- #


def _read_be32(blob: bytes, offset: int) -> int:
    return struct.unpack_from(">I", blob, offset)[0]


def load_idx(images_path: str, labels_path: str, subset: int, seed: int) -> Dataset:
    """Load an IDX image/label pair into a flat-feature Dataset.

    The images file must carry magic 0x00000803 with big-endian count, rows,
    and cols; the labels file must carry magic 0x00000801 with a matching
    count.  Pixel bytes are scaled to [0, 1].  A seeded subset of `subset`
    examples is drawn without replacement.
    """
    with open(images_path, "rb") as fh:
        img_blob = fh.read()
    with open(labels_path, "rb") as fh:
        lab_blob = fh.read()

    if len(img_blob) < 16:
        raise ValueError("images file truncated before header")
    if _read_be32(img_blob, 0) != IDX_IMAGES_MAGIC:
        raise ValueError(f"bad images magic {_read_be32(img_blob, 0):#010x}")
    count = _read_be32(img_blob, 4)
    rows = _read_be32(img_blob, 8)
    cols = _read_be32(img_blob, 12)
    if rows == 0 or cols == 0:
        raise ValueError(f"images hold no pixels ({rows}x{cols})")
    if len(img_blob) != 16 + count * rows * cols:
        raise ValueError("images payload length mismatch")

    if len(lab_blob) < 8:
        raise ValueError("labels file truncated before header")
    if _read_be32(lab_blob, 0) != IDX_LABELS_MAGIC:
        raise ValueError(f"bad labels magic {_read_be32(lab_blob, 0):#010x}")
    lab_count = _read_be32(lab_blob, 4)
    if lab_count != count:
        raise ValueError(f"label count {lab_count} does not match image count {count}")
    if len(lab_blob) != 8 + count:
        raise ValueError("labels payload length mismatch")

    if not 1 <= subset <= count:
        raise ValueError(f"subset must be in [1, {count}]")

    pixels = np.frombuffer(img_blob, dtype=np.uint8, offset=16).reshape(count, rows * cols)
    labels = np.frombuffer(lab_blob, dtype=np.uint8, offset=8).astype(np.int64)
    num_classes = int(labels.max()) + 1 if count else 1

    rng = np.random.default_rng(seed)
    picked = np.sort(rng.choice(count, size=subset, replace=False))
    features = pixels[picked].astype(np.float64) / 255.0
    return Dataset(features=features, labels=labels[picked], num_classes=num_classes)
