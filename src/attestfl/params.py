"""Flat parameter vectors with an explicit layer layout.

A ParameterVector is the unit the protocol moves around: a 1-D float64 array
plus a layout describing how slices of it map onto named layer tensors.  Two
vectors combine only when their layouts are identical, which keeps model
updates from silently mixing architectures.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

import numpy as np

__all__ = ["LayoutError", "ParameterLayout", "ParameterVector"]


class LayoutError(ValueError):
    """Layouts disagree or a vector does not fit its layout."""


@dataclass(frozen=True)
class ParameterLayout:
    """Ordered (name, shape) entries; flat offsets follow declaration order."""

    layers: tuple[tuple[str, tuple[int, ...]], ...]

    def __post_init__(self) -> None:
        names = [name for name, _ in self.layers]
        if len(set(names)) != len(names):
            raise LayoutError("duplicate layer names")
        for name, shape in self.layers:
            if any(int(dim) <= 0 for dim in shape):
                raise LayoutError(f"layer {name!r} has a non-positive dimension")

    @property
    def size(self) -> int:
        return sum(prod(shape) for _, shape in self.layers)

    def split(self, values: np.ndarray) -> dict[str, np.ndarray]:
        """Views of each layer of a flat `values` array, reshaped per the
        layout; writes through a view land in `values`."""
        out: dict[str, np.ndarray] = {}
        offset = 0
        for name, shape in self.layers:
            n = prod(shape)
            out[name] = values[offset : offset + n].reshape(shape)
            offset += n
        return out


@dataclass(frozen=True, eq=False)
class ParameterVector:
    """Immutable float64 vector bound to a layout.

    Values are copied and marked read-only at construction; every arithmetic
    operation returns a fresh vector.  Non-finite entries are rejected.
    """

    values: np.ndarray
    layout: ParameterLayout

    def __post_init__(self) -> None:
        values = np.array(self.values, dtype=np.float64, copy=True).reshape(-1)
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        if values.size != self.layout.size:
            raise LayoutError(f"vector length {values.size} does not match layout size {self.layout.size}")
        if not np.all(np.isfinite(values)):
            raise ValueError("parameter values must be finite")

    @classmethod
    def zeros(cls, layout: ParameterLayout) -> "ParameterVector":
        return cls(np.zeros(layout.size), layout)

    # ---- views ---- #

    @property
    def size(self) -> int:
        return int(self.values.size)

    # ---- arithmetic (layout-checked) ---- #

    def add(self, other: "ParameterVector") -> "ParameterVector":
        if self.layout != other.layout:
            raise LayoutError("parameter vectors have different layouts")
        return ParameterVector(self.values + other.values, self.layout)
