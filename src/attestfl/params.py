"""Flat parameter vectors with an explicit layer layout.

A ParameterVector is the unit the protocol moves around: a 1-D float64 array
plus a layout describing how slices of it map onto named layer tensors.  Two
vectors combine only when their layouts are identical, which keeps model
updates from silently mixing architectures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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

    def slices(self) -> dict[str, tuple[slice, tuple[int, ...]]]:
        out: dict[str, tuple[slice, tuple[int, ...]]] = {}
        offset = 0
        for name, shape in self.layers:
            n = prod(shape)
            out[name] = (slice(offset, offset + n), shape)
            offset += n
        return out


def _freeze(values: np.ndarray) -> np.ndarray:
    arr = np.array(values, dtype=np.float64, copy=True).reshape(-1)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class ParameterVector:
    """Immutable float64 vector bound to a layout.

    Values are copied and marked read-only at construction; every arithmetic
    operation returns a fresh vector.  Non-finite entries are rejected.
    """

    values: np.ndarray
    layout: ParameterLayout
    _skip_checks: bool = field(default=False, repr=False)

    def __post_init__(self) -> None:
        if not self._skip_checks:
            object.__setattr__(self, "values", _freeze(self.values))
            if self.values.size != self.layout.size:
                raise LayoutError(
                    f"vector length {self.values.size} does not match layout size {self.layout.size}"
                )
            if not np.all(np.isfinite(self.values)):
                raise ValueError("parameter values must be finite")
        object.__setattr__(self, "_skip_checks", False)

    # ---- construction helpers ---- #

    @classmethod
    def zeros(cls, layout: ParameterLayout) -> "ParameterVector":
        return cls(np.zeros(layout.size), layout)

    @classmethod
    def _wrap(cls, values: np.ndarray, layout: ParameterLayout) -> "ParameterVector":
        # internal fast path for freshly computed, finite, right-sized arrays
        if not np.all(np.isfinite(values)):
            raise ValueError("parameter values must be finite")
        values = values.astype(np.float64, copy=False).reshape(-1)
        values.flags.writeable = False
        return cls(values, layout, _skip_checks=True)

    # ---- views ---- #

    @property
    def size(self) -> int:
        return int(self.values.size)

    def tensors(self) -> dict[str, np.ndarray]:
        """Read-only views of each layer, reshaped per the layout."""
        return {
            name: self.values[sl].reshape(shape)
            for name, (sl, shape) in self.layout.slices().items()
        }

    # ---- arithmetic (layout-checked) ---- #

    def _check_combinable(self, other: "ParameterVector") -> None:
        if self.layout != other.layout:
            raise LayoutError("parameter vectors have different layouts")

    def add(self, other: "ParameterVector") -> "ParameterVector":
        self._check_combinable(other)
        return ParameterVector._wrap(self.values + other.values, self.layout)

    def scale(self, factor: float) -> "ParameterVector":
        return ParameterVector._wrap(self.values * float(factor), self.layout)
