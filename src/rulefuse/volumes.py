"""Voxel-grid value types shared by the combining, metric and I/O layers.

Volumes are immutable after construction and indexed values[x, y, z]; the
on-disk linearization is x-fastest (see volio). All volumes entering one
computation must share dimensions and spacing; nothing here resamples.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .errors import AlignmentError


class Modality(str, enum.Enum):
    T2W = "T2W"
    DWI_HB = "DWI_hb"
    ADC = "ADC"
    COMBINED = "combined"


def _check_grid(values: np.ndarray, spacing) -> tuple[float, float, float]:
    if values.ndim != 3:
        raise ValueError(f"volume must be 3D, got {values.ndim} dims")
    if min(values.shape) < 1:
        raise ValueError(f"volume dims must be strictly positive, got {values.shape}")
    spacing = tuple(float(s) for s in spacing)
    if len(spacing) != 3 or min(spacing) <= 0:
        raise ValueError(f"spacing must be 3 positive reals, got {spacing}")
    return spacing


def probability_range_error(values: np.ndarray) -> str | None:
    """Why `values` are not probabilities, or None when every voxel lies in [0, 1].

    min/max propagate NaN and every comparison with NaN is false, so the range
    test rejects NaN without a pass of its own; non-finite voxels are counted
    only once it has failed.
    """
    if not values.size:
        return None
    lo, hi = values.min(), values.max()
    if lo >= 0.0 and hi <= 1.0:
        return None
    n_bad = int(np.count_nonzero(~np.isfinite(values)))
    if n_bad:
        return f"{n_bad} non-finite probability voxels"
    return f"probability values must lie in [0, 1], found [{lo}, {hi}]"


@dataclass(frozen=True)
class ProbabilityVolume:
    """Per-voxel class probabilities for one modality (or a combined map)."""

    values: np.ndarray
    spacing: tuple[float, float, float] = (1.0, 1.0, 1.0)
    modality: Modality = Modality.COMBINED

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.float64)
        spacing = _check_grid(values, self.spacing)
        problem = probability_range_error(values)
        if problem:
            raise ValueError(problem)
        values.flags.writeable = False
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "spacing", spacing)
        object.__setattr__(self, "modality", Modality(self.modality))

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.values.shape

    def voxel_volume_mm3(self) -> float:
        return float(np.prod(self.spacing))


@dataclass(frozen=True)
class LabelVolume:
    """Binary segmentation mask on the same grid conventions."""

    values: np.ndarray
    spacing: tuple[float, float, float] = (1.0, 1.0, 1.0)

    def __post_init__(self) -> None:
        values = np.asarray(self.values)
        if values.dtype != bool:
            if not np.all((values == 0) | (values == 1)):
                raise ValueError("label values must be 0/1")
            values = values.astype(bool)
        spacing = _check_grid(values, self.spacing)
        values.flags.writeable = False
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "spacing", spacing)

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.values.shape

    def voxel_volume_mm3(self) -> float:
        return float(np.prod(self.spacing))

    def count(self) -> int:
        return int(self.values.sum())


@dataclass(frozen=True)
class LesionComponent:
    id: int
    indices: np.ndarray  # (n, 3) voxel coordinates
    volume_mm3: float

    @property
    def voxel_count(self) -> int:
        return self.indices.shape[0]


@dataclass(frozen=True)
class LesionSet:
    """Disjoint connected components of a mask under a stated connectivity."""

    components: tuple[LesionComponent, ...]
    connectivity: int

    def __post_init__(self) -> None:
        if self.connectivity not in (6, 18, 26):
            raise ValueError(f"connectivity must be 6, 18 or 26, got {self.connectivity}")
        object.__setattr__(self, "components", tuple(self.components))

    def __len__(self) -> int:
        return len(self.components)


def _describe(volume, index: int) -> str:
    modality = getattr(volume, "modality", None)
    if modality is not None:
        return f"volume[{index}] ({modality.value})"
    return f"volume[{index}]"


def validate_aligned(volumes, names=None) -> None:
    """Check that all volumes share dims and spacing.

    Raises AlignmentError naming the first offending volume and axis.
    """
    volumes = list(volumes)
    if not volumes:
        raise ValueError("validate_aligned requires at least one volume")
    if names is None:
        names = [_describe(v, i) for i, v in enumerate(volumes)]
    ref = volumes[0]
    for i, vol in enumerate(volumes[1:], start=1):
        for axis, (a, b) in enumerate(zip(ref.dims, vol.dims)):
            if a != b:
                raise AlignmentError(
                    f"{names[i]} axis {'xyz'[axis]}: dimension {b} != {a} of {names[0]}"
                )
        for axis, (a, b) in enumerate(zip(ref.spacing, vol.spacing)):
            if abs(a - b) > 1e-9 * max(abs(a), abs(b), 1.0):
                raise AlignmentError(
                    f"{names[i]} axis {'xyz'[axis]}: spacing {b} != {a} of {names[0]}"
                )
