"""Synthetic multi-modality cases with controllable informativeness.

Each case starts from a ground truth of non-overlapping ellipsoids. A
modality map blends a softened copy of the truth with noise:

    modality = fidelity·smooth(truth) + (1 − fidelity)·noise

where smooth(truth) = (1−w)·truth + w·blur(truth) and noise ~ N(0.5, sd)
clipped to [0,1]. With the blend weight w < 0.5, thresholding a full-fidelity
modality at 0.5 recovers the truth exactly. When a rule is planted, the truth
is regenerated as binarize(combine_linear(modalities, α*)), which makes the
planted rule reproduce the truth bit-exactly and all other rules imperfectly.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import ndimage

from . import volio
from .combine import binarize, check_binarization, combine_linear
from .discovery import DEFAULT_SPLIT_RATIOS, CaseRecord, assign_splits
from .errors import PackingError
from .fitting import LinearRule
from .volumes import LabelVolume, Modality, ProbabilityVolume

MODALITY_ORDER = (Modality.T2W, Modality.DWI_HB, Modality.ADC)
PACKING_ATTEMPTS = 500

# semi-axis range straddling a 15 mm diameter at 1 mm spacing
DEFAULT_RADIUS_RANGE = (4.0, 10.0)


# (field, entry count or None for a scalar, integral?): the types checked before the ranges
_NUMERIC_FIELDS = (("dims", 3, True), ("spacing", 3, False), ("n_lesions", None, True),
                   ("radius_range", 2, False), ("fidelity", 3, False), ("noise_sd", None, False),
                   ("smooth_halfwidth", None, True), ("smooth_weight", None, False),
                   ("threshold", None, False), ("min_region_voxels", None, True))


@dataclass(frozen=True)
class PhantomSpec:
    dims: tuple[int, int, int] = (48, 48, 48)
    spacing: tuple[float, float, float] = (1.0, 1.0, 1.0)
    n_lesions: int = 3
    radius_range: tuple[float, float] = DEFAULT_RADIUS_RANGE
    fidelity: tuple[float, float, float] = (0.9, 0.9, 0.9)
    noise_sd: float = 0.2
    planted_rule: LinearRule | None = None
    smooth_halfwidth: int = 2
    smooth_weight: float = 0.4
    threshold: float = 0.5
    min_region_voxels: int = 27
    zone_boxes: bool = False

    def __post_init__(self) -> None:
        for name, count, integral in _NUMERIC_FIELDS:
            value = getattr(self, name)
            items = value if count else [value]
            kind = numbers.Integral if integral else numbers.Real
            if not (isinstance(items, (list, tuple, np.ndarray)) and len(items) == (count or 1)
                    and all(isinstance(v, kind) and not isinstance(v, bool) and math.isfinite(v)
                            for v in items)):
                noun = "integer" if integral else "finite number"
                what = f"{count} {noun}s" if count else ("an " if integral else "a ") + noun
                raise ValueError(f"{name} must be {what}, got {value!r}")
            if count:
                object.__setattr__(self, name, tuple(map(int if integral else float, items)))
        if min(self.dims) < 16:
            raise ValueError(f"dims must be 3 integers >= 16, got {self.dims}")
        if min(self.spacing) <= 0:
            raise ValueError(f"spacing must be 3 positive reals, got {self.spacing}")
        if self.n_lesions < 0:
            raise ValueError(f"n_lesions must be >= 0, got {self.n_lesions}")
        lo, hi = self.radius_range
        if not 0 < lo <= hi:
            raise ValueError(f"radius_range must satisfy 0 < lo <= hi, got {self.radius_range}")
        if min(self.fidelity) < 0 or max(self.fidelity) > 1:
            raise ValueError(f"fidelity must be 3 values in [0,1], got {self.fidelity}")
        if self.noise_sd < 0:
            raise ValueError(f"noise_sd must be >= 0, got {self.noise_sd}")
        if self.smooth_halfwidth < 1:
            raise ValueError(f"smooth_halfwidth must be >= 1, got {self.smooth_halfwidth}")
        # w >= 0.5 would break exact threshold recovery of the truth
        if not 0.0 <= self.smooth_weight < 0.5:
            raise ValueError(f"smooth_weight must lie in [0, 0.5), got {self.smooth_weight}")
        check_binarization(self.threshold, self.min_region_voxels)
        if not isinstance(self.zone_boxes, bool):
            raise ValueError(f"zone_boxes must be true or false, got {self.zone_boxes!r}")

    def to_dict(self) -> dict:
        return {
            "dims": list(self.dims),
            "spacing": list(self.spacing),
            "n_lesions": self.n_lesions,
            "radius_range": list(self.radius_range),
            "fidelity": list(self.fidelity),
            "noise_sd": self.noise_sd,
            "planted_rule": None if self.planted_rule is None else list(self.planted_rule.as_tuple()),
            "smooth_halfwidth": self.smooth_halfwidth,
            "smooth_weight": self.smooth_weight,
            "threshold": self.threshold,
            "min_region_voxels": self.min_region_voxels,
            "zone_boxes": self.zone_boxes,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PhantomSpec":
        """The spec a JSON object describes; ValueError for any other value."""
        if not isinstance(data, dict):
            raise ValueError(f"a phantom spec must be a JSON object, got {data!r}")
        unknown = set(data) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown phantom spec fields: {sorted(unknown)}")
        data = dict(data)
        planted = data.get("planted_rule")
        if planted is not None:
            try:
                data["planted_rule"] = LinearRule(np.asarray(planted, dtype=np.float64))
            except TypeError:
                raise ValueError(f"planted_rule must be 3 numbers, got {planted!r}") from None
        return cls(**data)


def _place_lesions(rng: np.random.Generator, spec: PhantomSpec) -> list[tuple[np.ndarray, np.ndarray]]:
    """Sample (center, semi-axes) pairs with non-overlapping bounding spheres."""
    placed: list[tuple[np.ndarray, np.ndarray]] = []
    lo, hi = spec.radius_range
    for lesion in range(spec.n_lesions):
        for _ in range(PACKING_ATTEMPTS):
            semi = rng.uniform(lo, hi, size=3)
            center = np.empty(3)
            feasible = True
            for axis in range(3):
                low = semi[axis]
                high = spec.dims[axis] - 1 - semi[axis]
                if high <= low:
                    feasible = False
                    break
                center[axis] = rng.uniform(low, high)
            if not feasible:
                continue
            radius = float(semi.max())
            if all(
                np.linalg.norm(center - c) > radius + float(s.max()) for c, s in placed
            ):
                placed.append((center, semi))
                break
        else:
            raise PackingError(
                f"could not place lesion {lesion + 1}/{spec.n_lesions} "
                f"after {PACKING_ATTEMPTS} attempts (dims {spec.dims}, radii {spec.radius_range})"
            )
    return placed


def _rasterize(dims, lesions) -> np.ndarray:
    truth = np.zeros(dims, dtype=bool)
    for center, semi in lesions:
        # a voxel more than a semi-axis from the centre along an axis is
        # outside; the box keeps a voxel's margin past that bound
        box = tuple(slice(max(int(c - s) - 1, 0), min(int(c + s) + 2, n))
                    for c, s, n in zip(center, semi, dims))
        xs, ys, zs = (np.arange(b.start, b.stop) for b in box)
        q = (
            ((xs[:, None, None] - center[0]) / semi[0]) ** 2
            + ((ys[None, :, None] - center[1]) / semi[1]) ** 2
            + ((zs[None, None, :] - center[2]) / semi[2]) ** 2
        )
        truth[box] |= q <= 1.0
    return truth


def triangular_blur(values: np.ndarray, halfwidth: int) -> np.ndarray:
    """Separable triangular smoothing; voxels outside the volume count as 0."""
    ramp = np.arange(1, halfwidth + 1, dtype=np.float64)
    kernel = np.concatenate([ramp, [halfwidth + 1.0], ramp[::-1]])
    kernel /= kernel.sum()
    # two volumes, each pass reading one and writing the other; `values` is copied
    source, out = np.array(values, dtype=np.float64), np.empty(np.shape(values))
    for axis in range(3):
        ndimage.convolve1d(source, kernel, axis=axis, output=out, mode="constant", cval=0.0)
        source, out = out, source
    return source


def _zone_masks(dims, spacing) -> dict[str, LabelVolume]:
    """Central box as TZ, its complement as PZ."""
    tz = np.zeros(dims, dtype=bool)
    slices = tuple(slice(d // 4, d - d // 4) for d in dims)
    tz[slices] = True
    return {
        "TZ": LabelVolume(tz, spacing=spacing),
        "PZ": LabelVolume(~tz, spacing=spacing),
    }


def generate_case(seed, spec: PhantomSpec, case_id: str | None = None) -> CaseRecord:
    """One synthetic case; `seed` may be an int or a seed sequence list."""
    rng = np.random.default_rng(seed)
    lesions = _place_lesions(rng, spec)
    truth_values = _rasterize(spec.dims, lesions)
    # each volume is computed in place, in as few arrays as the formulas
    # allow; IEEE products and sums commute, so every value is as written
    smooth = triangular_blur(truth_values, spec.smooth_halfwidth)
    smooth *= spec.smooth_weight
    smooth += (1.0 - spec.smooth_weight) * truth_values

    modalities = []
    for modality, fidelity in zip(MODALITY_ORDER, spec.fidelity):
        noise = rng.normal(0.5, spec.noise_sd, size=spec.dims)
        np.clip(noise, 0.0, 1.0, out=noise)
        noise *= 1.0 - fidelity
        values = fidelity * smooth
        values += noise
        np.clip(values, 0.0, 1.0, out=values)
        modalities.append(ProbabilityVolume(values, spacing=spec.spacing, modality=modality))
    modalities = tuple(modalities)

    if spec.planted_rule is not None:
        truth = binarize(
            combine_linear(modalities, spec.planted_rule),
            threshold=spec.threshold,
            min_region_voxels=spec.min_region_voxels,
        )
    else:
        truth = LabelVolume(truth_values, spacing=spec.spacing)

    if case_id is None:
        case_id = f"case_{np.random.default_rng(seed).integers(1 << 32):08x}"
    zones = _zone_masks(spec.dims, spec.spacing) if spec.zone_boxes else None
    return CaseRecord(case_id=case_id, modalities=modalities, truth=truth, zones=zones)


def _case_seeds(seed: int, n_cases: int) -> list[tuple[str, list[int]]]:
    """(case id, seed) of each case of a dataset; case i is seeded by
    [seed, i], so cases are independent."""
    if n_cases < 1:
        raise ValueError(f"n_cases must be >= 1, got {n_cases}")
    return [(f"case_{i:04d}", [seed, i]) for i in range(n_cases)]


def generate_cases(seed: int, n_cases: int, spec: PhantomSpec) -> list[CaseRecord]:
    """In-memory dataset; case i is seeded by [seed, i] so cases are independent."""
    return [generate_case(case_seed, spec, case_id=case_id)
            for case_id, case_seed in _case_seeds(seed, n_cases)]


def _write_case(case: CaseRecord, split: str, out_dir: Path) -> dict:
    """Write one case's volumes under `out_dir/<case_id>/`; returns its manifest entry."""
    mod_paths = {}
    for volume in case.modalities:
        rel = f"{case.case_id}/{volume.modality.value}.f32le"
        volio.save_volume(volume, out_dir / rel)
        mod_paths[volume.modality.value] = rel
    truth_rel = f"{case.case_id}/truth.u8"
    volio.save_volume(case.truth, out_dir / truth_rel)
    entry = {
        "case_id": case.case_id,
        "split": split,
        "modalities": mod_paths,
        "truth": truth_rel,
    }
    if case.zones:
        zone_paths = {}
        for name in sorted(case.zones):
            rel = f"{case.case_id}/zone_{name}.u8"
            volio.save_volume(case.zones[name], out_dir / rel)
            zone_paths[name] = rel
        entry["zones"] = zone_paths
    return entry


def generate_dataset(seed: int, n_cases: int, spec: PhantomSpec, out_dir):
    """Write the cases of `generate_cases` as a case-per-directory dataset
    plus a manifest with split tags; returns (manifest path, its case entries).

    Each case is generated, written and dropped before the next is made, so
    at most one is in memory. Every case's lesions are placed before the
    first write, so a spec that cannot be packed raises PackingError with
    nothing written. Splits are assigned by hashing case ids with the same
    seed, so the assignment is reproducible from the manifest alone.
    """
    out_dir = Path(out_dir)
    seeds = _case_seeds(seed, n_cases)
    for _, case_seed in seeds:  # raises PackingError before anything is written
        _place_lesions(np.random.default_rng(case_seed), spec)
    assignment = assign_splits([case_id for case_id, _ in seeds], seed, DEFAULT_SPLIT_RATIOS)
    # each case is only an argument, so it is freed once it is written
    entries = [_write_case(generate_case(case_seed, spec, case_id=case_id), assignment[case_id],
                           out_dir)
               for case_id, case_seed in seeds]
    manifest_path = volio.write_manifest(
        out_dir / "manifest.json",
        entries,
        meta={
            "seed": seed,
            "n_cases": n_cases,
            "ratios": list(DEFAULT_SPLIT_RATIOS),
            "phantom_spec": spec.to_dict(),
        },
    )
    return manifest_path, entries
