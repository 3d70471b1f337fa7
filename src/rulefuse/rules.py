"""Boolean condition system for three-modality combining rules.

A condition is one triple of per-modality positive/negative findings; the
canonical condition matrix enumerates all eight triples as columns, ordered
so that column k holds the bits of k-1 with the T2W row as the most
significant bit. A decision vector assigns one combined outcome to each
column; read MSB-first it yields the rule number in [0, 255].
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

N_CONDITIONS = 8


class Zone(str, enum.Enum):
    """Prostate region a decision rule applies to."""

    WG = "WG"
    TZ = "TZ"
    PZ = "PZ"
    CUSTOM = "custom"


# Binary decisions derived from the PI-RADS scoring flow chart, one rule
# number per zone (positive means combined score >= 3).
PIRADS_RULE_NUMBERS = {Zone.WG: 63, Zone.TZ: 31, Zone.PZ: 119}


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class ConditionMatrix:
    """3x8 Boolean matrix whose columns enumerate all modality triples."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        entries = np.asarray(self.entries, dtype=bool)
        if entries.shape != (3, N_CONDITIONS):
            raise ValueError(f"condition matrix must be 3x8, got {entries.shape}")
        cols = {tuple(int(v) for v in entries[:, k]) for k in range(N_CONDITIONS)}
        if len(cols) != N_CONDITIONS:
            raise ValueError("condition matrix columns must be pairwise distinct")
        object.__setattr__(self, "entries", _frozen(entries))

    def as_float(self) -> np.ndarray:
        return self.entries.astype(np.float64)

    def design_matrix(self) -> np.ndarray:
        """[R^T, 1]: the 8x4 design used by the stacking (logistic) fit."""
        return np.concatenate(
            [self.entries.T.astype(np.float64), np.ones((N_CONDITIONS, 1))], axis=1
        )

    def column(self, k: int) -> tuple[int, int, int]:
        """1-based column accessor, matching the k = 1..8 indexing convention."""
        if not 1 <= k <= N_CONDITIONS:
            raise ValueError(f"column index must be in [1, 8], got {k}")
        return tuple(int(v) for v in self.entries[:, k - 1])


def canonical_condition_matrix() -> ConditionMatrix:
    """The canonical condition system: column k encodes k-1 in binary, MSB = T2W."""
    entries = np.zeros((3, N_CONDITIONS), dtype=bool)
    for k in range(N_CONDITIONS):
        entries[0, k] = (k >> 2) & 1
        entries[1, k] = (k >> 1) & 1
        entries[2, k] = k & 1
    return ConditionMatrix(entries)


@dataclass(frozen=True)
class DecisionVector:
    """Eight combined outcomes, aligned with the canonical condition columns."""

    bits: np.ndarray
    zone: Zone = Zone.CUSTOM

    def __post_init__(self) -> None:
        bits = np.asarray(self.bits)
        if bits.shape != (N_CONDITIONS,):
            raise ValueError(f"decision vector must have 8 entries, got shape {bits.shape}")
        if not np.all((bits == 0) | (bits == 1)):
            raise ValueError("decision entries must be 0 or 1")
        object.__setattr__(self, "bits", _frozen(bits.astype(bool)))

    def as_float(self) -> np.ndarray:
        return self.bits.astype(np.float64)

    def as_ints(self) -> list[int]:
        return [int(b) for b in self.bits]

    @property
    def number(self) -> int:
        return rule_number(self)

    def is_constant(self) -> bool:
        return bool(self.bits.all() or not self.bits.any())


def rule_number(d: DecisionVector) -> int:
    """Decimal value of the decision vector, first entry most significant."""
    n = 0
    for b in d.bits:
        n = (n << 1) | int(b)
    return n


def decision_from_number(n: int, zone: Zone = Zone.CUSTOM) -> DecisionVector:
    """Inverse of rule_number: expand n into its 8 decision bits."""
    if not 0 <= n <= 255:
        raise ValueError(f"rule number must be in [0, 255], got {n}")
    bits = [(n >> (N_CONDITIONS - 1 - k)) & 1 for k in range(N_CONDITIONS)]
    return DecisionVector(np.array(bits, dtype=bool), zone=zone)


def pirads_decisions(zone: Zone | str) -> DecisionVector:
    """Binary PI-RADS-derived decisions for a prostate zone.

    TZ (rule 31) is positive when T2W is positive or both diffusion
    modalities are; PZ (rule 119) when either diffusion modality is
    positive; WG (rule 63) when T2W or DWI_hb is positive.
    """
    zone = Zone(zone)
    if zone not in PIRADS_RULE_NUMBERS:
        raise ValueError(f"no PI-RADS derivation for zone {zone.value!r}")
    return decision_from_number(PIRADS_RULE_NUMBERS[zone], zone=zone)
