"""File formats, dataset manifests and report emission.

The native volume format is a raw little-endian payload next to a JSON
sidecar at `<payload>.json`:

    {"dims": [nx,ny,nz], "spacing_mm": [sx,sy,sz],
     "dtype": "f32le" | "u8", "order": "x-fastest", "modality": "..."}

f32le payloads load as probability volumes, u8 payloads as label volumes; the
linearization is x-fastest on disk. In memory every loaded volume is C-ordered
(z fastest): the payload is transposed once, when it is read, so that no later
pass reads it with a transposed stride. NIfTI-1 is supported read-only for
uncompressed 3D float32/uint8 single files. Reports are emitted with fixed
field order and floats rounded to 6 significant digits so identical runs are
byte-identical.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .discovery import (
    AvailabilityTable,
    CaseRecord,
    GridSearchResult,
    MCResult,
    RuleEvaluation,
)
from .errors import DataError, VolumeFormatError
from .metrics import MetricsReport
from .rules import decision_from_number
from .sampling import SampledRuleSet
from .volumes import LabelVolume, Modality, ProbabilityVolume

SIDECAR_SUFFIX = ".json"
_DTYPES = {"f32le": np.dtype("<f4"), "u8": np.dtype("u1")}


def _sidecar_and_payload(path) -> tuple[Path, Path]:
    path = Path(path)
    if path.suffix == SIDECAR_SUFFIX:
        return path, path.with_suffix("")
    return Path(str(path) + SIDECAR_SUFFIX), path


def save_volume(volume, path) -> Path:
    """Write payload at `path` and sidecar at `path.json`; returns payload path."""
    sidecar, payload = _sidecar_and_payload(path)
    if isinstance(volume, ProbabilityVolume):
        dtype_name = "f32le"
        raw = volume.values.astype("<f4")
        modality = volume.modality.value
    elif isinstance(volume, LabelVolume):
        dtype_name = "u8"
        raw = volume.values.astype("u1")
        modality = "label"
    else:
        raise TypeError(f"cannot save {type(volume).__name__}")
    payload.parent.mkdir(parents=True, exist_ok=True)
    payload.write_bytes(raw.ravel(order="F").tobytes())
    meta = {
        "dims": list(volume.dims),
        "spacing_mm": [float(s) for s in volume.spacing],
        "dtype": dtype_name,
        "order": "x-fastest",
        "modality": modality,
    }
    sidecar.write_text(json.dumps(meta, indent=2) + "\n")
    return payload


def _read_bytes(path: Path, what: str) -> bytes:
    """The bytes of the file `path`, which holds a volume's `what`; a
    VolumeFormatError when no such file can be read, e.g. a directory or a
    name the file system rejects."""
    try:
        return path.read_bytes()
    except FileNotFoundError:
        raise VolumeFormatError(f"missing {what} {path}") from None
    except (OSError, ValueError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise VolumeFormatError(f"cannot read {what} {path}: {reason}") from None


def _c_ordered(raw: np.ndarray, dims, dtype) -> np.ndarray:
    """The x-fastest payload `raw`, a flat array of voxels, as a C-ordered
    `dtype` array indexed [x, y, z]: cast and transposed in one copy."""
    return raw.reshape(dims, order="F").astype(dtype, order="C")


def load_volume(path):
    """Read a sidecar+payload pair; dtype decides the volume type."""
    sidecar, payload = _sidecar_and_payload(path)
    text = _read_bytes(sidecar, "sidecar")
    blob = _read_bytes(payload, "payload")
    try:
        meta = json.loads(text.decode())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise VolumeFormatError(f"sidecar {sidecar} is not valid JSON: {exc}") from None
    if not isinstance(meta, dict):
        raise VolumeFormatError(f"sidecar {sidecar}: must hold a JSON object")

    dims = meta.get("dims")
    if not (isinstance(dims, list) and len(dims) == 3
            and all(isinstance(d, int) and not isinstance(d, bool) and d > 0 for d in dims)):
        raise VolumeFormatError(f"sidecar {sidecar}: dims must be 3 positive integers, got {dims}")
    dims = tuple(dims)
    spacing = meta.get("spacing_mm", [1.0, 1.0, 1.0])
    if not (isinstance(spacing, list) and len(spacing) == 3
            and all(isinstance(s, (int, float)) and not isinstance(s, bool)
                    and 0 < s <= sys.float_info.max for s in spacing)):
        raise VolumeFormatError(
            f"sidecar {sidecar}: spacing_mm must be 3 positive finite reals, got {spacing}"
        )
    order = meta.get("order", "x-fastest")
    if order != "x-fastest":
        raise VolumeFormatError(f"sidecar {sidecar}: unsupported order {order!r}")
    dtype_name = meta.get("dtype")
    if not isinstance(dtype_name, str) or dtype_name not in _DTYPES:
        raise VolumeFormatError(
            f"sidecar {sidecar}: dtype must be one of {sorted(_DTYPES)}, got {dtype_name!r}"
        )
    dtype = _DTYPES[dtype_name]

    expected = math.prod(dims) * dtype.itemsize
    if len(blob) != expected:
        raise VolumeFormatError(
            f"payload {payload}: expected {expected} bytes for dims {dims} ({dtype_name}), "
            f"got {len(blob)}"
        )
    raw = np.frombuffer(blob, dtype=dtype)

    if dtype_name == "u8":
        if not np.all((raw == 0) | (raw == 1)):
            raise VolumeFormatError(f"payload {payload}: u8 label values must be 0 or 1")
        return LabelVolume(_c_ordered(raw, dims, bool), spacing=tuple(spacing))
    values = _c_ordered(raw, dims, np.float64)
    modality = meta.get("modality", "combined")
    try:
        modality = Modality(modality)
    except ValueError:
        modality = Modality.COMBINED
    try:  # the grid is checked above, so only the probability range can fail here
        return ProbabilityVolume(values, spacing=tuple(spacing), modality=modality)
    except ValueError as exc:
        raise VolumeFormatError(f"payload {payload}: {exc}") from None


# --- NIfTI-1 (read-only, minimal) -------------------------------------------

_NIFTI_DTYPES = {2: "u1", 16: "f4"}


def load_nifti1(path):
    """Parse an uncompressed single-file 3D NIfTI-1 volume.

    float32 data load as a probability volume (values must already lie in
    [0,1] after scl scaling), uint8 as a label volume. Anything else —
    gzip, 4D, other dtypes, detached headers — is rejected.
    """
    path = Path(path)
    blob = _read_bytes(path, "NIfTI file")
    if blob[:2] == b"\x1f\x8b":
        raise VolumeFormatError(f"{path}: gzip-compressed NIfTI is not supported")
    if len(blob) < 348:
        raise VolumeFormatError(f"{path}: too short for a NIfTI-1 header ({len(blob)} bytes)")

    for bo in ("<", ">"):
        if int(np.frombuffer(blob, dtype=f"{bo}i4", count=1, offset=0)[0]) == 348:
            break
    else:
        raise VolumeFormatError(f"{path}: sizeof_hdr is not 348 in either byte order")

    magic = blob[344:348]
    if magic != b"n+1\x00":
        raise VolumeFormatError(f"{path}: bad magic {magic!r}, expected b'n+1\\x00'")

    dim = np.frombuffer(blob, dtype=f"{bo}i2", count=8, offset=40)
    if int(dim[0]) != 3:
        raise VolumeFormatError(f"{path}: only 3D volumes supported, got dim[0]={int(dim[0])}")
    dims = tuple(int(d) for d in dim[1:4])
    if min(dims) < 1:
        raise VolumeFormatError(f"{path}: non-positive dimensions {dims}")

    datatype = int(np.frombuffer(blob, dtype=f"{bo}i2", count=1, offset=70)[0])
    if datatype not in _NIFTI_DTYPES:
        raise VolumeFormatError(
            f"{path}: unsupported datatype code {datatype} (need 2=uint8 or 16=float32)"
        )
    dtype = np.dtype(bo + _NIFTI_DTYPES[datatype])

    pixdim = np.frombuffer(blob, dtype=f"{bo}f4", count=8, offset=76)
    spacing = tuple(float(p) for p in pixdim[1:4])
    if not all(math.isfinite(s) and s > 0 for s in spacing):
        raise VolumeFormatError(f"{path}: pixdim spacing must be positive and finite, got {spacing}")

    vox_offset = float(np.frombuffer(blob, dtype=f"{bo}f4", count=1, offset=108)[0])
    if not (math.isfinite(vox_offset) and vox_offset == int(vox_offset) and vox_offset >= 348):
        raise VolumeFormatError(f"{path}: bad vox_offset {vox_offset}")
    offset = int(vox_offset)
    scl_slope = float(np.frombuffer(blob, dtype=f"{bo}f4", count=1, offset=112)[0])
    scl_inter = float(np.frombuffer(blob, dtype=f"{bo}f4", count=1, offset=116)[0])

    n_bytes = int(np.prod(dims)) * dtype.itemsize
    if len(blob) < offset + n_bytes:
        raise VolumeFormatError(
            f"{path}: payload truncated, need {offset + n_bytes} bytes, have {len(blob)}"
        )
    raw = np.frombuffer(blob, dtype=dtype, count=int(np.prod(dims)), offset=offset)
    values = _c_ordered(raw, dims, np.float64)
    if scl_slope != 0.0:
        # a non-finite result is reported below as a data error, not warned about
        with np.errstate(over="ignore", invalid="ignore"):
            values = values * scl_slope + scl_inter

    if datatype == 2:
        if not np.all((values == 0) | (values == 1)):
            raise VolumeFormatError(f"{path}: uint8 labels must be 0/1 after scaling")
        return LabelVolume(values.astype(bool), spacing=spacing)
    try:  # the grid is checked above, so only the probability range can fail here
        return ProbabilityVolume(values, spacing=spacing)
    except ValueError as exc:
        raise VolumeFormatError(f"{path}: {exc} after scaling") from None


def load_any_volume(path):
    """Dispatch on extension: .nii → NIfTI-1, anything else → sidecar format."""
    if str(path).endswith(".nii"):
        return load_nifti1(path)
    return load_volume(path)


# --- dataset manifests -------------------------------------------------------

MANIFEST_VERSION = 1
_MODALITY_KEYS = ("T2W", "DWI_hb", "ADC")


def write_manifest(path, cases: list[dict], meta: dict | None = None) -> Path:
    """Manifest = JSON with per-case relative paths and a split tag each."""
    path = Path(path)
    doc = {"version": MANIFEST_VERSION}
    doc.update(meta or {})
    doc["cases"] = cases
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(_round_floats(doc), indent=2) + "\n")
    return path


def _check_manifest_path(value, what: str) -> None:
    if not isinstance(value, str) or not value:
        raise DataError(f"{what} must be a non-empty path string, got {value!r}")


def _check_manifest_entries(path: Path, doc) -> list[dict]:
    """The case entries of a manifest document, each checked for shape and types."""
    if not isinstance(doc, dict):
        raise DataError(f"manifest {path} is not a JSON object")
    entries = doc.get("cases")
    if not isinstance(entries, list):
        raise DataError(f"manifest {path} has no 'cases' list")
    seen = set()
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise DataError(f"manifest {path}: case entry {i} is not an object")
        case_id = entry.get("case_id")
        if case_id is None:
            raise DataError(f"manifest {path}: case entry without case_id")
        if not isinstance(case_id, str) or not case_id or not case_id.isprintable():
            raise DataError(f"manifest {path}: case_id must be a non-empty string of "
                            f"printable characters, got {case_id!r}")
        if case_id in seen:
            raise DataError(f"manifest {path}: duplicate case_id {case_id!r}")
        seen.add(case_id)
        mod_paths = entry.get("modalities", {})
        if not isinstance(mod_paths, dict):
            raise DataError(f"case {case_id}: modalities must be an object")
        for key in _MODALITY_KEYS:
            if key not in mod_paths:
                raise DataError(f"case {case_id}: missing modality {key} in manifest")
            _check_manifest_path(mod_paths[key], f"case {case_id}: modality {key}")
        if entry.get("truth") is None:
            raise DataError(f"case {case_id}: missing truth in manifest")
        _check_manifest_path(entry["truth"], f"case {case_id}: truth")
        zones = entry.get("zones")
        if zones is not None and not isinstance(zones, dict):
            raise DataError(f"case {case_id}: zones must be an object")
        for name, rel in (zones or {}).items():
            _check_manifest_path(rel, f"case {case_id}: zone {name}")
    return entries


@dataclass(frozen=True)
class CaseSource:
    """One checked manifest entry, whose volumes are read only by `load()`.

    The entry's paths are relative to `base`; `zones` names the zone volumes
    to read, each where the entry lists it, and every zone it lists when
    None. A source holds no volume, so a sweep can hold one per case and load
    each case in the worker that scores it.
    """

    case_id: str
    base: Path
    entry: dict
    zones: tuple | None = None

    def load(self) -> CaseRecord:
        """The case as a `CaseRecord`; DataError for a volume that cannot be
        read or is of the wrong kind."""
        case_id, entry = self.case_id, self.entry
        modalities = []
        for key in _MODALITY_KEYS:
            vol = load_any_volume(self.base / entry["modalities"][key])
            if not isinstance(vol, ProbabilityVolume):
                raise DataError(f"case {case_id}: modality {key} is not a probability volume")
            modalities.append(vol)
        truth = load_any_volume(self.base / entry["truth"])
        if not isinstance(truth, LabelVolume):
            raise DataError(f"case {case_id}: truth is not a label volume")
        read = {}
        for name, rel in sorted((entry.get("zones") or {}).items()):
            if self.zones is not None and name not in self.zones:
                continue
            read[name] = load_any_volume(self.base / rel)
            if not isinstance(read[name], LabelVolume):
                raise DataError(f"case {case_id}: zone {name} is not a label volume")
        return CaseRecord(case_id=case_id, modalities=tuple(modalities), truth=truth,
                          zones=read or None)


def case_sources(path, split: str | None = None, zones=None) -> tuple[list[CaseSource], dict]:
    """(one `CaseSource` per case, manifest dict), in manifest order; `split`
    filters to one split when given, and `zones` is as for `CaseSource`.

    Every entry is checked here, before any volume is read: a malformed
    manifest raises DataError, as do duplicate case ids and a split with no
    cases. A volume that cannot be read fails only its source's `load()`.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"manifest {path} does not exist")
    try:
        doc = json.loads(path.read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise DataError(f"manifest {path} is not valid JSON: {exc}") from None
    entries = _check_manifest_entries(path, doc)
    zones = None if zones is None else tuple(zones)
    sources = [CaseSource(entry["case_id"], path.parent, entry, zones)
               for entry in entries if split is None or entry.get("split") == split]
    if not sources:
        raise DataError(
            f"manifest {path} produced no cases" + (f" for split {split!r}" if split else "")
        )
    return sources, doc


def case_file(directory, case_id: str, suffix: str) -> Path:
    """`directory/<case_id><suffix>`; DataError unless the case id is a single
    plain path component, so that no case writes outside `directory`."""
    if case_id in ("", ".", "..") or any(c in case_id for c in "/\\\0"):
        raise DataError(f"case id {case_id!r} cannot name a file in {directory}")
    return Path(directory) / f"{case_id}{suffix}"


# --- reports ------------------------------------------------------------------


def _round_floats(obj):
    """Round all floats to 6 significant digits for stable, readable reports."""
    if isinstance(obj, float):
        if math.isfinite(obj):
            return float(f"{obj:.6g}")
        return obj
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def report_dict(result) -> dict:
    if isinstance(result, dict):
        return result
    to_dict = getattr(result, "to_dict", None)
    if to_dict is None:
        raise TypeError(f"cannot serialize {type(result).__name__}")
    return to_dict()


def _csv_rows(result) -> tuple[list[str], list[list]]:
    if isinstance(result, GridSearchResult):
        rows = []
        stacking = any(r.model == "stacking" for r in result.rows)
        header = ["rank", "model"]
        header += (
            ["rule_number", "decision_bits", "b1", "b2", "b3", "b0"]
            if stacking
            else ["alpha1", "alpha2", "alpha3"]
        )
        header += [
            "mean_dsc", "sd_dsc", "mean_hd95", "mean_recall", "mean_precision", "n_cases",
        ]
        for rank, row in enumerate(result.rows, start=1):
            rec = [rank, row.model]
            if stacking:
                bits = ""
                if row.rule_number is not None:
                    bits = "".join(str(b) for b in decision_from_number(row.rule_number).as_ints())
                rec += [row.rule_number, bits] + [float(b) for b in row.rule.beta]
            else:
                rec += [float(a) for a in row.rule.alpha]
            rec += [
                row.mean_dsc, row.sd_dsc, row.mean_hd95,
                row.mean_recall, row.mean_precision, row.n_cases,
            ]
            rows.append(rec)
        return header, rows
    if isinstance(result, AvailabilityTable):
        header = [
            "subset", "alpha1", "alpha2", "alpha3", "mean_dsc", "delta_dsc",
            "mean_hd95", "delta_hd95", "mean_recall", "mean_precision", "n_cases",
        ]
        rows = []
        for row in result.rows:
            a = row.evaluation.rule.as_tuple()
            rows.append([
                row.subset, a[0], a[1], a[2], row.evaluation.mean_dsc, row.delta_dsc,
                row.evaluation.mean_hd95, row.delta_hd95, row.evaluation.mean_recall,
                row.evaluation.mean_precision, row.evaluation.n_cases,
            ])
        return header, rows
    if isinstance(result, MCResult):
        header = ["case_id", "voxel_variance_max", "voxel_variance_mean", "dsc_mean", "dsc_variance"]
        rows = [
            [c.case_id, float(c.variance.max()), float(c.variance.mean()), c.dsc_mean, c.dsc_variance]
            for c in result.cases
        ]
        return header, rows
    if isinstance(result, MetricsReport):
        d = result.to_dict()
        return list(d.keys()), [list(d.values())]
    if isinstance(result, RuleEvaluation):
        d = result.to_dict()
        return list(d.keys()), [[_flatten(v) for v in d.values()]]
    if isinstance(result, SampledRuleSet):
        header = ["rule_number", "decision_bits", "b1", "b2", "b3", "b0", "residual"]
        rows = []
        for entry in result.entries:
            bits = "".join(str(b) for b in entry.decision.as_ints())
            rows.append([entry.rule_number, bits] + [float(b) for b in entry.rule.beta] + [entry.residual])
        return header, rows
    raise TypeError(f"no CSV layout for {type(result).__name__}")


def _flatten(value):
    if isinstance(value, (list, tuple)):
        return ";".join(_fmt(v) for v in value)
    return value


def heatmap_csv(result: GridSearchResult) -> str:
    """CSV of (alpha1, alpha2, dsc); alpha3 is implied by 1 − alpha1 − alpha2."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["alpha1", "alpha2", "dsc"])
    for a1, a2, value in result.heatmap_rows():
        writer.writerow([_fmt(a1), _fmt(a2), _fmt(value)])
    return buf.getvalue()


def render_report(result, fmt: str = "json") -> str:
    if fmt == "json":
        return json.dumps(_round_floats(report_dict(result)), indent=2) + "\n"
    if fmt == "csv":
        header, rows = _csv_rows(result)
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])
        return buf.getvalue()
    raise ValueError(f"unknown report format {fmt!r}")


def check_output(path, option: str, directory: bool = False) -> None:
    """DataError naming `option` and `path` unless a file (a directory, with
    `directory`) can be written at `path`: it is no entry of the other kind,
    and the nearest of it and its ancestors that exists may be written, and
    is a directory if it is an ancestor. Nothing is created."""
    path = Path(path)
    existing = path
    while not existing.exists() and existing != existing.parent:
        existing = existing.parent
    if existing == path and path.is_dir() != directory:
        reason = f"it is {'not ' if directory else ''}a directory"
    elif existing != path and not existing.is_dir():
        reason = f"{existing} is not a directory"
    elif not os.access(existing, os.W_OK):
        reason = f"{existing} is not writable"
    else:
        return
    raise DataError(f"{option} {path}: cannot write a {'directory' if directory else 'file'} "
                    f"there: {reason}")


def write_report(result, fmt: str = "json", path=None) -> str:
    """Render to `fmt`; write to `path` when given. Returns the rendered text."""
    text = render_report(result, fmt)
    if path is not None:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return text
