import json
import struct
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from rulefuse.cli import main
from rulefuse.discovery import (
    CaseRecord,
    EvalConfig,
    grid_search_linear,
    monte_carlo_uncertainty,
)
from rulefuse.errors import DataError, VolumeFormatError
from rulefuse.fitting import fit_linear
from rulefuse.phantoms import PhantomSpec, generate_cases, generate_dataset
from rulefuse.rules import Zone, canonical_condition_matrix, pirads_decisions
from rulefuse.sampling import rejection_sample_stacking
from rulefuse.volio import (
    case_sources,
    heatmap_csv,
    load_any_volume,
    load_nifti1,
    load_volume,
    render_report,
    save_volume,
    write_manifest,
    write_report,
)
from rulefuse.volumes import LabelVolume, Modality, ProbabilityVolume

from test_discovery import truth_cases


def loaded_cases(path, split=None):
    """(cases, manifest dict): every source of `case_sources` loaded, in order."""
    sources, doc = case_sources(path, split=split)
    return [source.load() for source in sources], doc


# --- native sidecar format -----------------------------------------------------


def test_probability_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    vol = ProbabilityVolume(rng.random((5, 4, 3)), spacing=(0.5, 0.5, 3.0), modality=Modality.ADC)
    payload = save_volume(vol, tmp_path / "adc.f32le")
    loaded = load_volume(payload)
    assert isinstance(loaded, ProbabilityVolume)
    assert loaded.modality is Modality.ADC
    assert loaded.spacing == (0.5, 0.5, 3.0)
    # float32 is the storage precision, so round-tripping twice is exact
    np.testing.assert_array_equal(loaded.values, vol.values.astype("<f4").astype(np.float64))
    again = save_volume(loaded, tmp_path / "again.f32le")
    assert again.read_bytes() == payload.read_bytes()


def test_label_round_trip(tmp_path):
    mask = np.zeros((4, 4, 4), dtype=bool)
    mask[1:3, 1:3, 1:3] = True
    vol = LabelVolume(mask, spacing=(1.0, 1.5, 2.0))
    payload = save_volume(vol, tmp_path / "truth.u8")
    loaded = load_volume(payload)
    assert isinstance(loaded, LabelVolume)
    np.testing.assert_array_equal(loaded.values, mask)
    assert loaded.spacing == (1.0, 1.5, 2.0)


def test_payload_is_x_fastest(tmp_path):
    values = np.arange(24, dtype=np.float64).reshape(2, 3, 4) / 24.0
    payload = save_volume(ProbabilityVolume(values), tmp_path / "v.f32le")
    raw = np.frombuffer(payload.read_bytes(), dtype="<f4")
    # x varies fastest: the second stored element is (1,0,0), not (0,0,1)
    assert raw[0] == np.float32(values[0, 0, 0])
    assert raw[1] == np.float32(values[1, 0, 0])
    assert raw[2] == np.float32(values[0, 1, 0])


def test_load_accepts_sidecar_path(tmp_path):
    vol = ProbabilityVolume(np.full((2, 2, 2), 0.25))
    save_volume(vol, tmp_path / "v.f32le")
    loaded = load_volume(tmp_path / "v.f32le.json")
    assert loaded.dims == (2, 2, 2)


def test_missing_sidecar_and_payload(tmp_path):
    (tmp_path / "orphan.f32le").write_bytes(b"\x00" * 4)
    with pytest.raises(VolumeFormatError, match="sidecar"):
        load_volume(tmp_path / "orphan.f32le")
    (tmp_path / "ghost.f32le.json").write_text('{"dims": [1,1,1], "dtype": "f32le"}')
    with pytest.raises(VolumeFormatError, match="payload"):
        load_volume(tmp_path / "ghost.f32le")


def sidecar_case(tmp_path, meta, payload=b"\x00\x00\x00\x00"):
    p = tmp_path / "bad.f32le"
    p.write_bytes(payload)
    (tmp_path / "bad.f32le.json").write_text(json.dumps(meta))
    return p


def test_sidecar_validation(tmp_path):
    base = {"dims": [1, 1, 1], "dtype": "f32le", "order": "x-fastest"}
    with pytest.raises(VolumeFormatError, match="JSON"):
        p = tmp_path / "bad.f32le"
        p.write_bytes(b"\x00" * 4)
        (tmp_path / "bad.f32le.json").write_text("{nope")
        load_volume(p)
    with pytest.raises(VolumeFormatError, match="dims"):
        load_volume(sidecar_case(tmp_path, {**base, "dims": [1, 1]}))
    with pytest.raises(VolumeFormatError, match="spacing"):
        load_volume(sidecar_case(tmp_path, {**base, "spacing_mm": [1.0, 0.0, 1.0]}))
    with pytest.raises(VolumeFormatError, match="order"):
        load_volume(sidecar_case(tmp_path, {**base, "order": "z-fastest"}))
    with pytest.raises(VolumeFormatError, match="dtype"):
        load_volume(sidecar_case(tmp_path, {**base, "dtype": "f64"}))


@pytest.mark.parametrize("sidecar", [
    [2, 1, 1],  # a JSON list, not an object
    {"dims": ["a", 2, 2], "dtype": "f32le"},
    {"dims": [None, 2, 2], "dtype": "f32le"},
    {"dims": [1, 1, 1], "dtype": "f32le", "spacing_mm": ["x", 1, 1]},
    {"dims": [1, 1, 1], "dtype": "f32le", "spacing_mm": [float("inf"), 1, 1]},
    {"dims": [1, 1, 1], "dtype": "f32le", "spacing_mm": [10**400, 1, 1]},  # no float holds it
], ids=["list", "dims-string", "dims-null", "spacing-string", "spacing-inf", "spacing-huge"])
def test_malformed_sidecar_is_a_format_error(tmp_path, capsys, sidecar):
    p = sidecar_case(tmp_path, sidecar)
    with pytest.raises(VolumeFormatError, match=r"bad\.f32le\.json"):
        load_volume(p)
    assert main(["evaluate", str(p), str(p)]) == 2
    assert capsys.readouterr().err.startswith("data error: sidecar ")


def test_payload_length_mismatch_reports_both_sizes(tmp_path):
    p = sidecar_case(tmp_path, {"dims": [2, 2, 2], "dtype": "f32le"}, payload=b"\x00" * 12)
    with pytest.raises(VolumeFormatError, match="expected 32 bytes.*got 12"):
        load_volume(p)


def test_payload_value_validation(tmp_path):
    bad_label = np.array([0, 1, 2, 1], dtype="u1").tobytes()
    p = sidecar_case(tmp_path, {"dims": [4, 1, 1], "dtype": "u8"}, payload=bad_label)
    with pytest.raises(VolumeFormatError, match="0 or 1"):
        load_volume(p)
    bad_prob = np.array([0.5, 1.5], dtype="<f4").tobytes()
    p = sidecar_case(tmp_path, {"dims": [2, 1, 1], "dtype": "f32le"}, payload=bad_prob)
    with pytest.raises(VolumeFormatError, match=r"\[0, 1\]"):
        load_volume(p)


def test_payload_nan_is_rejected_naming_file_and_count(tmp_path):
    payload = np.array([0.5, np.nan, 0.7, np.nan], dtype="<f4").tobytes()
    p = sidecar_case(tmp_path, {"dims": [4, 1, 1], "dtype": "f32le"}, payload=payload)
    with pytest.raises(VolumeFormatError, match=r"bad\.f32le: 2 non-finite"):
        load_volume(p)


def test_unknown_modality_falls_back_to_combined(tmp_path):
    p = sidecar_case(
        tmp_path,
        {"dims": [1, 1, 1], "dtype": "f32le", "modality": "PET"},
        payload=np.array([0.5], dtype="<f4").tobytes(),
    )
    assert load_volume(p).modality is Modality.COMBINED


# --- NIfTI-1 ---------------------------------------------------------------------


def nifti1_bytes(values, spacing=(1.0, 1.0, 1.0), byte_order="<", datatype=16,
                 scl_slope=1.0, scl_inter=0.0, magic=b"n+1\x00", vox_offset=352.0,
                 ndim=3):
    """Assemble a minimal single-file NIfTI-1 blob by hand."""
    values = np.asarray(values)
    header = bytearray(352)
    struct.pack_into(f"{byte_order}i", header, 0, 348)
    dims = values.shape + (1,) * (7 - values.ndim)
    struct.pack_into(f"{byte_order}8h", header, 40, ndim, *dims)
    bitpix = {2: 8, 16: 32}.get(datatype, 0)
    struct.pack_into(f"{byte_order}h", header, 70, datatype)
    struct.pack_into(f"{byte_order}h", header, 72, bitpix)
    struct.pack_into(f"{byte_order}8f", header, 76, 1.0, *spacing, 1.0, 1.0, 1.0, 1.0)
    struct.pack_into(f"{byte_order}f", header, 108, vox_offset)
    struct.pack_into(f"{byte_order}f", header, 112, scl_slope)
    struct.pack_into(f"{byte_order}f", header, 116, scl_inter)
    header[344:348] = magic
    np_dtype = np.dtype(byte_order + {2: "u1", 16: "f4"}[datatype])
    payload = values.astype(np_dtype).ravel(order="F").tobytes()
    return bytes(header[: int(vox_offset)]) + payload


def test_nifti_float32_little_endian(tmp_path):
    rng = np.random.default_rng(1)
    values = rng.random((4, 4, 4))
    p = tmp_path / "prob.nii"
    p.write_bytes(nifti1_bytes(values, spacing=(0.5, 0.5, 3.0)))
    vol = load_nifti1(p)
    assert isinstance(vol, ProbabilityVolume)
    assert vol.spacing == (0.5, 0.5, 3.0)
    np.testing.assert_array_equal(vol.values, values.astype("<f4").astype(np.float64))


def test_nifti_uint8_labels(tmp_path):
    mask = np.zeros((3, 3, 3), dtype=np.uint8)
    mask[1, 1, 1] = 1
    p = tmp_path / "mask.nii"
    p.write_bytes(nifti1_bytes(mask, datatype=2))
    vol = load_nifti1(p)
    assert isinstance(vol, LabelVolume)
    assert vol.count() == 1
    assert bool(vol.values[1, 1, 1])


def test_nifti_big_endian(tmp_path):
    values = np.full((2, 2, 2), 0.75)
    p = tmp_path / "be.nii"
    p.write_bytes(nifti1_bytes(values, byte_order=">"))
    vol = load_nifti1(p)
    np.testing.assert_allclose(vol.values, 0.75)


def test_nifti_scl_scaling(tmp_path):
    # stored values 0..2 scale to 0.1..0.5 via slope 0.2, intercept 0.1
    stored = np.arange(8, dtype=np.float64).reshape(2, 2, 2) % 3
    p = tmp_path / "scaled.nii"
    p.write_bytes(nifti1_bytes(stored, scl_slope=0.2, scl_inter=0.1))
    vol = load_nifti1(p)
    np.testing.assert_allclose(vol.values, stored * 0.2 + 0.1, atol=1e-7)


def test_nifti_zero_slope_means_unscaled(tmp_path):
    values = np.full((2, 2, 2), 0.5)
    p = tmp_path / "noscl.nii"
    p.write_bytes(nifti1_bytes(values, scl_slope=0.0, scl_inter=9.0))
    np.testing.assert_allclose(load_nifti1(p).values, 0.5)


def test_nifti_rejections(tmp_path):
    good = nifti1_bytes(np.full((2, 2, 2), 0.5))

    p = tmp_path / "gz.nii"
    p.write_bytes(b"\x1f\x8b" + good[2:])
    with pytest.raises(VolumeFormatError, match="gzip"):
        load_nifti1(p)

    p = tmp_path / "magic.nii"
    p.write_bytes(nifti1_bytes(np.full((2, 2, 2), 0.5), magic=b"ni1\x00"))
    with pytest.raises(VolumeFormatError, match="magic"):
        load_nifti1(p)

    p = tmp_path / "4d.nii"
    p.write_bytes(nifti1_bytes(np.full((2, 2, 2, 2), 0.5), ndim=4))
    with pytest.raises(VolumeFormatError, match="3D"):
        load_nifti1(p)

    p = tmp_path / "dtype.nii"
    blob = bytearray(good)
    struct.pack_into("<h", blob, 70, 4)  # int16 is unsupported
    p.write_bytes(bytes(blob))
    with pytest.raises(VolumeFormatError, match="datatype"):
        load_nifti1(p)

    p = tmp_path / "short.nii"
    p.write_bytes(good[:-8])
    with pytest.raises(VolumeFormatError, match="truncated"):
        load_nifti1(p)

    p = tmp_path / "hdr.nii"
    p.write_bytes(b"\x00" * 348)
    with pytest.raises(VolumeFormatError, match="sizeof_hdr"):
        load_nifti1(p)


def test_nifti_nan_is_rejected_naming_file_and_count(tmp_path):
    values = np.full((2, 2, 2), 0.5)
    values[1, 0, 1] = np.nan
    p = tmp_path / "nan.nii"
    p.write_bytes(nifti1_bytes(values))
    with pytest.raises(VolumeFormatError, match=r"nan\.nii: 1 non-finite"):
        load_nifti1(p)


def test_loaded_probabilities_are_range_checked_once(tmp_path, monkeypatch):
    from rulefuse import volio, volumes

    checks = []
    check = volumes.probability_range_error

    def counted(values):
        checks.append(values.shape)
        return check(values)

    for module in (volumes, volio):  # wherever a loader could reach it
        monkeypatch.setattr(module, "probability_range_error", counted, raising=False)
    good = sidecar_case(tmp_path, {"dims": [2, 1, 1], "dtype": "f32le"},
                        payload=np.array([0.5, 0.25], dtype="<f4").tobytes())
    nii = tmp_path / "good.nii"
    nii.write_bytes(nifti1_bytes(np.full((2, 2, 2), 0.5)))
    for path in (good, nii):
        load_any_volume(path)
        assert len(checks) == 1, path
        checks.clear()
    # the messages name the file as before
    bad = sidecar_case(tmp_path, {"dims": [2, 1, 1], "dtype": "f32le"},
                       payload=np.array([0.5, 1.5], dtype="<f4").tobytes())
    with pytest.raises(VolumeFormatError) as info:
        load_volume(bad)
    assert str(info.value) == (
        f"payload {bad}: probability values must lie in [0, 1], found [0.5, 1.5]"
    )
    scaled = tmp_path / "scaled.nii"
    scaled.write_bytes(nifti1_bytes(np.full((2, 2, 2), 0.5), scl_slope=4.0, scl_inter=0.0))
    with pytest.raises(VolumeFormatError) as info:
        load_nifti1(scaled)
    assert str(info.value) == (
        f"{scaled}: probability values must lie in [0, 1], found [2.0, 2.0] after scaling"
    )


def test_nifti_nan_spacing_is_rejected(tmp_path):
    p = tmp_path / "nanspacing.nii"
    p.write_bytes(nifti1_bytes(np.full((2, 2, 2), 0.5), spacing=(np.nan, 1.0, 1.0)))
    with pytest.raises(VolumeFormatError, match=r"nanspacing\.nii: pixdim"):
        load_nifti1(p)


# --- fuzzing: any input gives a volume or a VolumeFormatError -------------------

_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)


def _field(valid):
    return st.one_of(st.sampled_from(valid), _JSON)


_SIDECARS = _JSON | st.fixed_dictionaries({}, optional={
    "dims": _field([[2, 1, 1], [8, 1, 1], [1, 2, 1]]),
    "spacing_mm": _field([[1.0, 1.0, 1.0], [0.7, 0.55, 3.3]]),
    "dtype": _field(["f32le", "u8"]),
    "order": _field(["x-fastest"]),
    "modality": _field(["T2W", "ADC", "combined"]),
})
_FUZZ = settings(deadline=None, max_examples=200,
                 suppress_health_check=[HealthCheck.function_scoped_fixture])


def _volume_or_format_error(load, path):
    try:
        volume = load(path)
    except VolumeFormatError as exc:
        assert str(path.name) in str(exc)
        return
    assert isinstance(volume, (LabelVolume, ProbabilityVolume))


@_FUZZ
@given(meta=_SIDECARS)
def test_fuzz_sidecar(tmp_path, meta):
    # an 8-byte payload fits 2 float32 or 8 uint8 voxels, so valid fields load
    p = tmp_path / "fuzz.f32le"
    p.write_bytes(b"\x00" * 8)
    (tmp_path / "fuzz.f32le.json").write_text(json.dumps(meta))
    _volume_or_format_error(load_volume, p)


_NIFTI = nifti1_bytes(np.full((2, 2, 2), 0.5))


# (offset, bytes) writes: any single header byte, or a whole little-endian
# value in one of the float32 (pixdim, vox_offset, scl_*) or int16 (dim,
# datatype) fields the loader reads
_HEADER_EDITS = st.one_of(
    st.tuples(st.integers(0, 347), st.binary(min_size=1, max_size=1)),
    st.tuples(st.sampled_from([76 + 4 * i for i in range(8)] + [108, 112, 116]),
              (st.floats(width=32) | st.sampled_from([np.nan, np.inf, -np.inf]))
              .map(lambda v: struct.pack("<f", v))),
    st.tuples(st.sampled_from([40 + 2 * i for i in range(8)] + [70]),
              st.integers(-(2**15), 2**15 - 1).map(lambda v: struct.pack("<h", v))),
)


@_FUZZ
@given(edits=st.lists(_HEADER_EDITS, min_size=1, max_size=6))
def test_fuzz_nifti_header(tmp_path, edits):
    blob = bytearray(_NIFTI)
    for offset, value in edits:
        blob[offset : offset + len(value)] = value
    p = tmp_path / "fuzz.nii"
    p.write_bytes(bytes(blob))
    _volume_or_format_error(load_nifti1, p)


def test_load_any_volume_dispatch(tmp_path):
    values = np.full((2, 2, 2), 0.5)
    nii = tmp_path / "v.nii"
    nii.write_bytes(nifti1_bytes(values))
    raw = save_volume(ProbabilityVolume(values), tmp_path / "v.f32le")
    a = load_any_volume(nii)
    b = load_any_volume(raw)
    np.testing.assert_array_equal(a.values, b.values)


# --- in-memory layout ---------------------------------------------------------------


@pytest.mark.parametrize("dtype_name", ["f32le", "u8"])
def test_load_volume_is_c_ordered(tmp_path, dtype_name):
    rng = np.random.default_rng(3)
    dims = (5, 4, 3)
    if dtype_name == "f32le":
        volume, raw = ProbabilityVolume(rng.random(dims)), "<f4"
    else:
        volume, raw = LabelVolume(rng.random(dims) < 0.4), "u1"
    payload = save_volume(volume, tmp_path / f"v.{dtype_name}")
    loaded = load_volume(payload)
    assert loaded.values.flags.c_contiguous
    assert loaded.values.dtype == volume.values.dtype
    want = np.frombuffer(payload.read_bytes(), dtype=raw).reshape(dims, order="F")
    np.testing.assert_array_equal(loaded.values, want)


@pytest.mark.parametrize("datatype, byte_order, scl_slope, scl_inter", [
    (16, "<", 1.0, 0.0), (2, "<", 1.0, 0.0), (16, ">", 1.0, 0.0), (16, "<", 0.2, 0.1),
], ids=["float32", "uint8", "big-endian", "scl-scaled"])
def test_load_nifti1_is_c_ordered(tmp_path, datatype, byte_order, scl_slope, scl_inter):
    dims = (5, 4, 3)
    stored = np.arange(60).reshape(dims) % (2 if datatype == 2 else 3)
    if datatype == 16 and scl_slope == 1.0:
        stored = stored / 2.0
    blob = nifti1_bytes(stored, byte_order=byte_order, datatype=datatype,
                        scl_slope=scl_slope, scl_inter=scl_inter)
    p = tmp_path / "v.nii"
    p.write_bytes(blob)
    loaded = load_nifti1(p)
    assert loaded.values.flags.c_contiguous
    raw = byte_order + {2: "u1", 16: "f4"}[datatype]
    want = np.frombuffer(blob, dtype=raw, offset=352).reshape(dims, order="F").astype(np.float64)
    # the header holds slope and intercept as float32
    want = want * float(np.float32(scl_slope)) + float(np.float32(scl_inter))
    if datatype == 2:
        assert loaded.values.dtype == bool
    np.testing.assert_array_equal(loaded.values, want)


def _fortran_ordered(case: CaseRecord) -> CaseRecord:
    def f(volume):
        return replace(volume, values=np.asfortranarray(volume.values))

    zones = {name: f(zone) for name, zone in case.zones.items()}
    return CaseRecord(case.case_id, tuple(f(m) for m in case.modalities), f(case.truth), zones)


def test_sweeps_do_not_depend_on_the_memory_layout_of_the_volumes(tmp_path):
    spec = PhantomSpec(dims=(16, 16, 16), spacing=(0.7, 0.55, 3.3), n_lesions=2,
                       radius_range=(2.0, 4.0), zone_boxes=True)
    manifest_path, _ = generate_dataset(11, 4, spec, tmp_path / "ds")
    loaded, _ = loaded_cases(manifest_path)
    fortran = [_fortran_ordered(case) for case in loaded]
    for case in fortran:
        for volume in (*case.modalities, case.truth, *case.zones.values()):
            assert volume.values.flags.f_contiguous and not volume.values.flags.c_contiguous
    sampler = {"kind": "dirichlet", "concentration": [3, 2, 1]}
    for config in (EvalConfig(), EvalConfig(zone="PZ")):
        c_search, f_search = (grid_search_linear(cases, step=0.25, config=config)
                              for cases in (loaded, fortran))
        assert c_search.to_dict(include_cases=True) == f_search.to_dict(include_cases=True)
        c_mc, f_mc = (monte_carlo_uncertainty(cases, sampler, n_draws=4, seed=2, config=config)
                      for cases in (loaded, fortran))
        assert render_report(c_mc, "json") == render_report(f_mc, "json")
        for a, b in zip(c_mc.cases, f_mc.cases):
            assert a.mean.tobytes() == b.mean.tobytes()
            assert a.variance.tobytes() == b.variance.tobytes()


# --- manifests --------------------------------------------------------------------


def test_manifest_round_trip(tmp_path):
    spec = PhantomSpec(dims=(16, 16, 16), n_lesions=1, radius_range=(3.0, 5.0))
    manifest_path, _ = generate_dataset(7, 6, spec, tmp_path / "ds")
    cases = generate_cases(7, 6, spec)
    records, doc = loaded_cases(manifest_path)
    assert [r.case_id for r in records] == [c.case_id for c in cases]
    for rec, case in zip(records, cases):
        np.testing.assert_array_equal(rec.truth.values, case.truth.values)
        for got, want in zip(rec.modalities, case.modalities):
            assert got.modality is want.modality
            np.testing.assert_array_equal(got.values, want.values.astype("<f4").astype(np.float64))
    splits = {entry["case_id"]: entry["split"] for entry in doc["cases"]}
    assert set(splits.values()) <= {"train", "validation", "test"}
    val_records, _ = loaded_cases(manifest_path, split="validation")
    assert {r.case_id for r in val_records} == {c for c, s in splits.items() if s == "validation"}


def test_manifest_errors(tmp_path):
    with pytest.raises(DataError, match="does not exist"):
        loaded_cases(tmp_path / "nope.json")

    p = tmp_path / "bad.json"
    p.write_text("{broken")
    with pytest.raises(DataError, match="JSON"):
        loaded_cases(p)

    p.write_text(json.dumps({"version": 1}))
    with pytest.raises(DataError, match="cases"):
        loaded_cases(p)

    truth = save_volume(LabelVolume(np.zeros((2, 2, 2), dtype=bool)), tmp_path / "t.u8")
    t2w = save_volume(ProbabilityVolume(np.full((2, 2, 2), 0.5)), tmp_path / "t2w.f32le")
    entry = {
        "case_id": "c0",
        "truth": truth.name,
        "modalities": {"T2W": t2w.name, "ADC": t2w.name},
    }
    write_manifest(p, [entry])
    with pytest.raises(DataError, match="c0.*DWI_hb"):
        loaded_cases(p)


@pytest.fixture
def small_manifest(tmp_path):
    """A 4-case 16³ phantom manifest: (path, parsed document)."""
    spec = PhantomSpec(dims=(16, 16, 16), n_lesions=1, radius_range=(3.0, 5.0))
    manifest_path, _ = generate_dataset(7, 4, spec, tmp_path / "ds")
    return manifest_path, json.loads(manifest_path.read_text())


def _assert_manifest_data_error(path, capsys, match):
    with pytest.raises(DataError, match=match):
        loaded_cases(path)
    capsys.readouterr()
    assert main(["search", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:") and err.count("\n") == 1


@pytest.mark.parametrize("doc", [[1, 2], "cases", {"cases": [1]}, {"cases": [None]}])
def test_manifest_document_and_entries_must_be_objects(tmp_path, capsys, doc):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    _assert_manifest_data_error(path, capsys, "object")


@pytest.mark.parametrize("case_id", [3, "", ["c"], True, "a\nb", "tab\there"])
def test_manifest_case_id_must_be_a_non_empty_string(small_manifest, capsys, case_id):
    path, doc = small_manifest
    doc["cases"][1]["case_id"] = case_id
    path.write_text(json.dumps(doc))
    _assert_manifest_data_error(path, capsys, "case_id must be a non-empty string")


def test_manifest_duplicate_case_ids_are_rejected(small_manifest, capsys):
    path, doc = small_manifest
    doc["cases"][2]["case_id"] = doc["cases"][0]["case_id"]
    path.write_text(json.dumps(doc))
    _assert_manifest_data_error(path, capsys, "duplicate case_id")


@pytest.mark.parametrize("edit, match", [
    (lambda e: e["modalities"].update(ADC=7), "modality ADC"),
    (lambda e: e.update(modalities=["a", "b", "c"]), "modalities must be an object"),
    (lambda e: e.update(truth=1.5), "truth"),
    (lambda e: e.update(zones=["PZ"]), "zones must be an object"),
    (lambda e: e.update(zones={"PZ": None}), "zone PZ"),
])
def test_manifest_paths_must_be_strings(small_manifest, capsys, edit, match):
    path, doc = small_manifest
    edit(doc["cases"][3])
    path.write_text(json.dumps(doc))
    _assert_manifest_data_error(path, capsys, match)


@pytest.mark.parametrize("case_id", ["../../escaped", "sub/escaped", "..", "a\\escaped"])
def test_mc_volumes_stay_inside_volumes_out(small_manifest, tmp_path, capsys, case_id):
    path, doc = small_manifest
    doc["cases"][0]["case_id"] = case_id
    path.write_text(json.dumps(doc))
    out_dir = tmp_path / "out" / "vol"
    code = main(["mc-uncertainty", str(path), "--sampler", '{"kind": "dirichlet"}',
                 "--draws", "2", "--volumes-out", str(out_dir)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:") and "cannot name a file" in err
    assert not [p for p in tmp_path.rglob("*") if "escaped" in p.name or "variance" in p.name]


# --- fuzzing: any manifest loads or raises DataError --------------------------------

# path strings that name no volume here: missing files of either format, the
# manifest's own directory and its parent, a directory named like a NIfTI file,
# a null byte, a name too long for the file system, the manifest itself
_BAD_PATHS = ["", ".", "..", "/", "missing.nii", "missing.f32le", "sub.nii", "a\x00b.nii",
              "x" * 300, "x" * 300 + ".nii", "manifest.json"]


def _path(valid):
    return st.one_of(st.sampled_from([valid] + _BAD_PATHS), _JSON)


_PATHS = st.sampled_from(["p.f32le", "t.u8", "zone.u8"] + _BAD_PATHS)
# entries that pass the shape checks, so that their paths are opened
_SHAPED_ENTRIES = st.fixed_dictionaries({
    "case_id": st.sampled_from(["c0", "c1"]),
    "modalities": st.fixed_dictionaries({k: _PATHS for k in ("T2W", "DWI_hb", "ADC")}),
    "truth": _PATHS,
}, optional={
    "zones": st.fixed_dictionaries({}, optional={"PZ": _PATHS, "TZ": _PATHS}),
    "split": st.sampled_from(["train", "validation", "test"]),
})
_ENTRIES = _SHAPED_ENTRIES | st.fixed_dictionaries({}, optional={
    "case_id": st.one_of(st.sampled_from(["c0", "c1"]), _JSON),
    "modalities": st.one_of(
        st.fixed_dictionaries({}, optional={k: _path("p.f32le") for k in ("T2W", "DWI_hb", "ADC")}),
        _JSON,
    ),
    "truth": _path("t.u8"),
    "zones": st.one_of(st.fixed_dictionaries({}, optional={"PZ": _path("zone.u8")}), _JSON),
    "split": st.one_of(st.sampled_from(["train", "validation", "test"]), _JSON),
})
_MANIFESTS = st.one_of(
    _JSON,
    st.fixed_dictionaries({"cases": st.lists(_SHAPED_ENTRIES, min_size=1, max_size=2,
                                             unique_by=lambda e: e["case_id"])}),
    st.fixed_dictionaries({"cases": st.lists(_ENTRIES, min_size=1, max_size=3) | _JSON},
                          optional={"version": _field([1])}),
)


def _one_case(path):
    return {"cases": [{"case_id": "c0", "truth": "t.u8",
                       "modalities": {"T2W": path, "DWI_hb": "p.f32le", "ADC": "p.f32le"}}]}


@pytest.fixture(scope="module")
def manifest_dir(tmp_path_factory):
    """A directory with a probability volume, a truth, a zone of other dims,
    and a directory named like a NIfTI file."""
    d = tmp_path_factory.mktemp("fuzz-manifest")
    save_volume(ProbabilityVolume(np.full((2, 2, 2), 0.5)), d / "p.f32le")
    save_volume(LabelVolume(np.eye(2, dtype=bool)[:, :, None].repeat(2, axis=2)), d / "t.u8")
    save_volume(LabelVolume(np.ones((3, 2, 2), dtype=bool)), d / "zone.u8")
    (d / "sub.nii").mkdir()
    return d


@_FUZZ
@given(doc=_MANIFESTS, split=st.sampled_from([None, "train", "test"]))
@example(doc=_one_case("p.f32le"), split=None)
@example(doc=_one_case("zone.u8"), split=None)
@example(doc=_one_case("missing.nii"), split=None)
@example(doc=_one_case("sub.nii"), split=None)
@example(doc=_one_case("a\x00b.nii"), split=None)
@example(doc=_one_case("x" * 300), split=None)
def test_fuzz_manifest_document(manifest_dir, doc, split):
    path = manifest_dir / "manifest.json"
    path.write_text(json.dumps(doc))
    try:
        records, _ = loaded_cases(path, split=split)
    except DataError:
        return
    assert records and all(isinstance(r.truth, LabelVolume) for r in records)


@_FUZZ
@given(blob=st.binary(max_size=64))
def test_fuzz_manifest_bytes(manifest_dir, blob):
    path = manifest_dir / "manifest.json"
    path.write_bytes(blob)
    try:
        loaded_cases(path)
    except DataError:
        pass


def test_manifest_empty_split_is_an_error(tmp_path):
    spec = PhantomSpec(dims=(16, 16, 16), n_lesions=1, radius_range=(3.0, 5.0))
    manifest_path, _ = generate_dataset(7, 3, spec, tmp_path / "ds")
    with pytest.raises(DataError, match="no cases"):
        loaded_cases(manifest_path, split="nonexistent")


# --- reports ----------------------------------------------------------------------


def test_json_report_is_deterministic_and_rounded():
    report = fit_linear(canonical_condition_matrix(), pirads_decisions(Zone.WG))
    a = render_report(report, "json")
    b = render_report(report, "json")
    assert a == b
    doc = json.loads(a)
    # 5/11 = 0.4545454545... must be cut to 6 significant digits
    assert doc["coefficients"][0] == 0.454545
    assert a.endswith("\n")


def test_grid_search_csv_linear():
    result = grid_search_linear(truth_cases(2), step=0.5)
    text = render_report(result, "csv")
    lines = text.strip().split("\n")
    assert lines[0] == (
        "rank,model,alpha1,alpha2,alpha3,mean_dsc,sd_dsc,mean_hd95,"
        "mean_recall,mean_precision,n_cases"
    )
    assert len(lines) == 7
    assert lines[1].startswith("1,linear,")


def test_ruleset_csv_and_json():
    ruleset = rejection_sample_stacking(n_rules=4)
    text = render_report(ruleset, "csv")
    lines = text.strip().split("\n")
    assert lines[0] == "rule_number,decision_bits,b1,b2,b3,b0,residual"
    assert len(lines) == 1 + ruleset.accepted_count
    doc = json.loads(render_report(ruleset, "json"))
    assert doc["eta"] == 0.5
    assert len(doc["entries"]) == ruleset.accepted_count


def test_mc_csv():
    cases = truth_cases(2)
    sampler = {"kind": "fixed", "model": "linear", "rules": [[1, 0, 0]]}
    result = monte_carlo_uncertainty(cases, sampler, n_draws=2, seed=0)
    lines = render_report(result, "csv").strip().split("\n")
    assert lines[0] == "case_id,voxel_variance_max,voxel_variance_mean,dsc_mean,dsc_variance"
    assert len(lines) == 3


def test_heatmap_csv():
    result = grid_search_linear(truth_cases(1), step=0.5)
    lines = heatmap_csv(result).strip().split("\n")
    assert lines[0] == "alpha1,alpha2,dsc"
    assert len(lines) == 7  # 6 grid points
    assert all(len(line.split(",")) == 3 for line in lines[1:])


def test_write_report_creates_parent_dirs(tmp_path):
    report = fit_linear(canonical_condition_matrix(), pirads_decisions(Zone.TZ))
    out = tmp_path / "nested" / "dir" / "fit.json"
    text = write_report(report, "json", out)
    assert out.read_text() == text


def test_unknown_format_rejected():
    with pytest.raises(ValueError, match="format"):
        render_report({"a": 1}, "yaml")


def test_fit_report_round_trip_through_json():
    report = fit_linear(canonical_condition_matrix(), pirads_decisions(Zone.PZ))
    doc = json.loads(render_report(report, "json"))
    assert doc["model"] == "linear"
    assert doc["zone"] == "PZ"
    assert doc["rule_number"] == 119
    assert doc["decision"] == [0, 1, 1, 1, 0, 1, 1, 1]
    np.testing.assert_allclose(doc["coefficients"], [1 / 11, 5 / 11, 5 / 11], atol=1e-6)
