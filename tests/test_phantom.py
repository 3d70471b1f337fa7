import json
import weakref

import numpy as np
import pytest

from rulefuse import backends, volio
from rulefuse.combine import binarize, combine_linear
from rulefuse.discovery import CaseRecord
from rulefuse.errors import PackingError
from rulefuse.fitting import LinearRule
from rulefuse.phantoms import (
    PhantomSpec,
    generate_case,
    generate_cases,
    generate_dataset,
    triangular_blur,
)
from rulefuse.volumes import Modality


def small_spec(**overrides):
    base = dict(dims=(20, 20, 20), n_lesions=1, radius_range=(3.0, 5.0))
    base.update(overrides)
    return PhantomSpec(**base)


# --- spec validation and serialization ---------------------------------------


def test_spec_defaults_are_valid():
    spec = PhantomSpec()
    assert spec.dims == (48, 48, 48)
    assert spec.n_lesions == 3


@pytest.mark.parametrize(
    "overrides",
    [
        {"dims": (8, 8, 8)},
        {"spacing": (1.0, 0.0, 1.0)},
        {"n_lesions": -1},
        {"radius_range": (5.0, 3.0)},
        {"fidelity": (0.5, 0.5, 1.5)},
        {"noise_sd": -0.1},
        {"smooth_weight": 0.5},
        {"smooth_halfwidth": 0},
        {"threshold": 1.0},
    ],
)
def test_spec_rejects_bad_fields(overrides):
    with pytest.raises(ValueError):
        PhantomSpec(**overrides)


def test_spec_dict_round_trip():
    spec = small_spec(
        fidelity=(0.5, 0.6, 0.7),
        planted_rule=LinearRule(np.array([0.5, 0.5, 0.0])),
        zone_boxes=True,
    )
    again = PhantomSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
    assert again.to_dict() == spec.to_dict()


def test_spec_from_dict_rejects_unknown_fields():
    with pytest.raises(ValueError, match="unknown"):
        PhantomSpec.from_dict({"dims": [20, 20, 20], "lesions": 3})


# --- generation ------------------------------------------------------------------


def test_same_seed_is_byte_identical():
    spec = small_spec(n_lesions=2)
    a = generate_case(3, spec, case_id="c")
    b = generate_case(3, spec, case_id="c")
    for va, vb in zip(a.modalities, b.modalities):
        np.testing.assert_array_equal(va.values, vb.values)
    np.testing.assert_array_equal(a.truth.values, b.truth.values)
    c = generate_case(4, spec, case_id="c")
    assert not np.array_equal(a.modalities[0].values, c.modalities[0].values)


def test_modalities_are_ordered_and_probabilistic():
    case = generate_case(0, small_spec())
    assert tuple(v.modality for v in case.modalities) == (
        Modality.T2W,
        Modality.DWI_HB,
        Modality.ADC,
    )
    for vol in case.modalities:
        assert vol.values.min() >= 0.0
        assert vol.values.max() <= 1.0


def test_full_fidelity_thresholds_back_to_truth():
    spec = small_spec(fidelity=(1.0, 1.0, 1.0), noise_sd=0.0)
    case = generate_case(5, spec)
    truth = case.truth.values
    assert truth.any()
    for vol in case.modalities:
        np.testing.assert_array_equal(vol.values > 0.5, truth)


def test_zero_fidelity_modality_carries_no_signal():
    spec = small_spec(dims=(24, 24, 24), fidelity=(1.0, 0.0, 0.0), radius_range=(5.0, 7.0))
    case = generate_case(6, spec)
    truth = case.truth.values
    informative = case.modalities[0].values
    blind = case.modalities[1].values
    gap_informative = informative[truth].mean() - informative[~truth].mean()
    gap_blind = abs(blind[truth].mean() - blind[~truth].mean())
    assert gap_informative > 0.4
    assert gap_blind < 0.05


def test_noise_sd_zero_makes_blind_modality_flat():
    spec = small_spec(fidelity=(1.0, 0.0, 1.0), noise_sd=0.0)
    case = generate_case(7, spec)
    np.testing.assert_array_equal(case.modalities[1].values, 0.5)


def test_packing_error_when_lesions_cannot_fit():
    spec = small_spec(dims=(20, 20, 20), n_lesions=10, radius_range=(6.0, 8.0))
    with pytest.raises(PackingError, match="place lesion"):
        generate_case(0, spec)


def test_lesions_do_not_touch():
    spec = small_spec(dims=(40, 40, 40), n_lesions=3, radius_range=(3.0, 5.0))
    case = generate_case(8, spec)
    _, _, keep = backends.components(case.truth.values, 26)
    assert np.count_nonzero(keep) == 3


def test_planted_rule_reproduces_truth_exactly():
    rule = LinearRule(np.array([0.5, 0.5, 0.0]))
    spec = small_spec(
        dims=(24, 24, 24),
        radius_range=(4.5, 7.0),
        fidelity=(0.5, 0.5, 0.5),
        noise_sd=0.25,
        planted_rule=rule,
    )
    case = generate_case(9, spec)
    recovered = binarize(
        combine_linear(case.modalities, rule),
        threshold=spec.threshold,
        min_region_voxels=spec.min_region_voxels,
    )
    np.testing.assert_array_equal(recovered.values, case.truth.values)
    assert case.truth.count() > 0


def test_zone_boxes_partition_volume():
    case = generate_case(10, small_spec(zone_boxes=True))
    tz = case.zones["TZ"].values
    pz = case.zones["PZ"].values
    assert not (tz & pz).any()
    assert (tz | pz).all()
    # TZ is the central box
    assert tz[10, 10, 10]
    assert not tz[0, 0, 0]


def test_generate_cases_ids_and_independence():
    cases = generate_cases(11, 4, small_spec())
    assert [c.case_id for c in cases] == ["case_0000", "case_0001", "case_0002", "case_0003"]
    assert not np.array_equal(cases[0].truth.values, cases[1].truth.values) or not np.array_equal(
        cases[0].modalities[0].values, cases[1].modalities[0].values
    )


def test_generate_cases_validation():
    with pytest.raises(ValueError):
        generate_cases(0, 0, small_spec())


def test_triangular_blur_conserves_interior_mass():
    values = np.zeros((9, 9, 9))
    values[4, 4, 4] = 1.0
    blurred = triangular_blur(values, 2)
    assert values.sum() == values[4, 4, 4] == 1.0  # the input is left as it was
    assert blurred.sum() == pytest.approx(1.0)
    assert blurred[4, 4, 4] == pytest.approx((3 / 9) ** 3)
    # borders leak mass outside
    edge = np.ones((3, 3, 3))
    assert triangular_blur(edge, 1).sum() < edge.sum()


def test_generate_dataset_layout(tmp_path):
    spec = small_spec(zone_boxes=True)
    manifest_path, entries = generate_dataset(12, 5, spec, tmp_path / "ds")
    doc = json.loads(manifest_path.read_text())
    assert doc["seed"] == 12
    assert doc["phantom_spec"]["dims"] == [20, 20, 20]
    assert len(doc["cases"]) == 5
    assert entries == doc["cases"]
    assert [e["case_id"] for e in entries] == [c.case_id for c in generate_cases(12, 5, spec)]
    for entry in doc["cases"]:
        case_dir = tmp_path / "ds" / entry["case_id"]
        for key in ("T2W", "DWI_hb", "ADC"):
            assert (tmp_path / "ds" / entry["modalities"][key]).exists()
        assert (tmp_path / "ds" / entry["truth"]).exists()
        assert set(entry["zones"]) == {"PZ", "TZ"}
        assert entry["split"] in {"train", "validation", "test"}
        assert case_dir.is_dir()


def test_generate_dataset_holds_at_most_one_case_while_it_writes(tmp_path, monkeypatch):
    made, live_at_write = [], []
    post_init, save_volume = CaseRecord.__post_init__, volio.save_volume

    def counted(record):
        post_init(record)
        made.append(weakref.ref(record))

    def save(volume, path):
        live_at_write.append(sum(ref() is not None for ref in made))
        return save_volume(volume, path)

    monkeypatch.setattr(CaseRecord, "__post_init__", counted)
    monkeypatch.setattr(volio, "save_volume", save)
    generate_dataset(14, 4, small_spec(zone_boxes=True), tmp_path / "ds")
    assert len(made) == 4
    assert live_at_write == [1] * 4 * 6  # 3 modalities, the truth and 2 zones per case


def test_generate_dataset_deterministic(tmp_path):
    spec = small_spec()
    p1, _ = generate_dataset(13, 3, spec, tmp_path / "a")
    p2, _ = generate_dataset(13, 3, spec, tmp_path / "b")
    assert p1.read_text() == p2.read_text()
    for case in json.loads(p1.read_text())["cases"]:
        rel = case["modalities"]["T2W"]
        assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()
