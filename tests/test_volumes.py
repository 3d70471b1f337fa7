import numpy as np
import pytest

from rulefuse.errors import AlignmentError
from rulefuse.volumes import (
    LabelVolume,
    LesionComponent,
    LesionSet,
    Modality,
    ProbabilityVolume,
    validate_aligned,
)


def test_probability_volume_basics():
    vol = ProbabilityVolume(np.full((2, 3, 4), 0.25), spacing=(1.0, 2.0, 3.0), modality="T2W")
    assert vol.dims == (2, 3, 4)
    assert vol.modality is Modality.T2W
    assert vol.voxel_volume_mm3() == pytest.approx(6.0)
    assert vol.values.dtype == np.float64


def test_probability_volume_rejects_out_of_range():
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        ProbabilityVolume(np.full((2, 2, 2), 1.5))
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        ProbabilityVolume(np.full((2, 2, 2), -0.01))


def test_probability_volume_rejects_non_finite_values():
    values = np.full((4, 4, 4), 0.7)
    values[1, 2, 3] = np.nan  # every comparison with NaN is false
    with pytest.raises(ValueError, match="1 non-finite"):
        ProbabilityVolume(values)
    values[0, 0, 0] = np.inf
    with pytest.raises(ValueError, match="2 non-finite"):
        ProbabilityVolume(values)


def test_probability_volume_rejects_bad_grid():
    with pytest.raises(ValueError):
        ProbabilityVolume(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        ProbabilityVolume(np.zeros((2, 2, 2)), spacing=(1.0, 0.0, 1.0))


def test_volumes_are_immutable():
    vol = ProbabilityVolume(np.zeros((2, 2, 2)))
    with pytest.raises(ValueError):
        vol.values[0, 0, 0] = 1.0
    mask = LabelVolume(np.zeros((2, 2, 2), dtype=bool))
    with pytest.raises(ValueError):
        mask.values[0, 0, 0] = True


def test_label_volume_accepts_01_integers():
    mask = LabelVolume(np.array([[[0, 1], [1, 0]], [[1, 1], [0, 0]]]))
    assert mask.values.dtype == bool
    assert mask.count() == 4


def test_label_volume_rejects_other_values():
    with pytest.raises(ValueError):
        LabelVolume(np.full((2, 2, 2), 2))


def test_validate_aligned_accepts_matching():
    a = ProbabilityVolume(np.zeros((3, 3, 3)), spacing=(1, 1, 1))
    b = LabelVolume(np.zeros((3, 3, 3), dtype=bool), spacing=(1, 1, 1))
    validate_aligned([a, b])


def test_validate_aligned_names_axis_and_volume():
    a = ProbabilityVolume(np.zeros((3, 3, 3)))
    b = ProbabilityVolume(np.zeros((3, 4, 3)))
    with pytest.raises(AlignmentError, match=r"axis y.*4 != 3"):
        validate_aligned([a, b])
    c = ProbabilityVolume(np.zeros((3, 3, 3)), spacing=(1.0, 1.0, 2.0))
    with pytest.raises(AlignmentError, match="axis z"):
        validate_aligned([a, c], names=["first", "second"])


def test_validate_aligned_spacing_tolerance():
    a = ProbabilityVolume(np.zeros((2, 2, 2)), spacing=(1.0, 1.0, 1.0))
    b = ProbabilityVolume(np.zeros((2, 2, 2)), spacing=(1.0 + 1e-12, 1.0, 1.0))
    validate_aligned([a, b])  # sub-tolerance difference is fine


def test_lesion_set_connectivity_validation():
    comp = LesionComponent(id=1, indices=np.zeros((1, 3), dtype=np.int64), volume_mm3=1.0)
    ls = LesionSet(components=(comp,), connectivity=26)
    assert len(ls) == 1
    assert ls.components[0].voxel_count == 1
    with pytest.raises(ValueError):
        LesionSet(components=(), connectivity=5)
