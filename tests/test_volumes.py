import numpy as np
import pytest

from rulefuse.errors import AlignmentError
from rulefuse.volumes import (
    LabelVolume,
    Modality,
    ProbabilityVolume,
    validate_aligned,
)


def test_probability_volume_basics():
    vol = ProbabilityVolume(np.full((2, 3, 4), 0.25), spacing=(1.0, 2.0, 3.0), modality="T2W")
    assert vol.dims == (2, 3, 4)
    assert vol.modality is Modality.T2W
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


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_volumes_reject_non_finite_spacing(bad):
    with pytest.raises(ValueError, match="finite"):
        ProbabilityVolume(np.zeros((2, 2, 2)), spacing=(bad, 1.0, 1.0))
    with pytest.raises(ValueError, match="finite"):
        LabelVolume(np.zeros((2, 2, 2), dtype=bool), spacing=(1.0, 1.0, bad))


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


def test_validate_aligned_tolerance_and_messages_at_non_dyadic_spacing():
    # equal grids take a shortcut; the per-axis tolerance must still hold
    spacing = (0.7, 0.55, 3.3)
    a = ProbabilityVolume(np.zeros((2, 3, 2)), spacing=spacing)
    same = LabelVolume(np.zeros((2, 3, 2), dtype=bool), spacing=spacing)
    near = LabelVolume(np.zeros((2, 3, 2), dtype=bool), spacing=(0.7, 0.55 * (1 + 1e-12), 3.3))
    far = LabelVolume(np.zeros((2, 3, 2), dtype=bool), spacing=(0.7, 0.55 * (1 + 1e-6), 3.3))
    validate_aligned([a, same, near])
    validate_aligned([near, a], names=["p", "t"])
    with pytest.raises(AlignmentError) as info:
        validate_aligned([a, same, far])
    assert str(info.value) == "volume[2] axis y: spacing 0.55000055 != 0.55 of volume[0] (combined)"
    with pytest.raises(AlignmentError) as info:
        validate_aligned([a, far], names=["pred", "truth"])
    assert str(info.value) == "truth axis y: spacing 0.55000055 != 0.55 of pred"
    wide = LabelVolume(np.zeros((2, 4, 2), dtype=bool), spacing=spacing)
    with pytest.raises(AlignmentError) as info:
        validate_aligned([a, wide])
    assert str(info.value) == "volume[1] axis y: dimension 4 != 3 of volume[0] (combined)"
