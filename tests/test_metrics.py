import functools
import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import ndimage

from rulefuse import backends
from rulefuse.combine import combine_linear
from rulefuse.fitting import LinearRule
from rulefuse.metrics import (
    HD_PERCENTILE,
    MetricsConfig,
    _percentile_past_zeros,
    boundary_surface,
    dice,
    evaluate,
    hd95,
    in_zone,
    label_mask,
    truth_context,
)
from rulefuse.phantoms import PhantomSpec, generate_case
from rulefuse.sampling import simplex_grid
from rulefuse.volumes import LabelVolume

import oracles


def mask(values, spacing=(1.0, 1.0, 1.0)):
    return LabelVolume(np.asarray(values, dtype=bool), spacing=spacing)


def empty(dims=(6, 6, 6), spacing=(1.0, 1.0, 1.0)):
    return mask(np.zeros(dims), spacing)


def cube(dims, lo, hi, spacing=(1.0, 1.0, 1.0)):
    values = np.zeros(dims, dtype=bool)
    values[lo[0]:hi[0], lo[1]:hi[1], lo[2]:hi[2]] = True
    return mask(values, spacing)


# --- dice ----------------------------------------------------------------------


def test_dice_identical_masks():
    m = cube((6, 6, 6), (1, 1, 1), (4, 4, 4))
    assert dice(m, m) == 1.0


def test_dice_disjoint_masks():
    a = cube((8, 8, 8), (0, 0, 0), (2, 2, 2))
    b = cube((8, 8, 8), (5, 5, 5), (7, 7, 7))
    assert dice(a, b) == 0.0


def test_dice_shifted_cube_half():
    a = cube((8, 8, 8), (2, 2, 2), (4, 4, 4))
    b = cube((8, 8, 8), (3, 2, 2), (5, 4, 4))  # shifted 1 voxel in x, overlap 4
    assert dice(a, b) == pytest.approx(0.5)


def test_dice_both_empty_defined_as_one():
    assert dice(empty(), empty()) == 1.0


def test_dice_symmetry_random():
    rng = np.random.default_rng(5)
    for _ in range(25):
        a_values, b_values = oracles.random_mask_pair(rng, dims=(10, 10, 10))
        a, b = mask(a_values), mask(b_values)
        assert dice(a, b) == dice(b, a)


# --- hd95 ----------------------------------------------------------------------


def test_hd95_identical_masks_zero():
    m = cube((8, 8, 8), (2, 2, 2), (6, 6, 6))
    assert hd95(m, m) == 0.0


def test_hd95_two_points_distance():
    a = np.zeros((16, 4, 4), dtype=bool)
    b = np.zeros((16, 4, 4), dtype=bool)
    a[2, 1, 1] = True
    b[12, 1, 1] = True
    assert hd95(mask(a), mask(b)) == pytest.approx(10.0)
    # spacing scales distances linearly
    assert hd95(mask(a, (2.0, 1.0, 1.0)), mask(b, (2.0, 1.0, 1.0))) == pytest.approx(20.0)


def test_hd95_empty_is_undefined():
    m = cube((6, 6, 6), (1, 1, 1), (3, 3, 3))
    assert hd95(m, empty()) is None
    assert hd95(empty(), m) is None
    assert hd95(empty(), empty()) is None


def test_hd95_symmetric():
    rng = np.random.default_rng(6)
    for _ in range(10):
        a_values, b_values = oracles.random_mask_pair(rng, dims=(10, 10, 10))
        if not a_values.any() or not b_values.any():
            continue
        a, b = mask(a_values), mask(b_values)
        assert hd95(a, b) == pytest.approx(hd95(b, a), abs=1e-12)


# --- connected components --------------------------------------------------------


def component_voxels(values, connectivity=26):
    """The voxel sets of the components `backends.components` finds, by label."""
    labels, counts, keep = backends.components(values, connectivity)
    assert keep[1:].all()  # every component has at least one voxel
    return [{tuple(ix) for ix in np.argwhere(labels == k)} for k in range(1, counts.size)]


def test_components_empty_mask():
    assert component_voxels(empty().values) == []


def test_components_full_mask_is_one_component():
    lesions = component_voxels(np.ones((4, 4, 4), dtype=bool))
    assert len(lesions) == 1
    assert len(lesions[0]) == 64


@pytest.mark.parametrize("connectivity", [0, 7, 27])
def test_components_reject_unknown_connectivity(connectivity):
    with pytest.raises(ValueError, match=f"got {connectivity}"):
        backends.components(np.ones((4, 4, 4), dtype=bool), connectivity)


def test_components_corner_touch_connectivity():
    values = np.zeros((8, 8, 8), dtype=bool)
    values[0:2, 0:2, 0:2] = True
    values[2:4, 2:4, 2:4] = True  # touches at one corner
    assert len(component_voxels(values, connectivity=26)) == 1
    assert len(component_voxels(values, connectivity=6)) == 2


def test_components_volume_and_counts():
    values = np.zeros((8, 8, 8), dtype=bool)
    values[0:2, 0:2, 0:2] = True
    labels, counts, keep = backends.components(values, 26)
    np.testing.assert_array_equal(counts, [8 * 8 * 8 - 8, 8])
    np.testing.assert_array_equal(keep, [False, True])
    # the component's voxels are exactly the positive voxels
    assert component_voxels(values) == [
        {(x, y, z) for x in range(2) for y in range(2) for z in range(2)}
    ]


@pytest.mark.parametrize("min_voxels", [0, 1, 27])
@pytest.mark.parametrize("kind", ["empty", "full", "blobs"])
def test_component_counts_equal_full_bincount(kind, min_voxels):
    # counts are taken at the positive voxels only; background is the rest
    values = {
        "empty": np.zeros((7, 6, 5), dtype=bool),
        "full": np.ones((7, 6, 5), dtype=bool),
        "blobs": oracles.random_mask_pair(np.random.default_rng(8), dims=(12, 11, 10))[0],
    }[kind]
    labels, counts, keep = backends.components(values, 26, min_voxels)
    full = np.bincount(labels.ravel(), minlength=counts.size)
    assert counts.dtype == full.dtype
    np.testing.assert_array_equal(counts, full)
    np.testing.assert_array_equal(keep, (full >= min_voxels) & (np.arange(full.size) > 0))


def _label_cases():
    """(name, mask) pairs: empty, full, single-voxel, face-touching and random."""
    rng = np.random.default_rng(23)
    dims = (9, 8, 7)
    single = np.zeros(dims, dtype=bool)
    single[4, 3, 5] = True
    corner = np.zeros(dims, dtype=bool)
    corner[-1, -1, -1] = True
    cases = [("empty", np.zeros(dims, dtype=bool)), ("full", np.ones(dims, dtype=bool)),
             ("single", single), ("corner", corner)]
    cases += [(f"face{i}", m) for i, m in enumerate(oracles.face_touching_masks(dims))]
    cases += [(f"random{i}", rng.random(dims) < p) for i, p in enumerate((0.05, 0.2, 0.45))]
    cases += [(f"blobs{i}", oracles.random_mask_pair(rng, dims)[i]) for i in range(2)]
    return cases


@pytest.mark.parametrize("connectivity", [6, 18, 26])
def test_box_labelling_equals_full_volume_labelling(connectivity):
    structure = ndimage.generate_binary_structure(3, {6: 1, 18: 2, 26: 3}[connectivity])
    for name, values in _label_cases():
        want, n = ndimage.label(values, structure=structure)
        positives = backends.support_of(values)
        whole = (slice(None),) * 3
        for box in (backends.bounding_box(positives, values.shape), whole):
            # any box holding every positive labels alike
            labels, count = backends.label_components(values, connectivity, box)
            assert count == n, name
            np.testing.assert_array_equal(labels, want, err_msg=name)
            stale = backends.LabelBuffer(values.shape)  # a reused buffer, dirty everywhere
            stale.array.fill(7)
            stale.box = whole
            labels, count = backends.label_components(values, connectivity, box, stale)
            assert labels is stale.array and stale.box == box and count == n, name
            np.testing.assert_array_equal(labels, want, err_msg=name)
        for given in (None, positives):
            labels, counts, keep = backends.components(values, connectivity, 1, given)
            np.testing.assert_array_equal(labels, want, err_msg=name)
            np.testing.assert_array_equal(counts, np.bincount(want.ravel(), minlength=n + 1))


def _moving_boxes(dims=(12, 11, 10), seed=31):
    """Masks in sequence whose boxes move, shrink, grow, vanish and come back."""
    rng = np.random.default_rng(seed)

    def blob(lo, hi, p=0.45):
        values = np.zeros(dims, dtype=bool)
        box = tuple(slice(a, b) for a, b in zip(lo, hi))
        values[box] = rng.random([b - a for a, b in zip(lo, hi)]) < p
        return values

    empty = np.zeros(dims, dtype=bool)
    return [blob((2, 2, 2), (7, 7, 6)), blob((5, 4, 3), (10, 9, 8)),  # moves
            blob((6, 5, 4), (8, 7, 6), 1.0), blob((0, 0, 0), dims),  # shrinks, grows to all
            empty, blob((3, 3, 3), (4, 4, 4), 1.0), empty, empty,  # empty, one voxel
            blob((1, 8, 0), (11, 11, 10)), blob((0, 0, 7), (4, 3, 10)),  # moves across
            blob((9, 0, 0), (12, 11, 3), 0.6)]


@pytest.mark.parametrize("connectivity", [6, 18, 26])
def test_label_buffer_labels_each_mask_as_a_fresh_zeroed_buffer(connectivity):
    # the buffer is cleared only over the box the previous labelling wrote
    masks = _moving_boxes()
    buffer = backends.LabelBuffer(masks[0].shape)
    for i, values in enumerate(masks):
        box = backends.bounding_box(backends.support_of(values), values.shape)
        want, n = backends.label_components(values, connectivity, box)
        got, count = backends.label_components(values, connectivity, box, buffer)
        assert got is buffer.array and buffer.box == box and count == n, i
        assert got.tobytes() == want.tobytes(), i
        # as a sweep reuses it: the mask's components, then a restriction of it
        restricted = values & (np.arange(values.shape[1]) % 3 > 0)[None, :, None]
        for mask_values in (values, restricted):
            fresh = backends.components(mask_values, connectivity, 2)
            got = backends.components(mask_values, connectivity, 2, out=buffer)
            for a, b in zip(got, fresh):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), i


def test_bounding_box_is_the_smallest_box_of_the_positives():
    for name, values in _label_cases():
        box = backends.bounding_box(backends.support_of(values), values.shape)
        if not values.any():
            assert all(s.start == s.stop for s in box), name
            continue
        idx = np.argwhere(values)
        assert box == tuple(slice(lo, hi + 1) for lo, hi in zip(idx.min(0), idx.max(0))), name


STRUCTURES = {c: ndimage.generate_binary_structure(3, r) for c, r in ((6, 1), (18, 2), (26, 3))}


def _labelling(values, connectivity, out=None, every_box_by_runs=True):
    """`components`' (labels, counts) and whether the run labeller ran; with
    `every_box_by_runs`, every non-empty mask is labelled from its runs."""
    ran = []
    label_runs = backends._label_runs

    def counted(*args):
        ran.append(True)
        return label_runs(*args)

    with pytest.MonkeyPatch.context() as mp:
        if every_box_by_runs:
            mp.setattr(backends, "_BOX_VOXELS_PER_RUN", 0)
        mp.setattr(backends, "_label_runs", counted)
        labels, counts, keep = backends.components(values, connectivity, out=out)
    assert keep.tolist() == [False] + [True] * (counts.size - 1)
    return labels, counts, bool(ran)


@st.composite
def run_masks(draw):
    """Masks of 1 to 9 voxels a side, at any density, with positives drawn on
    chosen faces and on both sides of chosen row ends (consecutive flat
    indices in two rows)."""
    dims = tuple(draw(st.integers(1, 9)) for _ in range(3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.random(dims) < draw(st.sampled_from([0.0, 0.05, 0.2, 0.5, 0.8, 1.0]))
    for axis, end in draw(st.lists(st.tuples(st.integers(0, 2), st.sampled_from([0, -1])))):
        face = [slice(None)] * 3
        face[axis] = end
        values[tuple(face)] |= rng.random(values[tuple(face)].shape) < 0.5
    rows = dims[0] * dims[1]
    for row in draw(st.lists(st.integers(1, rows - 1), max_size=3) if rows > 1 else st.just([])):
        values.reshape(-1)[row * dims[2] - 1:row * dims[2] + 1] = True
    return values


def _every_face(dims=(7, 6, 5)):
    """A voxel on each of the six faces, none on an edge, and none touching."""
    values = np.zeros(dims, dtype=bool)
    values[0, 2, 2] = values[-1, 3, 1] = values[2, 0, 3] = True
    values[4, -1, 2] = values[3, 4, 0] = values[1, 2, -1] = True
    return values


@settings(max_examples=300, deadline=None)
@given(values=run_masks(), connectivity=st.sampled_from([6, 18, 26]),
       margin=st.integers(0, 2))
@example(values=_every_face(), connectivity=6, margin=0)
@example(values=np.ones((1, 1, 1), dtype=bool), connectivity=26, margin=0)
@example(values=np.ones((1, 4, 1), dtype=bool), connectivity=18, margin=1)
@example(values=np.eye(5, dtype=bool)[None].repeat(2, 0), connectivity=18, margin=0)
def test_run_labeller_labels_and_numbers_as_ndimage_label(values, connectivity, margin):
    # the run labeller's labels volume, component counts and numbering are
    # ndimage.label's, inside a larger volume
    volume = np.zeros(tuple(n + 2 * margin for n in values.shape), dtype=bool)
    volume[tuple(slice(margin, margin + n) for n in values.shape)] = values
    want, n = ndimage.label(volume, structure=STRUCTURES[connectivity])
    stale = backends.LabelBuffer(volume.shape)  # a reused buffer, dirty everywhere
    stale.array.fill(7)
    stale.box = (slice(None),) * 3
    for out in (None, stale):
        labels, counts, ran = _labelling(volume, connectivity, out)
        assert ran == bool(volume.any())
        assert counts.size == n + 1
        np.testing.assert_array_equal(counts, np.bincount(want.ravel(), minlength=n + 1))
        assert labels.dtype == want.dtype and labels.tobytes() == want.tobytes()


@pytest.mark.parametrize("connectivity", [6, 18, 26])
def test_run_labeller_joins_a_run_to_a_voxel_exactly_where_ndimage_does(connectivity):
    # a z-run of 1 or 3 voxels and one voxel in each row around its own, at
    # every z from two before the run to two past it: each neighbour row's
    # z slack, at both ends of the run, in the rows before the run and after
    for length in (1, 3):
        for dx, dy in ((dx, dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1) if dx or dy):
            for z in range(length + 4):
                values = np.zeros((3, 3, length + 4), dtype=bool)
                values[1, 1, 2:2 + length] = True
                values[1 + dx, 1 + dy, z] = True
                want, n = ndimage.label(values, structure=STRUCTURES[connectivity])
                labels, counts, ran = _labelling(values, connectivity)
                assert ran and counts.size == n + 1, (length, dx, dy, z)
                assert labels.tobytes() == want.tobytes(), (length, dx, dy, z)


def _serpentine(n=40):
    """One face-connected path of single voxels through an n³ volume: in each
    even x layer, lines along y at every other z, joined alternately at the
    last and the first y; each layer joined to the next through the odd x
    layer at the end of its last line. Its runs are numbered across the
    path, so joining them takes several hooking rounds."""
    values = np.zeros((n, n, n), dtype=bool)
    for layer, x in enumerate(range(0, n, 2)):
        zs = list(range(0, n, 2))[::-1 if layer % 2 else 1]
        for k, z in enumerate(zs):
            values[x, :, z] = True
            if k + 1 < len(zs):
                values[x, n - 1 if k % 2 == 0 else 0, (z + zs[k + 1]) // 2] = True
        if x + 1 < n:
            values[x + 1, n - 1 if (len(zs) - 1) % 2 == 0 else 0, zs[-1]] = True
    return values


@pytest.mark.parametrize("connectivity", [6, 18, 26])
def test_run_labeller_joins_a_serpentine_into_one_component(connectivity):
    values = _serpentine()
    want, n = ndimage.label(values, structure=STRUCTURES[connectivity])
    assert n == 1
    labels, counts, ran = _labelling(values, connectivity)
    assert ran and counts.size == 2 and labels.tobytes() == want.tobytes()


def _labeller_of(values, connectivity=26):
    """Which labeller labels `values` in its bounding box: "runs" or "ndimage"."""
    labels, counts, ran = _labelling(values, connectivity, every_box_by_runs=False)
    want, n = ndimage.label(values, structure=STRUCTURES[connectivity])
    assert counts.size == n + 1 and labels.tobytes() == want.tobytes()
    return "runs" if ran else "ndimage"


@functools.cache
def _search_predictions():
    """A `search` prediction per rule of the 0.1 grid: a criterion-6 48³
    phantom's linear map above 0.5."""
    spec = PhantomSpec(dims=(48, 48, 48), n_lesions=3, radius_range=(4.5, 9.0),
                       fidelity=(0.5, 0.5, 0.5), noise_sd=0.25,
                       planted_rule=LinearRule(np.array([0.5, 0.5, 0.0])))
    case = generate_case([0, 7], spec)
    return [combine_linear(case.modalities, rule).values > 0.5 for rule in simplex_grid(0.1)]


def test_sparse_predictions_take_the_runs_and_dense_or_small_masks_ndimage():
    used = [_labeller_of(values) for values in _search_predictions()]
    assert used[50] == "runs"  # the planted rule, (0.5, 0.5, 0)
    assert used.count("runs") >= 0.8 * len(used)
    # 16³ masks: a small phantom's truth and predictions
    small = generate_case([0, 1], PhantomSpec(dims=(16, 16, 16), n_lesions=1,
                                              radius_range=(3.0, 5.0)))
    for rule in simplex_grid(0.25):
        assert _labeller_of(combine_linear(small.modalities, rule).values > 0.5) == "ndimage"
    assert _labeller_of(small.truth.values) == "ndimage"
    # full and checkerboard 48³ boxes
    assert _labeller_of(np.ones((48, 48, 48), dtype=bool)) == "ndimage"
    assert _labeller_of(np.indices((48, 48, 48)).sum(0) % 2 == 0) == "ndimage"


@pytest.mark.parametrize("connectivity", [6, 18, 26])
def test_a_full_box_goes_to_ndimage_without_its_runs_being_counted(connectivity, monkeypatch):
    # a run holds at most a row of its box, so a 48³ box of 48³ positives
    # has at least 48² runs, too many for the runs to pay; they are not found
    def no_positions(flat, shape, n_masks):
        raise AssertionError("run positions built for a full box")

    values = np.ones((48, 48, 48), dtype=bool)
    monkeypatch.setattr(backends, "batch_positions", no_positions)
    labels, counts, keep = backends.components(values, connectivity, 2)
    assert counts.tolist() == [0, values.size] and keep.tolist() == [False, True]
    assert (labels == 1).all()


@pytest.mark.parametrize("connectivity", [6, 18, 26])
def test_one_label_buffer_serves_both_labellers(connectivity):
    # the run labeller claims the positives it writes and ndimage.label its
    # box; after any mask, the next is labelled as in a fresh array
    sparse = _search_predictions()
    shape = sparse[0].shape
    one_voxel = np.zeros(shape, dtype=bool)
    one_voxel[20, 31, 42] = True
    masks = [("sparse", "runs", sparse[50]), ("full", "ndimage", np.ones(shape, dtype=bool)),
             ("empty", "ndimage", np.zeros(shape, dtype=bool)),
             ("one voxel", "ndimage", one_voxel),
             ("checkerboard", "ndimage", np.indices(shape).sum(0) % 2 == 0),
             ("sparse again", "runs", sparse[20])]
    fresh = {}
    for name, labeller, values in masks:
        assert _labeller_of(values, connectivity) == labeller, name
        fresh[name] = backends.components(values, connectivity, 2)
    buffer = backends.LabelBuffer(shape)  # a reused buffer, dirty everywhere
    buffer.array.fill(7)
    buffer.box = (slice(None),) * 3
    # the masks in turn, then every other ordered pair of them
    for name, _, values in itertools.chain(masks, *itertools.permutations(masks, 2)):
        got = backends.components(values, connectivity, 2, out=buffer)
        assert got[0] is buffer.array, name
        for a, b in zip(got, fresh[name]):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


def _candidate_plane(masks):
    """A sweep's view of `masks`: the candidates are the voxels some mask
    holds, as ascending flat indices, and row i of the (masks, candidates)
    plane marks mask i's; with the candidates' `batch_positions` for all the
    masks, raveled, and where consecutive ones continue a z-run."""
    flat = np.flatnonzero(np.any(masks, axis=0))
    positions = backends.batch_positions(flat, masks[0].shape, len(masks)).ravel()
    plane = np.stack([m.reshape(-1)[flat] for m in masks])
    return flat, plane, positions, np.diff(positions) == 1


def _batch(masks, connectivity, min_voxels):
    """Each mask's (labels volume, counts, keep, kept) from one
    `run_components` over all of `masks`, from the runs of their plane, as
    a sweep labels a chunk of rules (see `_candidate_plane`)."""
    shape = masks[0].shape
    flat, plane, positions, joins = _candidate_plane(masks)
    starts, lengths, bounds = backends.plane_runs(plane, joins)
    slots, counts, keep, components = backends.run_components(
        positions.take(starts), lengths, bounds, shape, connectivity, min_voxels)
    assert len(components) == len(masks) + 1 and components[-1] == counts.size
    out = []
    for k, (a, b, c, d) in enumerate(zip(bounds, bounds[1:], components, components[1:])):
        index = np.flatnonzero(plane[k])
        volume = np.zeros(shape, dtype=np.int32)
        volume.reshape(-1)[flat.take(index)] = np.repeat(slots[a:b] - c, lengths[a:b])
        out.append((volume, counts[c:d], keep[c:d], np.repeat(keep[slots[a:b]], lengths[a:b])))
    return out


@st.composite
def border_masks(draw):
    """1 to 2 chunks' worth plus one of masks on one grid of 1 to 8 voxels a
    side: empty, one-voxel, and random ones with positives drawn on chosen
    slab borders (x = 0, x = nx - 1, y = 0, y = ny - 1)."""
    dims = tuple(draw(st.integers(1, 8)) for _ in range(3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    masks = []
    for kind in draw(st.lists(st.sampled_from(["empty", "voxel", "random"]), min_size=1,
                              max_size=2 * 8 + 1)):
        values = np.zeros(dims, dtype=bool)
        if kind == "voxel":
            values[tuple(rng.integers(0, n) for n in dims)] = True
        elif kind == "random":
            values = rng.random(dims) < draw(st.sampled_from([0.05, 0.2, 0.5, 0.8, 1.0]))
            for axis, end in draw(st.lists(st.tuples(st.integers(0, 1), st.sampled_from([0, -1])),
                                           max_size=4)):
                border = [slice(None)] * 3
                border[axis] = end
                values[tuple(border)] |= rng.random(values[tuple(border)].shape) < 0.6
        masks.append(values)
    return masks


def _on_every_border(dims=(5, 6, 4)):
    """Four masks, each holding a slab border whole: x = 0, x = nx - 1,
    y = 0 and y = ny - 1, so that neighbouring masks' borders meet."""
    masks = []
    for border in ((0, slice(None)), (-1, slice(None)), (slice(None), 0), (slice(None), -1)):
        values = np.zeros(dims, dtype=bool)
        values[border] = True
        masks.append(values)
    return masks


@settings(max_examples=200, deadline=None)
@given(masks=border_masks(), connectivity=st.sampled_from([6, 18, 26]),
       min_voxels=st.integers(0, 4))
@example(masks=_on_every_border(), connectivity=26, min_voxels=0)
@example(masks=_on_every_border()[::-1] * 3, connectivity=6, min_voxels=7)
@example(masks=[np.ones((1, 1, 1), dtype=bool)] * 9, connectivity=18, min_voxels=1)
@example(masks=[np.zeros((3, 2, 4), dtype=bool)] * 3, connectivity=26, min_voxels=1)
def test_batched_components_equal_each_mask_labelled_alone(masks, connectivity, min_voxels):
    # labels volume, counts and keep, bytes and dtypes alike, and the kept
    # positives are those whose component is kept
    for values, (labels, counts, keep, kept) in zip(masks, _batch(masks, connectivity,
                                                                  min_voxels)):
        want = backends.components(values, connectivity, min_voxels)
        for got, expected in zip((labels, counts, keep), want):
            assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()
        positives = np.flatnonzero(values)
        assert kept.tobytes() == keep[labels.reshape(-1)[positives]].tobytes()


def _z_runs(values):
    """(x, y, z, length) of each z-run of `values`, in C order."""
    runs = []
    for (x, y), row in zip(np.ndindex(values.shape[:2]), values.reshape(-1, values.shape[2])):
        edges = np.diff(np.concatenate(([0], row.view(np.int8), [0])))
        runs += [(x, y, int(z), int(end - z)) for z, end in zip(np.flatnonzero(edges == 1),
                                                              np.flatnonzero(edges == -1))]
    return runs


def _run_ends(dims=(3, 4, 5)):
    """Masks whose runs end at a row's end and at an x slab's end with the
    next voxel in flat order set, and full masks, whose last candidate is
    set in one row of the plane and its first in the next."""
    row_end, slab_end = np.zeros(dims, dtype=bool), np.zeros(dims, dtype=bool)
    row_end.reshape(-1)[dims[2] - 2:dims[2] + 2] = True  # the end of row (0, 0), then row (0, 1)
    slab_end[0, -1, -2:] = slab_end[1, 0, :2] = True  # the end of slab 0, then slab 1
    return [row_end, slab_end, np.ones(dims, dtype=bool), np.ones(dims, dtype=bool), row_end]


@settings(max_examples=200, deadline=None)
@given(masks=border_masks(), connectivity=st.sampled_from([6, 18, 26]),
       min_voxels=st.integers(0, 4))
@example(masks=_run_ends(), connectivity=6, min_voxels=0)
@example(masks=_run_ends()[::-1], connectivity=26, min_voxels=3)
@example(masks=[np.ones((2, 2, 2), dtype=bool)] * 8, connectivity=18, min_voxels=9)
def test_runs_from_a_plane_equal_each_mask_labelled_alone(masks, connectivity, min_voxels):
    # a plane of up to 8 masks: each mask's runs are those of its own
    # positives, and its labels, counts and keep are `components`' on it
    masks = masks[:8]
    shape = masks[0].shape
    flat, plane, positions, joins = _candidate_plane(masks)
    starts, lengths, bounds = backends.plane_runs(plane, joins)
    n = flat.size
    stride = (shape[0] + 1) * (shape[1] + 1) * (shape[2] + 1)
    slots, counts, keep, components = backends.run_components(
        positions.take(starts), lengths, bounds, shape, connectivity, min_voxels)
    for i, values in enumerate(masks):
        runs = slice(bounds[i], bounds[i + 1])
        assert ((starts[runs] >= i * n) & (starts[runs] < (i + 1) * n)).all()
        first = np.unravel_index(flat.take(starts[runs] - i * n), shape)
        assert list(zip(*(a.tolist() for a in first), lengths[runs].tolist())) == _z_runs(values)
        assert (positions.take(starts[runs]) - i * stride).tolist() == backends.batch_positions(
            np.ravel_multi_index(first, shape), shape, 1)[0].tolist()
        labels, want_counts, want_keep = backends.components(values, connectivity, min_voxels)
        got = np.repeat(slots[runs] - components[i], lengths[runs])
        assert got.tolist() == labels.reshape(-1)[np.flatnonzero(values)].tolist()
        c, d = components[i], components[i + 1]
        for got, want in zip((counts[c:d], keep[c:d]), (want_counts, want_keep)):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_batch_positions_fall_back_to_int64_past_int32():
    # voxel (x, y, z) of mask k sits at ((k·(nx + 1) + x)·(ny + 1) + y)·(nz + 1) + z
    flat = np.array([0, 5, 7])  # (0, 0, 0), (1, 0, 1), (1, 1, 1) of a 2³ grid
    table = backends.batch_positions(flat, (2, 2, 2), 8)
    assert table.dtype == np.int32
    assert table[3].tolist() == [((3 * 3) * 3) * 3, ((3 * 3 + 1) * 3) * 3 + 1,
                                 ((3 * 3 + 1) * 3 + 1) * 3 + 1]
    wide = backends.batch_positions(np.array([2**30 - 1]), (1024, 1024, 1024), 8)
    assert wide.dtype == np.int64
    assert wide[7, 0] == ((7 * 1025 + 1023) * 1025 + 1023) * 1025 + 1023


def _assert_surface_is_six_copy_boundary(values, spacing=(0.7, 0.55, 3.3)):
    """`boundary_surface` of `values`, in C and in Fortran layout, holds
    exactly the six-copy reference's boundary voxels, as flat indices and as
    the bytes of np.argwhere's coordinates scaled by `spacing`."""
    ref = oracles.boundary_mask_ref(values)
    want_points = np.argwhere(ref) * np.asarray(spacing)
    for layout in (values, np.asfortranarray(values)):
        surface = boundary_surface(mask(layout, spacing))
        if not values.any():
            assert surface is None
            continue
        np.testing.assert_array_equal(surface.flat, np.flatnonzero(ref))
        assert surface.points.tobytes() == want_points.tobytes()


@pytest.mark.parametrize("dims", [(7, 6, 5), (1, 5, 4), (2, 1, 6), (2, 2, 2), (1, 1, 1)])
def test_boundary_mask_equals_six_copy_reference(dims):
    rng = np.random.default_rng(sum(dims))
    masks = [np.zeros(dims, dtype=bool), np.ones(dims, dtype=bool)]
    masks += [rng.random(dims) < p for p in (0.3, 0.6, 0.9)]
    if min(dims) > 2:
        masks += oracles.face_touching_masks(dims)
    for values in masks:
        _assert_surface_is_six_copy_boundary(values)


def test_boundary_surface_equals_argwhere_oracle_at_non_dyadic_spacing():
    rng = np.random.default_rng(31)
    masks = [m for _, m in _label_cases()]
    masks += [oracles.random_mask_pair(rng, (14, 12, 10))[0] for _ in range(3)]
    for values in masks:
        _assert_surface_is_six_copy_boundary(values)


def test_zone_whose_truth_is_empty_scores_the_restricted_truth():
    # the truth lies wholly outside the zone: every truth-side metric must
    # read the restricted (empty) truth, never the whole one
    spacing = (0.7, 0.55, 3.3)
    truth = cube((10, 9, 8), (1, 1, 1), (4, 5, 4), spacing)
    pred = cube((10, 9, 8), (2, 2, 2), (8, 6, 6), spacing)
    zone_values = np.zeros((10, 9, 8), dtype=bool)
    zone_values[5:] = True
    zone = mask(zone_values, spacing)
    assert not in_zone(truth, zone).volume.values.any() and truth.values.any()
    ctx = truth_context(in_zone(truth, zone))
    assert ctx.surface is None
    for given in (pred, label_mask(pred)):
        for context in (None, ctx):
            report = evaluate(given, truth, zone=zone, truth_ctx=context)
            assert report.hd95_mm is None
            assert report.dsc == 0.0 and not report.dsc_both_empty
            assert report.recall_gt is None and report.n_gt_lesions == 0
            assert report.precision_pred == 0.0 and report.n_pred_lesions == 1
    assert hd95(label_mask(pred), ctx.mask) is None
    assert hd95(pred, truth) is not None
    outside = cube((10, 9, 8), (0, 5, 5), (4, 9, 8), spacing)  # both empty in the zone
    for context in (None, ctx):
        report = evaluate(label_mask(outside), truth, zone=zone, truth_ctx=context)
        assert report.dsc == 1.0 and report.dsc_both_empty and report.hd95_mm is None


def test_in_zone_keeps_the_positives_the_zone_holds(monkeypatch):
    # the restriction is read from the mask's own positives: a labelled mask
    # is never scanned again, whatever the zone's memory layout
    rng = np.random.default_rng(43)
    spacing = (0.7, 0.55, 3.3)
    for i in range(8):
        values, zone_values = oracles.random_mask_pair(rng, (12, 11, 10))
        if i == 0:
            zone_values[:] = True  # nothing outside the zone
        pred = mask(values, spacing)
        labelled = label_mask(pred, 6)
        want = values & zone_values
        ref = label_mask(mask(want, spacing), 6)
        with monkeypatch.context() as patched:
            patched.setattr(backends, "support_of", None)
            for zone in (mask(zone_values, spacing), mask(np.asfortranarray(zone_values), spacing)):
                got = in_zone(labelled, zone)
                assert got.components is None and got.connectivity is None
                assert got.volume.spacing == spacing
                np.testing.assert_array_equal(got.volume.values, want)
                np.testing.assert_array_equal(got.positives, ref.positives)
                relabelled = label_mask(got, 6)
                np.testing.assert_array_equal(relabelled.components[0], ref.components[0])
                np.testing.assert_array_equal(relabelled.components[1], ref.components[1])
        got = in_zone(pred, mask(zone_values, spacing))  # a plain volume is scanned once
        np.testing.assert_array_equal(got.positives, ref.positives)
        assert in_zone(pred, None) is pred and in_zone(labelled, None) is labelled


def test_labelled_mask_scores_as_its_volume():
    rng = np.random.default_rng(41)
    spacing = (0.7, 0.55, 3.3)
    pred_values, truth_values = oracles.random_mask_pair(rng, (14, 12, 10))
    pred, truth = mask(pred_values, spacing), mask(truth_values, spacing)
    line = np.zeros((14, 12, 10), dtype=bool)  # one lesion at 26, eight at 6
    for i in range(8):
        line[i, i, i] = True
    for values in (pred_values, line):
        pred = mask(values, spacing)
        for labelled_at in (6, 26):
            labelled = label_mask(pred, labelled_at)
            assert dice(labelled, truth) == dice(pred, truth)
            assert dice(truth, labelled) == dice(truth, pred)
            assert hd95(labelled, truth) == hd95(pred, truth)
            assert boundary_surface(labelled).points.tobytes() == (
                boundary_surface(pred).points.tobytes()
            )
            for connectivity in (6, 26):  # labelled at another connectivity: relabelled
                config = MetricsConfig(connectivity=connectivity)
                assert evaluate(labelled, truth, config) == evaluate(pred, truth, config)
    assert evaluate(label_mask(mask(line, spacing), 6), mask(line, spacing),
                    MetricsConfig(connectivity=26)).n_pred_lesions == 1


# --- lesion recall / precision ---------------------------------------------------


def test_recall_full_coverage():
    truth = cube((10, 10, 10), (1, 1, 1), (4, 4, 4))
    assert evaluate(truth, truth, MetricsConfig(s_gt=0.1)).recall_gt == 1.0


def test_recall_empty_pred():
    truth = cube((10, 10, 10), (1, 1, 1), (4, 4, 4))
    assert evaluate(empty((10, 10, 10)), truth, MetricsConfig(s_gt=0.1)).recall_gt == 0.0


def test_recall_zero_gt_lesions_undefined():
    pred = cube((10, 10, 10), (1, 1, 1), (4, 4, 4))
    report = evaluate(pred, empty((10, 10, 10)), MetricsConfig(s_gt=0.1))
    assert report.recall_gt is None and report.n_gt_lesions == 0


def test_recall_partial_coverage_two_lesions():
    dims = (14, 8, 8)
    truth = np.zeros(dims, dtype=bool)
    truth[1:6, 1:5, 1:6] = True  # lesion A: 100 voxels
    truth[9:13, 1:6, 1:6] = True  # lesion B: 100 voxels
    pred = np.zeros(dims, dtype=bool)
    pred[1:4, 1:5, 1:6] = True  # 60% of A
    pred[9, 1, 1:6] = True  # 5% of B
    report = evaluate(mask(pred), mask(truth), MetricsConfig(s_gt=0.1))
    assert report.recall_gt == pytest.approx(0.5)
    assert report.n_gt_lesions == report.n_pred_lesions == 2


def test_precision_pred_inside_truth():
    truth = cube((10, 10, 10), (1, 1, 1), (6, 6, 6))
    pred = cube((10, 10, 10), (2, 2, 2), (4, 4, 4))
    assert evaluate(pred, truth, MetricsConfig(s_pred=0.1)).precision_pred == 1.0


def test_precision_pred_outside_truth():
    truth = cube((10, 10, 10), (1, 1, 1), (3, 3, 3))
    pred = cube((10, 10, 10), (6, 6, 6), (9, 9, 9))
    assert evaluate(pred, truth, MetricsConfig(s_pred=0.1)).precision_pred == 0.0


def test_precision_threshold_strictness():
    dims = (12, 8, 8)
    truth = np.zeros(dims, dtype=bool)
    truth[0:3, 0:8, 0:8] = True
    pred = np.zeros(dims, dtype=bool)
    pred[0:10, 0, 0] = True  # 10 voxels, 3 inside truth -> 30% coverage
    assert evaluate(mask(pred), mask(truth), MetricsConfig(s_pred=0.5)).precision_pred == 0.0
    assert evaluate(mask(pred), mask(truth), MetricsConfig(s_pred=0.25)).precision_pred == 1.0
    assert evaluate(mask(pred), mask(truth), MetricsConfig(s_pred=0.3)).precision_pred == 0.0


def test_precision_no_pred_lesions_undefined():
    truth = cube((10, 10, 10), (1, 1, 1), (4, 4, 4))
    report = evaluate(empty((10, 10, 10)), truth, MetricsConfig(s_pred=0.1))
    assert report.precision_pred is None and report.n_pred_lesions == 0


def test_overlap_threshold_validation():
    for bad in (0.0, 1.5, -0.1, float("nan")):
        with pytest.raises(ValueError, match=f"s_gt must lie in \\(0, 1\\], got {bad}"):
            MetricsConfig(s_gt=bad)
        with pytest.raises(ValueError, match=f"s_pred must lie in \\(0, 1\\], got {bad}"):
            MetricsConfig(s_pred=bad)


# --- evaluate -------------------------------------------------------------------


def test_evaluate_perfect_prediction():
    truth = cube((10, 10, 10), (2, 2, 2), (6, 6, 6))
    report = evaluate(truth, truth)
    assert report.dsc == 1.0
    assert not report.dsc_both_empty
    assert report.hd95_mm == 0.0
    assert report.recall_gt == 1.0
    assert report.precision_pred == 1.0
    assert report.n_gt_lesions == report.n_pred_lesions == 1
    assert report.thresholds == (0.1, 0.1)


def test_evaluate_both_empty_flags():
    report = evaluate(empty(), empty())
    assert report.dsc == 1.0
    assert report.dsc_both_empty
    assert report.hd95_mm is None
    assert report.recall_gt is None
    assert report.precision_pred is None
    assert report.n_gt_lesions == report.n_pred_lesions == 0


def test_evaluate_zone_restriction():
    dims = (12, 6, 6)
    truth = np.zeros(dims, dtype=bool)
    truth[1:3, 1:4, 1:4] = True  # inside zone
    truth[8:10, 1:4, 1:4] = True  # outside zone
    pred = truth.copy()
    pred[8:10, 1:4, 1:4] = False  # prediction misses the outside lesion
    zone = np.zeros(dims, dtype=bool)
    zone[0:6] = True
    full = evaluate(mask(pred), mask(truth))
    zonal = evaluate(mask(pred), mask(truth), zone=mask(zone))
    assert full.dsc < 1.0
    assert zonal.dsc == 1.0
    assert zonal.n_gt_lesions == 1


def test_evaluate_config_echoed():
    m = cube((8, 8, 8), (1, 1, 1), (4, 4, 4))
    report = evaluate(m, m, MetricsConfig(s_gt=0.3, s_pred=0.4, connectivity=6))
    assert report.thresholds == (0.3, 0.4)
    assert report.connectivity == 6
    doc = report.to_dict()
    assert doc["s_gt"] == 0.3 and doc["s_pred"] == 0.4


# --- oracle spot-checks (full 200-pair sweep lives in the acceptance suite) ------


def test_metrics_match_bruteforce_oracle_spot():
    rng = np.random.default_rng(7)
    spacing = (1.0, 1.5, 2.0)
    checked = 0
    for _ in range(12):
        a_values, b_values = oracles.random_mask_pair(rng, dims=(9, 9, 9))
        a, b = mask(a_values, spacing), mask(b_values, spacing)
        assert dice(a, b) == pytest.approx(oracles.dice_bf(a_values, b_values), abs=1e-12)
        got = hd95(a, b)
        want = oracles.hd95_bf(a_values, b_values, spacing)
        if want is None:
            assert got is None
        else:
            assert got == pytest.approx(want, abs=1e-6)
            checked += 1
        ours = component_voxels(a_values)
        theirs = oracles.flood_fill_components(a_values)
        assert len(ours) == len(theirs)
        assert set(map(frozenset, ours)) == set(map(frozenset, theirs))
        report = evaluate(a, b)
        assert report.recall_gt == oracles.lesion_recall_bf(a_values, b_values, 0.1)
        assert report.precision_pred == oracles.lesion_precision_bf(a_values, b_values, 0.1)
        assert report.n_pred_lesions == len(theirs)
        assert report.n_gt_lesions == len(oracles.flood_fill_components(b_values))
    assert checked >= 3  # the generator must exercise non-empty pairs


@pytest.mark.parametrize("spacing", [(0.7, 0.55, 3.3), (0.664, 0.664, 3.6)])
def test_hd95_digits_match_kd_arithmetic_exactly(spacing):
    # at non-dyadic spacing other exact distance methods (e.g. an EDT lookup)
    # round some distances differently; reported HD95 digits must not move
    rng = np.random.default_rng(11)
    checked = 0
    for _ in range(6):
        a_values, b_values = oracles.random_mask_pair(rng, dims=(14, 14, 10))
        if not a_values.any() or not b_values.any():
            continue
        report = evaluate(mask(a_values, spacing), mask(b_values, spacing))
        pooled = oracles.surface_distances_kd_bf(a_values, b_values, spacing)
        assert report.hd95_mm == float(np.percentile(pooled, 95))
        checked += 1
    assert checked >= 4


def _interpolated_above_half(n: int, q: float) -> bool:
    """Whether numpy's linear percentile over n values takes its g >= 0.5 branch."""
    index = (n - 1) * (q / 100)
    return index - np.floor(index) >= 0.5


# a pooled set of n = 1, 11, 12 or 22 values has g = 0, 0.5, 0.45 and 0.95 at q = 95
@example(values=[], n_zeros=1, q=HD_PERCENTILE)  # one element, a zero
@example(values=[2.5], n_zeros=0, q=HD_PERCENTILE)  # one element, no zeros
@example(values=[], n_zeros=7, q=HD_PERCENTILE)  # all zeros
@example(values=[0.0, 0.0, 0.0], n_zeros=4, q=HD_PERCENTILE)  # all zeros, some own
@example(values=[1.0] * 5 + [3.0] * 6, n_zeros=0, q=HD_PERCENTILE)  # ties, g = 0.5
@example(values=[float(v) for v in range(12)], n_zeros=0, q=HD_PERCENTILE)  # no zeros, g < 0.5
@example(values=[0.5, 0.25, 4.0], n_zeros=19, q=HD_PERCENTILE)  # g >= 0.5 past the zeros
@example(values=[0.5, 0.25, 4.0, 4.0], n_zeros=8, q=HD_PERCENTILE)  # g < 0.5, ties at the top
@given(
    values=st.lists(
        st.one_of(st.sampled_from([0.0, 1.0, 1.5, 2.0 ** 0.5]),
                  st.floats(min_value=0.0, max_value=1e3, allow_subnormal=True)),
        max_size=40,
    ),
    n_zeros=st.integers(min_value=0, max_value=40),
    q=st.sampled_from([HD_PERCENTILE, 0.0, 50.0, 99.0, 100.0]),
)
@settings(max_examples=300, deadline=None)
def test_order_statistic_percentile_is_numpy_percentile_bitwise(values, n_zeros, q):
    if not values and not n_zeros:
        return
    own = np.array(values, dtype=np.float64)
    pooled = np.concatenate([own, np.zeros(n_zeros)])
    want = float(np.percentile(pooled, q))
    got = _percentile_past_zeros(own.copy(), n_zeros, q)
    assert type(got) is float
    assert np.float64(got).tobytes() == np.float64(want).tobytes(), (got, want)


def test_order_statistic_percentile_examples_take_both_interpolation_branches():
    # the examples above reach both branches of numpy's `_lerp`
    assert _interpolated_above_half(3 + 19, HD_PERCENTILE)
    assert _interpolated_above_half(11, HD_PERCENTILE)
    assert not _interpolated_above_half(12, HD_PERCENTILE)
    assert not _interpolated_above_half(4 + 8, HD_PERCENTILE)


def _kd_hd95(pred_values, truth_values, spacing, truth_spacing=None):
    pooled = oracles.surface_distances_kd_bf(pred_values, truth_values, spacing, truth_spacing)
    return float(np.percentile(pooled, 95))


def test_hd95_grids_a_rounding_error_apart_share_no_points():
    # alignment accepts a 1e-9 relative spacing difference; the same voxel
    # index is then two points picometres apart, so HD95 is not 0.0
    values = cube((9, 8, 6), (2, 2, 1), (7, 6, 5)).values
    spacing = (0.7, 0.55, 3.3)
    other = (0.7 * (1 + 1e-12), 0.55, 3.3)
    want = _kd_hd95(values, values, spacing, other)
    assert 0.0 < want < 1e-11
    pred, truth = mask(values, spacing), mask(values, other)
    assert hd95(pred, truth) == want
    ctx = truth_context(truth)
    assert evaluate(pred, truth, truth_ctx=ctx).hd95_mm == want


@pytest.mark.parametrize("axis", range(3))
def test_hd95_one_voxel_shift_matches_kd_arithmetic(axis):
    # most surface points lie on both surfaces; those are exactly 0.0 apart
    truth_values = np.zeros((14, 13, 11), dtype=bool)
    truth_values[3:10, 2:10, 2:8] = True
    truth_values[5:8, 9:12, 4:9] = True
    pred_values = np.roll(truth_values, 1, axis=axis)
    surf_p = set(oracles.boundary_voxels_bf(pred_values))
    surf_g = set(oracles.boundary_voxels_bf(truth_values))
    assert len(surf_p & surf_g) > max(len(surf_p), len(surf_g)) / 2
    for spacing in [(0.7, 0.55, 3.3), (0.664, 0.664, 3.6)]:
        pred, truth = mask(pred_values, spacing), mask(truth_values, spacing)
        want = _kd_hd95(pred_values, truth_values, spacing)
        assert hd95(pred, truth) == want
        assert hd95(truth, pred) == _kd_hd95(truth_values, pred_values, spacing)
        assert evaluate(pred, truth, truth_ctx=truth_context(truth)).hd95_mm == want


# --- one truth context scores many predictions -------------------------------------

REUSE_DIMS = (10, 9, 8)
PREDICTION_KINDS = ("random", "shift", "identical", "disjoint", "empty")


def _prediction(kind, truth_values, rng):
    if kind == "random":
        return oracles.random_mask_pair(rng, truth_values.shape)[0]
    if kind == "shift":  # one voxel along one axis, either way
        axis, way = divmod(int(rng.integers(6)), 2)
        return np.roll(truth_values, 2 * way - 1, axis=axis)
    if kind == "identical":
        return truth_values.copy()
    if kind == "disjoint":
        return oracles.random_mask_pair(rng, truth_values.shape)[0] & ~truth_values
    return np.zeros(truth_values.shape, dtype=bool)


# each step is (kind, whether the prediction's grid is 1e-12 apart from the truth's)
@example(seed=3, spacing=(0.7, 0.55, 3.3),
         steps=[("random", False), ("random", True), ("shift", False), ("shift", True)])
@example(seed=4, spacing=(0.664, 0.664, 3.6),
         steps=[("identical", False), ("identical", True), ("disjoint", False), ("random", False),
                ("empty", False), ("random", True), ("random", False)])
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    spacing=st.sampled_from([(0.7, 0.55, 3.3), (0.664, 0.664, 3.6)]),
    steps=st.lists(st.tuples(st.sampled_from(PREDICTION_KINDS), st.booleans()),
                   min_size=1, max_size=8),
)
@settings(max_examples=40, deadline=None)
def test_reused_truth_context_scores_as_the_oracles_and_a_fresh_context(seed, spacing, steps):
    # the context's distance memo and scratch volume carry over from one
    # prediction to the next; no value may depend on what was scored before
    rng = np.random.default_rng(seed)
    truth_values = oracles.random_mask_pair(rng, REUSE_DIMS)[1]
    truth = mask(truth_values, spacing)
    ctx = truth_context(truth)
    for kind, apart in steps:
        pred_spacing = (spacing[0] * (1 + 1e-12),) + spacing[1:] if apart else spacing
        pred_values = _prediction(kind, truth_values, rng)
        pred = mask(pred_values, pred_spacing)
        got = evaluate(pred, truth, truth_ctx=ctx)
        assert not ctx.scratch.any()
        fresh = evaluate(pred, truth)
        want_hd = None
        if pred_values.any() and truth_values.any():
            pooled = oracles.surface_distances_kd_bf(pred_values, truth_values, pred_spacing,
                                                     spacing)
            want_hd = float(np.percentile(pooled, HD_PERCENTILE))
        want = repr((want_hd, oracles.dice_bf(pred_values, truth_values)))
        assert repr((got.hd95_mm, got.dsc)) == want, kind
        assert repr((fresh.hd95_mm, fresh.dsc)) == want, kind
        assert repr(hd95(pred, truth, ctx)) == repr(want_hd)
