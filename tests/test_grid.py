"""Grid geometry, transforms, bilinear sampling, and the BEVF container."""

import dataclasses
import json
import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from bevalign.config import from_dict, to_dict
from bevalign.grid import (
    MAGIC,
    FeatureMap,
    GridMeta,
    MetaMismatchError,
    OutOfBoundsError,
    PlanarTransform,
    apply_transform,
    bilinear_sample,
    clamp_to_grid,
    default_meta,
    grid_to_world,
    load_feature_map,
    read_bevf,
    require_same_meta,
    save_feature_map,
    world_to_grid,
    write_bevf,
)
from bevalign.oracles import apply_transform_mp, bilinear_oracle, world_to_grid_exact

coords = st.floats(-54.0, 54.0, allow_nan=False, allow_infinity=False)
angles = st.floats(-math.pi, math.pi, allow_nan=False, allow_infinity=False)

# signed zeros, float32 subnormals and infinities; float64 inputs also get
# a float64 subnormal, which rounds to zero in float32
SPECIAL_VALUES = [-0.0, 0.0, 2.0**-149, -(2.0**-130), math.inf, -math.inf]


@st.composite
def bevf_inputs(draw):
    """Small 2-D or 3-D float32/float64 arrays, C-ordered, Fortran-ordered or
    strided views."""
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    width = 32 if dtype is np.float32 else 64
    special = SPECIAL_VALUES + ([] if width == 32 else [1e-310])
    elements = st.one_of(st.floats(-(2.0**127), 2.0**127, width=width), st.sampled_from(special))
    shape = draw(hnp.array_shapes(min_dims=2, max_dims=3, min_side=1, max_side=5))
    arr = draw(hnp.arrays(dtype, shape, elements=elements))
    layout = draw(st.sampled_from(["c", "fortran", "strided"]))
    if layout == "fortran":
        return np.asfortranarray(arr)
    if layout == "strided":
        return np.repeat(arr, 2, axis=1)[:, ::2]
    return arr


def small_map(h=4, w=5, c=2, seed=0):
    meta = GridMeta(0.0, w * 0.5, 0.0, h * 0.5, 0.5)
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((meta.height, meta.width, c)).astype(np.float32)
    return FeatureMap(meta=meta, data=data)


class TestGridMeta:
    def test_default_meta_shape(self):
        meta = default_meta()
        assert (meta.height, meta.width) == (144, 144)

    def test_derived_shape(self):
        meta = GridMeta(-2.0, 2.0, -1.0, 2.0, 0.5)
        assert (meta.height, meta.width) == (6, 8)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(x_min=1.0, x_max=1.0, y_min=0.0, y_max=1.0, resolution=0.5),
            dict(x_min=0.0, x_max=1.0, y_min=2.0, y_max=1.0, resolution=0.5),
            dict(x_min=0.0, x_max=1.0, y_min=0.0, y_max=1.0, resolution=0.0),
            dict(x_min=0.0, x_max=1.0, y_min=0.0, y_max=1.0, resolution=-0.1),
        ],
    )
    def test_invalid_extents_raise(self, kwargs):
        with pytest.raises(ValueError):
            GridMeta(**kwargs)

    def test_dict_round_trip(self):
        meta = default_meta()
        assert from_dict(GridMeta, to_dict(meta)) == meta

    def test_cached_shape_stays_outside_the_fields(self):
        meta = GridMeta(-2.0, 2.0, -1.0, 2.0, 0.5)
        # computed once, at construction
        assert vars(meta)["height"] == 6 and vars(meta)["width"] == 8
        fields = {"x_min": -2.0, "x_max": 2.0, "y_min": -1.0, "y_max": 2.0, "resolution": 0.5}
        assert to_dict(meta) == fields
        # equality, hashing and repr read the fields only, not the cache
        twin = GridMeta(-2.0, 2.0, -1.0, 2.0, 0.5)
        del vars(twin)["height"]
        vars(twin)["width"] = 999
        assert twin == meta and hash(twin) == hash(meta) and repr(twin) == repr(meta)
        assert twin.height == 6
        assert GridMeta(-2.0, 2.0, -1.0, 2.0, 0.25) != meta
        # replace() builds a new instance, whose shape is derived afresh
        assert dataclasses.replace(meta, resolution=0.25).height == 12


class TestCoordinateMapping:
    def test_corner_maps_to_origin(self):
        meta = default_meta()
        assert world_to_grid((meta.x_min, meta.y_min), meta) == (0.0, 0.0)

    def test_row_is_y_col_is_x(self):
        meta = GridMeta(0.0, 10.0, 0.0, 10.0, 1.0)
        r, c = world_to_grid((3.0, 7.0), meta)
        assert (r, c) == (7.0, 3.0)

    @given(x=coords, y=coords)
    @settings(max_examples=100, deadline=None)
    def test_round_trip(self, x, y):
        meta = default_meta()
        gx, gy = grid_to_world(world_to_grid((x, y), meta), meta)
        assert abs(gx - x) < 1e-9 and abs(gy - y) < 1e-9

    @given(x=coords, y=coords)
    @settings(max_examples=100, deadline=None)
    def test_matches_exact_rational_mapping(self, x, y):
        meta = default_meta()
        row, col = world_to_grid((x, y), meta)
        row_f, col_f = world_to_grid_exact((x, y), meta)
        assert abs(row - float(row_f)) < 1e-9
        assert abs(col - float(col_f)) < 1e-9


class TestPlanarTransform:
    def test_identity(self):
        assert apply_transform((3.0, -2.0), PlanarTransform()) == (3.0, -2.0)

    def test_pure_rotation_quarter_turn(self):
        t = PlanarTransform(theta=math.pi / 2.0)
        x, y = apply_transform((1.0, 0.0), t)
        assert abs(x) < 1e-12 and abs(y - 1.0) < 1e-12

    @given(theta=angles, tx=coords, ty=coords, x=coords, y=coords)
    @settings(max_examples=100, deadline=None)
    def test_inverse_round_trip(self, theta, tx, ty, x, y):
        t = PlanarTransform(theta, tx, ty)
        p = apply_transform(apply_transform((x, y), t), t.inverse())
        assert abs(p[0] - x) < 1e-9 and abs(p[1] - y) < 1e-9

    @given(
        t1=st.tuples(angles, coords, coords),
        t2=st.tuples(angles, coords, coords),
        x=coords,
        y=coords,
    )
    @settings(max_examples=100, deadline=None)
    def test_compose_is_self_after_other(self, t1, t2, x, y):
        a = PlanarTransform(*t1)
        b = PlanarTransform(*t2)
        via_compose = apply_transform((x, y), a.compose(b))
        via_chain = apply_transform(apply_transform((x, y), b), a)
        assert abs(via_compose[0] - via_chain[0]) < 1e-9
        assert abs(via_compose[1] - via_chain[1]) < 1e-9

    @given(theta=angles, tx=coords, ty=coords, x=coords, y=coords)
    @settings(max_examples=50, deadline=None)
    def test_matches_high_precision_oracle(self, theta, tx, ty, x, y):
        t = PlanarTransform(theta, tx, ty)
        got = apply_transform((x, y), t)
        want = apply_transform_mp((x, y), t)
        assert abs(got[0] - want[0]) < 1e-12
        assert abs(got[1] - want[1]) < 1e-12

    @pytest.mark.parametrize("name", ["theta", "tx", "ty"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_fields_raise(self, name, value):
        with pytest.raises(ValueError):
            PlanarTransform(**{name: value})


class TestFeatureMap:
    def test_two_dim_data_gets_channel_axis(self):
        meta = GridMeta(0.0, 2.0, 0.0, 2.0, 1.0)
        fmap = FeatureMap(meta=meta, data=np.ones((2, 2)))
        assert fmap.shape == (2, 2, 1)
        assert fmap.channels == 1

    def test_shape_mismatch_raises(self):
        meta = GridMeta(0.0, 2.0, 0.0, 2.0, 1.0)
        with pytest.raises(ValueError, match="does not match meta"):
            FeatureMap(meta=meta, data=np.ones((3, 2, 1)))

    def test_nan_rejected(self):
        meta = GridMeta(0.0, 2.0, 0.0, 2.0, 1.0)
        bad = np.ones((2, 2, 1))
        bad[0, 0, 0] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            FeatureMap(meta=meta, data=bad)

    def test_data_is_frozen(self):
        fmap = small_map()
        with pytest.raises(ValueError):
            fmap.data[0, 0, 0] = 5.0

    def test_require_same_meta(self):
        a = small_map()
        b = small_map(h=4, w=5)
        require_same_meta(a, b)
        c = FeatureMap(meta=GridMeta(0.0, 2.0, 0.0, 2.0, 1.0), data=np.ones((2, 2, 1)))
        with pytest.raises(MetaMismatchError):
            require_same_meta(a, c)


class TestBilinearSample:
    def test_integer_coordinates_exact(self):
        fmap = small_map()
        for r in range(fmap.meta.height):
            for c in range(fmap.meta.width):
                got = bilinear_sample(fmap, (float(r), float(c)))
                assert np.array_equal(got, fmap.data[r, c].astype(np.float64))

    def test_midpoint_blend(self):
        meta = GridMeta(0.0, 2.0, 0.0, 1.0, 1.0)
        fmap = FeatureMap(meta=meta, data=np.array([[1.0, 3.0]])[:, :, None])
        assert bilinear_sample(fmap, (0.0, 0.5))[0] == pytest.approx(2.0)

    def test_out_of_bounds_raises(self):
        fmap = small_map()
        with pytest.raises(OutOfBoundsError):
            bilinear_sample(fmap, (-0.01, 0.0))
        with pytest.raises(OutOfBoundsError):
            bilinear_sample(fmap, (0.0, float(fmap.meta.width)))

    def test_matches_four_term_oracle(self):
        rng = np.random.default_rng(11)
        fmap = small_map(h=7, w=6, c=3, seed=11)
        for _ in range(200):
            q = (
                float(rng.uniform(0, fmap.meta.height - 1)),
                float(rng.uniform(0, fmap.meta.width - 1)),
            )
            got = bilinear_sample(fmap, q)
            want = bilinear_oracle(fmap, q)
            np.testing.assert_allclose(got, want, atol=1e-12)

    def test_single_row_and_column_grids(self):
        meta_row = GridMeta(0.0, 1.5, 0.0, 0.5, 0.5)
        fmap = FeatureMap(meta=meta_row, data=np.array([[0.0, 1.0, 4.0]])[:, :, None])
        assert bilinear_sample(fmap, (0.0, 1.5))[0] == pytest.approx(2.5)
        meta_col = GridMeta(0.0, 0.5, 0.0, 1.5, 0.5)
        fmap = FeatureMap(meta=meta_col, data=np.array([[0.0], [2.0], [6.0]])[:, :, None])
        assert bilinear_sample(fmap, (1.5, 0.0))[0] == pytest.approx(4.0)

    @staticmethod
    def whole_map_reference(fmap, q):
        """The formula that upcast the whole map before blending."""
        row, col = q
        h, w = fmap.meta.height, fmap.meta.width
        r0 = min(int(math.floor(row)), h - 2) if h > 1 else 0
        c0 = min(int(math.floor(col)), w - 2) if w > 1 else 0
        fr = row - r0
        fc = col - c0
        d = fmap.data.astype(np.float64)
        if h == 1 and w == 1:
            return d[0, 0].copy()
        if h == 1:
            return (1.0 - fc) * d[0, c0] + fc * d[0, c0 + 1]
        if w == 1:
            return (1.0 - fr) * d[r0, 0] + fr * d[r0 + 1, 0]
        return (
            (1.0 - fr) * (1.0 - fc) * d[r0, c0]
            + (1.0 - fr) * fc * d[r0, c0 + 1]
            + fr * (1.0 - fc) * d[r0 + 1, c0]
            + fr * fc * d[r0 + 1, c0 + 1]
        )

    @settings(max_examples=300, deadline=None)
    @given(
        h=st.integers(1, 6),
        w=st.integers(1, 6),
        c=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
        draw=st.data(),
    )
    def test_bit_identical_to_whole_map_formula(self, h, w, c, seed, draw):
        # Exact 0.0 and -0.0 cells, so the sign of a zero blend is pinned too.
        data = small_map(h=h, w=w, c=c, seed=seed).data.copy()
        zeros = draw.draw(hnp.arrays(np.int8, data.shape, elements=st.integers(0, 2)))
        data[zeros == 1] = 0.0
        data[zeros == 2] = -0.0
        fmap = FeatureMap(meta=small_map(h=h, w=w, c=c).meta, data=data)

        def axis(n):
            # Interior points plus both edges, so the last row/column is hit.
            return st.one_of(st.floats(0.0, n - 1.0), st.sampled_from([0.0, n - 1.0]))

        q = (draw.draw(axis(h)), draw.draw(axis(w)))
        got = bilinear_sample(fmap, q)
        assert got.dtype == np.float64
        want = self.whole_map_reference(fmap, q)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_does_not_copy_the_map(self):
        fmap = FeatureMap(
            meta=default_meta(),
            data=np.random.default_rng(0).standard_normal((144, 144, 32)).astype(np.float32),
        )
        q = (71.3, 140.6)
        bilinear_sample(fmap, q)
        tracemalloc.start()
        try:
            bilinear_sample(fmap, q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.01 * fmap.data.nbytes

    def test_clamp_to_grid(self):
        meta = GridMeta(0.0, 2.0, 0.0, 3.0, 1.0)
        assert clamp_to_grid((-1.0, 5.0), meta) == (0.0, 1.0)
        assert clamp_to_grid((1.5, 0.5), meta) == (1.5, 0.5)


class TestBevfContainer:
    def test_round_trip_bitwise(self, tmp_path):
        rng = np.random.default_rng(5)
        arr = rng.standard_normal((6, 4, 3)).astype(np.float32)
        path = tmp_path / "map.bevf"
        write_bevf(path, arr)
        assert np.array_equal(read_bevf(path), arr)

    def test_header_layout(self, tmp_path):
        path = tmp_path / "map.bevf"
        write_bevf(path, np.zeros((2, 3, 4), dtype=np.float32))
        raw = path.read_bytes()
        assert raw[:4] == b"BEVF"
        assert np.frombuffer(raw[4:16], dtype="<u4").tolist() == [2, 3, 4]
        assert len(raw) == 16 + 2 * 3 * 4 * 4

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.bevf"
        path.write_bytes(b"NOPE" + b"\x00" * 20)
        with pytest.raises(ValueError, match="not a BEVF container"):
            read_bevf(path)

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "map.bevf"
        write_bevf(path, np.zeros((2, 2, 2), dtype=np.float32))
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(ValueError, match="payload"):
            read_bevf(path)

    def test_over_long_payload_rejected(self, tmp_path):
        path = tmp_path / "map.bevf"
        write_bevf(path, np.zeros((2, 2, 2), dtype=np.float32))
        path.write_bytes(path.read_bytes() + b"\x00" * 4)
        with pytest.raises(ValueError, match=r"map\.bevf: payload is 36 bytes, expected 32"):
            read_bevf(path)

    @given(arr=bevf_inputs())
    @settings(max_examples=80, deadline=None)
    def test_bytes_match_the_reference_encoding(self, arr, tmp_path_factory):
        """The file is the header plus the C-order little-endian float32 bytes
        of the input, whatever its dtype, rank or memory layout; reading it
        back gives a bit-equal, owned, writable array."""
        path = tmp_path_factory.mktemp("bevf") / "map.bevf"
        write_bevf(path, arr)
        want = (arr if arr.ndim == 3 else arr[:, :, None]).astype("<f4")
        assert path.read_bytes() == MAGIC + struct.pack("<III", *want.shape) + want.tobytes()
        back = read_bevf(path)
        assert back.dtype == np.float32 and back.shape == want.shape
        assert back.flags.c_contiguous and back.flags.owndata and back.flags.writeable
        assert np.array_equal(back.view(np.uint32), want.view(np.uint32))

    def test_write_does_not_copy_the_map(self, tmp_path):
        """A C-contiguous float32 map is written from its own buffer."""
        arr = np.random.default_rng(0).standard_normal((144, 144, 96)).astype(np.float32)
        path = tmp_path / "map.bevf"
        write_bevf(path, arr)
        tracemalloc.start()
        try:
            write_bevf(path, arr)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.01 * arr.nbytes

    def test_read_allocates_one_payload(self, tmp_path):
        arr = np.random.default_rng(0).standard_normal((144, 144, 96)).astype(np.float32)
        path = tmp_path / "map.bevf"
        write_bevf(path, arr)
        read_bevf(path)
        tracemalloc.start()
        try:
            read_bevf(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.01 * arr.nbytes

    def test_feature_map_save_load(self, tmp_path):
        fmap = small_map(seed=9)
        save_feature_map(tmp_path / "m", fmap)
        sidecar = json.loads((tmp_path / "m.json").read_text())
        assert sidecar["modality"] == "lidar"
        loaded = load_feature_map(tmp_path / "m")
        assert loaded.meta == fmap.meta
        assert loaded.modality == fmap.modality
        assert np.array_equal(loaded.data, fmap.data)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda d: d.update(modality=7),
            lambda d: d.pop("modality"),
            lambda d: d.pop("meta"),
            lambda d: d.update(units="m"),
        ],
        ids=["int-modality", "modality-missing", "meta-missing", "unknown-key"],
    )
    def test_load_rejects_a_bad_sidecar(self, tmp_path, edit):
        save_feature_map(tmp_path / "m", small_map(seed=9))
        sidecar = json.loads((tmp_path / "m.json").read_text())
        edit(sidecar)
        (tmp_path / "m.json").write_text(json.dumps(sidecar))
        with pytest.raises(ValueError):
            load_feature_map(tmp_path / "m")
