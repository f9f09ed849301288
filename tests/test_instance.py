"""Heatmap peak extraction and 5-point RoI feature sampling."""

import dataclasses
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bevalign.grid import (
    FeatureMap,
    GridMeta,
    bilinear_sample,
    clamp_to_grid,
    default_meta,
    world_to_grid,
)
from bevalign.instance import (
    InstanceConfig,
    InvalidKernelError,
    Proposal,
    extract_instances,
    proposals_from_json,
    proposals_to_json,
    roi_sample,
    sparse_max_pool_peaks,
)
from bevalign.oracles import peaks_exhaustive


def heat_map(values, meta=None):
    arr = np.asarray(values, dtype=np.float32)
    if arr.ndim == 2:
        arr = arr[:, :, None]
    if meta is None:
        meta = GridMeta(0.0, arr.shape[1] * 1.0, 0.0, arr.shape[0] * 1.0, 1.0)
    return FeatureMap(meta=meta, data=arr)


class TestSparseMaxPoolPeaks:
    def test_single_peak_world_coordinates(self):
        heat = np.zeros((5, 5))
        heat[3, 1] = 0.8
        meta = GridMeta(-2.0, 3.0, -2.0, 3.0, 1.0)
        props = sparse_max_pool_peaks(heat_map(heat, meta))
        assert len(props) == 1
        p = props[0]
        # col 1 -> x = -2 + 1, row 3 -> y = -2 + 3
        assert (p.cx, p.cy) == (-1.0, 1.0)
        assert p.score == pytest.approx(0.8)
        assert p.label == 0

    def test_plateau_resolves_to_lowest_row_major_index(self):
        heat = np.zeros((5, 5))
        heat[1:3, 1:3] = 0.9
        props = sparse_max_pool_peaks(heat_map(heat))
        assert len(props) == 1
        r = (props[0].cy - 0.0) / 1.0
        c = (props[0].cx - 0.0) / 1.0
        assert (r, c) == (1.0, 1.0)

    def test_score_threshold_filters(self):
        heat = np.zeros((5, 5))
        heat[1, 1] = 0.4
        heat[3, 3] = 0.05
        props = sparse_max_pool_peaks(heat_map(heat), InstanceConfig(score_thresh=0.1))
        assert [p.score for p in props] == [pytest.approx(0.4)]

    def test_ordering_and_max_n(self):
        heat = np.zeros((9, 9))
        heat[1, 1] = 0.5
        heat[1, 7] = 0.9
        heat[7, 1] = 0.9
        heat[7, 7] = 0.7
        props = sparse_max_pool_peaks(heat_map(heat))
        scores = [p.score for p in props]
        assert scores == pytest.approx([0.9, 0.9, 0.7, 0.5])
        # equal scores order by row-major cell: (1,7) before (7,1)
        assert (props[0].cy, props[0].cx) == (1.0, 7.0)
        assert (props[1].cy, props[1].cx) == (7.0, 1.0)
        top2 = sparse_max_pool_peaks(heat_map(heat), InstanceConfig(max_n=2))
        assert [(p.cy, p.cx) for p in top2] == [(1.0, 7.0), (7.0, 1.0)]

    def test_neighbors_within_kernel_suppressed(self):
        heat = np.zeros((7, 7))
        heat[3, 3] = 0.9
        heat[3, 4] = 0.8  # inside the 3x3 window of the peak
        heat[3, 6] = 0.7  # outside it
        props = sparse_max_pool_peaks(heat_map(heat))
        assert [(p.cy, p.cx) for p in props] == [(3.0, 3.0), (3.0, 6.0)]

    def test_wider_kernel_suppresses_more(self):
        heat = np.zeros((9, 9))
        heat[4, 2] = 0.9
        heat[4, 4] = 0.8
        assert len(sparse_max_pool_peaks(heat_map(heat), InstanceConfig(kernel=3))) == 2
        assert len(sparse_max_pool_peaks(heat_map(heat), InstanceConfig(kernel=5))) == 1

    def test_multichannel_labels(self):
        heat = np.zeros((5, 5, 2))
        heat[1, 1, 0] = 0.6
        heat[3, 3, 1] = 0.8
        props = sparse_max_pool_peaks(heat_map(heat))
        assert [(p.label, p.score) for p in props] == [(1, pytest.approx(0.8)), (0, pytest.approx(0.6))]

    def test_default_dims_without_regression(self):
        heat = np.zeros((5, 5))
        heat[2, 2] = 1.0
        cfg = InstanceConfig(default_dims=(1.0, 2.0, 3.0))
        p = sparse_max_pool_peaks(heat_map(heat), cfg)[0]
        assert (p.w, p.h, p.l) == (1.0, 2.0, 3.0)
        assert p.yaw == 0.0 and p.z == 0.0

    @pytest.mark.parametrize("kernel", [1, 2, 4])
    def test_invalid_kernel_rejected(self, kernel):
        with pytest.raises(InvalidKernelError):
            InstanceConfig(kernel=kernel)

    def test_matches_exhaustive_scan_with_plateaus(self):
        rng = np.random.default_rng(23)
        meta = GridMeta(0.0, 12.0, 0.0, 12.0, 1.0)
        for trial in range(20):
            heat = rng.uniform(0.0, 1.0, size=(12, 12, 2)).astype(np.float32)
            if trial % 2:
                heat = np.round(heat, 1).astype(np.float32)  # force ties
            props = sparse_max_pool_peaks(heat_map(heat, meta))
            got = [
                (round(p.cy - meta.y_min), round(p.cx - meta.x_min), p.label, p.score)
                for p in props
            ]
            assert got == peaks_exhaustive(heat)

    @staticmethod
    def cells(props, meta):
        return [
            (round(p.cy - meta.y_min), round(p.cx - meta.x_min), p.label, p.score) for p in props
        ]

    # 10001 is wider than twice the grid: it must act as the whole-grid window
    @pytest.mark.parametrize("kernel", [3, 5, 7, 10001])
    @pytest.mark.parametrize("score_thresh", [0.0, 0.3])
    def test_wide_kernels_and_zero_threshold_match_exhaustive_scan(self, kernel, score_thresh):
        rng = np.random.default_rng(kernel)
        meta = GridMeta(0.0, 14.0, 0.0, 11.0, 1.0)
        for trial in range(6):
            heat = rng.uniform(0.0, 1.0, size=(11, 14, 2)).astype(np.float32)
            if trial % 2:
                heat = np.round(heat, 1).astype(np.float32)  # plateaus and score ties
            if trial % 3 == 0:
                heat[rng.uniform(size=heat.shape) < 0.3] = 0.0  # flat zero regions
                heat[rng.uniform(size=heat.shape) < 0.1] = -0.0
            props = sparse_max_pool_peaks(
                heat_map(heat, meta), InstanceConfig(kernel=kernel, score_thresh=score_thresh)
            )
            assert self.cells(props, meta) == peaks_exhaustive(heat, kernel, score_thresh)

    def test_cross_channel_ties_order_by_channel(self):
        rng = np.random.default_rng(5)
        meta = GridMeta(0.0, 12.0, 0.0, 12.0, 1.0)
        layer = np.round(rng.uniform(0.0, 1.0, size=(12, 12)), 1)
        heat = np.stack([layer, layer], axis=2).astype(np.float32)
        props = sparse_max_pool_peaks(
            heat_map(heat, meta), InstanceConfig(kernel=5, score_thresh=0.0)
        )
        got = self.cells(props, meta)
        assert got == peaks_exhaustive(heat, 5, 0.0)
        # every peak appears in both channels, channel 0 first
        assert [label for _, _, label, _ in got] == [0, 1] * (len(got) // 2)

    @pytest.mark.parametrize("max_n", [0, 1, 4, 1000])
    def test_max_n_truncates_the_exhaustive_order(self, max_n):
        rng = np.random.default_rng(9)
        meta = GridMeta(0.0, 16.0, 0.0, 16.0, 1.0)
        heat = np.round(rng.uniform(0.0, 1.0, size=(16, 16, 2)), 1).astype(np.float32)
        props = sparse_max_pool_peaks(
            heat_map(heat, meta), InstanceConfig(kernel=7, score_thresh=0.0, max_n=max_n)
        )
        want = peaks_exhaustive(heat, 7, 0.0, max_n)
        assert self.cells(props, meta) == want
        assert len(want) == min(max_n, len(peaks_exhaustive(heat, 7, 0.0, 1000)))

    def test_wide_kernel_does_not_gather_every_window(self):
        # kernel 31 at threshold 0 makes every one of the 144 x 144 cells a
        # candidate: a candidate-by-window gather would take 20736 * 961
        # float32 values (80 MB).
        heat = np.random.default_rng(0).uniform(0.0, 1.0, size=(144, 144, 1)).astype(np.float32)
        fmap = heat_map(heat, default_meta())
        cfg = InstanceConfig(kernel=31, score_thresh=0.0)
        sparse_max_pool_peaks(fmap, cfg)
        tracemalloc.start()
        try:
            props = sparse_max_pool_peaks(fmap, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6
        assert props[0].score == float(heat.max())


class TestRoiSample:
    def make_gradient_map(self):
        # channel 0 = x coordinate, channel 1 = y coordinate; bilinear reads
        # of a linear field are exact
        meta = GridMeta(0.0, 16.0, 0.0, 16.0, 1.0)
        h, w = meta.height, meta.width
        data = np.zeros((h, w, 2), dtype=np.float32)
        data[:, :, 0] = np.arange(w)[None, :]
        data[:, :, 1] = np.arange(h)[:, None]
        return FeatureMap(meta=meta, data=data)

    def test_constant_map_gives_five_copies(self):
        meta = GridMeta(0.0, 8.0, 0.0, 8.0, 1.0)
        fmap = FeatureMap(meta=meta, data=np.full((8, 8, 3), 2.5, dtype=np.float32))
        p = Proposal(4.0, 4.0, 0.0, 2.0, 2.0, 2.0, 0.0, 1.0, 0)
        feats = roi_sample(fmap, [p])
        assert feats.shape == (1, 15) and feats.dtype == np.float64
        np.testing.assert_allclose(feats, 2.5)

    def test_sample_point_order_and_positions(self):
        fmap = self.make_gradient_map()
        p = Proposal(6.0, 9.0, 0.0, 2.0, 4.0, 2.0, 0.0, 1.0, 0)
        xy = roi_sample(fmap, [p])[0].reshape(5, 2)
        # [center, up, down, left, right] with hw=1, hh=2
        want = [(6.0, 9.0), (6.0, 11.0), (6.0, 7.0), (5.0, 9.0), (7.0, 9.0)]
        np.testing.assert_allclose(xy, want, atol=1e-9)

    def test_border_points_clamp(self):
        fmap = self.make_gradient_map()
        p = Proposal(0.5, 0.5, 0.0, 4.0, 4.0, 2.0, 0.0, 1.0, 0)
        xy = roi_sample(fmap, [p])[0].reshape(5, 2)
        # left/down points fall outside and clamp to the border
        np.testing.assert_allclose(xy[2], (0.5, 0.0), atol=1e-9)
        np.testing.assert_allclose(xy[3], (0.0, 0.5), atol=1e-9)

    def test_box_matches_proposal(self):
        p = Proposal(6.0, 9.0, 0.0, 2.0, 4.0, 2.0, 0.0, 1.0, 0)
        assert (p.box.cx, p.box.cy, p.box.w, p.box.h) == (6.0, 9.0, 2.0, 4.0)

    @pytest.mark.parametrize("n", [0, 1, 7])
    def test_rows_equal_five_scalar_reads(self, n):
        """Row i is proposals[i]'s five bilinear reads, bit for bit, and the
        matrix is read-only with shape (N, 5*C) even for N = 0."""
        rng = np.random.default_rng(n)
        meta = GridMeta(-4.0, 4.0, -4.0, 4.0, 0.5)
        data = rng.standard_normal((meta.height, meta.width, 3)).astype(np.float32)
        fmap = FeatureMap(meta=meta, data=data)
        props = [
            Proposal(*rng.uniform(-5.0, 5.0, 2), 0.0, *rng.uniform(0.1, 4.0, 3), 0.0, 0.5, 0)
            for _ in range(n)
        ]
        feats = roi_sample(fmap, props)
        assert feats.shape == (n, 15) and feats.dtype == np.float64
        assert not feats.flags.writeable
        for p, row in zip(props, feats):
            hw, hh = p.w / 2.0, p.h / 2.0
            points = [(0.0, 0.0), (0.0, hh), (0.0, -hh), (-hw, 0.0), (hw, 0.0)]
            want = []
            for dx, dy in points:
                q = clamp_to_grid(world_to_grid((p.cx + dx, p.cy + dy), meta), meta)
                want.append(bilinear_sample(fmap, (float(q[0]), float(q[1]))))
            assert np.array_equal(row, np.concatenate(want))


class TestExtractInstances:
    def test_rows_follow_score_order(self):
        heat = np.zeros((9, 9))
        heat[2, 2] = 0.5
        heat[6, 6] = 0.9
        meta = GridMeta(0.0, 9.0, 0.0, 9.0, 1.0)
        data = np.zeros((9, 9, 2), dtype=np.float32)
        data[:, :, 0] = np.arange(9)[None, :]
        fmap = FeatureMap(meta=meta, data=data)
        props, feats = extract_instances(fmap, heat_map(heat, meta), InstanceConfig())
        assert [p.score for p in props] == pytest.approx([0.9, 0.5])
        assert np.array_equal(feats, roi_sample(fmap, props))
        assert feats[0, 0] == 6.0 and feats[1, 0] == 2.0

    def test_meta_mismatch_rejected(self):
        fmap = FeatureMap(
            meta=GridMeta(0.0, 8.0, 0.0, 8.0, 1.0), data=np.ones((8, 8, 1))
        )
        heat = heat_map(np.zeros((5, 5)))
        with pytest.raises(ValueError):
            extract_instances(fmap, heat, InstanceConfig())

    def test_instance_config_validation(self):
        with pytest.raises(InvalidKernelError):
            InstanceConfig(kernel=2)
        with pytest.raises(ValueError):
            InstanceConfig(score_thresh=1.5)
        with pytest.raises(ValueError):
            InstanceConfig(max_n=-1)


class TestProposalSerialization:
    def test_json_round_trip(self):
        props = [
            Proposal(1.0, 2.0, 0.5, 2.0, 3.0, 4.0, 0.1, 0.9, 1),
            Proposal(-3.0, 0.0, 0.0, 1.0, 1.0, 1.0, 0.0, 0.2, 0),
        ]
        text = proposals_to_json(props)
        assert proposals_from_json(text) == props
        keys = set(json.loads(text)[0])
        assert keys == {"cx", "cy", "z", "w", "h", "l", "yaw", "score", "label"}

    def test_validation(self):
        with pytest.raises(ValueError, match="dims"):
            Proposal(0, 0, 0, 0.0, 1.0, 1.0, 0.0, 0.5, 0)
        with pytest.raises(ValueError, match="score"):
            Proposal(0, 0, 0, 1.0, 1.0, 1.0, 0.0, 1.5, 0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize(
        "name", ["cx", "cy", "z", "w", "h", "l", "yaw", "score"]
    )
    def test_non_finite_field_rejected(self, name, bad):
        fields = dict(cx=0.0, cy=0.0, z=0.0, w=2.0, h=2.0, l=2.0, yaw=0.0, score=0.5)
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            Proposal(**{**fields, name: bad}, label=0)

    def test_json_nan_rejected(self):
        text = proposals_to_json([Proposal(1.0, 2.0, 0.0, 2.0, 2.0, 2.0, 0.0, 0.9, 0)])
        with pytest.raises(ValueError, match="cx must be finite"):
            proposals_from_json(text.replace('"cx": 1.0', '"cx": NaN'))

    @pytest.mark.parametrize(
        "edit",
        [
            lambda d: d.update(label=1.5),
            lambda d: d.update(label=True),
            lambda d: d.update(width=2.0),
            lambda d: d.pop("w"),
        ],
        ids=["float-label", "bool-label", "unknown-key", "w-missing"],
    )
    def test_json_of_the_wrong_shape_is_rejected(self, edit):
        d = json.loads(proposals_to_json([Proposal(1.0, 2.0, 0.0, 2.0, 2.0, 2.0, 0.0, 0.9, 1)]))[0]
        edit(d)
        with pytest.raises(ValueError):
            proposals_from_json(json.dumps([d]))

    @given(
        st.lists(
            st.builds(
                Proposal,
                cx=st.floats(allow_nan=False, allow_infinity=False),
                cy=st.floats(allow_nan=False, allow_infinity=False),
                z=st.floats(allow_nan=False, allow_infinity=False),
                w=st.floats(min_value=1e-300, allow_infinity=False),
                h=st.floats(min_value=1e-300, allow_infinity=False),
                l=st.floats(min_value=1e-300, allow_infinity=False),
                yaw=st.floats(allow_nan=False, allow_infinity=False),
                score=st.floats(0.0, 1.0),
                label=st.integers(0, 2**40),
            ),
            max_size=4,
        )
    )
    def test_drawn_proposals_round_trip(self, props):
        text = proposals_to_json(props)
        assert proposals_from_json(text) == props
        names = [f.name for f in dataclasses.fields(Proposal)]
        assert all(list(d) == names for d in json.loads(text))
