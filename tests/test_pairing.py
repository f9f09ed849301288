"""IoU matching, exact KNN, and contrastive pair construction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bevalign.oracles import iou_raster, knn_brute, positive_pairs_greedy
from bevalign.pairing import (
    Box2D,
    EmptyInputError,
    PairConfig,
    PairSet,
    build_pairs,
    iou,
    iou_matrix,
    knn,
    positive_pairs,
)

box_floats = st.floats(-20.0, 20.0, allow_nan=False, allow_infinity=False)
box_sizes = st.floats(0.1, 8.0, allow_nan=False, allow_infinity=False)
boxes = st.builds(Box2D, cx=box_floats, cy=box_floats, w=box_sizes, h=box_sizes)
# boxes on a half-metre lattice (exact IoU ties, zero extents) or anywhere
lattice = st.sampled_from([i / 2 for i in range(-4, 5)])
lattice_sizes = st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0])
any_sizes = st.floats(0.0, 8.0)
pair_boxes = st.one_of(
    st.builds(Box2D, cx=lattice, cy=lattice, w=lattice_sizes, h=lattice_sizes),
    st.builds(Box2D, cx=box_floats, cy=box_floats, w=any_sizes, h=any_sizes),
)


class TestIou:
    def test_identical_boxes(self):
        b = Box2D(1.0, 2.0, 3.0, 4.0)
        assert iou(b, b) == 1.0

    def test_identical_boxes_with_inexact_half_widths(self):
        # w/2 = 0.05 is inexact in binary; the ratio must still be exactly 1
        b = Box2D(1.0, 0.0, 0.1, 1.0)
        assert iou(b, b) == 1.0
        c = Box2D(-3.7, 2.9, 0.3, 0.7)
        assert iou(c, c) == 1.0

    def test_disjoint_boxes(self):
        assert iou(Box2D(0, 0, 2, 2), Box2D(10, 0, 2, 2)) == 0.0

    def test_touching_edges_count_as_disjoint(self):
        assert iou(Box2D(0, 0, 2, 2), Box2D(2, 0, 2, 2)) == 0.0

    def test_half_overlap_value(self):
        # unit shift of a 2x2 box: inter 1*2=2, union 4+4-2=6
        assert iou(Box2D(0, 0, 2, 2), Box2D(1, 0, 2, 2)) == pytest.approx(1 / 3)

    def test_degenerate_boxes(self):
        assert iou(Box2D(0, 0, 0, 0), Box2D(0, 0, 0, 0)) == 0.0
        assert iou(Box2D(0, 0, 0, 2), Box2D(0, 0, 2, 2)) == 0.0

    def test_negative_extent_rejected(self):
        with pytest.raises(ValueError):
            Box2D(0, 0, -1.0, 2.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["cx", "cy", "w", "h"])
    def test_non_finite_value_rejected(self, name, bad):
        # a NaN centre used to reach iou, which then returned NaN
        with pytest.raises(ValueError, match="finite"):
            Box2D(**{**dict(cx=0.0, cy=0.0, w=2.0, h=2.0), name: bad})

    @given(a=boxes, b=boxes)
    @settings(max_examples=200, deadline=None)
    def test_symmetric_and_bounded(self, a, b):
        v = iou(a, b)
        assert v == iou(b, a)
        assert 0.0 <= v <= 1.0

    @given(a=boxes, b=boxes)
    @settings(max_examples=50, deadline=None)
    def test_matches_raster_oracle(self, a, b):
        # the raster miscounts up to one cell per box edge, so the cell must
        # be small against the smallest extent (0.01 m alone gives 0.52 for
        # an exact 0.5 on 1 x 0.5 and 1 x 0.25 m boxes)
        cell = min(0.01, min(a.w, a.h, b.w, b.h) / 500)
        assert abs(iou(a, b) - iou_raster(a, b, cell)) <= 2e-2


class TestPositivePairs:
    def test_simple_one_to_one(self):
        lidar = [Box2D(0, 0, 2, 2), Box2D(10, 0, 2, 2)]
        camera = [Box2D(10.2, 0, 2, 2), Box2D(0.1, 0, 2, 2)]
        assert positive_pairs(lidar, camera, 0.1) == [(0, 1), (1, 0)]

    def test_threshold_filters(self):
        lidar = [Box2D(0, 0, 2, 2)]
        camera = [Box2D(1.0, 0, 2, 2)]  # IoU = 1/3
        assert positive_pairs(lidar, camera, 0.5) == []
        assert positive_pairs(lidar, camera, 1 / 3) == [(0, 0)]

    def test_earlier_lidar_index_claims_first(self):
        contested = Box2D(0, 0, 2, 2)
        lidar = [Box2D(0.1, 0, 2, 2), Box2D(-0.1, 0, 2, 2)]
        pairs = positive_pairs(lidar, [contested], 0.1)
        assert pairs == [(0, 0)]

    def test_tie_goes_to_lower_camera_index(self):
        lidar = [Box2D(0, 0, 2, 2)]
        camera = [Box2D(0, 1, 2, 2), Box2D(0, -1, 2, 2)]  # same IoU both ways
        assert positive_pairs(lidar, camera, 0.1) == [(0, 0)]

    def test_camera_box_used_at_most_once(self):
        lidar = [Box2D(0, 0, 2, 2), Box2D(0.2, 0, 2, 2)]
        camera = [Box2D(0.1, 0, 2, 2)]
        pairs = positive_pairs(lidar, camera, 0.05)
        assert pairs == [(0, 0)]

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_scalar_greedy_reference(self, data):
        lidar = data.draw(st.lists(pair_boxes, max_size=7))
        # camera boxes: fresh ones, plus copies of LiDAR boxes so that several
        # LiDAR boxes contest one camera box and IoU ties are exact
        copies = st.one_of(pair_boxes, st.sampled_from(lidar)) if lidar else pair_boxes
        camera = data.draw(st.lists(copies, max_size=7))
        taus = st.sampled_from([1e-12, 0.1, 1 / 3, 0.5, 1.0])
        tau = data.draw(st.one_of(taus, st.floats(1e-6, 1.0)))
        m = iou_matrix(lidar, camera)
        assert m.shape == (len(lidar), len(camera))
        scalar = np.array([[iou(a, b) for b in camera] for a in lidar]).reshape(m.shape)
        assert np.array_equal(m.view(np.uint64), scalar.view(np.uint64))
        assert positive_pairs(lidar, camera, tau) == positive_pairs_greedy(lidar, camera, tau)

    def test_invalid_tau_rejected(self):
        with pytest.raises(ValueError):
            positive_pairs([], [], 0.0)
        with pytest.raises(ValueError):
            positive_pairs([], [], 1.5)


class TestKnn:
    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            knn(np.empty((0, 2)), [(0.0, 0.0)], 1)

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError):
            knn(np.zeros((3, 3)), [(0.0, 0.0)], 1)
        with pytest.raises(ValueError):
            knn([(0.0, 0.0)], (0.0, 0.0), 1)

    def test_non_finite_points_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            knn([(0.0, 0.0), (np.nan, 1.0)], [(0.0, 0.0)], 1)

    def test_k_below_one_rejected(self):
        with pytest.raises(ValueError):
            knn([(0.0, 0.0)], [(0.0, 0.0)], 0)

    def test_k_exceeding_size_returns_all(self):
        got = knn([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)], [(0.0, 0.0), (2.0, 0.0)], 10)
        assert got.tolist() == [[0, 1, 2], [2, 1, 0]]

    def test_distance_ties_resolve_to_lower_index(self):
        # four points at identical distance from the origin
        pts = [(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)]
        assert knn(pts, [(0.0, 0.0)], 4).tolist() == [[0, 1, 2, 3]]
        assert knn(pts, [(0.0, 0.0)], 2).tolist() == [[0, 1]]

    def test_duplicate_points_ordered_by_index(self):
        pts = [(2.0, 2.0), (1.0, 1.0), (1.0, 1.0), (1.0, 1.0)]
        assert knn(pts, [(1.0, 1.0)], 3).tolist() == [[1, 2, 3]]

    def test_matches_brute_force(self):
        rng = np.random.default_rng(17)
        pts = rng.uniform(-50, 50, size=(200, 2))
        pts[100::5] = pts[:20]  # inject exact duplicates
        queries = rng.uniform(-55, 55, size=(50, 2))
        queries[:10] = pts[100:150:5]  # queries on duplicated points
        for k in (1, 2, 5, 11, 200, 250):
            got = knn(pts, queries, k)
            assert got.shape == (50, min(k, 200))
            for q, row in zip(queries, got.tolist()):
                assert row == knn_brute(pts, q, k)

    @given(
        pts=st.lists(
            st.tuples(st.floats(-9, 9, allow_nan=False), st.floats(-9, 9, allow_nan=False)),
            min_size=1,
            max_size=40,
        ),
        queries=st.lists(
            st.tuples(st.floats(-10, 10, allow_nan=False), st.floats(-10, 10, allow_nan=False)),
            min_size=1,
            max_size=6,
        ),
        k=st.integers(1, 8),
    )
    @settings(max_examples=150, deadline=None)
    def test_property_matches_brute_force(self, pts, queries, k):
        got = knn(pts, queries, k).tolist()
        assert got == [knn_brute(np.asarray(pts), q, k) for q in queries]


class TestKnnNegatives:
    """build_pairs' negatives: the camera centers nearest each pair's anchor."""

    def setup_method(self):
        self.camera = [Box2D(float(i), 0.0, 1.0, 1.0) for i in range(6)]

    def negatives(self, lidar, **cfg):
        return build_pairs(lidar, self.camera, PairConfig(**cfg)).negatives

    def test_excludes_paired_camera_index(self):
        # the LiDAR box coincides with camera 2 only (its neighbors just touch)
        (negs,) = self.negatives([Box2D(2.0, 0.0, 1.0, 1.0)], k_negatives=3)
        assert 2 not in negs
        assert negs == (1, 3, 0)

    def test_returns_min_k_and_n_minus_one(self):
        lidar = [Box2D(2.0, 0.0, 1.0, 1.0)]
        (negs,) = self.negatives(lidar, k_negatives=50)
        assert len(negs) == len(self.camera) - 1
        (negs,) = self.negatives(lidar, k_negatives=2)
        assert len(negs) == 2

    def test_explicit_anchor_changes_neighborhood(self):
        # one wide LiDAR box covers all six camera boxes with equal IoU 1/11,
        # so it pairs with camera 0 while its own center sits on camera 5
        lidar = [Box2D(5.0, 0.0, 11.0, 1.0)]
        pairs = build_pairs(lidar, self.camera, PairConfig(tau_iou=0.05, k_negatives=2))
        assert pairs.positives == ((0, 0),)
        assert pairs.negatives == ((1, 2),)
        (near_right,) = self.negatives(lidar, tau_iou=0.05, k_negatives=2, anchor="lidar")
        assert near_right == (5, 4)

    def test_k_below_one_rejected(self):
        with pytest.raises(ValueError):
            PairConfig(k_negatives=0)


class TestBuildPairs:
    def make_boxes(self, n, jitter, seed=0):
        rng = np.random.default_rng(seed)
        lidar = [Box2D(5.0 * i, 0.0, 2.0, 2.0) for i in range(n)]
        camera = [
            Box2D(5.0 * i + rng.uniform(-jitter, jitter), rng.uniform(-jitter, jitter), 2.0, 2.0)
            for i in range(n)
        ]
        return lidar, camera

    def test_pair_set_invariants(self):
        lidar, camera = self.make_boxes(8, jitter=0.4)
        ps = build_pairs(lidar, camera, PairConfig(tau_iou=0.1, k_negatives=3))
        assert len(ps.positives) == 8
        assert len(ps.negatives) == len(ps.positives)
        for (_, j), negs in zip(ps.positives, ps.negatives):
            assert j not in negs
            assert len(negs) == len(set(negs)) == 3

    def test_negative_count_capped_by_population(self):
        lidar, camera = self.make_boxes(4, jitter=0.2)
        ps = build_pairs(lidar, camera, PairConfig(tau_iou=0.1, k_negatives=16))
        assert all(len(n) == 3 for n in ps.negatives)

    def test_no_matches_gives_empty_set(self):
        ps = build_pairs(
            [Box2D(0, 0, 1, 1)], [Box2D(30, 30, 1, 1)], PairConfig(tau_iou=0.1)
        )
        assert ps.positives == ()
        assert ps.negatives == ()

    def test_lidar_anchor_option(self):
        lidar, camera = self.make_boxes(5, jitter=0.3)
        ps_cam = build_pairs(lidar, camera, PairConfig(anchor="camera", k_negatives=2))
        ps_lid = build_pairs(lidar, camera, PairConfig(anchor="lidar", k_negatives=2))
        assert ps_cam.positives == ps_lid.positives
        centers = np.asarray([(b.cx, b.cy) for b in camera])
        for (i, j), negs in zip(ps_lid.positives, ps_lid.negatives):
            near = knn_brute(centers, (lidar[i].cx, lidar[i].cy), 3)
            assert list(negs) == [n for n in near if n != j][:2]

    def test_validation_rejects_bad_negatives(self):
        with pytest.raises(ValueError, match="paired camera index"):
            PairSet(tau_iou=0.1, k_negatives=2, positives=((0, 1),), negatives=((1, 2),))
        with pytest.raises(ValueError, match="duplicates"):
            PairSet(tau_iou=0.1, k_negatives=2, positives=((0, 1),), negatives=((2, 2),))
        with pytest.raises(ValueError, match="parallel"):
            PairSet(tau_iou=0.1, k_negatives=2, positives=((0, 1), (1, 0)), negatives=((2,),))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PairConfig(tau_iou=0.0)
        with pytest.raises(ValueError):
            PairConfig(k_negatives=0)
        with pytest.raises(ValueError):
            PairConfig(anchor="midpoint")
