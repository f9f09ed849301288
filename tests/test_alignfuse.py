"""Neighbor-argmax alignment and fused-map assembly."""

import json
from dataclasses import replace

import numpy as np
import pytest

from bevalign.alignfuse import (
    AlignConfig,
    AlignEntry,
    AlignmentResult,
    FusedMap,
    PipelineOutput,
    align_instances,
    fuse,
    reduce_roi_vector,
)
from bevalign.contrastive import ProjectionHead, ZeroVectorError
from bevalign.grid import FeatureMap, GridMeta, MetaMismatchError, load_feature_map
from bevalign.instance import Proposal
from bevalign.oracles import align, cosine_sim, knn_brute

D = 10  # 5 sample blocks x 2 channels
EYE_HEADS = (ProjectionHead(np.eye(D)), ProjectionHead(np.eye(D)))


def scene_output(lidar, camera):
    """The PipelineOutput of (cx, cy, vector) LiDAR and camera instances,
    each a unit box."""

    def split(insts):
        props = tuple(
            Proposal(float(cx), float(cy), 0.0, 1.0, 1.0, 1.0, 0.0, 0.5, 0) for cx, cy, _ in insts
        )
        feats = np.array([v for _, _, v in insts], dtype=np.float64).reshape(len(insts), D)
        return props, feats

    return PipelineOutput(*split(lidar), *split(camera))


def centers(props):
    return np.asarray([(p.cx, p.cy) for p in props])


def random_insts(n, seed, spread=10.0):
    rng = np.random.default_rng(seed)
    return [(*rng.uniform(0.0, spread, size=2), rng.standard_normal(D)) for _ in range(n)]


class TestAlign:
    def test_argmax_selects_best_candidate(self):
        v = np.zeros(D)
        v[0] = 1.0
        off = np.zeros(D)
        off[1] = 1.0
        entry = align(3, v, np.array([off, v]), [0, 1], *EYE_HEADS)
        assert entry.lidar_index == 3
        assert entry.chosen_rank == 1
        assert entry.chosen_camera_index == 1
        assert entry.scores[entry.chosen_rank] == pytest.approx(1.0)

    def test_tied_scores_go_to_lower_rank(self):
        v = np.ones(D)
        camera = np.array([v, v, -v])
        entry = align(0, v, camera, [2, 1, 0], *EYE_HEADS)
        assert entry.neighbor_indices == (2, 1, 0)
        assert entry.scores[1] == entry.scores[2]
        assert entry.chosen_rank == 1 and entry.chosen_camera_index == 1

    def test_scores_match_direct_recomputation(self):
        rng = np.random.default_rng(0)
        hl = ProjectionHead(rng.standard_normal((D, 4)))
        hc = ProjectionHead(rng.standard_normal((D, 4)))
        lidar = rng.standard_normal(D)
        camera = rng.standard_normal((5, D))
        near = [3, 0, 4, 1, 2]
        entry = align(0, lidar, camera, near, hl, hc, AlignConfig(metric="cosine"))
        want = [cosine_sim(hl.project(lidar), hc.project(camera[j])) for j in near]
        assert np.array_equal(entry.scores, np.asarray(want))
        entry = align(0, lidar, camera, near, hl, hc, AlignConfig(metric="dot"))
        want = [float(hl.project(lidar) @ hc.project(camera[j])) for j in near]
        assert np.array_equal(entry.scores, np.asarray(want))

    def test_empty_candidate_list_raises(self):
        with pytest.raises(ValueError):
            align(0, np.ones(D), np.empty((0, D)), [], *EYE_HEADS)

    def test_entry_validation(self):
        with pytest.raises(ValueError, match="out of range"):
            AlignEntry(0, (3, 4), np.array([1.0, 2.0]), chosen_rank=2)
        with pytest.raises(ValueError, match="out of range"):
            AlignEntry(0, (3, 4), np.array([1.0, 2.0]), chosen_rank=-1)
        with pytest.raises(ValueError, match="maximum"):
            AlignEntry(0, (3, 4), np.array([1.0, 2.0]), chosen_rank=0)

    @pytest.mark.parametrize(
        "neighbors,scores,rank",
        [((1, 2), [0.5], 0), ((1, 2), [0.5], 1), ((1,), [], None), ((), [0.5], None),
         ((1, 2), [[0.5, 0.5]], 0)],
        ids=["short", "short-chosen-past-end", "missing", "extra", "2-d"],
    )
    def test_one_score_per_neighbor(self, neighbors, scores, rank):
        # alignment.json readers build entries from a file
        with pytest.raises(ValueError, match="one score per neighbor"):
            AlignEntry(0, neighbors, scores, rank)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AlignConfig(k_neighbors=0)
        with pytest.raises(ValueError):
            AlignConfig(metric="euclidean")


class TestAlignInstances:
    def test_candidate_sets_match_brute_force_knn(self):
        pipe = scene_output(random_insts(6, 1), random_insts(9, 2))
        cam_xy = centers(pipe.camera_proposals)
        for k in (1, 3, 20):
            result = align_instances(pipe, EYE_HEADS, AlignConfig(k_neighbors=k))
            for i, (xy, entry) in enumerate(zip(centers(pipe.lidar_proposals), result.entries)):
                assert entry.lidar_index == i
                assert entry.neighbor_indices == tuple(knn_brute(cam_xy, xy, min(k, 9)))
                assert len(entry.scores) == min(k, 9)

    def test_distance_ties_prefer_lower_camera_index(self):
        v = np.ones(D)
        pipe = scene_output([(0.0, 0.0, v)], [(1.0, 0.0, v), (-1.0, 0.0, v), (0.0, 3.0, v)])
        result = align_instances(pipe, EYE_HEADS, AlignConfig(k_neighbors=2))
        assert result.entries[0].neighbor_indices == (0, 1)

    def test_empty_camera_scene_passes_through(self):
        result = align_instances(scene_output(random_insts(3, 3), []), EYE_HEADS)
        assert [e.lidar_index for e in result.entries] == [0, 1, 2]
        assert all(e.chosen_rank is None for e in result.entries)
        assert all(e.chosen_camera_index is None for e in result.entries)
        assert result.chosen() == {}

    def test_nearest_variant_keeps_rank_zero_with_distance_scores(self):
        pipe = scene_output(random_insts(4, 4), random_insts(6, 5))
        result = align_instances(pipe, None, AlignConfig(k_neighbors=3))
        cam_xy = centers(pipe.camera_proposals)
        for xy, entry in zip(centers(pipe.lidar_proposals), result.entries):
            assert entry.chosen_rank == 0
            want = [-float(np.sum((cam_xy[j] - xy) ** 2)) for j in entry.neighbor_indices]
            assert np.array_equal(entry.scores, np.asarray(want))

    def test_dot_metric_is_dominated_by_norm_but_cosine_is_not(self):
        """A huge-norm camera vector pointing 45 degrees away wins under the
        dot metric yet loses under cosine; this is why inference defaults to
        cosine."""
        v = np.zeros(D)
        v[0] = 1.0
        u = np.zeros(D)
        u[0] = u[1] = 1.0 / np.sqrt(2.0)
        pipe = scene_output([(0.0, 0.0, v)], [(1.0, 0.0, 0.1 * v), (2.0, 0.0, 100.0 * u)])
        dot = align_instances(pipe, EYE_HEADS, AlignConfig(metric="dot"))
        cos = align_instances(pipe, EYE_HEADS, AlignConfig(metric="cosine"))
        assert dot.entries[0].chosen_camera_index == 1
        assert cos.entries[0].chosen_camera_index == 0

    def test_cosine_choice_invariant_to_camera_scale(self):
        pipe = scene_output(random_insts(6, 6), random_insts(7, 7))
        cfg = AlignConfig(k_neighbors=3, metric="cosine")
        base = align_instances(pipe, EYE_HEADS, cfg).chosen()
        for lam in (0.1, 10.0):
            scaled = replace(pipe, camera_feats=lam * pipe.camera_feats)
            assert align_instances(scaled, EYE_HEADS, cfg).chosen() == base


def reference_alignment(pipe, heads, cfg):
    """The per-instance path align_instances replaces: brute-force neighbors,
    then the oracle align() per LiDAR instance, or minus the squared distance
    for the nearest-neighbor baseline (heads None)."""
    cam_xy = centers(pipe.camera_proposals)
    entries = []
    for i, xy in enumerate(centers(pipe.lidar_proposals)):
        near = knn_brute(cam_xy, xy, cfg.k_neighbors)
        if heads is not None:
            vec = pipe.lidar_feats[i]
            entries.append(align(i, vec, pipe.camera_feats, near, *heads, cfg))
            continue
        d = [-float(np.sum((cam_xy[j] - xy) ** 2)) for j in near]
        entries.append(AlignEntry(i, tuple(near), d, 0))
    return entries


def lattice_scene(seed):
    """Random LiDAR and camera instances on a coarse lattice, so distance
    ties and coincident centers are common."""
    rng = np.random.default_rng(seed)
    n_l, n_c = int(rng.integers(1, 13)), int(rng.integers(1, 11))

    def insts(n):
        return [(*rng.integers(0, 4, size=2), rng.standard_normal(D)) for _ in range(n)]

    pipe = scene_output(insts(n_l), insts(n_c))
    heads = tuple(ProjectionHead(rng.standard_normal((D, 4))) for _ in range(2))
    return pipe, heads


class TestAlignInstancesOracle:
    # the scorer: head similarity, or the nearest-neighbor baseline
    @pytest.mark.parametrize("variant", ["embedding", "nearest"])
    @pytest.mark.parametrize("metric", ["cosine", "dot"])
    @pytest.mark.parametrize("k", [1, 3, None])  # None: more than the camera count
    def test_matches_per_instance_align(self, metric, variant, k):
        nearest = variant == "nearest"
        for seed in range(30):
            pipe, heads = lattice_scene(seed)
            heads = None if nearest else heads
            cfg = AlignConfig(k_neighbors=k or len(pipe.camera_proposals) + 4, metric=metric)
            got = align_instances(pipe, heads, cfg).entries
            want = reference_alignment(pipe, heads, cfg)
            assert len(got) == len(want) == len(pipe.lidar_proposals)
            for g, w in zip(got, want):
                assert g.lidar_index == w.lidar_index
                assert g.neighbor_indices == w.neighbor_indices
                if nearest:
                    assert np.array_equal(g.scores, w.scores)
                    assert g.chosen_rank == w.chosen_rank == 0
                    continue
                atol = 1e-12 * max(1.0, float(np.abs(w.scores).max()))
                np.testing.assert_allclose(g.scores, w.scores, rtol=0.0, atol=atol)
                top = np.sort(w.scores)[::-1]
                if top.size == 1 or top[0] - top[1] > 1e-9:
                    assert g.chosen_rank == w.chosen_rank

    def test_zero_camera_candidate_raises_only_in_cosine_mode(self):
        one, zero = np.ones(D), np.zeros(D)
        pipe = scene_output([(0.0, 0.0, one)], [(1.0, 0.0, one), (2.0, 0.0, zero)])
        cosine = AlignConfig(k_neighbors=2, metric="cosine")
        with pytest.raises(ZeroVectorError):
            align(0, pipe.lidar_feats[0], pipe.camera_feats, [0, 1], *EYE_HEADS, cosine)
        with pytest.raises(ZeroVectorError):
            align_instances(pipe, EYE_HEADS, cosine)
        # the zero row is fine when no instance uses it, or under the dot metric
        near = align_instances(pipe, EYE_HEADS, AlignConfig(k_neighbors=1))
        assert near.chosen() == {0: 0}
        dot = align_instances(pipe, EYE_HEADS, AlignConfig(k_neighbors=2, metric="dot"))
        assert dot.entries[0].scores[1] == 0.0


class TestReduceRoiVector:
    def test_averages_the_five_sample_blocks(self):
        got = reduce_roi_vector(np.arange(10.0), channels=2)
        assert np.array_equal(got, np.array([4.0, 5.0]))

    def test_wrong_length_raises(self):
        with pytest.raises(ValueError):
            reduce_roi_vector(np.arange(9.0), channels=2)


def make_maps(seed=0, h=8, w=8, c=2):
    meta = GridMeta(0.0, float(w), 0.0, float(h), 1.0)
    rng = np.random.default_rng(seed)
    lidar = FeatureMap(meta, rng.standard_normal((h, w, c)).astype(np.float32), "lidar")
    camera = FeatureMap(meta, rng.standard_normal((h, w, c)).astype(np.float32), "camera")
    return meta, lidar, camera


def proposal(cx, cy, w=2.0, h=2.0, score=0.9):
    return Proposal(cx, cy, 0.0, w, h, 1.0, 0.0, score, 0)


def entry_for(lidar_index, camera_index):
    return AlignEntry(lidar_index, (camera_index,), np.array([1.0]), 0)


def expected_instance_channels(meta, painted, channels):
    """Independent per-cell oracle: each lattice node takes the reduced
    vector of the covering box with the highest score (lowest lidar index on
    ties), zero where nothing covers it."""
    out = np.zeros((meta.height, meta.width, channels), dtype=np.float32)
    for r in range(meta.height):
        for c in range(meta.width):
            x = meta.x_min + c * meta.resolution
            y = meta.y_min + r * meta.resolution
            best = None
            for idx, (prop, vec) in enumerate(painted):
                covers = (
                    abs(x - prop.cx) <= prop.w / 2.0
                    and abs(y - prop.cy) <= prop.h / 2.0
                )
                if covers and (best is None or (-prop.score, idx) < best[0]):
                    best = ((-prop.score, idx), vec)
            if best is not None:
                out[r, c] = best[1]
    return out


class TestFuse:
    def test_dense_channels_copied_bitwise(self):
        meta, lidar_map, camera_map = make_maps()
        cam = np.arange(10.0)[None, :]
        fused = fuse(lidar_map, camera_map, AlignmentResult((entry_for(0, 0),)), [proposal(3.2, 4.1)], cam)
        assert fused.fmap.data.shape == (8, 8, 6)
        assert np.array_equal(fused.fmap.data[:, :, :2], lidar_map.data)
        assert np.array_equal(fused.fmap.data[:, :, 2:4], camera_map.data)
        assert fused.c_lidar == 2 and fused.c_camera == 2

    def test_instance_footprint_matches_cell_oracle(self):
        meta, lidar_map, camera_map = make_maps()
        vec = np.arange(10.0)
        cam = vec[None, :]
        prop = proposal(3.2, 4.1)
        fused = fuse(lidar_map, camera_map, AlignmentResult((entry_for(0, 0),)), [prop], cam)
        reduced = reduce_roi_vector(vec, 2).astype(np.float32)
        want = expected_instance_channels(meta, [(prop, reduced)], 2)
        assert np.array_equal(fused.fmap.data[:, :, 4:6], want)
        # the box x in [2.2, 4.2], y in [3.1, 5.1] covers exactly rows 4-5, cols 3-4
        covered = np.argwhere(np.any(want != 0.0, axis=2))
        assert sorted(map(tuple, covered)) == [(4, 3), (4, 4), (5, 3), (5, 4)]

    def test_overlap_keeps_higher_score(self):
        meta, lidar_map, camera_map = make_maps(seed=1)
        vec_a, vec_b = np.full(10, 2.0), np.full(10, 7.0)
        cam = np.array([vec_a, vec_b])
        props = [proposal(3.0, 3.0, 4.0, 4.0, score=0.9), proposal(5.0, 5.0, 4.0, 4.0, score=0.5)]
        alignment = AlignmentResult((entry_for(0, 0), entry_for(1, 1)))
        fused = fuse(lidar_map, camera_map, alignment, props, cam)
        painted = [
            (props[0], reduce_roi_vector(vec_a, 2).astype(np.float32)),
            (props[1], reduce_roi_vector(vec_b, 2).astype(np.float32)),
        ]
        want = expected_instance_channels(meta, painted, 2)
        assert np.array_equal(fused.fmap.data[:, :, 4:6], want)
        assert np.array_equal(fused.fmap.data[4, 4, 4:6], painted[0][1])  # overlap cell

    def test_equal_scores_keep_lower_lidar_index(self):
        meta, lidar_map, camera_map = make_maps(seed=2)
        vec_a, vec_b = np.full(10, 2.0), np.full(10, 7.0)
        cam = np.array([vec_a, vec_b])
        props = [proposal(3.0, 3.0, 4.0, 4.0, score=0.7), proposal(5.0, 5.0, 4.0, 4.0, score=0.7)]
        alignment = AlignmentResult((entry_for(0, 0), entry_for(1, 1)))
        fused = fuse(lidar_map, camera_map, alignment, props, cam)
        painted = [
            (props[0], reduce_roi_vector(vec_a, 2).astype(np.float32)),
            (props[1], reduce_roi_vector(vec_b, 2).astype(np.float32)),
        ]
        want = expected_instance_channels(meta, painted, 2)
        assert np.array_equal(fused.fmap.data[:, :, 4:6], want)
        assert np.array_equal(fused.fmap.data[4, 4, 4:6], painted[0][1])

    def test_outside_box_and_unmatched_entries_paint_nothing(self):
        meta, lidar_map, camera_map = make_maps(seed=3)
        cam = np.ones((1, 10))
        props = [proposal(100.0, 100.0), proposal(1.0, 1.0)]
        alignment = AlignmentResult(
            (entry_for(0, 0), AlignEntry(1, (), np.empty(0), None))
        )
        fused = fuse(lidar_map, camera_map, alignment, props, cam)
        assert not np.any(fused.fmap.data[:, :, 4:6])

    def test_meta_mismatch_raises(self):
        _, lidar_map, _ = make_maps()
        other = GridMeta(0.0, 4.0, 0.0, 4.0, 1.0)
        camera_map = FeatureMap(other, np.zeros((4, 4, 2), dtype=np.float32), "camera")
        with pytest.raises(MetaMismatchError):
            fuse(lidar_map, camera_map, AlignmentResult(()), [], [])

    def test_channel_layout_and_sidecar(self, tmp_path):
        meta, lidar_map, camera_map = make_maps(seed=4)
        cam = np.arange(10.0)[None, :]
        fused = fuse(lidar_map, camera_map, AlignmentResult((entry_for(0, 0),)), [proposal(3.2, 4.1)], cam)
        layout = fused.channel_layout()
        assert layout == {"lidar": [0, 2], "camera": [2, 4], "instance": [4, 6]}
        stem = tmp_path / "fused.bevf"
        fused.save(stem)
        sidecar = json.loads((tmp_path / "fused.bevf.json").read_text())
        assert sidecar["channel_layout"] == layout
        loaded = load_feature_map(stem)
        assert np.array_equal(loaded.data, fused.fmap.data)
        assert loaded.meta == meta

    def test_sidecar_text_is_pinned(self, tmp_path):
        """Sorted keys, two-space indent, no trailing newline."""
        meta, lidar_map, camera_map = make_maps(seed=4)
        fused = fuse(lidar_map, camera_map, AlignmentResult(()), [], [])
        fused.save(tmp_path / "fused.bevf")
        assert (tmp_path / "fused.bevf.json").read_text() == (
            "{\n"
            '  "channel_layout": {\n'
            '    "camera": [\n      2,\n      4\n    ],\n'
            '    "instance": [\n      4,\n      6\n    ],\n'
            '    "lidar": [\n      0,\n      2\n    ]\n'
            "  },\n"
            '  "meta": {\n'
            '    "resolution": 1.0,\n'
            '    "x_max": 8.0,\n'
            '    "x_min": 0.0,\n'
            '    "y_max": 8.0,\n'
            '    "y_min": 0.0\n'
            "  },\n"
            '  "modality": "fused"\n'
            "}"
        )
