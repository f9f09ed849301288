"""Synthetic scene generation, calibration/lag noise, and alignment metrics."""

import json
import tempfile
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from bevalign.alignfuse import AlignEntry, AlignmentResult, PipelineOutput
from bevalign.config import ConfigError, field_types, from_dict, to_dict
from bevalign.experiment import ExperimentConfig, run_scene_pipeline
from bevalign.grid import FeatureMap, GridMeta, PlanarTransform, world_to_grid
from bevalign.instance import Proposal
from bevalign.oracles import knn_brute
from bevalign.scenesim import (
    OBJECT_LABELS,
    Metrics,
    NoiseSpec,
    NotRunError,
    PlacementFailureError,
    Scene,
    SceneConfig,
    _render_features,
    _render_heat,
    apply_noise,
    apply_spatial_noise,
    apply_temporal_noise,
    assign_proposals,
    eval_alignment,
    feature_matrices,
    gen_scene,
    hash64,
    load_scene,
    save_scene,
)

SMALL = SceneConfig(
    n_objects=5, d_z=4, c_lidar=6, c_camera=6, layout="uniform", min_separation=2.25
)
CLEAN = replace(SMALL, sigma_f=0.0)


def keep_objects(n):
    """A bundle edit that keeps objects 0..n-1 of objects.json or of
    correspondence.json."""

    def edit(d):
        if isinstance(d, dict):
            tables = (d["objects"], d["lidar_features"], d["camera_features"])
        else:
            tables = (d,)
        for rows in tables:
            del rows[n:]

    return edit


def peak_cell(center, meta):
    r, c = world_to_grid(center, meta)
    return int(round(r)), int(round(c))


OBJECT_ARRAYS = (
    "centers", "dims", "yaw", "velocity", "z", "lidar_features", "camera_features",
    "camera_centers",
)


def assert_truth_equal(got, want):
    """Same labels, and every per-object array the same bytes."""
    assert got.labels == want.labels
    for name in OBJECT_ARRAYS:
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name


class TestHash64:
    def test_deterministic(self):
        assert hash64(123, 7) == hash64(123, 7)

    def test_distinct_over_seed_grid(self):
        values = {hash64(p, i) for p in range(20) for i in range(20)}
        assert len(values) == 400

    def test_range(self):
        for p, i in ((0, 0), (2**63, 5), (17, 2**40)):
            v = hash64(p, i)
            assert 0 <= v < 2**64


class TestGenScene:
    def test_bitwise_deterministic(self):
        a = gen_scene(SMALL, 31)
        b = gen_scene(SMALL, 31)
        assert np.array_equal(a.lidar_feat.data, b.lidar_feat.data)
        assert np.array_equal(a.camera_feat.data, b.camera_feat.data)
        assert np.array_equal(a.lidar_heat.data, b.lidar_heat.data)
        assert_truth_equal(a, b)

    def test_centers_snap_to_lattice_nodes(self):
        scene = gen_scene(SMALL, 0)
        for center in scene.centers:
            r, c = world_to_grid(center, SMALL.meta)
            assert abs(r - round(r)) <= 1e-9 and abs(c - round(c)) <= 1e-9

    def test_features_follow_latent_model_when_noise_free(self):
        scene = gen_scene(CLEAN, 5)
        a_l, a_c = feature_matrices(CLEAN)
        for i, z in enumerate(scene.z):
            assert np.array_equal(scene.lidar_features[i], a_l @ z)
            assert np.array_equal(scene.camera_features[i], a_c @ z)

    def test_feature_map_peak_carries_exact_feature_vector(self):
        """With separation beyond the bump truncation window the center cell
        holds weight-1 times the object features, bitwise after the float32
        cast."""
        scene = gen_scene(CLEAN, 5)
        for i, center in enumerate(scene.centers):
            r, c = peak_cell(center, CLEAN.meta)
            want_l = np.asarray(scene.lidar_features[i], dtype=np.float32)
            want_c = np.asarray(scene.camera_features[i], dtype=np.float32)
            assert np.array_equal(scene.lidar_feat.data[r, c], want_l)
            assert np.array_equal(scene.camera_feat.data[r, c], want_c)

    def test_heat_peaks_are_strict_local_maxima_of_one(self):
        scene = gen_scene(SMALL, 8)
        heat = scene.lidar_heat.data[:, :, 0]
        for center in scene.centers:
            r, c = peak_cell(center, SMALL.meta)
            assert heat[r, c] == np.float32(1.0)
            window = heat[max(r - 1, 0) : r + 2, max(c - 1, 0) : c + 2]
            assert np.sum(window == heat[r, c]) == 1
            assert np.all(window <= heat[r, c])

    def test_object_draws_respect_config_ranges(self):
        scene = gen_scene(SceneConfig(n_objects=12, d_z=4, c_lidar=6, c_camera=6), 4)
        assert set(scene.labels) <= set(OBJECT_LABELS) and len(scene.labels) == 12
        assert ((-np.pi <= scene.yaw) & (scene.yaw <= np.pi)).all()
        assert (SceneConfig().dims_low <= scene.dims).all()
        assert (scene.dims <= SceneConfig().dims_high).all()
        for speed in np.hypot(scene.velocity[:, 0], scene.velocity[:, 1]):
            assert speed == 0.0 or SceneConfig().v_min <= speed <= SceneConfig().v_max
        assert scene.z.shape == (12, 4)

    def test_correspondence_lists_true_and_rendered_centers(self):
        scene = gen_scene(SMALL, 2)
        corr = scene.correspondence()
        assert len(corr) == scene.config.n_objects
        for i, row in enumerate(corr):
            assert row["object_id"] == i
            assert row["lidar_center"] == scene.centers[i].tolist()
            assert row["camera_center"] == scene.camera_centers[i].tolist()


def assert_placement_invariants(cfg, scene):
    meta = cfg.meta
    centers, dims = scene.centers, scene.dims
    for x, y in centers:
        assert meta.x_min + cfg.margin <= x <= meta.x_max - cfg.margin
        assert meta.y_min + cfg.margin <= y <= meta.y_max - cfg.margin
    for i in range(len(centers)):
        for j in range(i + 1, len(centers)):
            dx, dy = centers[i] - centers[j]
            assert np.hypot(dx, dy) >= cfg.min_separation - 1e-12
            half_w = (dims[i, 0] + dims[j, 0]) / 2.0
            half_h = (dims[i, 1] + dims[j, 1]) / 2.0
            assert abs(dx) >= half_w or abs(dy) >= half_h


class TestPlacement:
    def test_separation_overlap_and_margin_invariants(self):
        cfg = SceneConfig(n_objects=10, d_z=4, c_lidar=6, c_camera=6)
        for seed in (0, 1, 2):
            assert_placement_invariants(cfg, gen_scene(cfg, seed))

    @pytest.mark.parametrize("base_seed,index", [(102, 47), (151, 96), (159, 27), (195, 77)])
    def test_a_full_cluster_hands_its_objects_to_a_new_one(self, base_seed, index):
        """Scenes of the default config where a cluster member finds no room
        within max_attempts: the rest go to fresh clusters."""
        cfg = SceneConfig()
        scene = gen_scene(cfg, hash64(base_seed, index))
        assert len(scene.labels) == cfg.n_objects == 10
        assert_placement_invariants(cfg, scene)

    def test_clustered_layout_produces_close_neighbors(self):
        cfg = SceneConfig(n_objects=10, d_z=4, c_lidar=6, c_camera=6)
        scene = gen_scene(cfg, 3)
        centers = scene.centers
        d = np.linalg.norm(centers[:, None] - centers[None, :], axis=2)
        np.fill_diagonal(d, np.inf)
        # two members of one cluster sit within 2 * cluster_radius of each
        # other, plus twice the half-cell snap slack
        assert d.min() <= 2.0 * cfg.cluster_radius + 2.0 * 0.54

    def test_impossible_separation_raises(self):
        cfg = SceneConfig(
            n_objects=50, min_separation=30.0, layout="uniform", max_attempts=60,
            d_z=2, c_lidar=2, c_camera=2,
        )
        with pytest.raises(PlacementFailureError):
            gen_scene(cfg, 0)

    def test_impossible_anchor_spacing_raises(self):
        cfg = SceneConfig(
            n_objects=9, anchor_separation=1000.0, max_attempts=60,
            d_z=2, c_lidar=2, c_camera=2,
        )
        with pytest.raises(PlacementFailureError):
            gen_scene(cfg, 0)

    def test_config_validation(self):
        for bad in (
            dict(n_objects=0),
            dict(d_z=0),
            dict(sigma_f=-0.1),
            dict(layout="gridded"),
            dict(min_separation=0.0),
        ):
            with pytest.raises(ValueError):
                SceneConfig(**bad)

    @pytest.mark.parametrize("sigma", ["bump_sigma_feat", "bump_sigma_heat"])
    def test_a_bump_reach_that_overflows_names_truncation(self, sigma):
        # truncation * sigma / resolution = 1e100 / 1e-300 cells: an int cast
        # of the window edge raised OverflowError inside gen_scene
        with pytest.raises(ConfigError) as e:
            SceneConfig(
                meta=GridMeta(0.0, 1e-298, 0.0, 1e-298, 1e-300), margin=0.0,
                truncation=1e50, **{sigma: 1e50},
            )
        assert e.value.field == "truncation"

    @pytest.mark.parametrize(
        "name,value",
        [
            ("dims", [[1.0, 0.0, 1.0]]),
            ("z", [[np.nan, 0.0]]),
            ("centers", [[0.0, np.inf]]),
            ("yaw", [np.nan]),
            ("velocity", [[0.0, -np.inf]]),
            ("camera_centers", [[np.nan, 0.0]]),
            ("centers", [[0.0, 0.0], [1.0, 1.0]]),  # two rows for one object
            ("dims", [[1.0, 1.0]]),  # a row too short
            ("yaw", [[0.0]]),  # a row where a scalar belongs
        ],
    )
    def test_object_validation(self, name, value):
        scene = gen_scene(replace(SMALL, n_objects=1), 0)
        with pytest.raises(ValueError):
            replace(scene, **{name: value})

    def test_object_arrays_are_frozen_float64_copies(self):
        scene = gen_scene(SMALL, 0)
        for name in OBJECT_ARRAYS:
            a = getattr(scene, name)
            assert a.dtype == np.float64 and not a.flags.writeable, name
        mutable = scene.centers.copy()
        rebuilt = replace(scene, centers=mutable)
        assert rebuilt.centers is not mutable and mutable.flags.writeable
        # a frozen float64 array, as a noise point hands on, is kept as is
        assert replace(scene, seed=1).centers is scene.centers


def bump_weights(meta, center, sigma, truncation):
    """Reference: one object's Gaussian weights exp(-d^2 / 2 sigma^2) on the
    lattice window within truncation * sigma of the center, zero outside the
    truncation radius, and the window's first row and column."""
    rr, cc = world_to_grid(center, meta)
    reach = truncation * sigma / meta.resolution
    r0 = max(int(np.ceil(rr - reach)), 0)
    r1 = min(int(np.floor(rr + reach)), meta.height - 1)
    c0 = max(int(np.ceil(cc - reach)), 0)
    c1 = min(int(np.floor(cc + reach)), meta.width - 1)
    if r0 > r1 or c0 > c1:
        return None, 0, 0
    rows = (np.arange(r0, r1 + 1, dtype=np.float64) - rr) * meta.resolution
    cols = (np.arange(c0, c1 + 1, dtype=np.float64) - cc) * meta.resolution
    d2 = rows[:, None] ** 2 + cols[None, :] ** 2
    weights = np.exp(-d2 / (2.0 * sigma * sigma))
    weights[d2 > (truncation * sigma) ** 2] = 0.0
    return weights, r0, c0


def render_features_dense(meta, centers, features, sigma, truncation, modality):
    """Reference: sum every bump, one object at a time, into a full-size
    float64 map, then cast."""
    h, w, c = meta.height, meta.width, features.shape[1]
    out = np.zeros((h, w, c), dtype=np.float64)
    for center, f in zip(centers, features):
        weights, r0, c0 = bump_weights(meta, center, sigma, truncation)
        if weights is None:
            continue
        out[r0 : r0 + weights.shape[0], c0 : c0 + weights.shape[1]] += (
            weights[:, :, None] * f[None, None, :]
        )
    return FeatureMap(meta=meta, data=out.astype(np.float32), modality=modality)


def render_heat_dense(meta, centers, sigma, truncation, modality):
    """Reference: max-compose every bump, one object at a time, in a
    full-size float64 map, then cast."""
    out = np.zeros((meta.height, meta.width, 1), dtype=np.float64)
    for center in centers:
        weights, r0, c0 = bump_weights(meta, center, sigma, truncation)
        if weights is None:
            continue
        view = out[r0 : r0 + weights.shape[0], c0 : c0 + weights.shape[1], 0]
        np.maximum(view, weights, out=view)
    return FeatureMap(meta=meta, data=out.astype(np.float32), modality=modality)


@st.composite
def render_cases(draw):
    """Tiny grids with centres on and off the lattice, inside and outside
    the grid, 1e200 m off it (as a 1e100 m/s object lagged 1e100 s), repeated
    centres (three or more bumps on one cell), and feature vectors of either
    sign, -0.0 included, with C >= 1."""
    res = draw(st.sampled_from((0.5, 0.75, 1.0)))
    h, w = draw(st.integers(1, 10)), draw(st.integers(1, 10))
    meta = GridMeta(-1.0, -1.0 + w * res, 2.0, 2.0 + h * res, res)
    far = st.sampled_from((-1e200, 1e200))
    x = st.one_of(
        st.floats(meta.x_min - 4.0, meta.x_max + 4.0, allow_nan=False),
        st.integers(-3, w + 3).map(lambda k: meta.x_min + k * res),
        far,
    )
    y = st.one_of(
        st.floats(meta.y_min - 4.0, meta.y_max + 4.0, allow_nan=False),
        st.integers(-3, h + 3).map(lambda k: meta.y_min + k * res),
        far,
    )
    distinct = draw(st.lists(st.tuples(x, y), min_size=1, max_size=6))
    centers = draw(st.lists(st.sampled_from(distinct), min_size=0, max_size=9))
    c = draw(st.integers(1, 4))
    # large magnitudes cancel, so a float64 sum taken in another order can
    # round to a different float32
    values = st.one_of(st.floats(-1e3, 1e3), st.sampled_from((1e20, -1e20, 3e-8)))
    features = draw(hnp.arrays(np.float64, (len(centers), c), elements=values))
    sigma = draw(st.floats(0.2, 1.5))
    truncation = draw(st.floats(0.5, 4.0))
    return meta, centers, features, sigma, truncation


# A scene section for a 16 m grid: three objects, some knobs at moderate
# values, and up to two numbers from anywhere in the float range, non-finite
# ones included.
THREE_OBJECTS = {"n_objects": 3, "margin": 1.0}
moderate_floats = st.floats(0.0, 10.0)
small_counts = st.integers(-1, 4)
SCENE_FLOATS = [name for name, tp in field_types(SceneConfig).items() if tp is float]
scene_sections = st.builds(
    lambda knobs, extremes: {**THREE_OBJECTS, **knobs, **extremes},
    st.fixed_dictionaries(
        # a small attempt cap keeps each infeasible placement quick to give up
        {"max_attempts": st.integers(-1, 50)},
        optional={
            "n_objects": small_counts,
            "d_z": small_counts,
            "feature_seed": st.integers(-2, 2**64),
            "c_lidar": small_counts,
            "c_camera": small_counts,
            "layout": st.sampled_from(["clustered", "uniform", "grid"]),
            "cluster_low": small_counts,
            "cluster_high": small_counts,
            "dims_low": st.lists(st.one_of(moderate_floats, st.floats()), min_size=3, max_size=3),
            "dims_high": st.lists(st.one_of(moderate_floats, st.floats()), min_size=3, max_size=3),
            **{name: moderate_floats for name in SCENE_FLOATS},
        },
    ),
    st.dictionaries(st.sampled_from(SCENE_FLOATS), st.floats(), max_size=2),
)
GRID_16 = to_dict(GridMeta(-8.0, 8.0, -8.0, 8.0, 1.0))
THREE_UNIFORM = {**THREE_OBJECTS, "layout": "uniform", "max_attempts": 50}


class TestAcceptedSceneConfigsRun:
    # each example overflowed or underflowed inside gen_scene before its
    # field had a bound
    @example({**THREE_UNIFORM, "bump_sigma_feat": 1e300}, 0)
    @example({**THREE_UNIFORM, "truncation": 1e300}, 0)
    @example({**THREE_UNIFORM, "bump_sigma_heat": 1e-200}, 0)
    @example({**THREE_UNIFORM, "sigma_f": 1e300}, 0)
    @settings(max_examples=300, deadline=None)
    @given(scene_sections, st.integers(0, 2**32))
    def test_every_accepted_scene_config_runs_the_pipeline(self, section, seed):
        try:
            cfg = from_dict(SceneConfig, {**section, "meta": GRID_16}, "scene")
        except ConfigError:
            return
        try:
            scene = gen_scene(cfg, seed)
        except PlacementFailureError:
            return  # an infeasible density: the documented exit 3
        run_scene_pipeline(scene, ExperimentConfig())


class TestRendering:
    @given(case=render_cases())
    @example(
        # three bumps on one cell: in object order it holds 1.0, in reverse 0.0
        case=(
            GridMeta(0.0, 3.0, 0.0, 3.0, 1.0),
            [(1.0, 1.0)] * 3,
            np.array([[1e20], [-1e20], [1.0]]),
            0.5,
            2.0,
        )
    )
    @example(
        # one bump on the grid between centres 1e200 m off it on every side
        case=(
            GridMeta(0.0, 3.0, 0.0, 3.0, 1.0),
            [(1e200, 1.0), (1.0, -1e200), (1.0, 1.0), (-1e200, 1e200), (1.0, 1e200)],
            np.array([[2.0], [3.0], [5.0], [7.0], [11.0]]),
            0.5,
            4.0,
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_window_local_render_matches_dense_float64_bitwise(self, case):
        meta, centers, features, sigma, truncation = case
        xy = np.array(centers, dtype=np.float64).reshape(-1, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            feat = _render_features(meta, xy, features, sigma, truncation, "lidar")
            heat = _render_heat(meta, xy, sigma, truncation, "camera")
        want = render_features_dense(meta, centers, features, sigma, truncation, "lidar")
        assert feat.data.shape == want.data.shape
        assert feat.data.tobytes() == want.data.tobytes()
        want = render_heat_dense(meta, centers, sigma, truncation, "camera")
        assert heat.data.tobytes() == want.data.tobytes()

    @pytest.mark.parametrize("kind", ["features", "heat"])
    def test_rendering_allocates_about_one_float32_map(self, kind):
        cfg = SceneConfig()
        scene = gen_scene(cfg, 3)
        centers = scene.centers

        def render():
            if kind == "features":
                return _render_features(
                    cfg.meta, centers, scene.lidar_features, cfg.bump_sigma_feat,
                    cfg.truncation, "lidar",
                )
            return _render_heat(cfg.meta, centers, cfg.bump_sigma_heat, cfg.truncation, "lidar")

        render()
        tracemalloc.start()
        try:
            fmap = render()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * fmap.data.nbytes


class TestSpatialNoise:
    def test_draw_order_is_theta_then_tx_then_ty(self):
        scene = gen_scene(SMALL, 6)
        noisy = apply_spatial_noise(scene, 0.3, 0.02, np.random.default_rng(5))
        rng = np.random.default_rng(5)
        want = PlanarTransform(
            float(rng.normal(0.0, 0.02)),
            float(rng.normal(0.0, 0.3)),
            float(rng.normal(0.0, 0.3)),
        )
        assert noisy.calibration == want
        assert noisy.noise == NoiseSpec(sigma_t=0.3, sigma_r=0.02)

    def test_translation_only_draws_no_rotation(self):
        scene = gen_scene(SMALL, 6)
        noisy = apply_spatial_noise(scene, 0.4, 0.0, np.random.default_rng(9))
        rng = np.random.default_rng(9)
        want = PlanarTransform(0.0, float(rng.normal(0.0, 0.4)), float(rng.normal(0.0, 0.4)))
        assert noisy.calibration == want

    def test_camera_centers_are_transformed_true_centers(self):
        from bevalign.grid import apply_transform

        scene = gen_scene(SMALL, 6)
        noisy = apply_spatial_noise(scene, 0.5, 0.03, np.random.default_rng(1))
        for center, got in zip(scene.centers.tolist(), noisy.camera_centers.tolist()):
            assert tuple(got) == apply_transform(center, noisy.calibration)

    def test_zero_magnitudes_return_the_same_scene(self):
        scene = gen_scene(SMALL, 6)
        assert apply_spatial_noise(scene, 0.0, 0.0, np.random.default_rng(0)) is scene

    def test_lidar_side_untouched(self):
        scene = gen_scene(SMALL, 6)
        noisy = apply_spatial_noise(scene, 1.0, 0.1, np.random.default_rng(2))
        assert noisy.lidar_feat is scene.lidar_feat
        assert noisy.lidar_heat is scene.lidar_heat
        assert not np.array_equal(noisy.camera_feat.data, scene.camera_feat.data)

    def test_negative_magnitude_raises(self):
        scene = gen_scene(SMALL, 6)
        with pytest.raises(ValueError):
            apply_spatial_noise(scene, -0.1, 0.0, np.random.default_rng(0))

    @pytest.mark.parametrize("sigma_t,sigma_r", [(np.nan, 0.1), (0.1, np.inf), (-0.1, 0.1)])
    def test_bad_magnitude_raises_before_any_draw(self, sigma_t, sigma_r):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            apply_spatial_noise(gen_scene(SMALL, 6), sigma_t, sigma_r, rng)
        assert rng.normal() == np.random.default_rng(0).normal()


class TestTemporalNoise:
    def test_centers_shift_by_minus_velocity_times_lag(self):
        scene = gen_scene(SMALL, 7)
        noisy = apply_temporal_noise(scene, 0.5)
        rows = zip(scene.centers.tolist(), scene.velocity.tolist(), noisy.camera_centers.tolist())
        for (x, y), (vx, vy), got in rows:
            assert got == [x - vx * 0.5, y - vy * 0.5]

    def test_lag_accumulates_bitwise(self):
        scene = gen_scene(SMALL, 7)
        twice = apply_temporal_noise(apply_temporal_noise(scene, 0.25), 0.25)
        once = apply_temporal_noise(scene, 0.5)
        assert twice.noise == once.noise == NoiseSpec(lag=0.5)
        assert twice.calibration == once.calibration == PlanarTransform()
        assert twice.camera_centers.tobytes() == once.camera_centers.tobytes()
        assert np.array_equal(twice.camera_feat.data, once.camera_feat.data)

    def test_zero_lag_returns_same_scene_and_negative_raises(self):
        scene = gen_scene(SMALL, 7)
        assert apply_temporal_noise(scene, 0.0) is scene
        with pytest.raises(ValueError):
            apply_temporal_noise(scene, -0.5)

    @pytest.mark.parametrize("lag", [-0.25, np.nan, np.inf])
    def test_bad_increment_raises_even_where_the_sum_is_valid(self, lag):
        lagged = apply_temporal_noise(gen_scene(SMALL, 7), 0.5)
        with pytest.raises(ValueError):
            apply_temporal_noise(lagged, lag)

    def test_spatial_and_temporal_order_is_irrelevant_bitwise(self):
        scene = gen_scene(SMALL, 7)
        a = apply_temporal_noise(
            apply_spatial_noise(scene, 0.4, 0.03, np.random.default_rng(11)), 0.5
        )
        b = apply_spatial_noise(
            apply_temporal_noise(scene, 0.5), 0.4, 0.03, np.random.default_rng(11)
        )
        assert a.noise == b.noise
        assert a.calibration == b.calibration
        assert a.camera_centers.tobytes() == b.camera_centers.tobytes()
        assert np.array_equal(a.camera_feat.data, b.camera_feat.data)
        assert np.array_equal(a.camera_heat.data, b.camera_heat.data)


# an 80 x 80 grid, beside a default bundle's 144 x 144 maps
GRID_80 = to_dict(GridMeta(-20.0, 20.0, -20.0, 20.0, 0.5))


class TestSceneBundle:
    def test_round_trip_is_bitwise(self, tmp_path):
        scene = apply_temporal_noise(
            apply_spatial_noise(gen_scene(SMALL, 13), 0.3, 0.02, np.random.default_rng(4)),
            0.5,
        )
        save_scene(tmp_path / "bundle", scene)
        loaded = load_scene(tmp_path / "bundle")
        assert_truth_equal(loaded, scene)
        assert loaded.noise == scene.noise
        assert loaded.calibration == scene.calibration
        assert loaded.seed == scene.seed
        for name in ("lidar_feat", "lidar_heat", "camera_feat", "camera_heat"):
            assert np.array_equal(getattr(loaded, name).data, getattr(scene, name).data)
            assert getattr(loaded, name).meta == getattr(scene, name).meta
        # a bundle that passes load_scene's checks is rewritten in the same bytes
        save_scene(tmp_path / "again", loaded)
        first, again = tmp_path / "bundle", tmp_path / "again"
        files = sorted(p.name for p in first.iterdir())
        assert files == sorted(p.name for p in again.iterdir())
        for name in files:
            assert (again / name).read_bytes() == (first / name).read_bytes(), name

    @pytest.mark.parametrize(
        "file,edit",
        [
            ("objects.json", lambda d: d["objects"][0].update(center=[np.nan, 0.0])),
            ("objects.json", lambda d: d["objects"][1].update(velocity=[np.inf, 0.0])),
            ("objects.json", lambda d: d["objects"][1].update(id=0)),
            ("objects.json", lambda d: d["objects"].reverse()),
            ("correspondence.json", lambda d: d.pop()),
            ("correspondence.json", lambda d: d[0].update(lidar_center=[999.0, 999.0])),
            ("correspondence.json", lambda d: d[1].update(object_id=7)),
            ("noise.json", lambda d: d.update(tx=np.nan)),
            ("noise.json", lambda d: d.update(lag_total=np.nan)),
            ("noise.json", lambda d: d.update(lag_total=-0.5)),
            # noise.json must be the noise that rendered the camera side
            ("noise.json", lambda d: d.update(tx=d["tx"] + 5.0)),
            ("noise.json", lambda d: d.update(lag=0.25, lag_total=0.25)),
            ("noise.json", lambda d: d.pop("tx")),
            # lag_total repeats lag
            ("noise.json", lambda d: d.update(lag_total=0.25)),
            ("noise.json", lambda d: d.pop("lag_total")),
            # each value is a number of a known key
            ("noise.json", lambda d: d.update(sigma_t="0.5")),
            ("noise.json", lambda d: d.update(sigma_r=True)),
            ("noise.json", lambda d: d.update(sigma_d=0.01)),
            # objects.json is read by from_dict, then checked by Scene
            ("objects.json", lambda d: d.update(seed=1.5)),
            ("objects.json", lambda d: d.pop("seed")),
            ("objects.json", lambda d: d["objects"][0].update(label=7)),
            ("objects.json", lambda d: d["objects"][0].update(label="truck")),
            ("objects.json", lambda d: d["objects"][0].pop("label")),
            ("objects.json", lambda d: d["objects"][0].update(yaw="0.5")),
            ("objects.json", lambda d: d.update(frame=0)),
            ("objects.json", lambda d: d["objects"][0].update(speed=1.0)),
            ("objects.json", lambda d: d["config"].update(meta=GRID_80)),
            ("objects.json", lambda d: [row.pop() for row in d["camera_features"]]),
            ("camera_feat.json", lambda d: d.update(modality=7)),
            ("lidar_heat.json", lambda d: d.pop("modality")),
            # the object count and z width follow the bundle's config
            ("objects.json", lambda d: [row["z"].pop() for row in d["objects"]]),
            (("objects.json", "correspondence.json"), keep_objects(3)),
            (("objects.json", "correspondence.json"), keep_objects(0)),
        ],
        ids=[
            "nan-center", "inf-velocity", "repeated-id", "ids-out-of-order",
            "camera-center-missing", "lidar-center-moved", "object-id-changed", "nan-tx",
            "nan-lag-total", "negative-lag-total", "tx-moved", "lag-and-lag-total-changed",
            "tx-missing", "lag-total-differs", "lag-total-missing", "string-sigma-t",
            "bool-sigma-r", "unknown-key", "float-seed", "seed-missing", "int-label",
            "unknown-label", "label-missing", "string-yaw", "unknown-top-level-key",
            "unknown-row-key", "config-grid-differs", "camera-features-narrow",
            "int-modality", "modality-missing", "z-narrow", "fewer-objects", "no-objects",
        ],
    )
    def test_load_rejects_a_corrupt_bundle(self, tmp_path, file, edit):
        bundle = tmp_path / "bundle"
        spatial = apply_spatial_noise(gen_scene(SMALL, 13), 0.3, 0.02, np.random.default_rng(4))
        save_scene(bundle, apply_temporal_noise(spatial, 0.5))
        for name in (file,) if isinstance(file, str) else file:
            d = json.loads((bundle / name).read_text())
            edit(d)
            (bundle / name).write_text(json.dumps(d))
        with pytest.raises(ValueError):
            load_scene(bundle)

    def test_load_of_no_objects_names_objects_json(self, tmp_path):
        save_scene(tmp_path, gen_scene(SMALL, 13))
        for name in ("objects.json", "correspondence.json"):
            d = json.loads((tmp_path / name).read_text())
            keep_objects(0)(d)
            (tmp_path / name).write_text(json.dumps(d))
        with pytest.raises(ValueError, match="objects.json"):
            load_scene(tmp_path)

    def test_non_finite_truth_is_rejected_without_a_warning(self, tmp_path):
        # without lag, deriving the camera centers computes inf * 0
        save_scene(tmp_path, gen_scene(SMALL, 13))
        objs = json.loads((tmp_path / "objects.json").read_text())
        objs["objects"][1]["velocity"] = [np.inf, 0.0]
        (tmp_path / "objects.json").write_text(json.dumps(objs))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="velocity"):
                load_scene(tmp_path)

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.builds(
                NoiseSpec,
                sigma_t=st.sampled_from([0.0, 0.5]) | st.floats(0.0, 5.0),
                sigma_r=st.sampled_from([0.0, 0.02]) | st.floats(0.0, 0.5),
                lag=st.sampled_from([0.0, 0.5]) | st.floats(0.0, 5.0),
            ),
            min_size=1,
            max_size=3,
        ),
        st.integers(0, 2**32),
    )
    def test_noise_state_round_trips(self, specs, seed):
        scene = gen_scene(replace(SMALL, meta=GridMeta(-16.0, 16.0, -16.0, 16.0, 1.0)), seed)
        for spec in specs:
            scene = apply_noise(scene, spec)
        with tempfile.TemporaryDirectory() as tmp:
            save_scene(tmp, scene)
            keys = list(json.loads((Path(tmp) / "noise.json").read_text()))
            loaded = load_scene(tmp)
        assert keys == [*field_types(NoiseSpec), *field_types(PlanarTransform), "lag_total"]
        assert loaded.noise == scene.noise
        assert loaded.calibration == scene.calibration
        assert loaded.camera_centers.tobytes() == scene.camera_centers.tobytes()

    def test_load_without_config_recovers_generation_knobs(self, tmp_path):
        scene = gen_scene(CLEAN, 13)
        save_scene(tmp_path / "bundle", scene)
        loaded = load_scene(tmp_path / "bundle")
        assert loaded.config.n_objects == CLEAN.n_objects
        assert loaded.config.d_z == CLEAN.d_z
        assert loaded.config.sigma_f == CLEAN.sigma_f
        assert loaded.config.feature_seed == CLEAN.feature_seed
        assert loaded.config.layout == CLEAN.layout

    def test_bundle_carries_the_full_generation_config(self, tmp_path):
        cfg = replace(
            SMALL,
            c_lidar=8,
            c_camera=12,
            meta=GridMeta(-20.0, 20.0, -15.0, 15.0, 0.5),
            dims_low=(0.8, 0.9, 1.0),
            dims_high=(1.4, 1.5, 2.0),
        )
        save_scene(tmp_path / "bundle", gen_scene(cfg, 13))
        assert load_scene(tmp_path / "bundle").config == cfg

    def test_five_key_bundle_config_still_loads(self, tmp_path):
        # bundles written before the full config was saved hold five keys;
        # every other knob takes its default
        save_scene(tmp_path / "bundle", gen_scene(CLEAN, 13))
        path = tmp_path / "bundle" / "objects.json"
        objs = json.loads(path.read_text())
        keys = ("n_objects", "d_z", "sigma_f", "feature_seed", "layout")
        objs["config"] = {k: objs["config"][k] for k in keys}
        path.write_text(json.dumps(objs, indent=2))
        assert load_scene(tmp_path / "bundle").config == SceneConfig(
            n_objects=CLEAN.n_objects,
            d_z=CLEAN.d_z,
            sigma_f=CLEAN.sigma_f,
            feature_seed=CLEAN.feature_seed,
            layout=CLEAN.layout,
        )


def assign_proposals_loop(centers, scores, object_centers, dims, radius_scale=1.5):
    """Reference: the greedy matcher over every (proposal, object) pair, one
    pair at a time, with each object's gate from its box diagonal."""
    order = sorted(range(len(centers)), key=lambda i: (-scores[i], i))
    claimed: set[int] = set()
    out: dict[int, int] = {}
    for pi in order:
        px, py = centers[pi]
        best_obj, best_d = None, np.inf
        for oi, ((ox, oy), (w, h, _)) in enumerate(zip(object_centers, dims)):
            if oi in claimed:
                continue
            d = float(np.hypot(px - ox, py - oy))
            if d <= radius_scale * float(np.hypot(w, h)) and d < best_d:
                best_obj, best_d = oi, d
        if best_obj is not None:
            claimed.add(best_obj)
            out[pi] = best_obj
    return out


def boxes(n):
    """Dims of n 2 x 2 x 2 boxes: a diagonal of hypot(2, 2), about 2.83."""
    return np.full((n, 3), 2.0)


class TestAssignProposals:
    def test_higher_score_claims_first(self):
        objects = np.array([(0.0, 0.0), (10.0, 0.0)])
        got = assign_proposals([(1.0, 0.0), (0.5, 0.0)], [0.5, 0.9], objects, boxes(2))
        assert got == {1: 0}

    def test_radius_gate_rejects_distant_proposals(self):
        objects = np.array([(0.0, 0.0)])
        got = assign_proposals([(5.0, 0.0)], [0.9], objects, boxes(1))
        assert got == {}
        # gate at 1.5x the diagonal, about 4.24
        got = assign_proposals([(4.0, 0.0)], [0.9], objects, boxes(1))
        assert got == {0: 0}

    def test_claimed_objects_fall_to_next_nearest(self):
        objects = np.array([(0.0, 0.0), (10.0, 0.0)])
        got = assign_proposals([(9.0, 0.0), (8.0, 0.0)], [0.9, 0.8], objects, boxes(2))
        assert got == {0: 1}

    def test_equal_scores_resolve_by_lower_proposal_index(self):
        objects = np.array([(0.0, 0.0)])
        got = assign_proposals([(0.4, 0.0), (0.2, 0.0)], [0.7, 0.7], objects, boxes(1))
        assert got == {0: 0}

    def test_empty_sides_assign_nothing(self):
        assert assign_proposals([], [], np.array([(0.0, 0.0)]), boxes(1)) == {}
        assert assign_proposals([(0.0, 0.0)], [0.9], np.empty((0, 2)), boxes(0)) == {}

    @given(
        data=st.data(),
        n_props=st.integers(0, 8),
        n_objs=st.integers(0, 6),
        radius_scale=st.sampled_from((0.5, 1.0, 1.5, 3.0)),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_the_per_pair_loop(self, data, n_props, n_objs, radius_scale):
        # lattice points give equal distances, so nearest-object ties are common
        coord = st.one_of(
            st.floats(-6.0, 6.0, allow_nan=False), st.integers(-6, 6).map(lambda k: k * 0.5)
        )
        side = st.one_of(st.floats(0.1, 3.0, allow_nan=False), st.sampled_from((1.0, 2.0)))
        dims = np.array([(data.draw(side), data.draw(side), 1.0) for _ in range(n_objs)])
        dims = dims.reshape(n_objs, 3)
        object_centers = np.array([(data.draw(coord), data.draw(coord)) for _ in range(n_objs)])
        object_centers = object_centers.reshape(n_objs, 2)
        centers = [(data.draw(coord), data.draw(coord)) for _ in range(n_props)]
        # few distinct scores, so ties in the claim order are common
        scores = [data.draw(st.sampled_from((0.2, 0.5, 0.9))) for _ in range(n_props)]
        got = assign_proposals(centers, scores, object_centers, dims, radius_scale)
        want = assign_proposals_loop(
            centers, scores, object_centers.tolist(), dims.tolist(), radius_scale
        )
        assert list(got.items()) == list(want.items())


def pipeline_for(scene, chosen_camera=None, drop_camera=()):
    """Hand-built detections at the exact rendered centers with an alignment
    that picks chosen_camera[i] (default: the matching index)."""
    dims = scene.dims.tolist()
    lidar_props = tuple(
        Proposal(x, y, 0.0, *d, yaw, 0.9, 0)
        for (x, y), d, yaw in zip(scene.centers.tolist(), dims, scene.yaw.tolist())
    )
    cam_ids = [i for i in range(scene.config.n_objects) if i not in drop_camera]
    camera_props = tuple(
        Proposal(*scene.camera_centers[i].tolist(), 0.0, *dims[i], 0.0, 0.9, 0) for i in cam_ids
    )
    entries = []
    for i in range(scene.config.n_objects):
        pick = chosen_camera[i] if chosen_camera is not None else None
        if pick is None:
            pick = cam_ids.index(i) if i in cam_ids else None
        if pick is None:
            entries.append(AlignEntry(i, (), np.empty(0), None))
        else:
            entries.append(AlignEntry(i, (pick,), np.array([1.0]), 0))
    return PipelineOutput(
        lidar_props, (), camera_props, (), AlignmentResult(tuple(entries)), None, 0.0
    )


class TestEvalAlignment:
    def test_missing_outputs_raise(self):
        scene = gen_scene(SMALL, 20)
        with pytest.raises(NotRunError):
            eval_alignment(scene, None)
        out = pipeline_for(scene)
        broken = PipelineOutput(
            out.lidar_proposals, (), out.camera_proposals, (), None, None, 0.0
        )
        with pytest.raises(NotRunError):
            eval_alignment(scene, broken)

    def test_perfect_alignment_scores_full_recall(self):
        scene = gen_scene(SMALL, 20)
        m = eval_alignment(scene, pipeline_for(scene))
        assert m.recall_at_1 == 1.0
        assert m.n_lidar_matched == scene.config.n_objects
        assert m.center_err_before == 0.0 and m.center_err_after == 0.0
        assert m.positive_pair_count == 0 and m.negative_pair_count == 0

    def test_missing_camera_counterpart_counts_as_miss(self):
        scene = gen_scene(SMALL, 20)
        m = eval_alignment(scene, pipeline_for(scene, drop_camera=(0,)))
        assert m.recall_at_1 == pytest.approx((scene.config.n_objects - 1) / scene.config.n_objects)
        assert m.n_lidar_matched == scene.config.n_objects

    def test_wrong_choice_counts_as_miss(self):
        scene = gen_scene(SMALL, 20)
        chosen = list(range(scene.config.n_objects))
        chosen[0], chosen[1] = chosen[1], chosen[0]
        m = eval_alignment(scene, pipeline_for(scene, chosen_camera=chosen))
        assert m.recall_at_1 == pytest.approx((scene.config.n_objects - 2) / scene.config.n_objects)

    def test_center_errors_measure_lag_displacement(self):
        scene = gen_scene(SMALL, 21)
        noisy = apply_temporal_noise(scene, 0.5)
        m = eval_alignment(noisy, pipeline_for(noisy))
        want = np.mean(0.5 * np.hypot(scene.velocity[:, 0], scene.velocity[:, 1]))
        assert m.center_err_before == pytest.approx(want)
        assert m.center_err_after == 0.0
        assert m.recall_at_1 == 1.0

    def test_empty_detections_score_zero(self):
        scene = gen_scene(SMALL, 20)
        out = PipelineOutput((), (), (), (), AlignmentResult(()), None, 0.0)
        m = eval_alignment(scene, out)
        assert m.recall_at_1 == 0.0 and m.n_lidar_matched == 0

    def test_metrics_validation(self):
        with pytest.raises(ValueError):
            Metrics(1.5, 0.0, 0.0, 0.0, 0, 0, 0)
        with pytest.raises(ValueError):
            Metrics(0.5, 0.0, 0.0, 0.0, -1, 0, 0)


class TestStatisticalBehavior:
    def test_uniform_random_chooser_sits_at_chance_level(self):
        """Picking uniformly among the 8 nearest camera candidates should
        land at recall ~ 1/8 on clean 10-object scenes."""
        rng = np.random.default_rng(99)
        correct = 0.0
        matched = 0
        for s in range(60):
            scene = gen_scene(SceneConfig(d_z=4, c_lidar=6, c_camera=6), hash64(55, s))
            centers = scene.camera_centers
            entries = []
            for i in range(scene.config.n_objects):
                neigh = knn_brute(centers, centers[i], 8)
                pick = int(rng.integers(0, len(neigh)))
                scores = np.zeros(len(neigh))
                scores[pick] = 1.0
                entries.append(AlignEntry(i, tuple(neigh), scores, pick))
            out = pipeline_for(scene)
            out = PipelineOutput(
                out.lidar_proposals, (), out.camera_proposals, (),
                AlignmentResult(tuple(entries)), None, 0.0,
            )
            m = eval_alignment(scene, out)
            correct += m.recall_at_1 * m.n_lidar_matched
            matched += m.n_lidar_matched
        assert matched == 600
        assert correct / matched == pytest.approx(0.125, abs=0.05)

    def test_nearest_matching_degrades_monotonically_with_noise(self):
        """The no-learning baseline: nearest camera center by position. Its
        recall must fall as the rigid miscalibration grows."""
        cfg = SceneConfig(d_z=4, c_lidar=6, c_camera=6)
        scenes = [gen_scene(cfg, hash64(77, s)) for s in range(25)]
        recalls = []
        for sigma in (0.0, 0.25, 0.5, 1.0):
            ok = tot = 0
            for scene in scenes:
                noisy = (
                    apply_spatial_noise(
                        scene, sigma, 0.0, np.random.default_rng(hash64(scene.seed, 9001))
                    )
                    if sigma
                    else scene
                )
                cam = noisy.camera_centers
                for i, center in enumerate(scene.centers):
                    d = np.sum((cam - center) ** 2, axis=1)
                    ok += int(np.argmin(d) == i)
                    tot += 1
            recalls.append(ok / tot)
        assert recalls[0] == 1.0
        for better, worse in zip(recalls, recalls[1:]):
            assert worse <= better + 0.02
        assert recalls[0] - recalls[-1] >= 0.1
