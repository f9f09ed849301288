"""Synthetic scenes with known cross-modal correspondence, the calibration
and sensor-lag noise models, and the alignment-quality metrics.

Feature model
    Each object carries a latent vector z ~ N(0, I) of length D_z.  Its
    dense features are f_L = A_L z + eps_L and f_C = A_C z + eps_C, where
    A_L and A_C are fixed matrices drawn once from feature_seed (shared by
    every scene, so heads trained on some scenes transfer to others) and
    eps is per-object Gaussian noise with scale sigma_f.

Rendering
    Object centers are snapped to lattice nodes at generation time.
    Feature maps are sum-composed Gaussian bumps (weight exactly 1 at the
    center cell, truncated at 4 sigma); heatmaps are max-composed unit-peak
    bumps, so every rendered center is a strict local maximum.  Only the
    cells inside some bump window are computed, all objects' in one batched
    pass; feature maps sum each cell's bumps in object order.

Noise
    Spatial miscalibration is ONE rigid planar transform per scene applied
    to the camera side; temporal lag displaces each camera center by
    -velocity * lag.  A scene's noise state is its NoiseSpec (the last
    spatial increment's sigmas and the total lag) and its calibration, the
    composed transform.  Camera centers are always recomputed from the true
    centers and that state, so applying spatial then temporal noise yields
    bitwise the same maps as the reverse order, and a loaded bundle's camera
    centers are derived from its noise.json rather than read.

Bundles
    objects.json and noise.json are written by config.to_dict and read by
    config.from_dict, and a bundle loads with its own generation config.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Literal

import numpy as np

from .alignfuse import PipelineOutput
from .config import ConfigError, check_fields, field_types, from_dict, to_dict
from .grid import (
    FeatureMap,
    GridMeta,
    PlanarTransform,
    apply_transform,
    default_meta,
    grid_to_world,
    load_feature_map,
    save_feature_map,
    world_to_grid,
)
from .pairing import greedy_match

OBJECT_LABELS = ("vehicle", "pedestrian", "cyclist")


class PlacementFailureError(RuntimeError):
    """Rejection sampling could not place an object within the attempt cap."""


class NotRunError(ValueError):
    """Metrics were requested for a scene the pipeline never processed."""


def hash64(parent_seed: int, index: int) -> int:
    """Child-stream seed: splitmix64 finalizer over parent and index.

    z = parent + (index + 1) * 0x9E3779B97F4A7C15 mod 2^64, then the
    standard splitmix64 avalanche.  Distinct (parent, index) pairs map to
    well-separated 64-bit seeds."""
    mask = (1 << 64) - 1
    z = (int(parent_seed) + (int(index) + 1) * 0x9E3779B97F4A7C15) & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return (z ^ (z >> 31)) & mask


@dataclass(frozen=True)
class NoiseSpec:
    """Noise magnitudes: per-axis translation sigma (m), rotation sigma
    (rad), and sensor lag (s)."""

    # at most 1e100, as SceneConfig.v_max, so a drawn shift and a lag's
    # displacement (speed * lag) stay at most about 1e200, far from overflow
    sigma_t: float = field(default=0.0, metadata={"ge": 0, "le": 1e100})
    sigma_r: float = field(default=0.0, metadata={"ge": 0})
    lag: float = field(default=0.0, metadata={"ge": 0, "le": 1e100})

    def __post_init__(self) -> None:
        check_fields(self)


@dataclass(frozen=True)
class SceneConfig:
    """Knobs for generation.  Defaults give 10 objects in tight clusters so
    nearest-position matching is genuinely ambiguous once noise moves the
    camera side around.  A negative length (m) or speed (m/s) means nothing,
    but margin may be negative: the placement box then reaches past the grid."""

    n_objects: int = field(default=10, metadata={"ge": 1})
    d_z: int = field(default=8, metadata={"ge": 1})
    # in units of the unit-variance signal: from 1e7 up the signal is below
    # one float32 step of the map, and 1e300 overflows it
    sigma_f: float = field(default=0.05, metadata={"ge": 0, "le": 1e6})
    # numpy's default_rng takes no negative seed
    feature_seed: int = field(default=7770, metadata={"ge": 0})
    c_lidar: int = field(default=32, metadata={"ge": 1})
    c_camera: int = field(default=32, metadata={"ge": 1})
    meta: GridMeta = field(default_factory=default_meta)
    layout: Literal["clustered", "uniform"] = "clustered"
    min_separation: float = field(default=1.5, metadata={"gt": 0})
    cluster_low: int = field(default=2, metadata={"ge": 1})
    cluster_high: int = field(default=4, metadata={"ge": 1})
    cluster_radius: float = field(default=2.0, metadata={"ge": 0})
    anchor_separation: float = field(default=9.0, metadata={"ge": 0})
    margin: float = 6.0
    dims_low: tuple[float, float, float] = field(default=(1.0, 1.0, 1.0), metadata={"gt": 0})
    dims_high: tuple[float, float, float] = field(default=(1.8, 1.8, 2.2), metadata={"gt": 0})
    # at most 1e100, as NoiseSpec.lag, so speed * lag stays at most 1e200
    v_max: float = field(default=5.0, metadata={"ge": 0, "le": 1e100})
    v_min: float = field(default=1.0, metadata={"ge": 0})
    static_frac: float = field(default=0.3, metadata={"ge": 0, "le": 1})
    # sigma^2 underflows to 0 below about 1e-162, and (truncation * sigma)^2
    # overflows above about 1e154
    bump_sigma_feat: float = field(default=0.5, metadata={"ge": 1e-100, "le": 1e50})
    bump_sigma_heat: float = field(default=0.75, metadata={"ge": 1e-100, "le": 1e50})
    truncation: float = field(default=4.0, metadata={"gt": 0, "le": 1e50})
    max_attempts: int = field(default=1000, metadata={"ge": 1})

    def __post_init__(self) -> None:
        check_fields(self)
        if self.cluster_low > self.cluster_high:
            raise ConfigError("cluster_high", f"must be >= cluster_low, got {self.cluster_high}")
        if self.v_min > self.v_max:
            raise ConfigError("v_max", f"must be >= v_min, got {self.v_max}")
        if any(lo > hi for lo, hi in zip(self.dims_low, self.dims_high)):
            raise ConfigError("dims_high", f"must be >= dims_low per axis, got {self.dims_high}")
        # the widest bump window's reach (m) must be finite in cells to have integer edges
        reach = self.truncation * max(self.bump_sigma_feat, self.bump_sigma_heat)
        if not math.isfinite(reach / self.meta.resolution):
            raise ConfigError("truncation", f"gives an infinite bump reach, got {self.truncation}")
        x_lo, x_hi, y_lo, y_hi = self.placement_box()
        if not all(lo <= hi and math.isfinite(hi - lo) for lo, hi in [(x_lo, x_hi), (y_lo, y_hi)]):
            raise ConfigError("margin", f"leaves no finite placement box, got {self.margin}")

    def placement_box(self) -> tuple[float, float, float, float]:
        """(x_lo, x_hi, y_lo, y_hi): the grid extent shrunk by the margin."""
        m, pad = self.meta, self.margin
        return m.x_min + pad, m.x_max - pad, m.y_min + pad, m.y_max - pad


# Each per-object array of a Scene and the shape of one of its rows; a
# string is the SceneConfig field that sets a width, None a free width.
_OBJECT_ROWS = {
    "centers": (2,),
    "dims": (3,),
    "yaw": (),
    "velocity": (2,),
    "z": ("d_z",),
    "lidar_features": (None,),
    "camera_features": (None,),
    "camera_centers": (2,),
}
# a Scene's maps, each saved in a bundle as the BEVF file of its name
_MAPS = ("lidar_feat", "lidar_heat", "camera_feat", "camera_heat")


@dataclass(frozen=True)
class Scene:
    """Ground truth and rendered maps of one scene.  Row i of every
    per-object array is object i: its label, true (LiDAR-side) center,
    dims, yaw, velocity, latent z, feature vectors and rendered camera
    center.  There are config.n_objects rows, z has config.d_z columns, the
    arrays are read-only float64, finite, and dims positive; every label is
    one of OBJECT_LABELS.  The four maps lie on config.meta, and each
    feature map has one channel per column of its feature rows.
    noise holds the last spatial increment's sigmas and the total lag;
    calibration is the composed rigid transform of the camera side."""

    labels: tuple[str, ...]
    centers: np.ndarray
    dims: np.ndarray
    yaw: np.ndarray
    velocity: np.ndarray
    z: np.ndarray
    lidar_features: np.ndarray
    camera_features: np.ndarray
    camera_centers: np.ndarray
    lidar_feat: FeatureMap
    lidar_heat: FeatureMap
    camera_feat: FeatureMap
    camera_heat: FeatureMap
    noise: NoiseSpec
    calibration: PlanarTransform
    seed: int
    config: SceneConfig

    def __post_init__(self) -> None:
        n = self.config.n_objects
        if len(self.labels) != n:
            raise ValueError(f"labels must number config.n_objects = {n}, got {len(self.labels)}")
        for name, row in _OBJECT_ROWS.items():
            a = getattr(self, name)
            # a frozen float64 array, as every noise point passes on, is kept
            if not (isinstance(a, np.ndarray) and a.dtype == np.float64 and not a.flags.writeable):
                a = np.array(a, dtype=np.float64)
                a.flags.writeable = False
                object.__setattr__(self, name, a)
            want = (n, *(getattr(self.config, w) if isinstance(w, str) else w for w in row))
            if a.ndim != len(want) or any(w not in (None, got) for w, got in zip(want, a.shape)):
                raise ValueError(f"{name} must have shape {want}, got {a.shape}")
            if not np.isfinite(a).all():
                raise ValueError(f"{name} contains NaN or Inf")
        if not (self.dims > 0).all():
            raise ValueError("object dims must be positive")
        if not set(self.labels) <= set(OBJECT_LABELS):
            raise ValueError(f"labels must be among {OBJECT_LABELS}, got {self.labels}")
        for name in _MAPS:
            if getattr(self, name).meta != self.config.meta:
                raise ValueError(f"{name} must lie on config.meta, got {getattr(self, name).meta}")
        for side in ("lidar", "camera"):
            fmap, rows = getattr(self, f"{side}_feat"), getattr(self, f"{side}_features")
            if fmap.channels != rows.shape[1]:
                raise ValueError(f"{side}_feat needs {rows.shape[1]} channels, got {fmap.channels}")

    def correspondence(self) -> list[dict]:
        """Per object: true (lidar-side) center and rendered camera center."""
        return [
            {"object_id": i, "lidar_center": true, "camera_center": camera}
            for i, (true, camera) in enumerate(
                zip(self.centers.tolist(), self.camera_centers.tolist())
            )
        ]


def feature_matrices(cfg: SceneConfig) -> tuple[np.ndarray, np.ndarray]:
    """Fixed modality matrices A_L, A_C; lidar drawn first from one rng."""
    rng = np.random.default_rng(cfg.feature_seed)
    scale = 1.0 / np.sqrt(cfg.d_z)
    a_l = rng.standard_normal((cfg.c_lidar, cfg.d_z)) * scale
    a_c = rng.standard_normal((cfg.c_camera, cfg.d_z)) * scale
    return a_l, a_c


def _snap_to_lattice(p: tuple[float, float], meta: GridMeta) -> tuple[float, float]:
    r, c = world_to_grid(p, meta)
    r = float(np.clip(np.rint(r), 0, meta.height - 1))
    c = float(np.clip(np.rint(c), 0, meta.width - 1))
    return grid_to_world((r, c), meta)


def _boxes_clear(
    center: tuple[float, float],
    dims: tuple[float, float, float],
    placed: list[tuple[tuple[float, float], tuple[float, float, float]]],
    min_sep: float,
) -> bool:
    for (ox, oy), odims in placed:
        dx, dy = center[0] - ox, center[1] - oy
        if dx * dx + dy * dy < min_sep * min_sep:
            return False
        # axis-aligned overlap check: boxes must not intersect
        if abs(dx) < (dims[0] + odims[0]) / 2.0 and abs(dy) < (dims[1] + odims[1]) / 2.0:
            return False
    return True


def _draw_dims(rng: np.random.Generator, cfg: SceneConfig) -> tuple[float, float, float]:
    lo = np.asarray(cfg.dims_low)
    hi = np.asarray(cfg.dims_high)
    d = rng.uniform(lo, hi)
    return (float(d[0]), float(d[1]), float(d[2]))


def _place_centers(
    rng: np.random.Generator, cfg: SceneConfig
) -> list[tuple[tuple[float, float], tuple[float, float, float]]]:
    meta = cfg.meta
    x_lo, x_hi, y_lo, y_hi = cfg.placement_box()
    placed: list[tuple[tuple[float, float], tuple[float, float, float]]] = []

    def try_place(propose) -> bool:
        for _ in range(cfg.max_attempts):
            center = _snap_to_lattice(propose(), meta)
            if not (x_lo <= center[0] <= x_hi and y_lo <= center[1] <= y_hi):
                continue
            dims = _draw_dims(rng, cfg)
            if _boxes_clear(center, dims, placed, cfg.min_separation):
                placed.append((center, dims))
                return True
        return False

    if cfg.layout == "uniform":
        for _ in range(cfg.n_objects):
            if not try_place(lambda: (rng.uniform(x_lo, x_hi), rng.uniform(y_lo, y_hi))):
                raise PlacementFailureError(
                    f"could not place object {len(placed)} after {cfg.max_attempts} attempts"
                )
        return placed

    anchors: list[tuple[float, float]] = []
    empty_clusters = 0  # in a row; bounds the loop where anchors always fit but objects never do
    while len(placed) < cfg.n_objects:
        if empty_clusters == cfg.max_attempts:
            raise PlacementFailureError(f"{empty_clusters} clusters in a row took no object")
        anchor = None
        for _ in range(cfg.max_attempts):
            cand = (rng.uniform(x_lo, x_hi), rng.uniform(y_lo, y_hi))
            if all(
                np.hypot(cand[0] - a[0], cand[1] - a[1]) >= cfg.anchor_separation
                for a in anchors
            ):
                anchor = cand
                break
        if anchor is None:
            raise PlacementFailureError("could not place a cluster anchor")
        anchors.append(anchor)
        size = min(
            int(rng.integers(cfg.cluster_low, cfg.cluster_high + 1)),
            cfg.n_objects - len(placed),
        )

        def near_anchor() -> tuple[float, float]:
            radius = rng.uniform(0.0, cfg.cluster_radius)
            angle = rng.uniform(0.0, 2.0 * np.pi)
            return (anchor[0] + radius * np.cos(angle), anchor[1] + radius * np.sin(angle))

        n_before = len(placed)
        for _ in range(size):
            if not try_place(near_anchor):
                # the cluster is full; the objects left start a new one
                break
        empty_clusters = empty_clusters + 1 if len(placed) == n_before else 0
    return placed


def _bumps(
    meta: GridMeta, centers: np.ndarray, sigma: float, truncation: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each grid node in the window within truncation * sigma of each of the
    (N, 2) centers: object index, flat cell index r * width + c, and weight
    exp(-d^2 / 2 sigma^2), zero beyond the truncation radius.  Entries run in
    object order, row-major within a window; only window cells are computed."""
    res = meta.resolution
    reach = truncation * sigma / res
    rr, cc = world_to_grid(centers.T, meta)
    # clipped while still float, so an index 1e200 cells away never meets an int cast
    r0 = np.clip(np.ceil(rr - reach), 0, meta.height).astype(np.int64)
    r1 = np.clip(np.floor(rr + reach), -1, meta.height - 1).astype(np.int64)
    c0 = np.clip(np.ceil(cc - reach), 0, meta.width).astype(np.int64)
    c1 = np.clip(np.floor(cc + reach), -1, meta.width - 1).astype(np.int64)
    n_cols = np.maximum(c1 - c0 + 1, 0)
    sizes = np.maximum(r1 - r0 + 1, 0) * n_cols
    obj = np.repeat(np.arange(len(sizes)), sizes)
    k = np.arange(obj.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    rows, cols = r0[obj] + k // n_cols[obj], c0[obj] + k % n_cols[obj]
    d2 = ((rows - rr[obj]) * res) ** 2 + ((cols - cc[obj]) * res) ** 2
    weights = np.exp(-d2 / (2.0 * sigma * sigma))
    weights[d2 > (truncation * sigma) ** 2] = 0.0
    return obj, rows * meta.width + cols, weights


def _render_features(
    meta: GridMeta,
    centers: np.ndarray,
    features: np.ndarray,
    sigma: float,
    truncation: float,
    modality: str,
) -> FeatureMap:
    """Sum-composed Gaussian bumps carrying each object's feature vector.

    Only the cells inside some bump window are summed, in float64 and in
    object order, then rounded once into the float32 map: the bytes of a
    dense float64 render without its full-size buffer."""
    c = features.shape[1]
    obj, flat, weights = _bumps(meta, centers, sigma, truncation)
    cells, inverse = np.unique(flat, return_inverse=True)
    sums = np.zeros((cells.size, c))
    # np.add.at applies repeated indices one after another, so each cell
    # accumulates its bumps in object order
    np.add.at(sums, inverse, weights[:, None] * features[obj])
    out = np.zeros((meta.height, meta.width, c), dtype=np.float32)
    out.reshape(-1, c)[cells] = sums
    return FeatureMap(meta=meta, data=out, modality=modality)


def _render_heat(
    meta: GridMeta, centers: np.ndarray, sigma: float, truncation: float, modality: str
) -> FeatureMap:
    """Max-composed unit-peak bumps: one strict local maximum per center.

    Rounding to float32 is monotone, so the max of rounded weights equals
    the rounded max of the float64 weights."""
    flat, weights = _bumps(meta, centers, sigma, truncation)[1:]
    out = np.zeros((meta.height, meta.width, 1), dtype=np.float32)
    np.maximum.at(out.reshape(-1), flat, weights.astype(np.float32))
    del flat, weights  # freed before FeatureMap's finiteness scan, which with the map is the peak
    return FeatureMap(meta=meta, data=out, modality=modality)


def _render_maps(
    cfg: SceneConfig, centers: np.ndarray, features: np.ndarray, modality: str
) -> tuple[FeatureMap, FeatureMap]:
    """One modality's feature map and heatmap from the (N, 2) centers."""
    feat = _render_features(
        cfg.meta, centers, features, cfg.bump_sigma_feat, cfg.truncation, modality
    )
    heat = _render_heat(cfg.meta, centers, cfg.bump_sigma_heat, cfg.truncation, modality)
    return feat, heat


def gen_scene(cfg: SceneConfig, seed: int) -> Scene:
    """Deterministic scene from (cfg, seed).

    Draw order is fixed: placement (centers and dims interleaved), then per
    object yaw, label, velocity, latent z, lidar feature noise, camera
    feature noise."""
    rng = np.random.default_rng(seed)
    placed = _place_centers(rng, cfg)
    a_l, a_c = feature_matrices(cfg)

    n = cfg.n_objects
    labels = []
    yaw = np.empty(n)
    velocity = np.zeros((n, 2))
    z = np.empty((n, cfg.d_z))
    lidar_features = np.empty((n, cfg.c_lidar))
    camera_features = np.empty((n, cfg.c_camera))
    for i in range(n):
        yaw[i] = rng.uniform(-np.pi, np.pi)
        labels.append(OBJECT_LABELS[int(rng.integers(0, len(OBJECT_LABELS)))])
        if rng.uniform() >= cfg.static_frac:
            speed = rng.uniform(cfg.v_min, cfg.v_max)
            angle = rng.uniform(0.0, 2.0 * np.pi)
            velocity[i] = speed * np.cos(angle), speed * np.sin(angle)
        z[i] = rng.standard_normal(cfg.d_z)
        lidar_features[i] = a_l @ z[i] + cfg.sigma_f * rng.standard_normal(cfg.c_lidar)
        camera_features[i] = a_c @ z[i] + cfg.sigma_f * rng.standard_normal(cfg.c_camera)

    centers = np.array([center for center, _ in placed])
    lf, lh = _render_maps(cfg, centers, lidar_features, "lidar")
    cf, ch = _render_maps(cfg, centers, camera_features, "camera")
    return Scene(
        labels=tuple(labels),
        centers=centers,
        dims=[dims for _, dims in placed],
        yaw=yaw,
        velocity=velocity,
        z=z,
        lidar_features=lidar_features,
        camera_features=camera_features,
        camera_centers=centers,
        lidar_feat=lf,
        lidar_heat=lh,
        camera_feat=cf,
        camera_heat=ch,
        noise=NoiseSpec(),
        calibration=PlanarTransform(),
        seed=seed,
        config=cfg,
    )


def _camera_centers(
    centers: np.ndarray, velocity: np.ndarray, noise: NoiseSpec, calibration: PlanarTransform
) -> np.ndarray:
    """Camera center = rigid transform of the true center minus
    velocity * total lag.  Computing from the true state every time makes
    spatial and temporal application order-independent bitwise."""
    x, y = apply_transform(centers.T, calibration)
    return np.column_stack((x, y)) - velocity * noise.lag


def _with_noise(scene: Scene, noise: NoiseSpec, calibration: PlanarTransform) -> Scene:
    """The scene re-rendered on the camera side under a new noise state."""
    camera_centers = _camera_centers(scene.centers, scene.velocity, noise, calibration)
    cf, ch = _render_maps(scene.config, camera_centers, scene.camera_features, "camera")
    return replace(
        scene,
        camera_feat=cf,
        camera_heat=ch,
        camera_centers=camera_centers,
        noise=noise,
        calibration=calibration,
    )


def apply_spatial_noise(
    scene: Scene, sigma_t: float, sigma_r: float, rng: np.random.Generator
) -> Scene:
    """One rigid calibration perturbation for the whole scene: theta then
    tx then ty are drawn from rng.  The LiDAR side is untouched."""
    # a bad magnitude fails before any draw
    noise = replace(scene.noise, sigma_t=sigma_t, sigma_r=sigma_r)
    theta = float(rng.normal(0.0, sigma_r)) if sigma_r > 0 else 0.0
    tx = float(rng.normal(0.0, sigma_t)) if sigma_t > 0 else 0.0
    ty = float(rng.normal(0.0, sigma_t)) if sigma_t > 0 else 0.0
    if sigma_t == 0 and sigma_r == 0:
        return scene
    perturb = PlanarTransform(theta=theta, tx=tx, ty=ty)
    return _with_noise(scene, noise, perturb.compose(scene.calibration))


def apply_temporal_noise(scene: Scene, lag: float) -> Scene:
    """Sensor lag: the camera observes each object lag seconds in the past,
    so its center shifts by -velocity * lag.  Pure kinematics, no draws."""
    # the increment, not the sum: a negative lag fails even where the sum stays >= 0
    NoiseSpec(lag=lag)
    if lag == 0:
        return scene
    return _with_noise(scene, replace(scene.noise, lag=scene.noise.lag + lag), scene.calibration)


# Salt of each scene's noise stream, hash64(scene seed, NOISE_STREAM_SALT).
NOISE_STREAM_SALT = 9001


def apply_noise(scene: Scene, spec: NoiseSpec) -> Scene:
    """Spatial then temporal noise of spec, drawn from the scene's own noise
    stream, so the perturbation depends only on the scene seed and spec."""
    rng = np.random.default_rng(hash64(scene.seed, NOISE_STREAM_SALT))
    noisy = apply_spatial_noise(scene, spec.sigma_t, spec.sigma_r, rng)
    return apply_temporal_noise(noisy, spec.lag)


@dataclass(frozen=True)
class Metrics:
    recall_at_1: float
    mean_align_loss: float
    center_err_before: float
    center_err_after: float
    positive_pair_count: int
    negative_pair_count: int
    n_lidar_matched: int

    def __post_init__(self) -> None:
        if not (0.0 <= self.recall_at_1 <= 1.0):
            raise ValueError(f"recall must lie in [0, 1], got {self.recall_at_1}")
        if self.positive_pair_count < 0 or self.negative_pair_count < 0:
            raise ValueError("pair counts must be non-negative")


def assign_proposals(
    centers: list[tuple[float, float]],
    scores: list[float],
    object_centers: np.ndarray,
    dims: np.ndarray,
    radius_scale: float = 1.5,
) -> dict[int, int]:
    """`greedy_match` of proposals to objects: proposals in descending score
    order (ties -> lower index) claim their nearest unclaimed object (ties ->
    lower index) within radius_scale * the object's box diagonal, from its
    (O, 3) dims.  Returns proposal -> object, in claim order."""
    xy = np.asarray(centers, dtype=np.float64).reshape(-1, 2)
    delta = xy[:, None, :] - np.asarray(object_centers)[None, :, :]
    d = np.hypot(delta[..., 0], delta[..., 1])
    # nearest is highest gain; out of reach may not match
    gain = np.where(d <= radius_scale * np.hypot(dims[:, 0], dims[:, 1]), -d, -np.inf)
    order = np.argsort(-np.asarray(scores, dtype=np.float64), kind="stable").tolist()
    return dict(greedy_match(gain, order))


def eval_alignment(scene: Scene, out: PipelineOutput | None) -> Metrics:
    """Score an alignment run against the scene's ground truth.

    recall@1 counts a LiDAR proposal as correct when its chosen camera
    proposal maps to the same object; LiDAR proposals whose object has no
    detected camera counterpart, or with nothing chosen, count as misses.
    Center errors are measured against the object's rendered camera center:
    before uses the LiDAR proposal position (what naive fusion would use),
    after uses the chosen camera proposal position.  Empty detections give
    recall 0 with zero pair counts."""
    if out is None or out.alignment is None:
        raise NotRunError("pipeline outputs missing for this scene")

    lidar_centers = [(p.cx, p.cy) for p in out.lidar_proposals]
    camera_centers = [(p.cx, p.cy) for p in out.camera_proposals]
    cam_true = scene.camera_centers.tolist()

    lidar_to_obj = assign_proposals(
        lidar_centers, [p.score for p in out.lidar_proposals], scene.centers, scene.dims
    )
    camera_to_obj = assign_proposals(
        camera_centers, [p.score for p in out.camera_proposals], scene.camera_centers, scene.dims
    )
    obj_to_camera = {oi: pi for pi, oi in camera_to_obj.items()}
    chosen = out.alignment.chosen()

    matched = 0
    correct = 0
    err_before: list[float] = []
    err_after: list[float] = []
    # in claim order, the order in which np.mean sums the errors
    for li, oi in lidar_to_obj.items():
        matched += 1
        truth = obj_to_camera.get(oi)
        pick = chosen.get(li)
        if truth is not None and pick is not None and pick == truth:
            correct += 1
        tx, ty = cam_true[oi]
        lx, ly = lidar_centers[li]
        err_before.append(float(np.hypot(lx - tx, ly - ty)))
        if pick is not None:
            px, py = camera_centers[pick]
            err_after.append(float(np.hypot(px - tx, py - ty)))

    recall = correct / matched if matched else 0.0
    n_pos = len(out.pairs.positives) if out.pairs is not None else 0
    n_neg = sum(len(n) for n in out.pairs.negatives) if out.pairs is not None else 0
    return Metrics(
        recall_at_1=recall,
        mean_align_loss=out.mean_loss,
        center_err_before=float(np.mean(err_before)) if err_before else 0.0,
        center_err_after=float(np.mean(err_after)) if err_after else 0.0,
        positive_pair_count=n_pos,
        negative_pair_count=n_neg,
        n_lidar_matched=matched,
    )


@dataclass(frozen=True)
class _ObjectRow:
    """One object of objects.json."""

    id: int
    label: str
    center: tuple[float, float]
    dims: tuple[float, float, float]
    yaw: float
    velocity: tuple[float, float]
    z: tuple[float, ...]


@dataclass(frozen=True)
class _Objects:
    """objects.json.  from_dict checks the types, and Scene the values."""

    seed: int
    objects: tuple[_ObjectRow, ...]
    lidar_features: tuple[tuple[float, ...], ...]
    camera_features: tuple[tuple[float, ...], ...]
    config: SceneConfig


def save_scene(bundle_dir: str | Path, scene: Scene) -> None:
    """Scene bundle: four map binaries with sidecars, objects.json (with the
    full generation config), noise.json (the NoiseSpec's keys, the
    calibration's, and lag_total, which repeats lag), correspondence.json."""
    d = Path(bundle_dir)
    d.mkdir(parents=True, exist_ok=True)
    for name in _MAPS:
        save_feature_map(d / name, getattr(scene, name))
    # JSON lists in place of the tuples that from_dict reads back
    columns = (scene.centers, scene.dims, scene.yaw, scene.velocity, scene.z)
    rows = zip(scene.labels, *(a.tolist() for a in columns))
    objs = _Objects(
        seed=scene.seed,
        objects=tuple(_ObjectRow(i, *row) for i, row in enumerate(rows)),
        lidar_features=scene.lidar_features.tolist(),
        camera_features=scene.camera_features.tolist(),
        config=scene.config,
    )
    (d / "objects.json").write_text(json.dumps(to_dict(objs), indent=2))
    noise = {**to_dict(scene.noise), **to_dict(scene.calibration), "lag_total": scene.noise.lag}
    (d / "noise.json").write_text(json.dumps(noise, indent=2))
    (d / "correspondence.json").write_text(json.dumps(scene.correspondence(), indent=2))


def _load_noise(d) -> tuple[NoiseSpec, PlanarTransform]:
    """noise.json's NoiseSpec and calibration, each through from_dict, so a
    missing key takes its default; lag_total must repeat lag."""
    if not isinstance(d, dict):
        raise ConfigError("noise", f"must be an object, got {d!r}")
    calib = {k: v for k, v in d.items() if k in field_types(PlanarTransform)}
    spec = {k: v for k, v in d.items() if k not in calib and k != "lag_total"}
    noise = from_dict(NoiseSpec, spec, "noise")
    lag_total = d.get("lag_total")
    if isinstance(lag_total, bool) or lag_total != noise.lag:
        raise ConfigError("noise.lag_total", f"must repeat lag {noise.lag!r}, got {lag_total!r}")
    return noise, from_dict(PlanarTransform, calib, "noise")


def load_scene(bundle_dir: str | Path) -> Scene:
    """Rebuild a Scene, with its own generation config, from a bundle.
    from_dict reads objects.json and noise.json, so a config key the bundle
    lacks (older bundles hold five) takes its default.  Camera centers are
    derived from the true centers and noise.json, and correspondence.json
    must agree with them."""
    d = Path(bundle_dir)
    objs = from_dict(_Objects, json.loads((d / "objects.json").read_text()), "objects")
    noise, calibration = _load_noise(json.loads((d / "noise.json").read_text()))
    corr = json.loads((d / "correspondence.json").read_text())
    rows = objs.objects
    if not rows:
        raise ValueError("objects.json lists no objects")
    if [o.id for o in rows] != list(range(len(rows))):
        raise ValueError("object ids must run 0..N-1 in order")
    centers = np.array([o.center for o in rows], dtype=np.float64)
    velocity = np.array([o.velocity for o in rows], dtype=np.float64)
    with np.errstate(all="ignore"):  # Scene rejects a non-finite center or velocity
        camera_centers = _camera_centers(centers, velocity, noise, calibration)
    scene = Scene(
        labels=tuple(o.label for o in rows),
        centers=centers,
        dims=[o.dims for o in rows],
        yaw=[o.yaw for o in rows],
        velocity=velocity,
        z=[o.z for o in rows],
        lidar_features=objs.lidar_features,
        camera_features=objs.camera_features,
        camera_centers=camera_centers,
        **{name: load_feature_map(d / name) for name in _MAPS},
        noise=noise,
        calibration=calibration,
        seed=objs.seed,
        config=objs.config,
    )
    if scene.correspondence() != corr:
        raise ValueError(
            "correspondence.json must list object i's id, true center and camera center"
            " (derived from objects.json and noise.json) in row i"
        )
    return scene
