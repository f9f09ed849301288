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
    cells inside some bump window are computed.

Noise
    Spatial miscalibration is ONE rigid planar transform per scene applied
    to the camera side; temporal lag displaces each camera center by
    -velocity * lag.  Camera centers are always recomputed from the true
    centers and the accumulated noise state, so applying spatial then
    temporal noise yields bitwise the same maps as the reverse order.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Literal

import numpy as np

from .alignfuse import PipelineOutput
from .config import ConfigError, check_fields, from_dict, to_dict
from .grid import (
    FeatureMap,
    GridMeta,
    PlanarTransform,
    apply_transform,
    default_meta,
    identity_transform,
    load_feature_map,
    save_feature_map,
    world_to_grid,
)

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
class SceneObject:
    obj_id: int
    label: str
    center: tuple[float, float]
    dims: tuple[float, float, float]
    yaw: float
    velocity: tuple[float, float]
    z: np.ndarray

    def __post_init__(self) -> None:
        if not all(d > 0 for d in self.dims):
            raise ValueError(f"object dims must be positive, got {self.dims}")
        zv = np.asarray(self.z, dtype=np.float64)
        if not np.isfinite(zv).all():
            raise ValueError("latent z contains NaN or Inf")
        zv.flags.writeable = False
        object.__setattr__(self, "z", zv)

    @property
    def diagonal(self) -> float:
        return float(np.hypot(self.dims[0], self.dims[1]))

    def to_dict(self) -> dict:
        return {
            "id": self.obj_id,
            "label": self.label,
            "center": list(self.center),
            "dims": list(self.dims),
            "yaw": self.yaw,
            "velocity": list(self.velocity),
            "z": [float(v) for v in self.z],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SceneObject":
        return cls(
            obj_id=int(d["id"]),
            label=str(d["label"]),
            center=(float(d["center"][0]), float(d["center"][1])),
            dims=tuple(float(v) for v in d["dims"]),
            yaw=float(d["yaw"]),
            velocity=(float(d["velocity"][0]), float(d["velocity"][1])),
            z=np.asarray(d["z"], dtype=np.float64),
        )


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
class AppliedNoise:
    """What actually hit the scene: requested magnitudes plus the drawn
    rigid transform and the accumulated lag."""

    spec: NoiseSpec = field(default_factory=NoiseSpec)
    transform: PlanarTransform = field(default_factory=identity_transform)
    lag_total: float = 0.0

    def to_dict(self) -> dict:
        return {
            **to_dict(self.spec),
            "theta": self.transform.theta,
            "tx": self.transform.tx,
            "ty": self.transform.ty,
            "lag_total": self.lag_total,
        }


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
        x_lo, x_hi, y_lo, y_hi = self.placement_box()
        if not all(lo <= hi and math.isfinite(hi - lo) for lo, hi in [(x_lo, x_hi), (y_lo, y_hi)]):
            raise ConfigError("margin", f"leaves no finite placement box, got {self.margin}")

    def placement_box(self) -> tuple[float, float, float, float]:
        """(x_lo, x_hi, y_lo, y_hi): the grid extent shrunk by the margin."""
        m, pad = self.meta, self.margin
        return m.x_min + pad, m.x_max - pad, m.y_min + pad, m.y_max - pad


@dataclass(frozen=True)
class Scene:
    objects: tuple[SceneObject, ...]
    lidar_features: np.ndarray
    camera_features: np.ndarray
    lidar_feat: FeatureMap
    lidar_heat: FeatureMap
    camera_feat: FeatureMap
    camera_heat: FeatureMap
    camera_centers: tuple[tuple[float, float], ...]
    noise: AppliedNoise
    seed: int
    config: SceneConfig

    @property
    def calibration(self) -> PlanarTransform:
        return self.noise.transform

    @property
    def n_objects(self) -> int:
        return len(self.objects)

    def correspondence(self) -> list[dict]:
        """Per object: true (lidar-side) center and rendered camera center."""
        return [
            {
                "object_id": obj.obj_id,
                "lidar_center": list(obj.center),
                "camera_center": list(self.camera_centers[i]),
            }
            for i, obj in enumerate(self.objects)
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
    return (meta.x_min + c * meta.resolution, meta.y_min + r * meta.resolution)


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


def _render_features(
    meta: GridMeta,
    centers: list[tuple[float, float]],
    features: np.ndarray,
    sigma: float,
    truncation: float,
    modality: str,
) -> FeatureMap:
    """Sum-composed Gaussian bumps carrying each object's feature vector.

    Only the cells inside some bump window are summed, in float64 and in
    object order, then rounded once into the float32 map: the bytes of a
    dense float64 render without its full-size buffer."""
    h, w, c = meta.height, meta.width, features.shape[1]
    out = np.zeros((h, w, c), dtype=np.float32)
    cells, values = [], []
    for center, f in zip(centers, features):
        weights, r0, c0 = _bump_weights(meta, center, sigma, truncation)
        if weights is None:
            continue
        rows = np.arange(r0, r0 + weights.shape[0])
        cols = np.arange(c0, c0 + weights.shape[1])
        cells.append((rows[:, None] * w + cols[None, :]).ravel())
        values.append((weights[:, :, None] * f[None, None, :]).reshape(-1, c))
    if cells:
        # np.add.at applies repeated indices one after another, so each
        # cell accumulates its bumps in object order
        flat, inverse = np.unique(np.concatenate(cells), return_inverse=True)
        sums = np.zeros((flat.size, c))
        np.add.at(sums, inverse, np.concatenate(values))
        out.reshape(-1, c)[flat] = sums
    return FeatureMap(meta=meta, data=out, modality=modality)


def _render_heat(
    meta: GridMeta,
    centers: list[tuple[float, float]],
    sigma: float,
    truncation: float,
    modality: str,
) -> FeatureMap:
    """Max-composed unit-peak bumps: one strict local maximum per center.

    Rounding to float32 is monotone, so the max of rounded weights equals
    the rounded max of the float64 weights."""
    out = np.zeros((meta.height, meta.width, 1), dtype=np.float32)
    for center in centers:
        weights, r0, c0 = _bump_weights(meta, center, sigma, truncation)
        if weights is None:
            continue
        view = out[r0 : r0 + weights.shape[0], c0 : c0 + weights.shape[1], 0]
        np.maximum(view, weights.astype(np.float32), out=view)
    return FeatureMap(meta=meta, data=out, modality=modality)


def _bump_weights(
    meta: GridMeta, center: tuple[float, float], sigma: float, truncation: float
) -> tuple[np.ndarray | None, int, int]:
    """Gaussian weights exp(-d^2 / 2 sigma^2) on the lattice window within
    truncation * sigma of the center; zero outside the truncation radius."""
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


def _render_maps(
    cfg: SceneConfig, centers: list[tuple[float, float]], features: np.ndarray, modality: str
) -> tuple[FeatureMap, FeatureMap]:
    """One modality's feature map and heatmap."""
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

    objects = []
    lidar_features = np.empty((cfg.n_objects, cfg.c_lidar))
    camera_features = np.empty((cfg.n_objects, cfg.c_camera))
    for i, (center, dims) in enumerate(placed):
        yaw = float(rng.uniform(-np.pi, np.pi))
        label = OBJECT_LABELS[int(rng.integers(0, len(OBJECT_LABELS)))]
        if rng.uniform() < cfg.static_frac:
            velocity = (0.0, 0.0)
        else:
            speed = rng.uniform(cfg.v_min, cfg.v_max)
            angle = rng.uniform(0.0, 2.0 * np.pi)
            velocity = (float(speed * np.cos(angle)), float(speed * np.sin(angle)))
        z = rng.standard_normal(cfg.d_z)
        lidar_features[i] = a_l @ z + cfg.sigma_f * rng.standard_normal(cfg.c_lidar)
        camera_features[i] = a_c @ z + cfg.sigma_f * rng.standard_normal(cfg.c_camera)
        objects.append(
            SceneObject(
                obj_id=i,
                label=label,
                center=center,
                dims=dims,
                yaw=yaw,
                velocity=velocity,
                z=z,
            )
        )

    centers = [o.center for o in objects]
    lf, lh = _render_maps(cfg, centers, lidar_features, "lidar")
    cf, ch = _render_maps(cfg, centers, camera_features, "camera")
    lidar_features.flags.writeable = False
    camera_features.flags.writeable = False
    return Scene(
        objects=tuple(objects),
        lidar_features=lidar_features,
        camera_features=camera_features,
        lidar_feat=lf,
        lidar_heat=lh,
        camera_feat=cf,
        camera_heat=ch,
        camera_centers=tuple(centers),
        noise=AppliedNoise(),
        seed=seed,
        config=cfg,
    )


def _camera_centers_from_state(scene: Scene, noise: AppliedNoise) -> list[tuple[float, float]]:
    """Camera center = rigid transform of the true center minus
    velocity * accumulated lag.  Computing from the true state every time
    makes spatial and temporal application order-independent bitwise."""
    out = []
    for obj in scene.objects:
        x, y = apply_transform(obj.center, noise.transform)
        out.append(
            (x - obj.velocity[0] * noise.lag_total, y - obj.velocity[1] * noise.lag_total)
        )
    return out


def _with_noise(scene: Scene, noise: AppliedNoise) -> Scene:
    camera_centers = _camera_centers_from_state(scene, noise)
    cf, ch = _render_maps(scene.config, camera_centers, scene.camera_features, "camera")
    return replace(
        scene,
        camera_feat=cf,
        camera_heat=ch,
        camera_centers=tuple(camera_centers),
        noise=noise,
    )


def apply_spatial_noise(
    scene: Scene, sigma_t: float, sigma_r: float, rng: np.random.Generator
) -> Scene:
    """One rigid calibration perturbation for the whole scene: theta then
    tx then ty are drawn from rng.  The LiDAR side is untouched."""
    if sigma_t < 0 or sigma_r < 0:
        raise ValueError("noise magnitudes must be non-negative")
    theta = float(rng.normal(0.0, sigma_r)) if sigma_r > 0 else 0.0
    tx = float(rng.normal(0.0, sigma_t)) if sigma_t > 0 else 0.0
    ty = float(rng.normal(0.0, sigma_t)) if sigma_t > 0 else 0.0
    if sigma_t == 0 and sigma_r == 0:
        return scene
    old = scene.noise
    perturb = PlanarTransform(theta=theta, tx=tx, ty=ty)
    noise = AppliedNoise(
        spec=NoiseSpec(
            sigma_t=sigma_t, sigma_r=sigma_r, lag=old.spec.lag
        ),
        transform=perturb.compose(old.transform),
        lag_total=old.lag_total,
    )
    return _with_noise(scene, noise)


def apply_temporal_noise(scene: Scene, lag: float) -> Scene:
    """Sensor lag: the camera observes each object lag seconds in the past,
    so its center shifts by -velocity * lag.  Pure kinematics, no draws."""
    if lag < 0:
        raise ValueError("lag must be non-negative")
    if lag == 0:
        return scene
    old = scene.noise
    noise = AppliedNoise(
        spec=NoiseSpec(sigma_t=old.spec.sigma_t, sigma_r=old.spec.sigma_r, lag=old.spec.lag + lag),
        transform=old.transform,
        lag_total=old.lag_total + lag,
    )
    return _with_noise(scene, noise)


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
    objects: tuple[SceneObject, ...],
    object_centers: list[tuple[float, float]],
    radius_scale: float = 1.5,
) -> dict[int, int]:
    """Greedy proposal-to-object assignment: proposals in descending score
    order (ties -> lower index) claim their nearest unclaimed object within
    radius_scale * the object's box diagonal.  Returns proposal -> object."""
    order = sorted(range(len(centers)), key=lambda i: (-scores[i], i))
    gates = [radius_scale * obj.diagonal for obj in objects]
    claimed: set[int] = set()
    out: dict[int, int] = {}
    for pi in order:
        px, py = centers[pi]
        best_obj, best_d = None, np.inf
        for oi, gate in enumerate(gates):
            if oi in claimed:
                continue
            ox, oy = object_centers[oi]
            d = float(np.hypot(px - ox, py - oy))
            if d <= gate and d < best_d:
                best_obj, best_d = oi, d
        if best_obj is not None:
            claimed.add(best_obj)
            out[pi] = best_obj
    return out


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
    true_centers = [o.center for o in scene.objects]
    cam_true = list(scene.camera_centers)

    lidar_to_obj = assign_proposals(
        lidar_centers, [p.score for p in out.lidar_proposals], scene.objects, true_centers
    )
    camera_to_obj = assign_proposals(
        camera_centers, [p.score for p in out.camera_proposals], scene.objects, cam_true
    )
    obj_to_camera = {oi: pi for pi, oi in camera_to_obj.items()}
    chosen = out.alignment.chosen()

    matched = 0
    correct = 0
    err_before: list[float] = []
    err_after: list[float] = []
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


def save_scene(bundle_dir: str | Path, scene: Scene) -> None:
    """Scene bundle: four map binaries with sidecars, objects.json (with the
    full generation config), noise.json, correspondence.json."""
    d = Path(bundle_dir)
    d.mkdir(parents=True, exist_ok=True)
    save_feature_map(d / "lidar_feat", scene.lidar_feat)
    save_feature_map(d / "lidar_heat", scene.lidar_heat)
    save_feature_map(d / "camera_feat", scene.camera_feat)
    save_feature_map(d / "camera_heat", scene.camera_heat)
    objs = {
        "seed": scene.seed,
        "objects": [o.to_dict() for o in scene.objects],
        "lidar_features": scene.lidar_features.tolist(),
        "camera_features": scene.camera_features.tolist(),
        "config": to_dict(scene.config),
    }
    (d / "objects.json").write_text(json.dumps(objs, indent=2))
    (d / "noise.json").write_text(json.dumps(scene.noise.to_dict(), indent=2))
    (d / "correspondence.json").write_text(json.dumps(scene.correspondence(), indent=2))


def load_scene(bundle_dir: str | Path, cfg: SceneConfig | None = None) -> Scene:
    """Rebuild a Scene from a bundle; rendering state comes from disk.  The
    generation config is the bundle's unless cfg is given; a config key the
    bundle lacks (older bundles hold five) takes its default."""
    d = Path(bundle_dir)
    objs = json.loads((d / "objects.json").read_text())
    noise_d = json.loads((d / "noise.json").read_text())
    corr = json.loads((d / "correspondence.json").read_text())
    if cfg is None:
        cfg = from_dict(SceneConfig, objs["config"], "config")
    noise = AppliedNoise(
        spec=NoiseSpec(
            sigma_t=float(noise_d["sigma_t"]),
            sigma_r=float(noise_d["sigma_r"]),
            lag=float(noise_d["lag"]),
        ),
        transform=PlanarTransform(
            theta=float(noise_d["theta"]), tx=float(noise_d["tx"]), ty=float(noise_d["ty"])
        ),
        lag_total=float(noise_d["lag_total"]),
    )
    lidar_features = np.asarray(objs["lidar_features"], dtype=np.float64)
    camera_features = np.asarray(objs["camera_features"], dtype=np.float64)
    lidar_features.flags.writeable = False
    camera_features.flags.writeable = False
    return Scene(
        objects=tuple(SceneObject.from_dict(o) for o in objs["objects"]),
        lidar_features=lidar_features,
        camera_features=camera_features,
        lidar_feat=load_feature_map(d / "lidar_feat"),
        lidar_heat=load_feature_map(d / "lidar_heat"),
        camera_feat=load_feature_map(d / "camera_feat"),
        camera_heat=load_feature_map(d / "camera_heat"),
        camera_centers=tuple(
            (float(c["camera_center"][0]), float(c["camera_center"][1])) for c in corr
        ),
        noise=noise,
        seed=int(objs["seed"]),
        config=cfg,
    )
