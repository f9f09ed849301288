"""BEV grid geometry: metric extents, coordinate mapping, planar rigid
transforms, and bilinear feature sampling.

Conventions (binding for the whole package):
  - World frame: x east, y north, meters.
  - Grid indexing is row-major with row = y, col = x.  The grid coordinate
    (row, col) corresponds to the world point
    (x_min + col * resolution, y_min + row * resolution), so integer grid
    coordinates sit on a regular lattice of sample nodes anchored at the
    extent's (x_min, y_min) corner.
  - FeatureMap data is a dense (H, W, C) float32 array, channel-last, and is
    frozen (read-only) after construction; every operation here is a pure
    function, safe for concurrent reads.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from .config import ConfigError, check_fields, from_dict, to_dict

MAGIC = b"BEVF"
HEADER_SIZE = 16


class OutOfBoundsError(ValueError):
    """Sample coordinate outside the valid bilinear square."""


class MetaMismatchError(ValueError):
    """Two maps expected to share a GridMeta do not."""


@dataclass(frozen=True)
class GridMeta:
    """Metric extent and resolution of a BEV grid.

    height/width are cached as round(extent / resolution); construction
    fails if the extent is degenerate or the derived shape is empty or infinite.
    """

    x_min: float
    x_max: float
    y_min: float
    y_max: float
    resolution: float = field(metadata={"gt": 0})

    def __post_init__(self) -> None:
        check_fields(self)
        if not (self.x_max > self.x_min and self.y_max > self.y_min):
            raise ConfigError("x_max", "extent must satisfy x_max > x_min and y_max > y_min")
        spans = (self.x_max - self.x_min, self.y_max - self.y_min)
        finite = all(math.isfinite(s / self.resolution) for s in spans)
        if not finite or self.height < 1 or self.width < 1:
            raise ConfigError("resolution", "derived grid shape is empty or infinite")

    @cached_property
    def height(self) -> int:
        return int(round((self.y_max - self.y_min) / self.resolution))

    @cached_property
    def width(self) -> int:
        return int(round((self.x_max - self.x_min) / self.resolution))


def default_meta() -> GridMeta:
    """144 x 144 grid over [-54, 54]^2 meters at 0.75 m/cell."""
    return GridMeta(-54.0, 54.0, -54.0, 54.0, 0.75)


@dataclass(frozen=True)
class FeatureMap:
    """Dense H x W x C feature grid over a metric extent.

    data is coerced to float32, validated finite, and frozen; modality is a
    free-form tag ("lidar" | "camera" | derived tags like "fused").
    """

    meta: GridMeta
    data: np.ndarray
    modality: str = "lidar"

    def __post_init__(self) -> None:
        arr = np.asarray(self.data, dtype=np.float32)
        if arr.ndim == 2:
            arr = arr[:, :, None]
        if arr.ndim != 3:
            raise ValueError(f"data must be (H, W, C), got shape {arr.shape}")
        if arr.shape[:2] != (self.meta.height, self.meta.width):
            raise ValueError(
                f"data shape {arr.shape[:2]} does not match meta "
                f"({self.meta.height}, {self.meta.width})"
            )
        if not np.isfinite(arr).all():
            raise ValueError("data contains NaN or Inf")
        arr = np.ascontiguousarray(arr)
        arr.flags.writeable = False
        object.__setattr__(self, "data", arr)

    @property
    def channels(self) -> int:
        return int(self.data.shape[2])

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.data.shape  # type: ignore[return-value]


@dataclass(frozen=True)
class PlanarTransform:
    """Rigid SE(2) motion: p' = R(theta) p + t.

    Stands in for the LiDAR-to-camera calibration in the BEV plane; the
    z/height term never enters any in-plane computation.
    """

    theta: float = 0.0
    tx: float = 0.0
    ty: float = 0.0

    def __post_init__(self) -> None:
        check_fields(self)

    def inverse(self) -> "PlanarTransform":
        c, s = math.cos(self.theta), math.sin(self.theta)
        # R^-1 = R(-theta); t^-1 = -R(-theta) t
        return PlanarTransform(
            -self.theta, -(c * self.tx + s * self.ty), -(-s * self.tx + c * self.ty)
        )

    def compose(self, other: "PlanarTransform") -> "PlanarTransform":
        """self after other: (self @ other)(p) = self(other(p))."""
        c, s = math.cos(self.theta), math.sin(self.theta)
        return PlanarTransform(
            self.theta + other.theta,
            c * other.tx - s * other.ty + self.tx,
            s * other.tx + c * other.ty + self.ty,
        )


def world_to_grid(p: tuple[float, float], meta: GridMeta) -> tuple[float, float]:
    """World point (x, y) -> fractional (row, col); out-of-extent allowed.
    p may also be a pair of coordinate arrays, mapped elementwise."""
    x, y = p
    return (y - meta.y_min) / meta.resolution, (x - meta.x_min) / meta.resolution


def grid_to_world(q: tuple[float, float], meta: GridMeta) -> tuple[float, float]:
    """Fractional (row, col) -> world (x, y); exact inverse of world_to_grid."""
    row, col = q
    return meta.x_min + col * meta.resolution, meta.y_min + row * meta.resolution


def apply_transform(p: tuple[float, float], t: PlanarTransform) -> tuple[float, float]:
    """Rigid motion of a world point: R(theta) p + t.  p may also be a pair
    of coordinate arrays, moved elementwise with the same arithmetic."""
    c, s = math.cos(t.theta), math.sin(t.theta)
    x, y = p
    return c * x - s * y + t.tx, s * x + c * y + t.ty


def bilinear_sample(fmap: FeatureMap, q: tuple[float, float]) -> np.ndarray:
    """Bilinear blend of the 4 cells around fractional (row, col).

    q must lie in [0, H-1] x [0, W-1]; integer coordinates return the cell
    vector exactly.  Returns float64 length-C vector.
    """
    row, col = q
    h, w = fmap.data.shape[:2]
    if not (0.0 <= row <= h - 1 and 0.0 <= col <= w - 1):
        raise OutOfBoundsError(f"sample point ({row}, {col}) outside [0,{h - 1}]x[0,{w - 1}]")
    r0 = min(int(row), h - 2) if h > 1 else 0  # int() floors, as row >= 0
    c0 = min(int(col), w - 2) if w > 1 else 0
    fr = row - r0
    fc = col - c0
    # Upcast only the blended (at most 2x2xC) neighbourhood: upcasting the
    # float32 map itself would copy all of it on every call.
    d = fmap.data[r0 : r0 + 2, c0 : c0 + 2].astype(np.float64)
    if h == 1 and w == 1:
        return d[0, 0]
    if h == 1:
        return (1.0 - fc) * d[0, 0] + fc * d[0, 1]
    if w == 1:
        return (1.0 - fr) * d[0, 0] + fr * d[1, 0]
    return (
        (1.0 - fr) * (1.0 - fc) * d[0, 0]
        + (1.0 - fr) * fc * d[0, 1]
        + fr * (1.0 - fc) * d[1, 0]
        + fr * fc * d[1, 1]
    )


def clamp_to_grid(q: tuple, meta: GridMeta) -> tuple[np.ndarray, ...]:
    """Clamp fractional (row, col), floats or arrays, into the valid bilinear
    square: min(max(v, 0.0), top), elementwise."""
    tops = (float(meta.height - 1), float(meta.width - 1))
    return tuple(np.where(v < 0.0, 0.0, np.where(v > t, t, v)) for v, t in zip(q, tops))


def require_same_meta(a: FeatureMap, b: FeatureMap) -> None:
    if a.meta != b.meta:
        raise MetaMismatchError(f"grid metas differ: {a.meta} vs {b.meta}")


# ----------------------------
# Binary container ("BEVF"): 16-byte header (magic, u32-LE H, W, C),
# then H*W*C little-endian float32, row-major, channel-last.
# ----------------------------

def write_bevf(path: str | Path, array: np.ndarray) -> None:
    """Write a raw (H, W, C) float32 array in the BEVF container.

    A C-contiguous float32 array is written from its own buffer, uncopied."""
    arr = np.ascontiguousarray(array, dtype="<f4")
    if arr.ndim == 2:
        arr = arr[:, :, None]
    if arr.ndim != 3:
        raise ValueError(f"expected (H, W, C) array, got shape {arr.shape}")
    h, w, c = arr.shape
    with open(path, "wb") as f:
        f.write(MAGIC + struct.pack("<III", h, w, c))
        f.write(arr)


def read_bevf(path: str | Path) -> np.ndarray:
    """Read a BEVF container back into an (H, W, C) float32 array.

    The payload is read straight into the returned array, and its size is
    checked against the header before anything is allocated."""
    with open(path, "rb") as f:
        header = f.read(HEADER_SIZE)
        if len(header) != HEADER_SIZE or header[:4] != MAGIC:
            raise ValueError(f"{path}: not a BEVF container")
        h, w, c = struct.unpack("<III", header[4:])
        expected = h * w * c * 4
        payload = os.fstat(f.fileno()).st_size - HEADER_SIZE
        if payload == expected:
            arr = np.empty((h, w, c), dtype="<f4")
            payload = f.readinto(arr)
    if payload != expected:
        raise ValueError(f"{path}: payload is {payload} bytes, expected {expected}")
    # a no-op on little-endian hosts
    return arr.astype(np.float32, copy=False)


@dataclass(frozen=True)
class _Sidecar:
    """A map's `<path>.json`: its grid and modality."""

    meta: GridMeta
    modality: str


def save_feature_map(path: str | Path, fmap: FeatureMap) -> None:
    """Write map binary plus a `<path>.json` sidecar with meta and modality."""
    path = Path(path)
    write_bevf(path, fmap.data)
    with open(path.with_name(path.name + ".json"), "w") as f:
        json.dump(to_dict(_Sidecar(fmap.meta, fmap.modality)), f, indent=2)
        f.write("\n")


def load_feature_map(path: str | Path) -> FeatureMap:
    """A map saved by save_feature_map or FusedMap.save; from_dict reads the
    sidecar, whose channel_layout (a fused map's) is ignored."""
    path = Path(path)
    data = read_bevf(path)
    with open(path.with_name(path.name + ".json")) as f:
        sidecar = json.load(f)
    if isinstance(sidecar, dict):
        sidecar.pop("channel_layout", None)
    side = from_dict(_Sidecar, sidecar, "sidecar")
    return FeatureMap(side.meta, data, side.modality)
