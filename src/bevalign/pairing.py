"""Cross-modal pair construction: IoU positives and KNN negatives.

Positive pairs match LiDAR boxes to camera boxes one-to-one by
`greedy_match` (also the ground-truth matcher of `scenesim`) over
`iou_matrix`, thresholded at tau_iou.  Negatives are the K nearest camera
instances around each positive pair's anchor, found by `knn`, an exact sort
of all squared distances: neighbors are ordered by (squared distance,
index), so any tie resolves to the lower index, matching a brute-force
distance sort.

IoU is axis-aligned throughout; proposal yaw never enters the box geometry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Literal

import numpy as np

from .config import check_fields


class EmptyInputError(ValueError):
    """A nearest-neighbor search needs at least one point."""


@dataclass(frozen=True)
class Box2D:
    """Axis-aligned BEV box: center (cx, cy) with extents w (x) and h (y)."""

    cx: float
    cy: float
    w: float
    h: float

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, (self.cx, self.cy, self.w, self.h))):
            raise ValueError(f"box values must be finite, got {self}")
        if self.w < 0 or self.h < 0:
            raise ValueError("box extents must be non-negative")


def iou_matrix(boxes_a: list[Box2D], boxes_b: list[Box2D]) -> np.ndarray:
    """IoU of every pair of axis-aligned boxes, shape (len(boxes_a),
    len(boxes_b)): in [0, 1], 0 where disjoint or degenerate, and exactly 1
    for a box with itself, since areas use the intersection's rounded
    corners.  Each entry equals `oracles.iou_scalar` bit for bit."""
    a = np.array([(x.cx, x.cy, x.w, x.h) for x in boxes_a], dtype=np.float64).reshape(-1, 4)
    b = np.array([(x.cx, x.cy, x.w, x.h) for x in boxes_b], dtype=np.float64).reshape(-1, 4)
    ax0, ax1 = a[:, 0] - a[:, 2] / 2, a[:, 0] + a[:, 2] / 2
    ay0, ay1 = a[:, 1] - a[:, 3] / 2, a[:, 1] + a[:, 3] / 2
    bx0, bx1 = b[:, 0] - b[:, 2] / 2, b[:, 0] + b[:, 2] / 2
    by0, by1 = b[:, 1] - b[:, 3] / 2, b[:, 1] + b[:, 3] / 2
    ix = np.minimum.outer(ax1, bx1) - np.maximum.outer(ax0, bx0)
    iy = np.minimum.outer(ay1, by1) - np.maximum.outer(ay0, by0)
    inter = ix * iy
    union = ((ax1 - ax0) * (ay1 - ay0))[:, None] + (bx1 - bx0) * (by1 - by0) - inter
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where((ix <= 0.0) | (iy <= 0.0) | (union <= 0.0), 0.0, inter / union)


def greedy_match(gain: np.ndarray, rows: list[int]) -> list[tuple[int, int]]:
    """One-to-one matching on the (R, C) matrix `gain`, which it consumes:
    each of `rows`, in the order given, claims the unclaimed column of
    highest gain, ties to the lower column; -inf (never NaN) marks a pair
    that may not match.  Returns the (row, column) pairs in claim order."""
    pairs: list[tuple[int, int]] = []
    if gain.shape[1] == 0:
        return pairs
    for i in rows:
        j = int(np.argmax(gain[i]))
        if gain[i, j] > -np.inf:
            pairs.append((i, j))
            gain[:, j] = -np.inf  # claimed
    return pairs


def positive_pairs(
    boxes_lidar: list[Box2D], boxes_camera: list[Box2D], cfg: PairConfig
) -> list[tuple[int, int]]:
    """Greedy one-to-one matching: for each LiDAR index in order, claim the
    still-free camera box with the highest IoU >= cfg.tau_iou (ties to the
    lower camera index).  Each camera box serves at most one LiDAR box."""
    m = iou_matrix(boxes_lidar, boxes_camera)
    gain = np.where(m >= cfg.tau_iou, m, -np.inf)
    return greedy_match(gain, np.flatnonzero((gain > -np.inf).any(axis=1)).tolist())


def knn(
    points: np.ndarray | list[tuple[float, float]],
    queries: np.ndarray | list[tuple[float, float]],
    k: int,
) -> np.ndarray:
    """Indices of the k nearest points to each query, shape (Q, min(k, N)).

    Each row is ordered by ascending squared distance; the stable sort sends
    any tie to the lower index, so a row equals a brute-force sort on
    (squared distance, index)."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError(f"points must be (N, 2), got shape {pts.shape}")
    if pts.shape[0] == 0:
        raise EmptyInputError("cannot search an empty point set")
    if not np.isfinite(pts).all():
        raise ValueError("points must be finite")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    q = np.asarray(queries, dtype=np.float64)
    if q.ndim != 2 or q.shape[1] != 2:
        raise ValueError(f"queries must be (Q, 2), got shape {q.shape}")
    d2 = (q[:, None, 0] - pts[None, :, 0]) ** 2 + (q[:, None, 1] - pts[None, :, 1]) ** 2
    return np.argsort(d2, axis=1, kind="stable")[:, :k]


@dataclass(frozen=True)
class PairConfig:
    """Knobs for pair construction.

    anchor selects where KNN negatives are centered: "camera" (the matched
    camera box, noise-free anchor) or "lidar" (the LiDAR box center).
    """

    tau_iou: float = field(default=0.1, metadata={"gt": 0, "le": 1})
    k_negatives: int = field(default=8, metadata={"ge": 1})
    anchor: Literal["camera", "lidar"] = "camera"

    def __post_init__(self) -> None:
        check_fields(self)


@dataclass(frozen=True)
class PairSet:
    """Positive index pairs and their per-pair negative camera indices.

    positives[p] = (lidar_idx, camera_idx); negatives[p] lists min(K, N-1)
    distinct camera indices, never containing positives[p][1].
    """

    positives: tuple[tuple[int, int], ...]
    negatives: tuple[tuple[int, ...], ...] = field(default=())

    def __post_init__(self) -> None:
        if len(self.negatives) not in (0, len(self.positives)):
            raise ValueError("negatives must parallel positives")
        for (_, j), negs in zip(self.positives, self.negatives):
            if j in negs:
                raise ValueError("negative list contains the paired camera index")
            if len(set(negs)) != len(negs):
                raise ValueError("negative list contains duplicates")


def build_pairs(
    boxes_lidar: list[Box2D], boxes_camera: list[Box2D], cfg: PairConfig
) -> PairSet:
    """Positive pairs by IoU plus per-pair KNN negatives over camera centers:
    the K camera indices nearest each pair's anchor (see PairConfig),
    excluding the paired camera index, ordered by ascending distance."""
    pos = positive_pairs(boxes_lidar, boxes_camera, cfg)
    if not pos:
        return PairSet(())
    centers = [(b.cx, b.cy) for b in boxes_camera]
    anchors = [
        centers[j] if cfg.anchor == "camera" else (boxes_lidar[i].cx, boxes_lidar[i].cy)
        for i, j in pos
    ]
    # one extra neighbor so dropping j still leaves K candidates when possible
    near = knn(centers, anchors, cfg.k_negatives + 1).tolist()
    negs = tuple(
        tuple(n for n in row if n != j)[: cfg.k_negatives] for (_, j), row in zip(pos, near)
    )
    return PairSet(tuple(pos), negs)
