"""Instance extraction from BEV maps: NMS-free heatmap peaks and 5-point
RoI feature sampling.

A cell is a peak when it beats every other cell in its kernel window under
the lexicographic order (score, then lower row-major index), so exact score
plateaus resolve deterministically and no two returned peaks can share a
window.  RoI features sample the box center plus the four edge midpoints
[c, c_up, c_down, c_left, c_right] and concatenate the bilinear reads into
one vector of length 5*C.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .config import ConfigError, check_fields
from .grid import (
    FeatureMap,
    bilinear_sample,
    clamp_to_grid,
    grid_to_world,
    require_same_meta,
    world_to_grid,
)
from .pairing import Box2D


class InvalidKernelError(ConfigError):
    """Peak kernel must be an odd cell count >= 3."""


@dataclass(frozen=True)
class Proposal:
    """One detected instance in world units."""

    cx: float
    cy: float
    z: float
    width: float
    height: float
    length: float
    yaw: float
    score: float
    label: int

    def __post_init__(self) -> None:
        if min(self.width, self.height, self.length) <= 0:
            raise ValueError("proposal dims must be positive")
        if not 0.0 <= self.score <= 1.0:
            raise ValueError(f"score must be in [0, 1], got {self.score}")

    @property
    def box(self) -> Box2D:
        return Box2D(self.cx, self.cy, self.width, self.height)

    def to_dict(self) -> dict:
        return {
            "cx": self.cx,
            "cy": self.cy,
            "z": self.z,
            "w": self.width,
            "h": self.height,
            "l": self.length,
            "yaw": self.yaw,
            "score": self.score,
            "label": self.label,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Proposal":
        return cls(
            d["cx"], d["cy"], d["z"], d["w"], d["h"], d["l"], d["yaw"], d["score"], int(d["label"])
        )


@dataclass(frozen=True)
class RoiFeature:
    """Concatenated 5-point instance feature and its derived 2D box."""

    proposal_id: int
    modality: str
    vector: np.ndarray
    box: Box2D

    def __post_init__(self) -> None:
        vec = np.asarray(self.vector, dtype=np.float64)
        if vec.ndim != 1 or vec.size % 5 != 0:
            raise ValueError(f"vector must be flat with length 5*C, got shape {vec.shape}")
        if not np.isfinite(vec).all():
            raise ValueError("vector contains NaN or Inf")
        vec.flags.writeable = False
        object.__setattr__(self, "vector", vec)

    @property
    def center(self) -> tuple[float, float]:
        return self.box.cx, self.box.cy


@dataclass(frozen=True)
class InstanceConfig:
    kernel: int = 3
    score_thresh: float = field(default=0.1, metadata={"ge": 0, "le": 1})
    max_n: int = field(default=200, metadata={"ge": 0})
    # at most 1e100, so a box's area stays at most 1e200 and IoU stays finite
    default_dims: tuple[float, float, float] = field(
        default=(2.0, 2.0, 2.0), metadata={"gt": 0, "le": 1e100}
    )

    def __post_init__(self) -> None:
        check_fields(self)
        if self.kernel < 3 or self.kernel % 2 == 0:
            raise InvalidKernelError("kernel", f"must be odd and >= 3, got {self.kernel}")


def sparse_max_pool_peaks(
    heatmap: FeatureMap,
    kernel: int = 3,
    score_thresh: float = 0.1,
    max_n: int = 200,
    default_dims: tuple[float, float, float] = (2.0, 2.0, 2.0),
) -> list[Proposal]:
    """Local-maximum proposals from a per-class score heatmap, no NMS.

    Each heatmap channel is one class; peaks are strict window maxima under
    the plateau tie rule, kept when score >= score_thresh, sorted by score
    descending (ties to the lower row-major cell, then lower class), and
    truncated to max_n.  Every proposal has z 0, yaw 0 and the box dims
    default_dims.
    """
    if kernel < 3 or kernel % 2 == 0:
        raise InvalidKernelError("kernel", f"must be odd and >= 3, got {kernel}")
    heat = heatmap.data
    h, w, nch = heat.shape
    # A window wider than twice the grid covers it from every cell already.
    half = min(kernel // 2, max(h, w) - 1)
    # Only cells at or above the threshold are scored, against a -inf border.
    padded = np.full((h + 2 * half, w + 2 * half, nch), -np.inf, dtype=np.float32)
    padded[half : half + h, half : half + w] = heat
    flat = padded.reshape(-1)
    idx = np.flatnonzero(heat >= score_thresh)
    cell, ch = divmod(idx, nch)
    r, c = divmod(cell, w)
    base = ((r + half) * (w + 2 * half) + c + half) * nch + ch
    # A cell that loses its 3x3 window loses every wider one, so the full
    # window is tested only on the 3x3 winners.
    for reach in sorted({min(half, 1), half}):
        # Row-major window offsets: the centre, at `mid`, must be strictly
        # above every earlier cell and at least every later one.
        dr, dc = divmod(np.arange((2 * reach + 1) ** 2), 2 * reach + 1)
        offsets = ((dr - reach) * (w + 2 * half) + dc - reach) * nch
        mid = offsets.size // 2
        wins = np.empty(base.size, dtype=bool)
        step = max(1, (1 << 16) // offsets.size)  # bounds the gather's memory
        for lo in range(0, base.size, step):
            win = flat[base[lo : lo + step, None] + offsets]
            v = win[:, mid : mid + 1]
            wins[lo : lo + step] = (win[:, :mid] < v).all(axis=1) & (win[:, mid:] <= v).all(axis=1)
        idx, base = idx[wins], base[wins]
    cell, ch = divmod(idx, nch)
    score = heat.reshape(-1)[idx]
    keep = np.lexsort((ch, cell, -score))[:max_n]
    xs, ys = grid_to_world(divmod(cell[keep], w), heatmap.meta)
    rows = zip(xs.tolist(), ys.tolist(), score[keep].tolist(), ch[keep].tolist())
    return [Proposal(x, y, 0.0, *default_dims, 0.0, s, label) for x, y, s, label in rows]


def roi_sample(fmap: FeatureMap, proposals: Sequence[Proposal]) -> list[RoiFeature]:
    """5-point RoI features, one per proposal and numbered by position:
    bilinear reads at the center and the four edge midpoints, clamped into
    the grid, concatenated [c, up, down, left, right]."""
    cx, cy, hw, hh = np.array(
        [(p.cx, p.cy, p.width / 2.0, p.height / 2.0) for p in proposals], dtype=np.float64
    ).reshape(-1, 4).T
    zero = np.zeros_like(cx)
    xs = cx[:, None] + np.stack([zero, zero, zero, -hw, hw], axis=1)
    ys = cy[:, None] + np.stack([zero, hh, -hh, zero, zero], axis=1)
    rows, cols = clamp_to_grid(world_to_grid((xs, ys), fmap.meta), fmap.meta)
    feats = []
    for i, (p, pr, pc) in enumerate(zip(proposals, rows.tolist(), cols.tolist())):
        vector = np.concatenate([bilinear_sample(fmap, q) for q in zip(pr, pc)])
        feats.append(RoiFeature(i, fmap.modality, vector, p.box))
    return feats


def extract_instances(
    fmap: FeatureMap,
    heatmap: FeatureMap,
    cfg: InstanceConfig,
) -> list[tuple[Proposal, RoiFeature]]:
    """Peaks -> proposals -> RoI features, in proposal score order."""
    require_same_meta(fmap, heatmap)
    proposals = sparse_max_pool_peaks(
        heatmap, cfg.kernel, cfg.score_thresh, cfg.max_n, cfg.default_dims
    )
    return list(zip(proposals, roi_sample(fmap, proposals)))


def proposals_to_json(proposals: list[Proposal]) -> str:
    return json.dumps([p.to_dict() for p in proposals], indent=2)


def proposals_from_json(text: str) -> list[Proposal]:
    return [Proposal.from_dict(d) for d in json.loads(text)]
