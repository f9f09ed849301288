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
from dataclasses import dataclass, field

import numpy as np
from scipy.ndimage import maximum_filter

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
    meta = heatmap.meta
    h, w = meta.height, meta.width
    half = kernel // 2
    found: list[tuple[float, int, int, int, int]] = []  # (-score, rm, label, r, c)
    for ch in range(heatmap.channels):
        heat = heatmap.data[:, :, ch]
        wmax = maximum_filter(heat, size=kernel, mode="constant", cval=-np.inf)
        rows, cols = np.nonzero((heat == wmax) & (heat >= score_thresh))
        for r, c in zip(rows.tolist(), cols.tolist()):
            if _wins_plateau(heat, r, c, half, h, w):
                found.append((-float(heat[r, c]), r * w + c, ch, r, c))
    found.sort()
    proposals: list[Proposal] = []
    for negscore, _, ch, r, c in found[:max_n]:
        x, y = grid_to_world((float(r), float(c)), meta)
        proposals.append(Proposal(x, y, 0.0, *default_dims, 0.0, -negscore, ch))
    return proposals


def _wins_plateau(heat: np.ndarray, r: int, c: int, half: int, h: int, w: int) -> bool:
    """True if (r, c) holds the lowest row-major index among window cells
    sharing its (window-maximal) value."""
    v = heat[r, c]
    for rr in range(max(0, r - half), min(h, r + half + 1)):
        for cc in range(max(0, c - half), min(w, c + half + 1)):
            if (rr, cc) == (r, c):
                continue
            if heat[rr, cc] == v and (rr * w + cc) < (r * w + c):
                return False
    return True


def roi_sample(fmap: FeatureMap, p: Proposal) -> RoiFeature:
    """5-point RoI feature: bilinear reads at the center and the four edge
    midpoints, clamped into the grid, concatenated [c, up, down, left, right]."""
    hw = p.width / 2.0
    hh = p.height / 2.0
    offsets = [(0.0, 0.0), (0.0, hh), (0.0, -hh), (-hw, 0.0), (hw, 0.0)]
    blocks = []
    for ox, oy in offsets:
        q = world_to_grid((p.cx + ox, p.cy + oy), fmap.meta)
        blocks.append(bilinear_sample(fmap, clamp_to_grid(q, fmap.meta)))
    return RoiFeature(
        proposal_id=-1,
        modality=fmap.modality,
        vector=np.concatenate(blocks),
        box=p.box,
    )


def extract_instances(
    fmap: FeatureMap,
    heatmap: FeatureMap,
    cfg: InstanceConfig,
) -> list[tuple[Proposal, RoiFeature]]:
    """Peaks -> proposals -> RoI features, in proposal score order."""
    require_same_meta(fmap, heatmap)
    proposals = sparse_max_pool_peaks(
        heatmap,
        kernel=cfg.kernel,
        score_thresh=cfg.score_thresh,
        max_n=cfg.max_n,
        default_dims=cfg.default_dims,
    )
    out = []
    for idx, p in enumerate(proposals):
        roi = roi_sample(fmap, p)
        out.append((p, RoiFeature(idx, roi.modality, roi.vector, roi.box)))
    return out


def proposals_to_json(proposals: list[Proposal]) -> str:
    return json.dumps([p.to_dict() for p in proposals], indent=2)


def proposals_from_json(text: str) -> list[Proposal]:
    return [Proposal.from_dict(d) for d in json.loads(text)]
