"""Inference-time instance alignment and fused-map assembly.

Each LiDAR instance is scored against the K camera instances nearest to it
(positions via the same exact `pairing.knn` used for training negatives), the
argmax neighbor is selected, and the chosen camera instance features are
written back into dedicated channels of a concatenated BEV map.  Ties in
score go to the lower neighbor rank, so results are order-stable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Literal

import numpy as np

from .config import check_fields, to_dict
from .contrastive import ZERO_NORM_EPS, ProjectionHead, ZeroVectorError
from .grid import (
    FeatureMap,
    require_same_meta,
    world_to_grid,
    write_bevf,
)
from .instance import Proposal
from .pairing import PairSet, knn


@dataclass(frozen=True)
class AlignConfig:
    """metric "cosine" is scale invariant in the RoI vectors; "dot" matches
    the raw training score."""

    k_neighbors: int = field(default=8, metadata={"ge": 1})
    metric: Literal["cosine", "dot"] = "cosine"

    def __post_init__(self) -> None:
        check_fields(self)


@dataclass(frozen=True)
class AlignEntry:
    """One LiDAR instance's verdict.  neighbor_indices are camera instance
    indices in neighbor-rank order; scores align with them.  chosen_rank is
    None when the instance had no candidates at all."""

    lidar_index: int
    neighbor_indices: tuple[int, ...]
    scores: np.ndarray
    chosen_rank: int | None

    def __post_init__(self) -> None:
        s = np.asarray(self.scores, dtype=np.float64)
        s.flags.writeable = False
        object.__setattr__(self, "scores", s)
        if s.shape != (len(self.neighbor_indices),):
            raise ValueError("scores must hold one score per neighbor")
        if self.chosen_rank is not None:
            if not (0 <= self.chosen_rank < len(self.neighbor_indices)):
                raise ValueError("chosen_rank out of range")
            best = float(np.max(s)) if s.size else None
            if best is not None and float(s[self.chosen_rank]) != best:
                raise ValueError("chosen_rank does not attain the maximum score")

    @property
    def chosen_camera_index(self) -> int | None:
        if self.chosen_rank is None:
            return None
        return self.neighbor_indices[self.chosen_rank]


@dataclass(frozen=True)
class AlignmentResult:
    entries: tuple[AlignEntry, ...]

    def chosen(self) -> dict[int, int]:
        """lidar index -> chosen camera index, skipping unmatched."""
        return {
            e.lidar_index: e.chosen_camera_index
            for e in self.entries
            if e.chosen_rank is not None
        }


@dataclass(frozen=True)
class PipelineOutput:
    """Everything one scene's run produced: detections per modality with
    their read-only (N, 5*C) RoI feature matrices (row i for proposal i),
    the contrastive pairs found on this scene, and, once the scene is
    evaluated, the alignment verdicts and their mean loss under the heads
    that did the aligning (None when no heads aligned)."""

    lidar_proposals: tuple[Proposal, ...]
    lidar_feats: np.ndarray
    camera_proposals: tuple[Proposal, ...]
    camera_feats: np.ndarray
    alignment: AlignmentResult | None = None
    pairs: PairSet | None = None
    mean_loss: float | None = None


def align_instances(
    pipe: PipelineOutput,
    heads: tuple[ProjectionHead, ProjectionHead] | None,
    cfg: AlignConfig = AlignConfig(),
) -> AlignmentResult:
    """Scene-level alignment of pipe's detections: the candidate set for each
    LiDAR instance is its k nearest camera instances by center position
    (exact rank order, distance ties -> lower camera index).  Instances with
    no camera detections at all pass through with chosen_rank=None.  Indices
    are rows of the feature matrices, i.e. proposal positions.

    heads is the (lidar, camera) head pair.  Each modality is projected once
    and all (instance, candidate) scores come from one gathered (N_L, K, D_e)
    product, so the scores equal the per-candidate oracle `oracles.align`'s
    up to float summation order.  heads=None is the no-learning baseline: it
    keeps the closest neighbor, scored by minus its squared distance."""
    n_lidar = len(pipe.lidar_proposals)
    if not (n_lidar and pipe.camera_proposals):
        return AlignmentResult(
            entries=tuple(AlignEntry(i, (), np.empty(0), None) for i in range(n_lidar))
        )
    lidar_xy = np.array([(p.cx, p.cy) for p in pipe.lidar_proposals])
    camera_xy = np.array([(p.cx, p.cy) for p in pipe.camera_proposals])
    near = knn(camera_xy, lidar_xy, cfg.k_neighbors)
    if heads is None:
        # rank order is already nearest-first; score by closeness so the
        # argmax invariant still holds
        d = camera_xy[near] - lidar_xy[:, None, :]
        scores = -(d[..., 0] ** 2 + d[..., 1] ** 2)
        chosen = np.zeros(n_lidar, dtype=np.int64)
    else:
        el = heads[0].project(pipe.lidar_feats)
        ec = heads[1].project(pipe.camera_feats)
        scores = np.einsum("ld,lkd->lk", el, ec[near])
        if cfg.metric == "cosine":
            nl = np.linalg.norm(el, axis=1)
            nc = np.linalg.norm(ec, axis=1)[near]
            if nl.min() < ZERO_NORM_EPS or nc.min() < ZERO_NORM_EPS:
                raise ZeroVectorError("cosine similarity of a zero vector")
            scores = scores / (nl[:, None] * nc)
        chosen = scores.argmax(axis=1)
    return AlignmentResult(
        entries=tuple(
            AlignEntry(i, tuple(ids), row, int(rank))
            for i, (ids, row, rank) in enumerate(zip(near.tolist(), scores, chosen))
        )
    )


@dataclass(frozen=True)
class FusedMap:
    """Concatenated BEV map: [0, C_L) lidar, [C_L, C_L+C_C) camera, the
    last C_inst = C_C channels carry written-back aligned instance
    features (zero where no instance box covers the cell)."""

    fmap: FeatureMap
    c_lidar: int
    c_camera: int

    def channel_layout(self) -> dict:
        return {
            "lidar": [0, self.c_lidar],
            "camera": [self.c_lidar, self.c_lidar + self.c_camera],
            "instance": [self.c_lidar + self.c_camera, self.fmap.channels],
        }

    def save(self, stem: str | Path) -> None:
        """The map as BEVF plus a `<stem>.json` sidecar: save_feature_map's
        meta and modality, and the channel layout."""
        write_bevf(stem, self.fmap.data)
        sidecar = {
            "meta": to_dict(self.fmap.meta),
            "modality": self.fmap.modality,
            "channel_layout": self.channel_layout(),
        }
        Path(str(stem) + ".json").write_text(json.dumps(sidecar, indent=2, sort_keys=True))


def _footprint(box, meta) -> tuple[int, int, int, int] | None:
    """Inclusive (r0, r1, c0, c1) lattice-node range covered by the box,
    clipped to the grid; None when fully outside."""
    r_lo, c_lo = world_to_grid((box.cx - box.w / 2.0, box.cy - box.h / 2.0), meta)
    r_hi, c_hi = world_to_grid((box.cx + box.w / 2.0, box.cy + box.h / 2.0), meta)
    r0 = max(int(np.ceil(r_lo)), 0)
    c0 = max(int(np.ceil(c_lo)), 0)
    r1 = min(int(np.floor(r_hi)), meta.height - 1)
    c1 = min(int(np.floor(c_hi)), meta.width - 1)
    if r0 > r1 or c0 > c1:
        return None
    return r0, r1, c0, c1


def reduce_roi_vector(vector: np.ndarray, channels: int) -> np.ndarray:
    """Average the 5 sample blocks of an RoI vector down to one block."""
    v = np.asarray(vector, dtype=np.float64)
    if v.shape[0] != 5 * channels:
        raise ValueError(f"RoI vector length {v.shape[0]} is not 5*{channels}")
    return v.reshape(5, channels).mean(axis=0)


def fuse(
    lidar_map: FeatureMap,
    camera_map: FeatureMap,
    alignment: AlignmentResult,
    lidar_proposals: list[Proposal],
    camera_feats: np.ndarray,
) -> FusedMap:
    """Channel-concatenate the dense maps and paint each aligned camera
    instance feature (its camera_feats row, 5 blocks averaged to C_C) over
    its LiDAR proposal's box footprint.  Overlaps keep the higher-score
    proposal's features; equal scores keep the lower lidar index.  The
    dense channels are copied bitwise."""
    require_same_meta(lidar_map, camera_map)
    meta = lidar_map.meta
    c_l, c_c = lidar_map.channels, camera_map.channels
    out = np.zeros((meta.height, meta.width, c_l + c_c + c_c), dtype=np.float32)
    out[:, :, :c_l] = lidar_map.data
    out[:, :, c_l : c_l + c_c] = camera_map.data

    painted = []
    for e in alignment.entries:
        if e.chosen_rank is None:
            continue
        prop = lidar_proposals[e.lidar_index]
        painted.append((prop.score, e.lidar_index, prop.box, camera_feats[e.chosen_camera_index]))
    # ascending score, descending index: the last writer for a cell is the
    # highest score, lowest index on ties
    painted.sort(key=lambda t: (t[0], -t[1]))
    inst = slice(c_l + c_c, c_l + 2 * c_c)
    for _, _, box, feat in painted:
        span = _footprint(box, meta)
        if span is None:
            continue
        r0, r1, c0, c1 = span
        vec = reduce_roi_vector(feat, c_c).astype(np.float32)
        out[r0 : r1 + 1, c0 : c1 + 1, inst] = vec
    return FusedMap(
        fmap=FeatureMap(meta=meta, data=out, modality="fused"),
        c_lidar=c_l,
        c_camera=c_c,
    )
