"""The instance-alignment InfoNCE loss, batched over all pairs with
closed-form gradients, and a descent trainer for the two per-modality
projection heads.

The loss for one positive pair (a, c) with negatives b_1..b_K is

    L = -s(a, c) + logsumexp_i s(a, b_i)

with s either the raw dot product (default) or cosine similarity divided by
a temperature.  The denominator holds the negatives only; a config flag adds
the positive term for the canonical variant.  All log-sum-exp evaluations
are max-shifted.  `_pair_eval` is the one implementation the pipeline runs:
training descends it and evaluation (experiment.mean_pair_loss) scores with
it.  The per-pair reference it is checked against, with finite differences
for its gradients, is oracles.info_nce.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Literal

import numpy as np

from .config import check_fields
from .pairing import PairSet

ZERO_NORM_EPS = 1e-12


class ZeroVectorError(ValueError):
    """Cosine similarity is undefined for (near-)zero vectors."""


class NoPairsError(ValueError):
    """Training requires at least one positive pair with a negative."""


@dataclass(frozen=True)
class LossConfig:
    """mode "dot" scores with raw dot products; "cosine" with
    cos(a, b) / temperature.  include_positive_in_denominator switches to
    the canonical softmax over {positive} + negatives."""

    mode: Literal["dot", "cosine"] = "dot"
    temperature: float = field(default=0.07, metadata={"gt": 0})
    include_positive_in_denominator: bool = False

    def __post_init__(self) -> None:
        check_fields(self)


@dataclass(frozen=True)
class ProjectionHead:
    """Linear map from instance-feature space (D_in) to the shared
    embedding space (D_e): e = x @ weights."""

    weights: np.ndarray

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=np.float64)
        if w.ndim != 2 or w.shape[1] < 1:
            raise ValueError(f"weights must be (D_in, D_e), got shape {w.shape}")
        if not np.isfinite(w).all():
            raise ValueError("weights contain NaN or Inf")
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)

    @property
    def d_in(self) -> int:
        return int(self.weights.shape[0])

    @property
    def d_e(self) -> int:
        return int(self.weights.shape[1])

    def project(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(x, dtype=np.float64) @ self.weights


def init_heads(
    d_in: int, d_e: int, seed: int, d_in_camera: int | None = None
) -> tuple[ProjectionHead, ProjectionHead]:
    """Seeded uniform init scaled by 1/sqrt(input width); lidar head drawn
    first.  The camera head's input width defaults to the lidar one's."""
    rng = np.random.default_rng(seed)
    widths = (d_in, d_in if d_in_camera is None else d_in_camera)
    wl, wc = (rng.uniform(-1.0, 1.0, size=(w, d_e)) * (1.0 / np.sqrt(w)) for w in widths)
    return ProjectionHead(wl), ProjectionHead(wc)


@dataclass(frozen=True)
class ScenePairs:
    """One scene's training material: per-instance feature vectors for both
    modalities plus the index pairs over them."""

    lidar_vectors: np.ndarray
    camera_vectors: np.ndarray
    pairs: PairSet

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "lidar_vectors", np.asarray(self.lidar_vectors, dtype=np.float64)
        )
        object.__setattr__(
            self, "camera_vectors", np.asarray(self.camera_vectors, dtype=np.float64)
        )


@dataclass(frozen=True)
class TrainConfig:
    steps: int = field(default=500, metadata={"ge": 0})
    step_size: float = field(default=0.05, metadata={"gt": 0})
    d_e: int = field(default=16, metadata={"ge": 1})
    # numpy's default_rng takes no negative seed
    seed: int = field(default=0, metadata={"ge": 0})
    loss: LossConfig = field(default_factory=LossConfig)

    def __post_init__(self) -> None:
        check_fields(self)


@dataclass(frozen=True)
class TrainResult:
    head_lidar: ProjectionHead
    head_camera: ProjectionHead
    loss_trace: np.ndarray
    pos_sim_trace: np.ndarray
    neg_sim_trace: np.ndarray
    mean_sq_dist_before: float
    mean_sq_dist_after: float
    n_pairs: int


def _flatten_pairs(
    scenes: list[ScenePairs],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Stack every trainable positive pair across scenes.  Returns the lidar
    rows (P, D_L); the camera rows some pair references, each once
    (N_u, D_C); each pair's positive index into them (P,); a (P, K_max)
    negative index, padded; and the mask of real negatives.  Pairs with no
    negatives are skipped."""
    xl, cam, pos, negs = [], [], [], []
    n_u = 0
    for sp in scenes:
        kept = [(i, j, n) for (i, j), n in zip(sp.pairs.positives, sp.pairs.negatives) if n]
        rows = sorted({j for _, j, _ in kept}.union(*(n for *_, n in kept)))
        at = {r: n_u + k for k, r in enumerate(rows)}
        xl.extend(sp.lidar_vectors[i] for i, _, _ in kept)
        cam.append(sp.camera_vectors[rows])
        pos.extend(at[j] for _, j, _ in kept)
        negs.extend([at[b] for b in n] for *_, n in kept)
        n_u += len(rows)
    if not xl:
        raise NoPairsError("no positive pair with at least one negative")
    k_max = max(map(len, negs))
    neg = np.asarray([n + [0] * (k_max - len(n)) for n in negs])
    mask = np.asarray([[True] * len(n) + [False] * (k_max - len(n)) for n in negs])
    return np.asarray(xl, dtype=np.float64), np.concatenate(cam), np.asarray(pos), neg, mask


@dataclass(frozen=True)
class _Batch:
    """The per-call constants of the batched loss, built once per training
    run.  Column 0 of idx (P, 1 + K_max) is each pair's positive row in the
    unique camera embeddings, the rest its negatives; flat_idx holds idx's
    row * D_e + col offsets for the gradient scatter.  valid marks the
    logits in the softmax (padding and, unless the positive is in the
    denominator, column 0 are off) and is None when all of them are;
    neg_valid marks the real negatives.  scale is the logit scale (None for
    raw dot products) and grad_scale the d mean / d loss factor scale / P."""

    idx: np.ndarray
    flat_idx: np.ndarray
    valid: np.ndarray | None
    neg_valid: np.ndarray
    n_pairs: int
    n_neg: int
    grad_size: int
    scale: float | None
    grad_scale: float

    @classmethod
    def build(
        cls, pos: np.ndarray, neg: np.ndarray, mask: np.ndarray, n_u: int, d_e: int, cfg: LossConfig
    ) -> "_Batch":
        p = len(pos)
        idx = np.concatenate([pos[:, None], neg], axis=1)
        valid = np.concatenate([np.full((p, 1), cfg.include_positive_in_denominator), mask], axis=1)
        scale = 1.0 / cfg.temperature if cfg.mode == "cosine" else None
        return cls(
            idx=idx,
            flat_idx=(idx[:, :, None] * d_e + np.arange(d_e)).ravel(),
            valid=None if valid.all() else valid,
            neg_valid=mask,
            n_pairs=p,
            n_neg=int(mask.sum()),
            grad_size=n_u * d_e,
            scale=scale,
            grad_scale=(1.0 if scale is None else scale) / p,
        )


def _pair_eval(
    el: np.ndarray, eu: np.ndarray, batch: _Batch, cfg: LossConfig
) -> tuple[float, float, float, np.ndarray, np.ndarray]:
    """Mean loss and embedding-space gradients over all pairs in one batch.

    el holds the lidar embeddings (P, D_e) and eu the unique camera
    embeddings (N_u, D_e).  Returns (loss, pos_sim, neg_sim, dEL, dEU)."""
    if cfg.mode == "cosine":
        na = np.linalg.norm(el, axis=1)[:, None]
        nu = np.linalg.norm(eu, axis=1)[:, None]
        if na.min() < ZERO_NORM_EPS or nu.min() < ZERO_NORM_EPS:
            raise ZeroVectorError("cosine similarity of a zero vector")
        a, c = el / na, eu / nu
    else:
        a, c = el, eu
    ec = np.take(c, batch.idx, axis=0)
    s = np.einsum("pd,pkd->pk", a, ec)
    if batch.scale is not None:
        s *= batch.scale
    logits = s if batch.valid is None else np.where(batch.valid, s, -np.inf)
    m = logits.max(axis=1, keepdims=True)
    ex = np.exp(logits - m)
    total = ex.sum(axis=1, keepdims=True)
    losses = -s[:, 0] + m[:, 0] + np.log(total[:, 0])
    # d loss / d s: softmax weight, minus one on the positive.
    w = ex / total
    w[:, 0] -= 1.0
    w *= batch.grad_scale
    da = np.einsum("pk,pkd->pd", w, ec)
    dc = np.bincount(
        batch.flat_idx, weights=np.einsum("pk,pd->pkd", w, a).ravel(), minlength=batch.grad_size
    ).reshape(eu.shape)
    if cfg.mode == "cosine":
        da = (da - a * np.einsum("pd,pd->p", a, da)[:, None]) / na
        dc = (dc - c * np.einsum("pd,pd->p", c, dc)[:, None]) / nu
    # np.add.reduce(x) / n is what ndarray.mean computes, without its overhead
    return (
        float(np.add.reduce(losses) / batch.n_pairs),
        float(np.add.reduce(s[:, 0]) / batch.n_pairs),
        float(np.add.reduce(s[:, 1:] * batch.neg_valid, axis=None) / batch.n_neg),
        da,
        dc,
    )


def train_heads(scenes: list[ScenePairs], cfg: TrainConfig) -> TrainResult:
    """Full-batch gradient descent on the mean pair loss.

    Each step projects every referenced camera row once and sums its
    gradient over all pairs that use it.  A step is taken only if the loss
    after it is finite and not above the loss before it; otherwise its size
    is halved and the step tried again.  The loss trace has length
    steps + 1; entry 0 is the loss at the seeded initialization and entry t
    the loss after t updates.  Deterministic for a fixed (scenes, cfg)."""
    xl, xu, pos, neg, mask = _flatten_pairs(scenes)
    batch = _Batch.build(pos, neg, mask, len(xu), cfg.d_e, cfg.loss)
    head_l, head_c = init_heads(xl.shape[1], cfg.d_e, cfg.seed, xu.shape[1])
    wl = head_l.weights.copy()
    wc = head_c.weights.copy()

    def sq_dists(wl_: np.ndarray, wc_: np.ndarray) -> float:
        d = xl @ wl_ - (xu @ wc_)[pos]
        return float(np.mean(np.einsum("pd,pd->p", d, d)))

    dist_before = sq_dists(wl, wc)
    trace = np.empty(cfg.steps + 1)
    pos_trace = np.empty(cfg.steps + 1)
    neg_trace = np.empty(cfg.steps + 1)
    xlt, xut = xl.T, xu.T
    loss, pos_sim, neg_sim, del_, deu = _pair_eval(xl @ wl, xu @ wc, batch, cfg.loss)
    for step in range(cfg.steps + 1):
        trace[step], pos_trace[step], neg_trace[step] = loss, pos_sim, neg_sim
        if step == cfg.steps:
            break
        gl, gc = xlt @ del_, xut @ deu
        eta = cfg.step_size
        while True:
            # Once eta * g underflows, the step changes no weight and its loss
            # equals the current one, so a finite loss and gradient end this.
            new_wl, new_wc = wl - eta * gl, wc - eta * gc
            proposed = _pair_eval(xl @ new_wl, xu @ new_wc, batch, cfg.loss)
            if math.isfinite(proposed[0]) and proposed[0] <= loss:
                break
            if not (math.isfinite(loss) and np.isfinite(gl).all() and np.isfinite(gc).all()):
                raise FloatingPointError(f"training step {step}: loss or gradient is not finite")
            eta *= 0.5
        wl, wc = new_wl, new_wc
        loss, pos_sim, neg_sim, del_, deu = proposed

    return TrainResult(
        head_lidar=ProjectionHead(wl),
        head_camera=ProjectionHead(wc),
        loss_trace=trace,
        pos_sim_trace=pos_trace,
        neg_sim_trace=neg_trace,
        mean_sq_dist_before=dist_before,
        mean_sq_dist_after=sq_dists(wl, wc),
        n_pairs=int(xl.shape[0]),
    )


def write_loss_trace_csv(path: str | Path, result: TrainResult) -> None:
    """CSV trace: step, mean_loss, mean_pos_sim, mean_neg_sim."""
    rows = zip(
        result.loss_trace.tolist(), result.pos_sim_trace.tolist(), result.neg_sim_trace.tolist()
    )
    lines = [f"{step},{loss!r},{pos!r},{neg!r}\n" for step, (loss, pos, neg) in enumerate(rows)]
    with open(path, "w") as f:
        f.write("step,mean_loss,mean_pos_sim,mean_neg_sim\n" + "".join(lines))
