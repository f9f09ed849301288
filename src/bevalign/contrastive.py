"""The instance-alignment InfoNCE loss, evaluated on per-scene blocks with
closed-form gradients, and a descent trainer for the two per-modality
projection heads.

The loss for one positive pair (a, c) with negatives b_1..b_K is the
InfoNCE of van den Oord et al.

    L = -s(a, c) + logsumexp(s(a, c), s(a, b_1), ..., s(a, b_K))

with s either the raw dot product (default) or cosine similarity divided by
a temperature.  Its denominator holds the positive, so L >= 0; a config flag
drops that term, leaving a negatives-only form that is unbounded below.  All
log-sum-exp evaluations are max-shifted.  Training and scoring lay each
scene's pairs out once in blocks and run one batched evaluation in two
stages: `_pair_loss` gathers each pair's logits from one matmul of all
same-scene similarities, which `mean_pair_loss` scores with, and
`_pair_grad` scatters their softmax weights back into the block for matmul
gradients, which `train_heads` runs only for the steps it takes.  Both are
checked against the per-pair reference oracles.info_nce, with finite
differences for its gradients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Literal, NamedTuple

import numpy as np

from .config import check_fields

if TYPE_CHECKING:  # alignfuse imports this module
    from .alignfuse import PipelineOutput

ZERO_NORM_EPS = 1e-12


class ZeroVectorError(ValueError):
    """Cosine similarity is undefined for (near-)zero vectors."""


class NoPairsError(ValueError):
    """Training requires at least one positive pair with a negative."""


@dataclass(frozen=True)
class LossConfig:
    """mode "dot" scores with raw dot products; "cosine" with
    cos(a, b) / temperature.  include_positive_in_denominator keeps the
    canonical softmax over {positive} + negatives; False puts the negatives
    only in the denominator."""

    mode: Literal["dot", "cosine"] = "dot"
    temperature: float = field(default=0.07, metadata={"gt": 0})
    include_positive_in_denominator: bool = True

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


@dataclass(frozen=True)
class _Batch:
    """A training run's or scored scene's per-scene block layout, built once.
    Of the B scenes with a pair that has a negative, scene b owns lidar rows
    b * P_max + r of xl, one per such pair, and camera rows b * U_max + c of
    xu, one per row its pairs reference; the rest is zero padding, on which
    pad_l (B, P_max, 1) and pad_u (B, U_max, 1) are 1.0.  idx (P, 1 + K_max)
    indexes the flattened (B, P_max, U_max) similarity block: column 0 is
    each pair's positive, the rest its negatives, padded with the positive.
    valid marks the logits in the softmax (not padding, nor column 0 unless
    the positive is in the denominator) and is None when all are; picks
    (2, P * (1 + K_max)) weighs the positives, then the real negatives, by
    one over their count.  rows and pos are each pair's lidar and positive
    camera row.  scale is the logit scale (None for raw dot products) and
    grad_scale the d mean / d loss factor scale / P."""

    xl: np.ndarray
    xu: np.ndarray
    block: tuple[int, int, int]
    pad_l: np.ndarray
    pad_u: np.ndarray
    idx: np.ndarray
    valid: np.ndarray | None
    picks: np.ndarray
    rows: np.ndarray
    pos: np.ndarray
    scale: float | None
    grad_scale: float

    @classmethod
    def build(cls, outputs: list[PipelineOutput], cfg: LossConfig) -> "_Batch":
        """Lay out the pairs that have a negative; the others are skipped."""
        pairs = [zip(o.pairs.positives, o.pairs.negatives) for o in outputs]
        kept = [[(i, j, n) for (i, j), n in ps if n] for ps in pairs]
        used = [sorted({j for _, j, _ in k}.union(*(n for *_, n in k))) for k in kept]
        scenes = [(o, k, u) for o, k, u in zip(outputs, kept, used) if k]
        if not scenes:
            raise NoPairsError("no positive pair with at least one negative")
        n_b, p_max, u_max = len(scenes), max(map(len, kept)), max(map(len, used))
        k_max = max(len(n) for k in kept for *_, n in k)
        xl = np.zeros((n_b * p_max, scenes[0][0].lidar_feats.shape[1]))
        xu = np.zeros((n_b * u_max, scenes[0][0].camera_feats.shape[1]))
        pad_l, pad_u = np.ones((n_b, p_max, 1)), np.ones((n_b, u_max, 1))
        rows, pos, cols = [], [], []
        for b, (out, k, u) in enumerate(scenes):
            at = {c: col for col, c in enumerate(u)}
            xl[b * p_max : b * p_max + len(k)] = out.lidar_feats[[i for i, _, _ in k]]
            xu[b * u_max : b * u_max + len(u)] = out.camera_feats[u]
            pad_l[b, : len(k)] = pad_u[b, : len(u)] = 0.0
            rows.extend(range(b * p_max, b * p_max + len(k)))
            pos.extend(b * u_max + at[j] for _, j, _ in k)
            cols.extend([at[j], *map(at.get, n)] + [at[j]] * (k_max - len(n)) for _, j, n in k)
        rows, cols, p = np.asarray(rows), np.asarray(cols), len(rows)
        mask = cols[:, 1:] != cols[:, :1]  # a PairSet never lists the positive as a negative
        valid = np.concatenate([np.full((p, 1), cfg.include_positive_in_denominator), mask], axis=1)
        picks = np.zeros((2, p, 1 + k_max))
        picks[0, :, 0], picks[1, :, 1:] = 1.0 / p, mask / mask.sum()
        scale = 1.0 / cfg.temperature if cfg.mode == "cosine" else None
        return cls(
            xl=xl,
            xu=xu,
            block=(n_b, p_max, u_max),
            pad_l=pad_l,
            pad_u=pad_u,
            idx=rows[:, None] * u_max + cols,
            valid=None if valid.all() else valid,
            picks=picks.reshape(2, -1),
            rows=rows,
            pos=np.asarray(pos),
            scale=scale,
            grad_scale=(1.0 if scale is None else scale) / p,
        )


class _Scores(NamedTuple):
    """The loss stage's result: the mean loss, the similarities s (P, 1 + K_max;
    column 0 the positive) gathered from the block and sims, their mean
    positive and mean real negative, the max-shifted softmax terms ex and
    their row sums, and the embedding blocks a and c (unit rows, with norms
    na and nu, in cosine mode; na and nu are None in dot mode)."""

    loss: float
    s: np.ndarray
    sims: np.ndarray
    ex: np.ndarray
    total: np.ndarray
    a: np.ndarray
    c: np.ndarray
    na: np.ndarray | None
    nu: np.ndarray | None


# Overflowing similarities make a non-finite loss, which the callers act on:
# train_heads raises FloatingPointError, mean_pair_loss reports it.
@np.errstate(over="ignore", invalid="ignore")
def _pair_loss(wl: np.ndarray, wc: np.ndarray, batch: _Batch, cfg: LossConfig) -> _Scores:
    """The loss stage: the mean loss over all pairs in one batch under head
    weights wl and wc, with the terms the gradient stage consumes."""
    n_b, p_max, u_max = batch.block
    el = (batch.xl @ wl).reshape(n_b, p_max, -1)
    eu = (batch.xu @ wc).reshape(n_b, u_max, -1)
    na = nu = None
    if cfg.mode == "cosine":
        # Padding rows read norm 1, so they pass the zero check and stay zero.
        na = np.linalg.norm(el, axis=2, keepdims=True) + batch.pad_l
        nu = np.linalg.norm(eu, axis=2, keepdims=True) + batch.pad_u
        if na.min() < ZERO_NORM_EPS or nu.min() < ZERO_NORM_EPS:
            raise ZeroVectorError("cosine similarity of a zero vector")
        a, c = el / na, eu / nu
    else:
        a, c = el, eu
    s = (a @ c.transpose(0, 2, 1)).take(batch.idx)
    if batch.scale is not None:
        s *= batch.scale
    logits = s if batch.valid is None else np.where(batch.valid, s, -np.inf)
    m = np.maximum.reduce(logits, axis=1, keepdims=True)
    ex = np.exp(logits - m)
    total = np.add.reduce(ex, axis=1, keepdims=True)
    losses = -s[:, 0] + m[:, 0] + np.log(total[:, 0])
    # np.add.reduce(x) / n is what ndarray.mean computes, without its overhead
    loss = float(np.add.reduce(losses) / len(batch.rows))
    return _Scores(loss, s, batch.picks @ s.ravel(), ex, total, a, c, na, nu)


def _pair_grad(sc: _Scores, batch: _Batch) -> tuple[np.ndarray, np.ndarray]:
    """The gradient stage: d mean loss / d head weights, (dWL, dWC), from
    the loss stage's terms."""
    # d loss / d s: softmax weight, minus one on the positive.
    w = sc.ex / sc.total
    w[:, 0] -= 1.0
    w *= batch.grad_scale
    g = np.bincount(batch.idx.ravel(), weights=w.ravel(), minlength=math.prod(batch.block))
    g = g.reshape(batch.block)
    da, dc = g @ sc.c, g.transpose(0, 2, 1) @ sc.a
    if sc.na is not None:
        da = (da - sc.a * np.einsum("bpd,bpd->bp", sc.a, da)[..., None]) / sc.na
        dc = (dc - sc.c * np.einsum("bud,bud->bu", sc.c, dc)[..., None]) / sc.nu
    return batch.xl.T @ da.reshape(len(batch.xl), -1), batch.xu.T @ dc.reshape(len(batch.xu), -1)


def mean_pair_loss(
    output: PipelineOutput,
    head_l: ProjectionHead,
    head_c: ProjectionHead,
    loss_cfg: LossConfig,
) -> float:
    """Mean contrastive loss over a scene's positive pairs under the given
    heads: the loss stage of the evaluation that training descends.  0.0
    when the scene yielded no pair with a negative."""
    if output.pairs is None or not any(output.pairs.negatives):
        return 0.0
    batch = _Batch.build([output], loss_cfg)
    return _pair_loss(head_l.weights, head_c.weights, batch, loss_cfg).loss


def train_heads(outputs: list[PipelineOutput], cfg: TrainConfig) -> TrainResult:
    """Full-batch gradient descent on the mean pair loss over the pairs of
    the given scene pipeline outputs, each of which must carry pairs.

    Each step projects every referenced camera row once and sums its
    gradient over all pairs that use it.  A step is taken only if the loss
    after it is finite and not above the loss before it; otherwise its size
    is halved and the step tried again.  Gradients are computed only at the
    weights a step was taken to.  The loss trace has length steps + 1;
    entry 0 is the loss at the seeded initialization and entry t the loss
    after t updates.  Deterministic for a fixed (outputs, cfg)."""
    batch = _Batch.build(outputs, cfg.loss)
    head_l, head_c = init_heads(batch.xl.shape[1], cfg.d_e, cfg.seed, batch.xu.shape[1])
    wl = head_l.weights.copy()
    wc = head_c.weights.copy()

    def sq_dists(wl_: np.ndarray, wc_: np.ndarray) -> float:
        d = batch.xl[batch.rows] @ wl_ - batch.xu[batch.pos] @ wc_
        return float(np.mean(np.einsum("pd,pd->p", d, d)))

    dist_before = sq_dists(wl, wc)
    trace = np.empty(cfg.steps + 1)
    sims = np.empty((2, cfg.steps + 1))  # mean positive, mean real negative similarity
    sc = _pair_loss(wl, wc, batch, cfg.loss)
    for step in range(cfg.steps + 1):
        trace[step], sims[:, step] = sc.loss, sc.sims
        if step == cfg.steps:
            break
        gl, gc = _pair_grad(sc, batch)
        eta = cfg.step_size
        while True:
            # Once eta * g underflows, the step changes no weight and its loss
            # equals the current one, so a finite loss and gradient end this.
            new_wl, new_wc = wl - eta * gl, wc - eta * gc
            proposed = _pair_loss(new_wl, new_wc, batch, cfg.loss)
            if math.isfinite(proposed.loss) and proposed.loss <= sc.loss:
                break
            if not (math.isfinite(sc.loss) and np.isfinite(gl).all() and np.isfinite(gc).all()):
                raise FloatingPointError(f"training step {step}: loss or gradient is not finite")
            eta *= 0.5
        wl, wc = new_wl, new_wc
        sc = proposed

    return TrainResult(
        head_lidar=ProjectionHead(wl),
        head_camera=ProjectionHead(wc),
        loss_trace=trace,
        pos_sim_trace=sims[0],
        neg_sim_trace=sims[1],
        mean_sq_dist_before=dist_before,
        mean_sq_dist_after=sq_dists(wl, wc),
        n_pairs=len(batch.rows),
    )


def write_loss_trace_csv(path: str | Path, result: TrainResult) -> None:
    """CSV trace: step, mean_loss, mean_pos_sim, mean_neg_sim."""
    rows = zip(
        result.loss_trace.tolist(), result.pos_sim_trace.tolist(), result.neg_sim_trace.tolist()
    )
    lines = [f"{step},{loss!r},{pos!r},{neg!r}\n" for step, (loss, pos, neg) in enumerate(rows)]
    with open(path, "w") as f:
        f.write("step,mean_loss,mean_pos_sim,mean_neg_sim\n" + "".join(lines))
