"""The instance-alignment InfoNCE loss, batched over all pairs with
closed-form gradients, and a descent trainer for the two per-modality
projection heads.

The loss for one positive pair (a, c) with negatives b_1..b_K is

    L = -s(a, c) + logsumexp_i s(a, b_i)

with s either the raw dot product (default) or cosine similarity divided by
a temperature.  The denominator holds the negatives only; a config flag adds
the positive term for the canonical variant.  All log-sum-exp evaluations
are max-shifted.  Training and scoring read a scene's `PipelineOutput` and
run one batched evaluation in two stages: `_pair_loss`, the mean loss and
its softmax terms, which `mean_pair_loss` scores with, and `_pair_grad`,
the embedding gradients, which `train_heads` runs only for the steps it
takes.  Both are checked against the per-pair reference oracles.info_nce,
with finite differences for its gradients.
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
    outputs: list[PipelineOutput],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Stack every trainable positive pair across the scenes' pipeline
    outputs.  Returns the lidar rows (P, D_L); the camera rows some pair
    references, each once (N_u, D_C); each pair's positive index into them
    (P,); a (P, K_max) negative index, padded; and the mask of real
    negatives.  Pairs with no negatives are skipped."""
    xl, cam, pos, negs = [], [], [], []
    n_u = 0
    for out in outputs:
        kept = [(i, j, n) for (i, j), n in zip(out.pairs.positives, out.pairs.negatives) if n]
        rows = sorted({j for _, j, _ in kept}.union(*(n for *_, n in kept)))
        at = {r: n_u + k for k, r in enumerate(rows)}
        xl.extend(out.lidar_feats[i] for i, _, _ in kept)
        cam.append(out.camera_feats[rows])
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
    run or scored scene.  Column 0 of idx (P, 1 + K_max) is each pair's positive row in the
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


class _Scores(NamedTuple):
    """The loss stage's result: the mean loss, the similarities s (P, 1 + K_max;
    column 0 the positive), the max-shifted softmax terms ex and their row
    sums, the embeddings a and c (unit rows, with norms na and nu, in cosine
    mode; na and nu are None in dot mode) and the rows ec of c each pair uses."""

    loss: float
    s: np.ndarray
    ex: np.ndarray
    total: np.ndarray
    a: np.ndarray
    c: np.ndarray
    ec: np.ndarray
    na: np.ndarray | None
    nu: np.ndarray | None


def _pair_loss(el: np.ndarray, eu: np.ndarray, batch: _Batch, cfg: LossConfig) -> _Scores:
    """The loss stage: the mean loss over all pairs in one batch, with the
    terms the gradient stage consumes.  el holds the lidar embeddings
    (P, D_e) and eu the unique camera embeddings (N_u, D_e)."""
    na = nu = None
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
    # np.add.reduce(x) / n is what ndarray.mean computes, without its overhead
    return _Scores(float(np.add.reduce(losses) / batch.n_pairs), s, ex, total, a, c, ec, na, nu)


def _pair_grad(sc: _Scores, batch: _Batch) -> tuple[np.ndarray, np.ndarray]:
    """The gradient stage: d mean loss / d embeddings, (dEL, dEU), from the
    loss stage's terms."""
    # d loss / d s: softmax weight, minus one on the positive.
    w = sc.ex / sc.total
    w[:, 0] -= 1.0
    w *= batch.grad_scale
    da = np.einsum("pk,pkd->pd", w, sc.ec)
    dc = np.bincount(
        batch.flat_idx, weights=np.einsum("pk,pd->pkd", w, sc.a).ravel(), minlength=batch.grad_size
    ).reshape(sc.c.shape)
    if sc.na is not None:
        da = (da - sc.a * np.einsum("pd,pd->p", sc.a, da)[:, None]) / sc.na
        dc = (dc - sc.c * np.einsum("pd,pd->p", sc.c, dc)[:, None]) / sc.nu
    return da, dc


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
    xl, xu, pos, neg, mask = _flatten_pairs([output])
    batch = _Batch.build(pos, neg, mask, len(xu), head_l.d_e, loss_cfg)
    return _pair_loss(xl @ head_l.weights, xu @ head_c.weights, batch, loss_cfg).loss


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
    xl, xu, pos, neg, mask = _flatten_pairs(outputs)
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
    sc = _pair_loss(xl @ wl, xu @ wc, batch, cfg.loss)
    for step in range(cfg.steps + 1):
        trace[step] = sc.loss
        pos_trace[step] = np.add.reduce(sc.s[:, 0]) / batch.n_pairs
        neg_trace[step] = np.add.reduce(sc.s[:, 1:] * batch.neg_valid, axis=None) / batch.n_neg
        if step == cfg.steps:
            break
        del_, deu = _pair_grad(sc, batch)
        gl, gc = xlt @ del_, xut @ deu
        eta = cfg.step_size
        while True:
            # Once eta * g underflows, the step changes no weight and its loss
            # equals the current one, so a finite loss and gradient end this.
            new_wl, new_wc = wl - eta * gl, wc - eta * gc
            proposed = _pair_loss(xl @ new_wl, xu @ new_wc, batch, cfg.loss)
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
