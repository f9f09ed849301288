"""Independent reference implementations used to cross-check the fast
paths: exact rational grid math, arbitrary-precision transforms and loss
values, the per-pair InfoNCE loss with closed-form gradients, explicit
4-term bilinear interpolation, exhaustive peak scanning, scalar IoU and
greedy IoU matching, brute-force KNN, per-candidate alignment scores,
rasterized IoU, and central finite differences for the loss gradients.

Everything here favors obviousness over speed.  None of it is used by the
pipeline itself; the CLI exposes these as pass/fail check commands."""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp
import numpy as np

from .alignfuse import AlignConfig, AlignEntry
from .contrastive import ZERO_NORM_EPS, LossConfig, ProjectionHead, ZeroVectorError
from .grid import FeatureMap, GridMeta, PlanarTransform
from .pairing import Box2D, iou_matrix


def world_to_grid_exact(
    p: tuple[float, float], meta: GridMeta
) -> tuple[Fraction, Fraction]:
    """Exact rational (row, col) from the defining affine relation."""
    x = Fraction(p[0])
    y = Fraction(p[1])
    res = Fraction(meta.resolution)
    return (y - Fraction(meta.y_min)) / res, (x - Fraction(meta.x_min)) / res


def apply_transform_mp(
    p: tuple[float, float], t: PlanarTransform, dps: int = 50
) -> tuple[float, float]:
    """Rigid motion evaluated at dps decimal digits."""
    with mp.workdps(dps):
        c, s = mp.cos(t.theta), mp.sin(t.theta)
        x, y = mp.mpf(p[0]), mp.mpf(p[1])
        return float(c * x - s * y + t.tx), float(s * x + c * y + t.ty)


def info_nce_value_mp(
    pos_lidar: np.ndarray,
    pos_camera: np.ndarray,
    negatives: np.ndarray,
    cfg: LossConfig = LossConfig(),
    dps: int = 50,
) -> float:
    """Loss value recomputed with arbitrary-precision arithmetic, straight
    from the definition (no max shift needed at 50 digits)."""
    with mp.workdps(dps):
        a = [mp.mpf(float(v)) for v in np.asarray(pos_lidar, dtype=np.float64)]
        c = [mp.mpf(float(v)) for v in np.asarray(pos_camera, dtype=np.float64)]
        negs = [
            [mp.mpf(float(v)) for v in row]
            for row in np.atleast_2d(np.asarray(negatives, dtype=np.float64))
        ]

        def dot(u, v):
            return mp.fsum(ui * vi for ui, vi in zip(u, v))

        def norm(u):
            return mp.sqrt(dot(u, u))

        if cfg.mode == "dot":
            s_pos = dot(a, c)
            logits = [dot(a, b) for b in negs]
        else:
            tau = mp.mpf(cfg.temperature)
            s_pos = dot(a, c) / (norm(a) * norm(c)) / tau
            logits = [dot(a, b) / (norm(a) * norm(b)) / tau for b in negs]
        if cfg.include_positive_in_denominator:
            logits = [s_pos] + logits
        lse = mp.log(mp.fsum(mp.e**t for t in logits))
        return float(-s_pos + lse)


class LengthMismatchError(ValueError):
    """Vector operands must share a length."""


def cosine_sim(a: np.ndarray, b: np.ndarray) -> float:
    """a.b / (|a||b|); raises ZeroVectorError below norm 1e-12."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise LengthMismatchError(f"shapes differ: {a.shape} vs {b.shape}")
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na < ZERO_NORM_EPS or nb < ZERO_NORM_EPS:
        raise ZeroVectorError("cosine similarity of a zero vector")
    return float(np.dot(a, b) / (na * nb))


def log_softmax_stable(logits: np.ndarray) -> tuple[float, np.ndarray]:
    """Max-shifted (logsumexp, softmax) of a 1-D logit vector."""
    logits = np.asarray(logits, dtype=np.float64)
    m = float(np.max(logits))
    shifted = np.exp(logits - m)
    total = float(np.sum(shifted))
    return m + np.log(total), shifted / total


@dataclass(frozen=True)
class LossReport:
    """Loss value with gradients matching each input's shape, plus the raw
    similarity scores for tracing."""

    value: float
    grad_pos_lidar: np.ndarray
    grad_pos_camera: np.ndarray
    grad_negatives: np.ndarray
    pos_sim: float
    neg_sims: np.ndarray


def _cos_parts(a: np.ndarray, b: np.ndarray) -> tuple[float, float, float]:
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na < ZERO_NORM_EPS or nb < ZERO_NORM_EPS:
        raise ZeroVectorError("cosine similarity of a zero vector")
    return float(np.dot(a, b)), na, nb


def info_nce(
    pos_lidar: np.ndarray,
    pos_camera: np.ndarray,
    negatives: np.ndarray,
    cfg: LossConfig = LossConfig(),
) -> LossReport:
    """Alignment loss for one positive pair against K >= 1 negatives, with
    closed-form gradients for all K + 2 input vectors: the per-pair
    reference for contrastive's batched loss."""
    a = np.asarray(pos_lidar, dtype=np.float64)
    c = np.asarray(pos_camera, dtype=np.float64)
    negs = np.atleast_2d(np.asarray(negatives, dtype=np.float64))
    if a.shape != c.shape or negs.shape[1] != a.shape[0]:
        raise LengthMismatchError(
            f"incompatible shapes: pos {a.shape}/{c.shape}, negs {negs.shape}"
        )
    k = negs.shape[0]
    if k < 1:
        raise ValueError("at least one negative required")

    if cfg.mode == "dot":
        s_pos = float(np.dot(a, c))
        n = negs @ a
        ds_pos_da, ds_pos_dc = c, a
        dn_da = negs  # row i: d n_i / d a
        dn_db = np.broadcast_to(a, negs.shape)  # d n_i / d b_i
    else:
        dot_pos, na, nc = _cos_parts(a, c)
        cos_pos = dot_pos / (na * nc)
        s_pos = cos_pos / cfg.temperature
        nb = np.linalg.norm(negs, axis=1)
        if np.any(nb < ZERO_NORM_EPS):
            raise ZeroVectorError("cosine similarity of a zero vector")
        dots = negs @ a
        cos_n = dots / (na * nb)
        n = cos_n / cfg.temperature
        ds_pos_da = (c / (na * nc) - cos_pos * a / (na * na)) / cfg.temperature
        ds_pos_dc = (a / (na * nc) - cos_pos * c / (nc * nc)) / cfg.temperature
        dn_da = (negs / (na * nb)[:, None] - np.outer(cos_n / (na * na), a)) / cfg.temperature
        dn_db = (a[None, :] / (na * nb)[:, None] - (cos_n / nb**2)[:, None] * negs) / cfg.temperature

    if cfg.include_positive_in_denominator:
        lse, sigma = log_softmax_stable(np.concatenate(([s_pos], n)))
        sigma_pos, sigma_n = float(sigma[0]), sigma[1:]
    else:
        lse, sigma_n = log_softmax_stable(n)
        sigma_pos = 0.0

    value = -s_pos + lse
    grad_a = (sigma_pos - 1.0) * ds_pos_da + sigma_n @ dn_da
    if cfg.mode == "dot" and not cfg.include_positive_in_denominator:
        grad_c = -a  # exact negation by construction
    else:
        grad_c = (sigma_pos - 1.0) * ds_pos_dc
    grad_negs = sigma_n[:, None] * dn_db

    return LossReport(
        value=float(value),
        grad_pos_lidar=grad_a,
        grad_pos_camera=grad_c,
        grad_negatives=np.asarray(grad_negs, dtype=np.float64),
        pos_sim=s_pos,
        neg_sims=np.asarray(n, dtype=np.float64),
    )


def bilinear_oracle(fmap: FeatureMap, q: tuple[float, float]) -> np.ndarray:
    """The textbook 4-term corner sum, written out explicitly."""
    h, w = fmap.meta.height, fmap.meta.width
    r, c = q
    if not (0.0 <= r <= h - 1 and 0.0 <= c <= w - 1):
        raise ValueError(f"query {q} outside sample domain")
    r0 = min(int(np.floor(r)), h - 2) if h > 1 else 0
    c0 = min(int(np.floor(c)), w - 2) if w > 1 else 0
    r1 = min(r0 + 1, h - 1)
    c1 = min(c0 + 1, w - 1)
    fr = r - r0
    fc = c - c0
    data = fmap.data.astype(np.float64)
    return (
        data[r0, c0] * (1.0 - fr) * (1.0 - fc)
        + data[r0, c1] * (1.0 - fr) * fc
        + data[r1, c0] * fr * (1.0 - fc)
        + data[r1, c1] * fr * fc
    )


def peaks_exhaustive(
    heat: np.ndarray,
    kernel: int = 3,
    score_thresh: float = 0.1,
    max_n: int = 200,
) -> list[tuple[int, int, int, float]]:
    """Every-cell scan for window maxima with the lowest-index plateau rule,
    in pure Python.  Returns (row, col, channel, score) in selection order:
    descending score, then row-major position, then channel."""
    heat = np.asarray(heat, dtype=np.float32)
    if heat.ndim == 2:
        heat = heat[:, :, None]
    h, w, c = heat.shape
    half = kernel // 2
    hits = []
    for ch in range(c):
        for r in range(h):
            for col in range(w):
                v = heat[r, col, ch]
                if v < score_thresh:
                    continue
                win_best = -np.inf
                best_pos = None
                for rr in range(max(r - half, 0), min(r + half + 1, h)):
                    for cc in range(max(col - half, 0), min(col + half + 1, w)):
                        u = heat[rr, cc, ch]
                        if u > win_best or (u == win_best and (rr, cc) < best_pos):
                            win_best = u
                            best_pos = (rr, cc)
                if best_pos == (r, col):
                    hits.append((r, col, ch, float(v)))
    hits.sort(key=lambda t: (-t[3], t[0], t[1], t[2]))
    return hits[:max_n]


def iou_scalar(a: Box2D, b: Box2D) -> float:
    """IoU of one pair of axis-aligned boxes, by the float operations of
    `pairing.iou_matrix`, whose entries must equal it bit for bit."""
    ax0, ax1 = a.cx - a.w / 2, a.cx + a.w / 2
    ay0, ay1 = a.cy - a.h / 2, a.cy + a.h / 2
    bx0, bx1 = b.cx - b.w / 2, b.cx + b.w / 2
    by0, by1 = b.cy - b.h / 2, b.cy + b.h / 2
    ix = min(ax1, bx1) - max(ax0, bx0)
    iy = min(ay1, by1) - max(ay0, by0)
    if ix <= 0.0 or iy <= 0.0:
        return 0.0
    inter = ix * iy
    union = (ax1 - ax0) * (ay1 - ay0) + (bx1 - bx0) * (by1 - by0) - inter
    if union <= 0.0:
        return 0.0
    return inter / union


def positive_pairs_greedy(
    boxes_lidar: list[Box2D], boxes_camera: list[Box2D], tau_iou: float
) -> list[tuple[int, int]]:
    """The scalar greedy matching, one box pair at a time: each LiDAR box in
    order claims the still-free camera box with the highest IoU >= tau_iou,
    ties to the lower camera index."""
    taken: set[int] = set()
    pairs: list[tuple[int, int]] = []
    for i, bl in enumerate(boxes_lidar):
        best_j = -1
        best = 0.0
        for j, bc in enumerate(boxes_camera):
            if j in taken:
                continue
            v = iou_scalar(bl, bc)
            if v >= tau_iou and v > best:
                best = v
                best_j = j
        if best_j >= 0:
            pairs.append((i, best_j))
            taken.add(best_j)
    return pairs


def knn_brute(points: np.ndarray, query: np.ndarray, k: int) -> list[int]:
    """All-pairs sort by (squared distance, index)."""
    pts = np.asarray(points, dtype=np.float64)
    q = np.asarray(query, dtype=np.float64)
    d2 = [float(np.sum((p - q) ** 2)) for p in pts]
    order = sorted(range(len(pts)), key=lambda i: (d2[i], i))
    return order[: min(k, len(pts))]


def align(
    lidar_index: int,
    lidar_vector: np.ndarray,
    camera_feats: np.ndarray,
    neighbors: Sequence[int],
    head_lidar: ProjectionHead,
    head_camera: ProjectionHead,
    cfg: AlignConfig = AlignConfig(),
) -> AlignEntry:
    """Score one LiDAR instance's RoI vector against a non-empty, ordered
    list of camera feature rows one candidate at a time and pick the argmax
    (ties -> lower rank): the reference for align_instances' batched
    scores."""
    el = head_lidar.project(lidar_vector)
    scores = np.empty(len(neighbors))
    for rank, j in enumerate(neighbors):
        ec = head_camera.project(camera_feats[j])
        if cfg.metric == "cosine":
            scores[rank] = cosine_sim(el, ec)
        else:
            scores[rank] = float(np.dot(el, ec))
    return AlignEntry(
        lidar_index=lidar_index,
        neighbor_indices=tuple(neighbors),
        scores=scores,
        # np.argmax returns the first maximum, i.e. the lowest rank
        chosen_rank=int(np.argmax(scores)),
    )


def iou_raster(a: Box2D, b: Box2D, cell: float = 0.01) -> float:
    """Area-counting IoU on a global lattice of cell centers spaced `cell`
    apart (centers at (i + 0.5) * cell).  For boxes a few meters wide the
    count error stays well inside 2e-2 of the analytic ratio."""

    def centers(lo: float, hi: float) -> np.ndarray:
        i0 = int(np.ceil(lo / cell - 0.5))
        i1 = int(np.floor(hi / cell - 0.5))
        return (np.arange(i0, i1 + 1, dtype=np.float64) + 0.5) * cell

    def count_inside(xs: np.ndarray, lo: float, hi: float) -> int:
        return int(np.count_nonzero((xs >= lo) & (xs <= hi)))

    ax0, ax1 = a.cx - a.w / 2.0, a.cx + a.w / 2.0
    ay0, ay1 = a.cy - a.h / 2.0, a.cy + a.h / 2.0
    bx0, bx1 = b.cx - b.w / 2.0, b.cx + b.w / 2.0
    by0, by1 = b.cy - b.h / 2.0, b.cy + b.h / 2.0

    xs_a, ys_a = centers(ax0, ax1), centers(ay0, ay1)
    xs_b, ys_b = centers(bx0, bx1), centers(by0, by1)
    area_a = count_inside(xs_a, ax0, ax1) * count_inside(ys_a, ay0, ay1)
    area_b = count_inside(xs_b, bx0, bx1) * count_inside(ys_b, by0, by1)

    ix0, ix1 = max(ax0, bx0), min(ax1, bx1)
    iy0, iy1 = max(ay0, by0), min(ay1, by1)
    if ix0 >= ix1 or iy0 >= iy1:
        inter = 0
    else:
        xs_i, ys_i = centers(ix0, ix1), centers(iy0, iy1)
        nx = count_inside(xs_i, ix0, ix1)
        ny = count_inside(ys_i, iy0, iy1)
        inter = nx * ny
    union = area_a + area_b - inter
    if union <= 0:
        return 0.0
    return inter / union


def central_difference(fn, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Per-component central finite differences of a scalar function."""
    x = np.asarray(x, dtype=np.float64)
    g = np.empty_like(x)
    for i in range(x.shape[0]):
        xp = x.copy()
        xm = x.copy()
        xp[i] += h
        xm[i] -= h
        g[i] = (fn(xp) - fn(xm)) / (2.0 * h)
    return g


def relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    a = np.asarray(analytic, dtype=np.float64).ravel()
    f = np.asarray(numeric, dtype=np.float64).ravel()
    denom = np.maximum(1.0, np.maximum(np.abs(a), np.abs(f)))
    return float(np.max(np.abs(a - f) / denom))


@dataclass(frozen=True)
class CheckReport:
    kind: str
    trials: int
    passed: bool
    max_err: float
    detail: dict | None = None


def gradcheck_info_nce(
    seed: int = 0,
    trials: int = 100,
    dim: int = 10,
    k: int = 8,
    tol: float = 1e-5,
    corrupt: bool = False,
) -> CheckReport:
    """Compare analytic info_nce gradients against central differences over
    seeded random instances, alternating dot and cosine modes.  corrupt=True
    injects a deliberate error into one gradient as a negative control."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    worst_detail: dict | None = None
    configs = (
        LossConfig(mode="dot", include_positive_in_denominator=False),
        LossConfig(mode="cosine", temperature=0.07, include_positive_in_denominator=False),
        LossConfig(mode="dot", include_positive_in_denominator=True),
        LossConfig(mode="cosine", temperature=0.07, include_positive_in_denominator=True),
    )
    for t in range(trials):
        cfg = configs[t % len(configs)]
        a = rng.standard_normal(dim)
        c = rng.standard_normal(dim)
        negs = rng.standard_normal((k, dim))
        rep = info_nce(a, c, negs, cfg)
        grad_a = rep.grad_pos_lidar.copy()
        if corrupt:
            grad_a[0] += 1e-3
        errs = [
            relative_error(grad_a, central_difference(lambda v: info_nce(v, c, negs, cfg).value, a)),
            relative_error(
                rep.grad_pos_camera,
                central_difference(lambda v: info_nce(a, v, negs, cfg).value, c),
            ),
        ]
        flat = negs.reshape(-1)
        fd_negs = central_difference(
            lambda v: info_nce(a, c, v.reshape(k, dim), cfg).value, flat
        )
        errs.append(relative_error(rep.grad_negatives.reshape(-1), fd_negs))
        err = max(errs)
        if err > worst:
            worst = err
            worst_detail = {"trial": t, "mode": cfg.mode, "partial": float(err)}
    return CheckReport(
        kind="gradcheck", trials=trials, passed=worst < tol, max_err=worst, detail=worst_detail
    )


def check_knn(seed: int = 0, n_queries: int = 100, n_points: int = 1000) -> CheckReport:
    """pairing.knn vs brute-force sort: exact index-sequence equality."""
    from .pairing import knn

    rng = np.random.default_rng(seed)
    points = rng.uniform(-54.0, 54.0, size=(n_points, 2))
    # inject duplicates so distance ties actually occur
    points[n_points // 2 :: 7] = points[: (n_points - n_points // 2 - 1) // 7 + 1]
    for t in range(n_queries):
        q = rng.uniform(-60.0, 60.0, size=2)
        k = int(rng.integers(1, 17))
        got = knn(points, q[None, :], k)[0].tolist()
        want = knn_brute(points, q, k)
        if got != want:
            return CheckReport(
                kind="knn",
                trials=t + 1,
                passed=False,
                max_err=float("inf"),
                detail={"query": q.tolist(), "k": k, "got": got, "want": want},
            )
    return CheckReport(kind="knn", trials=n_queries, passed=True, max_err=0.0)


def check_iou(seed: int = 0, trials: int = 1000, tol: float = 2e-2) -> CheckReport:
    """The pipeline's IoU, `pairing.iou_matrix`, vs 0.01 m rasterization."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    worst_detail = None
    for t in range(trials):
        a = Box2D(
            cx=float(rng.uniform(-10, 10)),
            cy=float(rng.uniform(-10, 10)),
            w=float(rng.uniform(1.0, 5.0)),
            h=float(rng.uniform(1.0, 5.0)),
        )
        # bias toward overlap: second box near the first
        b = Box2D(
            cx=a.cx + float(rng.uniform(-4, 4)),
            cy=a.cy + float(rng.uniform(-4, 4)),
            w=float(rng.uniform(1.0, 5.0)),
            h=float(rng.uniform(1.0, 5.0)),
        )
        err = abs(float(iou_matrix([a], [b])[0, 0]) - iou_raster(a, b))
        if err > worst:
            worst = err
            worst_detail = {"trial": t, "a": a.__dict__, "b": b.__dict__, "err": err}
    return CheckReport(
        kind="iou", trials=trials, passed=worst <= tol, max_err=worst, detail=worst_detail
    )


def check_bilinear(seed: int = 0, trials: int = 1000, tol: float = 1e-12) -> CheckReport:
    """Implementation vs the explicit 4-term sum, random maps and queries."""
    from .grid import bilinear_sample

    rng = np.random.default_rng(seed)
    worst = 0.0
    worst_detail = None
    for t in range(trials):
        h = int(rng.integers(2, 10))
        w = int(rng.integers(2, 10))
        c = int(rng.integers(1, 5))
        grid = GridMeta(x_min=0.0, x_max=w * 0.5, y_min=0.0, y_max=h * 0.5, resolution=0.5)
        fmap = FeatureMap(
            meta=grid,
            data=rng.standard_normal((grid.height, grid.width, c)).astype(np.float32),
            modality="lidar",
        )
        if t % 5 == 0:
            q = (float(rng.integers(0, grid.height)), float(rng.integers(0, grid.width)))
        else:
            q = (
                float(rng.uniform(0, grid.height - 1)),
                float(rng.uniform(0, grid.width - 1)),
            )
        err = float(np.max(np.abs(bilinear_sample(fmap, q) - bilinear_oracle(fmap, q))))
        if err > worst:
            worst = err
            worst_detail = {"trial": t, "q": list(q), "err": err}
    return CheckReport(
        kind="bilinear", trials=trials, passed=worst <= tol, max_err=worst, detail=worst_detail
    )


def check_peaks(seed: int = 0, trials: int = 100, size: int = 48) -> CheckReport:
    """Fast peak extraction vs the exhaustive scan: exact cell, channel,
    score, and ordering agreement.  Half the maps are quantized to force
    plateaus and score ties."""
    from .instance import InstanceConfig, sparse_max_pool_peaks

    cfg = InstanceConfig()
    rng = np.random.default_rng(seed)
    meta = GridMeta(
        x_min=0.0,
        x_max=size * 1.0,
        y_min=0.0,
        y_max=size * 1.0,
        resolution=1.0,
    )
    for t in range(trials):
        c = 1 if t % 3 else 2
        heat = rng.uniform(0.0, 1.0, size=(size, size, c)).astype(np.float32)
        if t % 2 == 0:
            heat = np.round(heat, 2).astype(np.float32)
        fmap = FeatureMap(meta=meta, data=heat, modality="lidar")
        props = sparse_max_pool_peaks(fmap, cfg)
        got_cmp = []
        for p in props:
            row = round((p.cy - meta.y_min) / meta.resolution)
            col = round((p.cx - meta.x_min) / meta.resolution)
            got_cmp.append((row, col, int(p.label), float(p.score)))
        want_cmp = peaks_exhaustive(heat, cfg.kernel, cfg.score_thresh, cfg.max_n)
        if got_cmp != want_cmp:
            first_bad = next(
                (i for i, (g, w) in enumerate(zip(got_cmp, want_cmp)) if g != w),
                min(len(got_cmp), len(want_cmp)),
            )
            return CheckReport(
                kind="peaks",
                trials=t + 1,
                passed=False,
                max_err=float("inf"),
                detail={
                    "map": t,
                    "index": first_bad,
                    "got": got_cmp[first_bad] if first_bad < len(got_cmp) else None,
                    "want": want_cmp[first_bad] if first_bad < len(want_cmp) else None,
                },
            )
    return CheckReport(kind="peaks", trials=trials, passed=True, max_err=0.0)
