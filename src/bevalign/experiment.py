"""End-to-end experiment harness: parse a JSON config, train projection
heads on clean scenes, evaluate three alignment variants across a noise
grid on held-out scenes, and emit report.json plus metrics.csv.

Scene split: even scene indices train, odd evaluate.  When the config has
so few scenes that the eval split is empty, evaluation falls back to the
train scenes and the report says so.  Training always runs on clean
renders; noise is applied to evaluation scenes only.

Determinism: (config, base_seed) fixes every byte of metrics.csv.  Scene
seeds derive from hash64(base_seed, index); per-scene noise draws come from
the scene's own stream (scenesim.apply_noise), so a scene's perturbation
does not depend on grid position.  Scenes run one at a time in scene-index
order, and aggregation reduces in that order.
"""

from __future__ import annotations

import itertools
import json
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import __version__
from .alignfuse import AlignConfig, PipelineOutput, align_instances
from .contrastive import (
    ProjectionHead,
    TrainConfig,
    TrainResult,
    init_heads,
    mean_pair_loss,
    train_heads,
    write_loss_trace_csv,
)
from .config import ConfigError, check_fields, field_types, from_dict, to_dict
from .instance import InstanceConfig, extract_instances
from .pairing import PairConfig, build_pairs
from .scenesim import (
    NOISE_STREAM_SALT,  # noqa: F401 - re-exported; bench/worker.py reads it here
    Metrics,
    NoiseSpec,
    Scene,
    SceneConfig,
    apply_noise,
    eval_alignment,
    gen_scene,
    hash64,
)

VARIANTS = ("naive", "untrained", "trained")


@dataclass(frozen=True)
class ExperimentConfig:
    n_scenes: int = field(default=4, metadata={"ge": 1})
    base_seed: int = 0
    out_dir: str = "run_out"
    scene: SceneConfig = field(default_factory=SceneConfig)
    instance: InstanceConfig = field(default_factory=InstanceConfig)
    pairing: PairConfig = field(default_factory=PairConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    align: AlignConfig = field(default_factory=AlignConfig)
    noise_grid: tuple[NoiseSpec, ...] = (NoiseSpec(),)

    def __post_init__(self) -> None:
        check_fields(self)
        if self.scene.n_objects < 2:
            raise ConfigError("scene.n_objects", "must be >= 2: one object has no negative pair")
        if self.instance.max_n < 2:
            raise ConfigError("instance.max_n", "must be >= 2: one proposal has no negative pair")
        if not self.noise_grid:
            raise ConfigError("noise_grid", "must be non-empty")

    def echo(self) -> dict:
        """The complete effective config in the JSON layout parse_config
        reads, except that noise_grid lists its expanded points."""
        d = to_dict(self)
        top = {name: d[sec].pop(fld) for name, (sec, fld) in TOP_LEVEL.items()}
        return {**top, **d}


# JSON sections that set a nested field: the grid is the scene's, and the
# loss is the training objective's.
TOP_LEVEL = {"grid": ("scene", "meta"), "loss": ("train", "loss")}
NOISE_AXES = tuple(field_types(NoiseSpec))


def parse_config(raw: dict) -> ExperimentConfig:
    """Validate a config dict (parsed JSON).  Unknown keys and bad values
    raise ConfigError naming the field."""
    if not isinstance(raw, dict):
        raise ConfigError("<root>", "config must be a JSON object")
    body = {k: v for k, v in raw.items() if k not in TOP_LEVEL}
    for name, (sec, fld) in TOP_LEVEL.items():
        section = body.get(sec, {})
        if not isinstance(section, dict):
            continue  # from_dict names the section
        if fld in section:
            raise ConfigError(f"{sec}.{fld}", f"unknown key; it is set by the '{name}' section")
        if name in raw:
            tp = field_types(field_types(ExperimentConfig)[sec])[fld]
            body[sec] = {**section, fld: from_dict(tp, raw[name], name)}
    if "noise_grid" in raw:
        body["noise_grid"] = _noise_points(raw["noise_grid"])
    return from_dict(ExperimentConfig, body)


def _noise_points(ng) -> list[dict]:
    """The cartesian product of the sigma_t/sigma_r/lag lists."""
    if not isinstance(ng, dict):
        raise ConfigError("noise_grid", "must be an object of sigma_t/sigma_r/lag lists")
    for key in ng:
        if key not in NOISE_AXES:
            raise ConfigError("noise_grid", f"unknown key {key!r}")
    axes = [ng.get(axis, [0.0]) for axis in NOISE_AXES]
    for axis, vals in zip(NOISE_AXES, axes):
        if not isinstance(vals, list) or not vals:
            raise ConfigError(f"noise_grid.{axis}", "must be a non-empty list")
    return [dict(zip(NOISE_AXES, point)) for point in itertools.product(*axes)]


def load_config(path: str | Path) -> ExperimentConfig:
    text = Path(path).read_text(encoding="utf-8")
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(f"<line {e.lineno}, col {e.colno}>", e.msg) from e
    return parse_config(raw)


def run_scene_pipeline(scene: Scene, cfg: ExperimentConfig) -> PipelineOutput:
    """One scene's detections, RoI features and contrastive pairs; the
    alignment and its loss are left for evaluate_scene."""
    lp, lf = extract_instances(scene.lidar_feat, scene.lidar_heat, cfg.instance)
    cp, cf = extract_instances(scene.camera_feat, scene.camera_heat, cfg.instance)
    pairs = None
    if lp and cp:
        pairs = build_pairs([p.box for p in lp], [p.box for p in cp], cfg.pairing)
    return PipelineOutput(lp, lf, cp, cf, pairs=pairs)


def evaluate_scene(
    scene: Scene,
    pipe: PipelineOutput,
    heads: dict[str, tuple[ProjectionHead, ProjectionHead]],
    cfg: ExperimentConfig,
) -> dict[str, Metrics]:
    """Metrics for each variant on one (possibly noisy) scene, whose
    pipeline output is pipe."""
    out: dict[str, Metrics] = {}
    # Variants may share a head pair ("naive" reuses "untrained"); its loss is
    # computed once.
    losses: dict[tuple[int, int], float] = {}
    for variant in VARIANTS:
        head_l, head_c = heads[variant]
        key = (id(head_l), id(head_c))
        if key not in losses:
            losses[key] = mean_pair_loss(pipe, head_l, head_c, cfg.train.loss)
        alignment = align_instances(pipe, head_l, head_c, cfg.align, nearest=variant == "naive")
        output = replace(pipe, alignment=alignment, mean_loss=losses[key])
        out[variant] = eval_alignment(scene, output)
    return out


def _aggregate(per_scene: list[Metrics]) -> dict:
    recalls = [m.recall_at_1 for m in per_scene]
    losses = [m.mean_align_loss for m in per_scene]
    before = [m.center_err_before for m in per_scene]
    after = [m.center_err_after for m in per_scene]
    return {
        "recall_at_1": float(np.mean(recalls)),
        "recall_at_1_std": float(np.std(recalls)),
        "mean_loss": float(np.mean(losses)),
        "center_err_before": float(np.mean(before)),
        "center_err_after": float(np.mean(after)),
        "n_pos": int(sum(m.positive_pair_count for m in per_scene)),
        "n_neg": int(sum(m.negative_pair_count for m in per_scene)),
        "n_scenes": len(per_scene),
    }


@dataclass(frozen=True)
class RunReport:
    """report.json's content, fields in the file's order."""

    version: str
    wall_clock_s: float
    eval_on_train: bool
    config: dict
    train: dict
    noise_points: list[dict]


def run_experiment(cfg: ExperimentConfig) -> tuple[RunReport, TrainResult]:
    """Train once on the clean train split, then sweep the noise grid over
    the eval split for all three variants."""
    t0 = time.perf_counter()
    seeds = [hash64(cfg.base_seed, i) for i in range(cfg.n_scenes)]
    train_idx = [i for i in range(cfg.n_scenes) if i % 2 == 0]
    eval_idx = [i for i in range(cfg.n_scenes) if i % 2 == 1]
    eval_on_train = not eval_idx
    if eval_on_train:
        eval_idx = train_idx

    # One scene is alive at a time: a train scene's maps are dropped once its
    # pipeline has run, each eval scene is generated once and swept over the
    # whole noise grid, and each noisy render lives only inside eval_noisy,
    # so no split's feature maps are all alive at once.
    pipes = (run_scene_pipeline(gen_scene(cfg.scene, seeds[i]), cfg) for i in train_idx)
    result = train_heads([p for p in pipes if p.pairs and p.pairs.positives], cfg.train)

    heads = {
        "trained": (result.head_lidar, result.head_camera),
        "untrained": init_heads(
            result.head_lidar.d_in, cfg.train.d_e, cfg.train.seed, result.head_camera.d_in
        ),
    }
    heads["naive"] = heads["untrained"]

    def eval_noisy(scene: Scene, spec: NoiseSpec) -> dict[str, Metrics]:
        noisy = apply_noise(scene, spec)
        return evaluate_scene(noisy, run_scene_pipeline(noisy, cfg), heads, cfg)

    def eval_one(i: int) -> list[dict[str, Metrics]]:
        scene = gen_scene(cfg.scene, seeds[i])
        return [eval_noisy(scene, spec) for spec in cfg.noise_grid]

    per_scene = [eval_one(i) for i in eval_idx]
    noise_points: list[dict] = []
    for k, spec in enumerate(cfg.noise_grid):
        point = {"noise": to_dict(spec), "variants": {}}
        for variant in VARIANTS:
            point["variants"][variant] = _aggregate([m[k][variant] for m in per_scene])
        noise_points.append(point)

    report = RunReport(
        version=__version__,
        config=cfg.echo(),
        noise_points=noise_points,
        train={
            "n_pairs": result.n_pairs,
            "initial_loss": float(result.loss_trace[0]),
            "final_loss": float(result.loss_trace[-1]),
            "mean_sq_dist_before": result.mean_sq_dist_before,
            "mean_sq_dist_after": result.mean_sq_dist_after,
            "n_train_scenes": len(train_idx),
        },
        wall_clock_s=time.perf_counter() - t0,
        eval_on_train=eval_on_train,
    )
    return report, result


CSV_COLUMNS = (
    *NOISE_AXES,
    "variant",
    "recall_at_1",
    "mean_loss",
    "center_err_before",
    "center_err_after",
    "n_pos",
    "n_neg",
    "n_scenes",
)


def metrics_csv(report: RunReport) -> str:
    """Fixed-column CSV; float fields use shortest round-trip repr so two
    identical runs emit identical bytes."""
    lines = [",".join(CSV_COLUMNS)]
    for point in report.noise_points:
        noise = [repr(float(point["noise"][axis])) for axis in NOISE_AXES]
        for variant in VARIANTS:
            agg = [repr(point["variants"][variant][c]) for c in CSV_COLUMNS[len(NOISE_AXES) + 1 :]]
            lines.append(",".join([*noise, variant, *agg]))
    return "\n".join(lines) + "\n"


def write_outputs(out_dir: str | Path, report: RunReport, result: TrainResult) -> None:
    d = Path(out_dir)
    d.mkdir(parents=True, exist_ok=True)
    (d / "report.json").write_text(json.dumps(to_dict(report), indent=2))
    (d / "metrics.csv").write_text(metrics_csv(report))
    write_loss_trace_csv(d / "loss_trace.csv", result)
