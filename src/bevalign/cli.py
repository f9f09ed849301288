"""Command-line entry point.

    bevalign run --config cfg.json [--seed N] [--out DIR]
    bevalign gradcheck [--seed N] [--trials N]
    bevalign oracle --kind {iou,knn,bilinear,peaks} [--seed N] [--trials N]
    bevalign gen-scene --out DIR [--seed N] [--config cfg.json]
                       [--sigma-t X] [--sigma-r X] [--lag X]
    bevalign align --bundle DIR --out DIR [--config cfg.json]

Exit codes: 0 success, 1 a check failed, 2 bad usage or config (such as an
unreadable --config, or a negative --seed; `run` hashes its seed and takes
any integer), 3 runtime failure inside the pipeline.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from .alignfuse import align_instances, fuse
from .experiment import (
    ConfigError,
    ExperimentConfig,
    load_config,
    run_experiment,
    run_scene_pipeline,
    write_outputs,
)
from .instance import proposals_to_json
from .scenesim import NoiseSpec, apply_noise, gen_scene, load_scene, save_scene
from .contrastive import train_heads, write_loss_trace_csv

if TYPE_CHECKING:
    from .oracles import CheckReport

# `oracles.check_<kind>`; oracles (and so mpmath) is imported only by the
# commands that run a check.
ORACLE_KINDS = ("bilinear", "iou", "knn", "peaks")


class _UsageError(Exception):
    """Bad usage or config found by a command: main prints it and exits 2."""


def seed(text: str) -> int:
    """A --seed that seeds numpy's default_rng, which takes no negative seed."""
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {n}")
    return n


def trials(text: str) -> int:
    """A --trials count: a check needs at least one trial."""
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {n}")
    return n


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bevalign",
        description="BEV instance alignment: training, checks, and scene tools.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the full experiment from a config file")
    p_run.add_argument("--config", required=True, help="JSON experiment config")
    p_run.add_argument("--seed", type=int, default=None, help="override base_seed")
    p_run.add_argument("--out", default=None, help="override output directory")

    p_grad = sub.add_parser("gradcheck", help="finite-difference check of the loss gradients")
    p_grad.add_argument("--seed", type=seed, default=0)
    p_grad.add_argument("--trials", type=trials, default=100)
    p_grad.add_argument("--corrupt", action="store_true", help=argparse.SUPPRESS)

    p_oracle = sub.add_parser("oracle", help="run a brute-force oracle comparison")
    p_oracle.add_argument("--kind", required=True, choices=ORACLE_KINDS)
    p_oracle.add_argument("--seed", type=seed, default=0)
    p_oracle.add_argument("--trials", type=trials, default=None, help="defaults per kind")

    p_gen = sub.add_parser("gen-scene", help="generate one scene bundle")
    p_gen.add_argument("--out", required=True, help="bundle directory")
    p_gen.add_argument("--seed", type=seed, default=0)
    p_gen.add_argument("--config", default=None, help="experiment config for scene knobs")
    p_gen.add_argument("--sigma-t", type=float, default=0.0, help="spatial translation sigma (m)")
    p_gen.add_argument(
        "--sigma-r", type=float, default=0.0, help="spatial rotation sigma (rad; 0.01745 = 1°)"
    )
    p_gen.add_argument("--lag", type=float, default=0.0, help="temporal lag (s)")

    p_align = sub.add_parser("align", help="train on a scene bundle and align it")
    p_align.add_argument("--bundle", required=True, help="scene bundle directory")
    p_align.add_argument("--out", required=True, help="output directory")
    p_align.add_argument("--config", default=None, help="experiment config for pipeline knobs")
    return parser


def _report_line(rep: CheckReport) -> str:
    status = "PASS" if rep.passed else "FAIL"
    return f"{rep.kind}: {status} max_err={rep.max_err:.3e} ({rep.trials} trials)"


def _config(args) -> ExperimentConfig:
    """The experiment config in the --config file, or the defaults without
    one.  An unreadable or invalid file is a _UsageError."""
    if args.config is None:
        return ExperimentConfig()
    try:
        return load_config(args.config)
    except ConfigError as e:
        raise _UsageError(f"config error: {e}") from e
    except (OSError, UnicodeDecodeError) as e:
        raise _UsageError(f"config error: cannot read {args.config}: {e}") from e


def _cmd_run(args) -> int:
    cfg = _config(args)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, base_seed=args.seed)
    if args.out is not None:
        cfg = dataclasses.replace(cfg, out_dir=args.out)
    try:
        report, result = run_experiment(cfg)
        write_outputs(cfg.out_dir, report, result)
    except Exception as e:  # noqa: BLE001 - boundary: translate to exit code
        print(_runtime_message(e), file=sys.stderr)
        return 3
    print(f"wrote {Path(cfg.out_dir) / 'metrics.csv'}")
    for point in report.noise_points:
        tag = " ".join(f"{axis}={v}" for axis, v in point["noise"].items())
        for variant, agg in point["variants"].items():
            print(f"  {tag} {variant}: recall@1={agg['recall_at_1']:.3f}")
    return 0


def _cmd_gradcheck(args) -> int:
    from .oracles import gradcheck_info_nce

    rep = gradcheck_info_nce(seed=args.seed, trials=args.trials, corrupt=args.corrupt)
    print(_report_line(rep))
    if not rep.passed and rep.detail:
        print(f"  worst case: {json.dumps(rep.detail)}", file=sys.stderr)
    return 0 if rep.passed else 1


def _cmd_oracle(args) -> int:
    from . import oracles

    runner = getattr(oracles, f"check_{args.kind}")
    kwargs = {"seed": args.seed}
    if args.trials is not None:
        if args.kind == "knn":
            kwargs["n_queries"] = args.trials
        else:
            kwargs["trials"] = args.trials
    rep = runner(**kwargs)
    print(_report_line(rep))
    if not rep.passed and rep.detail is not None:
        print(json.dumps(rep.detail, indent=2), file=sys.stderr)
    return 0 if rep.passed else 1


def _cmd_gen_scene(args) -> int:
    cfg = _config(args)
    try:
        spec = NoiseSpec(args.sigma_t, args.sigma_r, args.lag)
    except ConfigError as e:
        print(f"gen-scene: {e.field} {e.reason}", file=sys.stderr)
        return 2
    try:
        save_scene(args.out, apply_noise(gen_scene(cfg.scene, args.seed), spec))
    except Exception as e:  # noqa: BLE001
        print(_runtime_message(e), file=sys.stderr)
        return 3
    print(f"wrote scene bundle to {args.out}")
    return 0


def _cmd_align(args) -> int:
    cfg = _config(args)
    try:
        scene = load_scene(args.bundle)
        pipe = run_scene_pipeline(scene, cfg)
        if pipe.pairs is None or not pipe.pairs.positives:
            print("align: no positive pairs found in bundle", file=sys.stderr)
            return 3
        result = train_heads([pipe], cfg.train)
        alignment = align_instances(pipe, result.head_lidar, result.head_camera, cfg.align)
        fused = fuse(
            scene.lidar_feat, scene.camera_feat, alignment, pipe.lidar_proposals, pipe.camera_feats
        )
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "alignment.json").write_text(
            json.dumps(
                [
                    {
                        "lidar_index": e.lidar_index,
                        "neighbors": list(e.neighbor_indices),
                        "scores": [float(s) for s in e.scores],
                        "chosen_camera_index": e.chosen_camera_index,
                    }
                    for e in alignment.entries
                ],
                indent=2,
            )
        )
        (out / "lidar_proposals.json").write_text(proposals_to_json(pipe.lidar_proposals))
        (out / "camera_proposals.json").write_text(proposals_to_json(pipe.camera_proposals))
        fused.save(out / "fused")
        write_loss_trace_csv(out / "loss_trace.csv", result)
    except Exception as e:  # noqa: BLE001
        print(_runtime_message(e), file=sys.stderr)
        return 3
    chosen = sum(1 for e in alignment.entries if e.chosen_rank is not None)
    print(f"aligned {chosen}/{len(alignment.entries)} instances; outputs in {args.out}")
    return 0


def _runtime_message(e: Exception) -> str:
    mod = type(e).__module__
    name = type(e).__qualname__
    qual = name if mod in ("builtins", None) else f"{mod}.{name}"
    return f"runtime failure: {qual}: {e}"


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "gradcheck": _cmd_gradcheck,
        "oracle": _cmd_oracle,
        "gen-scene": _cmd_gen_scene,
        "align": _cmd_align,
    }
    try:
        return handlers[args.command](args)
    except _UsageError as e:
        print(e, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
