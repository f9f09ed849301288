"""One benchmark workload in one fresh process.

    python3 bench/worker.py --workload NAME --seed N --mode {setup,run,trace}
        --seconds S --started-ns T --work-dir DIR [--smoke]

`setup` only builds the inputs; `run` repeats the timed unit while the next
one should end within S seconds (at least once); `trace` runs one unit with
every layer traced.
The last stdout line is one JSON object.  bench/run.py starts this script;
T is the CLOCK_MONOTONIC reading (time.perf_counter_ns) taken just before
the process was started, so setup time includes interpreter start and the
import of bevalign.

Workloads (inputs are a pure function of --seed):
  robust        the criterion-5 reference experiment (ROBUST_CFG with
                base_seed = seed): 100 clustered 10-object scenes, noise
                points {sigma_t=0.5 m, sigma_r=1 deg} and {lag=0.5 s}, 500
                dot-mode steps.
  bundle_align  40 noisy default scene bundles saved during setup, even ones
                with spatial noise {sigma_t=0.25 m, sigma_r=0.5 deg}, odd
                ones with lag 0.5 s, each run in-process through `bevalign
                align --config` (cli.main) with the positive in the loss
                denominator.  Two inputs make `align` exit 3, so neither is
                used: sigma_t=0.5 m can leave no IoU positive (base_seed 0,
                bundle 6), and the default dot loss without the positive
                diverges to NaN weights on some single bundles (base_seed 2,
                bundle 23).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import bevalign  # noqa: E402
from bevalign import cli, experiment, scenesim  # noqa: E402
from bevalign.alignfuse import AlignEntry, AlignmentResult, PipelineOutput  # noqa: E402
from bevalign.instance import proposals_from_json  # noqa: E402

from spans import Recorder, instrument, latencies_ms, layer_metrics  # noqa: E402

SPATIAL = {"sigma_t": 0.5, "sigma_r": 0.01745}
LAG = {"lag": 0.5}
BUNDLE_SPATIAL = {"sigma_t": 0.25, "sigma_r": 0.00873}
ALIGN_CONFIG = {"loss": {"include_positive_in_denominator": True}}

# name -> (raw config, noise points, smoke-size raw config)
EXPERIMENTS = {
    "robust": ({"n_scenes": 100}, [SPATIAL, LAG], {"n_scenes": 20}),
}
BUNDLES, SMOKE_BUNDLES = 40, 3
WORKLOADS = (*EXPERIMENTS, "bundle_align")

ALIGN_OUTPUTS = (
    "alignment.json",
    "lidar_proposals.json",
    "camera_proposals.json",
    "fused",
    "fused.json",
    "loss_trace.csv",
)


@dataclasses.dataclass
class UnitResult:
    seconds: float
    attempted: int
    failed: int
    errors: list[str]
    recall_trained: float | None = None
    digest: str | None = None


class ExperimentWorkload:
    """One unit is one `run_experiment` on the workload's config."""

    op_span = "experiment.run_scene_pipeline"

    def __init__(self, name: str, seed: int, smoke: bool, work_dir: Path) -> None:
        raw, noise, smoke_raw = EXPERIMENTS[name]
        self.raw = {**(smoke_raw if smoke else raw), "base_seed": seed}
        self.noise = noise

    def setup(self) -> None:
        cfg = experiment.parse_config(self.raw)
        self.cfg = dataclasses.replace(
            cfg, noise_grid=tuple(scenesim.NoiseSpec(**n) for n in self.noise)
        )

    def run_unit(self):
        report, _ = experiment.run_experiment(self.cfg)
        return report

    def check(self, report, seconds: float, n_ops: int) -> UnitResult:
        errors = []
        trained = []
        for point in report.noise_points:
            recalls = {v: agg["recall_at_1"] for v, agg in point["variants"].items()}
            if not all(0.0 <= r <= 1.0 for r in recalls.values()):
                errors.append(f"recall outside [0, 1] at {point['noise']}: {recalls}")
            noisy = any(point["noise"][k] > 0 for k in ("sigma_t", "sigma_r", "lag"))
            if noisy and recalls["trained"] < recalls["naive"]:
                errors.append(f"trained recall below naive at {point['noise']}: {recalls}")
            trained.append(recalls["trained"])
        digest = hashlib.sha256(experiment.metrics_csv(report).encode()).hexdigest()
        return UnitResult(
            seconds,
            n_ops,
            n_ops if errors else 0,
            errors,
            float(np.mean(trained)),
            digest,
        )


class BundleWorkload:
    """One unit is one pass of `bevalign align` over every saved bundle."""

    op_span = "cli.main"

    def __init__(self, name: str, seed: int, smoke: bool, work_dir: Path) -> None:
        self.seed = seed
        self.count = SMOKE_BUNDLES if smoke else BUNDLES
        self.bundles = [work_dir / "bundles" / f"b{i:02d}" for i in range(self.count)]
        self.outs = [work_dir / "out" / f"b{i:02d}" for i in range(self.count)]
        self.config = work_dir / "align.json"
        self.recall = None

    def setup(self) -> None:
        self.config.write_text(json.dumps(ALIGN_CONFIG))
        cfg = scenesim.SceneConfig()
        for i, bundle in enumerate(self.bundles):
            scene_seed = scenesim.hash64(self.seed, i)
            scene = scenesim.gen_scene(cfg, scene_seed)
            if i % 2 == 0:
                rng = np.random.default_rng(scenesim.hash64(scene_seed, experiment.NOISE_STREAM_SALT))
                scene = scenesim.apply_spatial_noise(
                    scene, BUNDLE_SPATIAL["sigma_t"], BUNDLE_SPATIAL["sigma_r"], rng
                )
            else:
                scene = scenesim.apply_temporal_noise(scene, LAG["lag"])
            scenesim.save_scene(bundle, scene)

    def run_unit(self) -> list[tuple[object, str]]:
        """(exit code or exception, captured output) per bundle."""
        calls = []
        for bundle, out in zip(self.bundles, self.outs):
            args = ["align", "--bundle", str(bundle), "--out", str(out), "--config", str(self.config)]
            sink = io.StringIO()
            try:
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    code = cli.main(args)
            except (Exception, SystemExit) as e:  # noqa: BLE001 - a failed operation
                code = repr(e)
            calls.append((code, sink.getvalue()))
        return calls

    def check(self, calls, seconds: float, n_ops: int) -> UnitResult:
        errors = []
        recalls = []
        for bundle, out, (code, output) in zip(self.bundles, self.outs, calls):
            try:
                problem = self._check_one(bundle, out, code, output)
                if problem is None and self.recall is None:
                    recalls.append(self._recall(bundle, out))
            except Exception as e:  # noqa: BLE001 - unreadable output is a failure
                problem = f"unreadable output: {e!r}"
            if problem is not None:
                errors.append(f"{bundle.name}: {problem}")
            shutil.rmtree(out, ignore_errors=True)
        if self.recall is None and not errors:
            self.recall = float(np.mean(recalls))
        return UnitResult(seconds, len(calls), len(errors), errors, self.recall)

    @staticmethod
    def _check_one(bundle: Path, out: Path, code, output: str) -> str | None:
        if code != 0:
            return f"align exited with {code}: {output.strip()}"
        missing = [f for f in ALIGN_OUTPUTS if not (out / f).is_file()]
        if missing:
            return f"missing outputs {missing}"
        fused = _read_bevf(out / "fused")
        lidar = _read_bevf(bundle / "lidar_feat")
        camera = _read_bevf(bundle / "camera_feat")
        c_l, c_c = lidar.shape[2], camera.shape[2]
        if fused.shape[:2] != lidar.shape[:2] or fused.shape[2] != c_l + 2 * c_c:
            return f"fused shape {fused.shape} does not fit inputs {lidar.shape}, {camera.shape}"
        dense = fused[:, :, : c_l + c_c].view(np.uint32)
        if not (
            np.array_equal(dense[:, :, :c_l], lidar.view(np.uint32))
            and np.array_equal(dense[:, :, c_l:], camera.view(np.uint32))
        ):
            return "fused dense channels differ from the input maps"
        return None

    @staticmethod
    def _recall(bundle: Path, out: Path) -> float:
        """Trained recall@1 of the written alignment against the bundle's
        ground truth."""
        entries = []
        for e in json.loads((out / "alignment.json").read_text()):
            chosen = e["chosen_camera_index"]
            rank = None if chosen is None else e["neighbors"].index(chosen)
            entries.append(AlignEntry(e["lidar_index"], tuple(e["neighbors"]), e["scores"], rank))
        output = PipelineOutput(
            lidar_proposals=tuple(proposals_from_json((out / "lidar_proposals.json").read_text())),
            lidar_feats=(),
            camera_proposals=tuple(proposals_from_json((out / "camera_proposals.json").read_text())),
            camera_feats=(),
            alignment=AlignmentResult(tuple(entries)),
            pairs=None,
            mean_loss=0.0,
        )
        return scenesim.eval_alignment(scenesim.load_scene(bundle), output).recall_at_1


def _read_bevf(path: Path) -> np.ndarray:
    """The BEVF container read independently of bevalign.grid."""
    raw = path.read_bytes()
    if raw[:4] != b"BEVF":
        raise ValueError(f"{path}: not a BEVF container")
    h, w, c = np.frombuffer(raw[4:16], dtype="<u4")
    return np.frombuffer(raw[16:], dtype="<f4").reshape(int(h), int(w), int(c))


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "bevalign": bevalign.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": os.environ.get("BEVALIGN_THREADS", "unset"),
    }


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mode", required=True, choices=("setup", "run", "trace"))
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--started-ns", type=int, required=True)
    p.add_argument("--work-dir", type=Path, required=True)
    p.add_argument("--smoke", action="store_true", help="reduced input sizes, for the tests")
    args = p.parse_args(argv)

    kind = BundleWorkload if args.workload == "bundle_align" else ExperimentWorkload
    args.work_dir.mkdir(parents=True, exist_ok=True)
    try:
        result = _run(kind(args.workload, args.seed, args.smoke, args.work_dir), args)
    finally:
        shutil.rmtree(args.work_dir, ignore_errors=True)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["env"] = environment()
    print(json.dumps(result))
    return 0


def _run(wl, args) -> dict:
    tracing = args.mode == "trace"
    rec = Recorder()
    with instrument(rec, None if tracing else (wl.op_span,)):
        with rec.activated() if tracing else contextlib.nullcontext():
            wl.setup()
        setup_s = (time.perf_counter_ns() - args.started_ns) / 1e9
        result = {"setup_s": setup_s, "units": []}
        if args.mode == "setup":
            return result

        deadline = time.perf_counter() + args.seconds
        while True:
            n_before = len(latencies_ms(rec, wl.op_span))
            t0 = time.perf_counter()
            try:
                with rec.activated():
                    raw = wl.run_unit()
                seconds = time.perf_counter() - t0
                n_ops = len(latencies_ms(rec, wl.op_span)) - n_before
                unit = wl.check(raw, seconds, n_ops)
            except Exception:  # noqa: BLE001 - the whole unit failed
                traceback.print_exc()
                n_ops = max(len(latencies_ms(rec, wl.op_span)) - n_before, 1)
                unit = UnitResult(time.perf_counter() - t0, n_ops, n_ops, ["unit raised"])
            for err in unit.errors:
                print(f"check failed: {err}", file=sys.stderr)
            result["units"].append(dataclasses.asdict(unit))
            # start another unit only if it should end before the deadline
            if tracing or time.perf_counter() + unit.seconds > deadline:
                break
        result["op_ms"] = latencies_ms(rec, wl.op_span)
        if tracing:
            result["layers"] = layer_metrics(rec)
    return result


if __name__ == "__main__":
    sys.exit(main())
