"""Command-line interface: exit codes, output files, and determinism."""

import importlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bevalign
from bevalign.cli import _build_parser, main
from bevalign.grid import load_feature_map
from bevalign.scenesim import (
    SceneConfig,
    apply_temporal_noise,
    gen_scene,
    hash64,
    load_scene,
    save_scene,
)

TINY_CFG = {
    "n_scenes": 2,
    "scene": {
        "n_objects": 4,
        "d_z": 4,
        "c_lidar": 6,
        "c_camera": 6,
        "layout": "uniform",
        "min_separation": 2.5,
    },
    "train": {"steps": 10, "d_e": 8},
    "noise_grid": {"sigma_t": [0.0, 0.25]},
}
GRID_54 = {"x_min": -27.0, "x_max": 27.0, "y_min": -27.0, "y_max": 27.0, "resolution": 0.75}


@pytest.fixture()
def cfg_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(TINY_CFG))
    return path


@pytest.fixture()
def unequal_cfg_file(tmp_path):
    """TINY_CFG with 8 lidar and 12 camera channels."""
    cfg = {**TINY_CFG, "scene": {**TINY_CFG["scene"], "c_lidar": 8, "c_camera": 12}}
    path = tmp_path / "unequal.json"
    path.write_text(json.dumps(cfg))
    return path


class TestGradcheckCommand:
    def test_passes_and_prints_verdict(self, capsys):
        assert main(["gradcheck", "--trials", "20"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_zero_trials_is_a_usage_error(self, capsys):
        assert main(["gradcheck", "--trials", "0"]) == 2
        assert "argument --trials: must be >= 1, got 0" in capsys.readouterr().err

    def test_corrupted_gradients_fail_with_exit_one(self, capsys):
        assert main(["gradcheck", "--trials", "5", "--corrupt"]) == 1
        assert "FAIL" in capsys.readouterr().out


class TestOracleCommand:
    @pytest.mark.parametrize(
        "kind,trials", [("iou", "50"), ("knn", "50"), ("bilinear", "50"), ("peaks", "5")]
    )
    def test_each_kind_passes(self, capsys, kind, trials):
        assert main(["oracle", "--kind", kind, "--trials", trials]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_unknown_kind_is_rejected_by_the_parser(self, capsys):
        assert main(["oracle", "--kind", "voxel"]) == 2
        assert "argument --kind: invalid choice: 'voxel'" in capsys.readouterr().err

    def test_zero_trials_is_a_usage_error(self, capsys):
        assert main(["oracle", "--kind", "iou", "--trials", "0"]) == 2
        assert "argument --trials: must be >= 1, got 0" in capsys.readouterr().err

    def test_a_failing_check_is_a_runtime_failure(self, monkeypatch, capsys):
        from bevalign import oracles

        def broken(**kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(oracles, "check_knn", broken)
        assert main(["oracle", "--kind", "knn"]) == 3
        assert "runtime failure: RuntimeError: boom" in capsys.readouterr().err

    def test_oracles_load_only_with_a_check_command(self):
        """`import bevalign.cli` leaves oracles and mpmath unloaded; a check
        command loads them and still passes."""
        script = (
            "import sys, bevalign.cli\n"
            "assert not {'mpmath', 'bevalign.oracles'} & set(sys.modules)\n"
            "code = bevalign.cli.main(['oracle', '--kind', 'knn', '--trials', '5'])\n"
            "assert 'mpmath' in sys.modules\n"
            "sys.exit(code)\n"
        )
        src = str(Path(bevalign.__file__).resolve().parent.parent)
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0, proc.stderr
        assert "knn: PASS" in proc.stdout


class TestRunCommand:
    def test_missing_config_flag_exits_two(self, capsys):
        assert main(["run"]) == 2
        assert "the following arguments are required: --config" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        assert main(["run", "--help"]) == 0
        assert "--config" in capsys.readouterr().out

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "nope.json")]) == 2
        assert "config error" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["run", "--config", str(path)]) == 2
        assert "line 1" in capsys.readouterr().err

    def test_unknown_key_names_the_field(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"scens": {}}))
        assert main(["run", "--config", str(path)]) == 2
        assert "scens" in capsys.readouterr().err

    def test_empty_noise_axis_names_the_field(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"noise_grid": {"sigma_t": []}}))
        assert main(["run", "--config", str(path)]) == 2
        assert "noise_grid" in capsys.readouterr().err

    def test_full_run_writes_outputs_and_honors_overrides(self, cfg_file, tmp_path, capsys):
        out = tmp_path / "custom_out"
        code = main(["run", "--config", str(cfg_file), "--seed", "5", "--out", str(out)])
        assert code == 0
        assert "recall@1=" in capsys.readouterr().out
        report = json.loads((out / "report.json").read_text())
        assert report["config"]["base_seed"] == 5
        assert report["config"]["n_scenes"] == 2
        assert (out / "metrics.csv").exists()
        assert (out / "loss_trace.csv").exists()

    def test_two_runs_emit_identical_metrics_bytes(self, cfg_file, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", str(cfg_file), "--out", str(out_a)]) == 0
        assert main(["run", "--config", str(cfg_file), "--out", str(out_b)]) == 0
        assert (out_a / "metrics.csv").read_bytes() == (out_b / "metrics.csv").read_bytes()


    def test_unequal_channel_counts_run(self, unequal_cfg_file, tmp_path):
        out = tmp_path / "out"
        assert main(["run", "--config", str(unequal_cfg_file), "--out", str(out)]) == 0
        for name in ("report.json", "metrics.csv", "loss_trace.csv"):
            assert (out / name).exists()

    @pytest.mark.parametrize(
        "key,value",
        [
            ("n_scenes", "abc"),
            ("n_scenes", 2.5),
            ("n_scenes", True),
            ("base_seed", "x"),
            ("base_seed", 1.0),
            ("base_seed", False),
        ],
    )
    def test_non_integer_count_or_seed_names_the_field(self, key, value, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**TINY_CFG, key: value}))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert f"config field '{key}'" in err
        assert "integer" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "section,key,value",
        [
            ("train", "steps", 2.5),
            ("train", "d_e", True),
            ("train", "seed", "0"),
            ("instance", "kernel", 3.5),
            ("pairing", "k_negatives", 2.0),
            ("align", "k_neighbors", None),
            ("scene", "n_objects", 4.0),
        ],
    )
    def test_non_integer_section_knob_names_the_field(self, section, key, value, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**TINY_CFG, section: {**TINY_CFG.get(section, {}), key: value}}))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert f"config field '{section}.{key}'" in err
        assert "integer" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("axis", ["sigma_t", "sigma_r", "lag"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_noise_value_names_the_field(self, axis, value, tmp_path, capsys):
        path = tmp_path / "bad.json"
        # json writes these as NaN / Infinity / -Infinity, which json.loads accepts
        path.write_text(json.dumps({**TINY_CFG, "noise_grid": {axis: [0.0, value]}}))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert f"config field 'noise_grid.{axis}'" in err
        assert "must be finite" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "path,value,named",
        [
            ("scene.dims_low", "[1, 1]", "scene.dims_low"),
            ("instance.default_dims", "[2, 2]", "instance.default_dims"),
            ("instance.default_dims", "[0, 2, 2]", "instance.default_dims"),
            ("scene.v_max", '"5"', "scene.v_max"),
            ("scene.bump_sigma_feat", "1e999", "scene.bump_sigma_feat"),
            ("scene.meta", json.dumps(GRID_54), "scene.meta"),
            ("out_dir", "5", "out_dir"),
            ("loss.temperature", '"0.1"', "loss.temperature"),
            ("scene.n_objects", "1", "scene.n_objects"),
            ("instance.yaw_aware_sampling", "true", "instance"),
        ],
    )
    def test_bad_value_exits_two_and_names_its_field(self, path, value, named, tmp_path, capsys):
        # the value is spliced in as JSON text, so 1e999 reaches the parser as written
        raw = dict(TINY_CFG)
        *sections, key = path.split(".")
        inner = raw
        for sec in sections:
            inner[sec] = dict(inner.get(sec, {}))
            inner = inner[sec]
        inner[key] = "@VALUE@"
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(raw).replace('"@VALUE@"', value))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert f"config field '{named}'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "section,values,named",
        [
            ("scene", {"cluster_low": 5, "cluster_high": 2}, "scene.cluster_high"),
            ("scene", {"v_min": 9.0, "v_max": 1.0}, "scene.v_max"),
            ("scene", {"dims_low": [-1.0, -1.0, -1.0]}, "scene.dims_low"),
            ("scene", {"dims_low": [3.0, 3.0, 3.0]}, "scene.dims_high"),
            ("scene", {"c_lidar": 0}, "scene.c_lidar"),
            ("scene", {"max_attempts": 0}, "scene.max_attempts"),
            ("scene", {"bump_sigma_feat": 0.0}, "scene.bump_sigma_feat"),
            ("scene", {"truncation": -1.0}, "scene.truncation"),
            ("scene", {"cluster_radius": -1.0}, "scene.cluster_radius"),
            ("scene", {"margin": 60.0}, "scene.margin"),
            ("scene", {"static_frac": 2.0}, "scene.static_frac"),
            ("train", {"d_e": 0}, "train.d_e"),
            ("align", {"variant": "nearest"}, "align"),
            ("grid", {**GRID_54, "x_min": -1e308, "x_max": 1e308}, "grid.resolution"),
            # magnitudes whose products or areas overflowed: with lag 1e10 or
            # 1e200, v_max 1e308 or 1e200 raised OverflowError; sigma_t 1e308
            # overflowed a sum; 1e308 or 1e200 dims gave boxes no IoU
            ("scene", {"v_max": 1e308}, "scene.v_max"),
            ("scene", {"v_max": 1e200}, "scene.v_max"),
            ("noise_grid", {"lag": [1e200]}, "noise_grid.lag"),
            ("noise_grid", {"sigma_t": [1e308]}, "noise_grid.sigma_t"),
            ("instance", {"default_dims": [1e308, 1e308, 1e308]}, "instance.default_dims"),
            ("instance", {"default_dims": [1e200, 1e200, 1e200]}, "instance.default_dims"),
        ],
    )
    def test_out_of_range_value_exits_two_and_names_its_field(
        self, section, values, named, tmp_path, capsys
    ):
        raw = {**TINY_CFG, section: {**TINY_CFG.get(section, {}), **values}}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert f"config field '{named}'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestGenSceneCommand:
    def test_writes_a_loadable_bundle(self, cfg_file, tmp_path, capsys):
        bundle = tmp_path / "bundle"
        code = main(["gen-scene", "--out", str(bundle), "--seed", "3", "--config", str(cfg_file)])
        assert code == 0
        assert "bundle" in capsys.readouterr().out
        scene = load_scene(bundle)
        assert scene.config.n_objects == 4
        assert scene.seed == 3

    def test_noise_flags_are_recorded_in_the_bundle(self, cfg_file, tmp_path):
        bundle = tmp_path / "noisy"
        code = main(
            [
                "gen-scene", "--out", str(bundle), "--seed", "3",
                "--config", str(cfg_file), "--sigma-t", "0.3", "--lag", "0.5",
            ]
        )
        assert code == 0
        noise = json.loads((bundle / "noise.json").read_text())
        assert noise["sigma_t"] == 0.3
        assert noise["lag"] == 0.5
        assert noise["lag_total"] == 0.5
        assert noise["tx"] != 0.0 or noise["ty"] != 0.0
        assert noise["theta"] == 0.0

    @pytest.mark.parametrize(
        "flag,value,message",
        [
            ("--sigma-t", "nan", "sigma_t must be finite"),
            ("--sigma-r", "inf", "sigma_r must be finite"),
            ("--lag", "inf", "lag must be finite"),
            ("--sigma-t", "-0.5", "non-negative"),
            ("--sigma-t", "1e308", "sigma_t must be <= 1e+100"),
        ],
    )
    def test_bad_noise_flag_exits_two(self, flag, value, message, tmp_path, capsys):
        bundle = tmp_path / "bundle"
        assert main(["gen-scene", "--out", str(bundle), flag, value]) == 2
        assert message in capsys.readouterr().err
        assert not bundle.exists()

    def test_bad_config_exits_two(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"scene": {"n_objects": 0}}))
        assert main(["gen-scene", "--out", str(tmp_path / "b"), "--config", str(path)]) == 2

    def test_overflowing_bump_reach_exits_two_naming_truncation(self, tmp_path, capsys):
        # a bump reach of 1e50 * 1e50 / 1e-300 cells used to exit 3 with an
        # OverflowError from the renderer's int cast
        grid = {"x_min": 0.0, "x_max": 1e-298, "y_min": 0.0, "y_max": 1e-298, "resolution": 1e-300}
        tiny = [1e-300] * 3
        scene = {
            "truncation": 1e50, "bump_sigma_feat": 1e50, "margin": 0.0, "n_objects": 2,
            "layout": "uniform", "min_separation": 1e-300, "dims_low": tiny, "dims_high": tiny,
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"grid": grid, "scene": scene}))
        bundle = tmp_path / "b"
        assert main(["gen-scene", "--out", str(bundle), "--config", str(path)]) == 2
        assert "config field 'scene.truncation'" in capsys.readouterr().err
        assert not bundle.exists()


class TestAlignCommand:
    def test_bundle_to_alignment_flow(self, cfg_file, tmp_path, capsys):
        bundle = tmp_path / "bundle"
        assert main(["gen-scene", "--out", str(bundle), "--seed", "3", "--config", str(cfg_file)]) == 0
        out = tmp_path / "aligned"
        code = main(["align", "--bundle", str(bundle), "--out", str(out), "--config", str(cfg_file)])
        assert code == 0
        assert "aligned" in capsys.readouterr().out

        entries = json.loads((out / "alignment.json").read_text())
        assert entries and all(
            set(e) == {"lidar_index", "neighbors", "scores", "chosen_camera_index"}
            for e in entries
        )
        lidar_props = json.loads((out / "lidar_proposals.json").read_text())
        camera_props = json.loads((out / "camera_proposals.json").read_text())
        assert len(entries) == len(lidar_props) > 0
        assert len(camera_props) > 0

        fused = load_feature_map(out / "fused")
        assert fused.channels == 6 + 6 + 6
        sidecar = json.loads((out / "fused.json").read_text())
        assert sidecar["channel_layout"] == {
            "lidar": [0, 6], "camera": [6, 12], "instance": [12, 18],
        }
        trace = (out / "loss_trace.csv").read_text().strip().split("\n")
        assert trace[0] == "step,mean_loss,mean_pos_sim,mean_neg_sim"
        assert len(trace) == 1 + 11

    def test_unequal_channel_counts_bundle_flow(self, unequal_cfg_file, tmp_path):
        cfg = str(unequal_cfg_file)
        bundle, out = tmp_path / "bundle", tmp_path / "aligned"
        assert main(["gen-scene", "--out", str(bundle), "--seed", "3", "--config", cfg]) == 0
        assert main(["align", "--bundle", str(bundle), "--out", str(out), "--config", cfg]) == 0
        fused = load_feature_map(out / "fused")
        assert fused.channels == 8 + 12 + 12
        sidecar = json.loads((out / "fused.json").read_text())
        assert sidecar["channel_layout"] == {
            "lidar": [0, 8], "camera": [8, 20], "instance": [20, 32],
        }

    @pytest.mark.parametrize("base_seed,index", [(73, 11), (119, 9)])
    def test_canonical_loss_descends_on_single_bundles(self, base_seed, index, tmp_path, capsys):
        """Bundles on which fixed-size steps on the canonical loss diverged
        until the heads were non-finite (exit 3), built as the bundle_align
        benchmark builds its odd bundles: a default scene and a 0.5 s lag."""
        scene = gen_scene(SceneConfig(), hash64(base_seed, index))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"loss": {"include_positive_in_denominator": True}}))
        bundle, out = tmp_path / "bundle", tmp_path / "out"
        save_scene(bundle, apply_temporal_noise(scene, 0.5))
        args = ["align", "--bundle", str(bundle), "--out", str(out), "--config", str(cfg)]
        # ProjectionHead rejects non-finite weights, so exit 0 means finite heads
        assert main(args) == 0, capsys.readouterr().err
        entries = json.loads((out / "alignment.json").read_text())
        assert np.isfinite([s for e in entries for s in e["scores"]]).all()
        losses = np.loadtxt(out / "loss_trace.csv", delimiter=",", skiprows=1)[:, 1]
        assert np.isfinite(losses).all() and (np.diff(losses) <= 0).all()

    def test_missing_bundle_is_a_runtime_failure(self, tmp_path, capsys):
        code = main(["align", "--bundle", str(tmp_path / "nope"), "--out", str(tmp_path / "o")])
        assert code == 3
        assert "runtime failure" in capsys.readouterr().err


def test_one_parser_serves_every_call(cfg_file, tmp_path, capsys):
    """main builds its parser once per process, and a call that parsed,
    failed to parse or printed help leaves nothing behind for the next."""
    bundle, out = tmp_path / "bundle", tmp_path / "out"
    assert main(["gen-scene", "--out", str(bundle), "--seed", "3", "--config", str(cfg_file)]) == 0
    capsys.readouterr()
    calls = (
        ["align", "--bundle", str(bundle), "--out", str(out), "--config", str(cfg_file)],
        ["oracle", "--kind", "voxel"],
        ["--help"],
    )

    def run(argv):
        code = main(argv)
        return code, capsys.readouterr()

    separately = []
    for argv in calls:
        _build_parser.cache_clear()
        separately.append(run(argv))
    together = [run(argv) for argv in calls]
    assert [code for code, _ in separately] == [0, 2, 0]
    assert together == separately
    assert _build_parser.cache_info().misses == 1


# Every command that reads --config, with the arguments it needs besides it.
CONFIG_COMMANDS = {
    "run": ["run"],
    "gen-scene": ["gen-scene", "--out", "OUT"],
    "align": ["align", "--bundle", "BUNDLE", "--out", "OUT"],
}


def _unreadable_config(kind: str, tmp_path: Path) -> Path:
    path = tmp_path / "cfg.json"
    if kind == "directory":
        path.mkdir()
    elif kind == "non-utf8":
        path.write_bytes('{"out_dir": "caf\u00e9"}'.encode("latin-1"))
    return path


@pytest.mark.parametrize("kind", ["missing", "directory", "non-utf8"])
@pytest.mark.parametrize("command", sorted(CONFIG_COMMANDS))
def test_unreadable_config_exits_two(command, kind, tmp_path, capsys):
    path = _unreadable_config(kind, tmp_path)
    out = tmp_path / "out"
    args = [
        {"OUT": str(out), "BUNDLE": str(tmp_path / "bundle")}.get(a, a)
        for a in CONFIG_COMMANDS[command]
    ]
    assert main([*args, "--config", str(path)]) == 2
    assert f"config error: cannot read {path}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("max_n", [0, 1])
@pytest.mark.parametrize("command", ["run", "align"])
def test_proposal_cap_below_two_exits_two_naming_the_field(command, max_n, tmp_path, capsys):
    # one proposal has no negative pair; both commands used to exit 3 with
    # NoPairsError once training started
    bundle, out = tmp_path / "bundle", tmp_path / "out"
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(TINY_CFG))
    assert main(["gen-scene", "--out", str(bundle), "--seed", "3", "--config", str(path)]) == 0
    path.write_text(json.dumps({**TINY_CFG, "instance": {"max_n": max_n}}))
    args = {"run": ["run"], "align": ["align", "--bundle", str(bundle)]}[command]
    assert main([*args, "--config", str(path), "--out", str(out)]) == 2
    assert "config field 'instance.max_n': must be >= 2" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "args",
    [
        ["gen-scene", "--out", "OUT"],
        ["gradcheck", "--trials", "1"],
        ["oracle", "--kind", "iou", "--trials", "1"],
    ],
    ids=["gen-scene", "gradcheck", "oracle"],
)
def test_negative_seed_exits_two_naming_the_flag(args, tmp_path, capsys):
    out = tmp_path / "out"
    args = [str(out) if a == "OUT" else a for a in args]
    assert main([*args, "--seed", "-1"]) == 2
    assert "argument --seed: must be >= 0, got -1" in capsys.readouterr().err
    assert not out.exists()


def test_run_accepts_a_negative_seed(cfg_file, tmp_path):
    # scene seeds are hash64(base_seed, index), which takes any integer
    assert main(["run", "--config", str(cfg_file), "--seed", "-1", "--out", str(tmp_path)]) == 0
    assert json.loads((tmp_path / "report.json").read_text())["config"]["base_seed"] == -1


@pytest.mark.skipif(shutil.which("bevalign") is None, reason="console script not on PATH")
def test_installed_script_runs():
    proc = subprocess.run(
        ["bevalign", "gradcheck", "--trials", "5"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "PASS" in proc.stdout


def test_console_script_names_cli_main():
    """The `[project.scripts]` entry resolves to bevalign.cli.main, checked
    without installing the package."""
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["bevalign"]
    module, attr = target.split(":")
    assert getattr(importlib.import_module(module), attr) is main
