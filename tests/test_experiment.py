"""Config parsing, the experiment harness, and its file outputs."""

import dataclasses
import json
import weakref
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bevalign
from bevalign import experiment
from bevalign.alignfuse import AlignConfig, PipelineOutput
from bevalign.config import to_dict
from bevalign.contrastive import LossConfig, TrainConfig, init_heads, train_heads
from bevalign.experiment import (
    VARIANTS,
    ConfigError,
    ExperimentConfig,
    load_config,
    mean_pair_loss,
    metrics_csv,
    parse_config,
    run_experiment,
    run_scene_pipeline,
    write_outputs,
)
from bevalign.grid import GridMeta
from bevalign.instance import InstanceConfig
from bevalign.oracles import info_nce
from bevalign.pairing import PairConfig
from bevalign.scenesim import NoiseSpec, SceneConfig, apply_noise, gen_scene, hash64

TINY_SCENE = SceneConfig(
    n_objects=4, d_z=4, c_lidar=6, c_camera=6, layout="uniform", min_separation=2.5
)
TINY = ExperimentConfig(
    n_scenes=2,
    base_seed=0,
    scene=TINY_SCENE,
    train=TrainConfig(steps=20, d_e=8),
    noise_grid=(NoiseSpec(), NoiseSpec(sigma_t=0.25)),
)


class TestParseConfig:
    def test_empty_config_gives_defaults(self):
        cfg = parse_config({})
        assert cfg.n_scenes == 4
        assert cfg.noise_grid == (NoiseSpec(),)
        assert cfg.scene.layout == "clustered"

    def test_unknown_top_level_key_names_the_field(self):
        with pytest.raises(ConfigError) as e:
            parse_config({"scens": {}})
        assert e.value.field == "scens"

    def test_unknown_section_key_names_the_section(self):
        with pytest.raises(ConfigError) as e:
            parse_config({"scene": {"bogus": 1}})
        assert e.value.field == "scene"

    def test_bad_value_names_the_section(self):
        with pytest.raises(ConfigError) as e:
            parse_config({"scene": {"n_objects": 0}})
        assert e.value.field == "scene.n_objects"
        with pytest.raises(ConfigError) as e:
            parse_config({"n_scenes": 0})
        assert e.value.field == "n_scenes"

    def test_non_object_root_rejected(self):
        with pytest.raises(ConfigError) as e:
            parse_config([1, 2])
        assert e.value.field == "<root>"

    def test_noise_grid_is_a_cartesian_product(self):
        cfg = parse_config(
            {"noise_grid": {"sigma_t": [0.0, 0.5], "sigma_r": [0.0], "lag": [0.0, 0.25, 0.5]}}
        )
        assert len(cfg.noise_grid) == 6
        assert cfg.noise_grid[0] == NoiseSpec(0.0, 0.0, 0.0)
        assert cfg.noise_grid[2] == NoiseSpec(0.0, 0.0, 0.5)
        assert cfg.noise_grid[3] == NoiseSpec(0.5, 0.0, 0.0)

    def test_noise_grid_shape_errors(self):
        with pytest.raises(ConfigError) as e:
            parse_config({"noise_grid": [0.5]})
        assert e.value.field == "noise_grid"
        with pytest.raises(ConfigError) as e:
            parse_config({"noise_grid": {"sigma_t": []}})
        assert e.value.field == "noise_grid.sigma_t"
        with pytest.raises(ConfigError) as e:
            parse_config({"noise_grid": {"sigma_t": [-1.0]}})
        assert e.value.field == "noise_grid.sigma_t"

    def test_json_lists_coerce_to_tuple_knobs(self):
        cfg = parse_config(
            {
                "scene": {"dims_low": [1.0, 1.0, 1.0], "dims_high": [2.0, 2.0, 2.5]},
                "instance": {"default_dims": [3.0, 3.0, 3.0]},
            }
        )
        assert cfg.scene.dims_low == (1.0, 1.0, 1.0)
        assert cfg.scene.dims_high == (2.0, 2.0, 2.5)
        assert cfg.instance.default_dims == (3.0, 3.0, 3.0)

    def test_grid_section_builds_the_meta(self):
        grid = {"x_min": 0.0, "x_max": 9.0, "y_min": 0.0, "y_max": 9.0, "resolution": 1.0}
        # the default 6 m margin would leave no placement box on a 9 m grid
        cfg = parse_config({"grid": grid, "scene": {"margin": 1.0}})
        assert cfg.scene.meta.height == 9 and cfg.scene.meta.width == 9

    def test_loss_config_threads_into_training(self):
        cfg = parse_config({"loss": {"mode": "cosine", "temperature": 0.1}})
        assert cfg.train.loss.mode == "cosine"
        assert cfg.train.loss.temperature == 0.1

    def test_one_object_scene_is_rejected_on_its_field(self):
        # a one-object scene has no negative pair, so training could not run
        with pytest.raises(ConfigError) as e:
            ExperimentConfig(scene=SceneConfig(n_objects=1))
        assert e.value.field == "scene.n_objects"
        with pytest.raises(ConfigError) as e:
            parse_config({"scene": {"n_objects": 1}})
        assert e.value.field == "scene.n_objects"

    def test_echo_reports_the_grid_and_loss_the_run_uses(self):
        meta = GridMeta(-27.0, 27.0, -27.0, 27.0, 0.75)
        cfg = ExperimentConfig(
            scene=SceneConfig(meta=meta), train=TrainConfig(loss=LossConfig(mode="cosine"))
        )
        echo = cfg.echo()
        assert echo["grid"] == to_dict(meta)
        assert echo["loss"]["mode"] == "cosine"
        assert "meta" not in echo["scene"] and "loss" not in echo["train"]
        assert len(echo["scene"]) == len(dataclasses.fields(SceneConfig)) - 1


finite = partial(st.floats, allow_nan=False, allow_infinity=False)
positive = finite(0.01, 100.0)
dims = st.tuples(positive, positive, positive)


@st.composite
def grid_metas(draw):
    x0, y0, res = draw(finite(-100.0, 100.0)), draw(finite(-100.0, 100.0)), draw(finite(0.1, 2.0))
    nx, ny = draw(st.integers(1, 200)), draw(st.integers(1, 200))
    return GridMeta(x0, x0 + nx * res, y0, y0 + ny * res, res)


@st.composite
def scene_configs(draw):
    """In-bound scenes: each low/high pair ordered, and a margin that leaves
    a placement box."""
    meta = draw(grid_metas())
    half = min(meta.x_max - meta.x_min, meta.y_max - meta.y_min) / 2
    cluster_low, dims_low, v_min = draw(st.integers(1, 5)), draw(dims), draw(positive)
    return SceneConfig(
        n_objects=draw(st.integers(2, 50)),
        d_z=draw(st.integers(1, 32)),
        sigma_f=draw(finite(0.0, 1.0)),
        feature_seed=draw(st.integers(0, 2**63)),
        c_lidar=draw(st.integers(1, 64)),
        c_camera=draw(st.integers(1, 64)),
        meta=meta,
        layout=draw(st.sampled_from(["clustered", "uniform"])),
        min_separation=draw(positive),
        cluster_low=cluster_low,
        cluster_high=draw(st.integers(cluster_low, 8)),
        cluster_radius=draw(positive),
        anchor_separation=draw(positive),
        margin=draw(finite(-20.0, 0.9 * half)),
        dims_low=dims_low,
        dims_high=tuple(d + draw(finite(0.0, 10.0)) for d in dims_low),
        v_max=v_min + draw(finite(0.0, 100.0)),
        v_min=v_min,
        static_frac=draw(finite(0.0, 1.0)),
        bump_sigma_feat=draw(positive),
        bump_sigma_heat=draw(positive),
        truncation=draw(positive),
        max_attempts=draw(st.integers(1, 5000)),
    )


configs = st.builds(
    ExperimentConfig,
    n_scenes=st.integers(1, 10**6),
    base_seed=st.integers(0, 2**64 - 1),
    out_dir=st.text(max_size=20),
    scene=scene_configs(),
    instance=st.builds(
        InstanceConfig,
        kernel=st.integers(1, 5).map(lambda k: 2 * k + 1),
        score_thresh=finite(0.0, 1.0),
        max_n=st.integers(2, 500),  # ExperimentConfig needs two proposals
        default_dims=dims,
    ),
    pairing=st.builds(
        PairConfig,
        tau_iou=finite(0.001, 1.0),
        k_negatives=st.integers(1, 32),
        anchor=st.sampled_from(["camera", "lidar"]),
    ),
    train=st.builds(
        TrainConfig,
        steps=st.integers(0, 1000),
        step_size=positive,
        d_e=st.integers(1, 64),
        seed=st.integers(0, 2**32),
        loss=st.builds(
            LossConfig,
            mode=st.sampled_from(["dot", "cosine"]),
            temperature=positive,
            include_positive_in_denominator=st.booleans(),
        ),
    ),
    align=st.builds(
        AlignConfig,
        k_neighbors=st.integers(1, 32),
        metric=st.sampled_from(["cosine", "dot"]),
    ),
    noise_grid=st.lists(
        st.builds(NoiseSpec, sigma_t=finite(0.0, 2.0), sigma_r=finite(0.0, 0.1), lag=finite(0.0, 1.0)),
        min_size=1,
        max_size=4,
    ).map(tuple),
)


class TestEchoRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(configs)
    def test_parse_of_echo_is_the_config(self, cfg):
        echo = json.loads(json.dumps(cfg.echo()))
        assert echo.pop("noise_grid") == [to_dict(n) for n in cfg.noise_grid]
        assert parse_config(echo) == dataclasses.replace(cfg, noise_grid=(NoiseSpec(),))


class TestLoadConfig:
    def test_valid_file_round_trips(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"n_scenes": 3, "base_seed": 7}))
        cfg = load_config(path)
        assert cfg.n_scenes == 3 and cfg.base_seed == 7

    def test_invalid_json_reports_line_and_column(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"n_scenes": 2,,}')
        with pytest.raises(ConfigError) as e:
            load_config(path)
        assert e.value.field.startswith("<line 1, col ")


def assert_matches_per_pair_mean(pipe, head_l, head_c, loss_cfg):
    """mean_pair_loss against the mean of oracles.info_nce over the pairs
    with a negative.  The two sum in different orders, and even projecting
    the negatives as one matrix instead of row by row moves the oracle's
    last bit, so the check is to 1e-12 of max(1, |loss|)."""
    values = [
        info_nce(
            head_l.project(pipe.lidar_feats[i]),
            head_c.project(pipe.camera_feats[j]),
            head_c.project(pipe.camera_feats[list(negs)]),
            loss_cfg,
        ).value
        for (i, j), negs in zip(pipe.pairs.positives, pipe.pairs.negatives)
        if negs
    ]
    want = float(np.mean(values))
    got = mean_pair_loss(pipe, head_l, head_c, loss_cfg)
    assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


# The criterion-5 experiment with base seed 1, on whose metrics.csv the batched
# mean_pair_loss moved three mean_loss cells in their last digit.
ROBUST_SEED_1 = ExperimentConfig(
    n_scenes=100,
    base_seed=1,
    noise_grid=(NoiseSpec(sigma_t=0.5, sigma_r=0.01745), NoiseSpec(lag=0.5)),
)


class TestMeanPairLoss:
    def test_zero_when_scene_has_no_pairs(self):
        pipe = PipelineOutput((), np.empty((0, 30)), (), np.empty((0, 30)))
        heads = init_heads(30, 4, 0)
        assert mean_pair_loss(pipe, *heads, TINY.train.loss) == 0.0

    def test_matches_per_pair_info_nce_mean(self):
        pipe = run_scene_pipeline(gen_scene(TINY_SCENE, 1), TINY)
        assert pipe.pairs.positives
        assert_matches_per_pair_mean(pipe, *init_heads(30, 8, 0), TINY.train.loss)

    @pytest.mark.parametrize("positive", [False, True])
    @pytest.mark.parametrize("mode", ["dot", "cosine"])
    def test_scores_by_the_loss_stage_that_training_descends(self, mode, positive):
        """mean_pair_loss is bit for bit the loss train_heads records before
        its first step, from the same heads."""
        loss = LossConfig(mode=mode, include_positive_in_denominator=positive)
        d_e, seed = 8, 4
        for i in (1, 2, 3):
            scene = apply_noise(gen_scene(TINY_SCENE, i), NoiseSpec(lag=0.5))
            pipe = run_scene_pipeline(scene, TINY)
            d_l, d_c = pipe.lidar_feats.shape[1], pipe.camera_feats.shape[1]
            scored = mean_pair_loss(pipe, *init_heads(d_l, d_e, seed, d_c), loss)
            cfg = TrainConfig(steps=0, d_e=d_e, seed=seed, loss=loss)
            trained = train_heads([pipe], cfg).loss_trace[0]
            assert np.float64(scored).tobytes() == np.float64(trained).tobytes()

    def test_matches_per_pair_info_nce_mean_on_robust_scenes(self):
        """Over all 200 (eval scene, noise point, heads) cases of this config
        the worst relative difference was 1.6e-15.  The heads are freshly
        initialized ones and, as in the experiment, dot-mode heads trained
        with the default loss, here on four train scenes."""
        cfg = ROBUST_SEED_1

        def pipeline(i, spec=NoiseSpec()):
            scene = apply_noise(gen_scene(cfg.scene, hash64(cfg.base_seed, i)), spec)
            return run_scene_pipeline(scene, cfg)

        trained = train_heads([pipeline(i) for i in (0, 2, 4, 6)], cfg.train)
        heads = [
            (trained.head_lidar, trained.head_camera),
            init_heads(trained.head_lidar.d_in, cfg.train.d_e, cfg.train.seed),
        ]
        checked = 0
        for i in range(1, 20, 2):
            for spec in cfg.noise_grid:
                m = pipeline(i, spec)
                for head_l, head_c in heads:
                    assert_matches_per_pair_mean(m, head_l, head_c, cfg.train.loss)
                    checked += 1
        assert checked == 40


@pytest.fixture(scope="module")
def tiny_run():
    return run_experiment(TINY)


class TestRunExperiment:
    def test_report_structure(self, tiny_run):
        report, result = tiny_run
        assert not report.eval_on_train  # scene 0 trains, scene 1 evaluates
        assert report.version == bevalign.__version__
        assert report.wall_clock_s > 0.0
        assert report.config["n_scenes"] == 2
        assert len(report.noise_points) == 2
        for point in report.noise_points:
            assert set(point["variants"]) == set(VARIANTS)
            for agg in point["variants"].values():
                assert 0.0 <= agg["recall_at_1"] <= 1.0
                assert agg["n_scenes"] == 1
        assert report.train["n_train_scenes"] == 1
        assert report.train["n_pairs"] == result.n_pairs > 0
        assert result.loss_trace.shape == (21,)

    def test_metrics_csv_layout(self, tiny_run):
        report, _ = tiny_run
        lines = metrics_csv(report).strip().split("\n")
        assert lines[0] == (
            "sigma_t,sigma_r,lag,variant,recall_at_1,mean_loss,"
            "center_err_before,center_err_after,n_pos,n_neg,n_scenes"
        )
        assert VARIANTS == ("naive", "trained")
        assert len(lines) == 1 + len(TINY.noise_grid) * len(VARIANTS)
        for row, variant in zip(lines[1:], VARIANTS * len(TINY.noise_grid)):
            fields = row.split(",")
            assert fields[3] == variant
            float(fields[4])  # every numeric field parses
            assert int(fields[10]) == 1
            # naive uses no heads, so it has no loss; trained's is the bounded InfoNCE
            if variant == "naive":
                assert fields[5] == ""
            else:
                assert np.isfinite(float(fields[5])) and float(fields[5]) >= 0.0

    def test_rerun_is_byte_identical(self, tiny_run):
        report, _ = tiny_run
        report2, _ = run_experiment(TINY)
        assert metrics_csv(report2) == metrics_csv(report)

    def test_each_scene_is_released_before_the_next_is_made(self, monkeypatch):
        # No clean scene outlives its own pipeline, so the run's memory does
        # not grow with n_scenes.
        made: list[weakref.ref] = []
        alive_at_call: list[int] = []

        def tracked(cfg, seed):
            alive_at_call.append(sum(r() is not None for r in made))
            scene = gen_scene(cfg, seed)
            made.append(weakref.ref(scene))
            return scene

        monkeypatch.setattr(experiment, "gen_scene", tracked)
        run_experiment(dataclasses.replace(TINY, n_scenes=6))
        assert len(made) == 6
        assert alive_at_call == [0] * 6

    def test_each_noisy_scene_is_released_before_the_next_is_made(self, monkeypatch):
        made: list[weakref.ref] = []
        alive_at_call: list[int] = []

        def tracked(scene, spec):
            alive_at_call.append(sum(r() is not None for r in made))
            noisy = apply_noise(scene, spec)
            made.append(weakref.ref(noisy))
            return noisy

        monkeypatch.setattr(experiment, "apply_noise", tracked)
        grid = (NoiseSpec(sigma_t=0.25), NoiseSpec(lag=0.5))
        run_experiment(dataclasses.replace(TINY, n_scenes=4, noise_grid=grid))
        assert len(made) == 4
        assert alive_at_call == [0] * 4

    def test_eval_on_train_fallback(self):
        cfg = ExperimentConfig(
            n_scenes=1,
            scene=TINY_SCENE,
            train=TrainConfig(steps=5, d_e=8),
            noise_grid=(NoiseSpec(),),
        )
        report, _ = run_experiment(cfg)
        assert report.eval_on_train
        assert report.noise_points[0]["variants"]["trained"]["n_scenes"] == 1

    def test_write_outputs_creates_the_three_files(self, tiny_run, tmp_path):
        report, result = tiny_run
        write_outputs(tmp_path / "out", report, result)
        loaded = json.loads((tmp_path / "out" / "report.json").read_text())
        assert loaded["version"] == bevalign.__version__
        assert len(loaded["noise_points"]) == 2
        assert loaded["noise_points"][0]["variants"]["naive"]["mean_loss"] is None
        assert (tmp_path / "out" / "metrics.csv").read_text() == metrics_csv(report)
        trace_lines = (tmp_path / "out" / "loss_trace.csv").read_text().strip().split("\n")
        assert trace_lines[0] == "step,mean_loss,mean_pos_sim,mean_neg_sim"
        assert len(trace_lines) == 1 + 21
