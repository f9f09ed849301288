"""Golden bytes: rendered scene maps, `bevalign align` outputs and
`train_heads` results are pinned by sha256, so a change that claims
identical outputs has to produce the same bytes on this platform's numpy,
not merely close floats."""

import hashlib
import json

import numpy as np
import pytest

from bevalign.alignfuse import PipelineOutput
from bevalign.cli import main
from bevalign.contrastive import LossConfig, TrainConfig, train_heads
from bevalign.pairing import PairSet
from bevalign.scenesim import (
    SceneConfig,
    apply_spatial_noise,
    apply_temporal_noise,
    gen_scene,
    hash64,
)

ALIGN_OUTPUTS = (
    "alignment.json",
    "lidar_proposals.json",
    "camera_proposals.json",
    "loss_trace.csv",
    "fused",
    "fused.json",
)

# sha256 of each output of `align` on the `gen-scene --seed 5 --sigma-t 0.25`
# bundle, first 16 hex digits; "default" runs with no config, "canonical"
# with the positive in the softmax denominator.
ALIGN_DIGESTS = {
    "default": {
        "alignment.json": "18649ae3aef44b41",
        "lidar_proposals.json": "37e35096ebf77a2c",
        "camera_proposals.json": "aba6617ff34b92a1",
        "loss_trace.csv": "88ee55a146da9acb",
        "fused": "3a33628c0ba1053b",
        "fused.json": "070a5167802475ce",
    },
    "canonical": {
        "alignment.json": "aaca81838881d93d",
        "lidar_proposals.json": "37e35096ebf77a2c",
        "camera_proposals.json": "aba6617ff34b92a1",
        "loss_trace.csv": "d07c417c489cb399",
        "fused": "9a37015b7fad531a",
        "fused.json": "070a5167802475ce",
    },
}

# sha256 of the JSON files of that `gen-scene --seed 5 --sigma-t 0.25`
# bundle, first 16 hex digits.
BUNDLE_DIGESTS = {
    "objects.json": "74bc8cf583d0f939",
    "noise.json": "262e6c86b36be04d",
    "correspondence.json": "8c88ffbaf1435b64",
}

# sha256 over the three traces and both heads' weights, first 16 hex digits,
# keyed by (mode, include_positive_in_denominator, ragged).
TRAIN_DIGESTS = {
    ("dot", False, False): "23cdd07e35be3748",
    ("dot", False, True): "03f3ee0ac4da0ef6",
    ("dot", True, False): "66531aceee531025",
    ("dot", True, True): "670197fc9de19b04",
    ("cosine", False, False): "d13c57ae979e0ac2",
    ("cosine", False, True): "42837519c0203c32",
    ("cosine", True, False): "179bff3b2661bf05",
    ("cosine", True, True): "13f2a78ee86a3d66",
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


# sha256 of each map's float32 bytes, first 16 hex digits: the four maps of
# the default-config scene with seed 5, and its camera maps after spatial
# noise (sigma_t 0.5 m, sigma_r 1 deg, drawn from hash64(5, 9001)) then a
# 0.5 s lag.
SCENE_DIGESTS = {
    "lidar_feat": "02e197b8a5aa3f42",
    "lidar_heat": "c05964146f2c9875",
    "camera_feat": "24926752fab8029a",
    "camera_heat": "c05964146f2c9875",
    "noisy_camera_feat": "c47dff1a70b84b3e",
    "noisy_camera_heat": "f3f64ea934413152",
}


def test_scene_maps_are_pinned():
    scene = gen_scene(SceneConfig(), 5)
    rng = np.random.default_rng(hash64(5, 9001))
    noisy = apply_temporal_noise(apply_spatial_noise(scene, 0.5, np.deg2rad(1.0), rng), 0.5)
    maps = {
        "lidar_feat": scene.lidar_feat,
        "lidar_heat": scene.lidar_heat,
        "camera_feat": scene.camera_feat,
        "camera_heat": scene.camera_heat,
        "noisy_camera_feat": noisy.camera_feat,
        "noisy_camera_heat": noisy.camera_heat,
    }
    assert {k: _sha(m.data.tobytes()) for k, m in maps.items()} == SCENE_DIGESTS


@pytest.mark.parametrize("name", sorted(ALIGN_DIGESTS))
def test_align_outputs_are_pinned(name, tmp_path, capsys):
    bundle, out = tmp_path / "bundle", tmp_path / "out"
    args = ["align", "--bundle", str(bundle), "--out", str(out)]
    if name == "canonical":
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"loss": {"include_positive_in_denominator": True}}))
        args += ["--config", str(cfg)]
    assert main(["gen-scene", "--out", str(bundle), "--seed", "5", "--sigma-t", "0.25"]) == 0
    assert {f: _sha((bundle / f).read_bytes()) for f in BUNDLE_DIGESTS} == BUNDLE_DIGESTS
    assert main(args) == 0, capsys.readouterr().err
    digests = {f: _sha((out / f).read_bytes()) for f in ALIGN_OUTPUTS}
    assert digests == ALIGN_DIGESTS[name]


def _training_material(ragged: bool) -> list[PipelineOutput]:
    """Two scenes with 6 lidar and 5 camera channels.  Camera row 0 is a
    negative of every pair but the one whose positive it is, so its gradient
    sums over several pairs; with ragged=True pair i has 1 + i % 3 negatives
    instead of 3."""
    rng = np.random.default_rng(11)
    scenes = []
    for n in (7, 5):
        positives = tuple((i, (i + 1) % n) for i in range(n))
        negatives = []
        for i, (_, j) in enumerate(positives):
            others = [b for b in range(n) if b not in (0, j)]
            k = 1 + i % 3 if ragged else 3
            negatives.append((0, *others[i % 2 : i % 2 + k - 1]) if j != 0 else tuple(others[:k]))
        pairs = PairSet(positives, tuple(negatives))
        lidar, camera = rng.standard_normal((n, 6)), rng.standard_normal((n, 5))
        scenes.append(PipelineOutput((), lidar, (), camera, pairs=pairs))
    return scenes


TRAIN_CASES = [
    (mode, positive, ragged)
    for mode in ("dot", "cosine")
    for positive in (False, True)
    for ragged in (False, True)
]


@pytest.mark.parametrize("mode,positive,ragged", TRAIN_CASES)
def test_train_heads_results_are_pinned(mode, positive, ragged):
    loss = LossConfig(mode=mode, include_positive_in_denominator=positive)
    cfg = TrainConfig(steps=40, step_size=0.05, d_e=4, seed=3, loss=loss)
    result = train_heads(_training_material(ragged), cfg)
    h = hashlib.sha256()
    for arr in (
        result.loss_trace,
        result.pos_sim_trace,
        result.neg_sim_trace,
        result.head_lidar.weights,
        result.head_camera.weights,
    ):
        h.update(np.ascontiguousarray(arr).tobytes())
    assert h.hexdigest()[:16] == TRAIN_DIGESTS[(mode, positive, ragged)]
