"""Span recorder: self-time arithmetic, thread parenting, and patching."""

import threading

import pytest

import bevalign
from bevalign import experiment, grid, instance, scenesim
from spans import Recorder, Span, instrument, layer_metrics, self_times


def _spans(*rows):
    return [Span(name, lo, hi, parent, None) for name, lo, hi, parent in rows]


def test_self_time_subtracts_nested_children():
    spans = _spans(
        ("root", 0, 100, None),
        ("a", 10, 30, 0),
        ("a.inner", 12, 20, 1),
        ("b", 40, 70, 0),
    )
    got = self_times(spans)
    assert got == [x / 1e9 for x in (50, 12, 8, 30)]
    # one thread, properly nested: self times add up to the root's wall time
    assert sum(got) == pytest.approx(100 / 1e9)


def test_self_time_counts_overlapping_children_once():
    # two children that ran at once in different threads
    spans = _spans(("root", 0, 100, None), ("a", 10, 50, 0), ("b", 30, 60, 0), ("c", 80, 90, 0))
    assert self_times(spans)[0] == pytest.approx((100 - 50 - 10) / 1e9)


def test_self_time_clips_children_to_parent():
    spans = _spans(("root", 0, 100, None), ("late", 90, 130, 0))
    assert self_times(spans)[0] == pytest.approx(90 / 1e9)


def test_worker_thread_spans_parent_to_activating_thread():
    rec = Recorder()
    with rec.activated():
        with rec.span("outer", new_op=True):

            def work():
                with rec.span("in_worker"):
                    pass

            t = threading.Thread(target=work)
            t.start()
            t.join(timeout=10)
            assert not t.is_alive()
    outer, worker = rec.spans
    assert worker.parent == 0
    assert worker.op == outer.op == 1
    assert outer.start_ns <= worker.start_ns <= worker.end_ns <= outer.end_ns


def test_instrument_patches_every_reference_and_restores():
    original = grid.bilinear_sample
    rec = Recorder()
    with instrument(rec):
        assert instance.bilinear_sample is grid.bilinear_sample is not original
        assert bevalign.bilinear_sample is grid.bilinear_sample
        assert instance.bilinear_sample.__wrapped__ is original
    assert instance.bilinear_sample is grid.bilinear_sample is original
    assert bevalign.bilinear_sample is original


def test_inactive_recorder_records_nothing():
    rec = Recorder()
    with instrument(rec):
        scenesim.gen_scene(scenesim.SceneConfig(n_objects=2, layout="uniform"), 1)
    assert rec.spans == [] and not rec.counts


def test_layer_metrics_from_a_traced_pipeline():
    cfg = experiment.ExperimentConfig()
    rec = Recorder()
    with instrument(rec), rec.activated():
        scene = scenesim.gen_scene(cfg.scene, 3)
        pipe = experiment.run_scene_pipeline(scene, cfg)
    m = layer_metrics(rec)
    n_props = len(pipe.lidar_proposals) + len(pipe.camera_proposals)
    assert m["instance.proposals"] == n_props
    assert m["grid.bilinear_sample.calls"] == 5 * n_props
    assert m["pairing.positives"] == len(pipe.pairs.positives)
    assert m["pairing.positive_yield"] == len(pipe.pairs.positives) / len(pipe.lidar_proposals)
    assert m["experiment.scene_pipelines"] == 1
    assert m["grid.bevf.bytes_read"] == 0
    # nothing ran in parallel, so the self times cover the roots exactly
    roots = sum(s.end_ns - s.start_ns for s in rec.spans if s.parent is None) / 1e9
    assert m["trace.traced_s"] == pytest.approx(roots, rel=1e-9)
    assert {s.op for s in rec.spans if s.name != "scenesim.gen_scene"} == {1}
