"""Similarity measures, InfoNCE loss and gradients, and head training."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bevalign.alignfuse import PipelineOutput
from bevalign.contrastive import (
    LossConfig,
    NoPairsError,
    ProjectionHead,
    TrainConfig,
    ZeroVectorError,
    _Batch,
    _pair_grad,
    _pair_loss,
    init_heads,
    train_heads,
    write_loss_trace_csv,
)
from bevalign.oracles import (
    LengthMismatchError,
    cosine_sim,
    gradcheck_info_nce,
    info_nce,
    info_nce_value_mp,
    log_softmax_stable,
)
from bevalign.pairing import PairSet

# The dot-mode loss with the negatives only in its denominator.
NEGATIVES_ONLY = LossConfig(mode="dot", include_positive_in_denominator=False)
ALL_CONFIGS = (
    NEGATIVES_ONLY,
    LossConfig(mode="cosine", temperature=0.07, include_positive_in_denominator=False),
    LossConfig(mode="dot", include_positive_in_denominator=True),
    LossConfig(mode="cosine", temperature=0.07, include_positive_in_denominator=True),
)


def material(lidar_feats, camera_feats, pairs):
    """A scene's pipeline record holding only what training reads."""
    return PipelineOutput((), lidar_feats, (), camera_feats, pairs=pairs)


def make_scene_pairs(n=6, d=8, k=2, seed=0, ragged=False, identical=False):
    """Random training material with identity positives i <-> i."""
    rng = np.random.default_rng(seed)
    lv = rng.standard_normal((n, d))
    cv = lv.copy() if identical else rng.standard_normal((n, d))
    negatives = []
    for i in range(n):
        kk = 1 + (i % k) if ragged else k
        negatives.append(tuple(j for j in range(n) if j != i)[:kk])
    pairs = PairSet(tuple((i, i) for i in range(n)), tuple(negatives))
    return material(lv, cv, pairs)


class TestSimilarities:
    def test_cosine_known_values(self):
        assert cosine_sim([1.0, 0.0], [0.0, 1.0]) == pytest.approx(0.0, abs=1e-15)
        assert cosine_sim([2.0, 0.0], [5.0, 0.0]) == pytest.approx(1.0)
        assert cosine_sim([1.0, 1.0], [-2.0, -2.0]) == pytest.approx(-1.0)

    def test_cosine_zero_vector_raises(self):
        with pytest.raises(ZeroVectorError):
            cosine_sim([0.0, 0.0], [1.0, 0.0])
        with pytest.raises(ZeroVectorError):
            cosine_sim([1.0, 0.0], [1e-13, 0.0])

    def test_shape_mismatch_raises(self):
        with pytest.raises(LengthMismatchError):
            cosine_sim([1.0, 0.0], [1.0, 0.0, 0.0])


class TestLogSoftmaxStable:
    def test_matches_naive_on_benign_input(self):
        logits = np.array([0.1, -0.4, 2.0])
        lse, soft = log_softmax_stable(logits)
        assert lse == pytest.approx(math.log(np.sum(np.exp(logits))))
        np.testing.assert_allclose(soft, np.exp(logits) / np.sum(np.exp(logits)))
        assert soft.sum() == pytest.approx(1.0)

    @given(shift=st.floats(-1e4, 1e4, allow_nan=False))
    @settings(max_examples=100, deadline=None)
    def test_shift_invariance(self, shift):
        logits = np.array([0.3, -1.2, 0.9, 4.0])
        lse0, soft0 = log_softmax_stable(logits)
        lse1, soft1 = log_softmax_stable(logits + shift)
        assert lse1 - shift == pytest.approx(lse0, abs=1e-9)
        np.testing.assert_allclose(soft1, soft0, atol=1e-12)

    def test_extreme_logits_stay_finite(self):
        lse, soft = log_softmax_stable(np.array([1e308, 1e308 - 1.0]))
        assert np.isfinite(lse) and np.isfinite(soft).all()
        lse, soft = log_softmax_stable(np.array([-1e308, -1e308]))
        assert np.isfinite(lse)
        np.testing.assert_allclose(soft, 0.5)


class TestInfoNce:
    def test_two_term_identity(self):
        """value == -pos_sim + logsumexp(neg_sims) reconstructed from the
        report's own similarity fields, within 1e-12."""
        rng = np.random.default_rng(0)
        for cfg in (
            LossConfig(mode="dot", include_positive_in_denominator=False),
            LossConfig(mode="cosine", include_positive_in_denominator=False),
        ):
            for _ in range(25):
                rep = info_nce(
                    rng.standard_normal(10),
                    rng.standard_normal(10),
                    rng.standard_normal((8, 10)),
                    cfg,
                )
                lse = np.logaddexp.reduce(rep.neg_sims)
                assert rep.value == pytest.approx(-rep.pos_sim + lse, abs=1e-12)

    def test_uniform_logits_give_ln_k(self):
        a = np.array([1.0, 0.0, 0.0])
        for k in (1, 8, 16):
            rep = info_nce(a, a, np.tile(a, (k, 1)), NEGATIVES_ONLY)
            assert rep.value == pytest.approx(math.log(k), abs=1e-12)

    def test_dot_mode_loss_can_be_negative(self):
        a = np.array([10.0, 0.0])
        c = np.array([10.0, 0.0])  # pos sim 100
        negs = np.array([[0.0, 1.0], [0.0, -1.0]])  # neg sims 0
        rep = info_nce(a, c, negs, NEGATIVES_ONLY)
        assert rep.value == pytest.approx(-100.0 + math.log(2.0))
        assert rep.value < 0.0

    def test_canonical_variant_is_nonnegative(self):
        rng = np.random.default_rng(1)
        for cfg in ALL_CONFIGS[2:]:
            for _ in range(50):
                rep = info_nce(
                    rng.standard_normal(6),
                    rng.standard_normal(6),
                    rng.standard_normal((4, 6)),
                    cfg,
                )
                assert rep.value >= 0.0

    def test_matches_high_precision_oracle(self):
        rng = np.random.default_rng(2)
        for cfg in ALL_CONFIGS:
            for _ in range(12):
                a = rng.standard_normal(8)
                c = rng.standard_normal(8)
                negs = rng.standard_normal((5, 8))
                got = info_nce(a, c, negs, cfg).value
                want = info_nce_value_mp(a, c, negs, cfg)
                assert got == pytest.approx(want, abs=1e-10 * max(1.0, abs(want)))

    def test_camera_gradient_is_exact_negation_in_dot_mode(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal(12)
        rep = info_nce(a, rng.standard_normal(12), rng.standard_normal((6, 12)), NEGATIVES_ONLY)
        assert np.array_equal(rep.grad_pos_camera, -a)

    def test_gradients_match_finite_differences(self):
        rep = gradcheck_info_nce(seed=11, trials=24, dim=7, k=5, tol=1e-5)
        assert rep.passed, rep.detail

    def test_corrupted_gradient_is_caught(self):
        """Negative control: the gradient checker must fail when an error is
        deliberately injected."""
        rep = gradcheck_info_nce(seed=11, trials=8, corrupt=True)
        assert not rep.passed
        assert rep.max_err > 1e-5

    def test_zero_vectors_rejected_in_cosine_mode(self):
        cfg = LossConfig(mode="cosine")
        ok = np.ones(4)
        with pytest.raises(ZeroVectorError):
            info_nce(np.zeros(4), ok, np.ones((2, 4)), cfg)
        with pytest.raises(ZeroVectorError):
            info_nce(ok, ok, np.vstack([np.ones(4), np.zeros(4)]), cfg)

    def test_shape_errors(self):
        with pytest.raises(LengthMismatchError):
            info_nce(np.ones(4), np.ones(5), np.ones((2, 4)))
        with pytest.raises(LengthMismatchError):
            info_nce(np.ones(4), np.ones(4), np.ones((2, 5)))
        with pytest.raises(ValueError):
            info_nce(np.ones(4), np.ones(4), np.empty((0, 4)))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            LossConfig(mode="euclidean")
        with pytest.raises(ValueError):
            LossConfig(temperature=0.0)


class TestProjectionHead:
    def test_projection_shapes(self):
        head = ProjectionHead(np.ones((6, 3)))
        assert head.d_in == 6 and head.d_e == 3
        assert head.project(np.ones(6)).shape == (3,)
        assert head.project(np.ones((10, 6))).shape == (10, 3)

    def test_validation(self):
        with pytest.raises(ValueError):
            ProjectionHead(np.ones(4))
        bad = np.ones((3, 2))
        bad[0, 0] = np.inf
        with pytest.raises(ValueError):
            ProjectionHead(bad)

    def test_init_heads_seeded_lidar_first(self):
        hl, hc = init_heads(5, 3, seed=42)
        rng = np.random.default_rng(42)
        scale = 1.0 / np.sqrt(5)
        assert np.array_equal(hl.weights, rng.uniform(-1, 1, size=(5, 3)) * scale)
        assert np.array_equal(hc.weights, rng.uniform(-1, 1, size=(5, 3)) * scale)
        hl2, _ = init_heads(5, 3, seed=42)
        assert np.array_equal(hl.weights, hl2.weights)

    def test_init_heads_camera_width(self):
        hl, hc = init_heads(5, 3, seed=42, d_in_camera=7)
        rng = np.random.default_rng(42)
        assert np.array_equal(hl.weights, rng.uniform(-1, 1, size=(5, 3)) * (1.0 / np.sqrt(5)))
        assert np.array_equal(hc.weights, rng.uniform(-1, 1, size=(7, 3)) * (1.0 / np.sqrt(7)))
        same = init_heads(5, 3, seed=42, d_in_camera=5)
        default = init_heads(5, 3, seed=42)
        assert all(np.array_equal(a.weights, b.weights) for a, b in zip(same, default))


@st.composite
def ragged_scenes(draw):
    """1-3 scenes with their own lidar and camera widths and ragged negative
    lists; camera row 0 is never a positive and is every pair's negative."""
    d_l, d_c = draw(st.integers(2, 5)), draw(st.integers(2, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scenes = []
    for _ in range(draw(st.integers(1, 3))):
        n_l, n_c = draw(st.integers(2, 5)), draw(st.integers(2, 6))
        positives, negatives = [], []
        for i in range(n_l):
            j = draw(st.integers(1, n_c - 1))
            others = [b for b in range(1, n_c) if b != j]
            extra = draw(st.lists(st.sampled_from(others), unique=True)) if others else []
            positives.append((i, j))
            negatives.append((0, *extra))
        pairs = PairSet(tuple(positives), tuple(negatives))
        scenes.append(
            material(rng.standard_normal((n_l, d_l)), rng.standard_normal((n_c, d_c)), pairs)
        )
    return scenes


@st.composite
def skewed_scenes(draw):
    """2-4 scenes of 1 to 12 pairs each over 2 to 14 camera rows, with their
    own lidar and camera widths and ragged negative lists, so that most
    scenes are padded to the largest pair and camera-row counts.  A pair may
    have no negative, except the first pair of the first scene."""
    d_l, d_c = draw(st.integers(2, 6)), draw(st.integers(2, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scenes = []
    for b in range(draw(st.integers(2, 4))):
        n_p, n_c = draw(st.integers(1, 12)), draw(st.integers(2, 14))
        positives, negatives = [], []
        for i in range(n_p):
            j = draw(st.integers(0, n_c - 1))
            others = st.sampled_from([c for c in range(n_c) if c != j])
            min_k = 1 if b == i == 0 else 0
            negatives.append(tuple(draw(st.lists(others, min_size=min_k, max_size=6, unique=True))))
            positives.append((i, j))
        pairs = PairSet(tuple(positives), tuple(negatives))
        scenes.append(
            material(rng.standard_normal((n_p, d_l)), rng.standard_normal((n_c, d_c)), pairs)
        )
    return scenes


def reference_train(scenes, cfg):
    """Per-pair loop trainer used as an independent route: same math and
    step rule as train_heads (a step whose loss is not finite or rises is
    halved and retried) but with explicit outer products and no batching."""
    flat = []
    for sp in scenes:
        for (i, j), negs in zip(sp.pairs.positives, sp.pairs.negatives):
            if negs:
                flat.append(
                    (sp.lidar_feats[i], sp.camera_feats[j], sp.camera_feats[list(negs)])
                )
    p = len(flat)

    def evaluate(wl, wc):
        gl = np.zeros_like(wl)
        gc = np.zeros_like(wc)
        losses = []
        for xl, xc, xn in flat:
            rep = info_nce(xl @ wl, xc @ wc, xn @ wc, cfg.loss)
            losses.append(rep.value)
            gl += np.outer(xl, rep.grad_pos_lidar) / p
            gc += np.outer(xc, rep.grad_pos_camera) / p
            gc += xn.T @ rep.grad_negatives / p
        return float(np.mean(losses)), gl, gc

    hl, hc = init_heads(flat[0][0].shape[0], cfg.d_e, cfg.seed, flat[0][1].shape[0])
    wl, wc = hl.weights.copy(), hc.weights.copy()
    loss, gl, gc = evaluate(wl, wc)
    trace = [loss]
    for _ in range(cfg.steps):
        eta = cfg.step_size
        while True:
            new_wl, new_wc = wl - eta * gl, wc - eta * gc
            new = evaluate(new_wl, new_wc)
            if math.isfinite(new[0]) and new[0] <= loss:
                break
            eta /= 2
        wl, wc = new_wl, new_wc
        loss, gl, gc = new
        trace.append(loss)
    return wl, wc, np.asarray(trace)


class TestTrainHeads:
    def test_batched_path_matches_per_pair_reference(self):
        """Equal negative counts take the vectorized dot-mode path; it must
        agree with the explicit per-pair route to near machine precision."""
        scenes = [make_scene_pairs(n=5, d=6, k=2, seed=s) for s in (0, 1)]
        cfg = TrainConfig(steps=5, step_size=0.05, d_e=4, seed=7)
        result = train_heads(scenes, cfg)
        wl, wc, trace = reference_train(scenes, cfg)
        np.testing.assert_allclose(result.loss_trace, trace, rtol=0, atol=1e-12)
        np.testing.assert_allclose(result.head_lidar.weights, wl, rtol=0, atol=1e-12)
        np.testing.assert_allclose(result.head_camera.weights, wc, rtol=0, atol=1e-12)

    def test_ragged_and_cosine_paths_match_reference(self):
        ragged = [make_scene_pairs(n=5, d=6, k=3, seed=2, ragged=True)]
        for loss in ALL_CONFIGS:
            cfg = TrainConfig(steps=3, step_size=0.05, d_e=4, seed=1, loss=loss)
            result = train_heads(ragged, cfg)
            wl, wc, trace = reference_train(ragged, cfg)
            np.testing.assert_allclose(result.loss_trace, trace, rtol=0, atol=1e-12)
            np.testing.assert_allclose(result.head_lidar.weights, wl, rtol=0, atol=1e-12)
            np.testing.assert_allclose(result.head_camera.weights, wc, rtol=0, atol=1e-12)

    @given(scenes=ragged_scenes(), loss=st.sampled_from(ALL_CONFIGS))
    @settings(max_examples=60, deadline=None)
    def test_matches_reference_on_random_ragged_scenes(self, scenes, loss):
        """Camera row 0 of every scene is a negative of all its pairs, so its
        gradient is summed over several pairs."""
        cfg = TrainConfig(steps=3, step_size=0.05, d_e=3, seed=2, loss=loss)
        result = train_heads(scenes, cfg)
        wl, wc, trace = reference_train(scenes, cfg)
        np.testing.assert_allclose(result.loss_trace, trace, rtol=0, atol=1e-12)
        np.testing.assert_allclose(result.head_lidar.weights, wl, rtol=0, atol=1e-12)
        np.testing.assert_allclose(result.head_camera.weights, wc, rtol=0, atol=1e-12)

    @given(scenes=skewed_scenes(), loss=st.sampled_from(ALL_CONFIGS))
    @settings(max_examples=40, deadline=None)
    def test_matches_reference_on_skewed_scenes(self, scenes, loss):
        """The similarity traces, too, match oracles.info_nce's, at the
        initial and at the final heads."""
        cfg = TrainConfig(steps=3, step_size=0.05, d_e=3, seed=5, loss=loss)
        result = train_heads(scenes, cfg)
        wl, wc, trace = reference_train(scenes, cfg)
        np.testing.assert_allclose(result.loss_trace, trace, rtol=0, atol=1e-12)
        np.testing.assert_allclose(result.head_lidar.weights, wl, rtol=0, atol=1e-12)
        np.testing.assert_allclose(result.head_camera.weights, wc, rtol=0, atol=1e-12)
        initial = init_heads(result.head_lidar.d_in, 3, 5, result.head_camera.d_in)
        for t, (hl, hc) in ((0, initial), (-1, (result.head_lidar, result.head_camera))):
            reps = [
                info_nce(
                    hl.project(sp.lidar_feats[i]),
                    hc.project(sp.camera_feats[j]),
                    hc.project(sp.camera_feats[list(negs)]),
                    loss,
                )
                for sp in scenes
                for (i, j), negs in zip(sp.pairs.positives, sp.pairs.negatives)
                if negs
            ]
            pos = np.mean([r.pos_sim for r in reps])
            neg = np.mean(np.concatenate([r.neg_sims for r in reps]))
            assert result.pos_sim_trace[t] == pytest.approx(pos, rel=0, abs=1e-12)
            assert result.neg_sim_trace[t] == pytest.approx(neg, rel=0, abs=1e-12)

    @pytest.mark.parametrize("loss", ALL_CONFIGS)
    def test_padding_leaves_other_scenes_unchanged(self, loss):
        """A camera row no pair references is not laid out, and a larger
        scene, which pads the others, adds its own pairs' loss and gradient
        and nothing else: the batched sums are the per-scene ones."""
        small = make_scene_pairs(n=3, d=5, k=2, seed=3, ragged=True)
        large = make_scene_pairs(n=9, d=5, k=4, seed=4, ragged=True)
        wl, wc = (head.weights for head in init_heads(5, 4, seed=6))

        def evaluate(scenes):
            batch = _Batch.build(scenes, loss)
            sc = _pair_loss(wl, wc, batch, loss)
            return sc, _pair_grad(sc, batch), len(batch.rows)

        sc, (gl, gc), p = evaluate([small])
        extra = np.vstack([small.camera_feats, np.zeros((1, 5))])
        sc_x, (gl_x, gc_x), _ = evaluate([material(small.lidar_feats, extra, small.pairs)])
        assert sc.loss == sc_x.loss
        assert np.array_equal(gl, gl_x) and np.array_equal(gc, gc_x)

        sc_l, (gl_l, gc_l), p_l = evaluate([large])
        sc_b, (gl_b, gc_b), p_b = evaluate([small, large])
        assert p_b == p + p_l
        k = sc.s.shape[1]  # the small scene's pairs gain padded negatives
        np.testing.assert_allclose(sc_b.s[:p, :k], sc.s, rtol=1e-14, atol=0)
        np.testing.assert_allclose(sc_b.s[p:], sc_l.s, rtol=1e-14, atol=0)
        np.testing.assert_allclose(p_b * sc_b.loss, p * sc.loss + p_l * sc_l.loss, rtol=1e-13)
        np.testing.assert_allclose(p_b * gl_b, p * gl + p_l * gl_l, rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(p_b * gc_b, p * gc + p_l * gc_l, rtol=1e-12, atol=1e-14)

    def test_cosine_zero_rows(self):
        """Only a zero row that some pair references is an error."""
        rng = np.random.default_rng(8)
        lv, cv = rng.standard_normal((2, 5)), rng.standard_normal((4, 6))
        pairs = PairSet(((0, 0), (1, 1)), ((2,), (2,)))
        cfg = TrainConfig(steps=2, d_e=3, loss=LossConfig(mode="cosine"))
        base = train_heads([material(lv, cv[:3], pairs)], cfg)
        unreferenced = cv.copy()
        unreferenced[3] = 0.0
        result = train_heads([material(lv, unreferenced, pairs)], cfg)
        assert np.array_equal(result.loss_trace, base.loss_trace)
        negative = cv.copy()
        negative[2] = 0.0
        with pytest.raises(ZeroVectorError):
            train_heads([material(lv, negative, pairs)], cfg)
        lidar = lv.copy()
        lidar[1] = 0.0
        with pytest.raises(ZeroVectorError):
            train_heads([material(lidar, cv, pairs)], cfg)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_loss_raises_instead_of_halving_forever(self):
        sp = make_scene_pairs(seed=9)
        huge = material(sp.lidar_feats * 1e200, sp.camera_feats * 1e200, sp.pairs)
        with pytest.raises(FloatingPointError, match="step 0"):
            train_heads([huge], TrainConfig(steps=3, d_e=4))

    def test_loss_trace_never_rises(self):
        """Steps that would raise the loss are halved until they do not: the
        cosine loss with the positive in the denominator rises under
        fixed-size steps on this material."""
        scenes = [make_scene_pairs(n=5, d=6, k=3, seed=2, ragged=True)]
        loss = LossConfig(mode="cosine", include_positive_in_denominator=True)
        result = train_heads(scenes, TrainConfig(steps=60, step_size=0.5, d_e=4, seed=1, loss=loss))
        assert (np.diff(result.loss_trace) <= 0).all()

    def test_trace_length_and_zero_steps(self):
        scenes = [make_scene_pairs()]
        cfg = TrainConfig(steps=0, d_e=4, seed=3)
        result = train_heads(scenes, cfg)
        assert result.loss_trace.shape == (1,)
        hl, hc = init_heads(8, 4, seed=3)
        assert np.array_equal(result.head_lidar.weights, hl.weights)
        assert np.array_equal(result.head_camera.weights, hc.weights)
        assert result.mean_sq_dist_before == result.mean_sq_dist_after

    def test_training_is_deterministic(self):
        scenes = [make_scene_pairs(seed=5)]
        cfg = TrainConfig(steps=10, d_e=4, seed=0)
        a = train_heads(scenes, cfg)
        b = train_heads(scenes, cfg)
        assert np.array_equal(a.loss_trace, b.loss_trace)
        assert np.array_equal(a.head_lidar.weights, b.head_lidar.weights)
        assert np.array_equal(a.head_camera.weights, b.head_camera.weights)

    def test_loss_descends_on_identical_modalities(self):
        scenes = [make_scene_pairs(n=8, d=10, k=3, seed=6, identical=True)]
        cfg = TrainConfig(steps=80, step_size=0.2, d_e=6, seed=0, loss=LossConfig(mode="cosine"))
        result = train_heads(scenes, cfg)
        assert result.loss_trace[-1] < result.loss_trace[0]
        gap_start = result.pos_sim_trace[0] - result.neg_sim_trace[0]
        gap_end = result.pos_sim_trace[-1] - result.neg_sim_trace[-1]
        assert gap_end > gap_start

    def test_pairs_without_negatives_are_skipped(self):
        sp = make_scene_pairs(n=4, k=1)
        pairs = PairSet(sp.pairs.positives, ((), (0,), (), (1,)))
        scenes = [material(sp.lidar_feats, sp.camera_feats, pairs)]
        result = train_heads(scenes, TrainConfig(steps=1, d_e=2))
        assert result.n_pairs == 2

    def test_no_usable_pairs_raises(self):
        sp = make_scene_pairs(n=2, k=1)
        empty = PairSet(sp.pairs.positives, ((), ()))
        with pytest.raises(NoPairsError):
            train_heads([material(sp.lidar_feats, sp.camera_feats, empty)], TrainConfig())

    def test_train_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(steps=-1)
        with pytest.raises(ValueError):
            TrainConfig(step_size=0.0)
        with pytest.raises(ValueError):
            TrainConfig(d_e=0)


class TestLossTraceCsv:
    def test_header_rows_and_value_round_trip(self, tmp_path):
        scenes = [make_scene_pairs(seed=8)]
        result = train_heads(scenes, TrainConfig(steps=4, d_e=3))
        path = tmp_path / "trace.csv"
        write_loss_trace_csv(path, result)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "step,mean_loss,mean_pos_sim,mean_neg_sim"
        assert len(lines) == 1 + 5
        for t, line in enumerate(lines[1:]):
            step, loss, pos, neg = line.split(",")
            assert int(step) == t
            assert float(loss) == result.loss_trace[t]
            assert float(pos) == result.pos_sim_trace[t]
            assert float(neg) == result.neg_sim_trace[t]
