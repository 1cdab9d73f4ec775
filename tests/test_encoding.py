import numpy as np
import pytest

from ldekit.encoding import (
    AGG_MEAN,
    AGG_NORMALIZED,
    DENOM_FLOOR,
    SMOOTHING_PER_COMPONENT,
    SMOOTHING_SHARED,
    Dictionary,
    EmptySequenceError,
    LdeConfig,
    hard_assign,
    inv_softplus,
    lde_backward,
    lde_forward,
    length_normalize,
    softplus,
    tap_forward,
)
from ldekit.ndcore import DimensionError

from fdcheck import assert_grad_close, central_diff


def make_dictionary(rng, cfg, scale=1.0):
    centers = rng.normal(size=(cfg.num_components, cfg.feature_dim)) * scale
    raw = rng.normal(size=(cfg.num_components, 1)) * 0.5
    return Dictionary(centers, raw)


ALL_MODE_COMBOS = [
    (smoothing, aggregation, lennorm)
    for smoothing in (SMOOTHING_SHARED, SMOOTHING_PER_COMPONENT)
    for aggregation in (AGG_MEAN, AGG_NORMALIZED)
    for lennorm in (False, True)
]


class TestSoftplus:
    def test_roundtrip(self):
        vals = np.array([1e-4, 0.3, 1.0, 7.0])
        assert np.max(np.abs(softplus(inv_softplus(vals)) - vals)) <= 1e-12

    def test_large_input_no_overflow(self):
        assert np.isfinite(softplus(np.array([800.0]))).all()


class TestLdeForward:
    def test_tap_reduction_single_zero_center(self):
        # C=1 with the center pinned at zero and mean aggregation is the
        # plain temporal mean
        cfg = LdeConfig(1, 2, aggregation_mode=AGG_MEAN, length_normalize=False)
        d = Dictionary.zeros(cfg)
        x = np.array([[1.0, 3.0], [2.0, 4.0]])
        enc, _ = lde_forward(x[None], d, cfg)
        assert np.max(np.abs(enc.flat[0] - np.array([2.0, 3.0]))) <= 1e-15

    def test_zero_residual_dominant_center(self):
        cfg = LdeConfig(2, 3, smoothing_mode=SMOOTHING_SHARED, beta=1.0,
                        aggregation_mode=AGG_MEAN, length_normalize=False)
        centers = np.array([[1.0, -2.0, 0.5], [50.0, 50.0, 50.0]])
        d = Dictionary(centers, np.zeros((2, 1)))
        x = np.tile(centers[0][:, None], (1, 6))  # every frame equals mu_0
        enc, saved = lde_forward(x[None], d, cfg)
        assert saved.weights[0, :, 0].min() > 1 - 1e-12
        assert np.max(np.abs(enc.e[0, 0])) == 0.0

    def test_scalar_hand_evaluation(self):
        # C=2, D=1, mu=[0,1], shared beta=1, mean mode, x=[0.25, 0.75];
        # expected values computed by direct scalar evaluation of the
        # softmax weights and mean aggregation at 60-digit precision
        cfg = LdeConfig(2, 1, smoothing_mode=SMOOTHING_SHARED, beta=1.0,
                        aggregation_mode=AGG_MEAN, length_normalize=False)
        d = Dictionary(np.array([[0.0], [1.0]]), np.zeros((2, 1)))
        x = np.array([[0.25, 0.75]])
        enc, saved = lde_forward(x[None], d, cfg)
        w_expected = np.array([
            [0.62245933120185456464, 0.37754066879814543536],
            [0.37754066879814543536, 0.62245933120185456464],
        ])
        e_expected = np.array([0.21938516719953635884, -0.21938516719953635884])
        assert np.max(np.abs(saved.weights[0] - w_expected)) <= 1e-15
        assert np.max(np.abs(enc.flat[0] - e_expected)) <= 1e-15

    def test_weight_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        cfg = LdeConfig(5, 3, aggregation_mode=AGG_MEAN)
        d = make_dictionary(rng, cfg)
        x = rng.normal(size=(3, 40)) * 10
        _, saved = lde_forward(x[None], d, cfg)
        assert np.max(np.abs(saved.weights.sum(axis=2) - 1.0)) <= 1e-12
        assert np.all(saved.weights >= 0)

    def test_output_dim_independent_of_length(self):
        rng = np.random.default_rng(1)
        cfg = LdeConfig(4, 3)
        d = make_dictionary(rng, cfg)
        dims = set()
        for length in (1, 2, 17, 400):
            enc, _ = lde_forward(rng.normal(size=(1, 3, length)), d, cfg)
            dims.add(enc.flat.shape[1])
        assert dims == {12}

    def test_permutation_invariance(self):
        rng = np.random.default_rng(2)
        for smoothing, aggregation, lennorm in ALL_MODE_COMBOS:
            cfg = LdeConfig(3, 4, smoothing_mode=smoothing, beta=0.7,
                            aggregation_mode=aggregation,
                            length_normalize=lennorm)
            d = make_dictionary(rng, cfg)
            x = rng.normal(size=(4, 25))
            perm = rng.permutation(25)
            a, _ = lde_forward(x[None], d, cfg)
            b, _ = lde_forward(x[None, :, perm], d, cfg)
            assert np.max(np.abs(a.flat - b.flat)) <= 1e-12

    def test_translation_covariance_mean_mode(self):
        rng = np.random.default_rng(3)
        cfg = LdeConfig(3, 5, aggregation_mode=AGG_MEAN, length_normalize=False)
        d = make_dictionary(rng, cfg)
        x = rng.normal(size=(5, 30))
        shift = rng.normal(size=(5,))
        a, sa = lde_forward(x[None], d, cfg)
        d_shifted = Dictionary(d.centers.value + shift[None, :],
                               d.smoothing.value.copy())
        b, sb = lde_forward((x + shift[:, None])[None], d_shifted, cfg)
        assert np.max(np.abs(sa.weights - sb.weights)) <= 1e-10
        assert np.max(np.abs(a.flat - b.flat)) <= 1e-10

    def test_normalized_mode_flags_empty_soft_cluster(self):
        # second center is so far away that its total soft mass underflows
        cfg = LdeConfig(2, 1, smoothing_mode=SMOOTHING_SHARED, beta=2.0,
                        aggregation_mode=AGG_NORMALIZED, length_normalize=False)
        d = Dictionary(np.array([[0.0], [100.0]]), np.zeros((2, 1)))
        x = np.zeros((1, 1, 3))
        enc, saved = lde_forward(x, d, cfg)
        assert saved.floored.tolist() == [[False, True]]
        assert np.isfinite(enc.flat).all()

    def test_empty_sequence_rejected(self):
        cfg = LdeConfig(2, 3)
        d = Dictionary.zeros(cfg)
        with pytest.raises(EmptySequenceError):
            lde_forward(np.zeros((1, 3, 0)), d, cfg)

    def test_dictionary_config_mismatch_rejected(self):
        cfg = LdeConfig(2, 3)
        d = Dictionary.zeros(LdeConfig(4, 3))
        with pytest.raises(DimensionError):
            lde_forward(np.zeros((1, 3, 5)), d, cfg)

    def test_length_normalized_output_has_unit_norm(self):
        rng = np.random.default_rng(4)
        cfg = LdeConfig(3, 2, length_normalize=True)
        d = make_dictionary(rng, cfg)
        enc, _ = lde_forward(rng.normal(size=(1, 2, 12)), d, cfg)
        assert abs(np.linalg.norm(enc.flat[0]) - 1.0) <= 1e-12


class TestLdeBackward:
    def test_zero_upstream_grad_gives_zero_grads(self):
        rng = np.random.default_rng(5)
        cfg = LdeConfig(3, 2)
        d = make_dictionary(rng, cfg)
        x = rng.normal(size=(1, 2, 7))
        _, saved = lde_forward(x, d, cfg)
        gx = lde_backward(saved, np.zeros((1, 3, 2)), d)
        assert np.all(gx == 0)
        assert np.all(d.centers.grad == 0)
        assert np.all(d.smoothing.grad == 0)

    def test_tap_gradient_replicates_upstream_over_frames(self):
        cfg = LdeConfig(1, 2, aggregation_mode=AGG_MEAN, length_normalize=False)
        d = Dictionary.zeros(cfg)
        x = np.random.default_rng(6).normal(size=(1, 2, 5))
        _, saved = lde_forward(x, d, cfg)
        g = np.array([[0.3, -1.2]])
        gx = lde_backward(saved, g[None], d)
        assert np.max(np.abs(gx[0] - g.reshape(2, 1) / 5.0)) <= 1e-15

    def test_grad_shape_mismatch_rejected(self):
        cfg = LdeConfig(2, 2)
        d = Dictionary.zeros(cfg)
        _, saved = lde_forward(np.ones((1, 2, 3)), d, cfg)
        with pytest.raises(Exception):
            lde_backward(saved, np.zeros((1, 3, 3)), d)

    def test_transposed_grad_of_the_right_size_rejected(self):
        # B=1, C=3, D=2: the (1, D, C) transpose holds the right number of
        # entries in the wrong layout
        rng = np.random.default_rng(9)
        cfg = LdeConfig(3, 2)
        d = make_dictionary(rng, cfg)
        _, saved = lde_forward(rng.normal(size=(1, 2, 4)), d, cfg)
        g = rng.normal(size=(1, 3, 2))
        lde_backward(saved, g, d)
        lde_backward(saved, g.reshape(1, 6), d)
        with pytest.raises(DimensionError):
            lde_backward(saved, g.transpose(0, 2, 1), d)

    @pytest.mark.parametrize("smoothing,aggregation,lennorm", ALL_MODE_COMBOS)
    def test_matches_central_differences(self, smoothing, aggregation, lennorm):
        # C=3, D=2, L=5 random instance; every partial (input, centers,
        # raw smoothing) against central differences of the full forward
        rng = np.random.default_rng(42)
        cfg = LdeConfig(3, 2, smoothing_mode=smoothing, beta=0.8,
                        aggregation_mode=aggregation, length_normalize=lennorm)
        d = make_dictionary(rng, cfg)
        x = rng.normal(size=(2, 5))
        probe = rng.normal(size=6)

        def phi():
            enc, _ = lde_forward(x[None], d, cfg)
            return float(np.dot(probe, enc.flat[0]))

        _, saved = lde_forward(x[None], d, cfg)
        d.centers.zero_grad()
        d.smoothing.zero_grad()
        gx = lde_backward(saved, probe.reshape(1, 3, 2), d)

        assert_grad_close(gx[0], central_diff(phi, x), 1e-5, "input")
        assert_grad_close(d.centers.grad, central_diff(phi, d.centers.value),
                          1e-5, "centers")
        if smoothing == SMOOTHING_PER_COMPONENT:
            assert_grad_close(d.smoothing.grad,
                              central_diff(phi, d.smoothing.value),
                              1e-5, "smoothing")

    def test_grads_accumulate_across_calls(self):
        rng = np.random.default_rng(8)
        cfg = LdeConfig(2, 2)
        d = make_dictionary(rng, cfg)
        x = rng.normal(size=(1, 2, 4))
        g = rng.normal(size=(1, 2, 2))
        _, saved = lde_forward(x, d, cfg)
        lde_backward(saved, g, d)
        once = d.centers.grad.copy()
        _, saved = lde_forward(x, d, cfg)
        lde_backward(saved, g, d)
        assert np.max(np.abs(d.centers.grad - 2 * once)) <= 1e-12


def direct_lde(x, centers, raw, cfg, grad_out):
    """The encoder on one D x L sequence in direct form, with the explicit
    L x C x D residual tensor: the output vector and the gradients of
    sum(grad_out * output) w.r.t. the input, centers and raw smoothing."""
    frames = x.T
    res = frames[:, None, :] - centers[None, :, :]
    sq = (res ** 2).sum(axis=2)
    if cfg.smoothing_mode == SMOOTHING_SHARED:
        s = np.full(centers.shape[0], cfg.beta)
    else:
        s = softplus(raw[:, 0])
    logits = -sq * s
    w = np.exp(logits - logits.max(axis=1, keepdims=True))
    w /= w.sum(axis=1, keepdims=True)
    if cfg.aggregation_mode == AGG_MEAN:
        denom = np.full(centers.shape[0], float(frames.shape[0]))
        live = np.ones(centers.shape[0], dtype=bool)
    else:
        mass = w.sum(axis=0)
        live = mass >= DENOM_FLOOR
        denom = np.maximum(mass, DENOM_FLOOR)
    e = (w[:, :, None] * res).sum(axis=0) / denom[:, None]
    pre = e.reshape(-1)
    norm = np.sqrt(pre @ pre)
    scaled = cfg.length_normalize and norm > DENOM_FLOOR
    out = pre / norm if scaled else pre

    g = grad_out.reshape(-1)
    if scaled:
        g = (g - (g @ out) * out) / norm
    g = g.reshape(e.shape)
    dw = np.einsum("cd,tcd->tc", g, res) / denom
    if cfg.aggregation_mode == AGG_NORMALIZED:
        dw -= np.where(live, (g * e).sum(axis=1) / denom, 0.0)
    u = w * (dw - (dw * w).sum(axis=1, keepdims=True))
    dres = ((w / denom)[:, :, None] * g[None, :, :]
            - 2.0 * (u * s)[:, :, None] * res)
    dsmooth = -(u * sq).sum(axis=0) / (1.0 + np.exp(-raw[:, 0]))
    return out, dres.sum(axis=1).T, -dres.sum(axis=0), dsmooth[:, None]


def mixed_batch(rng):
    """Centers 40 apart and a 4-member batch: soft weights over all three
    centers; frames near center 0 only (centers 1 and 2 get no mass);
    every frame exactly on center 0 (zero residual, zero norm); spread."""
    centers = np.array([[0.5, -1.0], [0.5, 39.0], [40.5, -1.0]])
    x = np.empty((4, 2, 6))
    steps = 0.05 * np.arange(3)
    x[0] = np.array([[0.5, 0.5, 0.5, 20.5, 20.55, 20.6],
                     np.concatenate([19.0 + steps, [-1.0, -1.0, -1.0]])])
    x[1] = centers[0][:, None] + 0.5 * rng.normal(size=(2, 6))
    x[2] = centers[0][:, None]
    x[3] = 10.0 + 8.0 * rng.normal(size=(2, 6))
    return centers, x


class TestBatchedParity:
    @pytest.mark.parametrize("smoothing,aggregation,lennorm", ALL_MODE_COMBOS)
    def test_matches_direct_residual_form(self, smoothing, aggregation,
                                          lennorm):
        rng = np.random.default_rng(17)
        cfg = LdeConfig(3, 2, smoothing_mode=smoothing, beta=1.0,
                        aggregation_mode=aggregation, length_normalize=lennorm)
        centers, x = mixed_batch(rng)
        raw = inv_softplus(np.array([[1.0], [1.0005], [0.9995]]))
        d = Dictionary(centers, raw)
        probe = rng.normal(size=(4, 6))

        enc, saved = lde_forward(x, d, cfg)
        gx = lde_backward(saved, probe, d)
        refs = [direct_lde(x[b], centers, raw, cfg, probe[b]) for b in range(4)]

        def rel(a, b):
            return np.max(np.abs(a - b)) / max(np.max(np.abs(b)), 1e-300)

        assert rel(enc.flat, np.stack([r[0] for r in refs])) <= 1e-12
        assert rel(gx, np.stack([r[1] for r in refs])) <= 1e-12
        assert rel(d.centers.grad, sum(r[2] for r in refs)) <= 1e-12
        if smoothing == SMOOTHING_PER_COMPONENT:
            assert rel(d.smoothing.grad, sum(r[3] for r in refs)) <= 1e-12
        else:
            assert np.all(d.smoothing.grad == 0)

        assert saved.zero_norm.tolist() == [False, False, lennorm, False]
        floored = [[False] * 3, [False, True, True], [False, True, True],
                   [False] * 3]
        assert saved.floored.tolist() == (floored
                                          if aggregation == AGG_NORMALIZED
                                          else [[False] * 3] * 4)

    def test_saved_distances_and_weights_are_frame_major(self):
        # the forward pass runs component-major, but the gate and the
        # backward pass read `sq_dists` and `weights` as B x L x C
        rng = np.random.default_rng(19)
        cfg = LdeConfig(3, 2)
        _, x = mixed_batch(rng)
        _, saved = lde_forward(x, make_dictionary(rng, cfg), cfg)
        assert saved.sq_dists.shape == saved.weights.shape == (4, 6, 3)
        residuals = x.transpose(0, 2, 1)[:, :, None, :] - saved.centers
        ref = np.einsum("blcd,blcd->blc", residuals, residuals)
        assert np.max(np.abs(saved.sq_dists - ref) / ref) <= 1e-10
        assert np.max(np.abs(saved.weights.sum(axis=2) - 1.0)) <= 1e-12


class TestTapForward:
    def test_constant_sequence(self):
        v = np.array([1.5, -2.0, 0.25])
        x = np.tile(v[:, None], (1, 1, 9))
        assert np.array_equal(tap_forward(x), v[None])

    def test_hand_case(self):
        assert np.array_equal(tap_forward(np.array([[[1.0, 3.0], [2.0, 4.0]]])),
                              np.array([[2.0, 3.0]]))

    def test_equals_degenerate_lde_on_random_inputs(self):
        rng = np.random.default_rng(9)
        cfg = LdeConfig(1, 3, aggregation_mode=AGG_MEAN, length_normalize=False)
        d = Dictionary.zeros(cfg)
        for _ in range(100):
            x = rng.normal(size=(1, 3, int(rng.integers(1, 40))))
            enc, _ = lde_forward(x, d, cfg)
            assert np.max(np.abs(enc.flat - tap_forward(x))) <= 1e-12

    def test_empty_rejected(self):
        with pytest.raises(EmptySequenceError):
            tap_forward(np.zeros((1, 3, 0)))


class TestLengthNormalize:
    def test_hand_case(self):
        out, flag = length_normalize(np.array([[3.0, 4.0]]))
        assert flag.tolist() == [False]
        assert np.max(np.abs(out - np.array([[0.6, 0.8]]))) <= 1e-15

    def test_zero_vector_flagged(self):
        out, flag = length_normalize(np.zeros((1, 4)))
        assert flag.tolist() == [True]
        assert np.array_equal(out, np.zeros((1, 4)))

    def test_random_outputs_unit_norm(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            v = rng.normal(size=int(rng.integers(1, 30))) * 10.0 ** rng.integers(-3, 4)
            out, flag = length_normalize(v[None])
            assert flag.tolist() == [False]
            assert abs(np.linalg.norm(out[0]) - 1.0) <= 1e-12


class TestHardAssign:
    def test_frame_at_center(self):
        d = Dictionary(np.array([[0.0, 0.0], [5.0, 5.0], [-3.0, 1.0]]),
                       np.zeros((3, 1)))
        x = np.array([[5.0], [5.0]])
        assert hard_assign(x, d).tolist() == [1]

    def test_tie_goes_to_lowest_index(self):
        d = Dictionary(np.array([[0.0], [10.0], [1.0]]), np.zeros((3, 1)))
        x = np.array([[0.5]])  # exactly between centers 0 and 2
        assert hard_assign(x, d).tolist() == [0]

    def test_large_beta_soft_weights_match_hard_assignment(self):
        rng = np.random.default_rng(11)
        cfg = LdeConfig(4, 3, smoothing_mode=SMOOTHING_SHARED, beta=1e6,
                        aggregation_mode=AGG_MEAN, length_normalize=False)
        d = make_dictionary(rng, cfg)
        x = rng.normal(size=(3, 50))
        _, saved = lde_forward(x[None], d, cfg)
        assert np.array_equal(np.argmax(saved.weights[0], axis=1),
                              hard_assign(x, d))

    def test_kmeans_limit_monotone_in_beta(self):
        rng = np.random.default_rng(12)
        d = Dictionary(rng.normal(size=(3, 2)), np.zeros((3, 1)))
        x = rng.normal(size=(2, 40))
        hard = hard_assign(x, d)
        onehot = np.zeros((40, 3))
        onehot[np.arange(40), hard] = 1.0
        deviations = []
        for beta in (1e2, 1e4, 1e6):
            cfg = LdeConfig(3, 2, smoothing_mode=SMOOTHING_SHARED, beta=beta,
                            aggregation_mode=AGG_MEAN, length_normalize=False)
            _, saved = lde_forward(x[None], d, cfg)
            deviations.append(np.max(np.abs(saved.weights[0] - onehot)))
        assert deviations[0] > deviations[1] >= deviations[2]
