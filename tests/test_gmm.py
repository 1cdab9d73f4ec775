import dataclasses
import logging

import numpy as np
import pytest

from ldekit import gmm
from ldekit.gmm import (
    VAR_FLOOR_FRACTION,
    GmmModel,
    _assign,
    _kmeans,
    accumulate_stats,
    em_fit,
    gmm_classify,
    log_densities,
    log_posterior_scores,
    posteriors,
)
from ldekit.encoding import (
    AGG_NORMALIZED,
    DENOM_FLOOR,
    SMOOTHING_SHARED,
    Dictionary,
    LdeConfig,
    lde_forward,
)
from ldekit.ndcore import (
    DimensionError,
    Rng,
    log_sum_exp_rows,
    softmax_rows,
    sq_dists,
)


def random_model(rng, num_components, dim):
    w = rng.uniform(0.5, 1.5, size=num_components)
    w /= w.sum()
    return GmmModel(weights=w,
                    means=rng.normal(size=(num_components, dim)),
                    variances=rng.uniform(0.3, 2.0, size=(num_components, dim)))


class TestGmmModel:
    @pytest.mark.parametrize("override", [
        {"weights": [np.nan], "variances": [[np.nan, 1.0]]},
        {"weights": [np.nan]},
        {"means": [[np.inf, 0.0]]},
        {"means": [[0.0, -np.inf]]},
        {"variances": [[1.0, np.inf]]},
    ])
    def test_non_finite_parameters_rejected(self, override):
        parts = {"weights": [1.0], "means": np.zeros((1, 2)),
                 "variances": np.ones((1, 2)), **override}
        with pytest.raises(ValueError, match="finite"):
            GmmModel(**parts)

    @pytest.mark.parametrize("override", [
        {"means": [[1e200, 0.0]]},
        {"variances": [[1e-310, 1.0]]},
    ])
    def test_overflowing_natural_form_rejected(self, override):
        parts = {"weights": [1.0], "means": np.zeros((1, 2)),
                 "variances": np.ones((1, 2)), **override}
        with pytest.raises(ValueError, match="overflow"):
            GmmModel(**parts)

    @pytest.mark.parametrize("shape", [(2,), (1, 2, 3)])
    def test_means_of_the_wrong_rank_rejected(self, shape):
        with pytest.raises(DimensionError, match="C x D"):
            GmmModel(weights=[1.0], means=np.zeros(shape),
                     variances=np.ones(shape))

    def test_parameters_are_read_only_copies(self):
        rng = np.random.default_rng(15)
        parts = {"weights": np.array([0.25, 0.75]),
                 "means": rng.normal(size=(2, 3)),
                 "variances": rng.uniform(0.5, 2.0, size=(2, 3))}
        kept = {name: a.copy() for name, a in parts.items()}
        m = GmmModel(**parts)
        for name in ("weights", "means", "variances", "natural", "log_norm"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(m, name)[0] = 1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            m.means = np.zeros((2, 3))
        for name, a in parts.items():
            assert a.flags.writeable
            a[0] = 7.0  # the caller's array is its own
            assert np.array_equal(getattr(m, name), kept[name])

    def test_natural_parameters_give_the_log_densities(self):
        rng = np.random.default_rng(16)
        m = random_model(rng, 3, 4)
        x = rng.normal(size=(4, 1))
        direct = (np.log(m.weights)
                  - 0.5 * np.log(2 * np.pi * m.variances).sum(axis=1)
                  - 0.5 * ((x[:, 0] - m.means) ** 2 / m.variances).sum(axis=1))
        got = m.natural @ np.concatenate([x, x ** 2])[:, 0] + m.log_norm
        assert np.max(np.abs(got - direct)) <= 1e-12 * np.max(np.abs(direct))


class TestPosteriors:
    def test_single_component_is_exactly_one(self):
        m = GmmModel(np.array([1.0]), np.zeros((1, 3)), np.ones((1, 3)))
        p = posteriors(m, np.random.default_rng(0).normal(size=(3, 7)))
        assert np.array_equal(p, np.ones((7, 1)))

    def test_midpoint_of_symmetric_components(self):
        m = GmmModel(np.array([0.5, 0.5]),
                     np.array([[-1.0], [1.0]]),
                     np.ones((2, 1)))
        p = posteriors(m, np.array([[0.0]]))
        assert np.max(np.abs(p - 0.5)) <= 1e-12

    def test_matches_direct_density_ratio_oracle(self):
        import mpmath

        mpmath.mp.dps = 50
        rng = np.random.default_rng(1)
        m = random_model(rng, 3, 2)
        x = rng.normal(size=(2, 1))
        frame = x[:, 0]

        joint = []
        for c in range(3):
            acc = mpmath.mpf(1)
            for d in range(2):
                var = mpmath.mpf(m.variances[c, d])
                diff = mpmath.mpf(frame[d]) - mpmath.mpf(m.means[c, d])
                acc *= mpmath.exp(-diff ** 2 / (2 * var)) / mpmath.sqrt(
                    2 * mpmath.pi * var)
            joint.append(mpmath.mpf(m.weights[c]) * acc)
        total = sum(joint)
        expected = np.array([float(j / total) for j in joint])

        p = posteriors(m, x)
        assert np.max(np.abs(p[0] - expected)) <= 1e-10

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(2)
        m = random_model(rng, 5, 4)
        p = posteriors(m, rng.normal(size=(4, 60)) * 3)
        assert np.max(np.abs(p.sum(axis=1) - 1.0)) <= 1e-10
        assert np.isfinite(p).all()


class TestAccumulateStats:
    def test_single_component_closed_form(self):
        rng = np.random.default_rng(3)
        mu = rng.normal(size=(1, 3))
        m = GmmModel(np.array([1.0]), mu, np.ones((1, 3)))
        x = rng.normal(size=(3, 11))
        stats = accumulate_stats(m, x)
        assert abs(stats.n[0] - 11) <= 1e-12
        expected = (x.T - mu[0]).sum(axis=0)
        assert np.max(np.abs(stats.f[0] - expected)) <= 1e-10

    def test_frames_at_dominant_mean_give_zero_first_order(self):
        m = GmmModel(np.array([0.5, 0.5]),
                     np.array([[0.0, 0.0], [30.0, 30.0]]),
                     np.ones((2, 2)))
        x = np.zeros((2, 9))
        stats = accumulate_stats(m, x)
        assert np.max(np.abs(stats.f[0])) <= 1e-9

    def test_matches_per_frame_loop_oracle(self):
        rng = np.random.default_rng(4)
        m = random_model(rng, 4, 3)
        x = rng.normal(size=(3, 25))
        p = posteriors(m, x)
        n_ref = np.zeros(4)
        f_ref = np.zeros((4, 3))
        for t in range(25):
            for c in range(4):
                n_ref[c] += p[t, c]
                f_ref[c] += p[t, c] * (x[:, t] - m.means[c])
        stats = accumulate_stats(m, x)
        assert np.max(np.abs(stats.n - n_ref)) <= 1e-10
        assert np.max(np.abs(stats.f - f_ref)) <= 1e-10

    def test_counts_sum_to_num_frames(self):
        rng = np.random.default_rng(5)
        m = random_model(rng, 6, 2)
        for length in (1, 13, 200):
            stats = accumulate_stats(m, rng.normal(size=(2, length)) * 4)
            assert abs(stats.n.sum() - length) <= 1e-9
            assert np.all(stats.n >= 0)
            assert np.all(stats.n <= length + 1e-9)


def lde_as_gmm(means, var, x):
    """The dictionary encoder in the configuration that mirrors a GMM with
    equal weights and one shared variance `var` on one D x L sequence."""
    cfg = LdeConfig(means.shape[0], means.shape[1],
                    smoothing_mode=SMOOTHING_SHARED, beta=1.0 / (2.0 * var),
                    aggregation_mode=AGG_NORMALIZED, length_normalize=False)
    enc, saved = lde_forward(x[None],
                             Dictionary(means, np.zeros((len(means), 1))), cfg)
    return enc.e[0], saved.floored[0]


class TestLdeContainsSupervector:
    def test_centered_means_equal_lde_output(self):
        # equal weights and a shared isotropic variance make the GMM
        # posteriors softmax(-||x - mu_c||^2 / (2 var)), the encoder's
        # weights at beta = 1 / (2 var), so f_c / n_c is its output
        rng = np.random.default_rng(20)
        for _ in range(50):
            comp, dim = int(rng.integers(1, 7)), int(rng.integers(1, 5))
            var = float(rng.uniform(0.3, 3.0))
            means = rng.normal(size=(comp, dim)) * 2.0
            m = GmmModel(np.full(comp, 1.0 / comp), means,
                         np.full((comp, dim), var))
            x = rng.normal(size=(dim, int(rng.integers(1, 60)))) * 2.0
            stats = accumulate_stats(m, x)
            e, floored = lde_as_gmm(means, var, x)
            ref = stats.f / stats.n[:, None]
            assert not floored.any()
            assert np.max(np.abs(e - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_below_floor_lde_clamps_the_count(self):
        # a component whose count falls under DENOM_FLOOR is flagged and
        # divided by the floor, not zeroed or divided by its tiny count
        means = np.array([[0.0], [12.0]])
        m = GmmModel(np.array([0.5, 0.5]), means, np.ones((2, 1)))
        x = np.array([[0.0, 0.1, -0.1]])
        stats = accumulate_stats(m, x)
        assert 0.0 < stats.n[1] < DENOM_FLOOR
        e, floored = lde_as_gmm(means, 1.0, x)
        assert floored.tolist() == [False, True]
        assert abs(e[0, 0] - stats.f[0, 0] / stats.n[0]) <= 1e-12
        assert abs(e[1, 0] - stats.f[1, 0] / DENOM_FLOOR) <= \
            1e-12 * abs(stats.f[1, 0] / DENOM_FLOOR)


def reference_kmeans(frames, num_components, iters, rng):
    """Lloyd iterations with one boolean mask per cluster, as `_kmeans`
    computed them before it grouped members by a sort; also returns how
    many empty clusters were re-seeded."""
    n = frames.shape[0]
    centers = frames[rng.choice(n, num_components, replace=False)].copy()
    reseeds = 0
    for _ in range(iters):
        d2 = sq_dists(centers, frames.T).T
        assign = np.argmin(d2, axis=1)
        for c in range(num_components):
            members = frames[assign == c]
            if len(members) == 0:
                centers[c] = frames[np.argmax(d2[:, c])]
                reseeds += 1
            else:
                centers[c] = members.mean(axis=0)
    return centers, reseeds


def reference_em_fit(frames, num_components, iters, rng):
    """EM with a separate log-sum-exp and softmax per E-step and the
    squared frames rebuilt per M-step, as `em_fit` computed them before
    it fused the E-step and kept the squares. It reads the module's
    `EMPTY_COMPONENT_FLOOR` when it runs, so a test may lower or raise
    it for both fits."""
    frames = np.asarray(frames, dtype=np.float64)
    dim = frames.shape[1]
    global_var = frames.var(axis=0)
    var_floor = np.maximum(VAR_FLOOR_FRACTION * global_var, 1e-12)
    centers, _ = reference_kmeans(frames, num_components, 10, rng)
    assign = np.argmin(sq_dists(centers, frames.T).T, axis=1)
    counts = np.maximum(np.bincount(assign, minlength=num_components), 1.0)
    variances = np.empty((num_components, dim))
    for c in range(num_components):
        members = frames[assign == c]
        scatter = members.var(axis=0) if len(members) > 1 else global_var
        variances[c] = np.maximum(scatter, var_floor)
    model = GmmModel(counts / counts.sum(), centers, variances)
    history = []
    for _ in range(iters):
        logdens = log_densities(model, frames)
        history.append(float(log_sum_exp_rows(logdens).sum()))
        post = softmax_rows(logdens)
        n = post.sum(axis=0)
        empty = np.flatnonzero(n < gmm.EMPTY_COMPONENT_FLOOR)
        if len(empty) > 0:
            donor = int(np.argmax(model.variances.sum(axis=1)))
            means, variances = model.means.copy(), model.variances.copy()
            for c in empty:
                jitter = rng.normal((dim,)) * np.sqrt(variances[donor])
                means[c] = means[donor] + 0.1 * jitter
                variances[c] = variances[donor].copy()
            model = GmmModel(model.weights, means, variances)
            post = softmax_rows(log_densities(model, frames))
            n = np.maximum(post.sum(axis=0), gmm.EMPTY_COMPONENT_FLOOR)
        means = (post.T @ frames) / n[:, None]
        sq = (post.T @ (frames ** 2)) / n[:, None]
        model = GmmModel(n / n.sum(), means,
                         np.maximum(sq - means ** 2, var_floor))
    return model, history


def assert_same_fit(fit_a, fit_b):
    (a, history_a), (b, history_b) = fit_a, fit_b
    for name in ("weights", "means", "variances"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert history_a == history_b


# components are summed in another order than the references sum them, so
# they agree to rounding, not bit for bit
REL_TOL = 1e-12


def max_rel_diff(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


def assert_close_fit(fit_a, fit_b):
    (a, history_a), (b, history_b) = fit_a, fit_b
    for name in ("weights", "means", "variances"):
        assert max_rel_diff(getattr(a, name), getattr(b, name)) <= REL_TOL, \
            name
    assert len(history_a) == len(history_b)
    for got, want in zip(history_a, history_b):
        assert max_rel_diff(got, want) <= REL_TOL


def test_assign_picks_argmax_rows_ties_included():
    gen = np.random.default_rng(46)
    centers = gen.normal(size=(7, 4))
    # equal centers tie on every frame: 0 with 3, and 2 with 4 and 5
    centers[3] = centers[0]
    centers[[4, 5]] = centers[2]
    x = np.hstack([gen.normal(size=(4, 500)), centers[[2, 0, 6]].T])
    onehot = _assign(centers, x)
    score = centers @ x - 0.5 * (centers ** 2).sum(axis=1)[:, None]
    want = np.arange(7)[:, None] == score.argmax(axis=0)
    assert np.array_equal(onehot, want.astype(np.float64))
    assert onehot[[3, 4, 5]].sum() == 0
    assert onehot[0].sum() > 0 and onehot[2].sum() > 0


class TestKmeans:
    @pytest.mark.parametrize("seed", range(5))
    def test_centers_bit_identical_to_mask_loop(self, seed):
        gen = np.random.default_rng(40 + seed)
        frames = np.vstack([gen.normal(size=(300, 5)) * s + off
                            for s, off in
                            ((1.0, 0.0), (0.4, 2.5), (2.0, -3.0))])
        got = _kmeans(frames, 8, 10, Rng(seed))
        want, _ = reference_kmeans(frames, 8, 10, Rng(seed))
        assert max_rel_diff(got, want) <= REL_TOL

    def test_empty_cluster_reseed_bit_identical(self):
        # most frames repeat one row, so the initial draw holds duplicate
        # centers and every duplicate after the first gets no members
        gen = np.random.default_rng(45)
        frames = gen.normal(size=(200, 3))
        frames[:150] = frames[0]
        got = _kmeans(frames, 6, 5, Rng(6))
        want, reseeds = reference_kmeans(frames, 6, 5, Rng(6))
        assert reseeds > 0
        assert max_rel_diff(got, want) <= REL_TOL


class TestEmFit:
    def test_single_component_closed_form(self):
        rng = np.random.default_rng(7)
        frames = rng.normal(size=(400, 3)) * 1.7 + 0.4
        model, _ = em_fit(frames, 1, 5, Rng(0))
        assert np.max(np.abs(model.means[0] - frames.mean(axis=0))) <= 1e-10
        assert np.max(np.abs(model.variances[0] - frames.var(axis=0))) <= 1e-10
        assert abs(model.weights[0] - 1.0) <= 1e-12

    def test_recovers_well_separated_two_component_mixture(self):
        rng = np.random.default_rng(8)
        a = rng.normal(size=(500, 2)) * 0.5 + np.array([3.0, 3.0])
        b = rng.normal(size=(500, 2)) * 0.5 + np.array([-3.0, -3.0])
        frames = np.vstack([a, b])
        model, _ = em_fit(frames, 2, 50, Rng(1))
        order = np.argsort(model.means[:, 0])
        assert np.max(np.abs(model.means[order[0]] - [-3.0, -3.0])) <= 0.1
        assert np.max(np.abs(model.means[order[1]] - [3.0, 3.0])) <= 0.1

    def test_log_likelihood_monotone(self):
        rng = np.random.default_rng(9)
        frames = np.vstack([rng.normal(size=(150, 2)) * s + off
                            for s, off in ((1.0, 0.0), (0.5, 2.0), (2.0, -3.0))])
        _, history = em_fit(frames, 3, 20, Rng(2))
        assert len(history) == 20
        diffs = np.diff(history)
        assert np.all(diffs >= -1e-8)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(10)
        frames = rng.normal(size=(300, 2))
        m1, h1 = em_fit(frames, 3, 10, Rng(5))
        m2, h2 = em_fit(frames, 3, 10, Rng(5))
        assert np.array_equal(m1.means, m2.means)
        assert h1 == h2

    def test_too_few_frames_rejected(self):
        with pytest.raises(ValueError):
            em_fit(np.zeros((15, 2)), 2, 5, Rng(0))

    def test_variances_floored(self):
        # duplicated frames give zero within-cluster scatter in one dim
        rng = np.random.default_rng(11)
        frames = rng.normal(size=(100, 2))
        frames[:, 1] = np.round(frames[:, 1] * 0)  # constant dim
        frames[0, 1] = 1.0  # keep global variance positive
        model, _ = em_fit(frames, 2, 10, Rng(3))
        assert np.all(model.variances > 0)

    @pytest.mark.parametrize("seed", range(3))
    def test_bit_identical_to_separate_e_step(self, seed):
        gen = np.random.default_rng(50 + seed)
        frames = np.vstack([gen.normal(size=(400, 4)) * s + off
                            for s, off in
                            ((1.0, 0.0), (0.5, 2.0), (2.0, -3.0))])
        assert_close_fit(em_fit(frames, 6, 8, Rng(seed)),
                         reference_em_fit(frames, 6, 8, Rng(seed)))

    # at 120 the first E-step leaves one component under the floor; at
    # 200 three, and from the third iteration on the donor is one of them
    @pytest.mark.parametrize("floor,reseeds", [(120.0, 1), (200.0, 12)])
    def test_empty_component_reseed_matches_reference(self, monkeypatch,
                                                      caplog, floor, reseeds):
        gen = np.random.default_rng(60)
        frames = np.vstack([gen.normal(size=(400, 3)) * s + off
                            for s, off in
                            ((1.0, 0.0), (0.5, 2.0), (2.0, -3.0))])
        monkeypatch.setattr(gmm, "EMPTY_COMPONENT_FLOOR", floor)
        with caplog.at_level(logging.WARNING, logger="ldekit.gmm"):
            got = em_fit(frames, 5, 4, Rng(1))
        warned = [r.getMessage() for r in caplog.records]
        assert len(warned) == reseeds
        assert warned[0] == ("re-seeding empty component 0 near component 2 "
                             "(iteration 0)")
        assert_close_fit(got, reference_em_fit(frames, 5, 4, Rng(1)))

    def test_strided_input_fits_like_its_copy(self):
        x = np.random.default_rng(13).normal(size=(3000, 7))
        assert not x[::3].flags.c_contiguous
        assert_same_fit(em_fit(x[::3], 8, 6, Rng(7)),
                        em_fit(x[::3].copy(), 8, 6, Rng(7)))
        # the layout of a pooled class: the N x D view of a D x N array
        assert_same_fit(em_fit(np.asfortranarray(x), 8, 6, Rng(7)),
                        em_fit(x, 8, 6, Rng(7)))

    def test_memory_stays_below_a_frames_by_centers_tensor(self):
        import tracemalloc
        n, d, c = 5000, 56, 16
        frames = np.random.default_rng(12).normal(size=(n, d))
        tracemalloc.start()
        try:
            em_fit(frames, c, 2, Rng(4))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one N x C x D float64 array would take n * c * d * 8 bytes
        assert peak < n * c * d * 8 / 2


class TestGmmClassify:
    def test_identical_models_give_identical_scores(self):
        rng = np.random.default_rng(12)
        m = random_model(rng, 3, 2)
        x = rng.normal(size=(2, 15))
        scores = gmm_classify([m, m, m], x)
        assert np.max(np.abs(scores - scores[0])) == 0.0

    def test_frame_at_model_mean_scores_higher(self):
        near = GmmModel(np.array([1.0]), np.zeros((1, 2)), np.ones((1, 2)))
        far = GmmModel(np.array([1.0]), np.full((1, 2), 8.0), np.ones((1, 2)))
        scores = gmm_classify([near, far], np.zeros((2, 5)))
        assert scores[0] > scores[1]

    def test_matches_per_frame_loop_oracle(self):
        rng = np.random.default_rng(13)
        models = [random_model(rng, 3, 2) for _ in range(2)]
        x = rng.normal(size=(2, 9))
        ref = []
        for m in models:
            total = 0.0
            for t in range(9):
                dens = 0.0
                for c in range(m.means.shape[0]):
                    diff = x[:, t] - m.means[c]
                    quad = np.sum(diff ** 2 / m.variances[c])
                    norm = np.prod(2 * np.pi * m.variances[c]) ** -0.5
                    dens += m.weights[c] * norm * np.exp(-0.5 * quad)
                total += np.log(dens)
            ref.append(total / 9)
        scores = gmm_classify(models, x)
        assert np.max(np.abs(scores - np.array(ref))) <= 1e-10

    def test_dimension_mismatch_rejected(self):
        a = GmmModel(np.array([1.0]), np.zeros((1, 2)), np.ones((1, 2)))
        b = GmmModel(np.array([1.0]), np.zeros((1, 3)), np.ones((1, 3)))
        with pytest.raises(DimensionError):
            gmm_classify([a, b], np.zeros((2, 4)))

    @pytest.mark.parametrize("components", [(4, 4, 4), (3, 1, 5)],
                             ids=["equal", "unequal"])
    def test_bank_matches_each_model_scored_alone(self, components):
        # one product over the stacked bank sums each score in another
        # order than a model's own two products, so they agree to rounding
        rng = np.random.default_rng(14)
        models = [random_model(rng, c, 5) for c in components]
        for length in (1, 7, 40, 300):
            x = rng.normal(size=(5, length)) * 2.0
            want = [float(log_sum_exp_rows(log_densities(m, x.T)).sum())
                    / length for m in models]
            assert max_rel_diff(gmm_classify(models, x), want) <= REL_TOL

    def test_empty_bank_rejected(self):
        with pytest.raises(DimensionError, match="at least one class model"):
            gmm_classify([], np.zeros((2, 4)))


class TestLogPosteriorScores:
    def test_exponentials_sum_to_one(self):
        out = log_posterior_scores(np.array([-310.2, -311.7, -309.9]))
        assert abs(np.exp(out).sum() - 1.0) <= 1e-12

    def test_shift_invariant(self):
        raw = np.array([-5.0, -7.5, -6.1])
        shifted = log_posterior_scores(raw + 123.4)
        assert np.max(np.abs(shifted - log_posterior_scores(raw))) <= 1e-10

    def test_ranking_preserved(self):
        raw = np.array([-2.0, -9.0, -4.0, -3.5])
        out = log_posterior_scores(raw)
        assert list(np.argsort(out)) == list(np.argsort(raw))

    def test_extreme_offsets_stay_finite(self):
        # rounding in the shift grows with the offset magnitude
        out = log_posterior_scores(np.array([-1e5, -1e5 - 3.0]))
        assert np.all(np.isfinite(out))
        assert abs(np.exp(out).sum() - 1.0) <= 1e5 * np.finfo(float).eps

    def test_empty_rejected(self):
        with pytest.raises(DimensionError):
            log_posterior_scores(np.array([]))
