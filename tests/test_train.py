import os
import re
import tracemalloc

import numpy as np
import pytest

import ldekit.train
from fdcheck import assert_grad_close, central_diff
from ldekit.data import Utterance
from ldekit.encoding import (
    AGG_MEAN,
    AGG_NORMALIZED,
    Dictionary,
    LdeConfig,
    lde_forward,
    length_normalize,
    tap_forward,
)
from ldekit.frontend import ConvSpec, Frontend, LengthError, StageSpec
from ldekit.gmm import GmmModel
from ldekit.ndcore import DimensionError, Param, Rng, write_artifact
from ldekit.train import (
    CheckpointError,
    LinearClassifier,
    Model,
    ModelConfig,
    NumericalError,
    SLICE_FRAMES,
    Sgd,
    SgdConfig,
    batch_loss,
    cross_entropy,
    infer,
    learning_rate,
    load_checkpoint,
    load_gmm_bank,
    load_model,
    model_config_from_dict,
    model_config_to_dict,
    save_gmm_bank,
    save_model,
    train_model,
)
from test_encoding import ALL_MODE_COMBOS, mixed_batch


def toy_utts(count, dim, rng, lmin=10, lmax=30, num_classes=2):
    """Random-feature utterances with a small class-dependent mean shift."""
    utts = []
    for i in range(count):
        label = i % num_classes
        length = rng.integers(lmin, lmax)
        feats = rng.normal((dim, length)) + 0.5 * label
        utts.append(Utterance(f"u{i:03d}", label, feats))
    return utts


class TestCrossEntropy:
    def test_uniform_logits(self):
        loss, _ = cross_entropy(np.zeros((1, 4)), [2])
        assert abs(loss[0] - np.log(4.0)) <= 1e-15

    def test_confident_correct_is_tiny(self):
        logits = np.zeros((1, 4))
        logits[0, 1] = 50.0
        loss, _ = cross_entropy(logits, [1])
        assert 0.0 <= loss[0] < 1e-20

    def test_loss_nonnegative(self):
        rng = Rng(3)
        logits = rng.normal((50, 5)) * 10
        loss, _ = cross_entropy(logits, np.zeros(50, dtype=int))
        assert np.all(loss >= 0.0)

    def test_gradient_sums_to_zero(self):
        _, grad = cross_entropy(np.array([[1.0, -2.0, 0.3]]), [1])
        assert abs(grad.sum()) <= 1e-15

    def test_gradient_matches_finite_differences(self):
        rng = Rng(5)
        logits = rng.normal((3, 6))
        labels = [4, 0, 5]
        _, grad = cross_entropy(logits, labels)
        numeric = central_diff(lambda: cross_entropy(logits, labels)[0].sum(),
                               logits)
        assert_grad_close(grad, numeric, 1e-6, "cross entropy")

    def test_label_out_of_range(self):
        with pytest.raises(IndexError):
            cross_entropy(np.zeros((2, 3)), [0, 3])


class TestLinearClassifier:
    def test_forward_hand(self):
        cls = LinearClassifier(2, 3, rng=None)
        cls.weights.value[...] = [[1.0, 0.0, 2.0], [0.0, -1.0, 0.0]]
        cls.bias.value[...] = [[0.5], [1.0]]
        out = cls.forward_batch(np.array([[1.0, 2.0, 3.0]]))
        assert np.allclose(out, [[7.5, -1.0]], atol=1e-15)

    def test_backward_matches_finite_differences(self):
        rng = Rng(2)
        cls = LinearClassifier(3, 4, rng)
        embeds = rng.normal((2, 4))
        labels = [0, 2]

        def loss():
            return cross_entropy(cls.forward_batch(embeds), labels)[0].sum()

        dlogits = cross_entropy(cls.forward_batch(embeds), labels)[1]
        dembeds = cls.backward_batch(embeds, dlogits)
        for param in cls.params():
            numeric = central_diff(loss, param.value)
            assert_grad_close(param.grad, numeric, 1e-6, param.name)
        numeric = central_diff(loss, embeds)
        assert_grad_close(dembeds, numeric, 1e-6, "embeddings")


class TestSchedule:
    def test_default_drop_points(self):
        cfg = SgdConfig()
        assert cfg.epochs == 30
        assert learning_rate(cfg, 19) == 0.1
        assert learning_rate(cfg, 20) == 0.1 / 10
        assert learning_rate(cfg, 25) == 0.1 / 10
        assert learning_rate(cfg, 26) == 0.1 / 100
        assert learning_rate(cfg, 29) == 0.1 / 100

    def test_scaled_preserves_fractions(self):
        # drops at epochs * 60 // 90 and epochs * 80 // 90
        for epochs, drop1, drop2 in ((1, 0, 0), (2, 1, 1), (3, 2, 2),
                                     (10, 6, 8), (91, 60, 80),
                                     (200, 133, 177)):
            cfg = SgdConfig(epochs=epochs)
            rates = [learning_rate(cfg, e) for e in range(epochs)]
            assert rates == ([0.1] * drop1 + [0.1 / 10] * (drop2 - drop1)
                             + [0.1 / 100] * (epochs - drop2)), epochs

    def test_scaled_identity_at_full_budget(self):
        cfg = SgdConfig(epochs=90)
        assert learning_rate(cfg, 0) == 0.1
        assert learning_rate(cfg, 59) == 0.1
        assert learning_rate(cfg, 60) == 0.1 / 10
        assert learning_rate(cfg, 79) == 0.1 / 10
        assert learning_rate(cfg, 80) == 0.1 / 100
        assert learning_rate(cfg, 89) == 0.1 / 100


class TestSgd:
    def test_zero_lr_keeps_params(self):
        p = Param("p", np.array([[1.0, -2.0]]))
        p.grad[...] = 5.0
        opt = Sgd([p], SgdConfig(weight_decay=0.0))
        opt.step(0.0)
        assert np.array_equal(p.value, [[1.0, -2.0]])
        assert np.array_equal(p.grad, [[0.0, 0.0]])

    def test_hand_update_two_steps(self):
        p = Param("p", np.array([[1.0]]))
        cfg = SgdConfig(lr0=0.2, momentum=0.5, weight_decay=0.1)
        opt = Sgd([p], cfg)

        p.grad[...] = 0.5
        opt.step(0.2)
        v1 = 0.5 + 0.1 * 1.0
        p1 = 1.0 - 0.2 * v1
        assert p.value[0, 0] == p1

        p.grad[...] = -0.2
        opt.step(0.2)
        v2 = 0.5 * v1 + (-0.2 + 0.1 * p1)
        assert p.value[0, 0] == p1 - 0.2 * v2

    def test_momentum_carries_without_gradient(self):
        p = Param("p", np.array([[0.0]]))
        opt = Sgd([p], SgdConfig(lr0=1.0, momentum=0.9, weight_decay=0.0))
        p.grad[...] = 1.0
        opt.step(1.0)
        opt.step(1.0)  # zero grad, velocity decays by 0.9
        assert abs(p.value[0, 0] - (-1.9)) <= 1e-15

    def test_duplicate_names_rejected(self):
        a = Param("same", np.zeros((1, 1)))
        b = Param("same", np.zeros((1, 1)))
        with pytest.raises(ValueError):
            Sgd([a, b], SgdConfig())


def lde_model_config(in_dim=5, num_classes=3, components=3, frontend=None,
                     **lde_kw):
    embed = frontend.out_dim if frontend is not None else in_dim
    lde = LdeConfig(num_components=components, feature_dim=embed, **lde_kw)
    return ModelConfig(in_dim=in_dim, num_classes=num_classes, encoder="lde",
                       lde=lde, frontend=frontend)


class TestModel:
    def test_param_names_unique(self):
        fe = ConvSpec(in_dim=5, stages=[StageSpec(6, 1, True),
                                        StageSpec(8, 1, True)])
        model = Model(lde_model_config(frontend=fe), Rng(0))
        names = [p.name for p in model.params()]
        assert len(names) == len(set(names))

    def test_tap_and_lde_share_other_inits(self):
        fe = ConvSpec(in_dim=4, stages=[StageSpec(5, 1, True)])
        tap = Model(ModelConfig(in_dim=4, num_classes=2, encoder="tap",
                                frontend=fe), Rng(11))
        lde = Model(lde_model_config(in_dim=4, num_classes=2, components=1,
                                     frontend=fe), Rng(11))
        for a, b in zip(tap.frontend.params(), lde.frontend.params()):
            assert np.array_equal(a.value, b.value)
        # same classifier fan-in (C=1) means identical draws
        assert np.array_equal(tap.classifier.weights.value,
                              lde.classifier.weights.value)

    def test_dim_mismatch_rejected(self):
        fe = ConvSpec(in_dim=4, stages=[StageSpec(5, 1, True)])
        with pytest.raises(Exception):
            ModelConfig(in_dim=4, num_classes=2, encoder="lde",
                        lde=LdeConfig(num_components=2, feature_dim=4),
                        frontend=fe)  # frontend emits 5 dims, not 4

    def test_config_dict_roundtrip(self):
        fe = ConvSpec(in_dim=7, stages=[StageSpec(8, 2, True),
                                        StageSpec(12, 1, False)],
                      kernel=5, activation="tanh")
        cfg = lde_model_config(in_dim=7, num_classes=4, components=2,
                               frontend=fe, aggregation_mode=AGG_MEAN,
                               length_normalize=False)
        back = model_config_from_dict(model_config_to_dict(cfg))
        assert back == cfg

    def test_config_from_bad_dict(self):
        with pytest.raises(CheckpointError):
            model_config_from_dict({"encoder": "lde"})

    def test_config_dict_without_flags_loads(self):
        cfg = lde_model_config(in_dim=4, num_classes=2, components=2)
        record = model_config_to_dict(cfg)
        del record["freeze_dictionary"], record["zero_dictionary"]
        assert model_config_from_dict(record) == cfg

    def test_config_dict_unknown_key_rejected(self):
        record = model_config_to_dict(lde_model_config())
        record["turbo"] = True
        with pytest.raises(CheckpointError, match="turbo"):
            model_config_from_dict(record)


# no front-end; kernel 3 with one downsampling block; kernel 5 with a
# flat stage then a two-block stage; each with every activation
PARITY_FRONTENDS = [None] + [
    ConvSpec(in_dim=5, stages=stages, kernel=kernel, activation=act)
    for kernel, stages in (
        (3, [StageSpec(6, 1, True)]),
        (5, [StageSpec(4, 1, False), StageSpec(6, 2, True)]))
    for act in ("relu", "tanh", "linear")]


def parity_model_config(encoder, frontend, mode, in_dim=5, components=4):
    if encoder == "tap":
        return ModelConfig(in_dim=in_dim, num_classes=3, frontend=frontend)
    smoothing, aggregation, lennorm = mode
    return lde_model_config(in_dim=in_dim, components=components,
                            frontend=frontend, smoothing_mode=smoothing,
                            beta=0.8, aggregation_mode=aggregation,
                            length_normalize=lennorm)


def rel_diff(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


class TestPooledScoring:
    def test_permutation_invariance(self):
        rng = Rng(21)
        model = Model(lde_model_config(), rng)
        x = rng.normal((5, 30))
        base = infer(model, x)
        perm = rng.permutation(30)
        assert np.max(np.abs(infer(model, x[:, perm]) - base)) <= 1e-12

    def test_tiling_invariance(self):
        rng = Rng(22)
        for encoder in ("tap", "lde"):
            if encoder == "tap":
                model = Model(ModelConfig(in_dim=5, num_classes=3), Rng(1))
            else:
                model = Model(lde_model_config(), Rng(1))
            x = rng.normal((5, 17))
            base = infer(model, x)
            tiled = infer(model, np.tile(x, (1, 3)))
            assert np.max(np.abs(tiled - base)) <= 1e-10, encoder

    def test_infer_uses_whole_sequence(self):
        model = Model(ModelConfig(in_dim=3, num_classes=2), Rng(0))
        x = np.zeros((3, 40))
        x[:, 35:] = 4.0  # tail changes the pooled mean, so scores move
        assert not np.allclose(infer(model, x), infer(model, x[:, :35]))

    @pytest.mark.parametrize("encoder", ["tap", "lde"])
    def test_batch_logits_match_infer(self, encoder):
        # infer against the training pass: every front-end shape below,
        # each activation, every LDE mode, odd and even lengths from the
        # shortest the front-end takes. On its batch of one it is that
        # pass bit for bit; against a member of a batch of three only up
        # to rounding, since numpy takes a one-row classifier product as
        # a BLAS gemv and a three-row one as a gemm
        modes = ALL_MODE_COMBOS if encoder == "lde" else [None]
        for fe in PARITY_FRONTENDS:
            for mode in modes:
                cfg = parity_model_config(encoder, fe, mode)
                model = Model(cfg, Rng(3))
                model.classifier.bias.value[:] = Rng(5).normal((3, 1))
                low = fe.min_length if fe is not None else 1
                for length in list(range(low, low + 6)) + [23]:
                    feats = Rng(length).normal((3, 5, length))
                    logits, _ = model.forward_batch(feats)
                    for b in range(3):
                        got = infer(model, feats[b])
                        one, _ = model.forward_batch(feats[b:b + 1])
                        assert np.array_equal(got, one[0]), (fe, mode, length)
                        assert rel_diff(got, logits[b]) <= 1e-12, \
                            (fe, mode, length)

    @pytest.mark.parametrize("encoder", ["tap", "lde"])
    def test_forward_without_keep_holds_no_cache(self, encoder):
        # keep=False, the scoring pass, returns no cache and the same
        # numbers as the training pass, for the front-end alone and the
        # whole model
        mode = ALL_MODE_COMBOS[0] if encoder == "lde" else None
        for fe in PARITY_FRONTENDS:
            model = Model(parity_model_config(encoder, fe, mode), Rng(3))
            low = fe.min_length if fe is not None else 1
            for length in (low, low + 1, 23):
                feats = Rng(length).normal((3, 5, length))
                if fe is not None:
                    kept, caches = model.frontend.forward_batch(feats)
                    out, none = model.frontend.forward_batch(feats, keep=False)
                    assert len(caches) == 1 + len(model.frontend.blocks)
                    assert none is None
                    assert np.array_equal(out, kept), (fe, length)
                kept, cache = model.forward_batch(feats)
                out, none = model.forward_batch(feats, keep=False)
                assert cache is not None and none is None
                assert np.array_equal(out, kept), (fe, length)

    @pytest.mark.parametrize("mode", ALL_MODE_COMBOS,
                             ids=lambda mode: "-".join(map(str, mode)))
    def test_infer_matches_at_the_floors(self, mode):
        # member 1's and 2's far centers get no mass (normalized mode
        # clamps their denominators); member 2's vector has zero norm
        centers, x = mixed_batch(np.random.default_rng(17))
        model = Model(parity_model_config("lde", None, mode, in_dim=2,
                                          components=3), Rng(6))
        model.dictionary.centers.value[...] = centers
        model.classifier.bias.value[:] = Rng(5).normal((3, 1))
        logits, cache = model.forward_batch(x)
        saved = cache.encoder_saved
        assert saved.floored.any() == (mode[1] == AGG_NORMALIZED)
        assert saved.zero_norm[2] == mode[2]
        for b in range(4):
            got = infer(model, x[b])
            assert np.array_equal(got, model.forward_batch(x[b:b + 1])[0][0])
            assert rel_diff(got, logits[b]) <= 1e-12, b

    def test_infer_keeps_no_backward_state(self):
        spec = ConvSpec.desk_default(20)
        model = Model(ModelConfig(in_dim=20, num_classes=4, encoder="lde",
                                  lde=LdeConfig(8, spec.out_dim),
                                  frontend=spec), Rng(0))
        x = Rng(1).normal((20, 1500))
        peaks = []
        for run in (lambda: infer(model, x),
                    lambda: model.forward_batch(x[None])):
            tracemalloc.start()
            try:
                run()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] < peaks[1], peaks

    @pytest.mark.parametrize("encoder", ["tap", "lde"])
    def test_infer_rejects_bad_input(self, encoder):
        fe = ConvSpec(in_dim=5, stages=[StageSpec(6, 1, True),
                                        StageSpec(6, 1, True)])
        for spec in (None, fe):
            model = Model(parity_model_config(encoder, spec,
                                              ALL_MODE_COMBOS[0]), Rng(0))
            with pytest.raises(DimensionError):
                infer(model, np.ones((4, 8)))
            with pytest.raises(DimensionError):
                infer(model, np.ones((1, 5, 8)))
        with pytest.raises(LengthError, match="minimum 4"):
            infer(model, np.ones((5, 3)))


def tiny_lde_model():
    fe = ConvSpec(in_dim=3, stages=[StageSpec(4, 1, True)])
    return Model(ModelConfig(in_dim=3, num_classes=2, encoder="lde",
                             lde=LdeConfig(2, 4), frontend=fe), Rng(0))


class TestBatchContract:
    """Every layer takes batches only; infer alone takes one D x L
    utterance. A single item is a D x L sequence for the layers and one
    vector for length_normalize."""

    @pytest.mark.parametrize("layer", [
        lambda x: lde_forward(x, Dictionary.zeros(LdeConfig(2, 3)),
                              LdeConfig(2, 3)),
        tap_forward,
        lambda x: length_normalize(x.reshape(-1)),
        lambda x: Frontend(ConvSpec(in_dim=3, stages=[StageSpec(4, 1, True)]),
                           Rng(0)).forward_batch(x),
        lambda x: tiny_lde_model().forward_batch(x),
    ], ids=["lde_forward", "tap_forward", "length_normalize",
            "Frontend.forward_batch", "Model.forward_batch"])
    def test_single_item_rejected(self, layer):
        with pytest.raises(DimensionError):
            layer(np.ones((3, 8)))

    def test_infer_takes_one_utterance(self):
        model = tiny_lde_model()
        x = Rng(1).normal((3, 8))
        logits, _ = model.forward_batch(x[None])
        assert np.array_equal(infer(model, x), logits[0])

    def test_batch_loss_sums_members_left_to_right(self):
        # on these inputs np.sum's pairwise order and math.fsum both give a
        # different last bit, so the loss log would change under either
        model = Model(ModelConfig(in_dim=3, num_classes=4), Rng(4))
        feats = Rng(3).normal((32, 3, 10), std=5.0)
        labels = np.arange(32) % 4
        losses, _ = cross_entropy(model.forward_batch(feats)[0], labels)
        total = 0.0
        for loss in losses:
            total += loss
        assert batch_loss(model, feats, labels, accumulate=False) == total / 32


def whole_batch_loss(model, feats, labels):
    """One forward and one backward pass over the whole batch at once."""
    logits, cache = model.forward_batch(feats)
    losses, dlogits = cross_entropy(logits, labels)
    model.backward_batch(cache, dlogits / len(labels))
    return float(np.add.accumulate(losses)[-1]) / len(labels)


class TestSlicedBatch:
    """batch_loss runs the batch in slices of whole members; a one-pass
    reference over the whole batch is the specification."""

    @staticmethod
    def build(encoder, frontend):
        fe = (ConvSpec(in_dim=3, stages=[StageSpec(4, 1, True)])
              if frontend else None)
        if encoder == "tap":
            return Model(ModelConfig(in_dim=3, num_classes=3, frontend=fe),
                         Rng(8))
        return Model(lde_model_config(in_dim=3, num_classes=3, components=2,
                                      frontend=fe, aggregation_mode=encoder),
                     Rng(8))

    @pytest.mark.parametrize("frontend", [True, False], ids=["fe", "raw"])
    @pytest.mark.parametrize("encoder", [AGG_NORMALIZED, AGG_MEAN, "tap"])
    @pytest.mark.parametrize("shape, sizes", [
        ((7, 1500), [1, 2, 2, 2]),   # two members per slice, uneven split
        ((3, SLICE_FRAMES + 4), [1, 1, 1]),  # one member over the budget
        ((5, 40), [5]),              # within the budget: one slice
    ], ids=["uneven", "over-budget", "one-slice"])
    def test_matches_whole_batch(self, encoder, frontend, shape, sizes,
                                 monkeypatch):
        num, length = shape
        model = self.build(encoder, frontend)
        feats = Rng(9).normal((num, 3, length))
        labels = np.arange(num) % 3
        want = whole_batch_loss(model, feats, labels)
        want_grads = {p.name: p.grad.copy() for p in model.params()}
        model.zero_grads()

        seen = []
        forward = model.forward_batch

        def recording_forward(x):
            seen.append(len(x))
            return forward(x)

        monkeypatch.setattr(model, "forward_batch", recording_forward)
        got = batch_loss(model, feats, labels)
        assert seen == sizes
        assert abs(got - want) <= 1e-12 * abs(want)
        for p in model.params():
            ref = want_grads[p.name]
            assert np.max(np.abs(p.grad - ref)) <= \
                1e-12 * np.max(np.abs(ref)), p.name

    def test_label_count_must_match(self):
        model = self.build("tap", False)
        with pytest.raises(IndexError):
            batch_loss(model, np.zeros((4, 3, 10)), np.zeros(5, dtype=int))

    def test_step_peak_stays_below_the_stem_patch_matrix(self):
        # the whole-batch step kept every conv's im2col patches alive at
        # once; the stem's alone is B x (D x K) x L float64
        spec = ConvSpec.desk_default(20)
        model = Model(ModelConfig(20, 10, encoder="lde",
                                  lde=LdeConfig(8, spec.out_dim),
                                  frontend=spec), Rng(0))
        feats = Rng(1).normal((32, 20, 1000))
        labels = np.arange(32) % 10
        tracemalloc.start()
        try:
            batch_loss(model, feats, labels)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 60 * 1000 * 8, f"peak {peak / 2**20:.1f} MiB"


class TestAveragePoolingEquivalence:
    def test_tap_equals_frozen_centerless_lde(self):
        # one-component dictionary pinned at the origin with mean
        # aggregation reduces to average pooling, so training trajectories
        # must coincide step for step
        fe = ConvSpec(in_dim=5, stages=[StageSpec(6, 1, True)])
        tap_cfg = ModelConfig(in_dim=5, num_classes=2, encoder="tap",
                              frontend=fe)
        lde_cfg = ModelConfig(
            in_dim=5, num_classes=2, encoder="lde", frontend=fe,
            lde=LdeConfig(num_components=1, feature_dim=6,
                          aggregation_mode=AGG_MEAN, length_normalize=False),
            freeze_dictionary=True, zero_dictionary=True)
        utts = toy_utts(24, 5, Rng(33))
        sgd = SgdConfig(epochs=2, batch_size=8, crop_min=8, crop_max=16)

        losses = {}
        for key, cfg in (("tap", tap_cfg), ("lde", lde_cfg)):
            model = Model(cfg, Rng(7))
            hist = train_model(model, utts, sgd, Rng(99))
            losses[key] = [h.loss for h in hist]
        assert len(losses["tap"]) == len(losses["lde"]) > 0
        for a, b in zip(losses["tap"], losses["lde"]):
            assert abs(a - b) <= 1e-10

    def test_frozen_dictionary_does_not_move(self):
        cfg = lde_model_config(in_dim=4, num_classes=2, components=2)
        cfg = ModelConfig(in_dim=4, num_classes=2, encoder="lde",
                          lde=cfg.lde, freeze_dictionary=True)
        model = Model(cfg, Rng(3))
        before = [p.value.copy() for p in model.dictionary.params()]
        train_model(model, toy_utts(12, 4, Rng(1)),
                    SgdConfig(epochs=1, batch_size=4, crop_min=6, crop_max=10),
                    Rng(2))
        for p, b in zip(model.dictionary.params(), before):
            assert np.array_equal(p.value, b)


class TestTrainModel:
    def small_setup(self):
        fe = ConvSpec(in_dim=4, stages=[StageSpec(5, 1, True)])
        cfg = lde_model_config(in_dim=4, num_classes=2, components=2,
                               frontend=fe)
        utts = toy_utts(16, 4, Rng(8))
        return cfg, utts

    def test_deterministic_end_state(self):
        cfg, utts = self.small_setup()
        finals = []
        for _ in range(2):
            model = Model(cfg, Rng(5))
            train_model(model, utts, SgdConfig(epochs=2, batch_size=4,
                                               crop_min=8, crop_max=12),
                        Rng(6))
            finals.append([p.value.copy() for p in model.params()])
        for a, b in zip(*finals):
            assert np.array_equal(a, b)

    def test_loss_log_format_and_smoothing(self, tmp_path):
        cfg, utts = self.small_setup()
        model = Model(cfg, Rng(5))
        log = tmp_path / "loss.log"
        hist = train_model(model, utts,
                           SgdConfig(epochs=1, batch_size=4, crop_min=8,
                                     crop_max=12, smooth_window=3),
                           Rng(6), log_path=log)
        lines = log.read_text().strip().split("\n")
        assert len(lines) == len(hist) == 4
        losses = []
        for i, line in enumerate(lines):
            step, loss, smoothed = line.split("\t")
            assert int(step) == i
            losses.append(float(loss))
            want = np.mean(losses[-3:])
            assert abs(float(smoothed) - want) <= 1e-12

    def test_training_reduces_loss(self):
        cfg, utts = self.small_setup()
        model = Model(cfg, Rng(5))
        hist = train_model(model, utts,
                           SgdConfig(lr0=0.05, epochs=10, batch_size=8,
                                     crop_min=8, crop_max=12),
                           Rng(6))
        first = np.mean([h.loss for h in hist[:4]])
        last = np.mean([h.loss for h in hist[-4:]])
        assert last < first

    def test_nan_input_aborts(self):
        cfg, utts = self.small_setup()
        utts[3].features[:] = np.nan
        model = Model(cfg, Rng(5))
        with pytest.raises(NumericalError, match="step"):
            train_model(model, utts, SgdConfig(epochs=1, batch_size=16,
                                               crop_min=12, crop_max=12),
                        Rng(6))

    def test_abort_leaves_no_loss_log(self, tmp_path):
        cfg, utts = self.small_setup()
        utts[7].features[:] = np.nan  # shuffled into the last batch
        log = tmp_path / "loss.log"
        with pytest.raises(NumericalError, match="at step 7"):
            train_model(Model(cfg, Rng(5)), utts,
                        SgdConfig(epochs=1, batch_size=2, crop_min=8,
                                  crop_max=12),
                        Rng(6), log_path=log)
        assert os.listdir(tmp_path) == []

    def test_empty_corpus_rejected(self):
        cfg, _ = self.small_setup()
        with pytest.raises(ValueError):
            train_model(Model(cfg, Rng(0)), [], SgdConfig(epochs=1), Rng(1))


class TestEndToEndGradient:
    def test_all_parameter_gradients(self):
        fe = ConvSpec(in_dim=3, stages=[StageSpec(4, 1, True)],
                      activation="tanh")
        cfg = lde_model_config(in_dim=3, num_classes=2, components=2,
                               frontend=fe)
        model = Model(cfg, Rng(14))
        rng = Rng(15)
        feats = rng.normal((2, 3, 8))
        labels = np.array([0, 1])

        model.zero_grads()
        batch_loss(model, feats, labels)
        analytic = {p.name: p.grad.copy() for p in model.params()}
        model.zero_grads()

        def loss():
            return batch_loss(model, feats, labels, accumulate=False)

        for p in model.params():
            numeric = central_diff(loss, p.value)
            assert_grad_close(analytic[p.name], numeric, 1e-4, p.name)


class TestCheckpoints:
    def build_model(self):
        fe = ConvSpec(in_dim=4, stages=[StageSpec(5, 1, True)])
        cfg = lde_model_config(in_dim=4, num_classes=3, components=2,
                               frontend=fe)
        return Model(cfg, Rng(42))

    def test_model_roundtrip_bit_exact(self, tmp_path):
        model = self.build_model()
        path = tmp_path / "model.ckpt"
        save_model(path, model, epoch=7)
        back, meta = load_model(path)
        assert meta["epoch"] == 7
        assert meta["config"] == model_config_to_dict(model.cfg)
        assert back.cfg == model.cfg
        for a, b in zip(model.params(), back.params()):
            assert a.name == b.name
            assert np.array_equal(a.value, b.value)

    def test_scores_survive_roundtrip(self, tmp_path):
        model = self.build_model()
        x = Rng(1).normal((4, 20))
        path = tmp_path / "model.ckpt"
        save_model(path, model)
        back, _ = load_model(path)
        assert np.array_equal(infer(model, x), infer(back, x))

    def test_same_model_same_bytes(self, tmp_path):
        pa, pb = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_model(pa, self.build_model(), epoch=1)
        save_model(pb, self.build_model(), epoch=1)
        assert pa.read_bytes() == pb.read_bytes()

    def test_failed_save_leaves_target_unchanged(self, tmp_path,
                                                 monkeypatch):
        path = tmp_path / "model.ckpt"
        save_model(path, self.build_model(), epoch=1)
        before = path.read_bytes()

        class DiskFull:  # raises as its values are written, after the rest
            shape = (1,)

            def __array__(self, dtype=None, copy=None):
                raise OSError("disk full")

        def fail_after_the_parameters(path, meta, arrays):
            write_artifact(path, meta, arrays + [("full", DiskFull())])

        monkeypatch.setattr(ldekit.train, "write_artifact",
                            fail_after_the_parameters)
        with pytest.raises(OSError, match="disk full"):
            save_model(path, self.build_model(), epoch=2)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["model.ckpt"]

    def test_gmm_bank_roundtrip(self, tmp_path):
        gmms = [GmmModel(weights=np.array([0.25, 0.75]),
                         means=np.array([[0.0, 1.0], [2.0, -1.0]]),
                         variances=np.array([[1.0, 2.0], [0.5, 1.5]])),
                GmmModel(weights=np.array([0.5, 0.5]),
                         means=np.array([[3.0, 3.0], [-3.0, 0.0]]),
                         variances=np.array([[1.0, 1.0], [2.0, 0.5]]))]
        path = tmp_path / "gmm.ckpt"
        save_gmm_bank(path, gmms, meta={"num_classes": 2})
        back, meta = load_gmm_bank(path)
        assert meta["num_classes"] == 2
        assert len(back) == 2
        for a, b in zip(gmms, back):
            assert np.array_equal(a.weights, b.weights)
            assert np.array_equal(a.means, b.means)
            assert np.array_equal(a.variances, b.variances)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOPE" + b"\0" * 16)
        with pytest.raises(CheckpointError, match="bad magic b'NOPE'"):
            load_checkpoint(path)

    def test_load_holds_no_second_copy(self, tmp_path):
        fe = ConvSpec(in_dim=20, stages=[StageSpec(32, 1, True),
                                         StageSpec(64, 1, True)])
        model = Model(lde_model_config(in_dim=20, num_classes=4, components=8,
                                       frontend=fe), Rng(0))
        path = tmp_path / "model.ckpt"
        save_model(path, model)
        size = path.stat().st_size
        tracemalloc.start()
        try:
            load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * size

    def test_truncated_file(self, tmp_path):
        model = self.build_model()
        path = tmp_path / "model.ckpt"
        save_model(path, model)
        blob = path.read_bytes()
        path.write_bytes(blob[:len(blob) // 2])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_wrong_kind_rejected(self, tmp_path):
        path = tmp_path / "gmm.ckpt"
        save_gmm_bank(path, [GmmModel(weights=np.array([1.0]),
                                      means=np.zeros((1, 2)),
                                      variances=np.ones((1, 2)))])
        with pytest.raises(CheckpointError, match="model"):
            load_model(path)

    def test_missing_param_rejected(self, tmp_path):
        model = self.build_model()
        *params, dropped = model.params()
        path = tmp_path / "partial.ckpt"
        write_artifact(path, {"kind": "model",
                              "config": model_config_to_dict(model.cfg)},
                       [(p.name, p.value) for p in params])
        with pytest.raises(CheckpointError, match=re.escape(
                f"(missing [{dropped.name!r}], unexpected [])")):
            load_model(path)

    @pytest.mark.parametrize("key, value", [("num_classes", 1),
                                            ("in_dim", -2)])
    def test_config_that_builds_no_model_rejected(self, tmp_path, key, value):
        model = Model(ModelConfig(in_dim=2, num_classes=2), Rng(0))
        config = model_config_to_dict(model.cfg)
        config[key] = value
        path = tmp_path / "model.ckpt"
        write_artifact(path, {"kind": "model", "config": config},
                       [(p.name, p.value) for p in model.params()])
        with pytest.raises(CheckpointError, match="bad model config"):
            load_model(path)

    @staticmethod
    def bank_params(count, **override):
        """Class k's one-component, 2-dim mixture as (gmm.{k}.<part>, array)
        pairs; `override` replaces parts of class 0 by part name."""
        parts = {"weights": np.array([1.0]), "means": np.zeros((1, 2)),
                 "variances": np.ones((1, 2))}
        return [(f"gmm.{k}.{part}",
                 override.get(part, value) if k == 0 else value)
                for k in range(count) for part, value in parts.items()]

    def test_bank_class_count_disagreeing_rejected(self, tmp_path):
        path = tmp_path / "bank.ckpt"
        write_artifact(path, {"kind": "gmm", "num_classes": 3},
                       self.bank_params(2))
        with pytest.raises(CheckpointError, match="class count 3"):
            load_gmm_bank(path)

    def test_bank_parameter_names_disagreeing_rejected(self, tmp_path):
        params = self.bank_params(2)
        params[1] = ("gmm.0.mean", params[1][1])
        path = tmp_path / "bank.ckpt"
        write_artifact(path, {"kind": "gmm", "num_classes": 2}, params)
        with pytest.raises(CheckpointError,
                           match=r"missing \['gmm.0.means'\], "
                                 r"unexpected \['gmm.0.mean'\]"):
            load_gmm_bank(path)

    @pytest.mark.parametrize("override, message", [
        ({"weights": np.array([0.9])}, "sum to 1"),
        ({"variances": np.array([[1.0, 0.0]])}, "positive"),
        ({"variances": np.ones((1, 3))}, "equal shapes"),
        ({"weights": np.array([0.5, 0.5])}, "one weight per component"),
        ({"means": np.zeros(2)}, r"gmm.0.means has shape \(2,\)"),
    ])
    def test_bank_failing_mixture_validation_rejected(self, tmp_path,
                                                      override, message):
        path = tmp_path / "bank.ckpt"
        write_artifact(path, {"kind": "gmm", "num_classes": 2},
                       self.bank_params(2, **override))
        with pytest.raises(CheckpointError, match=message):
            load_gmm_bank(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_model_parameter_rejected(self, tmp_path, bad):
        model = self.build_model()
        param = model.params()[1]
        param.value.flat[-1] = bad
        path = tmp_path / "model.ckpt"
        save_model(path, model)
        with pytest.raises(CheckpointError,
                           match=re.escape(f"{param.name} holds non-finite")):
            load_model(path)

    @pytest.mark.parametrize("override, name", [
        ({"weights": np.array([np.nan])}, "gmm.0.weights"),
        ({"means": np.array([[np.inf, 0.0]])}, "gmm.0.means"),
        ({"variances": np.array([[np.nan, 1.0]])}, "gmm.0.variances"),
    ])
    def test_bank_non_finite_parameter_rejected(self, tmp_path, override,
                                                name):
        path = tmp_path / "bank.ckpt"
        write_artifact(path, {"kind": "gmm", "num_classes": 2},
                       self.bank_params(2, **override))
        with pytest.raises(CheckpointError,
                           match=re.escape(f"{name} holds non-finite")):
            load_gmm_bank(path)

    def test_bank_of_unequal_mixture_shapes_rejected(self, tmp_path):
        """A bank gmm_classify cannot stack fails on load, naming the
        file, not at its first score."""
        path = tmp_path / "bank.ckpt"
        save_gmm_bank(path, [GmmModel(weights=np.full(c, 1.0 / c),
                                      means=np.zeros((c, 2)),
                                      variances=np.ones((c, 2)))
                             for c in (2, 3)])
        with pytest.raises(CheckpointError, match=re.escape(
                f"{path}: mixtures differ in C x D shape")):
            load_gmm_bank(path)

    def test_bank_loader_rejects_a_model(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_model(path, self.build_model())
        with pytest.raises(CheckpointError, match="not a gmm checkpoint"):
            load_gmm_bank(path)
