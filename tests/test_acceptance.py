"""Acceptance gate: one test per advertised guarantee.

Each test prints a single pass/fail line with its measured margin; the
`report` fixture suspends output capture so the lines always reach the
terminal.
"""

import time

import numpy as np
import pytest

from fdcheck import central_diff, rel_err
from test_metrics import brute_force_eer, hand_three_class_set

from ldekit.cli import (
    fit_gmm_bank,
    score_corpus,
    score_gmm_bank,
    train_from_config,
)
from ldekit.config import EncoderSettings, GmmSettings, RunConfig
from ldekit.data import SyntheticSpec, generate_corpus
from ldekit.encoding import (
    AGG_MEAN,
    AGG_NORMALIZED,
    SMOOTHING_PER_COMPONENT,
    SMOOTHING_SHARED,
    Dictionary,
    LdeConfig,
    hard_assign,
    lde_backward,
    lde_forward,
    tap_forward,
)
from ldekit.frontend import ConvSpec, Frontend, StageSpec
from ldekit.gmm import accumulate_stats, em_fit
from ldekit.metrics import (
    TrialScore,
    TrialSet,
    cavg,
    eer,
    eer_average,
    eer_from_points,
    operating_points,
)
from ldekit.ndcore import Rng
from ldekit.train import (
    ENCODER_LDE,
    ENCODER_TAP,
    LinearClassifier,
    Model,
    ModelConfig,
    SgdConfig,
    batch_loss,
    infer,
)


class Reporter:
    def __init__(self, capsys):
        self._capsys = capsys

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        line = f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}"
        if detail:
            line += f" ({detail})"
        self._emit(line)
        assert ok, line

    def note(self, text: str) -> None:
        self._emit(f"[acceptance]   {text}")

    def _emit(self, line: str) -> None:
        # leading newline keeps the line off pytest's progress output
        with self._capsys.disabled():
            print("\n" + line, flush=True)


@pytest.fixture
def report(capsys):
    return Reporter(capsys)


# ---------------------------------------------------------------- gradients


def lde_layer_errors(agg, smoothing, lennorm, seed):
    cfg = LdeConfig(num_components=3, feature_dim=4, smoothing_mode=smoothing,
                    beta=0.7, aggregation_mode=agg, length_normalize=lennorm)
    dictionary = Dictionary.init(cfg, Rng(seed))
    data_rng = Rng(seed + 1000)
    x = data_rng.normal((4, 6))
    probe = data_rng.normal((3, 4))

    def scalar():
        enc, _ = lde_forward(x[None], dictionary, cfg)
        return float(np.sum(probe * enc.e[0]))

    _, saved = lde_forward(x[None], dictionary, cfg)
    for p in dictionary.params():
        p.zero_grad()
    dx = lde_backward(saved, probe[None], dictionary)[0]

    errs = [rel_err(dx, central_diff(scalar, x)),
            rel_err(dictionary.centers.grad,
                    central_diff(scalar, dictionary.centers.value))]
    if smoothing == SMOOTHING_PER_COMPONENT:
        errs.append(rel_err(dictionary.smoothing.grad,
                            central_diff(scalar, dictionary.smoothing.value)))
    return max(errs)


def frontend_errors():
    spec = ConvSpec(in_dim=3, stages=[StageSpec(4, 2, True)],
                    activation="tanh")
    net = Frontend(spec, Rng(21))
    x = Rng(22).normal((3, 9))
    y, _ = net.forward_batch(x[None])
    probe = Rng(23).normal(y[0].shape)

    def scalar():
        out, _ = net.forward_batch(x[None])
        return float(np.sum(probe * out[0]))

    _, caches = net.forward_batch(x[None])
    for p in net.params():
        p.zero_grad()
    dx = net.backward_batch(caches, probe[None])[0]

    errs = [rel_err(dx, central_diff(scalar, x))]
    errs += [rel_err(p.grad, central_diff(scalar, p.value))
             for p in net.params()]
    return max(errs)


def classifier_errors():
    cls = LinearClassifier(3, 5, Rng(31))
    embeds = Rng(32).normal((2, 5))
    probe = Rng(33).normal((2, 3))

    def scalar():
        return float(np.sum(probe * cls.forward_batch(embeds)))

    for p in cls.params():
        p.zero_grad()
    dembeds = cls.backward_batch(embeds, probe)

    errs = [rel_err(dembeds, central_diff(scalar, embeds))]
    errs += [rel_err(p.grad, central_diff(scalar, p.value))
             for p in cls.params()]
    return max(errs)


def composed_errors():
    fe = ConvSpec(in_dim=3, stages=[StageSpec(4, 1, True)], activation="tanh")
    lde = LdeConfig(num_components=2, feature_dim=fe.out_dim,
                    aggregation_mode=AGG_NORMALIZED, length_normalize=True)
    cfg = ModelConfig(in_dim=3, num_classes=2, encoder=ENCODER_LDE,
                      lde=lde, frontend=fe)
    model = Model(cfg, Rng(41))
    feats = Rng(42).normal((2, 3, 8))
    labels = np.array([0, 1])

    model.zero_grads()
    batch_loss(model, feats, labels)
    analytic = {p.name: p.grad.copy() for p in model.params()}
    model.zero_grads()

    def loss():
        return batch_loss(model, feats, labels, accumulate=False)

    return max(rel_err(analytic[p.name], central_diff(loss, p.value))
               for p in model.params())


def test_gradient_suite(report):
    t0 = time.monotonic()
    worst_layer = 0.0
    for i, agg in enumerate((AGG_MEAN, AGG_NORMALIZED)):
        for j, smoothing in enumerate((SMOOTHING_SHARED,
                                       SMOOTHING_PER_COMPONENT)):
            for k, lennorm in enumerate((False, True)):
                err = lde_layer_errors(agg, smoothing, lennorm,
                                       seed=100 + 4 * i + 2 * j + k)
                worst_layer = max(worst_layer, err)
    worst_layer = max(worst_layer, frontend_errors(), classifier_errors())
    composed = composed_errors()
    elapsed = time.monotonic() - t0
    report.check("gradient-suite",
          worst_layer <= 1e-5 and composed <= 1e-4 and elapsed < 60.0,
          f"layer rel err {worst_layer:.2e} <= 1e-5, "
          f"composed {composed:.2e} <= 1e-4, {elapsed:.1f}s < 60s")


# --------------------------------------------------------------- reductions


def test_reduction_suite(report):
    rng = Rng(5)
    worst_tap = 0.0
    for _ in range(100):
        dim = rng.integers(1, 5)
        length = rng.integers(1, 12)
        x = rng.normal((dim, length), std=2.0)
        cfg = LdeConfig(num_components=1, feature_dim=dim,
                        aggregation_mode=AGG_MEAN, length_normalize=False)
        enc, _ = lde_forward(x[None], Dictionary.zeros(cfg), cfg)
        worst_tap = max(worst_tap,
                        float(np.max(np.abs(enc.flat - tap_forward(x[None])))))

    monotone = True
    final_gap = 0.0
    pc_cfg = LdeConfig(num_components=4, feature_dim=3)
    for trial in range(10):
        dictionary = Dictionary.init(pc_cfg, Rng(60 + trial))
        while True:
            x = rng.normal((3, 8), std=1.5)
            sq = np.sort(((x.T[:, None, :] - dictionary.centers.value[None])
                          ** 2).sum(axis=2), axis=1)
            if np.min(sq[:, 1] - sq[:, 0]) >= 0.1:  # clear nearest center
                break
        onehot = np.eye(4)[hard_assign(x, dictionary)]
        prev = None
        for beta in (0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0,
                     128.0, 256.0):
            cfg = LdeConfig(num_components=4, feature_dim=3,
                            smoothing_mode=SMOOTHING_SHARED, beta=beta)
            _, saved = lde_forward(x[None], dictionary, cfg)
            gap = float(np.max(np.abs(saved.weights - onehot)))
            if prev is not None and gap > prev + 1e-12:
                monotone = False
            prev = gap
        final_gap = max(final_gap, prev)

    report.check("reduction-suite",
          worst_tap <= 1e-12 and monotone and final_gap <= 1e-9,
          f"tap gap {worst_tap:.2e} <= 1e-12 on 100 instances, "
          f"sharpening monotone={monotone}, final one-hot gap "
          f"{final_gap:.2e}")


# ---------------------------------------------------------------- orderless


def test_orderless_suite(report):
    rng = Rng(7)
    worst_perm = 0.0
    for agg in (AGG_MEAN, AGG_NORMALIZED):
        for lennorm in (False, True):
            cfg = LdeConfig(num_components=4, feature_dim=5,
                            aggregation_mode=agg, length_normalize=lennorm)
            dictionary = Dictionary.init(cfg, Rng(71))
            x = rng.normal((5, 30))
            perm = rng.permutation(30)
            a, _ = lde_forward(x[None], dictionary, cfg)
            b, _ = lde_forward(x[None, :, perm], dictionary, cfg)
            worst_perm = max(worst_perm,
                             float(np.max(np.abs(a.flat - b.flat))))

    worst_tile = 0.0
    for encoder in (ENCODER_TAP, ENCODER_LDE):
        lde = LdeConfig(num_components=3, feature_dim=5,
                        aggregation_mode=AGG_MEAN, length_normalize=True)
        cfg = ModelConfig(in_dim=5, num_classes=3, encoder=encoder,
                          lde=lde if encoder == ENCODER_LDE else None)
        model = Model(cfg, Rng(72))
        x = Rng(73).normal((5, 17))
        base = infer(model, x)
        for reps in (2, 3, 5):
            tiled = infer(model, np.tile(x, reps))
            worst_tile = max(worst_tile,
                             float(np.max(np.abs(tiled - base))))

    report.check("orderless-suite",
          worst_perm <= 1e-12 and worst_tile <= 1e-10,
          f"permutation gap {worst_perm:.2e} <= 1e-12, "
          f"tiling score gap {worst_tile:.2e} <= 1e-10")


# --------------------------------------------------------------------- gmm


def test_gmm_suite(report):
    worst_drop = 0.0
    for seed in range(10):
        nprng = np.random.default_rng(200 + seed)
        frames = np.vstack([nprng.normal(size=(120, 2)) * s + off
                            for s, off in ((1.0, 0.0), (0.6, 2.5),
                                           (1.5, -2.0))])
        _, history = em_fit(frames, 4, 20, Rng(seed))
        worst_drop = max(worst_drop, float(np.max(-np.diff(history))))
    monotone_ok = worst_drop <= 1e-8

    nprng = np.random.default_rng(300)
    a = nprng.normal(size=(600, 2)) * 0.5 + np.array([2.5, -1.0])
    b = nprng.normal(size=(600, 2)) * 0.5 + np.array([-2.5, 1.5])
    model, _ = em_fit(np.vstack([a, b]), 2, 40, Rng(9))
    order = np.argsort(model.means[:, 0])
    recovery = max(float(np.max(np.abs(model.means[order[1]] - [2.5, -1.0]))),
                   float(np.max(np.abs(model.means[order[0]] - [-2.5, 1.5]))))

    worst_count = 0.0
    for seed in range(20):
        rng = Rng(400 + seed)
        length = rng.integers(3, 40)
        x = rng.normal((2, length), std=1.5)
        stats = accumulate_stats(model, x)
        worst_count = max(worst_count,
                          abs(float(stats.n.sum()) - length))

    report.check("gmm-suite",
          monotone_ok and recovery <= 0.1 and worst_count <= 1e-9,
          f"worst log-likelihood drop {worst_drop:.2e} over 10 seeds x 20 "
          f"iters, mean recovery {recovery:.3f} <= 0.1, occupancy count gap "
          f"{worst_count:.2e} <= 1e-9")


# ----------------------------------------------------------------- metrics


def test_metric_suite(report):
    nprng = np.random.default_rng(77)
    worst_sweep = 0.0
    for i in range(1000):
        nt = int(nprng.integers(1, 26))
        nn = int(nprng.integers(1, 26))
        if i % 2:
            tgt = nprng.integers(0, 6, nt).astype(float)
            non = nprng.integers(0, 6, nn).astype(float)
        else:
            tgt = nprng.normal(size=nt) + 0.8
            non = nprng.normal(size=nn)
        _, miss, fa = operating_points(tgt, non)
        worst_sweep = max(worst_sweep,
                          abs(eer_from_points(miss, fa)
                              - brute_force_eer(tgt, non)))

    _, miss, fa = operating_points(np.array([0.9, 0.6, 0.4]),
                                   np.array([0.7, 0.3, 0.1]))
    hand_eer_gap = abs(eer_from_points(miss, fa) - 1.0 / 3.0)

    hand = hand_three_class_set()
    hand_cavg_gap = abs(cavg(hand) - 7.0 / 24.0)
    flat = TrialSet(["A", "B", "C"],
                    [TrialScore(f"u{i}", i % 3, np.zeros(3))
                     for i in range(6)])
    flat_ok = cavg(flat) == 0.5

    trials = []
    for i in range(40):
        scores = np.asarray(nprng.normal(size=3))
        scores[i % 3] += 0.7
        trials.append(TrialScore(f"m{i}", i % 3, scores))
    base_set = TrialSet(["A", "B", "C"], trials)
    transform_ok = True
    for fn in (lambda s: 3.0 * s + 1.0, lambda s: s ** 3, np.arctan):
        mapped = TrialSet(["A", "B", "C"],
                          [TrialScore(t.id, t.label, fn(t.scores))
                           for t in base_set.trials])
        for k in range(3):
            if eer(mapped, k) != eer(base_set, k):
                transform_ok = False

    report.check("metric-suite",
          worst_sweep <= 1e-12 and hand_eer_gap <= 1e-12
          and hand_cavg_gap <= 1e-15 and flat_ok and transform_ok,
          f"sweep gap {worst_sweep:.2e} <= 1e-12 on 1000 sets, hand "
          f"eer gap {hand_eer_gap:.2e}, hand cavg gap {hand_cavg_gap:.2e}, "
          f"flat-scores cavg 0.5={flat_ok}, monotone-invariant={transform_ok}")


# ----------------------------------------------------- trend experiment


@pytest.fixture(scope="module")
def default_corpus():
    spec = SyntheticSpec()
    train_utts, test_utts = generate_corpus(spec)
    return spec, train_utts, test_utts


def desk_model(encoder, seed, spec, train_utts, epochs, components=8):
    """The desk recipe through the CLI's training stage: default front-end
    and crops, normalized aggregation for the dictionary encoder."""
    rc = RunConfig(encoder=EncoderSettings(model=encoder,
                                           components=components,
                                           aggregation=AGG_NORMALIZED),
                   train=SgdConfig(epochs=epochs, seed=seed))
    model, _ = train_from_config(rc, train_utts, spec.num_classes,
                                 spec.feature_dim)
    return model


def desk_gmm_eer(spec, train_utts, test_utts):
    g = GmmSettings()
    models, _, _ = fit_gmm_bank(train_utts, spec.num_classes, g)
    return eer_average(score_gmm_bank(models, test_utts, spec.num_classes, g))


def test_trend_experiment(default_corpus, report):
    t0 = time.monotonic()
    spec, train_utts, test_utts = default_corpus
    assert spec.num_classes == 4
    assert len(train_utts) == 800 and len(test_utts) == 400
    lengths = [u.num_frames for u in train_utts + test_utts]
    assert 100 <= min(lengths) and max(lengths) <= 1500

    tap_eers, lde_eers = [], []
    overfit_ok = True
    for seed in (0, 1, 2):
        for encoder, sink in ((ENCODER_TAP, tap_eers),
                              (ENCODER_LDE, lde_eers)):
            model = desk_model(encoder, seed, spec, train_utts, epochs=30)
            test_eer = eer_average(score_corpus(model, test_utts,
                                                spec.num_classes))
            sink.append(test_eer)
            if seed == 0:
                train_eer = eer_average(score_corpus(
                    model, train_utts[:200], spec.num_classes))
                if train_eer > test_eer + 1e-9:
                    overfit_ok = False
                report.note(f"{encoder} seed={seed}: train-split eer "
                     f"{train_eer * 100:.2f}% <= test eer "
                     f"{test_eer * 100:.2f}%")
            else:
                report.note(f"{encoder} seed={seed}: test eer {test_eer * 100:.2f}%")
    gmm_eer = desk_gmm_eer(spec, train_utts, test_utts)
    med_tap = float(np.median(tap_eers))
    med_lde = float(np.median(lde_eers))
    elapsed = time.monotonic() - t0

    beats_gmm = med_lde < gmm_eer and med_tap < gmm_eer
    deviation = "" if beats_gmm else \
        f"; DEVIATION: mixture baseline {gmm_eer * 100:.2f}% not beaten"
    report.check("trend-experiment",
          med_lde <= med_tap and overfit_ok and elapsed < 900.0,
          f"median test eer: dictionary {med_lde * 100:.2f}% <= average "
          f"{med_tap * 100:.2f}%, mixture baseline {gmm_eer * 100:.2f}%"
          f"{deviation}; train-split sanity={overfit_ok}; "
          f"{elapsed:.0f}s < 900s")


def test_component_sweep(default_corpus, report):
    spec, train_utts, test_utts = default_corpus
    rows = []
    for components in (2, 8, 32):
        model = desk_model(ENCODER_LDE, 0, spec, train_utts, epochs=10,
                           components=components)
        trials = score_corpus(model, test_utts, spec.num_classes)
        rows.append((components, model.cfg.encoder_dim,
                     eer_average(trials), cavg(trials)))
    report.note(f"{'components':>10} {'embed dim':>10} {'eer avg %':>10} "
         f"{'cavg %':>10}")
    for c, dim, e, c_avg in rows:
        report.note(f"{c:>10d} {dim:>10d} {e * 100:>10.2f} {c_avg * 100:>10.2f}")
    ok = all(np.isfinite([e, c_avg]).all() for _, _, e, c_avg in rows)
    report.check("component-sweep", ok,
          "completed for 2/8/32 components, table above")


# ----------------------------------------------------- reproducibility


REPRO_CONFIG = """
[data]
num_classes = 3
feature_dim = 8
phones_per_class = 3
min_len = 30
max_len = 80
train_utterances = 24
test_utterances = 12
seed = 11

[frontend]
stages = 8:1:down

[train]
epochs = 2
batch_size = 8
crop_min = 16
crop_max = 32
seed = 4

[gmm]
components = 2
iterations = 3
sdc_blocks = 2

[paths]
train_corpus = {root}/data/train.bin
test_corpus = {root}/data/test.bin
checkpoint = {root}/runs/model.ckpt
loss_log = {root}/runs/loss.log
scores = {root}/runs/scores.txt
gmm_checkpoint = {root}/runs/gmm.ckpt
gmm_scores = {root}/runs/gmm_scores.txt
"""


def test_reproducibility(tmp_path, report):
    from ldekit.cli import main

    config = tmp_path / "run.ini"
    config.write_text(REPRO_CONFIG.format(root=tmp_path))
    paths = {
        "loss log": tmp_path / "runs" / "loss.log",
        "checkpoint": tmp_path / "runs" / "model.ckpt",
        "scores": tmp_path / "runs" / "scores.txt",
        "mixture bank": tmp_path / "runs" / "gmm.ckpt",
        "mixture scores": tmp_path / "runs" / "gmm_scores.txt",
    }

    def pipeline(force):
        flags = ["--force"] if force else []
        assert main(["gen-data", "--config", str(config)] + flags) == 0
        assert main(["train", "--config", str(config)] + flags) == 0
        assert main(["eval",
                     "--checkpoint", str(paths["checkpoint"]),
                     "--corpus", str(tmp_path / "data" / "test.bin"),
                     "--scores", str(paths["scores"])] + flags) == 0
        assert main(["gmm", "--config", str(config)] + flags) == 0
        return {name: p.read_bytes() for name, p in paths.items()}

    first = pipeline(force=False)
    second = pipeline(force=True)
    stale = [name for name in paths if first[name] != second[name]]
    report.check("reproducibility", not stale,
          "loss log, checkpoints, and scores byte-identical across reruns"
          if not stale else f"differing artifacts: {', '.join(stale)}")
