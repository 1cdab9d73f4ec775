"""Each output check passes on a correct output and rejects a corrupted one;
the metric names the benchmark prints match BENCHMARK.json."""

import json
import os

import numpy as np
import pytest

import checks
import run
import spans
from ldekit.data import SyntheticSpec, generate_corpus, sdc
from ldekit.encoding import LdeConfig
from ldekit.frontend import ConvSpec, StageSpec
from ldekit.gmm import em_fit, gmm_classify, log_posterior_scores
from ldekit.metrics import TrialScore, TrialSet
from ldekit.ndcore import Rng
from ldekit.train import (
    Model,
    ModelConfig,
    batch_loss,
    infer,
    load_checkpoint,
    save_model,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def corpus():
    spec = SyntheticSpec(num_classes=3, feature_dim=8, min_len=40, max_len=60,
                         train_utterances=6, test_utterances=6,
                         bucketed_test=False, seed=4)
    return generate_corpus(spec)


def small_model(aggregation="mean", seed=1):
    fe = ConvSpec(in_dim=8, stages=[StageSpec(4, 1, True), StageSpec(6, 1, True)])
    lde = LdeConfig(num_components=3, feature_dim=6,
                    aggregation_mode=aggregation)
    return Model(ModelConfig(in_dim=8, num_classes=3, encoder="lde", lde=lde,
                             frontend=fe), Rng(seed))


def scored(utts, score_fn):
    names = ["L0", "L1", "L2"]
    return TrialSet(names, [TrialScore(u.id, u.label, score_fn(u)) for u in utts])


def corrupt(trials, delta):
    bad = TrialSet(trials.class_names, [TrialScore(t.id, t.label, t.scores.copy())
                                        for t in trials.trials])
    bad.trials[-1].scores[1] += delta  # after TrialSet's finiteness check
    return bad


@pytest.mark.parametrize("aggregation", ["mean", "normalized"])
def test_score_check(tmp_path, corpus, aggregation):
    _, test = corpus
    model = small_model(aggregation)
    path = tmp_path / "model.ckpt"
    save_model(path, model)
    ckpt = load_checkpoint(path)
    trials = scored(test, lambda u: infer(model, u.features))
    args = (ckpt.params, ckpt.meta["config"], test)
    assert checks.score_failures(*args, trials) == []
    assert checks.score_failures(*args, corrupt(trials, 1e-6))
    assert checks.score_failures(*args, corrupt(trials, np.nan))
    assert checks.score_failures(*args, TrialSet(trials.class_names,
                                                 trials.trials[1:]))


def test_loss_check():
    falling = np.concatenate([np.full(5, 1.4), np.full(5, 1.2), np.full(5, 0.8)])
    assert checks.loss_failures(falling, 3) == []
    assert checks.loss_failures(falling[::-1], 3)
    with_nan = falling.copy()
    with_nan[7] = np.nan
    assert checks.loss_failures(with_nan, 3)


def test_gradient_check(corpus):
    train, _ = corpus
    model = small_model("normalized")
    feats = np.stack([u.features[:, :30] for u in train[:3]])
    labels = np.array([u.label for u in train[:3]])
    rng = np.random.default_rng(0)
    assert checks.gradient_failures(model, feats, labels, batch_loss, rng) == []

    def skewed(model, feats, labels, accumulate=True):
        loss = batch_loss(model, feats, labels, accumulate)
        if accumulate:
            model.dictionary.centers.grad *= 1.01
        return loss

    failures = checks.gradient_failures(model, feats, labels, skewed, rng)
    assert failures and all("dictionary.centers" in f for f in failures)


def test_history_and_weight_checks():
    assert checks.history_failures([[-5.0, -4.0, -4.0, -3.5]]) == []
    assert checks.history_failures([[-5.0, -4.0], [-5.0, -4.0, -4.1]])

    class Mixture:
        def __init__(self, weights):
            self.weights = np.asarray(weights)

    assert checks.weight_failures([Mixture([0.25, 0.75])]) == []
    assert checks.weight_failures([Mixture([0.25, 0.7501])])
    assert checks.weight_failures([Mixture([1.5, -0.5])])


def test_gmm_score_check(corpus):
    train, test = corpus
    sdc_args = (7, 1, 3, 7, True)
    for u in test:
        np.testing.assert_array_equal(checks.shifted_deltas(u.features, *sdc_args),
                                      sdc(u.features))
    frames = [np.concatenate([sdc(u.features).T for u in train if u.label == k])
              for k in range(3)]
    models = [em_fit(f, 2, 3, Rng(k))[0] for k, f in enumerate(frames)]
    trials = scored(test, lambda u: log_posterior_scores(
        gmm_classify(models, sdc(u.features))))
    assert checks.gmm_score_failures(models, test, trials, sdc_args) == []
    assert checks.gmm_score_failures(models, test, corrupt(trials, 1e-5),
                                     sdc_args)


def test_tracer_self_time():
    tracer = spans.Tracer()
    outer = tracer.enter("outer")
    inner = tracer.enter("inner")
    tracer.exit(inner)
    tracer.exit(outer)
    (o_name, o_start, o_end, o_self, o_parent), (i_name, i_start, i_end, i_self,
                                                 i_parent) = tracer.spans()
    assert (o_name, i_name, o_parent, i_parent) == ("outer", "inner", -1, 0)
    assert i_self == pytest.approx(i_end - i_start)
    assert o_self == pytest.approx((o_end - o_start) - (i_end - i_start))


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    timed = {"items": [0.001] * 200, "commands": [1.0], "frames": 10,
             "frame_s": 1.0, "rss_mb": 100.0}
    e2e = run.end_to_end_metrics([timed], [1.0, 2.0, 3.0])
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == \
        {k: v["unit"] for k, v in e2e.items()}
    traced = {"spans": spans.summarize([]), "frames": 5, "commands": [2.0],
              "alloc_peak_mb": {}}
    layers = run.per_layer_metrics("train", {"commands": [1.5]}, traced)
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == \
        {k: v["unit"] for k, v in layers.items()}
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
