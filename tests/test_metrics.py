import numpy as np
import pytest

from ldekit.metrics import (
    AlignmentError,
    FusionWeights,
    ScoresFormatError,
    TrialScore,
    TrialSet,
    _aligned_systems,
    _fusion_loss_grad,
    cavg,
    eer,
    eer_average,
    eer_from_points,
    eer_pooled,
    fuse,
    operating_points,
    pair_cost,
    read_scores,
    train_fusion,
    write_det_points,
    write_scores,
)
from ldekit.ndcore import Rng


def brute_force_eer(target_scores, non_scores):
    """Independent reference: explicit counting at every midpoint
    threshold (plus extremes), then the crossing interpolation."""
    uniq = sorted(set(list(target_scores) + list(non_scores)))
    thresholds = [uniq[0] - 1.0]
    thresholds += [(a + b) / 2.0 for a, b in zip(uniq, uniq[1:])]
    thresholds.append(uniq[-1] + 1.0)
    points = []
    for t in thresholds:
        miss = sum(1 for s in target_scores if s < t) / len(target_scores)
        fa = sum(1 for s in non_scores if s >= t) / len(non_scores)
        points.append((miss, fa))
    for (m0, f0), (m1, f1) in zip(points, points[1:]):
        d0, d1 = m0 - f0, m1 - f1
        if d0 < 0 <= d1:
            lam = -d0 / (d1 - d0)
            return m0 + lam * (m1 - m0)
    raise AssertionError("no miss/false-alarm crossing found")


def detection_set(target_scores, non_scores):
    """2-class TrialSet whose class-0 detection scores are as given."""
    trials = []
    for i, s in enumerate(target_scores):
        trials.append(TrialScore(f"t{i}", 0, np.array([s, 0.0])))
    for i, s in enumerate(non_scores):
        trials.append(TrialScore(f"n{i}", 1, np.array([s, 0.0])))
    return TrialSet(["A", "B"], trials)


def random_trial_set(rng, k=3, n=30, spread=1.0):
    trials = []
    for i in range(n):
        label = i % k  # every class covered
        scores = rng.normal((k,)) * spread
        scores[label] += 1.0
        trials.append(TrialScore(f"u{i}", label, scores))
    return TrialSet([f"L{j}" for j in range(k)], trials)


class TestTrialSet:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            TrialSet(["A", "B"], [TrialScore("x", 0, np.zeros(2)),
                                  TrialScore("x", 1, np.zeros(2))])

    def test_nonfinite_scores_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            TrialSet(["A", "B"], [TrialScore("x", 0,
                                             np.array([np.inf, 0.0]))])

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            TrialSet(["A", "B"], [TrialScore("x", 2, np.zeros(2))])

    def test_needs_two_classes(self):
        with pytest.raises(ValueError):
            TrialSet(["only"], [])

    def test_score_arity_checked(self):
        with pytest.raises(ValueError):
            TrialSet(["A", "B"], [TrialScore("x", 0, np.zeros(3))])


class TestEer:
    def test_perfect_separation(self):
        ts = detection_set([1.0, 2.0, 3.0], [-1.0, -2.0])
        assert eer(ts, 0) == 0.0

    def test_identical_distributions(self):
        ts = detection_set([0.1, 0.5, 0.9], [0.1, 0.5, 0.9])
        assert abs(eer(ts, 0) - 0.5) <= 1e-15

    def test_single_trial_each_tied(self):
        ts = detection_set([0.3], [0.3])
        assert abs(eer(ts, 0) - 0.5) <= 1e-15

    def test_hand_six_trials(self):
        ts = detection_set([0.9, 0.6, 0.4], [0.7, 0.3, 0.1])
        value = eer(ts, 0)
        assert abs(value - 1.0 / 3.0) <= 1e-12
        assert abs(brute_force_eer([0.9, 0.6, 0.4],
                                   [0.7, 0.3, 0.1]) - value) <= 1e-15

    def test_inverted_system_hits_one(self):
        ts = detection_set([-1.0, -2.0], [1.0, 2.0])
        assert eer(ts, 0) == 1.0

    def test_matches_brute_force_on_random_sets(self):
        rng = Rng(77)
        for case in range(200):
            nt = rng.integers(1, 25)
            nn = rng.integers(1, 25)
            if case % 2 == 0:
                tgt = list(rng.normal((nt,)) + 0.5)
                non = list(rng.normal((nn,)))
            else:
                # coarse integer scores force heavy tying
                tgt = [float(rng.integers(0, 4)) for _ in range(nt)]
                non = [float(rng.integers(0, 4)) for _ in range(nn)]
            got = eer(detection_set(tgt, non), 0)
            want = brute_force_eer(tgt, non)
            assert abs(got - want) <= 1e-12, (case, tgt, non)

    def test_monotone_transform_invariance(self):
        rng = Rng(13)
        tgt = [round(float(x), 1) for x in rng.normal((12,)) * 2 + 0.5]
        non = [round(float(x), 1) for x in rng.normal((15,)) * 2]
        base = eer(detection_set(tgt, non), 0)
        for transform in (lambda s: 3.0 * s + 1.0,
                          lambda s: s ** 3,
                          np.arctan):
            mapped = eer(detection_set([transform(s) for s in tgt],
                                       [transform(s) for s in non]), 0)
            assert mapped == base

    def test_needs_both_sides(self):
        trials = [TrialScore("a", 0, np.zeros(2)),
                  TrialScore("b", 0, np.ones(2))]
        ts = TrialSet(["A", "B"], trials)
        with pytest.raises(ValueError):
            eer(ts, 0)  # no non-target trials
        with pytest.raises(ValueError):
            eer(ts, 1)  # no target trials

    def test_bad_target_index(self):
        ts = detection_set([1.0], [0.0])
        with pytest.raises(ValueError):
            eer(ts, 5)

    def test_operating_points_monotone(self):
        rng = Rng(4)
        _, miss, fa = operating_points(rng.normal((20,)), rng.normal((30,)))
        assert np.all(np.diff(miss) >= 0)
        assert np.all(np.diff(fa) <= 0)
        assert miss[0] == 0.0 and fa[0] == 1.0
        assert miss[-1] == 1.0 and fa[-1] == 0.0


class TestEerSummaries:
    def test_average_is_mean_of_per_class(self):
        ts = random_trial_set(Rng(5), k=4, n=40)
        per_class = [eer(ts, k) for k in range(4)]
        assert eer_average(ts) == pytest.approx(np.mean(per_class), abs=1e-15)

    def test_pooled_perfect_system(self):
        trials = []
        for i in range(12):
            label = i % 3
            scores = np.full(3, -5.0)
            scores[label] = 5.0
            trials.append(TrialScore(f"u{i}", label, scores))
        ts = TrialSet(["a", "b", "c"], trials)
        assert eer_pooled(ts) == 0.0
        assert eer_average(ts) == 0.0

    def test_pooled_uninformative_system(self):
        trials = [TrialScore(f"u{i}", i % 2, np.zeros(2)) for i in range(10)]
        ts = TrialSet(["a", "b"], trials)
        assert abs(eer_pooled(ts) - 0.5) <= 1e-15


def hand_three_class_set():
    rows = [("t1", 0, [2.0, 1.0, 0.0]),
            ("t2", 0, [0.5, 1.5, -1.0]),
            ("t3", 1, [1.0, 1.0, 0.0]),   # tied pair difference
            ("t4", 1, [-1.0, 2.0, 1.0]),
            ("t5", 2, [0.0, 0.0, 1.0]),
            ("t6", 2, [1.0, -1.0, -2.0])]
    return TrialSet(["A", "B", "C"],
                    [TrialScore(i, l, np.array(s)) for i, l, s in rows])


def cavg_reference(ts):
    """Independent per-pair loop computation."""
    k = ts.num_classes
    costs = []
    for t in range(k):
        for n in range(k):
            if t == n:
                continue
            t_trials = [tr for tr in ts.trials if tr.label == t]
            n_trials = [tr for tr in ts.trials if tr.label == n]
            miss = sum(1 for tr in t_trials
                       if tr.scores[t] - tr.scores[n] <= 0) / len(t_trials)
            fa = sum(1 for tr in n_trials
                     if tr.scores[t] - tr.scores[n] > 0) / len(n_trials)
            costs.append(0.5 * miss + 0.5 * fa)
    return sum(costs) / len(costs)


class TestCavg:
    def test_oracle_margin_is_zero(self):
        trials = []
        for i in range(9):
            label = i % 3
            scores = np.full(3, -100.0)
            scores[label] = 100.0
            trials.append(TrialScore(f"u{i}", label, scores))
        assert cavg(TrialSet(["a", "b", "c"], trials)) == 0.0

    def test_all_zero_scores_is_half(self):
        # ties reject everything: every target trial misses, no false alarms
        trials = [TrialScore(f"u{i}", i % 3, np.zeros(3)) for i in range(9)]
        assert cavg(TrialSet(["a", "b", "c"], trials)) == 0.5

    def test_hand_three_class_value(self):
        ts = hand_three_class_set()
        assert abs(cavg(ts) - 7.0 / 24.0) <= 1e-15

    def test_matches_loop_reference_on_random_sets(self):
        rng = Rng(31)
        for _ in range(25):
            ts = random_trial_set(rng, k=4, n=24, spread=1.5)
            assert abs(cavg(ts) - cavg_reference(ts)) <= 1e-14

    def test_tie_counts_as_rejection_both_ways(self):
        trials = [TrialScore("t", 0, np.array([1.0, 1.0])),
                  TrialScore("n", 1, np.array([1.0, 1.0]))]
        ts = TrialSet(["A", "B"], trials)
        # pair (A,B): the A trial ties -> miss; the B trial ties -> no alarm
        assert pair_cost(ts, 0, 1) == 0.5
        assert pair_cost(ts, 1, 0) == 0.5

    def test_label_permutation_invariance(self):
        ts = hand_three_class_set()
        perm = [2, 0, 1]  # new index of each old class
        permuted = TrialSet(
            [ts.class_names[j] for j in np.argsort(perm)],
            [TrialScore(t.id, perm[t.label], t.scores[np.argsort(perm)])
             for t in ts.trials])
        assert cavg(permuted) == cavg(ts)

    def test_missing_class_rejected(self):
        trials = [TrialScore("a", 0, np.zeros(3)),
                  TrialScore("b", 1, np.zeros(3))]
        with pytest.raises(ValueError, match="no trials"):
            cavg(TrialSet(["x", "y", "z"], trials))


class TestFuse:
    def test_single_system_identity_bit_exact(self):
        ts = random_trial_set(Rng(9), k=3, n=15)
        fused = fuse([ts], FusionWeights(np.array([1.0])))
        assert fused.ids() == ts.ids()
        assert np.array_equal(fused.score_matrix(), ts.score_matrix())
        assert np.array_equal(fused.labels(), ts.labels())

    def test_duplicate_systems_half_weights_identity(self):
        ts = random_trial_set(Rng(10), k=3, n=15)
        fused = fuse([ts, ts], FusionWeights(np.array([0.5, 0.5])))
        assert np.array_equal(fused.score_matrix(), ts.score_matrix())

    def test_alignment_by_id_not_order(self):
        ts = random_trial_set(Rng(11), k=2, n=8)
        reordered = TrialSet(ts.class_names, list(reversed(ts.trials)))
        fused = fuse([ts, reordered], FusionWeights(np.array([0.5, 0.5])))
        assert np.array_equal(fused.score_matrix(), ts.score_matrix())
        assert fused.ids() == ts.ids()

    def test_id_mismatch_rejected(self):
        a = random_trial_set(Rng(12), k=2, n=6)
        b = TrialSet(a.class_names,
                     [TrialScore("other", 0, np.zeros(2))] + a.trials[1:])
        with pytest.raises(AlignmentError):
            fuse([a, b], FusionWeights(np.array([0.5, 0.5])))

    def test_label_disagreement_rejected(self):
        a = random_trial_set(Rng(12), k=2, n=6)
        flipped = [TrialScore(t.id, 1 - t.label, t.scores) for t in a.trials]
        b = TrialSet(a.class_names, flipped)
        with pytest.raises(AlignmentError):
            fuse([a, b], FusionWeights(np.array([0.5, 0.5])))

    def test_weight_count_checked(self):
        ts = random_trial_set(Rng(13), k=2, n=6)
        with pytest.raises(ValueError):
            fuse([ts], FusionWeights(np.array([0.5, 0.5])))


class TestTrainFusion:
    def informative_and_noise(self, n=400, k=4):
        # informative scores overlap across classes so the optimum is
        # finite and gradient descent actually settles there
        rng = Rng(50)
        ids = [f"u{i}" for i in range(n)]
        labels = [i % k for i in range(n)]
        good, noise = [], []
        for label in labels:
            scores = rng.normal((k,))
            scores[label] += 1.5
            good.append(scores)
        noise_scores = rng.normal((n, k))
        names = [f"L{j}" for j in range(k)]
        good_ts = TrialSet.from_arrays(names, ids, labels, np.stack(good))
        noise_ts = TrialSet.from_arrays(names, ids, labels, noise_scores)
        return good_ts, noise_ts

    def test_zero_iterations_returns_init(self):
        good, noise = self.informative_and_noise()
        fw = train_fusion([good, noise], iterations=0)
        assert np.array_equal(fw.weights, [0.5, 0.5])

    def test_noise_system_weight_shrinks(self):
        good, noise = self.informative_and_noise()
        fw = train_fusion([good, noise])
        assert abs(fw.weights[1]) <= 0.05
        assert fw.weights[0] > 0.5

    def test_duplicate_systems_get_equal_weights(self):
        good, _ = self.informative_and_noise()
        fw = train_fusion([good, good], iterations=200)
        assert abs(fw.weights[0] - fw.weights[1]) <= 1e-6

    def test_complementary_fusion_beats_both(self):
        names = ["A", "B"]
        ids = [f"u{i}" for i in range(40)]
        labels = [i % 2 for i in range(40)]
        a_scores = np.zeros((40, 2))
        b_scores = np.zeros((40, 2))
        for i, label in enumerate(labels):
            if i < 20:
                a_scores[i, label] = 3.0
            else:
                b_scores[i, label] = 3.0
        sys_a = TrialSet.from_arrays(names, ids, labels, a_scores)
        sys_b = TrialSet.from_arrays(names, ids, labels, b_scores)
        fw = train_fusion([sys_a, sys_b])
        fused = fuse([sys_a, sys_b], fw)
        best_single = min(eer_average(sys_a), eer_average(sys_b))
        assert eer_average(fused) <= best_single

    def test_nonconvergence_warns_and_returns_best(self):
        good, noise = self.informative_and_noise()
        _, _, labels, tensor = _aligned_systems([good, noise])
        start, _ = _fusion_loss_grad(np.full(2, 0.5), tensor, labels)
        losses = []
        for iterations in range(1, 6):
            with pytest.warns(RuntimeWarning, match="converge"):
                fw = train_fusion([good, noise], iterations=iterations)
            assert np.all(np.isfinite(fw.weights))
            losses.append(_fusion_loss_grad(fw.weights, tensor, labels)[0])
        assert losses[0] <= start
        assert all(b <= a for a, b in zip(losses, losses[1:]))

    def test_thin_classes_rejected(self):
        names = ["A", "B"]
        ts = TrialSet.from_arrays(names, ["x", "y", "z"], [0, 0, 1],
                                  np.zeros((3, 2)))
        with pytest.raises(ValueError, match="2 trials"):
            train_fusion([ts])


class TestScoresFile:
    def test_roundtrip_exact(self, tmp_path):
        ts = random_trial_set(Rng(60), k=3, n=12)
        path = tmp_path / "scores.txt"
        write_scores(path, ts)
        back = read_scores(path)
        assert back.class_names == ts.class_names
        assert back.ids() == ts.ids()
        assert np.array_equal(back.labels(), ts.labels())
        assert np.array_equal(back.score_matrix(), ts.score_matrix())

    def test_rewrite_is_byte_identical(self, tmp_path):
        ts = random_trial_set(Rng(61), k=4, n=9)
        pa, pb = tmp_path / "a.txt", tmp_path / "b.txt"
        write_scores(pa, ts)
        write_scores(pb, read_scores(pa))
        assert pa.read_bytes() == pb.read_bytes()

    def test_extreme_values_roundtrip(self, tmp_path):
        vals = np.array([[1e-300, -1e300], [0.1, -0.0]])
        ts = TrialSet.from_arrays(["A", "B"], ["x", "y"], [0, 1], vals)
        path = tmp_path / "s.txt"
        write_scores(path, ts)
        assert np.array_equal(read_scores(path).score_matrix(), vals)

    def test_bad_field_count(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("id1\tA\n")
        with pytest.raises(ScoresFormatError, match="3 tab"):
            read_scores(path)

    def test_bad_score_value(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("id1\tA\tA:x,B:1.0\n")
        with pytest.raises(ScoresFormatError, match="bad score"):
            read_scores(path)

    def test_unknown_label(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("id1\tZ\tA:1.0,B:2.0\n")
        with pytest.raises(ScoresFormatError, match="unknown label"):
            read_scores(path)

    def test_inconsistent_classes(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("id1\tA\tA:1.0,B:2.0\nid2\tA\tA:1.0,C:2.0\n")
        with pytest.raises(ScoresFormatError, match="changed"):
            read_scores(path)

    def test_duplicate_ids(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("id1\tA\tA:1.0,B:2.0\nid1\tB\tA:0.0,B:0.0\n")
        with pytest.raises(ScoresFormatError,
                           match="duplicate trial id 'id1'"):
            read_scores(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("")
        with pytest.raises(ScoresFormatError, match="empty scores file"):
            read_scores(path)


class TestDetPoints:
    def test_dump_structure(self, tmp_path):
        ts = detection_set([0.9, 0.6, 0.4], [0.7, 0.3, 0.1])
        path = tmp_path / "det.txt"
        write_det_points(path, ts, 0)
        rows = [line.split("\t")
                for line in path.read_text().strip().split("\n")]
        assert len(rows) == 7  # 6 unique scores + the upper extreme
        miss = [float(r[1]) for r in rows]
        fa = [float(r[2]) for r in rows]
        assert miss[0] == 0.0 and fa[0] == 1.0
        assert miss[-1] == 1.0 and fa[-1] == 0.0
        assert all(a <= b for a, b in zip(miss, miss[1:]))
        assert all(a >= b for a, b in zip(fa, fa[1:]))
        assert float(rows[-1][0]) == np.inf
