import hashlib
import os
import struct
import tracemalloc

import numpy as np
import pytest

from ldekit.data import (
    BUCKET_SEP,
    DURATION_BUCKETS,
    CorpusFile,
    CorpusFormatError,
    SyntheticSpec,
    Utterance,
    crop_or_extend,
    duration_bucket,
    generate_corpus,
    make_batches,
    read_corpus,
    sdc,
    sdc_shape,
    write_corpus,
)
from ldekit.ndcore import (
    ARTIFACT_VERSION,
    DimensionError,
    Rng,
    read_artifact,
    write_artifact,
)


def small_spec(**kw):
    base = dict(num_classes=4, feature_dim=8, phones_per_class=3,
                min_len=50, max_len=300, train_utterances=80,
                test_utterances=80, seed=7)
    base.update(kw)
    return SyntheticSpec(**base)


class TestGenerateCorpus:
    def test_counts_and_shapes(self):
        spec = small_spec()
        train, test = generate_corpus(spec)
        assert len(train) == 80 and len(test) == 80
        for u in train + test:
            assert u.features.shape[0] == spec.feature_dim
            assert u.features.dtype == np.float64

    def test_ids_disjoint_and_unique(self):
        train, test = generate_corpus(small_spec())
        train_ids = {u.id for u in train}
        test_ids = {u.id for u in test}
        assert len(train_ids) == len(train)
        assert len(test_ids) == len(test)
        assert not train_ids & test_ids

    def test_labels_balanced(self):
        train, test = generate_corpus(small_spec())
        for split in (train, test):
            counts = np.bincount([u.label for u in split], minlength=4)
            assert counts.max() - counts.min() <= 1

    def test_train_lengths_in_range_untagged(self):
        spec = small_spec()
        train, _ = generate_corpus(spec)
        for u in train:
            assert spec.min_len <= u.num_frames <= spec.max_len
            assert duration_bucket(u.id) is None

    def test_test_buckets(self):
        spec = SyntheticSpec(num_classes=2, feature_dim=4,
                             train_utterances=4, test_utterances=60, seed=3)
        _, test = generate_corpus(spec)
        ranges = dict(DURATION_BUCKETS)
        seen = set()
        for u in test:
            tag = duration_bucket(u.id)
            assert tag in ranges
            lo, hi = ranges[tag]
            assert lo <= u.num_frames <= hi
            assert u.id.endswith(BUCKET_SEP + tag)
            seen.add(tag)
        assert seen == set(ranges)  # 60 draws hit all three buckets

    def test_bucket_is_the_tag_after_the_last_separator(self):
        sep = BUCKET_SEP
        assert duration_bucket(f"te00001{sep}x{sep}short") == "short"
        assert duration_bucket(f"te00001{sep}") == ""
        assert duration_bucket("te00001") is None

    def test_deterministic(self):
        spec = small_spec()
        a_train, a_test = generate_corpus(spec)
        b_train, b_test = generate_corpus(spec)
        for a, b in zip(a_train + a_test, b_train + b_test):
            assert a.id == b.id and a.label == b.label
            assert np.array_equal(a.features, b.features)

    def test_seed_changes_data(self):
        a_train, _ = generate_corpus(small_spec(seed=1))
        b_train, _ = generate_corpus(small_spec(seed=2))
        assert not np.array_equal(a_train[0].features, b_train[0].features)

    def test_rejects_bad_spec(self):
        with pytest.raises(ValueError):
            small_spec(num_classes=1)
        with pytest.raises(ValueError):
            small_spec(min_len=400, max_len=300)
        with pytest.raises(ValueError):
            small_spec(separation=-1.0)


def nearest_class_mean_accuracy(train, test, num_classes):
    """Frame-pooled nearest-class-mean classifier, a learning-free
    signal probe."""
    means = []
    for k in range(num_classes):
        frames = np.hstack([u.features for u in train if u.label == k])
        means.append(frames.mean(axis=1))
    means = np.stack(means)
    hits = 0
    for u in test:
        v = u.features.mean(axis=1)
        pred = np.argmin(((means - v) ** 2).sum(axis=1))
        hits += int(pred == u.label)
    return hits / len(test)


class TestSignalLevels:
    def test_default_separation_is_learnable(self):
        spec = small_spec(train_utterances=120, test_utterances=120)
        train, test = generate_corpus(spec)
        acc = nearest_class_mean_accuracy(train, test, spec.num_classes)
        assert acc >= 0.6, f"expected clear signal, accuracy {acc:.3f}"

    def test_zero_separation_is_chance(self):
        # null control: no class signal, probe must sit at chance
        spec = small_spec(separation=0.0, train_utterances=120,
                          test_utterances=200)
        train, test = generate_corpus(spec)
        acc = nearest_class_mean_accuracy(train, test, spec.num_classes)
        assert 0.10 <= acc <= 0.45, f"chance is 0.25, got {acc:.3f}"


class TestCropOrExtend:
    def test_equal_length_identity(self):
        u = Utterance("a", 0, np.arange(12.0).reshape(2, 6))
        out = crop_or_extend(u, 6, Rng(0))
        assert np.array_equal(out, u.features)

    def test_crop_is_contiguous_window(self):
        feats = np.arange(20.0).reshape(1, 20)
        u = Utterance("a", 0, feats)
        rng = Rng(5)
        for _ in range(20):
            out = crop_or_extend(u, 7, rng)
            start = int(out[0, 0])
            assert np.array_equal(out, feats[:, start:start + 7])

    def test_crop_start_varies(self):
        feats = np.arange(100.0).reshape(1, 100)
        u = Utterance("a", 0, feats)
        rng = Rng(9)
        starts = {int(crop_or_extend(u, 10, rng)[0, 0]) for _ in range(50)}
        assert len(starts) > 5

    def test_extend_tiles_with_wraparound(self):
        for frames, target, tiled in [
                ([1.0, 2.0, 3.0], 7, [1.0, 2.0, 3.0, 1.0, 2.0, 3.0, 1.0]),
                ([4.0], 7, [4.0] * 7),
                ([1.0, 2.0, 3.0], 6, [1.0, 2.0, 3.0, 1.0, 2.0, 3.0])]:
            u = Utterance("a", 0, np.array([frames]))
            out = crop_or_extend(u, target, Rng(0))
            assert np.array_equal(out, [tiled]), (frames, target)

    def test_extend_preserves_rows(self):
        u = Utterance("a", 0, np.array([[1.0, 2.0], [5.0, 6.0]]))
        out = crop_or_extend(u, 5, Rng(0))
        assert np.array_equal(out, [[1.0, 2.0, 1.0, 2.0, 1.0],
                                    [5.0, 6.0, 5.0, 6.0, 5.0]])


class TestSdc:
    def test_hand_ramp(self):
        x = np.array([[0.0, 1.0, 2.0, 3.0]])
        out = sdc(x, n_coeffs=1, delta=1, shift=1, blocks=1,
                  append_static=False)
        assert np.array_equal(out, [[2.0, 2.0]])

    def test_hand_ramp_with_static(self):
        x = np.array([[0.0, 1.0, 2.0, 3.0]])
        out = sdc(x, n_coeffs=1, delta=1, shift=1, blocks=1)
        assert np.array_equal(out, [[2.0, 2.0], [1.0, 2.0]])

    def test_7137_matches_index_formula(self):
        rng = Rng(11)
        x = rng.normal((9, 40)).T.copy().T  # 9 x 40, c-order either way
        out = sdc(x, 7, 1, 3, 7, append_static=True)
        n, d, p, k = 7, 1, 3, 7
        first = d
        last = x.shape[1] - 1 - ((k - 1) * p + d)
        assert out.shape == (n * k + n, last - first + 1)
        for j, t in enumerate(range(first, last + 1)):
            expect = [x[:n, t + i * p + d] - x[:n, t + i * p - d]
                      for i in range(k)]
            expect.append(x[:n, t])
            assert np.max(np.abs(out[:, j] - np.concatenate(expect))) <= 1e-12

    def test_output_dim_7137(self):
        x = Rng(1).normal((7, 30)).reshape(7, 30)
        assert sdc(x).shape[0] == 56
        assert sdc(x, append_static=False).shape[0] == 49

    def test_too_short_sequence(self):
        x = np.zeros((7, 20))  # needs 2*1 + 6*3 + 1 = 21 frames
        with pytest.raises(ValueError, match="21"):
            sdc(x)
        assert sdc(np.zeros((7, 21))).shape[1] == 1

    def test_too_few_dims(self):
        with pytest.raises(DimensionError):
            sdc(np.zeros((6, 30)))

    def test_rejects_non_2d(self):
        with pytest.raises(DimensionError):
            sdc(np.zeros(30))

    @pytest.mark.parametrize("shape, spec", [
        ((7, 21), {}),
        ((20, 300), {}),
        ((20, 300), {"append_static": False}),
        ((8, 50), {"n_coeffs": 8, "delta": 2, "shift": 5, "blocks": 2}),
        ((3, 4), {"n_coeffs": 1, "delta": 1, "shift": 1, "blocks": 1}),
    ])
    def test_shape_without_computing(self, shape, spec):
        assert sdc_shape(shape, **spec) == sdc(np.zeros(shape), **spec).shape

    def test_shape_raises_what_sdc_raises(self):
        with pytest.raises(ValueError, match="needs at least 21"):
            sdc_shape((7, 20))
        with pytest.raises(DimensionError):
            sdc_shape((6, 30))


class TestMakeBatches:
    def make_utts(self, count, dim=3):
        rng = Rng(4)
        return [Utterance(f"u{i}", i % 2,
                          rng.normal((dim, 30 + i)).reshape(dim, 30 + i))
                for i in range(count)]

    def test_epoch_covers_all_once(self):
        utts = self.make_utts(10)
        seen = []
        for feats, labels in make_batches(utts, 3, 8, 16, Rng(0)):
            assert feats.ndim == 3 and feats.shape[0] == len(labels)
            seen.extend(labels.tolist())
        assert len(seen) == 10  # remainder batch of 1 kept

    def test_shared_length_within_policy(self):
        utts = self.make_utts(9)
        for feats, _ in make_batches(utts, 4, 5, 12, Rng(2)):
            assert 5 <= feats.shape[2] <= 12

    def test_shuffle_is_seeded(self):
        # distinct labels, so the label order is the drawn order
        utts = [Utterance(f"u{i}", i, u.features)
                for i, u in enumerate(self.make_utts(8))]
        a = [lab.tolist() for _, lab in make_batches(utts, 4, 6, 6, Rng(3))]
        b = [lab.tolist() for _, lab in make_batches(utts, 4, 6, 6, Rng(3))]
        c = [lab.tolist() for _, lab in make_batches(utts, 4, 6, 6, Rng(4))]
        assert a == b
        assert a != c

    def test_length_draw_is_uniform_per_decile(self):
        # 10k steps of the shared crop length, 200..1000 inclusive
        utts = [Utterance("x", 0, np.zeros((1, 1))),
                Utterance("y", 1, np.zeros((1, 1)))]
        rng = Rng(123)
        draws = []
        for _ in range(10_000):
            for feats, _ in make_batches(utts, 2, 200, 1000, rng):
                draws.append(feats.shape[2])
        draws = np.array(draws)
        assert draws.min() >= 200 and draws.max() <= 1000
        hist, _ = np.histogram(draws, bins=10, range=(200, 1001))
        frac = hist / draws.size
        assert np.all(np.abs(frac - 0.1) <= 0.02), frac

    def test_bad_batch_size(self):
        with pytest.raises(ValueError):
            list(make_batches(self.make_utts(4), 0, 5, 6, Rng(0)))


class TestCorpusFile:
    def test_roundtrip_exact(self, tmp_path):
        spec = small_spec(train_utterances=12, test_utterances=0)
        train, _ = generate_corpus(spec)
        path = tmp_path / "train.bin"
        write_corpus(path, train, spec.num_classes, spec.feature_dim)
        back, k, d = read_corpus(path)
        assert (k, d) == (spec.num_classes, spec.feature_dim)
        assert len(back) == len(train)
        for a, b in zip(train, back):
            assert a.id == b.id and a.label == b.label
            assert np.array_equal(a.features, b.features)

    def test_same_seed_same_bytes(self, tmp_path):
        spec = small_spec(train_utterances=10, test_utterances=10)
        pa, pb = tmp_path / "a.bin", tmp_path / "b.bin"
        for p in (pa, pb):
            train, test = generate_corpus(spec)
            write_corpus(p, train + test, spec.num_classes, spec.feature_dim)
        assert pa.read_bytes() == pb.read_bytes()

    def test_pinned_corpus_bytes(self, tmp_path):
        # sha256 of both files: a change to the generator's draws, their
        # order or the file format shows here
        spec = SyntheticSpec(train_utterances=40, test_utterances=20, seed=3)
        train, test = generate_corpus(spec)
        expected = {
            "train": "b6fbc3933a1f2d55e27244eb4622489a"
                     "c1d4cec8b8cb378b61bd9dba86014790",
            "test": "0dd0951b666ced2b949426bac5412b90"
                    "011ecd2ba93e04655bd6f3219a4e024f",
        }
        for name, utts in (("train", train), ("test", test)):
            path = tmp_path / f"{name}.bin"
            write_corpus(path, utts, spec.num_classes, spec.feature_dim)
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            assert digest == expected[name], name

    def test_bucket_tag_survives_roundtrip(self, tmp_path):
        spec = small_spec(train_utterances=0, test_utterances=9)
        _, test = generate_corpus(spec)
        path = tmp_path / "test.bin"
        write_corpus(path, test, spec.num_classes, spec.feature_dim)
        back, _, _ = read_corpus(path)
        tags = [duration_bucket(u.id) for u in back]
        assert tags == [duration_bucket(u.id) for u in test]
        assert None not in tags

    def test_read_holds_no_second_copy(self, tmp_path):
        spec = small_spec(train_utterances=40, test_utterances=0)
        train, _ = generate_corpus(spec)
        path = tmp_path / "c.bin"
        write_corpus(path, train, spec.num_classes, spec.feature_dim)
        size = path.stat().st_size
        tracemalloc.start()
        try:
            read_corpus(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * size

    @staticmethod
    def bucketed_file(path):
        spec = small_spec(train_utterances=0, test_utterances=13)
        _, test = generate_corpus(spec)
        write_corpus(path, test, spec.num_classes, spec.feature_dim)
        return spec

    def test_label_out_of_range_names_the_utterance(self, tmp_path):
        path = tmp_path / "c.bin"
        self.bucketed_file(path)
        meta, arrays = read_artifact(path, CorpusFormatError)
        meta["labels"][0] = 9  # utterance te00000 is of class 0
        write_artifact(path, meta, list(arrays.items()))
        with pytest.raises(CorpusFormatError,
                           match="label 9 of te00000#.* out of range"):
            read_corpus(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"XXXX" + b"\0" * 12)
        with pytest.raises(CorpusFormatError, match="bad magic b'XXXX'"):
            read_corpus(path)

    @staticmethod
    def one_utterance_file(path) -> bytes:
        write_corpus(path, [Utterance("u0", 0, np.ones((2, 5)))], 2, 2)
        return path.read_bytes()

    @pytest.mark.parametrize("length", range(4, 16))
    def test_truncated_header(self, tmp_path, length):
        path = tmp_path / "short.bin"
        blob = self.one_utterance_file(path)
        assert length < blob.index(b'{"arrays"')  # a cut before the head
        path.write_bytes(blob[:length])
        with pytest.raises(CorpusFormatError, match="truncated header"):
            read_corpus(path)

    def test_bad_version(self, tmp_path):
        path = tmp_path / "c.bin"
        blob = self.one_utterance_file(path)
        at = blob.index(struct.pack("<I", ARTIFACT_VERSION))
        path.write_bytes(blob[:at] + struct.pack("<I", 99) + blob[at + 4:])
        with pytest.raises(CorpusFormatError, match="unsupported version 99"):
            read_corpus(path)

    def test_truncated_file(self, tmp_path):
        utts = [Utterance("u0", 0, np.ones((2, 5)))]
        path = tmp_path / "t.bin"
        write_corpus(path, utts, 2, 2)
        blob = path.read_bytes()
        path.write_bytes(blob[:-8])
        with pytest.raises(CorpusFormatError,
                           match="truncated: the head declares 80 bytes of "
                                 "arrays, 72 follow"):
            read_corpus(path)

    def test_oversized_lengths_are_truncation(self, tmp_path):
        # a corrupt length is reported before anything that large is read
        # or allocated; the head's byte count is the 8 bytes before it
        path = tmp_path / "big.bin"
        blob = self.one_utterance_file(path)
        at = blob.index(b'{"arrays"')
        (count,) = struct.unpack_from("<Q", blob, at - 8)
        path.write_bytes(blob[:at - 8] + struct.pack("<Q", 2**62) + blob[at:])
        with pytest.raises(CorpusFormatError, match="truncated head"):
            read_corpus(path)
        head = blob[at:at + count].replace(b"[2, 5]", b"[2, 2147483648]")
        path.write_bytes(blob[:at - 8] + struct.pack("<Q", len(head)) + head
                         + blob[at + count:])
        with pytest.raises(CorpusFormatError,
                           match="truncated: the head declares 34359738368"):
            read_corpus(path)

    def test_duplicate_id_rejected(self, tmp_path):
        utts = [Utterance("same", 0, np.ones((2, 3))),
                Utterance("same", 1, np.zeros((2, 4)))]
        path = tmp_path / "d.bin"
        write_corpus(path, utts, 2, 2)
        with pytest.raises(CorpusFormatError, match="duplicate array names"):
            read_corpus(path)

    def test_dim_mismatch_on_write(self, tmp_path):
        utts = [Utterance("u0", 0, np.ones((3, 4)))]
        with pytest.raises(CorpusFormatError):
            write_corpus(tmp_path / "m.bin", utts, 2, 2)

    def test_failed_write_leaves_no_file(self, tmp_path):
        # the second utterance's dim disagrees with the header
        utts = [Utterance("u0", 0, np.ones((2, 4))),
                Utterance("u1", 1, np.ones((3, 4)))]
        with pytest.raises(CorpusFormatError):
            write_corpus(tmp_path / "m.bin", utts, 2, 2)
        assert list(tmp_path.iterdir()) == []


class TestStoredUtterances:
    @staticmethod
    def corpus_file(path):
        spec = small_spec(min_len=20, max_len=60, train_utterances=15,
                          test_utterances=0)
        train, _ = generate_corpus(spec)
        write_corpus(path, train, spec.num_classes, spec.feature_dim)
        return train

    def test_index_matches_the_corpus(self, tmp_path):
        path = tmp_path / "c.bin"
        train = self.corpus_file(path)
        with CorpusFile(path) as corpus:
            assert (corpus.num_classes, corpus.feature_dim) == (4, 8)
            assert len(corpus.utterances) == len(train)
            for stored, utt in zip(corpus.utterances, train):
                assert (stored.id, stored.label) == (utt.id, utt.label)
                assert stored.shape == utt.shape
                assert np.array_equal(stored.features, utt.features)

    @pytest.mark.parametrize("crops", [(5, 15), (30, 30), (50, 80)])
    def test_batches_equal_the_in_memory_batches(self, tmp_path, crops):
        # crops shorter than, about equal to and longer than the 20-60
        # frame utterances
        path = tmp_path / "c.bin"
        train = self.corpus_file(path)
        with CorpusFile(path) as corpus:
            stored = list(make_batches(corpus.utterances, 4, *crops, Rng(8)))
        listed = list(make_batches(train, 4, *crops, Rng(8)))
        assert len(stored) == len(listed) == 4
        for (a, la), (b, lb) in zip(stored, listed):
            assert a.tobytes() == b.tobytes() and a.shape == b.shape
            assert np.array_equal(la, lb)

    def test_non_finite_frames_raise(self, tmp_path):
        path = tmp_path / "c.bin"
        train = self.corpus_file(path)
        train[2].features[3, 7] = np.inf
        write_corpus(path, train, 4, 8)
        with CorpusFile(path) as corpus:
            corpus.utterances[1].features  # its neighbours read as before
            with pytest.raises(CorpusFormatError, match="non-finite frames"):
                corpus.utterances[2].features
            for target in (3, 60):  # a crop, and a tiling, of it
                with pytest.raises(CorpusFormatError,
                                   match="non-finite frames"):
                    crop_or_extend(corpus.utterances[2], target, Rng(0))
        with pytest.raises(CorpusFormatError, match="non-finite frames"):
            read_corpus(path)

    def test_file_cut_short_after_opening_raises(self, tmp_path):
        path = tmp_path / "c.bin"
        self.corpus_file(path)
        with CorpusFile(path) as corpus:
            os.truncate(path, path.stat().st_size - 8)
            corpus.utterances[0].features
            with pytest.raises(CorpusFormatError, match="is cut short"):
                corpus.utterances[-1].features

    def test_reads_end_with_the_file(self, tmp_path):
        path = tmp_path / "c.bin"
        self.corpus_file(path)
        with CorpusFile(path) as corpus:
            first = corpus.utterances[0]
        with pytest.raises(ValueError, match="closed file"):
            first.features

    def test_a_bad_head_closes_the_file(self, tmp_path, monkeypatch):
        path = tmp_path / "c.bin"
        self.corpus_file(path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-1])
        opened = []
        real_open = open

        def tracked(*args, **kwargs):
            fh = real_open(*args, **kwargs)
            opened.append(fh)
            return fh
        monkeypatch.setattr("builtins.open", tracked)
        with pytest.raises(CorpusFormatError, match="truncated"):
            CorpusFile(path)
        assert len(opened) == 1 and opened[0].closed
