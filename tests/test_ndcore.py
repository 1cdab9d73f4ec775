import os

import numpy as np
import pytest

from ldekit.data import Utterance, write_corpus
from ldekit.gmm import GmmModel
from ldekit.ndcore import (
    Param,
    Rng,
    atomic_write,
    log_sum_exp_rows,
    read_artifact,
    softmax_rows,
    sq_dists,
    write_artifact,
)
from ldekit.train import Model, ModelConfig, save_gmm_bank, save_model


def direct_sq_dists(centers, frames):
    """C x N squared distances from the C x D x N residuals themselves."""
    residuals = frames[None, :, :] - centers[:, :, None]
    return np.einsum("cdn,cdn->cn", residuals, residuals)


class TestSqDists:
    SHAPES = [(1, 1, 1), (1, 5, 3), (4, 1, 2), (1, 1, 7), (3, 30, 16)]

    def test_matches_direct_residual_form(self):
        rng = np.random.default_rng(17)
        shapes = self.SHAPES + [tuple(rng.integers(1, [10, 40, 30]))
                                for _ in range(20)]
        for c, n, d in shapes:
            frames = rng.normal(size=(d, n)) * 2.0
            centers = rng.normal(size=(c, d))
            ref = direct_sq_dists(centers, frames)
            out = sq_dists(centers, frames)
            assert out.shape == (c, n)
            assert np.max(np.abs(out - ref) / ref) <= 1e-10

    @pytest.mark.parametrize("c, n, d", SHAPES)
    def test_batch_matches_each_member(self, c, n, d):
        rng = np.random.default_rng(18)
        batch = rng.normal(size=(3, d, n)) * 2.0
        centers = rng.normal(size=(c, d))
        out = sq_dists(centers, batch)
        assert out.shape == (3, c, n)
        for member, got in zip(batch, out):
            ref = direct_sq_dists(centers, member)
            assert np.max(np.abs(got - ref) / ref) <= 1e-10


class TestSoftmaxRows:
    def test_uniform_on_constant_row(self):
        out = softmax_rows(np.array([[0.0, 0.0, 0.0]]))
        assert np.max(np.abs(out - 1.0 / 3.0)) <= 1e-15

    def test_large_entries_no_overflow(self):
        out = softmax_rows(np.array([[1000.0, 0.0]]))
        assert np.isfinite(out).all()
        assert abs(out[0, 0] - 1.0) <= 1e-12
        assert abs(out[0, 1]) <= 1e-12

    def test_matches_extended_precision_oracle(self):
        import mpmath

        mpmath.mp.dps = 50
        row = [1.0, 2.0, 3.0]
        exps = [mpmath.exp(v) for v in row]
        total = sum(exps)
        expected = np.array([float(e / total) for e in exps])
        out = softmax_rows(np.array([row]))
        assert np.max(np.abs(out[0] - expected)) <= 1e-12

    def test_rows_sum_to_one_for_magnitude_1e3_inputs(self):
        rng = np.random.default_rng(3)
        m = rng.uniform(-1e3, 1e3, size=(50, 8))
        out = softmax_rows(m)
        assert np.all(out >= 0)
        assert np.max(np.abs(out.sum(axis=1) - 1.0)) <= 1e-12


class TestLogSumExpRows:
    def test_matches_direct_on_small_values(self):
        m = np.array([[0.0, 1.0], [-2.0, 0.5]])
        direct = np.log(np.exp(m).sum(axis=1))
        assert np.max(np.abs(log_sum_exp_rows(m) - direct)) <= 1e-12

    def test_no_overflow(self):
        out = log_sum_exp_rows(np.array([[1000.0, 999.0]]))
        assert np.isfinite(out).all()


class TestRng:
    def test_determinism_same_seed(self):
        a = Rng(42).normal((4, 5))
        b = Rng(42).normal((4, 5))
        assert np.array_equal(a, b)

    def test_split_streams_differ_and_are_stable(self):
        root = Rng(9)
        child0 = root.split(0).normal((3, 3))
        child1 = root.split(1).normal((3, 3))
        assert not np.array_equal(child0, child1)
        assert np.array_equal(child0, Rng(9).split(0).normal((3, 3)))

    def test_split_independent_of_parent_draws(self):
        a = Rng(5)
        a.normal((10, 10))
        assert np.array_equal(a.split(2).normal((4,)),
                              Rng(5).split(2).normal((4,)))

    def test_sample_moments_of_1e6_draws(self):
        draws = Rng(123).normal((1000, 1000), mean=0.0, std=1.0)
        assert abs(draws.mean()) <= 0.01
        assert 0.99 <= draws.std() <= 1.01

    def test_integers_inclusive_bounds(self):
        rng = Rng(77)
        vals = {rng.integers(2, 4) for _ in range(200)}
        assert vals == {2, 3, 4}


class TestParam:
    def test_grad_zeroed_and_shape_locked(self):
        p = Param("w", np.ones((2, 3)))
        assert p.grad.shape == (2, 3)
        assert np.all(p.grad == 0)
        p.grad += 5.0
        p.zero_grad()
        assert np.all(p.grad == 0)


class TestAtomicWrite:
    def test_replaces_target_on_success(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("old")
        with atomic_write(path) as fh:
            fh.write("new")
            assert path.read_text() == "old"
        assert path.read_text() == "new"
        assert os.listdir(tmp_path) == ["out.txt"]

    def test_failure_keeps_target_and_removes_temp(self, tmp_path):
        path = tmp_path / "out.bin"
        path.write_bytes(b"old")
        with pytest.raises(KeyboardInterrupt):
            with atomic_write(path, "wb") as fh:
                fh.write(b"partial")
                raise KeyboardInterrupt
        assert path.read_bytes() == b"old"
        assert os.listdir(tmp_path) == ["out.bin"]

    def test_failure_creates_nothing(self, tmp_path):
        with pytest.raises(ValueError):
            with atomic_write(tmp_path / "new.txt") as fh:
                fh.write("partial")
                raise ValueError("bad record")
        assert os.listdir(tmp_path) == []


# one small file of each kind that ldekit writes through `write_artifact`
ARTIFACTS = {
    "bank": lambda path: save_gmm_bank(path, [
        GmmModel(weights=np.array([0.25, 0.75]),
                 means=np.array([[0.0, 1.0], [2.0, -1.0]]),
                 variances=np.array([[1.0, 2.0], [0.5, 1.5]]))]),
    "corpus": lambda path: write_corpus(
        path, [Utterance(f"u{i}", i % 2, Rng(i).normal((3, 4 + i)))
               for i in range(3)], num_classes=2, feature_dim=3),
    "model": lambda path: save_model(
        path, Model(ModelConfig(in_dim=2, num_classes=2), Rng(0)), epoch=1),
}


class TestWriteArtifact:
    @pytest.mark.parametrize("kind", sorted(ARTIFACTS))
    def test_generator_gives_the_list_forms_bytes(self, tmp_path, kind):
        saved = tmp_path / "saved"
        ARTIFACTS[kind](saved)
        meta, arrays = read_artifact(saved, ValueError)
        write_artifact(tmp_path / "list", meta, list(arrays.items()))
        write_artifact(tmp_path / "gen", meta,
                       ((name, a) for name, a in arrays.items()))
        assert (tmp_path / "list").read_bytes() == saved.read_bytes()
        assert (tmp_path / "gen").read_bytes() == saved.read_bytes()

    @staticmethod
    def fail_after_one_array():
        yield "a", np.ones(3)
        raise OSError("disk full")

    def test_failing_generator_creates_nothing(self, tmp_path):
        with pytest.raises(OSError, match="disk full"):
            write_artifact(tmp_path / "out.bin", {},
                           self.fail_after_one_array())
        assert os.listdir(tmp_path) == []

    def test_failing_generator_keeps_the_target(self, tmp_path):
        path = tmp_path / "out.bin"
        write_artifact(path, {"version": 1}, [("a", np.zeros(2))])
        before = path.read_bytes()
        with pytest.raises(OSError, match="disk full"):
            write_artifact(path, {"version": 2}, self.fail_after_one_array())
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["out.bin"]
