"""Safe checkpoint loading: structural corruption, NaN weights, missing
files, retry-on-transient-race, and the happy path."""

import shutil

import numpy as np
import pytest

from repro.models import SASRec
from repro.nn import CheckpointError, save_checkpoint
from repro.serve import RetryPolicy, safe_load_model
from repro.serve.loading import validate_finite_state
from tests.faults import truncate_file

CONFIG = dict(num_items=6, max_length=4, dim=8, num_blocks=1, seed=0)
REGISTRY = {"SASRec": SASRec}


@pytest.fixture
def checkpoint(tmp_path):
    return save_checkpoint(SASRec(**CONFIG), tmp_path / "model.npz",
                           config=CONFIG)


class TestHappyPath:
    def test_round_trip_loads_eval_mode_model(self, checkpoint):
        model = safe_load_model(checkpoint, REGISTRY)
        assert isinstance(model, SASRec)
        assert not model.training
        scores = model.score_batch([np.array([1, 2])])
        assert scores.shape == (1, CONFIG["num_items"] + 1)


class TestStructuralFailures:
    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="does not exist"):
            safe_load_model(tmp_path / "nope.npz", REGISTRY)

    def test_not_an_archive(self, tmp_path):
        garbage = tmp_path / "garbage.npz"
        garbage.write_bytes(b"this is not a zip archive at all")
        with pytest.raises(CheckpointError):
            safe_load_model(garbage, REGISTRY)

    def test_truncated_archive(self, checkpoint):
        truncate_file(checkpoint, keep_fraction=0.6)
        with pytest.raises(CheckpointError):
            safe_load_model(checkpoint, REGISTRY)


class TestNaNWeights:
    def poison(self, checkpoint):
        model = SASRec(**CONFIG)
        first = model.parameters()[0]
        first.data = np.full_like(first.data, np.nan)
        return save_checkpoint(model, checkpoint, config=CONFIG)

    def test_nan_weights_rejected(self, tmp_path):
        path = self.poison(tmp_path / "poisoned.npz")
        with pytest.raises(CheckpointError, match="non-finite"):
            safe_load_model(path, REGISTRY)

    def test_check_finite_opt_out(self, tmp_path):
        path = self.poison(tmp_path / "poisoned.npz")
        model = safe_load_model(path, REGISTRY, check_finite=False)
        assert isinstance(model, SASRec)

    def test_validate_finite_state_names_the_weight(self, tmp_path):
        path = self.poison(tmp_path / "poisoned.npz")
        model = safe_load_model(path, REGISTRY, check_finite=False)
        with pytest.raises(CheckpointError) as info:
            validate_finite_state(model, path)
        assert "non-finite" in str(info.value)


class TestRetryOnTransientRace:
    def test_load_retries_until_file_appears(self, checkpoint, tmp_path):
        """A hot-reload race: the file is corrupt on the first read and
        healthy on the second (as when a trainer is mid-swap)."""
        target = tmp_path / "live.npz"
        target.write_bytes(b"torn write")
        attempts = {"n": 0}

        def sleep(_):
            attempts["n"] += 1
            shutil.copyfile(checkpoint, target)  # the "writer" finishes

        policy = RetryPolicy(max_attempts=2, base_delay=0.001,
                             jitter=0.0, sleep=sleep)
        model = safe_load_model(target, REGISTRY, retries=policy)
        assert isinstance(model, SASRec)
        assert attempts["n"] == 1

    def test_retries_exhausted_surface_checkpoint_error(self, tmp_path):
        target = tmp_path / "always-bad.npz"
        target.write_bytes(b"torn write")
        policy = RetryPolicy(max_attempts=3, base_delay=0.0, jitter=0.0,
                             sleep=lambda _: None)
        with pytest.raises(CheckpointError):
            safe_load_model(target, REGISTRY, retries=policy)
