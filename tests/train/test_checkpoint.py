"""Full-state checkpoint/resume: bitwise-faithful continuation, atomic
writes, retention pruning, and the checkpoint file format."""

import numpy as np
import pytest

from repro.core import VSAN
from repro.data import SequenceCorpus, split_strong_generalization
from repro.models import SASRec
from repro.tensor.random import make_rng
from repro.train import (
    KLAnnealing,
    Trainer,
    TrainerConfig,
    TrainingCheckpoint,
    TrainingHistory,
    checkpoint_path,
    latest_checkpoint,
    list_checkpoints,
    load_training_checkpoint,
    prune_checkpoints,
    resolve_checkpoint,
    save_training_checkpoint,
)
from tests.faults import flip_byte, truncate_file


@pytest.fixture(scope="module")
def corpus():
    rng = np.random.default_rng(1)
    sequences = []
    for _ in range(40):
        start = int(rng.integers(1, 11))
        sequences.append(
            np.array([(start + o - 1) % 10 + 1 for o in range(6)])
        )
    return SequenceCorpus(sequences=sequences, num_items=10)


@pytest.fixture(scope="module")
def validation(corpus):
    return split_strong_generalization(corpus, 5, make_rng(2))


def make_vsan(seed=0):
    return VSAN(
        10, 6, dim=12, h1=1, h2=1, seed=seed,
        annealing=KLAnnealing(target=0.5, warmup_steps=0, anneal_steps=10),
    )


def make_sasrec(seed=3):
    return SASRec(10, 6, dim=12, num_blocks=1, seed=seed)


def assert_same_weights(a, b):
    for (name, pa), (_, pb) in zip(a.named_parameters(),
                                   b.named_parameters()):
        np.testing.assert_array_equal(pa.data, pb.data, err_msg=name)


class TestBitwiseResume:
    """Train N straight vs. train N/2 -> checkpoint -> resume N/2: the
    acceptance bar is *identical* losses and final weights."""

    def test_vsan_resume_matches_straight_run(self, corpus, tmp_path):
        straight = make_vsan()
        full = Trainer(TrainerConfig(epochs=6, batch_size=8, seed=9)).fit(
            straight, corpus
        )

        half = make_vsan()
        Trainer(
            TrainerConfig(
                epochs=3, batch_size=8, seed=9,
                checkpoint_dir=str(tmp_path),
            )
        ).fit(half, corpus)
        resumed_model = make_vsan()
        resumed = Trainer(
            TrainerConfig(epochs=6, batch_size=8, seed=9)
        ).fit(resumed_model, corpus, resume_from=tmp_path)

        # Identical per-epoch losses (restored 3 + recomputed 3), plus
        # the observability channels: β schedule did not reset, Adam
        # moments and every RNG stream continued where they left off.
        assert resumed.losses == full.losses
        assert resumed.reconstruction_losses == full.reconstruction_losses
        assert resumed.kl_values == full.kl_values
        assert resumed.betas == full.betas
        assert resumed.grad_norms == full.grad_norms
        assert_same_weights(straight, resumed_model)
        assert resumed_model._step == straight._step

    def test_float32_resume_matches_straight_run(self, corpus, tmp_path):
        config = dict(batch_size=8, seed=9, compute_dtype="float32")
        straight = make_sasrec()
        full = Trainer(TrainerConfig(epochs=6, **config)).fit(
            straight, corpus
        )

        half = make_sasrec()
        Trainer(
            TrainerConfig(epochs=3, checkpoint_dir=str(tmp_path), **config)
        ).fit(half, corpus)
        resumed_model = make_sasrec()
        resumed = Trainer(TrainerConfig(epochs=6, **config)).fit(
            resumed_model, corpus, resume_from=tmp_path
        )

        assert resumed.losses == full.losses
        assert all(
            param.dtype == np.float32
            for param in resumed_model.parameters()
        )
        assert_same_weights(straight, resumed_model)

    def test_resume_preserves_early_stopping_state(
        self, validation, tmp_path
    ):
        config = dict(
            batch_size=8, seed=9, patience=50, eval_every=1
        )
        straight = make_sasrec()
        full = Trainer(TrainerConfig(epochs=6, **config)).fit(
            straight, validation.train, validation=validation.validation
        )

        half = make_sasrec()
        Trainer(
            TrainerConfig(epochs=3, checkpoint_dir=str(tmp_path), **config)
        ).fit(half, validation.train, validation=validation.validation)
        resumed_model = make_sasrec()
        resumed = Trainer(TrainerConfig(epochs=6, **config)).fit(
            resumed_model,
            validation.train,
            validation=validation.validation,
            resume_from=tmp_path,
        )

        assert resumed.validation_scores == full.validation_scores
        assert resumed.best_epoch == full.best_epoch
        assert_same_weights(straight, resumed_model)

    def test_resume_of_early_stopped_run_does_not_continue(
        self, validation, tmp_path
    ):
        """A checkpointed run that already early-stopped is finished;
        resuming it must restore the outcome, not train further."""
        config = dict(batch_size=8, seed=9, patience=1, eval_every=1)
        model = make_sasrec()
        history = Trainer(
            TrainerConfig(epochs=40, checkpoint_dir=str(tmp_path), **config)
        ).fit(model, validation.train, validation=validation.validation)
        assert history.stopped_early

        resumed_model = make_sasrec()
        resumed = Trainer(TrainerConfig(epochs=40, **config)).fit(
            resumed_model,
            validation.train,
            validation=validation.validation,
            resume_from=tmp_path,
        )
        assert resumed.stopped_early
        assert resumed.losses == history.losses
        assert_same_weights(model, resumed_model)


class TestCheckpointFiles:
    def test_trainer_writes_cadenced_checkpoints(self, corpus, tmp_path):
        Trainer(
            TrainerConfig(
                epochs=5, batch_size=8, checkpoint_dir=str(tmp_path),
                checkpoint_every=2,
            )
        ).fit(make_sasrec(), corpus)
        # Every checkpoint_every epochs, plus the final epoch.
        epochs = [epoch for epoch, _ in list_checkpoints(tmp_path)]
        assert epochs == [2, 4, 5]

    def test_keep_last_prunes_oldest(self, corpus, tmp_path):
        Trainer(
            TrainerConfig(
                epochs=5, batch_size=8, checkpoint_dir=str(tmp_path),
                checkpoint_every=1, keep_last=2,
            )
        ).fit(make_sasrec(), corpus)
        epochs = [epoch for epoch, _ in list_checkpoints(tmp_path)]
        assert epochs == [4, 5]

    def test_round_trip_preserves_all_fields(self, corpus, tmp_path):
        model = make_vsan()
        Trainer(
            TrainerConfig(epochs=2, batch_size=8, seed=9,
                          checkpoint_dir=str(tmp_path))
        ).fit(model, corpus)
        checkpoint = load_training_checkpoint(latest_checkpoint(tmp_path))
        assert checkpoint.epoch == 2
        assert checkpoint.model_extra_state == {"step": model._step}
        assert checkpoint.optimizer_state["step_count"] == model._step
        assert len(checkpoint.history.losses) == 2
        assert checkpoint.best_state is None
        assert checkpoint.best_score == -np.inf
        assert checkpoint.misses == 0
        assert set(checkpoint.model_rng_state) == dict(
            model.named_rngs()
        ).keys()
        # The saved weights are the model's post-epoch-2 weights.
        for name, param in model.named_parameters():
            np.testing.assert_array_equal(
                checkpoint.model_state[name], param.data
            )

    def test_save_appends_npz_suffix(self, corpus, tmp_path):
        checkpoint = TrainingCheckpoint(
            epoch=1,
            model_state={"w": np.zeros(2)},
            optimizer_state={"step_count": 1,
                             "first": [np.zeros(2)],
                             "second": [np.zeros(2)]},
            trainer_rng_state=make_rng(0).bit_generator.state,
            model_rng_state={},
            model_extra_state={},
            history=TrainingHistory(losses=[1.0]),
            best_score=-np.inf,
            best_state=None,
            misses=0,
        )
        path = save_training_checkpoint(checkpoint, tmp_path / "ckpt")
        assert path.name == "ckpt.npz"
        assert path.exists()
        loaded = load_training_checkpoint(path)
        assert loaded.epoch == 1
        assert loaded.history.losses == [1.0]

    def test_load_rejects_weight_only_files(self, tmp_path):
        from repro.nn import save_checkpoint

        path = save_checkpoint(make_sasrec(), tmp_path / "weights.npz")
        with pytest.raises(ValueError, match="not a training checkpoint"):
            load_training_checkpoint(path)

    def test_resolve_checkpoint(self, corpus, tmp_path):
        with pytest.raises(FileNotFoundError):
            resolve_checkpoint(tmp_path)
        Trainer(
            TrainerConfig(epochs=2, batch_size=8,
                          checkpoint_dir=str(tmp_path))
        ).fit(make_sasrec(), corpus)
        assert resolve_checkpoint(tmp_path) == checkpoint_path(tmp_path, 2)
        direct = checkpoint_path(tmp_path, 1)
        assert resolve_checkpoint(direct) == direct
        with pytest.raises(FileNotFoundError):
            resolve_checkpoint(tmp_path / "missing.npz")


class TestCorruptCheckpoints:
    """Corrupt or truncated files must surface as CheckpointError — a
    typed, catchable failure — never a bare zipfile/pickle/EOFError."""

    def trained_dir(self, corpus, tmp_path):
        Trainer(
            TrainerConfig(epochs=2, batch_size=8,
                          checkpoint_dir=str(tmp_path))
        ).fit(make_sasrec(), corpus)
        return tmp_path

    def test_truncated_checkpoint_raises_checkpoint_error(
        self, corpus, tmp_path
    ):
        from repro.train import CheckpointError

        directory = self.trained_dir(corpus, tmp_path)
        truncate_file(latest_checkpoint(directory), keep_fraction=0.5)
        with pytest.raises(CheckpointError):
            load_training_checkpoint(latest_checkpoint(directory))

    def test_bit_flipped_checkpoint_raises_checkpoint_error(
        self, corpus, tmp_path
    ):
        from repro.train import CheckpointError

        directory = self.trained_dir(corpus, tmp_path)
        flip_byte(latest_checkpoint(directory), seed=1)
        with pytest.raises(CheckpointError):
            load_training_checkpoint(latest_checkpoint(directory))

    def test_garbage_file_raises_checkpoint_error(self, tmp_path):
        from repro.train import CheckpointError

        bad = tmp_path / "checkpoint-epoch-00001.npz"
        bad.write_bytes(b"not an archive")
        with pytest.raises(CheckpointError):
            load_training_checkpoint(bad)

    def test_checkpoint_error_is_a_value_error(self):
        from repro.train import CheckpointError

        assert issubclass(CheckpointError, ValueError)

    def test_resume_from_corrupt_checkpoint_raises(
        self, corpus, tmp_path
    ):
        from repro.train import CheckpointError

        directory = self.trained_dir(corpus, tmp_path)
        truncate_file(latest_checkpoint(directory), keep_fraction=0.5)
        with pytest.raises(CheckpointError):
            Trainer(TrainerConfig(epochs=4, batch_size=8)).fit(
                make_sasrec(), corpus, resume_from=directory
            )


class TestCrashSafety:
    def test_partial_tmp_file_is_ignored(self, corpus, tmp_path):
        """A crash mid-save leaves a ``.tmp`` file; readers must keep
        using the newest *complete* checkpoint."""
        Trainer(
            TrainerConfig(epochs=1, batch_size=8,
                          checkpoint_dir=str(tmp_path))
        ).fit(make_sasrec(), corpus)
        good = latest_checkpoint(tmp_path)
        # Simulate a SIGKILL mid-write of the epoch-2 save: a truncated
        # archive under the staging name.
        partial = tmp_path / "checkpoint-epoch-00002.npz.tmp"
        partial.write_bytes(good.read_bytes()[:100])
        assert latest_checkpoint(tmp_path) == good
        load_training_checkpoint(resolve_checkpoint(tmp_path))
        # Pruning clears the stale staging file.
        prune_checkpoints(tmp_path, keep_last=None)
        assert not partial.exists()
        assert good.exists()

    def test_failed_save_leaves_previous_checkpoint_intact(
        self, corpus, tmp_path, monkeypatch
    ):
        Trainer(
            TrainerConfig(epochs=1, batch_size=8,
                          checkpoint_dir=str(tmp_path))
        ).fit(make_sasrec(), corpus)
        good = latest_checkpoint(tmp_path)
        before = good.read_bytes()

        def exploding_savez(handle, **arrays):
            handle.write(b"partial garbage")
            raise OSError("disk died mid-save")

        monkeypatch.setattr(np, "savez", exploding_savez)
        checkpoint = load_training_checkpoint(good)
        with pytest.raises(OSError, match="disk died"):
            save_training_checkpoint(checkpoint, good)
        # The previous file is byte-identical and no staging file leaks.
        assert good.read_bytes() == before
        assert list(tmp_path.glob("*.tmp")) == []
        load_training_checkpoint(good)
