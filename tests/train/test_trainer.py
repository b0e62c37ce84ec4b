"""Trainer mechanics: epochs, early stopping, best-weight restoration,
determinism, length bucketing, and config validation."""

import numpy as np
import pytest

import repro.train.trainer as trainer_module
from repro.core.vsan import VSAN
from repro.data import SequenceCorpus, trim_batch
from repro.models import SASRec
from repro.train import Trainer, TrainerConfig
from tests.reference import eager_step_values


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
def ragged_corpus():
    """Histories of 2-8 items, so batches differ in real length."""
    rng = np.random.default_rng(11)
    sequences = [
        rng.integers(1, 11, size=int(rng.integers(2, 9))).astype(np.int64)
        for _ in range(40)
    ]
    return SequenceCorpus(sequences=sequences, num_items=10)


@pytest.fixture
def validation(corpus):
    from repro.data import split_strong_generalization
    from repro.tensor.random import make_rng

    return split_strong_generalization(corpus, 5, make_rng(2))


def make_model(seed=0):
    return SASRec(10, 6, dim=12, num_blocks=1, seed=seed)


class TestConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(epochs=0),
            dict(batch_size=0),
            dict(learning_rate=0.0),
            dict(patience=0),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            TrainerConfig(**kwargs)


class TestTraining:
    def test_runs_requested_epochs(self, corpus):
        history = Trainer(TrainerConfig(epochs=4, batch_size=8)).fit(
            make_model(), corpus
        )
        assert len(history.losses) == 4
        assert history.final_loss == history.losses[-1]

    def test_model_left_in_eval_mode(self, corpus):
        model = make_model()
        Trainer(TrainerConfig(epochs=1)).fit(model, corpus)
        assert not model.training

    def test_deterministic_given_seeds(self, corpus, ragged_corpus):
        """Two seeded fits end on bitwise-equal weights, including the
        stochastic VSAN (dropout draws and reparameterization noise)."""
        cases = [
            (lambda: make_model(seed=3), corpus),
            (lambda: VSAN(10, 8, dim=12, k=2, dropout_rate=0.3, seed=3),
             ragged_corpus),
        ]
        for build, data in cases:
            runs = []
            for _ in range(2):
                model = build()
                history = Trainer(
                    TrainerConfig(epochs=3, batch_size=8, seed=9)
                ).fit(model, data)
                runs.append((history.losses, model.state_dict()))
            (losses_a, state_a), (losses_b, state_b) = runs
            assert losses_a == losses_b
            assert state_a.keys() == state_b.keys()
            for name in state_a:
                np.testing.assert_array_equal(
                    state_a[name], state_b[name], err_msg=name
                )

    def test_empty_history_final_loss_raises(self):
        from repro.train.config import TrainingHistory

        with pytest.raises(ValueError):
            TrainingHistory().final_loss


class TestLengthBucketing:
    def test_bucketing_is_the_default(self):
        assert TrainerConfig().bucket_by_length is True

    @pytest.mark.parametrize("bucketed", [True, False])
    def test_batches_stay_in_one_length_band(
        self, ragged_corpus, monkeypatch, bucketed
    ):
        """Every bucketed batch mixes only rows within a 2x length band;
        the uniform shuffle of the same corpus does not."""
        batch_lengths = []

        def recording_trim(rows, lengths=None, margin=1):
            batch_lengths.append(lengths)
            return trim_batch(rows, lengths, margin=margin)

        monkeypatch.setattr(trainer_module, "trim_batch", recording_trim)
        Trainer(
            TrainerConfig(epochs=2, batch_size=8, bucket_by_length=bucketed)
        ).fit(SASRec(10, 8, dim=12, num_blocks=1, seed=0), ragged_corpus)
        assert batch_lengths
        spreads = [
            lengths.max() / max(lengths.min(), 1) for lengths in batch_lengths
        ]
        assert (max(spreads) <= 2.0) == bucketed, spreads


class TestEarlyStopping:
    def test_stops_early_and_restores_best(self, validation):
        model = make_model()
        config = TrainerConfig(
            epochs=60, batch_size=8, patience=2, eval_every=1
        )
        history = Trainer(config).fit(
            model, validation.train, validation=validation.validation
        )
        assert history.best_epoch is not None
        if history.stopped_early:
            assert len(history.losses) < 60
        # Restored weights reproduce the best validation score.
        from repro.eval import evaluate_recommender

        best_score = max(score for _, score in history.validation_scores)
        current = evaluate_recommender(model, validation.validation)[
            "ndcg@10"
        ]
        np.testing.assert_allclose(current, best_score, atol=1e-12)

    def test_no_validation_no_early_stop(self, corpus):
        history = Trainer(
            TrainerConfig(epochs=3, batch_size=8, patience=2)
        ).fit(make_model(), corpus)
        assert history.validation_scores == []
        assert not history.stopped_early

    def test_eval_every(self, validation):
        config = TrainerConfig(
            epochs=6, batch_size=8, patience=10, eval_every=3
        )
        history = Trainer(config).fit(
            make_model(), validation.train, validation=validation.validation
        )
        epochs_evaluated = [epoch for epoch, _ in history.validation_scores]
        assert epochs_evaluated == [3, 6]


class TestValidationWithoutEarlyStopping:
    def test_evaluates_when_patience_is_none(self, validation):
        """Periodic evaluation must not require early stopping: passing
        validation users without patience still records scores."""
        config = TrainerConfig(epochs=4, batch_size=8, eval_every=2)
        assert config.patience is None
        history = Trainer(config).fit(
            make_model(), validation.train,
            validation=validation.validation,
        )
        epochs_evaluated = [epoch for epoch, _ in history.validation_scores]
        assert epochs_evaluated == [2, 4]
        assert history.best_epoch is not None
        assert not history.stopped_early


class TestEpochMeanWeighting:
    def test_ragged_last_batch_weighted_by_size(self, corpus):
        """40 users, batch 16 -> batches of 16/16/8; with a loss equal
        to the batch size, the epoch mean must be the example-weighted
        mean (16*16 + 16*16 + 8*8) / 40, not the batch-mean average."""

        class BatchSizeLoss(SASRec):
            def training_loss(self, padded):
                zero = super().training_loss(padded) * 0.0
                return zero + float(len(padded))

        model = BatchSizeLoss(10, 6, dim=12, num_blocks=1, seed=0)
        history = Trainer(TrainerConfig(epochs=1, batch_size=16)).fit(
            model, corpus
        )
        np.testing.assert_allclose(
            history.final_loss, (16 * 16 + 16 * 16 + 8 * 8) / 40
        )


class TestObservability:
    def test_grad_norms_recorded_per_step(self, corpus):
        history = Trainer(TrainerConfig(epochs=3, batch_size=16)).fit(
            make_model(), corpus
        )
        # 40 users / batch 16 -> 3 steps per epoch, 3 epochs.
        assert len(history.grad_norms) == 9
        assert all(np.isfinite(norm) for norm in history.grad_norms)
        assert all(norm > 0 for norm in history.grad_norms)

    def test_betas_recorded_per_epoch(self, corpus):
        from repro.core import VSAN
        from repro.train import KLAnnealing

        model = VSAN(
            10, 6, dim=12, h1=1, h2=1, seed=0,
            annealing=KLAnnealing(target=0.5, warmup_steps=0,
                                  anneal_steps=5),
        )
        history = Trainer(TrainerConfig(epochs=3, batch_size=8)).fit(
            model, corpus
        )
        assert len(history.betas) == 3
        # Linear annealing: the β in force can only grow across epochs.
        assert history.betas == sorted(history.betas)
        assert history.betas[-1] > 0

    def test_non_vae_records_no_betas(self, corpus):
        history = Trainer(TrainerConfig(epochs=2, batch_size=8)).fit(
            make_model(), corpus
        )
        assert history.betas == []


class TestNonFiniteGradients:
    def test_nan_gradient_norm_raises_with_context(self, corpus):
        """A finite loss whose backward produces NaN gradients must be
        surfaced, not silently skipped by clipping."""

        class _PoisonedLoss:
            def __init__(self, loss, param):
                self._loss = loss
                self._param = param

            def item(self):
                return self._loss.item()

            def backward(self):
                self._loss.backward()
                self._param.grad[...] = np.nan

        class PoisonGradModel(SASRec):
            def training_loss(self, padded):
                return _PoisonedLoss(
                    super().training_loss(padded), self.parameters()[0]
                )

        model = PoisonGradModel(10, 6, dim=12, num_blocks=1, seed=0)
        with pytest.raises(RuntimeError, match="non-finite gradient norm"):
            Trainer(TrainerConfig(epochs=1, batch_size=8)).fit(
                model, corpus
            )


class TestFitViaRecommenderInterface:
    def test_default_trainer_used(self, corpus):
        model = make_model()
        out = model.fit(corpus, trainer=Trainer(TrainerConfig(epochs=1)))
        assert out is model


class TestAnomalyDetection:
    def test_non_finite_loss_raises_with_context(self, corpus):
        class ExplodingModel(SASRec):
            def training_loss(self, padded):
                from repro.tensor import Tensor

                return Tensor(np.array(np.nan), requires_grad=True) + super(
                ).training_loss(padded)

        model = ExplodingModel(10, 6, dim=12, num_blocks=1, seed=0)
        with pytest.raises(RuntimeError, match="non-finite"):
            Trainer(TrainerConfig(epochs=1, batch_size=8)).fit(model, corpus)

    @pytest.mark.parametrize("compile_enabled", [True, False])
    def test_nan_at_supervised_position_raises(self, corpus, monkeypatch,
                                               compile_enabled):
        """The head skips padded positions only: a NaN hidden state at
        the last position, which always has a real target, still makes
        the loss non-finite, eager or compiled."""

        class NaNAtLastPosition(SASRec):
            def encode(self, padded):
                from repro.tensor import Tensor

                hidden = super().encode(padded)
                poison = np.ones(hidden.shape)
                poison[:, -1, :] = np.nan
                return hidden * Tensor(poison)

        model = NaNAtLastPosition(10, 6, dim=12, num_blocks=1, seed=0)
        if not compile_enabled:
            monkeypatch.setattr(
                trainer_module, "training_step_values", eager_step_values
            )
        config = TrainerConfig(epochs=1, batch_size=8)
        with pytest.raises(RuntimeError, match="non-finite training loss"):
            Trainer(config).fit(model, corpus)

    def test_epoch_sum_overflow_aborts(self, corpus):
        """Every per-batch loss is finite but huge, so only their sum
        overflows — the per-batch guard passes and the epoch-level guard
        must catch it instead of reporting ``inf`` as a valid loss."""

        class HugeLoss(SASRec):
            def training_loss(self, padded):
                return super().training_loss(padded) * 0.0 + 1e308

        model = HugeLoss(10, 6, dim=12, num_blocks=1, seed=0)
        with pytest.raises(RuntimeError, match="non-finite epoch loss"):
            Trainer(TrainerConfig(epochs=1, batch_size=8)).fit(
                model, corpus
            )


class TestELBOTracking:
    def test_vsan_history_records_terms(self, corpus):
        from repro.core import VSAN
        from repro.train import KLAnnealing

        model = VSAN(
            10, 6, dim=12, h1=1, h2=1, seed=0,
            annealing=KLAnnealing(target=0.5, warmup_steps=0,
                                  anneal_steps=5),
        )
        history = Trainer(TrainerConfig(epochs=3, batch_size=8)).fit(
            model, corpus
        )
        assert len(history.reconstruction_losses) == 3
        assert len(history.kl_values) == 3
        # loss = reconstruction + beta*kl, so loss >= reconstruction once
        # beta ramps up and kl > 0.
        assert history.kl_values[-1] > 0

    def test_non_vae_history_has_no_terms(self, corpus):
        history = Trainer(TrainerConfig(epochs=2, batch_size=8)).fit(
            make_model(), corpus
        )
        assert history.reconstruction_losses == []
        assert history.kl_values == []


class TestComputeDtype:
    def test_float32_fit_casts_parameters_and_trains(self, corpus):
        from repro.tensor import get_default_dtype

        model = make_model()
        assert model.parameters()[0].dtype == np.float64
        history = Trainer(
            TrainerConfig(epochs=1, batch_size=8, compute_dtype="float32")
        ).fit(model, corpus)
        assert all(p.dtype == np.float32 for p in model.parameters())
        assert np.isfinite(history.final_loss)
        # The dtype override is scoped to fit().
        assert get_default_dtype() == np.float64

    def test_invalid_compute_dtype_rejected(self):
        with pytest.raises(ValueError, match="compute_dtype"):
            TrainerConfig(compute_dtype="float16")
