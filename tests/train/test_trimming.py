"""Length-aware batch trimming: exactness for the attention models,
margin handling for next-k supervision, and end-to-end trainer parity."""

import numpy as np
import pytest

from repro.data import SequenceCorpus, effective_lengths, trim_batch
from repro.models import GRU4Rec, SASRec
from repro.core.vsan import VSAN
from repro.train import Trainer, TrainerConfig


@pytest.fixture(scope="module")
def mixed_length_corpus():
    """Strong length spread so trimming actually removes columns."""
    rng = np.random.default_rng(5)
    sequences = [
        rng.integers(1, 13, size=int(length)).astype(np.int64)
        for length in np.r_[rng.integers(2, 5, size=30),
                            rng.integers(8, 11, size=10)]
    ]
    return SequenceCorpus(sequences=sequences, num_items=12)


def batch_gradients(model, rows):
    model.zero_grad()
    loss = model.training_loss(rows)
    loss.backward()
    return loss.item(), {
        name: param.grad.copy()
        for name, param in model.named_parameters()
        if param.grad is not None
    }


class TestExactness:
    """Trimmed batches must reproduce full-width losses *and* gradients
    bit-tightly for every model that declares supports_trimming."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda: SASRec(12, 10, dim=12, num_blocks=2, dropout_rate=0.0),
            lambda: VSAN(12, 10, dim=12, dropout_rate=0.0,
                         use_latent=False),
            lambda: VSAN(12, 10, dim=12, k=3, dropout_rate=0.0,
                         use_latent=False),
        ],
        ids=["sasrec", "vsan-z", "vsan-z-k3"],
    )
    def test_loss_and_gradients_match_full_width(self, build):
        rng = np.random.default_rng(0)
        rows = np.zeros((12, 11), dtype=np.int64)
        for row in rows:
            length = int(rng.integers(1, 6))
            row[-length:] = rng.integers(1, 13, size=length)
        model = build()
        assert model.supports_trimming
        trimmed = trim_batch(
            rows, effective_lengths(rows), margin=model.target_window
        )
        assert trimmed.shape[1] < rows.shape[1]
        full_loss, full_grads = batch_gradients(model, rows)
        trim_loss, trim_grads = batch_gradients(model, trimmed)
        np.testing.assert_allclose(trim_loss, full_loss, rtol=1e-12)
        for name, grad in full_grads.items():
            np.testing.assert_allclose(
                trim_grads[name], grad, rtol=1e-9, atol=1e-12,
                err_msg=name,
            )

    def test_margin_one_is_inexact_for_next_k(self):
        """The next-k window supervises leading-pad positions, so a
        margin-1 trim would change the loss — the reason target_window
        exists."""
        rng = np.random.default_rng(1)
        rows = np.zeros((8, 11), dtype=np.int64)
        for row in rows:
            length = int(rng.integers(1, 5))
            row[-length:] = rng.integers(1, 13, size=length)
        model = VSAN(12, 10, dim=12, k=3, dropout_rate=0.0,
                     use_latent=False)
        assert model.target_window == 3
        full = model.training_loss(rows).item()
        naive = model.training_loss(trim_batch(rows, margin=1)).item()
        exact = model.training_loss(
            trim_batch(rows, margin=model.target_window)
        ).item()
        np.testing.assert_allclose(exact, full, rtol=1e-12)
        assert abs(naive - full) > 1e-6

    def test_recurrent_models_do_not_declare_trimming(self):
        assert not GRU4Rec(12, 10, dim=8).supports_trimming


class TestTrainerIntegration:
    def test_trimmed_training_matches_untrimmed(self, mixed_length_corpus):
        builds = {
            "sasrec": lambda: SASRec(12, 10, dim=12, num_blocks=1,
                                     dropout_rate=0.0, seed=2),
            # The deterministic VSAN ablation: no dropout mask and no
            # latent sample, so trimmed and full runs draw nothing.
            "vsan-z": lambda: VSAN(12, 10, dim=12, dropout_rate=0.0,
                                   use_latent=False, seed=2),
        }
        for name, build in builds.items():
            losses = {}
            for trim in (True, False):
                config = TrainerConfig(
                    epochs=3, batch_size=8, seed=4, trim_batches=trim
                )
                losses[trim] = Trainer(config).fit(
                    build(), mixed_length_corpus
                ).losses
            np.testing.assert_allclose(
                losses[True], losses[False], rtol=1e-10, err_msg=name
            )

    def test_bucketing_covers_corpus_and_trains(self, mixed_length_corpus):
        model = SASRec(12, 10, dim=12, num_blocks=1,
                       dropout_rate=0.0, seed=2)
        config = TrainerConfig(
            epochs=2, batch_size=8, seed=4, bucket_by_length=True
        )
        history = Trainer(config).fit(model, mixed_length_corpus)
        assert len(history.losses) == 2
        assert np.isfinite(history.losses).all()

    def test_unsupported_model_never_sees_trimmed_batches(
        self, mixed_length_corpus
    ):
        """trim_batches=True must be a no-op for models that cannot
        trim exactly (the recurrent baselines)."""
        seen = []
        model = GRU4Rec(12, 10, dim=8, seed=0)
        original = model.training_loss
        model.training_loss = lambda rows: [
            seen.append(rows.shape[1]), original(rows)
        ][1]
        Trainer(TrainerConfig(epochs=1, batch_size=8)).fit(
            model, mixed_length_corpus
        )
        assert set(seen) == {model.max_length + 1}
