"""Fault injector: seeded determinism, toggling, NaN poisoning, the
recommender wrapper, and the file-corruption helpers."""

import numpy as np
import pytest

from repro.nn import CheckpointError
from repro.serve import TransientError
from repro.serve.loading import safe_load_model
from tests.faults import (
    FaultInjector,
    FaultyRecommender,
    InjectedFault,
    flip_byte,
    truncate_file,
)

from .conftest import NUM_ITEMS, StubModel


class TestValidation:
    @pytest.mark.parametrize("field", ["error_rate", "nan_rate",
                                       "latency_rate"])
    def test_rates_outside_unit_interval_rejected(self, field):
        with pytest.raises(ValueError, match=field):
            FaultInjector(**{field: 1.5})


class TestDeterminism:
    def run_decisions(self, seed, calls=50):
        injector = FaultInjector(error_rate=0.4, nan_rate=0.4, seed=seed)
        outcomes = []
        scores = np.zeros((1, 4))
        for _ in range(calls):
            try:
                injector.before_call()
                poisoned = np.isnan(injector.poison(scores)).any()
                outcomes.append("nan" if poisoned else "ok")
            except InjectedFault:
                outcomes.append("error")
        return outcomes

    def test_same_seed_same_fault_sequence(self):
        assert self.run_decisions(7) == self.run_decisions(7)

    def test_different_seed_different_sequence(self):
        assert self.run_decisions(7) != self.run_decisions(8)

    def test_all_fault_kinds_occur(self):
        outcomes = self.run_decisions(0, calls=100)
        assert "error" in outcomes
        assert "nan" in outcomes
        assert "ok" in outcomes


class TestToggling:
    def test_disabled_injector_is_transparent(self):
        injector = FaultInjector(error_rate=1.0, nan_rate=1.0)
        injector.disable()
        scores = np.ones((1, 4))
        injector.before_call()  # must not raise
        np.testing.assert_array_equal(injector.poison(scores), scores)
        assert sum(injector.injected.values()) == 0

    def test_disabling_does_not_shift_the_stream(self):
        # Same seed; one injector is disabled for the first 10 calls.
        # From call 11 on, both must make identical decisions.
        a = FaultInjector(error_rate=0.5, seed=5)
        b = FaultInjector(error_rate=0.5, seed=5)
        b.disable()

        def outcome(injector):
            try:
                injector.before_call()
                return "ok"
            except InjectedFault:
                return "error"

        first_a = [outcome(a) for _ in range(10)]
        for _ in range(10):
            outcome(b)
        b.enable()
        assert "error" in first_a  # the faults existed
        assert [outcome(a) for _ in range(20)] == [
            outcome(b) for _ in range(20)
        ]


class TestLatency:
    def test_latency_spike_uses_injected_sleep(self):
        slept = []
        injector = FaultInjector(latency_rate=1.0, latency=0.5,
                                 sleep=slept.append)
        injector.before_call()
        assert slept == [0.5]
        assert injector.injected["latency"] == 1


class TestPoison:
    def test_poison_copies_rather_than_mutates(self):
        injector = FaultInjector(nan_rate=1.0)
        scores = np.zeros((2, 7))
        poisoned = injector.poison(scores)
        assert np.isnan(poisoned).any()
        assert not np.isnan(scores).any()

    def test_injected_fault_is_transient(self):
        assert issubclass(InjectedFault, TransientError)


class TestFaultyRecommender:
    def test_transparent_when_disabled(self):
        injector = FaultInjector(error_rate=1.0)
        injector.disable()
        faulty = FaultyRecommender(StubModel(), injector)
        scores = faulty.score_batch([np.array([1, 2])])
        assert scores.shape == (1, NUM_ITEMS + 1)
        assert np.isfinite(scores[:, 1:]).all()

    def test_raises_injected_fault(self):
        faulty = FaultyRecommender(StubModel(),
                                   FaultInjector(error_rate=1.0))
        with pytest.raises(InjectedFault):
            faulty.score_batch([np.array([1])])

    def test_score_delegates_to_batch(self):
        injector = FaultInjector()
        faulty = FaultyRecommender(StubModel(), injector)
        single = faulty.score(np.array([1, 2]))
        assert single.shape == (NUM_ITEMS + 1,)

    def test_name_advertises_wrapping(self):
        faulty = FaultyRecommender(StubModel(), FaultInjector())
        assert "stub" in faulty.name


class TestFileCorruption:
    @pytest.fixture
    def checkpoint(self, tmp_path):
        from repro.models import SASRec
        from repro.nn import save_checkpoint

        config = dict(num_items=6, max_length=4, dim=8, num_blocks=1,
                      seed=0)
        return save_checkpoint(
            SASRec(**config), tmp_path / "model.npz", config=config
        )

    def test_truncate_then_load_raises_checkpoint_error(self, checkpoint):
        truncate_file(checkpoint, keep_fraction=0.4)
        with pytest.raises(CheckpointError):
            safe_load_model(checkpoint, registry={})

    def test_flip_byte_then_load_raises_checkpoint_error(self, checkpoint):
        from repro.models import SASRec

        flip_byte(checkpoint, seed=1)
        with pytest.raises(CheckpointError):
            safe_load_model(checkpoint, registry={"SASRec": SASRec})

    def test_flip_byte_rejects_empty_file(self, tmp_path):
        empty = tmp_path / "empty.npz"
        empty.write_bytes(b"")
        with pytest.raises(ValueError, match="empty"):
            flip_byte(empty)

    def test_truncate_validates_fraction(self, checkpoint):
        with pytest.raises(ValueError):
            truncate_file(checkpoint, keep_fraction=1.0)
