"""Caser (Tang & Wang, WSDM 2018): convolutional sequence embedding.

The most recent ``L`` items form an ``L x d`` "image"; horizontal filters
(heights 2..L, max-pooled over time) capture union-level sequential
patterns and vertical filters capture point-level patterns.  The pooled
features pass through a fully-connected layer to score the next item.

Original Caser concatenates a trained per-user embedding before the
output layer.  Under the paper's strong-generalization protocol held-out
users are never seen in training, so that embedding is undefined at test
time; we therefore use the sequence-only variant (the ablation Tang &
Wang themselves report) — documented substitution, same convolutional
machinery.
"""

from __future__ import annotations

import numpy as np

from ..data.interactions import PAD_ID
from ..nn import (
    Dropout,
    Embedding,
    HorizontalConvolution,
    Linear,
    VerticalConvolution,
)
from ..tensor import Tensor, concatenate, linear_cross_entropy
from ..tensor.compile import mark_dynamic, record_host, tracing
from ..tensor.random import spawn_rngs
from .base import NeuralSequentialRecommender

__all__ = ["Caser"]


class Caser(NeuralSequentialRecommender):
    """CNN over the window of the ``window`` most recent items.

    ``max_length`` bounds how much history is kept; each prediction uses
    only the last ``window`` items (Caser's Markov-order ``L``).
    """

    name = "Caser"

    def __init__(
        self,
        num_items: int,
        max_length: int,
        dim: int = 48,
        window: int = 5,
        horizontal_filters: int = 16,
        vertical_filters: int = 4,
        dropout_rate: float = 0.2,
        seed: int = 0,
    ):
        super().__init__(num_items, max_length)
        if window < 2:
            raise ValueError("window must be >= 2")
        init_rng, dropout_rng = spawn_rngs(seed, 2)
        self.dim = dim
        self.window = window
        self.item_embedding = Embedding(
            num_items + 1, dim, init_rng, padding_idx=PAD_ID
        )
        heights = tuple(range(2, window + 1))
        self.horizontal = HorizontalConvolution(
            window, dim, heights, horizontal_filters, init_rng
        )
        self.vertical = VerticalConvolution(
            window, vertical_filters, init_rng
        )
        feature_dim = (
            self.horizontal.output_dim + self.vertical.output_dim(dim)
        )
        self.hidden = Linear(feature_dim, dim, init_rng)
        self.dropout = Dropout(dropout_rate, dropout_rng)
        self.output = Linear(dim, num_items + 1, init_rng)

    def _window_hidden(self, windows: np.ndarray) -> Tensor:
        """Pre-output hidden state for ``(batch, window)`` id windows."""
        embedded = self.item_embedding(windows)
        features = concatenate(
            [self.horizontal(embedded), self.vertical(embedded)], axis=-1
        )
        return self.dropout(self.hidden(features).relu())

    def encode(self, padded: np.ndarray) -> Tensor:
        """Per-position hidden states by sliding the window over the
        sequence.

        Position ``t`` sees items ``t-window+1 .. t`` (left-padded), so
        evaluation can read the last position exactly like the attention
        models.
        """
        if tracing():
            mark_dynamic("Caser encode rebuilds sliding windows")
        padded = np.asarray(padded, dtype=np.int64)
        batch, length = padded.shape
        extended = np.concatenate(
            [
                np.full((batch, self.window - 1), PAD_ID, dtype=np.int64),
                padded,
            ],
            axis=1,
        )
        windows = np.stack(
            [extended[:, t:t + self.window] for t in range(length)], axis=1
        )  # (batch, length, window)
        flat = windows.reshape(batch * length, self.window)
        return self._window_hidden(flat).reshape(batch, length, self.dim)

    def encode_last(self, padded: np.ndarray) -> Tensor:
        """The hidden state of the final window only.

        :meth:`encode` slides ``length`` windows over the sequence;
        inference needs just the one ending at the last item, an O(L)
        reduction.  In training mode the full path runs instead so
        dropout consumes the same RNG stream either way.
        """
        if self.training:
            return super().encode_last(padded)
        return self._window_hidden(self._last_window(padded))

    def output_head(self) -> tuple[Tensor, Tensor | None]:
        return self.output.weight, self.output.bias

    def _last_window(self, padded: np.ndarray) -> np.ndarray:
        """The ``(batch, window)`` id slice ending at the final item."""
        source = padded
        padded = np.asarray(padded, dtype=np.int64)
        batch, length = padded.shape
        if length >= self.window:
            # A view of the (feed-refreshed) batch: replay-transparent.
            return padded[:, -self.window:]
        window = np.concatenate(
            [
                np.full((batch, self.window - length), PAD_ID,
                        dtype=np.int64),
                padded,
            ],
            axis=1,
        )
        if tracing():
            if padded is not source:
                mark_dynamic("padded id batch required a dtype copy")
            else:
                pad_width = self.window - length

                def refresh():
                    window[:, pad_width:] = padded

                record_host(refresh)
        return window

    def training_loss(self, padded: np.ndarray) -> Tensor:
        """Cross-entropy over the valid sliding windows of the batch.

        Rather than running every position (most are padding for short
        sequences), gather only windows whose target is a real item.
        """
        if tracing():
            mark_dynamic("Caser gathers a data-dependent window count")
        padded = np.asarray(padded, dtype=np.int64)
        batch = padded.shape[0]
        extended = np.concatenate(
            [
                np.full((batch, self.window - 1), PAD_ID, dtype=np.int64),
                padded[:, :-1],
            ],
            axis=1,
        )
        targets = padded[:, 1:]
        rows, cols = np.nonzero(targets != PAD_ID)
        if len(rows) == 0:
            raise ValueError("batch contains no supervised positions")
        windows = np.stack(
            [extended[rows, cols + offset] for offset in range(self.window)],
            axis=1,
        )
        weight, bias = self.output_head()
        return linear_cross_entropy(
            self._window_hidden(windows), weight, bias, targets[rows, cols]
        )
