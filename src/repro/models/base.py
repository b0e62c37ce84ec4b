"""Recommender interfaces shared by VSAN and all eight baselines.

Two tiers:

- :class:`Recommender` — anything that can ``fit`` on a training corpus
  and ``score`` a (possibly unseen) user's item history, producing one
  score per item id.  This is all the evaluator needs.
- :class:`NeuralSequentialRecommender` — the common machinery for the
  deep sequence models (GRU4Rec, Caser, SVAE, SASRec, VSAN).  A model
  defines ``encode`` (hidden states) and ``output_head`` (the item-table
  GEMM); the base derives logits, the training loss consumed by
  :class:`repro.train.Trainer`, and batched scoring from the last
  sequence position.

Held-out users come from a strong-generalization split, so models that
learn per-user parameters (BPR, FPMC, TransRec) implement *fold-in
adaptation*: they estimate an unseen user's representation from the items
in the fold-in portion (documented on each model).
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from ..data.batching import (
    build_training_matrix,
    pad_left,
    pad_left_into,
    shift_targets,
)
from ..data.interactions import SequenceCorpus
from ..nn.module import Module
from ..tensor import (
    Tensor,
    get_default_dtype,
    linear_cross_entropy,
    no_grad,
)
from ..tensor.compile import record_feed, run_compiled

__all__ = ["Recommender", "NeuralSequentialRecommender"]


class Recommender(ABC):
    """Minimal interface: fit on a corpus, score item histories."""

    name: str = "recommender"

    @abstractmethod
    def fit(self, corpus: SequenceCorpus) -> "Recommender":
        """Train on the full histories of the training users."""

    @abstractmethod
    def score(self, history: np.ndarray) -> np.ndarray:
        """Score every item for a user whose chronological history is
        ``history`` (dense ids in ``1..num_items``).

        Returns an array of length ``num_items + 1``; index 0 is the
        padding slot and is ignored by the evaluator.
        """

    def score_batch(self, histories: list[np.ndarray]) -> np.ndarray:
        """Score several histories; default loops over :meth:`score`."""
        return np.stack([self.score(history) for history in histories])

    #: Whether the model factors its last-position scoring as
    #: ``hidden @ W (+ b)`` against a static item lookup table — the
    #: structure a maximum-inner-product index needs (see
    #: :mod:`repro.retrieval`).  Models that set this provide
    #: ``output_head()`` and ``hidden_last(histories)``, as
    #: :class:`NeuralSequentialRecommender` does.
    supports_retrieval: bool = False


class NeuralSequentialRecommender(Module, Recommender):
    """Shared padding/scoring logic for the deep sequence models.

    The model contract is two hooks:

    - ``encode(padded)``: hidden states ``(batch, length, dim)`` for
      every position of a left-padded id batch;
    - ``output_head()``: the item-table GEMM's ``(weight, bias)``
      Tensors — ``weight`` is ``(dim, num_items + 1)`` (column ``i``
      scores item ``i``, matching :class:`repro.nn.Linear`'s
      ``y = x @ W + b``), ``bias`` is ``(num_items + 1,)`` or ``None``.
      Tied heads return ``item_embedding.weight.T``.

    Everything else derives from them: :meth:`logits`,
    :meth:`forward_scores`, the next-item cross-entropy
    :meth:`training_loss` (VAE models override it with their ELBO),
    the compiled query vectors of :meth:`hidden_last`, and the dense
    rows of :meth:`score_batch`.  ``encode_last`` may be overridden
    when the final position alone is cheaper to encode than the whole
    window (Caser, SVAE); overrides must agree with
    ``encode(padded)[:, -1, :]``.
    """

    #: Every model with this contract factors its scores as
    #: ``hidden @ W (+ b)``, the structure a retrieval index needs.
    supports_retrieval: bool = True

    #: Whether the model's training computation is *right-aligned*: a
    #: left-padded batch column-trimmed to its own longest real sequence
    #: (:func:`repro.data.batching.trim_batch`) produces the same loss
    #: and gradients as the full-width batch.  True for the attention
    #: models (their position embeddings align to the sequence end and
    #: padded keys are masked out of attention exactly); False for the
    #: recurrent/convolutional baselines, whose unroll over leading pad
    #: columns is not an exact no-op.  The trainer only trims batches
    #: for models that set this.
    supports_trimming: bool = False

    #: How many future positions each sequence position is supervised
    #: against: 1 for next-item training, ``k`` for the next-``k``
    #: objective of Eq. 18 (whose supervision window reaches
    #: the first real item from up to ``k`` leading-pad positions).
    #: Used as the :func:`repro.data.batching.trim_batch` margin so
    #: column trimming never drops a supervised position.
    target_window: int = 1

    def __init__(self, num_items: int, max_length: int):
        Module.__init__(self)
        if num_items < 1:
            raise ValueError("need at least one item")
        if max_length < 2:
            raise ValueError("max_length must be >= 2 (input + target)")
        self.num_items = num_items
        self.max_length = max_length

    # ------------------------------------------------------------------
    # Hooks for subclasses
    # ------------------------------------------------------------------
    def encode(self, padded: np.ndarray) -> Tensor:
        """Hidden states ``(batch, length, dim)`` feeding the head."""
        raise NotImplementedError

    def output_head(self) -> tuple[Tensor, Tensor | None]:
        """The item-table GEMM's ``(weight, bias)`` parameters."""
        raise NotImplementedError

    def encode_last(self, padded: np.ndarray) -> Tensor:
        """Final-position hidden state ``(batch, dim)``.

        Inference reads only the last position, so scoring pays the
        ``|I|``-column GEMM once per request rather than ``L`` times.
        """
        return self.encode(padded)[:, -1, :]

    # ------------------------------------------------------------------
    # Derived from the hooks
    # ------------------------------------------------------------------
    def logits(self, hidden: Tensor) -> Tensor:
        """Item scores for hidden states of any leading shape."""
        weight, bias = self.output_head()
        out = hidden @ weight
        if bias is not None:
            out = out + bias
        return out

    def forward_scores(self, padded: np.ndarray) -> Tensor:
        """Logits ``(batch, length, num_items + 1)`` at every position."""
        return self.logits(self.encode(padded))

    def training_loss(self, padded: np.ndarray) -> Tensor:
        """Next-item cross-entropy over the non-padded positions; the
        head is applied to those positions only."""
        inputs, targets, weights = shift_targets(padded)
        hidden = self.encode(inputs)
        weight, bias = self.output_head()
        return linear_cross_entropy(
            hidden, weight, bias, targets, weights=weights
        )

    # ------------------------------------------------------------------
    # Recommender protocol
    # ------------------------------------------------------------------
    def fit(self, corpus: SequenceCorpus, trainer=None) -> "Recommender":
        """Train with a default :class:`repro.train.Trainer` (or a
        caller-supplied one)."""
        from ..train.trainer import Trainer  # local import to avoid a cycle

        trainer = trainer or Trainer()
        trainer.fit(self, corpus)
        return self

    def padded_input(self, history: np.ndarray) -> np.ndarray:
        """Left-pad a raw history to the model's window (keeping the most
        recent ``max_length`` items, per Section IV-A)."""
        return pad_left(np.asarray(history, dtype=np.int64), self.max_length)

    def score(self, history: np.ndarray) -> np.ndarray:
        return self.score_batch([history])[0]

    def _padded_buffer(self, batch: int) -> np.ndarray:
        """A reusable ``(batch, max_length)`` id buffer for scoring.

        Memoized like PR 1's causal-mask cache: the buffer is grown (never
        shrunk) and its leading rows are refilled per call, so steady-state
        serving allocates no fresh padded matrices.
        """
        buffer = getattr(self, "_scoring_buffer", None)
        if buffer is None or buffer.shape[0] < batch:
            buffer = np.empty((batch, self.max_length), dtype=np.int64)
            object.__setattr__(self, "_scoring_buffer", buffer)
        return buffer[:batch]

    def hidden_last(self, histories: list[np.ndarray]) -> np.ndarray:
        """Eval-mode, tape-free :meth:`encode_last` over raw histories —
        the query vectors of a retrieval pipeline and the input of
        :meth:`score_batch`'s GEMM.

        The first batch of each ``(shape, dtype)`` bucket traces a
        no-grad eager forward; later batches replay its op program
        (:mod:`repro.tensor.compile`) with the padded ids as the only
        feed — zero tensor construction, bitwise-identical results.
        Untraceable forwards pin the key dynamic and stay eager.
        """
        self.eval()
        padded = self._padded_buffer(len(histories))
        for row, history in zip(padded, histories):
            pad_left_into(np.asarray(history, dtype=np.int64), row)

        def build():
            record_feed("padded", padded)
            return self.encode_last(padded)

        key = ("hidden", padded.shape, np.dtype(get_default_dtype()))
        with no_grad():
            hidden, _ = run_compiled(
                self, key, build, feed_values={"padded": padded}
            )
        # Copy: the result lives in the model's shared scratch slab and
        # is overwritten by the next trace or replay of any program.
        return hidden.numpy().copy()

    def score_batch(self, histories: list[np.ndarray]) -> np.ndarray:
        """Dense rows ``hidden_last(histories) @ W (+ b)``, with the
        padding column 0 set to ``-inf``."""
        hidden = self.hidden_last(histories)
        with no_grad():
            weight, bias = self.output_head()
        scores = hidden @ weight.data
        if bias is not None:
            scores += bias.data
        scores[:, 0] = -np.inf
        return scores

    def padded_training_rows(self, corpus: SequenceCorpus) -> np.ndarray:
        """All training users as one padded matrix (plus one extra column
        so the final position still has a target)."""
        return build_training_matrix(corpus.sequences, self.max_length + 1)
