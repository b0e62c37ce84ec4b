"""Fixed-length sequence batching for the attention/RNN models.

Implements Section IV-A of the paper: sequences longer than the maximum
length ``n`` keep their most recent ``n`` items; shorter sequences are
left-padded with the padding id 0.  For training, the input at position
``t`` predicts the item at ``t+1`` (:func:`shift_targets`), or the set
of the next ``k`` items per Eq. 18 (:func:`next_k_targets`, as ``k`` id
slots per position rather than a multi-hot row over the catalogue).

Length-aware utilities (:func:`effective_lengths`, :func:`trim_batch`,
:func:`bucketed_minibatch_indices`) support the trainer's padding-frugal
hot path: because every model masks padded positions out of both
attention and the loss, a batch can be column-trimmed to its own longest
real sequence — attention cost is O(L²), so training long-tail corpora
at the *batch's* length instead of the corpus-wide window is a large,
exact saving (see ``docs/TRAINING.md``).
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from ..tensor import get_default_dtype
from ..tensor.compile import record_host, tracing
from .interactions import PAD_ID

__all__ = [
    "pad_left",
    "pad_left_into",
    "shift_targets",
    "next_k_targets",
    "minibatch_indices",
    "bucketed_minibatch_indices",
    "build_training_matrix",
    "effective_lengths",
    "trim_batch",
]


def pad_left(sequence: np.ndarray, length: int) -> np.ndarray:
    """Most recent ``length`` items, left-padded with ``PAD_ID``."""
    sequence = np.asarray(sequence, dtype=np.int64)
    if len(sequence) >= length:
        return sequence[-length:].copy()
    out = np.full(length, PAD_ID, dtype=np.int64)
    if len(sequence):
        out[length - len(sequence):] = sequence
    return out


def pad_left_into(sequence: np.ndarray, row: np.ndarray) -> None:
    """Write :func:`pad_left` of ``sequence`` into ``row`` in place.

    The allocation-free variant for hot scoring paths: callers keep one
    padded buffer alive and refill its rows per batch instead of building
    a fresh array per request.
    """
    sequence = np.asarray(sequence, dtype=np.int64)
    length = len(row)
    if len(sequence) >= length:
        row[:] = sequence[-length:]
        return
    row[: length - len(sequence)] = PAD_ID
    if len(sequence):
        row[length - len(sequence):] = sequence


def build_training_matrix(
    sequences: list[np.ndarray], max_length: int
) -> np.ndarray:
    """Stack sequences into a ``(num_users, max_length)`` padded matrix.

    Each row keeps the most recent ``max_length`` items of the full
    sequence (inputs and targets are later derived by shifting).
    """
    return np.stack(
        [pad_left(seq, max_length) for seq in sequences], axis=0
    )


def effective_lengths(padded: np.ndarray) -> np.ndarray:
    """Number of real (non-pad) items per row of a left-padded matrix."""
    return (np.asarray(padded) != PAD_ID).sum(axis=1)


def trim_batch(
    rows: np.ndarray,
    lengths: np.ndarray | None = None,
    margin: int = 1,
) -> np.ndarray:
    """Slice a left-padded batch to its own maximum effective width.

    Keeps the trailing ``max(effective length) + margin`` columns.
    ``margin`` is the model's supervision window: ``1`` for next-item
    training preserves the leading-pad position whose *target* is the
    first real item; next-``k`` training (Eq. 18) supervises up
    to ``k`` leading-pad positions (their windows reach the first real
    item), so such models pass ``margin=k``.  Either way every supervised
    (input, target) pair of the full-width batch survives.  Rows are
    left-padded, so the dropped leading columns are pad in every row;
    models whose computation is right-aligned (``supports_trimming``)
    produce identical losses on the trimmed view.

    ``lengths`` can pass precomputed :func:`effective_lengths` values for
    the rows; the returned array is a view (no copy).
    """
    if margin < 1:
        raise ValueError(f"margin must be >= 1, got {margin}")
    rows = np.asarray(rows)
    if lengths is None:
        lengths = effective_lengths(rows)
    width = int(np.max(lengths)) + margin if len(lengths) else rows.shape[1]
    width = min(max(width, 2), rows.shape[1])
    return rows[:, rows.shape[1] - width:]


def _target_dtype(dtype) -> np.dtype:
    """Resolve an explicit dtype or fall back to the engine default."""
    return np.dtype(dtype) if dtype is not None else get_default_dtype()


def shift_targets(
    padded: np.ndarray, dtype=None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Derive (inputs, targets, weights) for next-item training.

    ``inputs[:, t] = padded[:, t]`` predicts ``targets[:, t] =
    padded[:, t+1]``; the last column of ``padded`` is never an input.
    ``weights`` is 1 where the target is a real item and the input
    position exists (non-pad target), else 0.

    ``weights`` is built in ``dtype`` (default: the engine-wide default
    dtype), so a float32 compute path never pays a float64 allocation
    plus downcast per batch.
    """
    inputs = padded[:, :-1]
    targets = padded[:, 1:]
    weights = (targets != PAD_ID).astype(_target_dtype(dtype))
    if tracing():
        # inputs/targets are views of the (feed-refreshed) padded batch;
        # only the weight mask needs an explicit replay step.  not_equal
        # into a float out writes exact 0.0/1.0 — bitwise what the astype
        # of the bool produced.
        record_host(lambda: np.not_equal(targets, PAD_ID, out=weights))
    return inputs, targets, weights


def next_k_targets(
    padded: np.ndarray, k: int, dtype=None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Inputs plus the ids of the next ``k`` items per position (Eq. 18).

    Returns ``(inputs, targets, weights)`` where ``targets`` is an int64
    ``(batch, length-1, k)`` array: slot ``j`` of position ``t`` holds
    ``padded[:, t+1+j]``, or ``PAD_ID`` where that is padding, past the
    end of the row, or repeats an earlier slot of the position (the
    target is the *set* of the next ``k`` items).  ``weights[b, t]`` is 1
    iff at least one slot holds an item, built in ``dtype`` (default:
    the engine default).  :func:`repro.tensor.linear_cross_entropy`
    reads the slots directly, so no ``(…, |I|+1)`` target is ever built.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    inputs = padded[:, :-1]
    batch, length = inputs.shape
    targets = np.empty((batch, length, k), dtype=np.int64)
    weights = np.empty((batch, length), dtype=_target_dtype(dtype))

    def fill():
        targets.fill(PAD_ID)
        for slot in range(min(k, length)):
            future = targets[:, :length - slot, slot]
            future[...] = padded[:, 1 + slot:]
            for earlier in range(slot):
                future[future == targets[:, :length - slot, earlier]] = PAD_ID
        np.greater(targets.max(axis=-1), PAD_ID, out=weights)

    fill()
    if tracing():
        # Data-dependent slot values in fixed-shape buffers: one host
        # step refills them from the refreshed padded batch.
        record_host(fill)
    return inputs, targets, weights


def minibatch_indices(
    num_rows: int,
    batch_size: int,
    rng: np.random.Generator | None = None,
) -> Iterator[np.ndarray]:
    """Yield index arrays covering ``range(num_rows)`` in batches.

    Shuffled when ``rng`` is given (training), sequential otherwise
    (evaluation).
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    order = (
        rng.permutation(num_rows) if rng is not None else np.arange(num_rows)
    )
    for start in range(0, num_rows, batch_size):
        yield order[start:start + batch_size]


def bucketed_minibatch_indices(
    lengths: np.ndarray,
    batch_size: int,
    rng: np.random.Generator,
) -> Iterator[np.ndarray]:
    """Length-homogeneous shuffled minibatches, without a global sort.

    Rows are assigned to power-of-two length buckets ([1], [2–3], [4–7],
    [8–15], …) in one O(n) pass; each bucket is shuffled independently
    and chunked into batches, then the *batch order* is shuffled so SGD
    never sees a monotone length curriculum.  Batches therefore mix only
    rows within a 2× length band, which is what makes per-batch column
    trimming (:func:`trim_batch`) effective on long-tail corpora: one
    straggler no longer forces a whole batch to the corpus-wide width.

    Deterministic for a given ``rng`` state.  Every row appears exactly
    once per pass; at most one ragged batch per bucket.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    lengths = np.asarray(lengths)
    if lengths.ndim != 1:
        raise ValueError(f"lengths must be 1-D, got shape {lengths.shape}")
    # floor(log2(length)) per row; length 0 (empty row) shares bucket 0.
    keys = np.zeros(len(lengths), dtype=np.int64)
    positive = lengths > 0
    keys[positive] = np.floor(np.log2(lengths[positive])).astype(np.int64)
    batches = []
    for key in np.unique(keys):
        bucket = np.nonzero(keys == key)[0]
        bucket = bucket[rng.permutation(len(bucket))]
        for start in range(0, len(bucket), batch_size):
            batches.append(bucket[start:start + batch_size])
    for index in rng.permutation(len(batches)):
        yield batches[index]
