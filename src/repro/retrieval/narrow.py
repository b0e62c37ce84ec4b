"""Narrow top-K score representation for the candidate-native path.

The dense scoring contract is a full-width ``(B, num_items + 1)`` score
row; under retrieval it would carry ``-inf`` at every non-candidate
position.  At catalogue scale
that contract is almost entirely padding: retrieval computes C ≈ 64
exact candidate scores and then touches ~400 KB of ``-inf`` per row just
so downstream layers can re-extract the same C values.  :class:`TopScores`
is the packed alternative — per request, ``C`` int64 candidate ids and
``C`` float32 exact scores (~768 bytes at C=64, a ~500× densification) —
that the inference engine, score cache, and service ranking handle natively.

Invariants:

- ``ids`` are item ids ``>= 1``; ``-1`` marks unused slots (a query whose
  probed lists held fewer than C items).  ``0`` (the PAD id) never
  appears.
- ``scores`` at ``-1`` slots are ``-inf`` (never ranked, never cached as
  poison).
- ``width`` is the full-width row length (``num_items + 1``) so
  :meth:`to_dense` can always rebuild the dense contract bit-for-bit by
  scattering ``scores`` at ``ids`` into a ``-inf`` row — the reference
  the bitwise-equivalence tests rank against.
"""

from __future__ import annotations

import numpy as np

__all__ = ["TopScores"]


class TopScores:
    """A batch of narrow candidate-score lists.

    Args:
        ids: ``(B, C)`` int64 candidate item ids, ``-1``-padded.
        scores: ``(B, C)`` exact scores aligned with ``ids`` (the
            engine's compute dtype, float32 in production).
        width: full-width row length (``num_items + 1``) the scores
            would occupy under the legacy dense contract.
    """

    __slots__ = ("ids", "scores", "width")

    def __init__(self, ids: np.ndarray, scores: np.ndarray, width: int):
        ids = np.asarray(ids, dtype=np.int64)
        scores = np.asarray(scores)
        if ids.ndim != 2 or scores.shape != ids.shape:
            raise ValueError(
                f"ids/scores must be matching 2-D arrays, got "
                f"{ids.shape} / {scores.shape}"
            )
        if width < 1:
            raise ValueError(f"width must be >= 1, got {width}")
        self.ids = ids
        self.scores = scores
        self.width = int(width)

    def __len__(self) -> int:
        return self.ids.shape[0]

    @property
    def candidates(self) -> int:
        """Candidate slots per request (C)."""
        return self.ids.shape[1]

    @property
    def nbytes(self) -> int:
        """Bytes held by the packed arrays — what a byte-budget cache
        charges per entry (the full-width row would be
        ``width * itemsize`` instead)."""
        return self.ids.nbytes + self.scores.nbytes

    def row(self, index: int) -> "TopScores":
        """One request's narrow entry as a ``(1, C)`` view (no copy —
        callers that retain rows past the batch's lifetime, like the
        score cache, copy explicitly via :meth:`copy`)."""
        return TopScores(
            self.ids[index:index + 1],
            self.scores[index:index + 1],
            self.width,
        )

    def copy(self) -> "TopScores":
        """An owning deep copy (cache admission / hand-out safety)."""
        return TopScores(self.ids.copy(), self.scores.copy(), self.width)

    @classmethod
    def stack(cls, rows: list["TopScores"]) -> "TopScores":
        """Concatenate single-row entries back into one batch (the
        inverse of :meth:`row`, used by the engine to reassemble cached
        and freshly-scored requests in submission order)."""
        if not rows:
            raise ValueError("cannot stack zero rows")
        width = rows[0].width
        cand = rows[0].candidates
        for row in rows:
            if row.width != width or row.candidates != cand:
                raise ValueError(
                    f"mismatched narrow shapes: ({row.candidates}, "
                    f"{row.width}) vs ({cand}, {width})"
                )
        return cls(
            np.concatenate([row.ids for row in rows], axis=0),
            np.concatenate([row.scores for row in rows], axis=0),
            width,
        )

    def to_dense(self, out: np.ndarray | None = None) -> np.ndarray:
        """The full-width view: ``(B, width)`` rows, ``-inf``
        outside the candidates.

        Scatters ``scores`` at ``ids`` into a ``-inf`` block — exactly
        the operation the retrieval engine used to run on every request,
        now reserved for the callers that genuinely need full width.
        ``-1`` slots scatter into column 0 branch-free; the column is
        the PAD slot and is re-masked to ``-inf`` right after.
        """
        batch = len(self)
        if out is None:
            out = np.full(
                (batch, self.width), -np.inf, dtype=self.scores.dtype
            )
        else:
            if out.shape != (batch, self.width):
                raise ValueError(
                    f"out must be ({batch}, {self.width}), got {out.shape}"
                )
            out[:] = -np.inf
        safe = np.maximum(self.ids, 0)
        np.put_along_axis(out, safe, self.scores, axis=1)
        out[:, 0] = -np.inf
        return out
