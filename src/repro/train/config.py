"""Configuration dataclasses for the training harness."""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["TrainerConfig", "TrainingHistory"]


@dataclass
class TrainerConfig:
    """Knobs of :class:`repro.train.Trainer`.

    Defaults follow the paper's Section V-D where applicable (Adam,
    learning rate 0.001, batch size 128); epochs are scaled down for the
    CPU-only reproduction.
    """

    epochs: int = 30
    batch_size: int = 128
    learning_rate: float = 0.001
    clip_norm: float = 5.0
    seed: int = 0
    patience: int | None = None
    eval_every: int = 1
    eval_metric: str = "ndcg@10"
    verbose: bool = False
    trim_batches: bool = True
    """Column-trim each training batch to its own longest real sequence
    (plus the leading-pad target column) before the forward pass.
    Models mask padded positions exactly, so trimming is loss- and
    gradient-preserving; it only applies to models that declare
    ``supports_trimming`` (the attention models).  Attention work is
    O(L²), so long-tail corpora train several times faster trimmed —
    see :func:`repro.data.batching.trim_batch`."""

    bucket_by_length: bool = True
    """Build minibatches from power-of-two length buckets
    (:func:`repro.data.batching.bucketed_minibatch_indices`) instead of
    a uniform shuffle.  Batches then mix only rows within a 2× length
    band, which is what makes ``trim_batches`` bite when a corpus has a
    long tail (one long row no longer forces a whole batch wide).
    On by default — it is the right call on every long-tail corpus the
    paper uses; disable it (``bucket_by_length=False``, or
    ``--no-bucket-by-length`` on the CLI) when a run must stay
    step-for-step comparable with the historical uniform shuffle
    (same model quality in expectation, different batch composition).
    Checkpoints carry no batching state, so either setting resumes the
    other's checkpoints."""

    compute_dtype: str | None = None
    """Floating dtype for the whole training run (``"float32"`` /
    ``"float64"``).  When set, the trainer casts the model's parameters
    and scopes :func:`repro.tensor.set_default_dtype` for the duration of
    ``fit``, so every activation, gradient, and optimizer moment uses
    that dtype.  float32 halves memory traffic on every BLAS call; the
    default ``None`` leaves the engine-wide default (float64) in force —
    finite-difference gradchecks require float64."""

    checkpoint_dir: str | None = None
    """Directory for full-state training checkpoints (see
    :mod:`repro.train.checkpoint`).  ``None`` (the default) disables
    checkpointing.  When set, the trainer atomically writes
    ``checkpoint-epoch-NNNNN.npz`` every ``checkpoint_every`` epochs
    (plus the final and any early-stopping epoch), and
    ``Trainer.fit(..., resume_from=...)`` continues a run bit-for-bit."""

    checkpoint_every: int = 1
    """Checkpoint cadence in epochs (only used with ``checkpoint_dir``)."""

    keep_last: int | None = None
    """Retain only the newest ``keep_last`` checkpoints after each save
    (``None`` keeps all)."""

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.patience is not None and self.patience < 1:
            raise ValueError("patience must be >= 1 when set")
        if self.compute_dtype is not None and self.compute_dtype not in (
            "float32",
            "float64",
        ):
            raise ValueError(
                "compute_dtype must be 'float32', 'float64', or None; "
                f"got {self.compute_dtype!r}"
            )
        if self.checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        if self.keep_last is not None and self.keep_last < 1:
            raise ValueError("keep_last must be >= 1 when set")


@dataclass
class TrainingHistory:
    """Per-epoch record returned by :meth:`Trainer.fit`.

    For VAE models (anything exposing ``training_elbo``) the trainer also
    records the mean reconstruction and KL terms per epoch plus the β in
    force as each epoch began (``betas``), so the annealing trade-off of
    Eq. 20 is observable — including across checkpoint resumes.
    ``grad_norms`` holds the pre-clipping gradient norm of every
    training step, for post-hoc divergence diagnostics.
    """

    losses: list[float] = field(default_factory=list)
    reconstruction_losses: list[float] = field(default_factory=list)
    kl_values: list[float] = field(default_factory=list)
    validation_scores: list[tuple[int, float]] = field(default_factory=list)
    grad_norms: list[float] = field(default_factory=list)
    betas: list[float] = field(default_factory=list)
    best_epoch: int | None = None
    stopped_early: bool = False

    @property
    def final_loss(self) -> float:
        if not self.losses:
            raise ValueError("no epochs were run")
        return self.losses[-1]

    def to_dict(self) -> dict:
        """JSON-serializable snapshot (used by training checkpoints)."""
        return {
            "losses": list(self.losses),
            "reconstruction_losses": list(self.reconstruction_losses),
            "kl_values": list(self.kl_values),
            "validation_scores": [
                [int(epoch), float(score)]
                for epoch, score in self.validation_scores
            ],
            "grad_norms": list(self.grad_norms),
            "betas": list(self.betas),
            "best_epoch": self.best_epoch,
            "stopped_early": self.stopped_early,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TrainingHistory":
        return cls(
            losses=list(data.get("losses", [])),
            reconstruction_losses=list(
                data.get("reconstruction_losses", [])
            ),
            kl_values=list(data.get("kl_values", [])),
            validation_scores=[
                (int(epoch), float(score))
                for epoch, score in data.get("validation_scores", [])
            ],
            grad_norms=list(data.get("grad_norms", [])),
            betas=list(data.get("betas", [])),
            best_epoch=data.get("best_epoch"),
            stopped_early=bool(data.get("stopped_early", False)),
        )
