"""IVF-style partitioned maximum-inner-product index.

The serving bottleneck at catalogue scale is the dense ``hidden @ W``
GEMM over every item (O(|I|·d) per request).  This module trades that
for a two-stage scan:

1. a seeded k-means **coarse quantizer** partitions the item vectors
   into ``nlist`` inverted lists, and
2. each query probes only the ``nprobe`` centroids with the largest
   inner product, scanning just those lists for its top-``candidates``
   items.

The scan cost drops to roughly ``nprobe/nlist`` of the dense GEMM; the
caller then re-scores the surviving candidates *exactly* (see
:mod:`repro.retrieval.engine`), so approximation only ever loses items
that never entered the candidate set — recall@N against the exact
ranking is the single quality number that matters, and the benchmark
suite measures it directly.

Optionally the in-partition vectors are stored as **int8 codes** under
a global per-dimension affine quantizer (``v ≈ q_min + code * q_step``),
shrinking the index 4× and the scan's memory traffic with it.  Scores
against codes decompose exactly:

    q · v̂ = (q * q_step) · code + q · q_min

so the scan stays one small matrix product plus a per-query scalar.

Storage is a single partition-sorted vector matrix plus a ``bounds``
offset array (not per-list objects): a batch search then needs one
fancy-gather of every probed row followed by one contiguous GEMV per
query — numpy-call overhead per *query*, not per (query, list) pair,
which is the difference between the scan beating the dense GEMM and
drowning in interpreter dispatch.

Everything is deterministic given ``IndexConfig.seed`` — k-means init,
sampling, and empty-cluster reseeding all draw from one
``default_rng(seed)`` stream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


__all__ = ["IndexConfig", "IVFIndex", "kmeans"]

#: Bytes of each work block that :func:`_assign` and :func:`_encode`
#: reuse across chunks of rows: about one core's L2 cache (2 MB), as
#: the output head's row tiles are sized, so a block is still cached
#: when the next pass over it runs.
ASSIGN_CHUNK_BYTES = 2 << 20


@dataclass(frozen=True)
class IndexConfig:
    """Parameters of the IVF maximum-inner-product index.

    Args:
        nlist: number of k-means partitions.  ``None`` auto-sizes to
            ``round(sqrt(n))`` at build time (the classic IVF heuristic:
            balances centroid-probe cost against list-scan cost).
        nprobe: how many partitions each query scans.  ``nprobe >=
            nlist`` scans every list (still through the index; the
            engine's dense path is ``EngineConfig(index=None)``).
        candidates: top-C items returned per query for exact re-ranking.
            Must comfortably exceed the largest N anyone ranks at
            (recall@N can never exceed candidate coverage).
        quantize: ``None`` for float32 lists, ``"int8"`` for scalar
            quantization of the stored vectors.
        seed: k-means determinism (init, sampling, reseeding).
        kmeans_iters: Lloyd iterations for the coarse quantizer.
        train_sample: at most this many vectors train the quantizer
            (assignment still runs over all of them).
        rebuild_threshold: staleness fraction at which
            :meth:`repro.retrieval.RetrievalEngine.refresh` stops
            patching the index incrementally (:meth:`IVFIndex.update`)
            and pays a full rebuild instead — once this fraction of the
            catalogue has been reassigned against centroids (and, for
            int8, a quantizer) trained on old vectors, re-training them
            is what keeps recall honest.
    """

    nlist: int | None = None
    nprobe: int = 8
    candidates: int = 256
    quantize: str | None = None
    seed: int = 0
    kmeans_iters: int = 8
    train_sample: int = 16384
    rebuild_threshold: float = 0.5

    def __post_init__(self) -> None:
        if self.nlist is not None and self.nlist < 1:
            raise ValueError(f"nlist must be >= 1, got {self.nlist}")
        if self.nprobe < 1:
            raise ValueError(f"nprobe must be >= 1, got {self.nprobe}")
        if self.candidates < 1:
            raise ValueError(
                f"candidates must be >= 1, got {self.candidates}"
            )
        if self.quantize not in (None, "int8"):
            raise ValueError(
                f"quantize must be None or 'int8', got {self.quantize!r}"
            )
        if self.kmeans_iters < 1:
            raise ValueError(
                f"kmeans_iters must be >= 1, got {self.kmeans_iters}"
            )
        if self.train_sample < 1:
            raise ValueError(
                f"train_sample must be >= 1, got {self.train_sample}"
            )
        if not 0.0 < self.rebuild_threshold <= 1.0:
            raise ValueError(
                f"rebuild_threshold must be in (0, 1], got "
                f"{self.rebuild_threshold}"
            )


def _assign(vectors: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Nearest-centroid assignment under squared Euclidean distance.

    ``argmin ||x - c||²`` = ``argmax x·c - ||c||²/2``, computed as one
    GEMM in the vectors' dtype (float32 for every index): rows ``[x, 1]``
    against a ``(d + 1, nlist)`` operand ``[Cᵀ; -||c||²/2]``, so the
    offset rides in the product instead of a second pass, and float64
    centroids never promote the GEMM to float64.  Chunked over rows
    through one rows block and one affinity block, allocated once per
    call and reused by every chunk, each within ``ASSIGN_CHUNK_BYTES``
    (2 MB) however large ``n * nlist`` grows: at catalogue scale the
    full matrix would be gigabytes, 32 MB blocks set the serving
    process's peak memory during index builds, and blocks that stay in
    L2 also make the build faster.
    """
    n, d = vectors.shape
    nlist = centroids.shape[0]
    dtype = vectors.dtype
    offset = -0.5 * np.einsum("cd,cd->c", centroids, centroids)
    operand = np.vstack([centroids.T, offset]).astype(dtype)
    width = max(nlist, d + 1)
    chunk = max(1, min(n, ASSIGN_CHUNK_BYTES // (width * dtype.itemsize)))
    rows = np.ones((chunk, d + 1), dtype=dtype)
    affinity = np.empty((chunk, nlist), dtype=dtype)
    out = np.empty(n, dtype=np.int64)
    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        m = stop - start
        rows[:m, :d] = vectors[start:stop]
        np.matmul(rows[:m], operand, out=affinity[:m])
        np.argmax(affinity[:m], axis=1, out=out[start:stop])
    return out


def _encode(
    vectors: np.ndarray,
    q_min: np.ndarray,
    q_step: np.ndarray,
    rows: np.ndarray | None = None,
) -> np.ndarray:
    """int8 codes ``clip(rint((v - q_min) / q_step), 0, 255)`` of
    ``vectors`` (of its ``rows``, in that order, when given).

    Streams the rows through one float32 block of at most
    ``ASSIGN_CHUNK_BYTES``, reused by every chunk, so encoding a
    catalogue makes no full-size float32 temporary; the codes are
    bitwise those of the one-shot expression.
    """
    n = vectors.shape[0] if rows is None else rows.shape[0]
    d = vectors.shape[1]
    codes = np.empty((n, d), dtype=np.uint8)
    chunk = max(1, min(n, ASSIGN_CHUNK_BYTES // (d * 4)))
    block = np.empty((chunk, d), dtype=np.float32)
    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        part = block[:stop - start]
        if rows is None:
            np.subtract(vectors[start:stop], q_min, out=part)
        else:
            np.take(vectors, rows[start:stop], axis=0, out=part,
                    mode="clip")
            np.subtract(part, q_min, out=part)
        np.divide(part, q_step, out=part)
        np.rint(part, out=part)
        np.clip(part, 0, 255, out=part)
        codes[start:stop] = part
    return codes


def kmeans(
    vectors: np.ndarray,
    nlist: int,
    rng: np.random.Generator,
    iters: int = 8,
    train_sample: int = 16384,
) -> np.ndarray:
    """Seeded Lloyd's k-means; returns ``(nlist, d)`` centroids.

    Trains on at most ``train_sample`` rows (sampled without
    replacement) — at catalogue scale the centroid estimate converges
    long before the full dataset is needed, and build time stays
    O(sample·nlist·d·iters).  Empty clusters are reseeded onto random
    training rows so all ``nlist`` lists stay usable.  Centroid means
    are float64 on every step, the first included, as ``np.bincount``
    sums them; each assignment pass still runs its GEMM in the vectors'
    dtype (see :func:`_assign`), and the result is cast back to that
    dtype.
    """
    n = vectors.shape[0]
    if nlist > n:
        raise ValueError(f"nlist={nlist} exceeds {n} vectors")
    if n > train_sample:
        train = vectors[rng.choice(n, size=train_sample, replace=False)]
    else:
        train = vectors
    centroids = train[
        rng.choice(train.shape[0], size=nlist, replace=False)
    ].copy()
    for _ in range(iters):
        assign = _assign(train, centroids)
        counts = np.bincount(assign, minlength=nlist)
        sums = np.zeros(centroids.shape, dtype=np.float64)
        for d in range(train.shape[1]):
            # Per-dimension bincount beats np.add.at by a wide margin
            # and stays deterministic (pure summation order per dim).
            sums[:, d] = np.bincount(
                assign, weights=train[:, d], minlength=nlist
            )
        empty = counts == 0
        counts = np.maximum(counts, 1)
        centroids = sums / counts[:, None]
        if empty.any():
            reseed = rng.choice(train.shape[0], size=int(empty.sum()))
            centroids[empty] = train[reseed]
    return centroids.astype(vectors.dtype, copy=False)


class IVFIndex:
    """Inverted-file index over a set of item vectors.

    Build once from the embedding table (see
    :class:`repro.retrieval.RetrievalEngine`), then :meth:`search`
    batches of query vectors.  The coarse quantizer (centroids) is
    immutable after :meth:`build`; the *lists* are not: :meth:`update`
    reassigns changed or new vectors to their nearest existing
    centroids, so a model hot-swap patches the index in O(changed)
    assignment work instead of re-running k-means over the catalogue.
    Cumulative churn is tracked in :attr:`updates_since_build` /
    :attr:`staleness` and bounded by
    :attr:`IndexConfig.rebuild_threshold` at the engine level.
    """

    def __init__(
        self,
        centroids: np.ndarray,
        sorted_ids: np.ndarray,
        sorted_vectors: np.ndarray,
        bounds: np.ndarray,
        config: IndexConfig,
        quant: tuple[np.ndarray, np.ndarray] | None,
    ):
        self.centroids = centroids
        self._ids = sorted_ids          # (n,) partition-sorted
        self._vectors = sorted_vectors  # (n, d) float32 or (n, d) uint8
        self._bounds = bounds           # (nlist + 1,) offsets into both
        self.config = config
        self.quant = quant  # (q_min, q_step) when int8, else None
        self.num_vectors = int(len(sorted_ids))
        self.searches = 0
        self.scanned = 0
        self.updates = 0
        self.updates_since_build = 0
        self._scratch: dict[str, np.ndarray] = {}

    @property
    def nlist(self) -> int:
        return self.centroids.shape[0]

    @property
    def staleness(self) -> float:
        """Fraction of the catalogue reassigned since the last full
        build — how far the lists have drifted from the geometry the
        centroids (and quantizer) were trained on."""
        return self.updates_since_build / max(self.num_vectors, 1)

    @property
    def list_ids(self) -> list[np.ndarray]:
        """Per-partition id arrays (views; mostly for tests/debugging)."""
        return [
            self._ids[self._bounds[p]:self._bounds[p + 1]]
            for p in range(self.nlist)
        ]

    @property
    def list_vectors(self) -> list[np.ndarray]:
        """Per-partition stored vectors (views)."""
        return [
            self._vectors[self._bounds[p]:self._bounds[p + 1]]
            for p in range(self.nlist)
        ]

    @classmethod
    def build(
        cls,
        vectors: np.ndarray,
        ids: np.ndarray,
        config: IndexConfig,
    ) -> "IVFIndex":
        """Partition ``vectors`` (rows identified by ``ids``).

        Args:
            vectors: ``(n, d)`` float item vectors.
            ids: ``(n,)`` integer ids returned by :meth:`search`.
            config: see :class:`IndexConfig`.
        """
        vectors = np.ascontiguousarray(vectors, dtype=np.float32)
        ids = np.asarray(ids, dtype=np.int64)
        if vectors.ndim != 2:
            raise ValueError(f"vectors must be 2-D, got {vectors.shape}")
        if ids.shape != (vectors.shape[0],):
            raise ValueError(
                f"ids shape {ids.shape} does not match "
                f"{vectors.shape[0]} vectors"
            )
        n = vectors.shape[0]
        nlist = config.nlist
        if nlist is None:
            nlist = max(1, int(round(np.sqrt(n))))
        nlist = min(nlist, n)
        rng = np.random.default_rng(config.seed)
        centroids = kmeans(
            vectors,
            nlist,
            rng,
            iters=config.kmeans_iters,
            train_sample=config.train_sample,
        )
        assign = _assign(vectors, centroids)
        order = np.argsort(assign, kind="stable")
        bounds = np.searchsorted(assign[order], np.arange(nlist + 1))
        quant = None
        if config.quantize == "int8":
            q_min = vectors.min(axis=0)
            span = vectors.max(axis=0) - q_min
            q_step = np.maximum(span, 1e-12) / 255.0
            quant = (
                q_min.astype(np.float32),
                q_step.astype(np.float32),
            )
            # Encoded straight into partition order.
            stored = _encode(vectors, *quant, order)
        else:
            stored = vectors[order]
        return cls(
            centroids,
            ids[order],
            stored,
            bounds.astype(np.int64),
            config,
            quant,
        )

    def update(self, vectors: np.ndarray, ids: np.ndarray) -> int:
        """Reassign changed/new vectors to their nearest *existing*
        centroids — the incremental half of a model hot-swap.

        Only the ``m`` updated vectors pay a centroid-assignment GEMM;
        the k-means training loop (the expensive part of :meth:`build`)
        never re-runs.  Storage is then repacked in one stable
        counting-sort pass, so the contiguous partition-sorted layout —
        and therefore per-query scan cost — is exactly what a fresh
        build with these assignments would produce.  Ids already in the
        index are replaced; unseen ids are inserted (their partitions'
        lists grow).

        With int8 lists the updated vectors are encoded under the
        *existing* global affine quantizer, clipping values outside its
        trained range — one reason :attr:`staleness` exists: once
        cumulative churn crosses ``config.rebuild_threshold``, the
        engine pays a full rebuild to re-train centroids and re-fit the
        quantizer.

        Args:
            vectors: ``(m, d)`` replacement vectors.
            ids: ``(m,)`` integer ids (duplicates keep the last
                occurrence).

        Returns:
            How many distinct ids were updated or inserted.
        """
        vectors = np.ascontiguousarray(vectors, dtype=np.float32)
        ids = np.asarray(ids, dtype=np.int64)
        if vectors.ndim != 2:
            raise ValueError(f"vectors must be 2-D, got {vectors.shape}")
        if ids.shape != (vectors.shape[0],):
            raise ValueError(
                f"ids shape {ids.shape} does not match "
                f"{vectors.shape[0]} vectors"
            )
        if vectors.shape[1] != self.centroids.shape[1]:
            raise ValueError(
                f"vector dim {vectors.shape[1]} does not match index "
                f"dim {self.centroids.shape[1]}"
            )
        if len(ids) == 0:
            return 0
        # Duplicate ids within one update batch: last write wins.
        _, rev_first = np.unique(ids[::-1], return_index=True)
        last = np.sort(len(ids) - 1 - rev_first)
        ids, vectors = ids[last], vectors[last]
        assign = _assign(vectors, self.centroids)
        stored = vectors if self.quant is None else _encode(
            vectors, *self.quant
        )
        part_old = np.repeat(
            np.arange(self.nlist, dtype=np.int64), np.diff(self._bounds)
        )
        keep = ~np.isin(self._ids, ids)
        all_ids = np.concatenate([self._ids[keep], ids])
        all_parts = np.concatenate([part_old[keep], assign])
        all_stored = np.concatenate([self._vectors[keep], stored])
        order = np.argsort(all_parts, kind="stable")
        self._ids = all_ids[order]
        self._vectors = np.ascontiguousarray(all_stored[order])
        self._bounds = np.searchsorted(
            all_parts[order], np.arange(self.nlist + 1)
        ).astype(np.int64)
        self.num_vectors = int(len(self._ids))
        self.updates += 1
        self.updates_since_build += int(len(ids))
        return int(len(ids))

    def search(
        self,
        queries: np.ndarray,
        nprobe: int | None = None,
        count: int | None = None,
    ) -> np.ndarray:
        """Top-``count`` candidate ids per query (unordered, -1 padded).

        Args:
            queries: ``(B, d)`` query vectors.
            nprobe: partitions to scan (default: config value).
            count: candidates to return (default: config value).

        Returns:
            ``(B, count)`` int64 ids; rows with fewer than ``count``
            reachable items carry ``-1`` in the unused slots.  Order
            within a row is unspecified — the engine re-scores exactly
            anyway.
        """
        queries = np.ascontiguousarray(queries, dtype=np.float32)
        if queries.ndim != 2:
            raise ValueError(f"queries must be 2-D, got {queries.shape}")
        nprobe = self.config.nprobe if nprobe is None else nprobe
        count = self.config.candidates if count is None else count
        nlist = self.nlist
        nprobe = min(nprobe, nlist)
        batch = queries.shape[0]
        if self.num_vectors == 0:
            self.searches += batch
            return np.full((batch, count), -1, dtype=np.int64)
        affinity = queries @ self.centroids.T
        if nprobe >= nlist:
            probes = np.broadcast_to(
                np.arange(nlist), (batch, nlist)
            )
        else:
            probes = np.argpartition(
                affinity, nlist - nprobe, axis=1
            )[:, nlist - nprobe:]
        # One flat gather of every probed row for the whole batch (the
        # probed spans are laid out query-major, so each query's rows
        # form one contiguous segment of the scratch), then a short
        # per-query loop of GEMV + argpartition over those segments.
        # The scratch is persistent and grow-only: stable large
        # allocations keep the allocator from re-faulting fresh pages
        # on every request, which costs more than the scan itself.
        starts = self._bounds[probes]                      # (B, P)
        sizes = (self._bounds[probes + 1] - starts).ravel()
        seg = sizes.reshape(batch, nprobe).sum(axis=1)     # rows/query
        total = int(sizes.sum())
        offsets = np.cumsum(sizes) - sizes
        flat = (
            np.arange(total, dtype=np.int64)
            - np.repeat(offsets, sizes)
            + np.repeat(starts.ravel(), sizes)
        )
        gathered = self._buffer(
            "gathered", (total, self._vectors.shape[1]),
            self._vectors.dtype,
        )
        # ``mode="clip"``: the rows are in range by construction, and
        # the default mode fills a fresh temporary the size of ``out``.
        np.take(self._vectors, flat, axis=0, out=gathered, mode="clip")
        if self.quant is None:
            scan_queries = queries
        else:
            # q·v̂ decomposition: codes multiply the per-dim-scaled
            # query; the q·q_min offset is constant per query — it
            # cannot change the per-query top-C and is skipped.
            _, q_step = self.quant
            scan_queries = queries * q_step
        # Kept rows accumulate into one (B, count) block so the id
        # translation and the -1 fill happen as two vector ops after the
        # loop instead of 2·B tiny ones inside it — at this scale the
        # scan loop is dispatch-bound, not FLOP-bound.
        keep = self._buffer("keep", (batch, count), np.int64)
        keep[:] = 0
        kept = np.zeros(batch, dtype=np.int64)
        ends = np.cumsum(seg)
        for b in range(batch):
            lo, hi = ends[b] - seg[b], ends[b]
            m = hi - lo
            if m == 0:
                continue
            rows = flat[lo:hi]
            if m > count:
                scores = gathered[lo:hi] @ scan_queries[b]
                rows = rows[
                    np.argpartition(scores, m - count)[m - count:]
                ]
                m = count
            keep[b, :m] = rows
            kept[b] = m
        out = self._ids[keep]
        out[np.arange(count) >= kept[:, None]] = -1
        self.scanned += total
        self.searches += batch
        return out

    def _buffer(
        self, name: str, shape: tuple, dtype
    ) -> np.ndarray:
        """Persistent grow-only scratch (see :meth:`search`); the
        engine's exact re-rank gathers into it too."""
        needed = int(np.prod(shape))
        held = self._scratch.get(name)
        if held is None or held.size < needed or held.dtype != dtype:
            held = np.empty(max(needed, 1), dtype=dtype)
            self._scratch[name] = held
        return held[:needed].reshape(shape)
