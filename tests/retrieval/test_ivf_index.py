"""IVF index unit tests: build determinism, search correctness against
brute force, quantization error bounds, and edge-case handling."""

import numpy as np
import pytest

from repro.retrieval import IndexConfig, IVFIndex, kmeans
from repro.tensor.random import make_rng
from repro.tensor.topk import top_k_indices, top_k_partition


def _clustered_vectors(
    n=600, dim=12, centers=8, seed=7
) -> np.ndarray:
    """Blob-structured vectors (k-means has something real to find)."""
    rng = make_rng(seed)
    mus = rng.standard_normal((centers, dim)) * 3.0
    assign = rng.integers(0, centers, size=n)
    return (
        mus[assign] + 0.3 * rng.standard_normal((n, dim))
    ).astype(np.float32)


@pytest.fixture(scope="module")
def vectors():
    return _clustered_vectors()


@pytest.fixture(scope="module")
def ids(vectors):
    return np.arange(1, len(vectors) + 1, dtype=np.int64)


class TestTopK:
    def test_partition_matches_argsort(self, rng):
        values = rng.standard_normal((5, 40))
        picked = top_k_partition(values, 7)
        best = np.argsort(-values, axis=1)[:, :7]
        for got, want in zip(picked, best):
            assert set(got.tolist()) == set(want.tolist())

    def test_indices_are_ordered(self, rng):
        values = rng.standard_normal((4, 30))
        ranked = top_k_indices(values, 6)
        np.testing.assert_array_equal(
            ranked, np.argsort(-values, axis=1, kind="stable")[:, :6]
        )

    def test_k_clipped_to_n(self):
        values = np.array([3.0, 1.0, 2.0])
        np.testing.assert_array_equal(
            top_k_indices(values, 10), [0, 2, 1]
        )

    def test_ties_keep_index_order(self):
        values = np.array([[1.0, 5.0, 5.0, 0.0]])
        np.testing.assert_array_equal(
            top_k_indices(values, 3), [[1, 2, 0]]
        )

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError, match="k must be"):
            top_k_partition(np.zeros(4), 0)


class TestKMeans:
    def test_deterministic(self, vectors):
        a = kmeans(vectors, 8, make_rng(11))
        b = kmeans(vectors, 8, make_rng(11))
        np.testing.assert_array_equal(a, b)

    def test_seed_changes_result(self, vectors):
        a = kmeans(vectors, 8, make_rng(11))
        b = kmeans(vectors, 8, make_rng(12))
        assert not np.array_equal(a, b)

    def test_recovers_blob_structure(self, vectors):
        # Over-segment (16 centroids for 8 blobs) so random init almost
        # surely lands a centroid in every blob; each point should then
        # sit within blob-noise distance (~0.3·sqrt(12)≈1) of a centroid.
        centroids = kmeans(vectors, 16, make_rng(0))
        dists = np.linalg.norm(
            vectors[:, None, :] - centroids[None, :, :], axis=-1
        )
        assert float(np.median(dists.min(axis=1))) < 1.5

    def test_nlist_exceeding_vectors_raises(self, vectors):
        with pytest.raises(ValueError, match="exceeds"):
            kmeans(vectors[:4], 8, make_rng(0))

    def test_sampled_training(self, vectors):
        small = kmeans(vectors, 4, make_rng(3), train_sample=64)
        assert small.shape == (4, vectors.shape[1])
        assert np.isfinite(small).all()

    def test_first_step_means_are_float64(self, vectors):
        """One Lloyd step gives the float64 per-dimension ``bincount``
        means of ``_assign``'s assignment, cast to the vectors' float32,
        as every later step does: the first step's sums are not rounded
        to the float32 seed rows' dtype."""
        from repro.retrieval.index import _assign

        got = kmeans(vectors, 8, make_rng(11), iters=1)
        seeds = vectors[
            make_rng(11).choice(len(vectors), size=8, replace=False)
        ]
        assign = _assign(vectors, seeds)
        counts = np.bincount(assign, minlength=8)
        assert counts.all()  # no empty cluster to reseed
        sums = np.stack([
            np.bincount(assign, weights=column, minlength=8)
            for column in vectors.T
        ], axis=1)
        want = (sums / counts[:, None]).astype(np.float32)
        assert got.dtype == np.float32
        assert got.tobytes() == want.tobytes()


class TestAssign:
    def test_chunked_equals_one_unchunked_argmax(self, vectors, monkeypatch):
        from repro.retrieval import index as index_module

        centroids = kmeans(vectors, 8, make_rng(0))
        want = np.argmax(
            vectors @ centroids.T
            - 0.5 * np.einsum("cd,cd->c", centroids, centroids),
            axis=1,
        )
        # Blocks are d + 1 = 13 float32 columns wide: 1 row per chunk.
        monkeypatch.setattr(index_module, "ASSIGN_CHUNK_BYTES", 3 * 8 * 4)
        np.testing.assert_array_equal(
            index_module._assign(vectors, centroids), want
        )
        monkeypatch.setattr(index_module, "ASSIGN_CHUNK_BYTES", 1)
        np.testing.assert_array_equal(
            index_module._assign(vectors, centroids), want
        )

    def test_matches_float64_brute_force(self, monkeypatch):
        from repro.retrieval import index as index_module

        rng = make_rng(5)
        vectors = rng.standard_normal((1000, 24)).astype(np.float32)
        centroids = rng.standard_normal((40, 24))
        # 7 rows of 40 float32 affinities per block: 142 full chunks
        # and a last one of 6 rows.
        monkeypatch.setattr(index_module, "ASSIGN_CHUNK_BYTES", 7 * 40 * 4)
        got = index_module._assign(vectors, centroids)
        assert got.dtype == np.int64 and got.shape == (1000,)

        exact = vectors.astype(np.float64)
        dist = ((exact[:, None, :] - centroids[None]) ** 2).sum(axis=-1)
        want = dist.argmin(axis=1)
        top_two = np.sort(dist, axis=1)[:, :2]
        # Worst-case float32 error of the d + 1 = 25-term affinity dot
        # product, plus the rounding of the centroids to float32.
        resolution = (25 + 1) * np.finfo(np.float32).eps * (
            (exact**2).sum(axis=1) + (centroids**2).sum(axis=1).max()
        )
        mismatch = got != want
        tied = (top_two[:, 1] - top_two[:, 0]) < resolution
        assert not (mismatch & ~tied).any()
        assert mismatch.sum() <= 5

    def test_gemm_runs_in_float32_on_one_block(self, monkeypatch):
        from repro.retrieval import index as index_module

        rng = make_rng(6)
        vectors = rng.standard_normal((50, 8)).astype(np.float32)
        centroids = rng.standard_normal((4, 8))
        calls = []
        matmul = np.matmul

        def spy(a, b, out):
            calls.append((a.dtype, b.dtype, out.dtype, out))
            return matmul(a, b, out=out)

        # Blocks are d + 1 = 9 columns wide: 9 rows each, 6 chunks.
        monkeypatch.setattr(index_module, "ASSIGN_CHUNK_BYTES", 9 * 9 * 4)
        monkeypatch.setattr(np, "matmul", spy)
        index_module._assign(vectors, centroids)
        assert len(calls) == 6
        assert {call[:3] for call in calls} == {(np.dtype(np.float32),) * 3}
        assert all(np.shares_memory(call[3], calls[0][3]) for call in calls)


class TestIndexBuild:
    def test_partitions_cover_all_ids(self, vectors, ids):
        index = IVFIndex.build(vectors, ids, IndexConfig(nlist=8))
        stored = np.concatenate(index.list_ids)
        assert sorted(stored.tolist()) == ids.tolist()
        assert index.num_vectors == len(ids)

    def test_auto_nlist_is_sqrt(self, vectors, ids):
        index = IVFIndex.build(vectors, ids, IndexConfig())
        assert index.nlist == int(round(np.sqrt(len(ids))))

    def test_build_deterministic(self, vectors, ids):
        config = IndexConfig(nlist=8, seed=5)
        a = IVFIndex.build(vectors, ids, config)
        b = IVFIndex.build(vectors, ids, config)
        np.testing.assert_array_equal(a.centroids, b.centroids)
        for la, lb in zip(a.list_ids, b.list_ids):
            np.testing.assert_array_equal(la, lb)

    def test_id_shape_mismatch_raises(self, vectors):
        with pytest.raises(ValueError, match="ids shape"):
            IVFIndex.build(vectors, np.arange(3), IndexConfig())

    def test_int8_reconstruction_error_bounded(self, vectors, ids):
        index = IVFIndex.build(
            vectors, ids, IndexConfig(nlist=8, quantize="int8")
        )
        q_min, q_step = index.quant
        for part in range(index.nlist):
            codes = index.list_vectors[part]
            assert codes.dtype == np.uint8
            approx = q_min + codes.astype(np.float32) * q_step
            # Reconstruction stays within one quantization step per dim.
            original = vectors[index.list_ids[part] - 1]
            assert np.all(np.abs(approx - original) <= q_step + 1e-6)


class TestIndexConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(nlist=0),
            dict(nprobe=0),
            dict(candidates=0),
            dict(quantize="int4"),
            dict(kmeans_iters=0),
            dict(train_sample=0),
            dict(rebuild_threshold=0.0),
            dict(rebuild_threshold=1.5),
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            IndexConfig(**kwargs)


class TestIndexUpdate:
    """Incremental reassignment: the hot-swap path that skips k-means."""

    def _index(self, vectors, ids, **kwargs):
        return IVFIndex.build(
            vectors, ids, IndexConfig(nlist=8, seed=5, **kwargs)
        )

    def test_update_matches_fresh_assignment(self, vectors, ids):
        # Updating m vectors must leave storage exactly as if the index
        # had been built from the patched table with the SAME centroids:
        # every partition holds the nearest-centroid members, in the
        # same contiguous partition-sorted layout.
        index = self._index(vectors, ids)
        rng = make_rng(3)
        changed = rng.choice(len(ids), size=25, replace=False)
        patched = vectors.copy()
        patched[changed] += rng.standard_normal(
            (25, vectors.shape[1])
        ).astype(np.float32)
        assert index.update(patched[changed], ids[changed]) == 25

        reference = self._index(vectors, ids)
        from repro.retrieval.index import _assign
        want_assign = _assign(patched, reference.centroids)
        for part in range(index.nlist):
            want = np.sort(ids[want_assign == part])
            np.testing.assert_array_equal(
                np.sort(index.list_ids[part]), want
            )
            # Stored vectors follow their ids.
            got_order = np.argsort(index.list_ids[part])
            np.testing.assert_array_equal(
                index.list_vectors[part][got_order],
                patched[np.sort(index.list_ids[part]) - 1],
            )
        assert index.num_vectors == len(ids)

    def test_search_serves_updated_vectors(self, vectors, ids):
        index = self._index(vectors, ids)
        # Move item 42 onto a far-away direction; a query along that
        # direction must now retrieve it.
        spike = np.zeros(vectors.shape[1], dtype=np.float32)
        spike[0] = 50.0
        index.update(spike[None, :], np.array([42]))
        got = index.search(spike[None, :], nprobe=8, count=5)
        assert 42 in got[0]

    def test_counters_and_staleness(self, vectors, ids):
        index = self._index(vectors, ids)
        assert index.staleness == 0.0
        index.update(vectors[:10], ids[:10])
        index.update(vectors[10:15], ids[10:15])
        assert index.updates == 2
        assert index.updates_since_build == 15
        assert index.staleness == pytest.approx(15 / len(ids))

    def test_duplicate_ids_last_write_wins(self, vectors, ids):
        index = self._index(vectors, ids)
        a = np.zeros(vectors.shape[1], dtype=np.float32)
        b = np.full(vectors.shape[1], 9.0, dtype=np.float32)
        count = index.update(
            np.stack([a, b]), np.array([7, 7], dtype=np.int64)
        )
        assert count == 1
        assert index.num_vectors == len(ids)
        where = [7 in part for part in index.list_ids].index(True)
        row = index.list_vectors[where][
            np.flatnonzero(index.list_ids[where] == 7)[0]
        ]
        np.testing.assert_array_equal(row, b)

    def test_unseen_ids_are_inserted(self, vectors, ids):
        index = self._index(vectors, ids)
        new = np.arange(
            len(ids) + 1, len(ids) + 4, dtype=np.int64
        )
        index.update(vectors[:3] * 0.5, new)
        assert index.num_vectors == len(ids) + 3
        stored = np.concatenate(index.list_ids)
        assert np.isin(new, stored).all()

    def test_int8_updates_reuse_existing_quantizer(self, vectors, ids):
        index = self._index(vectors, ids, quantize="int8")
        q_min, q_step = index.quant
        # A vector far outside the trained range must clip, not crash —
        # the staleness counter is what bounds this kind of drift.
        wild = (q_min + 300.0 * q_step * 255)[None, :]
        index.update(wild.astype(np.float32), np.array([3]))
        np.testing.assert_array_equal(index.quant[0], q_min)
        np.testing.assert_array_equal(index.quant[1], q_step)
        where = [3 in part for part in index.list_ids].index(True)
        row = index.list_vectors[where][
            np.flatnonzero(index.list_ids[where] == 3)[0]
        ]
        assert row.dtype == np.uint8
        assert (row == 255).all()

    def test_validation_and_empty_update(self, vectors, ids):
        index = self._index(vectors, ids)
        assert index.update(
            np.empty((0, vectors.shape[1]), dtype=np.float32),
            np.empty(0, dtype=np.int64),
        ) == 0
        assert index.updates == 0
        with pytest.raises(ValueError, match="2-D"):
            index.update(vectors[0], np.array([1]))
        with pytest.raises(ValueError, match="ids shape"):
            index.update(vectors[:2], np.array([1]))
        with pytest.raises(ValueError, match="dim"):
            index.update(
                np.zeros((1, 3), dtype=np.float32), np.array([1])
            )


class TestSearch:
    def test_exhaustive_probe_matches_brute_force(self, vectors, ids, rng):
        index = IVFIndex.build(vectors, ids, IndexConfig(nlist=8))
        queries = rng.standard_normal((6, vectors.shape[1])).astype(
            np.float32
        )
        got = index.search(queries, nprobe=8, count=25)
        exact = queries @ vectors.T
        want = top_k_partition(exact, 25)
        for row_got, row_want in zip(got, want):
            assert set(row_got.tolist()) == set((row_want + 1).tolist())

    def test_partial_probe_returns_subset_of_catalog(
        self, vectors, ids, rng
    ):
        index = IVFIndex.build(vectors, ids, IndexConfig(nlist=8))
        queries = rng.standard_normal((4, vectors.shape[1])).astype(
            np.float32
        )
        got = index.search(queries, nprobe=2, count=50)
        assert got.shape == (4, 50)
        real = got[got >= 0]
        assert np.isin(real, ids).all()

    def test_pads_with_minus_one_when_lists_too_small(self):
        rng = make_rng(0)
        vectors = rng.standard_normal((20, 4)).astype(np.float32)
        ids = np.arange(1, 21, dtype=np.int64)
        index = IVFIndex.build(vectors, ids, IndexConfig(nlist=5))
        out = index.search(vectors[:2], nprobe=1, count=15)
        assert (out == -1).any()
        for row in out:
            real = row[row >= 0]
            assert len(np.unique(real)) == len(real)

    def test_search_counters(self, vectors, ids, rng):
        index = IVFIndex.build(vectors, ids, IndexConfig(nlist=8))
        queries = rng.standard_normal((3, vectors.shape[1])).astype(
            np.float32
        )
        index.search(queries, nprobe=2, count=10)
        assert index.searches == 3
        assert index.scanned > 0

    def test_int8_search_still_finds_neighbors(self, vectors, ids):
        # int8 candidates must cover the exact top-10 well: quantization
        # noise can reorder near-ties inside a blob but not push a true
        # neighbor out of a 50-candidate set.
        f32 = IVFIndex.build(vectors, ids, IndexConfig(nlist=8))
        i8 = IVFIndex.build(
            vectors, ids, IndexConfig(nlist=8, quantize="int8")
        )
        assert f32.quant is None and i8.quant is not None
        queries = vectors[:10]
        got = i8.search(queries, nprobe=8, count=50)
        exact_top = top_k_partition(queries @ vectors.T, 10) + 1
        hits = sum(
            int(np.isin(want, row).sum())
            for want, row in zip(exact_top, got)
        )
        assert hits / exact_top.size >= 0.9

    def test_rejects_non_2d_queries(self, vectors, ids):
        index = IVFIndex.build(vectors, ids, IndexConfig(nlist=4))
        with pytest.raises(ValueError, match="2-D"):
            index.search(vectors[0])
