"""The flat BSP executor: one stacked SpMV per operator, batched halo accounting.

Untraced workspace products run as one :class:`StackedSpMVPlan` kernel over
the vectors' rank-ordered buffers; traced (or fault-injected) products run
rank by rank, message by message.  These tests pin the contract between the
two: bitwise-equal products, identical tracker snapshots and halo counters,
and identical PCG runs.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import build_fsai, pcg
from repro.dist import DistMatrix, DistVector, RowPartition
from repro.errors import ShapeError
from repro.instrument import NULL_TRACER, MetricsRegistry, tracing
from repro.kernels import SolverWorkspace
from repro.kernels.plan import ELL_MAX_WIDTH, SpMVPlan, StackedSpMVPlan
from repro.matgen import poisson2d
from repro.mpisim import CommTracker
from repro.sparse import CSRMatrix

SETTINGS = settings(max_examples=20, deadline=None)


def _random_spd(rng, n_main: int, n_iso: int, density: float, n_wide: int) -> CSRMatrix:
    """Symmetric diagonally dominant matrix: a random sparse block with
    ``n_wide`` rows wider than the ELL limit, plus ``n_iso`` rows coupled to
    nothing (a rank owning only those has no halo)."""
    n = n_main + n_iso
    dense = np.zeros((n, n))
    block = np.where(rng.random((n_main, n_main)) < density,
                     rng.standard_normal((n_main, n_main)), 0.0)
    dense[:n_main, :n_main] = block + block.T
    width = min(n_main - 1, ELL_MAX_WIDTH + 4)
    for r in rng.choice(n_main, size=min(n_wide, n_main), replace=False):
        cols = rng.choice(n_main, size=width, replace=False)
        vals = rng.standard_normal(width)
        dense[r, cols] = vals
        dense[cols, r] = vals
    np.fill_diagonal(dense, 0.0)
    np.fill_diagonal(dense, np.abs(dense).sum(axis=1) + 1.0 + rng.random(n))
    return CSRMatrix.from_dense(dense, tol=0.0)


def _owner(rng, n_main: int, n_iso: int, nparts: int) -> np.ndarray:
    """Random row owners; the isolated rows (if any) form the last rank."""
    main_parts = nparts - 1 if n_iso else nparts
    owner = np.concatenate([np.arange(main_parts),
                            rng.integers(0, main_parts, n_main - main_parts)])
    owner = np.concatenate([rng.permutation(owner), np.full(n_iso, nparts - 1)])
    return owner.astype(np.int64)


def _products(dmat: DistMatrix, x: DistVector, traced: bool):
    """One workspace product: output bytes, tracker snapshot, halo counters."""
    tracker = CommTracker()
    tracer = None if traced else NULL_TRACER
    with tracing(tracer, MetricsRegistry()) as (_, metrics):
        y = SolverWorkspace(dmat).spmv(dmat, x, tracker=tracker)
        counters = {
            (name, c.tags["rank"]): c.value
            for name in ("halo.bytes_sent", "halo.msgs")
            for c in metrics.find(name)
        }
    return y.data.tobytes(), tracker.snapshot(), counters


def _per_rank_products(dmat: DistMatrix, x: DistVector) -> bytes:
    """The reference: each rank's block through its own SpMVPlan."""
    xg = x.to_global()
    return b"".join(
        SpMVPlan(lm.csr).spmv(np.concatenate([x.parts[p], xg[lm.ext_cols]])).tobytes()
        for p, lm in enumerate(dmat.locals)
    )


def _assert_paths_agree(dmat: DistMatrix, x: DistVector) -> None:
    flat = _products(dmat, x, traced=False)
    per_message = _products(dmat, x, traced=True)
    assert flat[0] == per_message[0] == _per_rank_products(dmat, x)
    assert flat[1] == per_message[1]
    assert flat[2] == per_message[2]


class TestStackedMatchesPerMessage:
    @SETTINGS
    @given(
        n_main=st.integers(10, 40),
        n_iso=st.integers(0, 3),
        nparts=st.integers(2, 6),
        density=st.floats(0.05, 0.3),
        n_wide=st.integers(0, 4),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_a_g_gt_bitwise_equal(self, n_main, n_iso, nparts, density, n_wide, seed):
        rng = np.random.default_rng(seed)
        mat = _random_spd(rng, n_main, n_iso, density, n_wide)
        part = RowPartition(_owner(rng, n_main, n_iso, nparts), nparts)
        dmat = DistMatrix.from_global(mat, part)
        pre = build_fsai(mat, part)
        x = DistVector.from_global(rng.standard_normal(mat.nrows), part)
        for op in (dmat, pre.g, pre.gt):
            _assert_paths_agree(op, x)
        if n_iso:
            assert dmat.locals[-1].n_halo == 0

    @SETTINGS
    @given(
        n=st.integers(4, 30),
        nparts=st.integers(1, 6),
        density=st.floats(0.0, 0.5),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_empty_rows_and_empty_ranks(self, n, nparts, density, seed):
        rng = np.random.default_rng(seed)
        nparts = min(nparts, n)
        owner = rng.permutation(np.concatenate(
            [np.arange(nparts), rng.integers(0, nparts, n - nparts)]))
        dense = np.where(rng.random((n, n)) < density, rng.standard_normal((n, n)), 0.0)
        # one rank's rows store nothing at all; some other rows are wide
        dense[owner == rng.integers(nparts)] = 0.0
        wide = rng.integers(n)
        dense[wide, rng.choice(n, size=min(n, ELL_MAX_WIDTH + 2), replace=False)] = 1.5
        mat = CSRMatrix.from_dense(dense, tol=0.0)
        part = RowPartition(owner, nparts)
        dmat = DistMatrix.from_global(mat, part)
        x = DistVector.from_global(rng.standard_normal(n), part)
        _assert_paths_agree(dmat, x)

    def test_mixed_kernels_are_kept_per_rank(self):
        rng = np.random.default_rng(5)
        mat = _random_spd(rng, 30, 2, 0.08, 3)
        part = RowPartition(_owner(rng, 30, 2, 4), 4)
        dmat = DistMatrix.from_global(mat, part)
        plan = dmat.stacked_plan()
        per_rank_ell = [SpMVPlan(lm.csr)._ell_idx is not None for lm in dmat.locals]
        assert plan.ell_blocks == sum(per_rank_ell)
        assert 0 < plan.ell_blocks < plan.nblocks
        x = DistVector.from_global(rng.standard_normal(mat.nrows), part)
        _assert_paths_agree(dmat, x)

    @SETTINGS
    @given(nparts=st.integers(2, 5), seed=st.integers(0, 2**31 - 1))
    def test_pcg_same_history_traced_and_untraced(self, nparts, seed):
        rng = np.random.default_rng(seed)
        mat = _random_spd(rng, 36, 2, 0.1, 2)
        part = RowPartition(_owner(rng, 36, 2, nparts), nparts)
        dmat = DistMatrix.from_global(mat, part)
        pre = build_fsai(mat, part)
        b = DistVector.from_global(rng.standard_normal(mat.nrows), part)
        flat = pcg(dmat, b, precond=pre, rtol=1e-10)
        with tracing():
            traced = pcg(dmat, b, precond=pre, rtol=1e-10)
        assert flat.iterations == traced.iterations
        assert flat.residual_norms == traced.residual_norms
        assert flat.x.data.tobytes() == traced.x.data.tobytes()


class TestStackedPlan:
    def test_matches_per_rank_plans(self, dist_poisson16, rng):
        _, part, dmat, _ = dist_poisson16
        x = DistVector.from_global(rng.standard_normal(part.nrows), part)
        for halo_tail in (False, True):
            plan = dmat.stacked_plan(halo_tail=halo_tail)
            xin = x.data
            if halo_tail:
                xg = x.to_global()
                xin = np.concatenate([x.data] + [xg[lm.ext_cols] for lm in dmat.locals])
            assert plan.spmv(xin).tobytes() == _per_rank_products(dmat, x)

    def test_out_may_alias_x(self, rng):
        mat = _random_spd(rng, 30, 2, 0.08, 3)
        part = RowPartition(_owner(rng, 30, 2, 4), 4)
        plan = DistMatrix.from_global(mat, part).stacked_plan()
        x = rng.standard_normal(mat.nrows)
        expected = plan.spmv(x)
        assert np.array_equal(plan.spmv(x, out=x), expected)

    def test_cached_on_matrix(self, dist_poisson16):
        _, _, dmat, _ = dist_poisson16
        with tracing(NULL_TRACER, MetricsRegistry()) as (_, metrics):
            assert dmat.stacked_plan() is dmat.stacked_plan()
            assert metrics.value("kernels.plan_cache.misses") == 1
            assert metrics.value("kernels.plan_cache.hits") == 1

    def test_concurrent_application(self, dist_poisson16, rng):
        _, part, dmat, _ = dist_poisson16
        plan = dmat.stacked_plan()
        xs = [rng.standard_normal(part.nrows) for _ in range(6)]
        expected = [plan.spmv(x) for x in xs]
        results = [None] * len(xs)

        def run(i):
            out = np.empty(part.nrows)
            for _ in range(50):
                plan.spmv(xs[i], out=out)
            results[i] = out

        threads = [threading.Thread(target=run, args=(i,)) for i in range(len(xs))]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for got, want in zip(results, expected):
            assert np.array_equal(got, want)

    def test_rejects_out_of_range_column_map(self):
        blk = CSRMatrix.identity(3)
        with pytest.raises(ShapeError):
            StackedSpMVPlan([blk], [np.array([0, 1, 5])], 3)


class TestFlatVectors:
    def test_parts_view_one_buffer(self, dist_poisson16):
        _, part, _, b = dist_poisson16
        for p, view in enumerate(b.parts):
            assert np.shares_memory(view, b.data)
            assert np.array_equal(view, b.data[part.offsets[p]:part.offsets[p + 1]])
        assert np.array_equal(b.copy().to_global(), b.to_global())

    def test_constructor_copies_into_buffer(self, rng):
        part = RowPartition.contiguous(10, 3)
        arrays = [rng.standard_normal(part.size_of(p)) for p in range(3)]
        vec = DistVector(part, arrays)
        assert all(np.shares_memory(v, vec.data) for v in vec.parts)
        assert np.array_equal(np.concatenate(arrays), vec.data)

    def test_replaced_part_is_rejected(self):
        part = RowPartition.contiguous(10, 3)
        vec = DistVector.zeros(part)
        vec.parts[1] = np.ones(part.size_of(1))
        with pytest.raises(ShapeError, match="parts\\[1\\]"):
            vec.axpy(1.0, DistVector.zeros(part))

    def test_workspace_rejects_replaced_part(self, dist_poisson16):
        _, part, dmat, b = dist_poisson16
        x = b.copy()
        x.parts[2] = x.parts[2].copy()
        with pytest.raises(ValueError, match="no longer views"):
            SolverWorkspace(dmat).spmv(dmat, x)

    def test_dot_sums_rank_partials_in_order(self, dist_poisson16, rng):
        _, part, _, _ = dist_poisson16
        x = DistVector.from_global(rng.standard_normal(part.nrows), part)
        y = DistVector.from_global(rng.standard_normal(part.nrows), part)
        expected = 0.0
        for a, c in zip(x.parts, y.parts):
            expected += float(np.dot(a.copy(), c.copy()))
        assert x.dot(y) == expected


class TestDoNotMutate:
    def test_local_blocks_and_schedule_are_read_only(self):
        mat = poisson2d(8)
        part = RowPartition.contiguous(mat.nrows, 3)
        dmat = DistMatrix.from_global(mat, part)
        lm = dmat.locals[1]
        for arr in (lm.csr.indptr, lm.csr.indices, lm.csr.data):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = arr[0]
        sched = dmat.schedule
        with pytest.raises(ValueError, match="read-only"):
            sched.ext_cols[1][0] = 0
        for table in (sched.recv_from, sched.send_to, sched.recv_pos, sched.recv_src):
            ids = next(iter(table[1].values()))
            with pytest.raises(ValueError, match="read-only"):
                ids[0] = 0
        with pytest.raises(ValueError, match="read-only"):
            lm.csr.data *= 2.0
        # the global matrix the blocks were cut from stays writable
        mat.data[0] = mat.data[0]
