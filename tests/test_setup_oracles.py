"""The setup path against its loop-based oracles (``setup_oracles.py``).

Partitioner kernels must return the same labels and leave the random
generator in the same state; pattern algebra, ``diagonal``,
``extension_entry_mask`` and ``DistMatrix.from_global`` must match byte for
byte, dtypes included.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import setup_oracles as oracle
from repro.core.filtering import extension_entry_mask
from repro.dist import DistMatrix, RowPartition
from repro.errors import PartitionError, SparseFormatError
from repro.partition import coarsen, multilevel
from repro.partition.coarsen import contract, heavy_edge_matching
from repro.partition.graph import Graph
from repro.partition.multilevel import _greedy_grow_bisection, partition_graph
from repro.partition.refine import fm_refine
from repro.sparse import CSRMatrix, SparsityPattern

SETTINGS = settings(max_examples=40, deadline=None)


# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
@st.composite
def graphs(draw, min_n=2, max_n=90):
    """Random weighted graphs; ``components > 1`` keeps edges inside
    contiguous vertex blocks, so the graph is disconnected."""
    n = draw(st.integers(min_n, max_n))
    components = draw(st.integers(1, 4))
    degree = draw(st.floats(0.0, 6.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = int(degree * n / 2)
    u, v = rng.integers(n, size=m), rng.integers(n, size=m)
    block = np.arange(n) * components // n
    keep = (u != v) & (block[u] == block[v])
    lo, hi = np.minimum(u, v)[keep], np.maximum(u, v)[keep]
    pairs = np.unique(lo * n + hi)
    lo, hi = pairs // n, pairs % n
    w = rng.integers(1, draw(st.integers(1, 6)) + 1, size=pairs.size)
    rows, cols, wts = np.r_[lo, hi], np.r_[hi, lo], np.r_[w, w]
    order = np.lexsort((cols, rows))
    xadj = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=xadj[1:])
    vwgt = rng.integers(1, draw(st.integers(1, 4)) + 1, size=n)
    return Graph(xadj, cols[order], wts[order], vwgt)


@st.composite
def patterns(draw, nrows=None, ncols=None, max_dim=10):
    nrows = draw(st.integers(0, max_dim)) if nrows is None else nrows
    ncols = draw(st.integers(0, max_dim)) if ncols is None else ncols
    density = draw(st.sampled_from([0.0, 0.15, 0.4, 0.8, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mask = rng.random((nrows, ncols)) < density
    rows, cols = np.nonzero(mask)
    indptr = np.zeros(nrows + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=nrows), out=indptr[1:])
    return SparsityPattern((nrows, ncols), indptr, cols)


@st.composite
def matrices(draw, square=False, max_dim=12):
    """Random CSR matrices; rows may be empty, diagonals may be missing."""
    if square:
        n = draw(st.integers(1, max_dim))
        pat = draw(patterns(n, n))
    else:
        pat = draw(patterns(max_dim=max_dim))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return pat.to_csr(rng.standard_normal(pat.nnz))


def _same_bytes(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _same_pattern(a: SparsityPattern, b: SparsityPattern) -> bool:
    return (a.shape == b.shape and _same_bytes(a.indptr, b.indptr)
            and _same_bytes(a.indices, b.indices))


def _same_rng_state(a: np.random.Generator, b: np.random.Generator) -> bool:
    return a.bit_generator.state == b.bit_generator.state


# ----------------------------------------------------------------------
# partitioner
# ----------------------------------------------------------------------
class TestPartitionerOracles:
    @SETTINGS
    @given(graphs(), st.integers(0, 2**32 - 1), st.integers(0, 100),
           st.sampled_from([1.0, 1.03, 1.05, 1.3]), st.integers(1, 5))
    def test_fm_refine(self, g, seed, split_pct, max_imbalance, passes):
        part = np.random.default_rng(seed).integers(0, 2, size=g.num_vertices)
        total = g.total_vertex_weight()
        t0 = total * split_pct // 100
        kwargs = dict(target=(t0, total - t0), max_imbalance=max_imbalance,
                      max_passes=passes)
        assert _same_bytes(fm_refine(g, part, **kwargs), oracle.fm_refine(g, part, **kwargs))
        assert _same_bytes(fm_refine(g, part), oracle.fm_refine(g, part))

    @SETTINGS
    @given(graphs(), st.integers(0, 2**32 - 1))
    def test_heavy_edge_matching_and_contract(self, g, seed):
        rng_new, rng_old = np.random.default_rng(seed), np.random.default_rng(seed)
        match = heavy_edge_matching(g, rng_new)
        assert _same_bytes(match, oracle.heavy_edge_matching(g, rng_old))
        assert _same_rng_state(rng_new, rng_old)
        coarse, cmap = contract(g, match)
        ref, ref_cmap = oracle.contract(g, match)
        assert _same_bytes(cmap, ref_cmap)
        for name in ("xadj", "adjncy", "adjwgt", "vwgt"):
            assert _same_bytes(getattr(coarse, name), getattr(ref, name)), name

    @SETTINGS
    @given(graphs(min_n=1), st.integers(0, 2**32 - 1), st.integers(1, 99),
           st.integers(1, 5))
    def test_greedy_grow_bisection(self, g, seed, split_pct, trials):
        target0 = max(1, g.total_vertex_weight() * split_pct // 100)
        rng_new, rng_old = np.random.default_rng(seed), np.random.default_rng(seed)
        got = _greedy_grow_bisection(g, target0, rng_new, trials=trials)
        assert _same_bytes(got, oracle.greedy_grow_bisection(g, target0, rng_old, trials))
        assert _same_rng_state(rng_new, rng_old)

    @settings(max_examples=25, deadline=None)
    @given(graphs(min_n=8, max_n=260), st.sampled_from([2, 3, 5, 6, 7, 12]),
           st.integers(0, 2**16))
    def test_partition_graph(self, g, nparts, seed):
        nparts = min(nparts, g.num_vertices)

        def outcome():
            try:
                return partition_graph(g, nparts, seed=seed)
            except PartitionError as exc:  # both sides must fail the same way
                return str(exc)

        got = outcome()
        with mock.patch.object(multilevel, "fm_refine", oracle.fm_refine), \
                mock.patch.object(multilevel, "_greedy_grow_bisection",
                                  oracle.greedy_grow_bisection), \
                mock.patch.object(coarsen, "heavy_edge_matching",
                                  oracle.heavy_edge_matching), \
                mock.patch.object(coarsen, "contract", oracle.contract):
            ref = outcome()
        if isinstance(ref, str):
            assert got == ref
        else:
            assert _same_bytes(got, ref)


# ----------------------------------------------------------------------
# pattern algebra
# ----------------------------------------------------------------------
pattern_pairs = st.tuples(st.integers(0, 10), st.integers(0, 10)).flatmap(
    lambda s: st.tuples(patterns(*s), patterns(*s))
)


class TestPatternOracles:
    @SETTINGS
    @given(pattern_pairs)
    def test_set_operations(self, pair):
        a, b = pair
        assert _same_pattern(a.union(b), oracle.union(a, b))
        assert _same_pattern(a.intersection(b), oracle.intersection(a, b))
        assert _same_pattern(a.difference(b), oracle.difference(a, b))
        assert a.issubset(b) == oracle.issubset(a, b)
        sub = a.intersection(b)
        assert sub.issubset(a) and sub.issubset(b)
        assert a.issubset(a.union(b))

    @SETTINGS
    @given(patterns(), patterns())
    def test_issubset_shape_mismatch(self, a, b):
        assert a.issubset(b) == oracle.issubset(a, b)

    @SETTINGS
    @given(patterns())
    def test_with_diagonal(self, p):
        n = min(p.shape)
        eye = SparsityPattern.from_rows(p.shape, [[i] if i < n else [] for i in range(p.nrows)])
        assert _same_pattern(p.with_diagonal(), oracle.union(p, eye))

    @SETTINGS
    @given(st.integers(1, 8), st.integers(1, 8), st.integers(0, 2**32 - 1))
    def test_validation_reports_first_unsorted_row(self, nrows, ncols, seed):
        rng = np.random.default_rng(seed)
        counts = rng.integers(0, 4, size=nrows)
        indptr = np.r_[0, np.cumsum(counts)]
        indices = rng.integers(0, ncols, size=int(indptr[-1]))
        bad = oracle.first_unsorted_row(
            SparsityPattern((nrows, ncols), indptr, indices, check=False))
        if bad is None:
            SparsityPattern((nrows, ncols), indptr, indices)
            CSRMatrix((nrows, ncols), indptr, indices, np.ones(indices.size))
        else:
            with pytest.raises(SparseFormatError, match=f"row {bad} not"):
                SparsityPattern((nrows, ncols), indptr, indices)
            with pytest.raises(SparseFormatError, match="strictly increasing"):
                CSRMatrix((nrows, ncols), indptr, indices, np.ones(indices.size))

    @SETTINGS
    @given(matrices())
    def test_diagonal(self, mat):
        assert _same_bytes(mat.diagonal(), oracle.diagonal(mat))

    @SETTINGS
    @given(matrices(square=True), st.integers(0, 2**32 - 1))
    def test_extension_entry_mask(self, g, seed):
        rng = np.random.default_rng(seed)
        base = SparsityPattern.from_csr(g).intersection(
            SparsityPattern.from_csr(g.drop_entries(rng.random(g.nnz) < 0.5)))
        extra = SparsityPattern.from_rows(
            g.shape, [rng.choice(g.ncols, size=min(2, g.ncols), replace=False)
                      for _ in range(g.nrows)])
        for b in (base, base.union(extra), SparsityPattern.empty(g.shape)):
            assert _same_bytes(extension_entry_mask(g, b), oracle.extension_entry_mask(g, b))


# ----------------------------------------------------------------------
# row distribution
# ----------------------------------------------------------------------
@st.composite
def distributed(draw):
    """A square matrix (empty rows allowed) and a partition of its rows.
    ``block`` keeps entries inside each rank's contiguous rows, so no rank
    has a halo."""
    mat = draw(matrices(square=True, max_dim=30))
    n = mat.nrows
    nparts = draw(st.integers(1, min(n, 6)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        owner = np.arange(n) * nparts // n
        keep = owner[np.repeat(np.arange(n), mat.row_nnz())] == owner[mat.indices]
        mat = mat.drop_entries(~keep)
    else:
        owner = np.r_[np.arange(nparts), rng.integers(0, nparts, size=n - nparts)]
        rng.shuffle(owner)
    return mat, RowPartition(owner, nparts)


class TestDistributionOracles:
    @SETTINGS
    @given(distributed())
    def test_from_global_is_bytewise_identical(self, case):
        mat, part = case
        got, ref = DistMatrix.from_global(mat, part), oracle.from_global(mat, part)
        assert got.shape == ref.shape
        for a, b in zip(got.schedule.ext_cols, ref.schedule.ext_cols):
            assert _same_bytes(a, b)
        for la, lb in zip(got.locals, ref.locals):
            assert la.rank == lb.rank and la.csr.shape == lb.csr.shape
            for name in ("global_rows", "ext_cols"):
                assert _same_bytes(getattr(la, name), getattr(lb, name))
            for name in ("indptr", "indices", "data"):
                assert _same_bytes(getattr(la.csr, name), getattr(lb.csr, name)), name

    def test_ranks_without_halo(self):
        mat = CSRMatrix.from_dense(np.diag([1.0, 0.0, 3.0, 4.0]))
        part = RowPartition(np.array([0, 0, 1, 1]), 2)
        got = DistMatrix.from_global(mat, part)
        assert [lm.n_halo for lm in got.locals] == [0, 0]
        assert got.locals[0].csr.row_nnz().tolist() == [1, 0]
        assert _same_bytes(got.locals[1].csr.data, oracle.from_global(mat, part).locals[1].csr.data)
