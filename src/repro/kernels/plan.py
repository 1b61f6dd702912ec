"""Precomputed SpMV kernel plans — allocation-free matrix-vector products.

The paper's premise is that preconditioner application is bound by memory
traffic, not flops — yet the plain :meth:`CSRMatrix.spmv` pays Python-side
overhead on every call: it re-derives the nonempty-row mask, allocates the
gathered-product scratch array, and (for the transpose product) falls back to
``np.add.at`` scatter-adds, the slowest reduction NumPy offers.

A plan hoists all of that out of the iteration loop.  The kernel lives in
:class:`StackedSpMVPlan`, which applies a stack of CSR row blocks sharing
one input vector (a row-distributed operator over its rank-ordered flat
vector — see :meth:`repro.dist.DistMatrix.stacked_plan`).  At construction
it computes, once:

* each block's kernel choice (:func:`ell_fits`): for narrow-row blocks
  (every row at most :data:`ELL_MAX_WIDTH` entries and modest padding
  overhead — the common case for stencil operators and FSAI factors), a
  zero-padded ELLPACK layout stored slot-major, so the per-row reduction is
  a handful of long contiguous vector adds instead of ``reduceat``'s
  per-segment dispatch; otherwise the ``add.reduceat`` segment starts over
  the nonempty rows,
* the scratch-buffer sizes — the buffers themselves are materialised
  lazily, once per applying thread.

:class:`SpMVPlan` is the one-matrix plan: a single-block stacked plan for
``A·x``, and one over a CSC view of the matrix (permuted values, source-row
gather indices) so ``Aᵀx`` runs the same gather + reduce kernel instead of
``np.add.at``.

After construction, ``spmv`` / ``spmv_t`` perform **zero array
allocations** when an ``out=`` vector is supplied: the gather runs through
``np.take(..., out=...)``, the multiply through ``np.multiply(..., out=...)``
and the reduction through ``np.add.reduceat(..., out=...)`` or in-place
vector adds over the ELL slots.

Numerics: the reduceat path reduces each row with the exact routine
``CSRMatrix.spmv`` uses, so it is bitwise-identical to the unplanned kernel.
The ELL path accumulates each row strictly left to right (a deterministic,
documented order), which matches ``reduceat``'s internal pairwise order only
to rounding — expect 1-ulp-level differences from the unplanned kernel on
narrow matrices.  The ELL padding multiplies ``0.0`` against the block's
column 0, so it assumes finite input vectors (as every iterative solver
here does).

Plans snapshot the matrix structure and values at construction; the matrix
must not be mutated afterwards (:class:`~repro.dist.DistMatrix` makes its
blocks read-only).  Scratch buffers are **thread-local**: a plan may be
applied concurrently from many threads (the solve farm runs concurrent
solves through the plans cached on a shared :class:`~repro.dist.DistMatrix`),
each thread lazily allocating its own scratch on first use and running
allocation-free thereafter.  The ``calls``/``calls_t`` counters are plain
integers and may undercount under concurrency — they are instrumentation,
not accounting.

Plans are backend-aware: pass ``backend=`` (a name or
:class:`repro.backend.ArrayBackend`) and every kernel array — gather
indices, value snapshots, scratch buffers — lives in that backend's
namespace, with the products running entirely through ``backend.xp``.
The default NumPy backend is bitwise-identical to the historical behaviour.
Backends without ``ufunc.reduceat`` (CuPy) require the ELLPACK layout; a
wide-row matrix on such a backend raises
:class:`~repro.errors.BackendError` at construction (see
``docs/BACKENDS.md``).
"""

from __future__ import annotations

import threading

import numpy as np

from repro.backend import ArrayBackend, get_backend
from repro.errors import BackendError, ShapeError
from repro.sparse.csr import CSRMatrix

__all__ = ["SpMVPlan", "StackedSpMVPlan", "ELL_MAX_WIDTH", "ell_fits"]

# Rows wider than this keep the reduceat path; 8 keeps the slot loop short
# and covers every stencil/FSAI operator in the evaluation suite.
ELL_MAX_WIDTH = 8
# Padded size must stay within this factor of nnz, or ELL wastes bandwidth.
_ELL_PAD_FACTOR = 1.5


def ell_fits(widths: np.ndarray, nnz: int) -> bool:
    """Whether rows of these ``widths`` (``nnz`` entries in all) take ELLPACK.

    The one kernel-choice rule: every row at most :data:`ELL_MAX_WIDTH`
    wide and the padded size within ``_ELL_PAD_FACTOR`` of ``nnz``.
    :class:`StackedSpMVPlan` applies it per block, so a block picks the same
    kernel stacked with others as in a plan of its own.
    """
    if widths.size == 0 or nnz == 0:
        return False
    w = int(widths.max())
    return 0 < w <= ELL_MAX_WIDTH and widths.size * w <= _ELL_PAD_FACTOR * nnz


def _ell_layout(widths, indices, data, width: int, pad):
    """Slot-major ELLPACK arrays ``(width, n)`` from row-major CSR triples.

    Slot ``j`` holds the ``j``-th stored entry of every row, so the row
    reduction is ``width`` contiguous vector adds.  Padding slots multiply
    ``0.0`` against ``x[pad]`` (one index per row).
    """
    n = widths.size
    mask = np.arange(width) < widths[:, None]  # (n, width), row-major like CSR data
    idx = np.empty((n, width), dtype=np.int64)
    idx[...] = pad[:, None]
    vals = np.zeros((n, width), dtype=np.float64)
    idx[mask] = indices
    vals[mask] = data
    # slot-major: each slot is one contiguous length-n vector
    return np.ascontiguousarray(idx.T), np.ascontiguousarray(vals.T)


def _ell_apply(xp, x, idx, vals, scratch, out):
    """``out[i] = Σ_j vals[j, i] * x[idx[j, i]]``, left-to-right in ``j``."""
    if xp is np:
        # indices are validated at construction; clip skips the bounds check
        np.take(x, idx, out=scratch, mode="clip")
    else:
        xp.take(x, idx, out=scratch)  # cupy.take has no mode= kwarg
    xp.multiply(scratch, vals, out=scratch)
    if scratch.shape[0] == 1:
        xp.copyto(out, scratch[0])
        return out
    xp.add(scratch[0], scratch[1], out=out)
    for j in range(2, scratch.shape[0]):
        out += scratch[j]
    return out


def _check_out(out, n: int, label: str, backend: ArrayBackend) -> None:
    """Validate a user-supplied output vector (backend, shape and dtype)."""
    if not backend.is_native(out):
        raise TypeError(
            f"{label} must be a {backend.name} array, got {type(out).__name__}"
        )
    if out.dtype != np.float64:
        raise TypeError(f"{label} must have dtype float64, got {out.dtype}")
    if out.shape != (n,):
        raise ShapeError(f"{label} has shape {out.shape}, expected ({n},)")


class _Scratch:
    """One thread's scratch buffers for one stacked plan."""

    __slots__ = ("ell_x", "ell_out", "prod", "seg")

    def __init__(self, xp, spec):
        ell_shape, ell_out_size, prod_size, seg_size = spec
        self.ell_x = xp.empty(ell_shape, dtype=np.float64) if ell_shape else None
        self.ell_out = xp.empty(ell_out_size, dtype=np.float64) if ell_out_size else None
        self.prod = xp.empty(prod_size, dtype=np.float64) if prod_size else None
        self.seg = xp.empty(seg_size, dtype=np.float64) if seg_size else None


class StackedSpMVPlan:
    """One SpMV over a stack of row blocks sharing one input vector.

    The distributed product ``y = A·x`` of a row-distributed operator is a
    stack of per-rank products ``y_p = A_p·[x_local | x_halo]``.  Given each
    block's column map (local column → position in one flat input vector),
    this plan remaps the block's column indices once, so the whole stack is
    one gather-multiply-reduce over the flat vector: the halo gather becomes
    part of the SpMV gather, and there is no loop over blocks or messages.

    Each block keeps its own kernel choice (:func:`ell_fits`), so a stack
    is bitwise equal to planning each block alone (a one-block stack is
    exactly :class:`SpMVPlan`'s kernel).  Rows of ELL blocks go through one
    :func:`_ell_apply` over a slot-major layout as wide as the widest of
    them; a narrower block's extra slots are padding that multiplies
    ``0.0`` against the entry every block pads with (its column 0), so
    each row adds the products and signed zeros it adds alone, in the same
    order.  Rows of reduceat blocks go through one ``add.reduceat`` with
    the same segments.  With both kinds present, each reduces into scratch
    and is scattered to its rows.

    The plan references the blocks' arrays (do not mutate them), keeps its
    scratch per thread, and :meth:`spmv` performs zero array allocations
    when ``out`` is given; ``out`` may alias ``x``.

    Parameters
    ----------
    blocks:
        Row blocks (CSR), stacked in order.
    col_maps:
        ``col_maps[k][c]`` — position in the flat input vector of block
        ``k``'s column ``c``.
    ncols:
        Length of the flat input vector.
    backend:
        Array backend the kernels run on — a name accepted by
        :func:`repro.backend.get_backend` or an
        :class:`~repro.backend.ArrayBackend`; defaults to NumPy.

    Attributes
    ----------
    ell_blocks:
        How many blocks take the ELL kernel (the rest take reduceat).
    """

    __slots__ = (
        "nrows", "ncols", "nnz", "nblocks", "ell_blocks", "backend", "_xp",
        "_ell_idx", "_ell_vals", "_ell_rows",
        "_red_cols", "_red_data", "_red_starts", "_red_rows", "_zero_rows",
        "_scratch_spec", "_tls",
    )

    def __init__(
        self,
        blocks: list[CSRMatrix],
        col_maps: list[np.ndarray],
        ncols: int,
        backend: str | ArrayBackend | None = None,
    ):
        if len(blocks) != len(col_maps):
            raise ShapeError("need one column map per block")
        self.backend = get_backend(backend)
        self._xp = self.backend.xp
        dev = self.backend.asarray
        self.ncols = int(ncols)
        self.nblocks = len(blocks)
        ell: list[tuple] = []
        red: list[tuple] = []
        start = 0
        for k, (blk, cmap) in enumerate(zip(blocks, col_maps)):
            cmap = np.asarray(cmap, dtype=np.int64)
            if cmap.shape != (blk.ncols,):
                raise ShapeError(
                    f"block {k}: column map has shape {cmap.shape}, expected ({blk.ncols},)"
                )
            if cmap.size and (cmap.min() < 0 or cmap.max() >= self.ncols):
                raise ShapeError(f"block {k}: column map leaves [0, {self.ncols})")
            cols = cmap[blk.indices]
            rows = np.arange(start, start + blk.nrows, dtype=np.int64)
            widths = np.diff(blk.indptr)
            if ell_fits(widths, blk.nnz):
                ell.append((rows, widths, cols, blk.data, np.full(blk.nrows, cmap[0])))
            else:
                red.append((rows, widths, cols, blk.data))
            start += blk.nrows
        self.nrows = start
        self.nnz = sum(blk.nnz for blk in blocks)
        self.ell_blocks = len(ell)

        ell_shape = ell_out_size = prod_size = seg_size = None
        self._ell_idx = self._ell_vals = self._ell_rows = None
        if ell:
            rows, widths, cols, data, pad = (np.concatenate(a) for a in zip(*ell))
            idx, vals = _ell_layout(widths, cols, data, int(widths.max()), pad)
            self._ell_idx, self._ell_vals = dev(idx), dev(vals)
            ell_shape = idx.shape
            if red:  # the ELL rows are a subset: reduce aside, then scatter
                self._ell_rows = dev(rows)
                ell_out_size = rows.size

        self._red_cols = self._red_data = self._red_starts = None
        self._red_rows = self._zero_rows = None
        if red:
            rows, widths, cols, data = (np.concatenate(a) for a in zip(*red))
            nonempty = widths > 0
            if not nonempty.all():
                self._zero_rows = dev(rows[~nonempty])
            if cols.size:
                if not self.backend.supports_reduceat:
                    raise BackendError(
                        f"backend {self.backend.name!r} has no ufunc.reduceat; "
                        f"every block needs the ELLPACK layout (rows at most "
                        f"{ELL_MAX_WIDTH} wide with modest padding) — see "
                        "docs/BACKENDS.md"
                    )
                starts = np.concatenate([[0], np.cumsum(widths)[:-1]])
                self._red_cols, self._red_data = dev(cols), dev(data)
                self._red_starts = dev(np.ascontiguousarray(starts[nonempty]))
                prod_size = cols.size
                if ell or not nonempty.all():
                    self._red_rows = dev(rows[nonempty])
                    seg_size = int(nonempty.sum())

        self._scratch_spec = (ell_shape, ell_out_size, prod_size, seg_size)
        self._tls = threading.local()

    def _scratch(self) -> _Scratch:
        """This thread's scratch buffers, built on first use."""
        bufs = getattr(self._tls, "bufs", None)
        if bufs is None:
            bufs = self._tls.bufs = _Scratch(self._xp, self._scratch_spec)
        return bufs

    def spmv(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """``y = A @ x`` over the flat vectors; allocation-free when ``out`` is given.

        Every gather from ``x`` completes before ``out`` is written, so
        ``out`` may alias ``x``.
        """
        xp = self._xp
        if x.shape != (self.ncols,):
            raise ShapeError(f"x has shape {x.shape}, expected ({self.ncols},)")
        if out is None:
            out = xp.empty(self.nrows, dtype=np.float64)
        else:
            _check_out(out, self.nrows, "out", self.backend)
        scratch = self._scratch()
        if self._red_starts is not None:
            # column maps are validated at construction; clip skips the check
            xp.take(x, self._red_cols, out=scratch.prod, mode="clip")
            xp.multiply(scratch.prod, self._red_data, out=scratch.prod)
        if self._ell_idx is not None:
            if self._ell_rows is None:
                _ell_apply(xp, x, self._ell_idx, self._ell_vals, scratch.ell_x, out)
            else:
                _ell_apply(xp, x, self._ell_idx, self._ell_vals, scratch.ell_x,
                           scratch.ell_out)
                out[self._ell_rows] = scratch.ell_out
        if self._red_starts is not None:
            if self._red_rows is None:
                xp.add.reduceat(scratch.prod, self._red_starts, out=out)
            else:
                xp.add.reduceat(scratch.prod, self._red_starts, out=scratch.seg)
                out[self._red_rows] = scratch.seg
        if self._zero_rows is not None:
            out[self._zero_rows] = 0.0
        return out

    def __repr__(self) -> str:
        return (
            f"StackedSpMVPlan(shape=({self.nrows}, {self.ncols}), nnz={self.nnz}, "
            f"blocks={self.nblocks}, ell_blocks={self.ell_blocks})"
        )


class SpMVPlan:
    """Per-matrix SpMV metadata and scratch buffers, computed once.

    ``spmv`` runs a single-block :class:`StackedSpMVPlan` of the matrix;
    ``spmv_t`` one of its CSC view (the transpose gather plan: a stable
    argsort of the column indices keeps, within a column, ascending source
    rows).

    Parameters
    ----------
    mat:
        The CSR matrix to plan for.  Its ``indptr``/``indices``/``data``
        arrays are referenced (forward product) and partially copied
        (transpose gather plan); do not mutate the matrix afterwards.
    backend:
        Array backend the kernels run on — a name accepted by
        :func:`repro.backend.get_backend` or an
        :class:`~repro.backend.ArrayBackend`.  Defaults to NumPy.  All plan
        arrays live in the backend namespace; input and ``out=`` vectors
        must be native to it.

    Attributes
    ----------
    calls / calls_t:
        Plain counters of forward/transpose products executed through the
        plan (object-local so the hot path never touches a registry; the
        runtime layer publishes them to :mod:`repro.instrument`).
    """

    __slots__ = (
        "mat", "nrows", "ncols", "nnz", "backend", "_fwd", "_ell_idx", "_t",
        "calls", "calls_t",
    )

    def __init__(self, mat: CSRMatrix, backend: str | ArrayBackend | None = None):
        self.mat = mat
        self.backend = get_backend(backend)
        self.nrows, self.ncols = mat.shape
        self.nnz = mat.nnz
        self.calls = 0
        self.calls_t = 0
        self._fwd = StackedSpMVPlan([mat], [np.arange(self.ncols)], self.ncols,
                                    backend=self.backend)
        self._ell_idx = self._fwd._ell_idx
        order = np.argsort(mat.indices, kind="stable")
        t_indptr = np.zeros(self.ncols + 1, dtype=np.int64)
        np.cumsum(np.bincount(mat.indices, minlength=self.ncols), out=t_indptr[1:])
        rows = np.repeat(np.arange(self.nrows, dtype=np.int64), mat.row_nnz())
        csc = CSRMatrix((self.ncols, self.nrows), t_indptr, rows[order],
                        mat.data[order], check=False)
        self._t = StackedSpMVPlan([csc], [np.arange(self.nrows)], self.nrows,
                                  backend=self.backend)

    def spmv(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """``y = A @ x`` through the plan; allocation-free when ``out`` is given.

        ``out`` may alias ``x``: the gathered products are materialised in the
        thread's scratch buffer before ``out`` is written.
        """
        self.calls += 1
        return self._fwd.spmv(x, out)

    def spmv_t(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """``y = Aᵀ @ x`` through the transpose gather plan (no ``add.at``).

        ``out`` may alias ``x``; allocation-free when ``out`` is given.
        """
        self.calls_t += 1
        return self._t.spmv(x, out)

    def __repr__(self) -> str:
        return (
            f"SpMVPlan(shape=({self.nrows}, {self.ncols}), nnz={self.nnz}, "
            f"calls={self.calls}+{self.calls_t}T)"
        )
