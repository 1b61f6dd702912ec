"""Preallocated solver workspaces — zero-allocation distributed hot loops.

A :class:`SolverWorkspace` owns every temporary a Krylov solve needs — the
residual/direction/preconditioned vectors and the kernel plans of every
operator it applies.  Untraced products run as one
:class:`~repro.kernels.plan.StackedSpMVPlan` kernel per operator over the
vectors' contiguous buffers.  The per-message path (tracing or fault
injection on) delivers halo values message by message into a halo tail
appended to a copy of the operand, and a tail-layout stacked plan reads
them from there — the same per-rank kernels, so the products are bitwise
equal.

The contract: after warm-up (the first acquisition of each named buffer),
repeated solves through the same workspace perform **zero hot-loop array
allocations**.  The workspace counts every array it creates in
:attr:`allocations` (mirrored to the ``kernels.allocs`` counter of
:mod:`repro.instrument`), which is how ``scripts/check_no_alloc.py`` and the
test suite enforce the invariant.

Workspaces hold scratch state and are therefore **not thread-safe**; use one
workspace per thread.  Buffers are keyed by name, so a workspace can be
reused across solves of the same operator family indefinitely.
"""

from __future__ import annotations

import numpy as np

from repro.backend import ArrayBackend, get_backend
from repro.dist.halo import per_message_executor
from repro.dist.matrix import DistMatrix
from repro.dist.vector import DistVector
from repro.errors import ShapeError
from repro.instrument import get_metrics

__all__ = ["SolverWorkspace"]


class _OperatorState:
    """Per-operator kernel plans and the per-message executor's input buffer.

    ``ext`` is ``[x | halo tail]`` — the rank-ordered vector followed by
    every rank's halo (``halo_views[p]`` is rank ``p``'s slice, the halo
    update's receive buffer); it and the tail-layout plan are built on the
    per-message path's first use.
    """

    __slots__ = ("dmat", "backend", "stacked", "traced", "ext", "halo_views")

    def __init__(self, dmat: DistMatrix, backend: ArrayBackend):
        self.dmat = dmat
        self.backend = backend
        self.stacked = dmat.stacked_plan(backend)
        self.traced = None
        self.ext = None
        self.halo_views: list[np.ndarray] = []

    def per_message_buffers(self) -> int:
        """Build the tail-layout plan and ``ext`` buffer; returns arrays allocated."""
        if self.traced is not None:
            return 0
        self.traced = self.dmat.stacked_plan(self.backend, halo_tail=True)
        self.ext = self.backend.xp.empty(self.traced.ncols, dtype=np.float64)
        start = self.dmat.partition.nrows
        for lm in self.dmat.locals:
            self.halo_views.append(self.ext[start:start + lm.n_halo])
            start += lm.n_halo
        return 1


class SolverWorkspace:
    """Reusable buffers and kernel plans for distributed Krylov solves.

    Parameters
    ----------
    mat:
        The system matrix; its partition defines every vector buffer.  Plans
        and input buffers for further operators (e.g. the preconditioner's
        ``G`` / ``Gᵀ``) are registered lazily on first application.
    backend:
        Array backend the buffers and kernel plans live on — a name accepted
        by :func:`repro.backend.get_backend` or an
        :class:`~repro.backend.ArrayBackend`.  Defaults to NumPy.  Operand
        vectors must match the backend and dtype (float64); mismatches raise
        :class:`ValueError` rather than silently casting into the buffers.

    Attributes
    ----------
    allocations:
        Total arrays this workspace has allocated.  Constant once every
        buffer is warm — the no-allocation invariant asserted by
        ``scripts/check_no_alloc.py``.
    """

    def __init__(self, mat: DistMatrix, backend: str | ArrayBackend | None = None):
        self.mat = mat
        self.backend = get_backend(backend)
        self.partition = mat.partition
        self.allocations = 0
        self._vectors: dict[str, DistVector] = {}
        self._ops: dict[int, _OperatorState] = {}
        self._register(mat)

    # ------------------------------------------------------------------
    def _count_allocs(self, n: int) -> None:
        self.allocations += n
        get_metrics().counter("kernels.allocs").inc(n)

    def _register(self, dmat: DistMatrix) -> _OperatorState:
        state = _OperatorState(dmat, self.backend)
        self._ops[id(dmat)] = state
        return state

    def operator(self, dmat: DistMatrix) -> _OperatorState:
        """Plan/buffer state for ``dmat``, registered on first use.

        Reuse is counted in the ``kernels.plan_cache.hits`` /
        ``kernels.plan_cache.misses`` instrumentation counters.
        """
        state = self._ops.get(id(dmat))
        if state is None:
            get_metrics().counter("kernels.plan_cache.misses").inc()
            state = self._register(dmat)
        else:
            get_metrics().counter("kernels.plan_cache.hits").inc()
        return state

    def vector(self, name: str) -> DistVector:
        """The named preallocated :class:`DistVector` (created on first use).

        Contents persist between calls; callers own the naming discipline
        (two live uses of the same name would alias).
        """
        vec = self._vectors.get(name)
        if vec is None:
            vec = DistVector.zeros(self.partition)
            self._vectors[name] = vec
            self._count_allocs(1)
        return vec

    # ------------------------------------------------------------------
    def spmv(
        self,
        dmat: DistMatrix,
        x: DistVector,
        out: DistVector | None = None,
        tracker=None,
    ) -> DistVector:
        """Distributed ``out = dmat · x`` through cached plans and buffers.

        With tracing and fault injection off, the product is one
        :class:`~repro.kernels.plan.StackedSpMVPlan` kernel from
        ``x.data`` into ``out.data`` (the halo gather is part of the SpMV
        gather) and the halo traffic is booked in one batch.  Otherwise
        (:func:`~repro.dist.halo.per_message_executor`) the halo update
        runs message by message into a halo tail appended to a copy of
        ``x.data`` — so injected faults reach the product — and the
        tail-layout plan reads from there.  Both paths give bitwise-equal
        products and equal traffic accounting, with zero allocations once
        the operator is warm.
        """
        if x.partition != dmat.partition:
            raise ShapeError("operand lives on a different partition")
        state = self.operator(dmat)
        if out is None:
            out = self.vector(f"spmv.out.{id(dmat)}")
        self._check_parts(x, "x")
        self._check_parts(out, "out")
        if not per_message_executor():
            state.stacked.spmv(x.data, out=out.data)
            dmat.schedule.account(tracker)
            return out
        self._count_allocs(state.per_message_buffers())
        state.ext[: x.data.size] = x.data
        dmat.schedule.update(x.parts, tracker, out=state.halo_views)
        state.traced.spmv(state.ext, out=out.data)
        return out

    def _check_parts(self, vec: DistVector, label: str) -> None:
        """Reject operand vectors that would silently cast into the buffers,
        or whose parts no longer view the vector's buffer."""
        backend = self.backend
        if vec.views_intact() and backend.is_native(vec.data):
            return  # parts are views of data, which DistVector keeps float64
        for p, part in enumerate(vec.parts):
            if not backend.is_native(part):
                raise ValueError(
                    f"{label}.parts[{p}] is {type(part).__name__}, but this "
                    f"workspace runs on the {backend.name!r} backend — convert "
                    "with backend.to_device() before the solve"
                )
            if part.dtype != np.float64:
                raise ValueError(
                    f"{label}.parts[{p}] has dtype {part.dtype}; workspace "
                    "buffers are float64 and refuse to cast silently — "
                    "convert the operand explicitly"
                )
        raise ValueError(
            f"a part of {label} was replaced and no longer views {label}.data; "
            "write into parts[p][...] instead"
        )

    def __repr__(self) -> str:
        return (
            f"SolverWorkspace(nparts={self.partition.nparts}, "
            f"vectors={len(self._vectors)}, operators={len(self._ops)}, "
            f"allocations={self.allocations})"
        )
