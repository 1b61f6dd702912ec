"""Row-distributed dense vectors.

A :class:`DistVector` mirrors the matrix row distribution: rank ``p`` stores
the entries of the global vector at ``partition.global_ids[p]`` in that
order.  All ranks' entries live in one contiguous buffer, :attr:`data`, in
rank order (rank 0's entries, then rank 1's, ...; see
:attr:`RowPartition.offsets`), and ``parts[p]`` is a view of rank ``p``'s
segment.  Elementwise updates (``axpy``, ``xpay``, ``scale``, ``fill``,
``copy_from``) therefore run as one operation over the whole buffer, and the
stacked SpMV kernel (:class:`repro.kernels.plan.StackedSpMVPlan`) reads and
writes it directly.

Reductions (dot products, norms) keep one partial per rank, summed in rank
order, and are recorded as allreduce traffic when a tracker is supplied,
since in the real system they are the CG solver's global synchronisation
points.
"""

from __future__ import annotations

import operator

import numpy as np

from repro.dist.partition_map import RowPartition
from repro.errors import ShapeError
from repro.mpisim.tracker import CommTracker

__all__ = ["DistVector"]


class DistVector:
    """A dense vector distributed by rows across ranks.

    The constructor copies ``parts`` into a new buffer, and ``parts[p]``
    then views rank ``p``'s segment of :attr:`data`.  Write through the
    views (``parts[p][...] = ...``); replacing a list entry detaches it
    from the buffer, and the vector's elementwise operations then raise
    :class:`~repro.errors.ShapeError` rather than silently ignore it.
    """

    __slots__ = ("partition", "parts", "data", "_views")

    def __init__(self, partition: RowPartition, parts: list[np.ndarray]):
        if len(parts) != partition.nparts:
            raise ShapeError("need one part per rank")
        for p, arr in enumerate(parts):
            if np.shape(arr) != (partition.size_of(p),):
                raise ShapeError(
                    f"rank {p}: part has shape {np.shape(arr)}, expected "
                    f"({partition.size_of(p)},)"
                )
        data = np.empty(partition.nrows, dtype=np.float64)
        offsets = partition.offsets
        for p, arr in enumerate(parts):
            data[offsets[p]:offsets[p + 1]] = arr
        self._bind(partition, data)

    def _bind(self, partition: RowPartition, data: np.ndarray) -> None:
        self.partition = partition
        self.data = data
        offsets = partition.offsets
        self._views = tuple(
            data[offsets[p]:offsets[p + 1]] for p in range(partition.nparts)
        )
        self.parts = list(self._views)

    @classmethod
    def _wrap(cls, partition: RowPartition, data: np.ndarray) -> "DistVector":
        """A vector over the rank-ordered buffer ``data`` (adopted, not copied)."""
        vec = cls.__new__(cls)
        vec._bind(partition, data)
        return vec

    # ------------------------------------------------------------------
    @classmethod
    def from_global(cls, x: np.ndarray, partition: RowPartition) -> "DistVector":
        """Scatter a global vector onto the partition."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (partition.nrows,):
            raise ShapeError(f"global vector must have length {partition.nrows}")
        data = np.empty(partition.nrows, dtype=np.float64)
        data[partition.flat_index] = x
        return cls._wrap(partition, data)

    @classmethod
    def zeros(cls, partition: RowPartition) -> "DistVector":
        """All-zero vector on the partition."""
        return cls._wrap(partition, np.zeros(partition.nrows, dtype=np.float64))

    def to_global(self) -> np.ndarray:
        """Gather into a global vector (testing/IO helper)."""
        return self._buffer()[self.partition.flat_index]

    def copy(self) -> "DistVector":
        """Deep copy."""
        return DistVector._wrap(self.partition, self._buffer().copy())

    def copy_from(self, other: "DistVector") -> "DistVector":
        """In-place ``self[:] = other`` (no allocation); returns self."""
        self._check_compatible(other)
        np.copyto(self._buffer(), other._buffer())
        return self

    # ------------------------------------------------------------------
    def views_intact(self) -> bool:
        """Whether every ``parts[p]`` is still the view of :attr:`data`."""
        return all(map(operator.is_, self.parts, self._views))

    def _buffer(self) -> np.ndarray:
        """:attr:`data`, after checking that no part was replaced."""
        if not self.views_intact():
            bad = next(p for p, (a, b) in enumerate(zip(self.parts, self._views))
                       if a is not b)
            raise ShapeError(
                f"rank {bad}: parts[{bad}] was replaced and no longer views the "
                "vector's buffer; write into parts[p][...] instead"
            )
        return self.data

    def _check_compatible(self, other: "DistVector") -> None:
        if self.partition != other.partition:
            raise ShapeError("vectors live on different partitions")

    def dot(self, other: "DistVector", tracker: CommTracker | None = None) -> float:
        """Global dot product (per-rank partials, summed in rank order, + allreduce)."""
        self._check_compatible(other)
        partial = float(sum(map(np.dot, self.parts, other.parts), 0.0))
        if tracker is not None:
            tracker.record_collective("allreduce", 8 * self.partition.nparts)
        return partial

    def norm2(self, tracker: CommTracker | None = None) -> float:
        """Global Euclidean norm (one allreduce)."""
        return float(np.sqrt(max(self.dot(self, tracker), 0.0)))

    def axpy(self, alpha: float, x: "DistVector") -> "DistVector":
        """In-place ``self += alpha·x``; returns self."""
        self._check_compatible(x)
        buf = self._buffer()
        buf += alpha * x._buffer()
        return self

    def xpay(self, x: "DistVector", alpha: float) -> "DistVector":
        """In-place ``self = x + alpha·self``; returns self."""
        self._check_compatible(x)
        buf = self._buffer()
        buf *= alpha
        buf += x._buffer()
        return self

    def scale(self, alpha: float) -> "DistVector":
        """In-place scalar multiply; returns self."""
        buf = self._buffer()
        buf *= alpha
        return self

    def fill(self, value: float) -> "DistVector":
        """Set every entry to ``value``; returns self."""
        self._buffer().fill(value)
        return self

    def __repr__(self) -> str:
        return f"DistVector(n={self.partition.nrows}, nparts={self.partition.nparts})"
