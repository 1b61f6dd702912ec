"""SPMD execution of the distributed kernels on the mpisim runtime.

The BSP layer (:class:`~repro.dist.matrix.DistMatrix`) applies operations
rank-by-rank in the driver — deterministic and fast.  This module runs the
*same* data structures through genuine message passing on
:func:`repro.mpisim.run_spmd`: every halo value travels in a real
point-to-point message and every reduction is a real allreduce.  Tests assert
both engines agree, which validates the BSP shortcut.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

import numpy as np

from repro.dist.matrix import DistMatrix
from repro.dist.vector import DistVector
from repro.instrument import get_tracer
from repro.mpisim import SUM, Comm, CommTracker, run_spmd

__all__ = [
    "spmd_spmv",
    "spmd_dot",
    "spmd_halo_update",
    "spmd_cg",
    "spmd_pipelined_pcg",
]

_TAG_HALO = 7_000


@contextmanager
def _compute_probe(telemetry):
    """Stream the enclosed block's duration into the rank's telemetry
    ``compute`` histogram (:mod:`repro.observe.stream`); free when no
    telemetry endpoint is installed."""
    if telemetry is None:
        yield
        return
    start = time.perf_counter()
    try:
        yield
    finally:
        telemetry.observe("compute", time.perf_counter() - start)


def _halo_exchange_start(comm: Comm, mat: DistMatrix, x_local: np.ndarray) -> list:
    """Post one rank's halo exchange; complete with ``_halo_exchange_finish``.

    Receives are posted first (``irecv`` per incoming edge), then all
    outgoing payloads ship inside one coalescing epoch — each (src, dst)
    pair's traffic is a single tracked envelope.  The caller can run local
    compute between start and finish, overlapping it with in-flight halo
    traffic from the other ranks.

    With tracing enabled the pack phase is a ``spmd.halo.pack`` span tagged
    with the total payload bytes.
    """
    p = comm.rank
    sched = mat.schedule
    part = mat.partition
    tracer = get_tracer()
    reqs = [
        (q, comm.irecv(q, _TAG_HALO))
        for q, ids in sched.recv_from[p].items()
        if ids.size
    ]
    if tracer.enabled:
        with tracer.span("spmd.halo.pack", rank=p) as pack:
            sends = []
            packed_bytes = 0
            for q, ids in sched.send_to[p].items():
                if ids.size:
                    payload = x_local[part.local_index[ids]]
                    packed_bytes += payload.nbytes
                    sends.append((payload, q))
            pack.set_tag("bytes", packed_bytes)
    else:
        sends = [
            (x_local[part.local_index[ids]], q)
            for q, ids in sched.send_to[p].items()
            if ids.size
        ]
    with comm.coalescing():
        for payload, q in sends:
            comm.send(payload, q, _TAG_HALO)
    return reqs


def _halo_exchange_finish(comm: Comm, mat: DistMatrix, reqs: list) -> np.ndarray:
    """Complete a posted halo exchange; returns the rank's halo buffer.

    Each incoming edge's completion is a ``spmd.halo.wait`` span (tagged
    with the awaited source and payload bytes) — the segments the timeline
    layer classifies as wait time, and the ones overlap shrinks.
    """
    p = comm.rank
    sched = mat.schedule
    tracer = get_tracer()
    halo = np.zeros(sched.ext_cols[p].size, dtype=np.float64)
    for q, req in reqs:
        ids = sched.recv_from[p][q]
        if tracer.enabled:
            with tracer.span(
                "spmd.halo.wait", rank=p, src=q, bytes=8 * int(ids.size)
            ):
                values = req.wait()
        else:
            values = req.wait()
        halo[sched.recv_pos[p][q]] = values
    return halo


def _halo_exchange(comm: Comm, mat: DistMatrix, x_local: np.ndarray) -> np.ndarray:
    """One rank's side of the halo update; returns its halo buffer."""
    return _halo_exchange_finish(comm, mat, _halo_exchange_start(comm, mat, x_local))


def spmd_halo_update(
    mat: DistMatrix,
    x: DistVector,
    tracker: CommTracker | None = None,
    *,
    engine: str = "threads",
    telemetry=None,
) -> list[np.ndarray]:
    """Run the halo update alone on the SPMD runtime; returns halo buffers.

    ``telemetry`` forwards a :class:`repro.observe.stream.TelemetryConfig`
    to :func:`repro.mpisim.run_spmd` — the instrumented form used to
    re-prove the paper's schedule invariance *with telemetry enabled*.
    """

    def _prog(comm: Comm):
        return _halo_exchange(comm, mat, x.parts[comm.rank])

    return run_spmd(
        _prog, mat.partition.nparts, tracker=tracker, engine=engine,
        telemetry=telemetry,
    )


def spmd_spmv(
    mat: DistMatrix,
    x: DistVector,
    tracker: CommTracker | None = None,
    *,
    engine: str = "threads",
) -> DistVector:
    """Distributed SpMV executed with real messages; result equals BSP spmv."""

    def _prog(comm: Comm):
        p = comm.rank
        lm = mat.locals[p]
        halo = _halo_exchange(comm, mat, x.parts[p])
        xin = np.concatenate([x.parts[p], halo]) if lm.n_halo else x.parts[p]
        return lm.csr.spmv(xin)

    parts = run_spmd(_prog, mat.partition.nparts, tracker=tracker, engine=engine)
    return DistVector(mat.partition, parts)


def spmd_dot(
    x: DistVector,
    y: DistVector,
    tracker: CommTracker | None = None,
    *,
    engine: str = "threads",
) -> float:
    """Distributed dot product through a real allreduce on every rank."""

    def _prog(comm: Comm):
        p = comm.rank
        partial = float(np.dot(x.parts[p], y.parts[p]))
        return comm.allreduce(partial, SUM)

    results = run_spmd(_prog, x.partition.nparts, tracker=tracker, engine=engine)
    first = results[0]
    assert all(abs(r - first) < 1e-9 * max(1.0, abs(first)) for r in results)
    return first


def spmd_cg(
    mat: DistMatrix,
    b: DistVector,
    *,
    rtol: float = 1e-8,
    max_iterations: int = 10_000,
    precond_pair: tuple[DistMatrix, DistMatrix] | None = None,
    tracker: CommTracker | None = None,
    engine: str = "threads",
) -> tuple[DistVector, int]:
    """(Preconditioned) CG fully inside the SPMD runtime.

    ``precond_pair`` is ``(G, Gᵀ)`` as row-distributed matrices; the
    preconditioner application is ``z = Gᵀ(G·r)`` — two SpMVs, as in the
    paper.  Returns the solution and the iteration count.  This mirrors
    :func:`repro.core.cg.pcg` and exists to validate it end-to-end on real
    message passing.
    """
    part = mat.partition

    def _prog(comm: Comm):
        p = comm.rank
        lm = mat.locals[p]
        tracer = get_tracer()

        def local_spmv(m: DistMatrix, v: np.ndarray) -> np.ndarray:
            halo = _halo_exchange(comm, m, v)
            lmm = m.locals[p]
            with tracer.span("spmd.compute", rank=p, kernel="spmv"):
                vin = np.concatenate([v, halo]) if lmm.n_halo else v
                return lmm.csr.spmv(vin)

        def gdot(u: np.ndarray, v: np.ndarray) -> float:
            with tracer.span("spmd.reduction", rank=p):
                return comm.allreduce(float(np.dot(u, v)), SUM)

        def apply_precond(v: np.ndarray) -> np.ndarray:
            if precond_pair is None:
                return v.copy()
            g, gt = precond_pair
            return local_spmv(gt, local_spmv(g, v))

        x = np.zeros(lm.n_local, dtype=np.float64)
        r = b.parts[p].copy()
        norm0 = np.sqrt(gdot(r, r))
        if norm0 == 0.0 or not np.isfinite(norm0):
            return x, 0  # zero or non-finite RHS: stop at 0, as pcg does
        z = apply_precond(r)
        d = z.copy()
        rz = gdot(r, z)
        iterations = 0
        for _ in range(max_iterations):
            if np.sqrt(gdot(r, r)) <= rtol * norm0 or rz == 0:
                break
            with tracer.span("spmd.iteration", rank=p, index=iterations):
                ad = local_spmv(mat, d)
                dad = gdot(d, ad)
                if dad <= 0 or not np.isfinite(dad):
                    break  # not SPD or breakdown (every rank sees the same dad)
                alpha = rz / dad
                with tracer.span("spmd.compute", rank=p, kernel="axpy"):
                    x += alpha * d
                    r -= alpha * ad
                z = apply_precond(r)
                rz_new = gdot(r, z)
                beta = rz_new / rz
                rz = rz_new
                d = z + beta * d
            iterations += 1
        return x, iterations

    results = run_spmd(_prog, part.nparts, tracker=tracker, engine=engine)
    iters = results[0][1]
    assert all(it == iters for _, it in results)
    return DistVector(part, [x for x, _ in results]), iters


def spmd_pipelined_pcg(
    mat: DistMatrix,
    b: DistVector,
    *,
    rtol: float = 1e-8,
    max_iterations: int = 10_000,
    precond_pair: tuple[DistMatrix, DistMatrix] | None = None,
    tracker: CommTracker | None = None,
    overlap: bool = True,
    engine: str = "threads",
    workers: int | None = None,
    timeout: float = 120.0,
    latency: float = 0.0,
    telemetry=None,
) -> tuple[DistVector, int]:
    """Pipelined PCG fully inside the SPMD runtime, built for scale.

    The message-passing twin of :func:`repro.core.solvers.pipelined_pcg`
    with two communication optimisations on by default:

    * **fused reductions** — the three dot products of an iteration travel
      as ONE length-3 allreduce instead of three scalar allreduces: 3×
      fewer reduction messages per edge per iteration, byte-identical
      totals (auditable with :class:`~repro.mpisim.CommTracker`);
    * **overlapped SpMV** (``overlap=True``) — each halo exchange is
      posted with :func:`_halo_exchange_start` (early receives + coalesced
      sends), the local column block ``A_ll·x_local`` is computed while
      peer traffic is in flight, and only then does the rank wait — so
      ``spmd.halo.wait`` self-time in :mod:`repro.observe.timeline` drops
      versus the blocking exchange.

    ``engine="events"`` runs the ranks on the cooperative engine
    (:mod:`repro.mpisim.events`), the practical choice beyond ~100 ranks.
    ``latency`` forwards to :func:`repro.mpisim.run_spmd` — with a nonzero
    modelled link latency the overlap benefit becomes directly visible as
    reduced wait time (local compute runs inside the latency window).
    ``telemetry`` forwards a :class:`repro.observe.stream.TelemetryConfig`:
    every compute block is additionally timed into the rank's bounded
    ``compute`` histogram (waits and reductions are observed by the
    transport itself), giving :mod:`repro.observe.conformance` its
    measured per-phase seconds without full tracing.
    Returns ``(solution, iterations)``; iterates match the BSP
    ``pipelined_pcg`` to roundoff (the overlapped split changes row
    summation order in the last ulps).
    """
    part = mat.partition
    blocks = mat.split_blocks() if overlap else None
    pre_blocks = (
        (precond_pair[0].split_blocks(), precond_pair[1].split_blocks())
        if overlap and precond_pair is not None
        else (None, None)
    )

    def _prog(comm: Comm):
        p = comm.rank
        tracer = get_tracer()
        tel = comm.telemetry

        def local_spmv(m: DistMatrix, m_blocks, v: np.ndarray) -> np.ndarray:
            if m_blocks is not None:
                reqs = _halo_exchange_start(comm, m, v)
                a_ll, a_lh = m_blocks[p]
                with tracer.span("spmd.compute", rank=p, kernel="spmv_local"):
                    with _compute_probe(tel):
                        y = a_ll.spmv(v)
                halo = _halo_exchange_finish(comm, m, reqs)
                if a_lh is not None:
                    with tracer.span("spmd.compute", rank=p, kernel="spmv_halo"):
                        with _compute_probe(tel):
                            y += a_lh.spmv(halo)
                return y
            halo = _halo_exchange(comm, m, v)
            lmm = m.locals[p]
            with tracer.span("spmd.compute", rank=p, kernel="spmv"):
                with _compute_probe(tel):
                    vin = np.concatenate([v, halo]) if lmm.n_halo else v
                    return lmm.csr.spmv(vin)

        def fused_dots(*pairs: tuple[np.ndarray, np.ndarray]) -> list[float]:
            partials = np.array(
                [float(np.dot(a, c)) for a, c in pairs], dtype=np.float64
            )
            with tracer.span("spmd.reduction", rank=p, fused=len(pairs)):
                return [float(v) for v in comm.allreduce(partials, SUM)]

        def apply_precond(v: np.ndarray) -> np.ndarray:
            if precond_pair is None:
                return v.copy()
            g, gt = precond_pair
            gb, gtb = pre_blocks
            return local_spmv(gt, gtb, local_spmv(g, gb, v))

        a_blocks = blocks
        x = np.zeros(mat.locals[p].n_local, dtype=np.float64)
        r = b.parts[p].copy()
        (norm0_sq,) = fused_dots((r, r))
        norm0 = float(np.sqrt(max(norm0_sq, 0.0)))
        if norm0 == 0.0 or not np.isfinite(norm0):
            return x, 0  # zero or non-finite RHS: stop at 0, as pcg does
        target = rtol * norm0
        u = apply_precond(r)
        w = local_spmv(mat, a_blocks, u)
        gamma, delta = fused_dots((r, u), (w, u))
        m_w = apply_precond(w)
        n_vec = local_spmv(mat, a_blocks, m_w)
        z = n_vec.copy()
        q = m_w.copy()
        pd = u.copy()
        s = w.copy()
        alpha = gamma / delta if delta != 0 else 0.0
        res = norm0
        iterations = 0
        for _ in range(max_iterations):
            if res <= target or delta == 0 or not np.isfinite(alpha):
                break
            with tracer.span("spmd.iteration", rank=p, index=iterations):
                with tracer.span("spmd.compute", rank=p, kernel="axpy"):
                    with _compute_probe(tel):
                        x += alpha * pd
                        r -= alpha * s
                        u -= alpha * q
                        w -= alpha * z
                rr, gamma_new, delta = fused_dots((r, r), (r, u), (w, u))
                res = float(np.sqrt(max(rr, 0.0)))
                iterations += 1
                if res <= target:
                    break
                m_w = apply_precond(w)
                n_vec = local_spmv(mat, a_blocks, m_w)
                beta = gamma_new / gamma if gamma != 0 else 0.0
                gamma = gamma_new
                denom = delta - beta * gamma / alpha if alpha != 0 else delta
                alpha = gamma / denom if denom != 0 else 0.0
                with tracer.span("spmd.compute", rank=p, kernel="axpy"):
                    with _compute_probe(tel):
                        z = n_vec + beta * z
                        q = m_w + beta * q
                        pd = u + beta * pd
                        s = w + beta * s
        return x, iterations

    results = run_spmd(
        _prog, part.nparts, tracker=tracker, timeout=timeout, engine=engine,
        workers=workers, latency=latency, telemetry=telemetry,
    )
    iters = results[0][1]
    assert all(it == iters for _, it in results)
    return DistVector(part, [x for x, _ in results]), iters
