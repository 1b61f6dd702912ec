"""Reference implementations of the setup path, kept as test oracles.

These are the per-vertex and per-row loops the library used before its
setup path became list-native and whole-array.  The property tests in
``test_setup_oracles.py`` compare the library against them label for label
and byte for byte; nothing in ``src/`` imports this module.
"""

from __future__ import annotations

import heapq
from collections import deque

import numpy as np

from repro.dist.halo import HaloSchedule
from repro.dist.matrix import DistMatrix, LocalMatrix
from repro.partition.graph import Graph
from repro.sparse.csr import CSRMatrix
from repro.sparse.pattern import SparsityPattern


# ----------------------------------------------------------------------
# partitioner
# ----------------------------------------------------------------------
def _gains(graph, part):
    n = graph.num_vertices
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(graph.xadj))
    same = part[rows] == part[graph.adjncy]
    gain = np.zeros(n, dtype=np.int64)
    np.add.at(gain, rows, np.where(same, -graph.adjwgt, graph.adjwgt))
    return gain


def fm_refine(graph, part, *, target=None, max_imbalance=1.05, max_passes=4):
    """FM refinement off a heap of ``(-gain, vertex)`` tuples over NumPy arrays."""
    part = np.asarray(part, dtype=np.int64).copy()
    total = graph.total_vertex_weight()
    if target is None:
        t0 = total // 2
        target = (t0, total - t0)
    cap = (
        max(1.0, target[0] * max_imbalance),
        max(1.0, target[1] * max_imbalance),
    )
    side_w = np.array(
        [int(graph.vwgt[part == 0].sum()), int(graph.vwgt[part == 1].sum())],
        dtype=np.int64,
    )
    for _ in range(max_passes):
        gain = _gains(graph, part)
        locked = np.zeros(graph.num_vertices, dtype=bool)
        heap = [(-g, v) for v, g in enumerate(gain)]
        heapq.heapify(heap)
        moves = []
        cum = 0
        best_cum, best_len = 0, 0
        while heap:
            neg_g, v = heapq.heappop(heap)
            if locked[v] or -neg_g != gain[v]:
                continue
            src = int(part[v])
            dst = 1 - src
            w = int(graph.vwgt[v])
            if side_w[dst] + w > cap[dst]:
                locked[v] = True
                continue
            locked[v] = True
            part[v] = dst
            side_w[src] -= w
            side_w[dst] += w
            cum += int(gain[v])
            moves.append(v)
            if cum > best_cum:
                best_cum, best_len = cum, len(moves)
            lo, hi = graph.xadj[v], graph.xadj[v + 1]
            for u, ew in zip(graph.adjncy[lo:hi], graph.adjwgt[lo:hi]):
                if locked[u]:
                    continue
                delta = -2 * int(ew) if part[u] == dst else 2 * int(ew)
                gain[u] += delta
                heapq.heappush(heap, (-int(gain[u]), int(u)))
        for v in moves[best_len:]:
            dst = int(part[v])
            src = 1 - dst
            w = int(graph.vwgt[v])
            part[v] = src
            side_w[dst] -= w
            side_w[src] += w
        if best_cum <= 0:
            break
    return part


def heavy_edge_matching(graph, rng):
    """Heavy-edge matching with per-vertex NumPy neighbour views."""
    n = graph.num_vertices
    match = np.full(n, -1, dtype=np.int64)
    order = rng.permutation(n)
    for v in order:
        if match[v] != -1:
            continue
        nbrs = graph.neighbours(v)
        wgts = graph.edge_weights(v)
        best, best_w, best_vw = -1, -1, np.iinfo(np.int64).max
        for u, w in zip(nbrs, wgts):
            if match[u] != -1 or u == v:
                continue
            uvw = graph.vwgt[u]
            if w > best_w or (w == best_w and uvw < best_vw):
                best, best_w, best_vw = int(u), int(w), int(uvw)
        if best == -1:
            match[v] = v
        else:
            match[v] = best
            match[best] = v
    return match


def contract(graph, match):
    """Contraction with the coarse ids assigned by a loop over vertices."""
    n = graph.num_vertices
    cmap = np.full(n, -1, dtype=np.int64)
    next_id = 0
    for v in range(n):
        if cmap[v] != -1:
            continue
        u = match[v]
        cmap[v] = next_id
        if u != v:
            cmap[u] = next_id
        next_id += 1
    nc = next_id
    cvwgt = np.zeros(nc, dtype=np.int64)
    np.add.at(cvwgt, cmap, graph.vwgt)
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(graph.xadj))
    cr = cmap[rows]
    cc = cmap[graph.adjncy]
    keep = cr != cc
    cr, cc, cw = cr[keep], cc[keep], graph.adjwgt[keep]
    order = np.lexsort((cc, cr))
    cr, cc, cw = cr[order], cc[order], cw[order]
    if cr.size:
        new_run = np.concatenate(([True], (cr[1:] != cr[:-1]) | (cc[1:] != cc[:-1])))
        seg = np.cumsum(new_run) - 1
        summed = np.zeros(int(seg[-1]) + 1, dtype=np.int64)
        np.add.at(summed, seg, cw)
        cr, cc, cw = cr[new_run], cc[new_run], summed
    xadj = np.zeros(nc + 1, dtype=np.int64)
    np.add.at(xadj, cr + 1, 1)
    np.cumsum(xadj, out=xadj)
    return Graph(xadj, cc, cw, cvwgt, check=False), cmap


def greedy_grow_bisection(graph, target0, rng, trials=4):
    """BFS growing; the disconnected fallback rescans ``part == 1`` per vertex."""
    n = graph.num_vertices
    best_part = None
    best_cut = None
    for _ in range(max(1, trials)):
        part = np.ones(n, dtype=np.int64)
        seed = int(rng.integers(n))
        grown = 0
        queue = deque([seed])
        visited = np.zeros(n, dtype=bool)
        visited[seed] = True
        while queue and grown < target0:
            v = queue.popleft()
            part[v] = 0
            grown += int(graph.vwgt[v])
            for u in graph.neighbours(v):
                if not visited[u]:
                    visited[u] = True
                    queue.append(int(u))
        while grown < target0:
            rest = np.flatnonzero(part == 1)
            if rest.size == 0:
                break
            nxt = int(rest[rng.integers(rest.size)])
            part[nxt] = 0
            grown += int(graph.vwgt[nxt])
        cut = graph.edge_cut(part)
        if best_cut is None or cut < best_cut:
            best_part, best_cut = part, cut
    return best_part


# ----------------------------------------------------------------------
# pattern algebra
# ----------------------------------------------------------------------
def _per_row(a: SparsityPattern, b: SparsityPattern, op) -> SparsityPattern:
    parts = []
    indptr = np.zeros(a.nrows + 1, dtype=np.int64)
    for i in range(a.nrows):
        row = op(a.row(i), b.row(i))
        parts.append(row)
        indptr[i + 1] = indptr[i] + row.size
    indices = np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)
    return SparsityPattern(a.shape, indptr, indices, check=False)


def union(a, b):
    return _per_row(a, b, np.union1d)


def intersection(a, b):
    return _per_row(a, b, lambda x, y: np.intersect1d(x, y, assume_unique=True))


def difference(a, b):
    return _per_row(a, b, lambda x, y: np.setdiff1d(x, y, assume_unique=True))


def issubset(a, b):
    if a.shape != b.shape:
        return False
    return all(
        np.setdiff1d(a.row(i), b.row(i), assume_unique=True).size == 0
        for i in range(a.nrows)
    )


def first_unsorted_row(pat: SparsityPattern):
    """The row ``SparsityPattern`` validation reports, or None."""
    for i in range(pat.nrows):
        row = pat.indices[pat.indptr[i] : pat.indptr[i + 1]]
        if row.size > 1 and np.any(np.diff(row) <= 0):
            return i
    return None


def diagonal(mat: CSRMatrix) -> np.ndarray:
    """Diagonal by a binary search per row."""
    n = min(mat.shape)
    diag = np.zeros(n, dtype=np.float64)
    for i in range(n):
        lo, hi = mat.indptr[i], mat.indptr[i + 1]
        pos = np.searchsorted(mat.indices[lo:hi], i)
        if pos < hi - lo and mat.indices[lo + pos] == i:
            diag[i] = mat.data[lo + pos]
    return diag


def extension_entry_mask(g: CSRMatrix, base: SparsityPattern) -> np.ndarray:
    """Extension mask by a binary search per row into the base pattern."""
    mask = np.empty(g.nnz, dtype=bool)
    for i in range(g.nrows):
        lo, hi = g.indptr[i], g.indptr[i + 1]
        base_row = base.row(i)
        cols = g.indices[lo:hi]
        pos = np.searchsorted(base_row, cols)
        pos = np.minimum(pos, max(base_row.size - 1, 0))
        in_base = base_row[pos] == cols if base_row.size else np.zeros(cols.size, bool)
        mask[lo:hi] = ~in_base
    return mask


# ----------------------------------------------------------------------
# row distribution
# ----------------------------------------------------------------------
def halo_ext_cols(partition, indptr, indices) -> list[np.ndarray]:
    """Per-rank halo columns gathered row by row."""
    ext = []
    owner = partition.owner
    for p in range(partition.nparts):
        rows = partition.global_ids[p]
        starts = indptr[rows]
        ends = indptr[rows + 1]
        cols = np.empty(int((ends - starts).sum()), dtype=np.int64)
        off = 0
        for s, e in zip(starts, ends):
            cols[off : off + (e - s)] = indices[s:e]
            off += e - s
        cols = np.unique(cols)
        ext.append(cols[owner[cols] != p])
    return ext


def from_global(mat: CSRMatrix, partition) -> DistMatrix:
    """Row distribution through a dense column map and a sort per row."""
    schedule = HaloSchedule(partition, halo_ext_cols(partition, mat.indptr, mat.indices))
    locals_ = []
    for p in range(partition.nparts):
        rows = partition.global_ids[p]
        ext = schedule.ext_cols[p]
        n_local = rows.size
        col_map = np.full(mat.ncols, -1, dtype=np.int64)
        col_map[rows] = np.arange(n_local, dtype=np.int64)
        col_map[ext] = n_local + np.arange(ext.size, dtype=np.int64)
        counts = (mat.indptr[rows + 1] - mat.indptr[rows]).astype(np.int64)
        indptr = np.zeros(n_local + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        indices = np.empty(int(indptr[-1]), dtype=np.int64)
        data = np.empty(int(indptr[-1]), dtype=np.float64)
        for li, g in enumerate(rows):
            lo, hi = mat.indptr[g], mat.indptr[g + 1]
            seg = slice(indptr[li], indptr[li + 1])
            local_cols = col_map[mat.indices[lo:hi]]
            order = np.argsort(local_cols, kind="stable")
            indices[seg] = local_cols[order]
            data[seg] = mat.data[lo:hi][order]
        csr = CSRMatrix((n_local, n_local + ext.size), indptr, indices, data, check=False)
        locals_.append(LocalMatrix(p, csr, rows, ext))
    return DistMatrix(partition, locals_, schedule, mat.shape)
