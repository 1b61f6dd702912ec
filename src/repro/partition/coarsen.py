"""Graph coarsening by heavy-edge matching (the METIS coarsening phase).

Each coarsening step computes a maximal matching preferring heavy edges,
collapses matched pairs into single coarse vertices, and rebuilds the coarse
graph with summed vertex and edge weights.
"""

from __future__ import annotations

import numpy as np

from repro.partition.graph import Graph
from repro.sparse.csr import entry_rows

__all__ = ["heavy_edge_matching", "contract", "coarsen_once"]

_INT64_MAX = int(np.iinfo(np.int64).max)


def heavy_edge_matching(graph: Graph, rng: np.random.Generator) -> np.ndarray:
    """Return ``match`` where ``match[v]`` is v's partner (or v itself).

    Vertices are visited in random order; each unmatched vertex matches its
    unmatched neighbour connected by the heaviest edge (ties broken by lower
    vertex weight to keep coarse weights even, then by adjacency order).
    """
    n = graph.num_vertices
    match = [-1] * n
    xadj, adjncy = graph.xadj.tolist(), graph.adjncy.tolist()
    adjwgt, vwgt = graph.adjwgt.tolist(), graph.vwgt.tolist()
    for v in rng.permutation(n).tolist():
        if match[v] != -1:
            continue
        best, best_w, best_vw = -1, -1, _INT64_MAX
        for k in range(xadj[v], xadj[v + 1]):
            u = adjncy[k]
            if match[u] != -1 or u == v:
                continue
            w, uvw = adjwgt[k], vwgt[u]
            if w > best_w or (w == best_w and uvw < best_vw):
                best, best_w, best_vw = u, w, uvw
        if best == -1:
            match[v] = v
        else:
            match[v] = best
            match[best] = v
    return np.array(match, dtype=np.int64)


def contract(graph: Graph, match: np.ndarray) -> tuple[Graph, np.ndarray]:
    """Collapse matched pairs; returns ``(coarse_graph, cmap)``.

    ``cmap[v]`` is the coarse vertex holding fine vertex ``v``: coarse ids
    number the pairs in order of their lower vertex, ``min(v, match[v])``.
    """
    n = graph.num_vertices
    idx = np.arange(n, dtype=np.int64)
    lead = np.minimum(idx, np.asarray(match, dtype=np.int64))
    ids = np.cumsum(lead == idx, dtype=np.int64) - 1
    cmap = ids[lead]
    nc = int(ids[-1]) + 1 if n else 0

    cvwgt = np.zeros(nc, dtype=np.int64)
    np.add.at(cvwgt, cmap, graph.vwgt)

    # accumulate coarse edges: (cmap[v], cmap[u], w) dropping self loops
    rows = entry_rows(graph.xadj)
    cr = cmap[rows]
    cc = cmap[graph.adjncy]
    keep = cr != cc
    cr, cc, cw = cr[keep], cc[keep], graph.adjwgt[keep]
    # combine duplicates with a lexsort + segment sum
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
    coarse = Graph(xadj, cc, cw, cvwgt, check=False)
    return coarse, cmap


def coarsen_once(
    graph: Graph, rng: np.random.Generator
) -> tuple[Graph, np.ndarray] | None:
    """One coarsening level; ``None`` when coarsening stops making progress."""
    match = heavy_edge_matching(graph, rng)
    coarse, cmap = contract(graph, match)
    # require meaningful shrinkage, otherwise stop (e.g. star graphs)
    if coarse.num_vertices > 0.95 * graph.num_vertices:
        return None
    return coarse, cmap
