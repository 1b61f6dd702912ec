"""Boundary refinement of bisections (Fiduccia–Mattheyses style).

Given a two-way partition, repeatedly move the boundary vertex with the best
*gain* (cut-weight reduction) to the other side, respecting a balance
constraint, and roll back to the best prefix of moves.  This is the classic
FM pass used by multilevel partitioners during uncoarsening.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.partition.graph import Graph
from repro.sparse.csr import entry_rows

__all__ = ["fm_refine", "bisection_balance"]


def bisection_balance(graph: Graph, part: np.ndarray) -> float:
    """Max side weight divided by ideal (1.0 = perfectly balanced)."""
    w0 = int(graph.vwgt[part == 0].sum())
    w1 = int(graph.vwgt[part == 1].sum())
    ideal = (w0 + w1) / 2.0
    if ideal == 0:
        return 1.0
    return max(w0, w1) / ideal


def _gains(graph: Graph, part: np.ndarray) -> np.ndarray:
    """gain[v] = external degree − internal degree (cut reduction if moved)."""
    rows = entry_rows(graph.xadj)
    same = part[rows] == part[graph.adjncy]
    gain = np.zeros(graph.num_vertices, dtype=np.int64)
    np.add.at(gain, rows, np.where(same, -graph.adjwgt, graph.adjwgt))
    return gain


def fm_refine(
    graph: Graph,
    part: np.ndarray,
    *,
    target: tuple[int, int] | None = None,
    max_imbalance: float = 1.05,
    max_passes: int = 4,
) -> np.ndarray:
    """Refine a bisection in place-semantics (returns a new array).

    Parameters
    ----------
    target:
        Desired vertex-weight per side; defaults to an even split.  Used when
        recursive bisection needs uneven halves (k not a power of two).
    max_imbalance:
        A move is admissible while both sides stay within
        ``max_imbalance × target``.
    max_passes:
        FM passes; each pass moves every vertex at most once.

    Each step takes the unlocked vertex of maximum gain, lowest id first.
    The pass runs on Python lists: the heap holds one int per entry,
    ``-gain * n + v``, whose order is that of ``(-gain, v)``; an entry is
    stale once its vertex is locked or its gain has changed.
    """
    labels = np.asarray(part, dtype=np.int64)
    total = graph.total_vertex_weight()
    if target is None:
        t0 = total // 2
        target = (t0, total - t0)
    cap = (
        max(1.0, target[0] * max_imbalance),
        max(1.0, target[1] * max_imbalance),
    )
    n = graph.num_vertices
    xadj, adjncy = graph.xadj.tolist(), graph.adjncy.tolist()
    adjwgt, vwgt = graph.adjwgt.tolist(), graph.vwgt.tolist()
    side_w = [int(graph.vwgt[labels == 0].sum()), int(graph.vwgt[labels == 1].sum())]
    part = labels.tolist()
    heappop, heappush = heapq.heappop, heapq.heappush

    for _ in range(max_passes):
        gain = _gains(graph, np.array(part, dtype=np.int64)).tolist()
        locked = [False] * n
        heap = [-g * n + v for v, g in enumerate(gain)]
        heapq.heapify(heap)
        moves: list[int] = []
        cum = 0
        best_cum, best_len = 0, 0
        unlocked = n
        while unlocked:
            key = heappop(heap)
            v = key % n
            if locked[v] or -(key // n) != gain[v]:
                continue  # stale heap entry
            locked[v] = True
            unlocked -= 1
            src = part[v]
            dst = 1 - src
            w = vwgt[v]
            if side_w[dst] + w > cap[dst]:
                continue  # cannot move this pass
            # apply move
            part[v] = dst
            side_w[src] -= w
            side_w[dst] += w
            cum += gain[v]
            moves.append(v)
            if cum > best_cum:
                best_cum, best_len = cum, len(moves)
            # update neighbour gains: the u–v edge flips internal<->external
            for k in range(xadj[v], xadj[v + 1]):
                u = adjncy[k]
                if locked[u]:
                    continue
                g = gain[u] - 2 * adjwgt[k] if part[u] == dst else gain[u] + 2 * adjwgt[k]
                gain[u] = g
                heappush(heap, -g * n + u)
        # roll back moves past the best prefix
        for v in moves[best_len:]:
            dst = part[v]
            src = 1 - dst
            w = vwgt[v]
            part[v] = src
            side_w[dst] -= w
            side_w[src] += w
        if best_cum <= 0:
            break
    return np.array(part, dtype=np.int64)
