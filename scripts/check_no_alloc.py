#!/usr/bin/env python
"""CI gate: the warm-workspace hot loop must stay allocation-free.

Runs two PCG solves (tracing disabled — the stacked-kernel path) through a
warmed :class:`~repro.kernels.workspace.SolverWorkspace`:

* ``fsai``: FSAI on a 2-D Poisson grid over contiguous strips
  (``--grid``/``--ranks``);
* ``comm-mixed``: FSAIE-Comm (64 B lines) on poisson2d:32 over 64
  multilevel-partitioned ranks, where some ranks of an operator use the
  ELL kernel and others reduceat, so the mixed-kernel stacked path
  (``StackedSpMVPlan`` row scatter) is exercised; the case fails if no
  operator mixes kernels any more.

It records the per-iteration allocation counters into a
:class:`repro.observe.RunReport` (``kernels.hot_allocs_per_iteration`` is the
worst case, ``kernels.hot_allocs_per_iteration.<case>`` each case) and gates
every case against the recorded baseline in
``benchmarks/baselines/no_alloc_baseline.json``.  Exits non-zero if a hot
loop allocates more than the baseline allows — i.e. someone reintroduced a
per-iteration array allocation on the solver path.

Usage::

    PYTHONPATH=src python scripts/check_no_alloc.py [--grid 32] [--ranks 4]
                                                    [--report out.json]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

BASELINE = Path(__file__).resolve().parent.parent / "benchmarks" / "baselines" / "no_alloc_baseline.json"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--grid", type=int, default=32, help="Poisson grid edge")
    parser.add_argument("--ranks", type=int, default=4)
    parser.add_argument("--baseline", default=str(BASELINE))
    parser.add_argument(
        "--report", help="also write the measured RunReport JSON to this path"
    )
    args = parser.parse_args(argv)

    import numpy as np

    from repro.core.cg import pcg
    from repro.core.precond import PrecondOptions, build_fsai, build_fsaie_comm
    from repro.dist.matrix import DistMatrix
    from repro.dist.partition_map import RowPartition
    from repro.dist.vector import DistVector
    from repro.kernels import SolverWorkspace
    from repro.matgen import poisson2d

    baseline = json.loads(Path(args.baseline).read_text())
    allowed = float(baseline["hot_allocs_per_iteration"])

    def fsai_case():
        mat = poisson2d(args.grid)
        partition = RowPartition.contiguous(mat.nrows, args.ranks)
        return mat, partition, build_fsai(mat, partition)

    def mixed_case():
        mat = poisson2d(32)
        partition = RowPartition.from_matrix(mat, 64, seed=0)
        pre = build_fsaie_comm(mat, partition, PrecondOptions(line_bytes=64))
        return mat, partition, pre

    measured = {}
    for case, build in (("fsai", fsai_case), ("comm-mixed", mixed_case)):
        mat, partition, pre = build()
        dmat = DistMatrix.from_global(mat, partition)
        if case == "comm-mixed" and not any(
            0 < op.stacked_plan().ell_blocks < partition.nparts
            for op in (dmat, pre.g, pre.gt)
        ):
            print(f"error: case {case} no longer mixes ELL and reduceat ranks",
                  file=sys.stderr)
            return 2
        rng = np.random.default_rng(0)
        b = DistVector.from_global(rng.standard_normal(mat.nrows), partition)

        ws = SolverWorkspace(dmat)
        warm = pcg(dmat, b, precond=pre, workspace=ws)  # warm-up solve
        if not warm.converged:
            print(f"error: {case} warm-up solve did not converge", file=sys.stderr)
            return 2
        before = ws.allocations
        result = pcg(dmat, b, precond=pre, workspace=ws)
        measured[case] = (result.iterations, ws.allocations - before)

    # the gate reads the measured counts through the RunReport surface — the
    # same artifact 'repro report --compare' and the bench gate consume
    from repro.observe import RunReport

    report = RunReport(
        meta={"label": "no-alloc-gate", "grid": args.grid, "ranks": args.ranks,
              "cases": sorted(measured)}
    )
    worst = 0.0
    for case, (iterations, hot) in measured.items():
        per_iter = hot / max(iterations, 1)
        worst = max(worst, per_iter)
        report.add_metric(f"pcg.iterations.{case}", iterations)
        report.add_metric(f"kernels.hot_allocs.{case}", hot)
        report.add_metric(f"kernels.hot_allocs_per_iteration.{case}", per_iter)
    report.add_metric("pcg.iterations", sum(it for it, _ in measured.values()))
    report.add_metric("kernels.hot_allocs", sum(hot for _, hot in measured.values()))
    report.add_metric("kernels.hot_allocs_per_iteration", worst)
    if args.report:
        report.save(args.report)

    failed = False
    for case, (iterations, hot) in measured.items():
        per_iter = hot / max(iterations, 1)
        print(
            f"{case}: warm solve {iterations} iterations, {hot} hot-loop array "
            f"allocations ({per_iter:.3f}/iteration, baseline allows {allowed})"
        )
        if per_iter > allowed:
            failed = True
            print(
                f"FAIL: {case} per-iteration allocations regressed above the "
                f"recorded baseline ({per_iter:.3f} > {allowed})",
                file=sys.stderr,
            )
    if failed:
        return 1
    print("OK: hot loop is allocation-free")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
