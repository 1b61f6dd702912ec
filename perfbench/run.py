"""End-to-end benchmark of the FSAIE-Comm reproduction.

Usage (from the repository root)::

    python3 perfbench/run.py --workload pipeline-3d64 --seed 1 --seconds 30 --trace 0

``--trace 0`` repeats untraced passes of the workload for about
``--seconds`` seconds and reports every end-to-end metric of
``BENCHMARK.json``: medians over the passes, expressed at the speed of a
quiet host (see :func:`end_to_end` and :mod:`hostspeed`).
``--trace 1`` runs one untraced
and one traced pass and reports every per-layer metric: spans and counters
of the traced pass, self time per layer, coverage and tracing overhead.
The last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The process exits 1 when any correctness check failed (after printing the
result) and 2 when the program under test cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

from hostspeed import HostSpeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
#: every timed run sets up and solves at least twice
MIN_PASSES = 2


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def pin_to_one_cpu() -> None:
    """Run every thread of this process on one CPU.

    The program's threads (simulated ranks, farm workers) take turns on the
    interpreter lock; across two CPUs each handoff is a cross-CPU wakeup,
    which on a shared host made 40-iteration SPMD solves both about twice as
    slow and several times noisier than on one CPU.
    """
    allowed = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {allowed[-1]})


def import_program() -> None:
    """Put the checkout's ``src`` on the path, or exit 2."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: {ROOT / 'src' / 'repro'} not found; run from a full checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(ROOT / "src"))


def percentile_ms(samples, q: int) -> float:
    return 1e3 * statistics.quantiles(samples, n=100, method="inclusive")[q - 1] \
        if len(samples) > 1 else 1e3 * samples[0]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
def measure(workload, inp: dict, seconds: float) -> list:
    """Untraced passes: at least ``MIN_PASSES``, then more while the next
    one, as long as the last, still ends within ``seconds``.  Each pass
    records the host's speed while it ran (see :mod:`hostspeed`)."""
    passes = []
    start = time.perf_counter()
    while True:
        probe = HostSpeed()
        result = workload.run_pass(inp, probe)
        result.speed, result.probes = probe.factor(), len(probe.samples)
        passes.append(result)
        elapsed = time.perf_counter() - start
        if len(passes) >= MIN_PASSES and elapsed + result.total_s > seconds:
            return passes


def end_to_end(workload, passes, attempted: int, failed: int) -> dict:
    """The end-to-end metrics of a run's untraced passes.

    Every sample is first multiplied by its pass's host-speed factor (see
    :mod:`hostspeed`).  A call's time is then the median of its samples
    over the run; ``solve_s`` runs the solves as the workload does,
    ``total_s`` adds every other call but the checks, and ``setup_s`` is
    the median of the passes' set-ups.  The latency percentiles are taken
    over the requests, each at its median time.
    """
    pooled = defaultdict(list)
    for p in passes:
        for key, samples in p.stopwatch.samples.items():
            pooled[key] += [p.speed * x for x in samples]
    typical = {k: statistics.median(v) for k, v in pooled.items()}
    latencies = list(workload.requests(typical).values())
    solve_s = workload.solve_s(typical)
    return {
        "setup_s": statistics.median(
            p.speed * p.stopwatch.total(*workload.setup_keys) for p in passes),
        "solve_s": solve_s,
        "total_s": workload.total_s(typical),
        "throughput_rps": len(workload.requests(typical)) / solve_s,
        "latency_p50_ms": percentile_ms(latencies, 50),
        "latency_p95_ms": percentile_ms(latencies, 95),
        "iterations": passes[0].iterations,
        "halo_bytes_per_iter": passes[0].halo_bytes_per_iter,
        "peak_rss_mb": peak_rss_mb(),
        "ok_rate": 1.0 - failed / attempted,
    }


def phase_shares(result) -> str:
    """Untraced wall-time shares of one pass by phase (``layer.call``)."""
    by_layer = defaultdict(float)
    for key, seconds in result.stopwatch.seconds.items():
        if key.startswith("serve.request."):
            continue  # concurrent client requests, inside serve.window
        by_layer[".".join(key.split(".")[:2])] += seconds
    return ", ".join(f"{k} {100 * v / result.total_s:.1f}%"
                     for k, v in sorted(by_layer.items(), key=lambda kv: -kv[1]))


# ---------------------------------------------------------------------------
def traced_pass(workload, inp: dict):
    from budget import LayerTracer
    from repro.instrument import MetricsRegistry, tracing

    tracer, metrics = LayerTracer(), MetricsRegistry()
    with tracing(tracer, metrics):
        result = workload.run_pass(inp)
    return result, tracer, metrics


def per_layer(result, untraced_total: float, tracer, metrics) -> tuple[dict, dict]:
    """Per-layer metrics of one traced pass, and its budget."""
    names = tracer.names()
    total = defaultdict(float, {n: v["total_s"] for n, v in names.items()})
    sw = result.stopwatch.seconds
    layer = result.layer
    counter = metrics.sum_values

    # whole builder calls by method and geometry; the farm builds inside its
    # workers, where only the program's precond.* spans see the build
    builds = defaultdict(float, {k.removeprefix("core.build."): v
                                 for k, v in sw.items() if k.startswith("core.build.")})
    if "farm_build" in layer:
        builds[layer["farm_build"]] = sum(
            v["outer_s"] for n, v in names.items() if n.startswith("precond."))

    replay = total["cachesim.spmv_misses"] + total["cachesim.precond_x_misses"]
    pcg_iters = counter("pcg.iterations")
    mpisim_solve = sw.get("mpisim.solve.cg", 0.0) + sw.get("mpisim.solve.pipelined", 0.0)
    rank_iters = layer.get("mpisim.rank_iterations", 0)
    plan = tracer.budget(result.client_intervals, result.total_s)

    values = {
        "partition.s": total["partition.from_matrix"] + total["partition.block_2d"],
        "partition.edge_cut": layer["partition.edge_cut"],
        "partition.max_imbalance": layer["partition.max_imbalance"],
        "dist.from_global_s": total["dist.from_global"],
        "dist.from_global_calls": layer.get(
            "dist.from_global_calls", names.get("dist.from_global", {}).get("count", 0)),
        **{f"core.build_s.{m}_{g}B": builds[f"{m}_{g}B"]
           for g in (64, 256) for m in ("fsai", "fsaie", "comm")},
        "core.pattern_s": total["precond.pattern"],
        "core.extension_s": total["precond.extension"],
        "core.filtering_s": total["precond.filtering"],
        "core.factor_s": total["precond.factor"],
        "core.distribute_s": total["precond.distribute"],
        "core.ext_kept_ratio": layer["core.ext_kept_ratio"],
        "core.pcg_s": total["pcg.solve"],
        "core.pcg_iter_us": 1e6 * total["pcg.solve"] / pcg_iters if pcg_iters else 0.0,
        "kernels.allocs": counter("kernels.allocs"),
        "kernels.plan_cache.hits": counter("kernels.plan_cache.hits"),
        "kernels.plan_cache.misses": counter("kernels.plan_cache.misses"),
        "cachesim.replay_s": replay,
        "cachesim.accesses": counter("cachesim.hits") + counter("cachesim.misses"),
        "cachesim.misses": counter("cachesim.misses"),
        "perfmodel.iteration_cost_s": total["perfmodel.iteration_cost"],
        "perfmodel.self_s": total["perfmodel.iteration_cost"] - replay,
        "perfmodel.modeled_gain_pct": layer.get("perfmodel.modeled_gain_pct", 0.0),
        "mpisim.solve_s.cg": sw.get("mpisim.solve.cg", 0.0),
        "mpisim.solve_s.pipelined": sw.get("mpisim.solve.pipelined", 0.0),
        "mpisim.rank_iter_us": 1e6 * mpisim_solve / rank_iters if rank_iters else 0.0,
        "mpisim.halo_wait_s": total["spmd.halo.wait"],
        "mpisim.reduction_s": total["spmd.reduction"],
        "mpisim.compute_s": total["spmd.compute"],
        "mpisim.messages": layer.get("mpisim.messages", 0),
        "mpisim.bytes": layer.get("mpisim.bytes", 0),
        **{k: layer.get(k, 0) for k in (
            "serve.structure_hits", "serve.system_hits", "serve.system_misses",
            "serve.hit_ratio", "serve.worker_ms_p50", "serve.queue_wait_ms_p50",
            "serve.miss_ms_p50", "serve.audits", "serve.audit_violations")},
        "trace.overhead_pct": 100.0 * (result.total_s - untraced_total) / untraced_total,
        "trace.coverage_pct": 100.0 * plan["coverage"],
        **{f"share.{name}_pct": 100.0 * seconds / result.total_s
           for name, seconds in plan["wall"].items()},
    }
    return values, plan


def write_spans(workload: str, seed: int, tracer, plan: dict) -> Path:
    """Write the traced pass: per-span-name totals and the layer budget."""
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{workload}-seed{seed}.trace.json"
    doc = {"workload": workload, "seed": seed, "budget": plan, "spans": tracer.names()}
    path.write_text(json.dumps(doc, indent=1) + "\n")
    return path


# ---------------------------------------------------------------------------
def report(title: str, spec_metrics, values: dict, notes=()) -> None:
    print(f"== {title}")
    for m in spec_metrics:
        print(f"  {m['name']:<34} {values[m['name']]:>16.6g} {m['unit']}")
    for note in notes:
        print(f"  note: {note}")


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    pin_to_one_cpu()
    import_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    inp = workload.inputs(args.seed)

    if args.trace:
        untraced = workload.run_pass(inp)
        result, tracer, metrics = traced_pass(workload, inp)
        passes = [untraced, result]
        values, plan = per_layer(result, untraced.total_s, tracer, metrics)
        path = write_spans(args.workload, args.seed, tracer, plan)
        spec_metrics = spec["per_layer"]
        notes = [f"spans written to {path.relative_to(ROOT)}",
                 f"peak RSS {peak_rss_mb():.0f} MB"]
        notes += [f"busy {k}: {v:.3f} thread-s" for k, v in plan["busy"].items() if v]
    else:
        passes = measure(workload, inp, args.seconds)
        spec_metrics = spec["end_to_end"]
        requests = workload.requests(passes[0].stopwatch.samples)
        samples = sum(len(p.stopwatch.samples[k]) for p in passes for k in requests)
        notes = [f"{len(passes)} passes; latencies of {len(requests)} requests, "
                 f"each the median of its {samples // len(requests)} samples",
                 "host speed factor of each pass (timings above are multiplied by it): "
                 + ", ".join(f"{p.speed:.3f} ({p.probes} samples)" for p in passes),
                 f"untraced layer shares of the median pass: "
                 f"{phase_shares(sorted(passes, key=lambda p: p.total_s)[len(passes) // 2])}"]

    # exact counts must repeat bit-identically from pass to pass
    for p in passes[1:]:
        p.check(p.exact == passes[0].exact,
                f"exact counts changed between passes: {p.exact} != {passes[0].exact}")
    attempted = sum(p.checks for p in passes)
    failures = [f for p in passes for f in p.failures]
    if not args.trace:
        values = end_to_end(workload, passes, attempted, len(failures))

    report(f"{args.workload} seed={args.seed} trace={args.trace}", spec_metrics, values,
           notes + [f"check failed: {f}" for f in failures])
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in spec_metrics},
    }))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
