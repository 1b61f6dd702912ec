"""Run every workload, or a few, over several seeds and summarise.

Usage (from the repository root)::

    python3 perfbench/suite.py                    # each workload once, plus a traced run
    python3 perfbench/suite.py --runs 10 --repeat --traced 2
    python3 perfbench/suite.py --workloads serve-mixed --runs 5 --traced 0

Each run is its own ``perfbench/run.py`` process, so peak memory and the
program's in-process caches never carry from one workload or seed to the
next.  For every end-to-end metric the summary gives the median and the
quartiles over the seeds (``statistics.quantiles(values, n=4)``) and the
interquartile spread as a share of the median, and names each metric whose
spread exceeds its bound in ``BENCHMARK.json``.  ``--repeat`` makes the
untraced run on the first seed twice and ``--traced 2`` the traced run;
every metric that ``perfbench/catalog.json`` marks exact must then repeat
bit-identically.
The process exits 1 if any run failed, any spread exceeds its bound or an
exact count did not repeat.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark process; returns its result object (or raises)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"{workload} seed={seed} trace={trace} exited {proc.returncode}:\n"
            f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def spread(values) -> tuple[float, float, float, float]:
    """(median, first quartile, third quartile, IQR over median)."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def compare_exact(workload: str, exact: set, first: dict, second: dict, problems: list) -> None:
    """Every exact metric of two runs on one seed must be bit-identical."""
    for name in sorted(exact & first["metrics"].keys()):
        a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
        if a != b:
            problems.append(f"{workload} {name}: exact count {a!r} != {b!r}")


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    catalog = json.loads((HERE / "catalog.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--runs", type=int, default=1, help="untraced runs (seeds) per workload")
    parser.add_argument("--seed", type=int, default=1, help="first seed")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--traced", type=int, default=1, help="traced runs on the first seed")
    parser.add_argument("--repeat", action="store_true",
                        help="run the first seed untraced twice and compare exact metrics")
    args = parser.parse_args(argv)

    exact = {name for name, m in catalog["metrics"].items() if m["exact"]}
    problems = []
    for workload in args.workloads.split(","):
        runs = []
        for seed in range(args.seed, args.seed + args.runs):
            try:
                runs.append(run_once(workload, seed, args.seconds, 0))
            except RuntimeError as exc:
                problems.append(str(exc))
        if args.repeat and runs:
            try:
                again = run_once(workload, args.seed, args.seconds, 0)
                compare_exact(workload, exact, runs[0], again, problems)
            except RuntimeError as exc:
                problems.append(str(exc))
        print(f"== {workload}: {len(runs)} untraced runs, seeds {args.seed}.."
              f"{args.seed + args.runs - 1}")
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            if not values:
                continue
            med, q1, q3, rel = spread(values)
            flag = ""
            if m["name"] != "setup_s" and rel > m["bound"]:
                flag = "  SPREAD ABOVE BOUND"
                problems.append(f"{workload} {m['name']}: spread {rel:.3f} > bound {m['bound']}")
            elif rel > m["bound"] / 3:
                flag = "  (spread above a third of the bound)"
            print(f"  {m['name']:<22} median {med:>13.6g} {m['unit']:<6} "
                  f"q1 {q1:>13.6g}  q3 {q3:>13.6g}  spread {rel:6.3f} / {m['bound']}{flag}")
            print(f"  {'':<22} runs   {' '.join(f'{v:.4g}' for v in values)}")
        traced = []
        for _ in range(args.traced):
            try:
                traced.append(run_once(workload, args.seed, args.seconds, 1))
            except RuntimeError as exc:
                problems.append(str(exc))
        if traced:
            print(f"  per-layer metrics (traced, seed {args.seed}):")
            for m in spec["per_layer"]:
                value = traced[0]["metrics"][m["name"]]["value"]
                print(f"    {m['name']:<30} {value:>14.6g} {m['unit']}")
            for other in traced[1:]:
                compare_exact(workload, exact, traced[0], other, problems)
    for p in problems:
        print(f"problem: {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
