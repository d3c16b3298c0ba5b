"""Run the benchmark k times per workload, one seed each, and report how steady it is.

    python3 e2ebench/steady.py --runs 10
    python3 e2ebench/steady.py --runs 5 --workloads dense_mosaic --baseline .e2ebench/results/A.json

Run it from the repository root. It reads the command, run length,
workloads and bounds from BENCHMARK.json, runs the workloads in turn for
each seed from 1 to --runs, and prints for every end-to-end metric its median, its quartiles
and their distance as a share of the median (the spread), beside the
metric's bound. It also prints each workload's share of failed operations,
which must be the same in every run. The raw results go to
.e2ebench/results/steady-<time>.json; with --baseline, each median is
also compared with that of an earlier results file.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path
from statistics import median, quantiles


def run_once(spec: dict, workload: str, seed: int) -> dict:
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    started = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    wall = time.monotonic() - started
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    result = json.loads(lines[-1])
    result["wall_s"] = wall
    return result


def summarize(spec: dict, results: dict[str, list[dict]], baseline: dict | None) -> bool:
    steady = True
    for workload, runs in results.items():
        walls = [r["wall_s"] for r in runs]
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        print(f"\n{workload}: {len(runs)} runs, wall {min(walls):.1f}-{max(walls):.1f} s, "
              f"correct {all(r['correct'] for r in runs)}, failed shares {shares}")
        print(f"  {'metric':30s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>7s} "
              f"{'bound':>6s}  note")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [r["metrics"][name]["value"] for r in runs]
            med = median(values)
            q1, _, q3 = quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else float("inf")
            note = []
            if spread > bound:
                note.append("SPREAD OVER BOUND")
                steady = False
            elif spread > bound / 3:
                note.append("spread over a third of the bound")
            if baseline and workload in baseline:
                old = median(r["metrics"][name]["value"] for r in baseline[workload])
                change = (med - old) / old
                worse = change if metric["better"] == "lower" else -change
                note.append(f"vs baseline {change:+.1%}")
                if worse > bound:
                    note.append("WORSE THAN BOUND")
                    steady = False
            print(f"  {name:30s} {med:12.4f} {q1:12.4f} {q3:12.4f} {spread:7.1%} "
                  f"{bound:6.2f}  {' '.join(note)}")
        if len(shares) != 1:
            print("  FAILED SHARE DIFFERS BETWEEN RUNS")
            steady = False
    return steady


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--workloads", help="comma-separated names; default all in BENCHMARK.json")
    p.add_argument("--baseline", help="an earlier results file to compare medians with")
    args = p.parse_args(argv)

    spec = json.loads(Path("BENCHMARK.json").read_text())
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    results: dict[str, list[dict]] = {name: [] for name in names}
    for seed in range(1, args.runs + 1):
        for name in names:
            r = run_once(spec, name, seed)
            results[name].append(r)
            print(f"{name} seed {seed}: {r['wall_s']:.1f} s, correct {r['correct']}, "
                  f"attempted {r['attempted']}, failed {r['failed']}", flush=True)
    out = Path(".e2ebench") / "results" / time.strftime("steady-%Y%m%d-%H%M%S.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(results, indent=1))
    print(f"results: {out}")
    baseline = json.loads(Path(args.baseline).read_text()) if args.baseline else None
    return 0 if summarize(spec, results, baseline) else 1


if __name__ == "__main__":
    sys.exit(main())
