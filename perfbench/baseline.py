"""Repeat the benchmark over several seeds and summarise the spread.

    python3 perfbench/baseline.py --seeds 0-9 --seconds 20
    python3 perfbench/baseline.py --seeds 0-9 --trace-seeds 0,1 --write perfbench/BASELINE.json

For every workload and end-to-end metric this prints the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread, the
distance between the quartiles as a share of the median, next to the
metric's bound in BENCHMARK.json. ``--write`` stores the figures, the
traced per-layer numbers and the machine facts as a baseline file.
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
OUT = ROOT / ".perfbench"


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        elif part:
            seeds.append(int(part))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    summary = json.loads((OUT / f"summary-{workload}-trace{trace}.json").read_text())
    return {"result": result, "summary": summary}


def stats(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values) if statistics.median(values) else 0.0,
            "n": len(values), "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", default="0-9")
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--trace-seeds", default="")
    p.add_argument("--write", help="write the baseline JSON here")
    args = p.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    baseline = {"seeds": seeds, "run_seconds": args.seconds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = [run_once(workload, s, args.seconds, 0) for s in seeds]
        baseline["machine"] = runs[0]["summary"]["machine"]
        figures = {}
        for name in runs[0]["summary"]["metrics"]:
            values = [r["summary"]["metrics"][name]["value"] for r in runs]
            figures[name] = {**stats(values), "unit": runs[0]["summary"]["metrics"][name]["unit"]}
        entry = {"untraced": figures}
        print(f"== {workload}: {len(seeds)} seeds x {args.seconds} s")
        for name, f in figures.items():
            bound = bounds.get(name)
            flag = "" if bound is None else (
                f"bound {bound:.2f} " + ("ok" if f["spread"] < bound / 3 else
                                         "WIDE" if f["spread"] < bound else "OVER"))
            print(f"  {name:24s} median {f['median']:>14.6g} {f['unit']:6s} "
                  f"q1 {f['q1']:>12.6g} q3 {f['q3']:>12.6g} spread {f['spread']:7.2%} {flag}")
        trace_seeds = parse_seeds(args.trace_seeds)
        if trace_seeds:
            traced = [run_once(workload, s, args.seconds, 1)["summary"] for s in trace_seeds]
            entry["traced"] = {
                name: {"median": statistics.median(t["metrics"][name]["value"] for t in traced),
                       "unit": traced[0]["metrics"][name]["unit"], "n": len(traced)}
                for name in traced[0]["metrics"]
            }
            print(f"  traced ({len(trace_seeds)} runs):")
            for name, f in entry["traced"].items():
                print(f"    {name:34s} {f['median']:>14.6g} {f['unit']}")
        baseline["workloads"][workload] = entry
    if args.write:
        Path(args.write).write_text(json.dumps(baseline, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
