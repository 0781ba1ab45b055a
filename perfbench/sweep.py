"""Run the benchmark over several seeds and summarise the spread.

    python3 perfbench/sweep.py --workloads chart,certify,torus --seeds 1-10 \
        [--seconds 15] [--trace] [--out FILE]

`--seeds` takes ranges and lists, e.g. 1-10 or 0,0.

Each run is `perfbench/run.py` in its own process, one after another.  For
every metric the summary gives the median over the runs, the quartiles as
`statistics.quantiles(values, n=4)` computes them, and the spread: the
interquartile distance as a share of the median, which BENCHMARK.json's
bounds are set against.  --out writes every run's result, the summary and
the provenance to a JSON file (a point of the trajectory/ record), under
the key "trace=0" or "trace=1"; the other key, if the file has it, is kept.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text):
    """'1-10' or '0,0' (a seed may repeat) or a mix of both."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_one(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
    t0 = time.perf_counter()
    res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    elapsed = time.perf_counter() - t0
    lines = res.stdout.strip().splitlines()
    if res.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {res.returncode}: "
                           f"{res.stderr[-2000:]}")
    prov = next(json.loads(ln.split(" ", 2)[2]) for ln in lines
                if ln.startswith("# provenance "))
    return {"workload": workload, "seed": seed, "trace": int(trace),
            "run_s": elapsed, "result": json.loads(lines[-1])}, prov


def summarise(runs):
    summary = {}
    for name in runs[0]["result"]["metrics"]:
        vals = [r["result"]["metrics"][name]["value"] for r in runs]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        summary[name] = {"median": med, "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / med if med else None,
                         "unit": runs[0]["result"]["metrics"][name]["unit"]}
    return summary


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workloads", default="chart,certify,torus")
    p.add_argument("--seeds", default="1-10", type=seed_list)
    p.add_argument("--seconds", type=float,
                   default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    p.add_argument("--trace", action="store_true")
    p.add_argument("--out", type=Path)
    args = p.parse_args(argv)

    record = {"seconds": args.seconds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            run, record["provenance"] = run_one(workload, seed, args.seconds, args.trace)
            res = run["result"]
            print(f"{workload} seed={seed} run_s={run['run_s']:.1f} "
                  f"attempted={res['attempted']} failed={res['failed']} "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()
                             if not args.trace or k.endswith(("_s", "calls", "steps"))),
                  flush=True)
            runs.append(run)
        summary = summarise(runs)
        record["workloads"][workload] = {"runs": runs, "summary": summary}
        for name, s in summary.items():
            spread = "n/a" if s["spread"] is None else f"{s['spread']:.4f}"
            print(f"  {workload:8s} {name:40s} median {s['median']:.6g} {s['unit']} "
                  f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} spread {spread}", flush=True)
    if args.out:
        point = json.loads(args.out.read_text()) if args.out.exists() else {}
        point[f"trace={int(args.trace)}"] = record
        args.out.write_text(json.dumps(point, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
