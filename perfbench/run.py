"""cyclicwave benchmark: one workload, one process, one thread.

    python3 perfbench/run.py --workload {chart,certify,torus} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
./src.  Operations form a closed loop with one client: the next CLI call
starts when the previous one has returned and its outputs are checked.

--trace 0 times the operations untraced and reports the end-to-end metrics
wall_s, setup_s and peak_rss_mb.  --trace 1 wraps each layer's public
functions (spans.py) and reports the per-layer metrics; it writes the spans
to .perfbench-out/ at the end.  Either way the last line of standard output
is one JSON object {correct, attempted, failed, metrics}.  Human-readable
lines before it give the inputs, the provenance and a summary that includes
fail_frac = failed / attempted.
"""

import argparse
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
SETUP_REPEATS = 3
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# Thread pools read these when numpy is first imported, so they are set
# before any import below; CYCLICWAVE_THREADS stays unset (serial sweep).
for _var in BLAS_ENV:
    os.environ[_var] = "1"
os.environ.pop("CYCLICWAVE_THREADS", None)

import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
from importlib import metadata  # noqa: E402

from workloads import WORKLOADS, CheckFailed  # noqa: E402


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def provenance():
    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        commit = res.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "click": metadata.version("click"),
        "blas_threads": {v: os.environ[v] for v in BLAS_ENV},
        "cyclicwave_threads": os.environ.get("CYCLICWAVE_THREADS"),
        "git_commit": commit,
    }


def measure_setup(command, work):
    """Median wall time of a fresh interpreter importing the CLI and
    dispatching `command --help`; the in-process import before it has
    already written the bytecode cache."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        res = subprocess.run([sys.executable, "-m", "cyclicwave.cli", command, "--help"],
                             cwd=work, env=env, capture_output=True, timeout=120)
        times.append(time.perf_counter() - t0)
        if res.returncode != 0 or b"Usage:" not in res.stdout:
            raise RuntimeError(f"CLI dispatch failed: {res.stderr.decode()[-500:]}")
    return statistics.median(times)


class Runner:
    """Runs and checks operations of one workload; counts what failed."""

    def __init__(self, workload, work):
        from cyclicwave import cli

        self.cli = cli
        self.workload = workload
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.reference = None  # bytes of the first operation's outputs
        self.last_files = None

    def call_cli(self, out_dir):
        try:
            self.cli.main.main(args=self.workload.argv(out_dir), prog_name="cyclicwave",
                               standalone_mode=True)
        except SystemExit as exc:
            return exc.code or 0
        return 0

    def operation(self, tracer=None):
        """One CLI call plus its output checks; returns (seconds, bytes out)."""
        self.attempted += 1
        out_dir = Path(tempfile.mkdtemp(dir=self.work))
        t0 = time.perf_counter()
        err = None
        try:
            code = (self.call_cli(out_dir) if tracer is None
                    else tracer.run(self.call_cli, out_dir))
            if code != 0:
                raise CheckFailed(f"exit code {code}")
            files = {n: (out_dir / n).read_bytes() for n in self.workload.outputs}
            self.workload.check(files)
            if self.reference is None:
                self.reference = files
            elif files != self.reference:
                raise CheckFailed("outputs differ from the run's first operation")
        except Exception as exc:  # every failure is counted, none is fatal
            err = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
        shutil.rmtree(out_dir)
        if err is not None:
            self.failed += 1
            print(f"# operation {self.attempted} failed: {err}", flush=True)
            return seconds, 0
        self.last_files = files
        return seconds, sum(len(b) for b in files.values())

    def self_test(self):
        """A corrupted copy of a good output must fail the checks."""
        try:
            self.workload.check(self.workload.corrupt(self.last_files))
        except CheckFailed:
            return True
        return False


def run_untraced(runner, seconds):
    walls = []
    t0 = time.perf_counter()
    while not walls or time.perf_counter() - t0 < seconds:
        walls.append(runner.operation()[0])
    return walls


def run_traced(runner, seconds, untraced_wall, spans_path):
    from spans import EXACT_COUNTS, Tracer

    per_op, records = [], []
    t0 = time.perf_counter()
    while len(per_op) < 2 or time.perf_counter() - t0 < seconds:
        tracer, failed = Tracer(), runner.failed
        tracer.install()
        try:
            wall, nbytes = runner.operation(tracer)
        finally:
            tracer.uninstall()
        m = tracer.metrics()
        m["cli.bytes_out"] = nbytes
        m["trace.wall_s"] = wall
        per_op.append(m)
        records.extend(tracer.span_records(len(per_op)))
        moved = [n for n in EXACT_COUNTS if m[n] != per_op[0][n]]
        if moved and runner.failed == failed:  # not yet counted as failed
            runner.failed += 1
            print(f"# counts differ from the first traced operation: {moved}", flush=True)
    with open(spans_path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")
    metrics = {}
    for name in per_op[0]:
        vals = [m[name] for m in per_op]
        metrics[name] = vals[0] if name in EXACT_COUNTS else statistics.median(vals)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - untraced_wall
    return metrics


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "cyclicwave" / "cli.py").is_file():
        print(f"error: no cyclicwave package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in WORKLOADS or args.seconds <= 0:
        print(f"error: unknown workload {args.workload!r} or bad --seconds",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed)
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        prov = provenance()
        print(f"# workload={workload.name} seed={args.seed} trace={args.trace} "
              f"{workload.describe()}")
        print("# provenance " + json.dumps(prov), flush=True)
        runner = Runner(workload, work)
        setup_s = None if args.trace else measure_setup(workload.command, work)
        warm, _ = runner.operation()  # warm-up: checked, not timed
        if args.trace:
            spans = OUT / f"spans-{workload.name}-seed{args.seed}.jsonl"
            metrics = run_traced(runner, args.seconds, warm, spans)
            print(f"# traced {workload.name}: spans in {spans}")
        else:
            walls = run_untraced(runner, args.seconds)
            metrics = {
                "wall_s": statistics.median(walls),
                "setup_s": setup_s,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            print(f"# wall_s per operation: median {metrics['wall_s']:.4f} s, "
                  f"max {max(walls):.4f} s, n={len(walls)} timed (too few for a tail "
                  f"percentile); warm-up {warm:.4f} s; all: "
                  + " ".join(f"{w:.4f}" for w in walls))
        if runner.last_files is not None and not runner.self_test():
            print("error: harness self-test failed: a corrupted output passed "
                  "the checks", file=sys.stderr)
            return 1
        print(f"# fail_frac {runner.failed}/{runner.attempted} = "
              f"{runner.failed / runner.attempted:.4g}")
        for name, value in metrics.items():
            print(f"#   {name:40s} {value:.6g} {unit_of(name)}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


def unit_of(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name == "cli.bytes_out":
        return "bytes"
    if name.endswith("_per_step"):
        return "1/step"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
