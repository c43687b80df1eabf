"""Benchmark runner: time to a verified A-infinity model.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload cli-n2 --seed 1 --seconds 45 --trace 0

Every operation runs cold, in a fresh interpreter started by this process
(child.py), one child at a time.  A run first starts five set-up-only
children, then runs whole rounds of two operations until --seconds have
passed (at least one round).  Each child's set-up is timed here, from spawn to its ready line;
its operation is timed inside it; its peak RSS is its own.  The outputs
are verified by the independent checks in checks.py.

With --trace 0 the last stdout line reports the end-to-end metrics
(medians over the run); with --trace 1 it runs pairs of untraced and
traced children and reports the per-layer metrics of spans.py, plus
trace.overhead_s.  Results and spans are written under .perfbench/.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
WORKLOADS = ("cli-n2", "versal-n3", "deep-n1", "smash-z3")
SETUP_PROBES = 5
# Operations per round.  The machine's speed varies from one operation to
# the next with a slow tail; with an even count the median is the mean of
# the two middle operations, which is steadier than a single one.
ROUND = 2
DEADLINE_S = 170.0
READY = "perfbench-ready"


class BenchError(RuntimeError):
    """A child that could not run: no result is printed."""


class Child:
    """One fresh interpreter running child.py."""

    def __init__(self, workload, seed, deadline, extra=()):
        cmd = [
            sys.executable, "-s", str(HERE / "child.py"), "--root", str(ROOT),
            "--workload", workload, "--seed", str(seed), *extra,
        ]
        env = dict(os.environ, PYTHONHASHSEED="0")
        env.pop("PYTHONPATH", None)
        self.deadline = deadline
        start = perf_counter()
        self.proc = subprocess.Popen(
            cmd, cwd=ROOT, env=env, text=True,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )
        line = self.proc.stdout.readline()
        self.setup_s = perf_counter() - start
        if line.strip() != READY:
            self.finish("")
            raise BenchError(f"{workload}: child failed during set-up")

    def finish(self, go):
        """Send the go line, collect stdout and reap the child."""
        try:
            out, _ = self.proc.communicate(
                go, timeout=max(self.deadline - perf_counter(), 1.0)
            )
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
            raise BenchError("child ran past the deadline") from None
        return out


def run_op(workload, seed, deadline, trace_out=None):
    extra = ("--trace-out", str(trace_out)) if trace_out else ()
    child = Child(workload, seed, deadline, extra)
    out = child.finish("go\n")
    lines = out.strip().splitlines()
    if child.proc.returncode != 0 or not lines:
        raise BenchError(f"{workload}: child exited {child.proc.returncode}")
    res = json.loads(lines[-1])
    res["setup_s"] = child.setup_s
    return res


def measure(args):
    deadline = perf_counter() + DEADLINE_S
    setups = []
    for _ in range(SETUP_PROBES):
        child = Child(args.workload, args.seed, deadline, ("--setup-only",))
        child.finish("stop\n")
        setups.append(child.setup_s)
    plain, traced = [], []
    start = perf_counter()
    while not plain or perf_counter() - start < args.seconds:
        if args.trace:
            OUT.mkdir(exist_ok=True)
            path = OUT / f"{args.workload}.spans"
            plain.append(run_op(args.workload, args.seed, deadline))
            traced.append(run_op(args.workload, args.seed, deadline, path))
        else:
            for _ in range(ROUND):
                plain.append(run_op(args.workload, args.seed, deadline))
    return setups, plain, traced


def summarize(args, setups, plain, traced):
    ops = plain + traced
    failed = [r for r in ops if r["error"]]
    good = [r for r in ops if not r["error"]]
    digests = {r["digest"] for r in good}
    problems = [p for r in good for p in r["problems"]]
    missed = [m for r in good for m in r["missed_controls"]]
    correct = not problems and not missed and len(digests) <= 1
    for text in [r["error"] for r in failed] + problems + missed:
        print(f"{args.workload}: {text}", file=sys.stderr)
    if len(digests) > 1:
        print(f"{args.workload}: outputs differ between runs", file=sys.stderr)
    planted = sum(r["controls"] for r in good)
    print(f"{args.workload}: {len(good)} outputs checked, {len(problems)} problems; "
          f"{planted} negative controls planted, {planted - len(missed)} caught",
          file=sys.stderr)

    def med(key, rows):
        vals = [r[key] for r in rows if not r["error"]]
        return median(vals) if vals else 0.0

    if args.trace:
        import spans

        metrics = {
            name: {"value": median(r["layers"][name] for r in traced), "unit": unit}
            for name, unit, *_ in spans.LAYER_METRICS
        }
        metrics["trace.overhead_s"] = {
            "value": med("wall_s", traced) - med("wall_s", plain), "unit": "s"
        }
        absent = sorted({a for r in traced for a in r["absent"]})
        if absent:
            print(f"{args.workload}: absent boundaries: {', '.join(absent)}",
                  file=sys.stderr)
    else:
        metrics = {
            "wall_s": {"value": med("wall_s", plain), "unit": "s"},
            "peak_rss_mib": {"value": med("rss_mib", plain), "unit": "MiB"},
            "setup_s": {
                "value": median(setups + [r["setup_s"] for r in plain]), "unit": "s"
            },
        }
    result = {
        "correct": correct,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": metrics,
    }
    per_op = [
        {key: r.get(key) for key in ("wall_s", "rss_mib", "setup_s", "error")}
        for r in ops
    ]
    return result, {"setup_probes_s": setups, "operations": per_op}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=45)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "koszulmf" / "__init__.py").is_file():
        print(f"perfbench: no program source at {ROOT / 'src' / 'koszulmf'}",
              file=sys.stderr)
        return 2
    try:
        result, detail = summarize(args, *measure(args))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    suffix = "trace" if args.trace else "run"
    (OUT / f"{args.workload}-{suffix}.json").write_text(
        json.dumps(dict(result, **detail), indent=2)
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
