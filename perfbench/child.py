"""One benchmark operation in a fresh interpreter (started by run.py).

Protocol on stdout/stdin: the child imports the program and builds the
workload's inputs, prints `perfbench-ready`, and waits for a line on stdin.
With --setup-only it then exits.  Otherwise it times one call of the
workload, reads its own peak RSS, runs the independent checks and their
negative controls, and prints one JSON line with the result.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import sys
import traceback
from collections import Counter
from time import perf_counter

READY = "perfbench-ready"


def _count_calls():
    """Count minimal_mu calls per arity (for the admissible-tuple check).

    Returns None when the program no longer has minimal_mu."""
    from koszulmf import minimal

    inner = getattr(minimal, "minimal_mu", None)
    if inner is None:
        return None
    calls = Counter()

    def counted(k, *args, **kwargs):
        calls[k] += 1
        return inner(k, *args, **kwargs)

    minimal.minimal_mu = counted
    return calls


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace-out", default=None)
    args = ap.parse_args()
    sys.path.insert(0, os.path.join(args.root, "src"))

    import checks
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    inputs = wl.setup()
    print(READY, flush=True)
    sys.stdin.readline()
    if args.setup_only:
        return 0

    tracer = None
    if args.trace_out:
        import spans

        tracer = spans.Tracer()
        tracer.install()
    calls = _count_calls()
    result = {"error": None}

    if tracer is not None:
        root_span = tracer.begin(f"bench.{args.workload}")
    start = perf_counter()
    try:
        output = wl.run(inputs)
    except Exception:  # a failed operation is counted, not fatal
        output = None
        result["error"] = traceback.format_exc(limit=3)
    result["wall_s"] = perf_counter() - start
    if tracer is not None:
        tracer.finish(root_span)
    result["rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if output is not None:
        try:
            problems, controls, digest = wl.check(
                inputs, output, calls, random.Random(args.seed)
            )
            missed = checks.controls_missed(controls)
        except Exception:
            problems, controls, missed = [traceback.format_exc(limit=3)], [], []
            digest = None
        result.update(problems=problems, controls=len(controls),
                      missed_controls=missed, digest=digest)
    if tracer is not None:
        result["layers"] = spans.layer_metrics(tracer)
        result["absent"] = tracer.absent
        tracer.write(args.trace_out)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
