"""Span tracer for the traced benchmark run.

The program is not instrumented.  Instead, `Tracer.install` replaces every
binding of a traced public function in every loaded `koszulmf` module with
a wrapper that records one span per call: name, start, end and the span
that was open when it was called (its parent).  `koszulmf.minimal` imports
`differential`, `multiply_monomials`, `reduce`, `LinSolver` and
`bigraded_basis` by name, so wrapping only the defining module would miss
every call the engine makes; scanning all bindings catches those and any
later import by name.

`multiply_monomials` is named after the module whose binding was called:
`weyl.multiply_monomials` (the differential and the cocycle
representatives, through `OperatorElement.__mul__`) versus
`minimal.multiply_monomials` (tree-sum product-memo misses in
`_Engine.product`).  Every other function is named after its defining
module.  A traced function or class that no longer exists is reported as
absent; the run does not fail.

Spans are kept in four flat arrays while the workload runs and are written
out when it ends.  A span's self time is its duration minus the time its
child spans cover.

Run `python3 perfbench/spans.py <file.spans>` to print the per-span-name
totals of a written trace.
"""

from __future__ import annotations

import importlib
import json
import sys
from array import array
from time import perf_counter

# (defining module, attribute).  Besides the boundaries with a metric, the
# other public functions the CLI calls are traced too, so that
# cli.main.self_s is only argument parsing and report rendering.
FUNCTIONS = [
    ("weyl", "multiply_monomials"),
    ("weyl", "differential"),
    ("weyl", "bigraded_basis"),
    ("linalg", "reduce"),
    ("minimal", "minimal_mu"),
    ("minimal", "build_minimal_model"),
    ("minimal", "admissible_tuples"),
    ("minimal", "obstruction_class"),
    ("minimal", "permutation_table"),
    ("ainfty", "check_stasheff"),
    ("ainfty", "smash"),
    ("ainfty", "from_minimal_model"),
    ("ainfty", "exterior_normalize"),
    ("ainfty", "supercommutativity_check"),
    ("cli", "main"),
]
METHODS = [
    ("linalg", "LinSolver", "__init__", "linalg.LinSolver.build"),
    ("linalg", "LinSolver", "solve", "linalg.LinSolver.solve"),
    ("ainfty", "FiniteAInftyAlgebra", "validate_graded",
     "ainfty.FiniteAInftyAlgebra.validate_graded"),
]
SPLIT_BY_CALLER = {"multiply_monomials"}


def _nonzero_entries(alg):
    return sum(1 for table in alg.ops.values() for c in table.values() if c)


# Work counts recorded at a boundary: name -> f(args, result) -> {count: n}.
_COUNTS = {
    "weyl.bigraded_basis": lambda args, res: {"monomials": len(res)},
    "linalg.reduce": lambda args, res: {
        "nnz": len(getattr(args[0], "entries", ())),
        "max_cols": getattr(args[0], "cols", 0),
    },
    "minimal.minimal_mu": lambda args, res: {"useful": 1 if res else 0},
    "ainfty.check_stasheff": lambda args, res: {
        "entries": _nonzero_entries(args[0])
    },
    "ainfty.smash": lambda args, res: {"entries": _nonzero_entries(res)},
}
_MAX_COUNTS = {"max_cols"}


class Tracer:
    """Records spans around the traced boundaries of the koszulmf modules."""

    def __init__(self):
        self.names = []          # span name table
        self._ids = {}
        self.name_id = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts = {}         # span name -> {count name: value}
        self.absent = []         # traced boundaries the program no longer has

    def _id(self, name):
        sid = self._ids.get(name)
        if sid is None:
            sid = self._ids[name] = len(self.names)
            self.names.append(name)
        return sid

    def _wrap(self, fn, name):
        sid = self._id(name)
        count = _COUNTS.get(name)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack = self._stack
        counts = self.counts.setdefault(name, {})
        clock = perf_counter

        def traced(*args, **kwargs):  # begin() and finish() inlined: runs per call
            i = len(start)
            name_id.append(sid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                res = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if count is not None:
                for key, val in count(args, res).items():
                    if key in _MAX_COUNTS:
                        counts[key] = max(counts.get(key, 0), val)
                    else:
                        counts[key] = counts.get(key, 0) + val
            return res

        return traced

    def install(self):
        """Wrap every binding of each traced function in koszulmf.*."""
        for home in {home for home, _ in FUNCTIONS} | {m[0] for m in METHODS}:
            try:
                importlib.import_module(f"koszulmf.{home}")
            except ImportError:
                pass  # its functions are reported absent below
        mods = {
            key.split(".", 1)[1]: mod
            for key, mod in list(sys.modules.items())
            if key.startswith("koszulmf.") and mod is not None
        }
        for home, attr in FUNCTIONS:
            fn = getattr(mods.get(home), attr, None)
            if fn is None:
                self.absent.append(f"{home}.{attr}")
                continue
            for where, mod in mods.items():
                for key, val in list(vars(mod).items()):
                    if val is not fn:
                        continue
                    owner = where if attr in SPLIT_BY_CALLER else home
                    setattr(mod, key, self._wrap(fn, f"{owner}.{attr}"))
        for home, cls_name, meth, name in METHODS:
            cls = getattr(mods.get(home), cls_name, None)
            fn = getattr(cls, meth, None) if cls is not None else None
            if fn is None:
                self.absent.append(name)
                continue
            setattr(cls, meth, self._wrap(fn, name))

    def begin(self, name):
        """Open a span from the benchmark itself; returns its index."""
        i = len(self.start)
        self.name_id.append(self._id(name))
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def finish(self, i):
        self.end[i] = perf_counter()
        self._stack.pop()

    def totals(self):
        """Per span name: calls, total seconds and self seconds."""
        child = [0.0] * len(self.start)
        start, end, parent = self.start, self.end, self.parent
        for i in range(len(start)):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        out = {}
        for i in range(len(start)):
            rec = out.get(self.names[self.name_id[i]])
            if rec is None:
                rec = out[self.names[self.name_id[i]]] = [0, 0.0, 0.0]
            dur = end[i] - start[i]
            rec[0] += 1
            rec[1] += dur
            rec[2] += dur - child[i]
        return {
            name: {"calls": c, "total_s": t, "self_s": s}
            for name, (c, t, s) in out.items()
        }

    def write(self, path):
        """Write the spans: a JSON header line, then the four raw arrays."""
        header = {
            "names": self.names,
            "spans": len(self.start),
            "absent": self.absent,
            "counts": self.counts,
            "arrays": [
                ["name_id", self.name_id.typecode],
                ["parent", self.parent.typecode],
                ["start", self.start.typecode],
                ["end", self.end.typecode],
            ],
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name_id, self.parent, self.start, self.end):
                arr.tofile(fh)


# Per-layer metrics: (name, unit, span name, field).  The field is
# calls, self_s, a count recorded at the boundary, or useful_ratio.
LAYER_METRICS = [
    ("weyl.multiply_monomials.calls", "count", "weyl.multiply_monomials", "calls"),
    ("weyl.multiply_monomials.self_s", "s", "weyl.multiply_monomials", "self_s"),
    ("weyl.differential.calls", "count", "weyl.differential", "calls"),
    ("weyl.differential.self_s", "s", "weyl.differential", "self_s"),
    ("weyl.bigraded_basis.calls", "count", "weyl.bigraded_basis", "calls"),
    ("weyl.bigraded_basis.monomials", "count", "weyl.bigraded_basis", "monomials"),
    ("weyl.bigraded_basis.self_s", "s", "weyl.bigraded_basis", "self_s"),
    ("linalg.reduce.calls", "count", "linalg.reduce", "calls"),
    ("linalg.reduce.nnz", "count", "linalg.reduce", "nnz"),
    ("linalg.reduce.max_cols", "count", "linalg.reduce", "max_cols"),
    ("linalg.reduce.self_s", "s", "linalg.reduce", "self_s"),
    ("linalg.LinSolver.build_calls", "count", "linalg.LinSolver.build", "calls"),
    ("linalg.LinSolver.build_s", "s", "linalg.LinSolver.build", "self_s"),
    ("linalg.LinSolver.solve_calls", "count", "linalg.LinSolver.solve", "calls"),
    ("linalg.LinSolver.solve_s", "s", "linalg.LinSolver.solve", "self_s"),
    ("minimal.minimal_mu.calls", "count", "minimal.minimal_mu", "calls"),
    ("minimal.minimal_mu.self_s", "s", "minimal.minimal_mu", "self_s"),
    ("minimal.minimal_mu.useful_ratio", "ratio", "minimal.minimal_mu", "useful_ratio"),
    ("minimal.multiply_monomials.calls", "count", "minimal.multiply_monomials", "calls"),
    ("minimal.multiply_monomials.self_s", "s", "minimal.multiply_monomials", "self_s"),
    ("minimal.build_minimal_model.self_s", "s", "minimal.build_minimal_model", "self_s"),
    ("minimal.admissible_tuples.self_s", "s", "minimal.admissible_tuples", "self_s"),
    ("ainfty.check_stasheff.entries", "count", "ainfty.check_stasheff", "entries"),
    ("ainfty.check_stasheff.self_s", "s", "ainfty.check_stasheff", "self_s"),
    ("ainfty.smash.entries", "count", "ainfty.smash", "entries"),
    ("ainfty.smash.self_s", "s", "ainfty.smash", "self_s"),
    ("cli.main.self_s", "s", "cli.main", "self_s"),
]


def layer_metrics(tracer):
    """The per-layer metrics of one traced run.  A boundary that was never
    called (or no longer exists) reads 0."""
    totals = tracer.totals()
    out = {}
    for metric, _, span, field in LAYER_METRICS:
        rec = totals.get(span, {})
        counts = tracer.counts.get(span, {})
        if field == "useful_ratio":
            calls = rec.get("calls", 0)
            value = counts.get("useful", 0) / calls if calls else 0.0
        elif field in rec:
            value = rec[field]
        else:
            value = counts.get(field, 0)
        out[metric] = value
    return out


def load(path):
    """Read a written trace back into a Tracer (for offline reading)."""
    tracer = Tracer()
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        tracer.names = header["names"]
        tracer.absent = header["absent"]
        tracer.counts = header["counts"]
        nspans = header["spans"]
        for attr, code in header["arrays"]:
            arr = array(code)
            arr.fromfile(fh, nspans)
            setattr(tracer, attr, arr)
    return tracer


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: python3 perfbench/spans.py <file.spans>")
    loaded = load(sys.argv[1])
    rows = sorted(loaded.totals().items(), key=lambda kv: -kv[1]["self_s"])
    print(f"{'span':44s} {'calls':>9s} {'total_s':>9s} {'self_s':>9s}")
    for name, rec in rows:
        print(f"{name:44s} {rec['calls']:9d} {rec['total_s']:9.3f} {rec['self_s']:9.3f}")
    if loaded.absent:
        print("absent:", ", ".join(loaded.absent))
