"""The four benchmark workloads.

Each workload has three parts, run in one fresh interpreter:

* `setup()` imports the program and builds the inputs (timed as set-up);
* `run(inputs)` is the timed call into the program's public functions;
* `check(inputs, output, calls, rng)` runs the independent checks of
  `checks.py` outside the timed region.  It returns (problems, negative
  controls, digest of the output); the caller runs the controls.

The program's inputs are fixed: every workload computes one well-defined
object (a model, a class, a smash product).  The seed only picks where the
negative controls plant their defects.

Program functions are always looked up on their module at call time
(`minimal.minimal_mu`, never a name bound at import), so the traced run's
wrappers see every call the benchmark makes.
"""

from __future__ import annotations

import hashlib
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from itertools import permutations
from math import lcm

import checks as C


def _digest(obj):
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def _num(coef):
    """A Fraction as an int when it is whole (much faster to multiply)."""
    return coef.numerator if coef.denominator == 1 else coef


def _plain(tables):
    """Program tables {k: {key: Fraction}} -> check tables with exponent 0."""
    return {
        k: {key: (_num(coef), 0) for key, coef in table.items() if coef}
        for k, table in tables.items()
    }


def _orderings(ops, n):
    """{ordering of the singletons: {K0: coef}} read off mu^{n+2}."""
    table = ops.get(n + 2, {})
    out = {}
    for perm in permutations([1 << i for i in range(n + 2)]):
        out[perm] = {k0: c for (k0, ins), (c, _) in table.items() if ins == perm}
    return out


def _model_checks(ops, n, arities, calls, rng, stasheff_to):
    """Checks shared by every workload that builds a whole model."""
    problems = (
        C.weight_problems(ops, n)
        + C.mu2_problems(ops[2], n)
        + C.stasheff_problems(ops, stasheff_to)
    )
    controls = (
        C.weight_controls(rng, ops, n)
        + C.mu2_controls(rng, ops[2], n)
        + C.stasheff_controls(rng, ops)
    )
    if calls is not None:  # None: the program has no minimal_mu to count
        problems += C.admissible_problems(calls, n, arities)
        controls += C.admissible_controls(rng, calls, n, arities)
    if n + 2 in ops:
        orderings = _orderings(ops, n)
        problems += C.versality_problems(orderings, n)
        controls += C.versality_controls(rng, orderings, n)
    return problems, controls


class CliN2:
    n = 2
    arities = (2, 4)

    def setup(self):
        from koszulmf import cli
        return cli

    def run(self, cli):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(["minimal-model", "--n", str(self.n)])
        return code, out.getvalue()

    def check(self, cli, output, calls, rng):
        code, text = output
        report = json.loads(text)
        results = report["results"]
        ops = {}
        for k, rows in results["model"]["tables"].items():
            ops[int(k)] = {
                (_mask(out), tuple(_mask(i) for i in ins)): (_num(Fraction(num, den)), 0)
                for out, ins, num, den in rows
            }
        problems, controls = _model_checks(
            ops, self.n, self.arities, calls, rng, 2 * self.n + 2
        )
        checks = results["checks"]
        total = sum(res.get(0, 0) for res in _orderings(ops, self.n).values())
        if code != 0 or results["pass"] is not True:
            problems.append(f"minimal-model exited {code}, pass={results['pass']}")
        if checks["stasheff_violations"]:
            problems.append("the report lists Stasheff violations")
        if Fraction(checks["obstruction_class"]) != total:
            problems.append(f"reported class {checks['obstruction_class']} != {total}")
        return problems, controls, _digest(json.dumps(results))


def _mask(elements):
    """A report subset (a list of 1-based indices) as a bitmask."""
    return sum(1 << (e - 1) for e in elements)


class VersalN3:
    n = 3

    def setup(self):
        from koszulmf import minimal, weyl
        singletons = [1 << i for i in range(self.n + 2)]
        return minimal, weyl.MFConfig(self.n), list(permutations(singletons))

    def run(self, inputs):
        minimal, cfg, perms = inputs
        return [minimal.minimal_mu(self.n + 2, p, cfg) for p in perms]

    def check(self, inputs, output, calls, rng):
        _, _, perms = inputs
        orderings = dict(zip(perms, output))
        ops = {self.n + 2: {
            (k0, p): (_num(c), 0) for p, res in orderings.items() for k0, c in res.items() if c
        }}
        problems = C.versality_problems(orderings, self.n) + C.weight_problems(ops, self.n)
        controls = (C.versality_controls(rng, orderings, self.n)
                    + C.weight_controls(rng, ops, self.n))
        return problems, controls, _digest(sorted(ops[self.n + 2].items()))


class DeepN1:
    n = 1
    arities = tuple(range(2, 9))
    stasheff_to = 9

    def setup(self):
        from koszulmf import ainfty, minimal, weyl
        return ainfty, minimal, weyl.MFConfig(self.n)

    def run(self, inputs):
        ainfty, minimal, cfg = inputs
        model = minimal.build_minimal_model(
            cfg, arities=list(self.arities), arity_bound=max(self.arities)
        )
        alg = ainfty.from_minimal_model(model)
        return model, ainfty.check_stasheff(alg, self.stasheff_to)

    def check(self, inputs, output, calls, rng):
        model, violations = output
        ops = _plain(model.tables)
        problems, controls = _model_checks(
            ops, self.n, self.arities, calls, rng, self.stasheff_to
        )
        if violations:
            problems.append(f"check_stasheff reports {len(violations)} violations")
        return problems, controls, _digest(
            sorted((k, sorted(t.items())) for k, t in ops.items())
        )


class SmashZ3:
    n = 1
    arities = (2, 3, 4)
    factors = (3,)

    def setup(self):
        from koszulmf import ainfty, minimal, weyl
        model = minimal.build_minimal_model(weyl.MFConfig(self.n), arities=list(self.arities))
        alg = ainfty.from_minimal_model(model)
        rho = tuple((1,) for _ in range(self.n + 2))
        return ainfty, alg, ainfty.FiniteAbelianGroupData(self.factors, rho)

    def run(self, inputs):
        ainfty, alg, grp = inputs
        sm = ainfty.smash(alg, grp)
        return sm, ainfty.check_stasheff(sm, max(self.arities))

    def check(self, inputs, output, calls, rng):
        _, alg, _ = inputs
        sm, violations = output
        base = _plain(alg.ops)
        order = lcm(*self.factors)
        sm_ops = {
            k: {key: (_num(Fraction(c.mag)), c.exp % order) for key, c in table.items() if c}
            for k, table in sm.ops.items()
        }
        problems = [
            f"smash coefficient of order {c.order}, expected {order}"
            for table in sm.ops.values() for c in table.values() if c.order != order
        ][:1]
        problems += (
            C.smash_problems(base, sm.basis, sm_ops, self.factors, self.n)
            + C.stasheff_problems(sm_ops, max(self.arities), order)
            + C.weight_problems(base, self.n)
            + C.mu2_problems(base[2], self.n)
        )
        if violations:
            problems.append(f"check_stasheff reports {len(violations)} violations")
        controls = (
            C.stasheff_controls(rng, sm_ops, order)
            + C.smash_controls(rng, base, sm.basis, sm_ops, self.factors, self.n)
        )
        return problems, controls, _digest(
            sorted((k, sorted(t.items())) for k, t in sm_ops.items())
        )


WORKLOADS = {
    "cli-n2": CliN2(),
    "versal-n3": VersalN3(),
    "deep-n1": DeepN1(),
    "smash-z3": SmashZ3(),
}
