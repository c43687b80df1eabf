"""Command line interface over every verification pipeline.

Each subcommand prints one compact JSON report on stdout (sorted keys,
so output is byte-identical between runs except for the wall-time field)
and a one-line summary on stderr.  Exit status: 0 when every requested
check passes, 1 when a check fails, 2 on usage or precondition errors,
3 on an internal error (an invariant of the computation failed, or any
other unexpected exception).
Exact rationals are rendered "num/den", and every check is decided
exactly: coamoeba takes angles as rational fractions of a turn, morse
certifies its zero gradients on the rational critical points, and
mf-check decides d^2 = 0 on every Clifford monomial.  Floats remain only
in the sampled Morse profile, which no command runs.  Checks run
sequentially in a fixed order.
"""

import argparse
import hashlib
import json
import sys
import time
from fractions import Fraction
from math import comb

from . import __version__
from .ainfty import (
    FiniteAInftyAlgebra,
    Inconsistent,
    check_stasheff,
    exterior_normalize,
    from_minimal_model,
    FiniteAbelianGroupData,
    hkr_dim,
    opposite,
    smash,
    supercommutativity_check,
)
from .lattice import (
    canonical, elements, fractional_grading, from_elements, integer_grading,
    size, weight,
)
from .linalg import NotAComplex, homology_ranks
from .minimal import (
    BadChoice,
    CohomologyBasisChoice,
    build_minimal_model,
    cohomology_dim,
    obstruction_class,
    permutation_table,
)
from .pants import (
    PearlLabel,
    PearlTreeLabeling,
    coamoeba_classify,
    morse_data,
    pearl_degree,
    validate_pearl_labels,
    zonotope_complex,
)
from .rnc import (
    cleared_polys,
    crossing_positivity,
    curve_eval,
    projectively_equal,
    solve_nodes,
)
from .weyl import (
    MFConfig,
    delta_terms,
    monomial,
    multiply_into,
    scaled_differential,
)

MODEL_SCHEMA = "koszulmf-model/1"


def _rat(x):
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}"


def _subset(mask):
    return list(elements(mask))


def _parse_subset(token, n):
    token = token.strip()
    if token in ("-", ""):
        return 0
    elems = [int(p) for p in token.split(",")]
    if not all(1 <= e <= n + 2 for e in elems):
        raise ValueError(f"subset indices must lie in 1..{n + 2}")
    if len(set(elems)) != len(elems):
        raise ValueError(f"subset {token!r} repeats an index")
    return from_elements(elems)


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


def _parse_rationals(text, option, number=Fraction):
    """The comma separated numbers of text; a bad one is a usage error
    whose message starts with the option's name."""
    try:
        return tuple(number(tok) for tok in text.split(","))
    except ZeroDivisionError:
        raise ValueError(f"{option}: zero denominator in {text!r}") from None
    except ValueError as exc:
        raise ValueError(f"{option}: {exc}") from None


def _require_keys(obj, keys, what):
    """Raise ValueError naming the first of keys that the dict obj lacks."""
    for key in keys:
        if key not in obj:
            raise ValueError(f"{what} lacks the key {key!r}")


def _model_row(out, ins, c):
    return [_subset(out), [_subset(i) for i in ins], c.numerator, c.denominator]


def _tables_payload(ops, row=_model_row):
    """Each arity's nonzero entries as sorted rows row(out, ins, coef)."""
    return {
        str(k): sorted(row(out, ins, c) for (out, ins), c in ops[k].items() if c)
        for k in sorted(ops)
    }


def _model_payload(cfg, choice, alg):
    gens = [
        {
            "subset": _subset(m),
            "zdeg": alg.zdeg[m],
            "qdeg": _rat(alg.qdeg[m]),
            "weight": list(alg.weight[m]),
        }
        for m in sorted(alg.basis)
    ]
    return {
        "schema": MODEL_SCHEMA,
        "n": cfg.n,
        "weights": [_rat(a) for a in cfg.a],
        "aux": list(choice.aux),
        "generators": gens,
        "tables": _tables_payload(alg.ops),
    }


def _choice(aux, nvars, what):
    """The CohomologyBasisChoice of aux, which must list nvars int indices."""
    if not isinstance(aux, list) or not all(map(_is_int, aux)):
        raise ValueError(f"{what} must list integer indices")
    # the count first: a range check on too few indices misleads
    if len(aux) != nvars:
        raise ValueError(f"{what} needs {nvars} indices, got {len(aux)}")
    try:
        return CohomologyBasisChoice(tuple(aux))
    except BadChoice as exc:
        raise ValueError(f"{what}: {exc}") from exc


def _load_model_file(path):
    """(cfg, choice, algebra) of a model document or `minimal-model` report.
    Each generator gets the gradings of its subset, and one that records
    others (a weight being any representative of its class) is rejected."""
    with open(path) as fh:
        doc = json.load(fh)
    if isinstance(doc, dict) and isinstance(doc.get("results"), dict):
        doc = doc["results"].get("model", doc)
    if not isinstance(doc, dict) or doc.get("schema") != MODEL_SCHEMA:
        raise ValueError(f"{path}: not a {MODEL_SCHEMA} document")
    _require_keys(doc, ("n", "weights", "aux", "generators", "tables"), path)
    n = doc["n"]
    if type(n) is not int or n < 1:
        raise ValueError(f"{path}: n must be a positive integer, got {n!r}")
    try:  # tuple(): MFConfig would read null weights as the default ones
        cfg = MFConfig(n, tuple(doc["weights"]))
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"{path}: weights: {exc}") from exc
    choice = _choice(doc["aux"], cfg.nvars, f"{path}: aux")
    basis, zdeg, qdeg, wt, ops = [], {}, {}, {}, {}
    try:
        for g in doc["generators"]:
            _require_keys(g, ("subset", "zdeg", "qdeg", "weight"), f"{path}: generator")
            m = from_elements(g["subset"])
            if m >> (n + 2):
                raise ValueError(f"{path}: generator subset {_subset(m)} "
                                 f"has an index above n+2 = {n + 2}")
            if m in zdeg:
                raise ValueError(
                    f"{path}: generator subset {_subset(m)} is listed twice")
            basis.append(m)
            zdeg[m], qdeg[m], wt[m] = grading = (
                integer_grading(m, n), fractional_grading(m, n), weight(m, n))
            try:
                recorded = (g["zdeg"], Fraction(g["qdeg"]), canonical(g["weight"]))
            except (TypeError, ValueError, ZeroDivisionError) as exc:
                raise ValueError(
                    f"{path}: generator subset {_subset(m)}: {exc}") from exc
            if recorded != grading:
                raise ValueError(f"{path}: generator subset {_subset(m)} "
                                 f"records gradings other than its subset's")
        for key, rows in doc["tables"].items():
            arity = int(key)
            if arity < 1:
                raise ValueError(f"{path}: table mu^{key} has arity below 1")
            if arity in ops:
                raise ValueError(f"{path}: two tables for mu^{arity}")
            table = {}
            for out, ins, num, den in rows:
                out, ins = from_elements(out), tuple(map(from_elements, ins))
                if len(ins) != arity:
                    raise ValueError(
                        f"{path}: a mu^{key} row with {len(ins)} inputs")
                if not zdeg.keys() >= {out, *ins}:
                    raise ValueError(f"{path}: unknown subset in a mu^{key} row")
                if (out, ins) in table:
                    raise ValueError(
                        f"{path}: two mu^{arity} rows with the same output and inputs")
                table[(out, ins)] = Fraction(num, den)
            ops[arity] = table
    except (AttributeError, TypeError, ZeroDivisionError) as exc:
        # a generator, table or row of the wrong shape, or a zero denominator
        raise ValueError(f"{path}: malformed {MODEL_SCHEMA} document: {exc}") from exc
    return cfg, choice, FiniteAInftyAlgebra(basis, zdeg, ops, wt, qdeg)


def _cmd_mf_check(args):
    """Decides d^2 = 0 on every Clifford monomial theta_S dtheta_T, which
    certifies it on every monomial with exponents <= FIELD_MAX - 2:
    `differential_columns` adds `commutator_table`'s per-low-part offsets
    to the monomial, so D * d(z^a y) = z^a D * d(y), and each application
    raises every exponent by at most 1.
    """
    cfg = MFConfig(args.n)
    n2 = cfg.nvars
    scale, table = delta_terms(cfg)
    delta = dict(table)
    square = {}
    multiply_into(square, 1, delta, delta, cfg)
    delta_ok = {m: c for m, c in square.items() if c} == {
        monomial((1,) * n2, 0, 0): scale * scale
    }

    # D * d theta_j = D z_j and D * d dtheta_j = D a_j W/z_j
    unit = (0,) * n2
    gens = {}
    for j in range(n2):
        zj = tuple(int(i == j) for i in range(n2))
        w_over_zj = monomial(tuple(1 - x for x in zj), 0, 0)
        gens[monomial(unit, 1 << j, 0)] = {monomial(zj, 0, 0): scale}
        gens[monomial(unit, 0, 1 << j)] = {w_over_zj: int(cfg.a[j] * scale)}

    gens_ok = d2_ok = True
    for x in range(1 << 2 * n2):  # at a = 0 a monomial is its low part
        dx = scaled_differential({x: 1}, cfg)
        gens_ok = gens_ok and gens.get(x, dx) == dx
        d2_ok = d2_ok and not scaled_differential(dx, cfg)

    pieces = []
    by_size = [0] * (n2 + 1)
    all_one = True
    for mask in range(1 << n2):
        try:
            dim = cohomology_dim(weight(mask, cfg.n), cfg.n * size(mask), cfg)
        except NotAComplex:  # a failed check, reported as such: no dimension
            dim = None
            d2_ok = all_one = False
        else:
            by_size[size(mask)] += dim
            all_one = all_one and dim == 1
        pieces.append([_subset(mask), dim])
    expected = [comb(n2, r) for r in range(n2 + 1)]

    ok = delta_ok and gens_ok and d2_ok and all_one and by_size == expected
    return {
        "delta_squared_is_w": delta_ok,
        "differential_on_generators": gens_ok,
        "differential_squared_zero": d2_ok,
        "piece_dims": pieces,
        "dims_by_subset_size": by_size,
        "expected_by_subset_size": expected,
        "pass": ok,
    }, ok


def _cmd_minimal_model(args):
    weights = (_parse_rationals(args.a_weights, "--a-weights")
               if args.a_weights is not None else None)
    n = args.n
    cfg = MFConfig(n, weights)
    choice = CohomologyBasisChoice.default(n)
    if args.dbar_aux is not None:
        aux = _parse_rationals(args.dbar_aux, "--dbar-aux", int)
        choice = _choice(list(aux), cfg.nvars, "--dbar-aux")
    top = args.max_arity if args.max_arity is not None else n + 2
    if top < 2:
        raise ValueError("max arity must be at least 2")
    arities = [k for k in range(2, top + 1) if (k - 2) % n == 0]
    model = build_minimal_model(cfg, choice, arities=arities)
    alg = from_minimal_model(model)

    stasheff_to = 2 * n + 2
    violations = check_stasheff(alg, stasheff_to)
    graded = True
    try:
        alg.validate_graded()
    except ValueError as exc:
        graded = str(exc)
    supercomm = supercommutativity_check(alg)
    try:
        sigma = exterior_normalize(alg, n)
        normalization = {
            "sigma": [[_subset(m), c.numerator, c.denominator]
                      for m, c in sorted(sigma.items())]
        }
        normalized = True
    except (Inconsistent, ValueError) as exc:
        normalization = {"error": str(exc)}
        normalized = False

    obstruction = None
    unit = None
    perms = []
    if n + 2 in model.tables:
        value = obstruction_class(model)
        obstruction = _rat(value)
        unit = value in (1, -1)
        perms = sorted(
            [list(p), c.numerator, c.denominator]
            for p, c in permutation_table(model).items()
        )

    ok = (
        not violations
        and graded is True
        and supercomm
        and normalized
        and unit is not False
    )
    return {
        "model": _model_payload(cfg, choice, alg),
        "checks": {
            "stasheff_max_arity": stasheff_to,
            "stasheff_violations": [
                [m, [_subset(x) for x in tup], _subset(out), _rat(total)]
                for m, tup, out, total in violations
            ],
            "graded": graded,
            "supercommutative": supercomm,
            "exterior_normalization": normalization,
            "obstruction_class": obstruction,
            "obstruction_is_unit": unit,
            "permutation_table": perms,
        },
        "pass": ok,
    }, ok


def _cmd_hkr(args):
    if args.n < 1:
        raise ValueError("need n >= 1")
    return {"dim": hkr_dim(args.n, args.r, args.t)}, True


def _cmd_zonotope(args):
    maps, cells = zonotope_complex(args.n)
    counts = [len(layer) for layer in cells]
    expected = [
        comb(args.n + 2, l) * (2 ** (args.n + 2 - l) - 2)
        for l in range(args.n + 1)
    ]
    euler = sum((-1) ** d * c for d, c in enumerate(counts))
    ranks = homology_ranks(counts, maps)
    sphere = [1] + [0] * (args.n - 1) + [1]
    ok = (
        counts == expected
        and euler == 1 + (-1) ** args.n
        and ranks == sphere
    )
    return {
        "cell_counts": counts,
        "expected_counts": expected,
        "euler_characteristic": euler,
        "boundary_squares_to_zero": True,
        "homology_ranks": ranks,
        "sphere_ranks": sphere,
        "pass": ok,
    }, ok


def _cmd_coamoeba(args):
    turns = _parse_rationals(args.turns, "--turns")
    return {
        "turns": [_rat(t) for t in turns],
        "classification": coamoeba_classify(turns),
    }, True


def _cmd_morse(args):
    """The gradient vanishes exactly at a point x whose coordinates take
    one value on K and another off K: x sums to zero (MorseCriticalPoint
    enforces it), and so do the mean-subtracted slopes f of any profile
    g, which are constant on K and off K too.  Those vectors form a line,
    so f is a multiple of x and its projection to the sphere is 0."""
    points = morse_data(args.n)
    n2 = args.n + 2
    histogram = [0] * (args.n + 1)
    rows = []
    zero = True
    for pt in points:
        on_k = {c for i, c in enumerate(pt.coords) if pt.kmask >> i & 1}
        off_k = {c for i, c in enumerate(pt.coords) if not pt.kmask >> i & 1}
        zero = zero and len(on_k) == len(off_k) == 1 and on_k != off_k
        histogram[pt.index] += 1
        rows.append(
            {
                "subset": _subset(pt.kmask),
                "coords": [_rat(c) for c in pt.coords],
                "index": pt.index,
            }
        )
    expected = [comb(n2, args.n + 1 - m) for m in range(args.n + 1)]
    ok = len(points) == 2 ** n2 - 2 and histogram == expected and zero
    return {
        "critical_points": rows,
        "count": len(points),
        "expected_count": 2 ** n2 - 2,
        "index_histogram": histogram,
        "expected_histogram": expected,
        "gradient_zero_exactly": zero,
        "pass": ok,
    }, ok


def _cmd_pearl_degree(args):
    if args.n < 1:
        raise ValueError("need n >= 1")
    k0 = _parse_subset(args.k0, args.n)
    inputs = [_parse_subset(tok, args.n) for tok in args.inputs]
    degree = pearl_degree(k0, inputs, args.n)
    return {
        "k0": _subset(k0),
        "inputs": [_subset(m) for m in inputs],
        "degree": _rat(degree),
        "integer": degree.denominator == 1,
    }, True


def _cmd_validate_labels(args):
    with open(args.file) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or not isinstance(doc.get("pearls"), list):
        raise ValueError("expected an object with a list of pearls")
    _require_keys(doc, ("n",), "the document")
    n = doc["n"]
    if not _is_int(n) or n < 1:
        raise ValueError("n must be a positive integer")

    def is_label(s):
        return isinstance(s, list) and len(set(s)) == len(s) and all(
            _is_int(e) and 1 <= e <= n + 2 for e in s
        )

    pearls = []
    for entry in doc["pearls"]:
        if not isinstance(entry, dict):
            raise ValueError("each pearl must be an object")
        _require_keys(entry, ("flips", "degree"), "a pearl")
        flips, degree = entry["flips"], entry["degree"]
        if not isinstance(flips, list) or not all(map(is_label, flips)):
            raise ValueError(f"flip labels must list distinct indices in 1..{n + 2}")
        if not _is_int(degree):
            raise ValueError("degree must be an integer")
        pearls.append(
            PearlLabel(tuple(from_elements(s) for s in flips), degree)
        )
    issues = validate_pearl_labels(PearlTreeLabeling(tuple(pearls)), n)
    ok = not issues
    return {
        "pearls": len(pearls),
        "issues": [[idx, msg] for idx, msg in issues],
        "pass": ok,
    }, ok


def _cmd_rnc(args):
    target = _parse_rationals(args.pphi, "--pphi")
    curve = solve_nodes(args.n, target)
    n = args.n
    interpolation = all(
        projectively_equal(
            curve_eval(curve, nu),
            [Fraction(n + 1) if m == j else Fraction(-1) for m in range(n + 2)],
        )
        for j, nu in enumerate(curve.nodes)
    )
    anchor = projectively_equal(curve_eval(curve, 0), list(target))
    degrees = [len(p) - 1 for p in cleared_polys(curve)]
    reports = crossing_positivity(curve)
    crossings = []
    crossings_ok = True
    for rep in reports:
        positive = all(s == 1 for s in rep.derivative_signs)
        crossings_ok = crossings_ok and positive and not rep.flags
        crossings.append(
            {
                "component": rep.component + 1,
                "roots": rep.roots,
                "derivative_signs": rep.derivative_signs,
                "flags": rep.flags,
            }
        )
    ok = (
        interpolation
        and anchor
        and all(d == n for d in degrees)
        and crossings_ok
    )
    return {
        "nodes": [_rat(nu) for nu in curve.nodes],
        "target": [_rat(v) for v in target],
        "interpolates_coordinate_points": interpolation,
        "anchor_at_zero": anchor,
        "cleared_degrees": degrees,
        "crossings": crossings,
        "pass": ok,
    }, ok


def _cmd_opposite(args):
    cfg, choice, alg = _load_model_file(args.model)
    return {"model": _model_payload(cfg, choice, opposite(alg))}, True


def _parse_group(spec):
    if ":" in spec:
        fpart, rpart = spec.split(":", 1)
        rho = tuple(
            tuple(int(x) for x in row.split(","))
            for row in rpart.split(";")
            if row
        )
    else:
        fpart, rho = spec, ()
    factors = tuple(int(x) for x in fpart.split(","))
    return FiniteAbelianGroupData(factors, rho)


def _cmd_smash(args):
    cfg, _, alg = _load_model_file(args.model)
    grp = _parse_group(args.group)
    sm = smash(alg, grp)

    def label(b):
        mask, chi = b
        return [_subset(mask), list(chi)]

    gens = sorted(
        (
            {
                "subset": _subset(mask),
                "char": list(chi),
                "zdeg": sm.zdeg[(mask, chi)],
            }
            for mask, chi in sm.basis
        ),
        key=lambda g: (g["subset"], g["char"]),
    )

    def row(out, ins, c):
        return [label(out), [label(i) for i in ins], c.mag.numerator,
                c.mag.denominator, c.exp, c.order]

    return {
        "schema": "koszulmf-smash/1",
        "n": cfg.n,
        "group": {
            "factors": list(grp.factors),
            "rho": [list(r) for r in grp.rho],
        },
        "dimension": len(sm.basis),
        "generators": gens,
        "tables": _tables_payload(sm.ops, row),
    }, True


_HANDLERS = {
    "mf-check": _cmd_mf_check,
    "minimal-model": _cmd_minimal_model,
    "hkr": _cmd_hkr,
    "zonotope": _cmd_zonotope,
    "coamoeba": _cmd_coamoeba,
    "morse": _cmd_morse,
    "pearl-degree": _cmd_pearl_degree,
    "validate-labels": _cmd_validate_labels,
    "rnc": _cmd_rnc,
    "opposite": _cmd_opposite,
    "smash": _cmd_smash,
}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="koszulmf",
        description="exact checks for the product-of-variables factorization",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mf-check")
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("minimal-model")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--max-arity", type=int, default=None)
    p.add_argument("--a-weights", default=None,
                   help="comma separated rationals summing to 1")
    p.add_argument("--dbar-aux", default=None,
                   help="comma separated partner indices")

    p = sub.add_parser("hkr")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--t", type=int, required=True)

    p = sub.add_parser("zonotope")
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("coamoeba")
    p.add_argument("--turns", required=True,
                   help="comma separated angles as rational fractions of a "
                        "full turn, e.g. 1/2,0,0")

    p = sub.add_parser("morse")
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("pearl-degree")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k0", required=True,
                   help='output subset, e.g. "1,3" or "-" for empty')
    p.add_argument("--inputs", nargs="+", required=True,
                   help='input subsets, e.g. 1,2 3 -')

    p = sub.add_parser("validate-labels")
    p.add_argument("--file", required=True)

    p = sub.add_parser("rnc")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--pphi", required=True,
                   help="comma separated rationals summing to 0")

    p = sub.add_parser("opposite")
    p.add_argument("--model", required=True)

    p = sub.add_parser("smash")
    p.add_argument("--model", required=True)
    p.add_argument("--group", required=True,
                   help='factors:rho rows, e.g. "3,3:1,0;0,1;2,2"')

    return parser


def _echo_parameters(args):
    skip = {"command"}
    return {
        key: value
        for key, value in sorted(vars(args).items())
        if key not in skip
    }


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    start = time.perf_counter()
    params = _echo_parameters(args)
    try:
        results, ok = _HANDLERS[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"{args.command}: error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a failed invariant (RuntimeError) or a bug
        print(f"{args.command}: internal error: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 3
    digest = hashlib.sha256(
        json.dumps(
            {"command": args.command, "parameters": params, "version": __version__},
            sort_keys=True,
        ).encode()
    ).hexdigest()[:16]
    report = {
        "command": args.command,
        "parameters": params,
        "results": results,
        "provenance": {
            "version": __version__,
            "config_hash": digest,
            "wall_time_seconds": round(time.perf_counter() - start, 6),
        },
    }
    print(json.dumps(report, sort_keys=True, separators=(",", ":")))
    print(f"{args.command}: {'PASS' if ok else 'FAIL'}", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
