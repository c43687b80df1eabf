"""Acceptance sweep: fourteen go/no-go checks, one test per criterion,
and the digest of the n=2 tables they share.

Every test funnels through a single pass/fail line carrying the checked
quantities and the measured runtime where a budget applies.  Criterion
11 samples the ordered ratio inequality f_k x_j > f_j x_k (x_j > x_k >= 0,
and its mirror for x_j < x_k <= 0).  As literally stated, for the
mean-subtracted components f, that inequality is false wherever both
ordered coordinates sit past the slope collapse of the bump profile
(frozen counterexample in test_pants); the criterion still counts and
reports those violations, but asserts what the flow argument uses: the
restricted form (f_k >= 0) holds strictly, every literal violation lies
in the documented regime (f_k < 0, both coordinates past delta), and
the unprojected form g'(x_k) x_j > g'(x_j) x_k holds on every pair.
"""

import itertools
import random
import time
from fractions import Fraction
from math import comb

import pytest

from koszulmf.ainfty import (
    FiniteAbelianGroupData,
    Inconsistent,
    check_stasheff,
    exterior_normalize,
    from_minimal_model,
    hkr_dim,
    opposite,
    opposite_sign,
    smash,
    supercommutativity_check,
    wedge_algebra,
)
from koszulmf.lattice import canonical, full_mask, size
from koszulmf.linalg import homology_ranks
from koszulmf.minimal import (
    CohomologyBasisChoice,
    admissible_tuples,
    build_minimal_model,
    cohomology_dim,
    dbar_product,
    minimal_mu,
    obstruction_class,
    permutation_table,
)
from koszulmf.pants import (
    GParams,
    PearlLabel,
    PearlTreeLabeling,
    coamoeba_classify,
    gradient_f,
    morse_data,
    pearl_degree,
    validate_pearl_labels,
    zonotope_complex,
)
from koszulmf.rnc import (
    cleared_polys,
    crossing_positivity,
    curve_eval,
    projectively_equal,
    solve_nodes,
)
from koszulmf.weyl import MFConfig, delta_terms, monomial, scaled_differential
from test_lattice import cover_residue
from test_minimal import table_digest
from test_pants import _hull_class, random_turns
from test_weyl import _square


def _line(num, label, ok, detail=""):
    tail = f" [{detail}]" if detail else ""
    print(f"criterion {num:02d} {label}: {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, f"criterion {num:02d} {label}{tail}"


def _exterior_weight(mask, n2):
    return canonical(tuple(-1 if mask >> i & 1 else 0 for i in range(n2)))


def _random_homogeneous(rng, cfg):
    n2 = cfg.nvars
    par = rng.randrange(2)
    terms = {}
    for _ in range(rng.randint(1, 3)):
        while True:
            a = tuple(rng.randint(0, 2) for _ in range(n2))
            smask = rng.randrange(1 << n2)
            tmask = rng.randrange(1 << n2)
            if (size(smask) + size(tmask)) % 2 == par:
                break
        terms[monomial(a, smask, tmask)] = rng.choice([-3, -2, -1, 1, 2, 3])
    return terms


def _sphere_sample(rng, dim):
    while True:
        x = [rng.gauss(0.0, 1.0) for _ in range(dim)]
        mean = sum(x) / dim
        x = [v - mean for v in x]
        norm = sum(v * v for v in x) ** 0.5
        if norm > 1e-6:
            return [v / norm for v in x]


def _random_target(rng, n):
    while True:
        vals = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n + 1)]
        vals.append(-sum(vals))
        if all(vals) and len(set(vals)) == len(vals):
            return tuple(vals)


@pytest.fixture(scope="module")
def model_n1():
    t0 = time.perf_counter()
    model = build_minimal_model(MFConfig(1), arities=(2, 3))
    return model, time.perf_counter() - t0


@pytest.fixture(scope="module")
def model_n2():
    t0 = time.perf_counter()
    model = build_minimal_model(MFConfig(2), arities=(2, 4))
    return model, time.perf_counter() - t0


def test_criterion_01_factorization_axioms():
    t0 = time.perf_counter()
    rng = random.Random(20240901)
    square_ok = True
    d2_ok = True
    for n in range(1, 5):
        cfg = MFConfig(n)
        scale = delta_terms(cfg)[0]
        square_ok = square_ok and _square(cfg) == {
            ((1,) * cfg.nvars, 0, 0): scale * scale
        }
        # every Clifford monomial decides d^2 = 0 (D * d is z-equivariant);
        # the samples cover a != 0 directly
        clifford = [{monomial((0,) * cfg.nvars, s, t): 1}
                    for s in range(1 << cfg.nvars) for t in range(1 << cfg.nvars)]
        samples = [_random_homogeneous(rng, cfg) for _ in range(200)]
        for x in clifford + samples:
            if scaled_differential(scaled_differential(x, cfg), cfg):
                d2_ok = False
    dt = time.perf_counter() - t0
    _line(
        1,
        "factorization axioms",
        square_ok and d2_ok and dt < 10,
        f"delta^2=W and d^2=0, n=1..4, every Clifford monomial and 200 "
        f"samples each, {dt:.1f}s < 10s",
    )


def test_criterion_02_cohomology_pieces():
    t0 = time.perf_counter()
    rng = random.Random(20240902)
    ones_ok = True
    zeros_ok = True
    for n in (1, 2, 3):
        cfg = MFConfig(n)
        n2 = n + 2
        exterior = set()
        for mask in range(1 << n2):
            key = (_exterior_weight(mask, n2), n * size(mask))
            exterior.add(key)
            if cohomology_dim(*key, cfg) != 1:
                ones_ok = False
        checked = 0
        while checked < 20:
            key = (canonical(tuple(rng.randint(0, 2) for _ in range(n2))),
                   rng.randint(-2, 3 * n2))
            if key in exterior:
                continue
            if cohomology_dim(*key, cfg) != 0:
                zeros_ok = False
            checked += 1
    dt = time.perf_counter() - t0
    _line(
        2,
        "cohomology pieces",
        ones_ok and zeros_ok and dt < 60,
        f"2^(n+2) unit pieces and 20 null pieces, n=1..3, {dt:.1f}s < 60s",
    )


def test_criterion_03_unforced_products_vanish():
    t0 = time.perf_counter()
    closed_ok = True
    for n in (1, 2, 3):
        cfg = MFConfig(n)
        choice = CohomologyBasisChoice.default(n)
        for mask in range(1 << cfg.nvars):
            rep, _ = dbar_product(mask, choice, cfg)
            if scaled_differential(rep, cfg):
                closed_ok = False
    nonzero = 0
    checked = 0
    for n, ks in ((2, (3,)), (3, (3, 4))):
        cfg = MFConfig(n)
        for k in ks:
            for q in range(k + 1):
                for tup in admissible_tuples(n, k, q):
                    checked += 1
                    if minimal_mu(k, tup, cfg) != {}:
                        nonzero += 1
    dt = time.perf_counter() - t0
    _line(
        3,
        "unforced products vanish",
        closed_ok and nonzero == 0 and dt < 600,
        f"mu^1=0 (closed representatives); {checked} tuples, "
        f"{nonzero} nonzero, {dt:.0f}s < 600s",
    )


def test_criterion_04_product_normalization(model_n1, model_n2):
    status = {}
    ok = True
    for model, _ in (model_n1, model_n2):
        alg = from_minimal_model(model)
        try:
            sigma = exterior_normalize(alg, model.n)
            normalized = all(c * c == 1 for c in sigma.values())
        except (Inconsistent, ValueError):
            normalized = False
        commutes = supercommutativity_check(alg)
        status[model.n] = (normalized, commutes)
        ok = ok and normalized and commutes
    _line(
        4,
        "product normalization",
        ok,
        f"rescaling to the exterior algebra and supercommutativity, {status}",
    )


def test_criterion_05_versality_class(model_n1, model_n2):
    t0 = time.perf_counter()
    m1, _ = model_n1
    m2, build2 = model_n2
    obs1 = obstruction_class(m1)
    obs2 = obstruction_class(m2)
    table = {
        perm: str(coef) for perm, coef in sorted(permutation_table(m1).items())
    }
    print(f"criterion 05 note: n=1 per-ordering coefficients {table} "
          "(convention dependent, informational only)")
    # n=3 and n=4 from the (n+2)! singleton orderings alone, no table
    versal = {}
    for n in (3, 4):
        cfg = MFConfig(n)
        versal[n] = sum(
            minimal_mu(n + 2, perm, cfg).get(0, 0)
            for perm in itertools.permutations(1 << i for i in range(n + 2))
        )
    dt = time.perf_counter() - t0 + build2
    _line(
        5,
        "versality class",
        obs1 in (1, -1)
        and obs2 in (1, -1)
        and versal == {3: -1, 4: 1}
        and dt < 1800,
        f"n=1: {obs1}, n=2: {obs2}, n=3: {versal[3]}, n=4: {versal[4]}, "
        f"{dt:.1f}s < 1800s incl. n=2 build",
    )


def test_table_digest_n2(model_n2):
    assert table_digest(model_n2[0]) == (
        "dac992342ee79b4d7026a48212f05886368cd503943056e28a27eefcb939ed25"
    )


def test_criterion_06_stasheff(model_n1, model_n2):
    v1 = check_stasheff(from_minimal_model(model_n1[0]), 4)
    v2 = check_stasheff(from_minimal_model(model_n2[0]), 6)
    _line(
        6,
        "associativity identities",
        v1 == [] and v2 == [],
        f"violations to arity 2n+2: n=1: {len(v1)}, n=2: {len(v2)}",
    )


def test_criterion_07_opposite(model_n1):
    alg = from_minimal_model(model_n1[0])
    op = opposite(alg)
    opop = opposite(op)
    involutive = opop.ops == alg.ops and opop.zdeg == alg.zdeg
    op_ok = check_stasheff(op, 4) == []
    agree = True
    pairs = 0
    for n in range(1, 5):
        for q in range(3):
            k = 2 + n * q
            for cards in itertools.combinations_with_replacement(range(n + 3), k):
                k0 = sum(cards) - (n + 2) * q
                if not 0 <= k0 <= n + 2:
                    continue
                pairs += 1
                lemma = (
                    n * q * (n * q - 1) // 2
                    + (1 + n * q) * k0
                    + sum(a * b for a, b in itertools.combinations(cards, 2))
                ) % 2
                if lemma != opposite_sign(list(cards)):
                    agree = False
    _line(
        7,
        "opposite functor",
        involutive and op_ok and agree,
        f"involution, reversed identities, sign formulas agree on {pairs} "
        "cardinality patterns (n<=4, q<=2)",
    )


def test_criterion_08_polyvector_dimensions():
    t0 = time.perf_counter()
    ok = all(
        hkr_dim(n, 2, 2 - d) == (1 if d == n + 2 else 0)
        for n in range(1, 5)
        for d in range(3, 3 * (n + 2) + 1)
    )
    dt = time.perf_counter() - t0
    _line(
        8,
        "deformation space dimensions",
        ok and dt < 5,
        f"dim = 1 only at d = n+2, n=1..4, {dt:.2f}s < 5s",
    )


def test_criterion_09_smash_products(model_n1):
    alg = from_minimal_model(model_n1[0])

    gamma = FiniteAbelianGroupData((3, 3), ((1, 0), (0, 1), (2, 2)))
    dim_ok = len(smash(alg, gamma).basis) == 9 * 8

    trivial = FiniteAbelianGroupData((1,), ((0,), (0,), (0,)))
    tsm = smash(alg, trivial)
    iso_ok = True
    for k, table in alg.ops.items():
        wrapped = {
            ((out, (0,)), tuple((i, (0,)) for i in ins)): coef
            for (out, ins), coef in table.items()
            if coef
        }
        got = {key: v.mag for key, v in tsm.ops.get(k, {}).items() if v}
        if wrapped != got:
            iso_ok = False

    blocks_ok = True
    for n in (1, 2, 3):
        n2 = n + 2
        grp = FiniteAbelianGroupData((n2,), tuple((1,) for _ in range(n2)))
        smn = smash(wedge_algebra(n), grp)
        counts = {}
        diagonal_sizes = set()
        for mask, chi in smn.basis:
            j = chi[0]
            res = cover_residue(smn.weight[(mask, chi)], n)
            k = (j + res) % n2
            counts[(j, k)] = counts.get((j, k), 0) + 1
            if k == j:
                diagonal_sizes.add(size(mask))
        for j in range(n2):
            for k in range(n2):
                r = (k - j) % n2
                expected = 2 if r == 0 else comb(n2, r)
                if counts.get((j, k), 0) != expected:
                    blocks_ok = False
        if diagonal_sizes != {0, n2}:
            blocks_ok = False
        if len(smn.basis) != n2 * 2 ** n2:
            blocks_ok = False

    cover = FiniteAbelianGroupData((3,), ((1,), (1,), (1,)))
    stasheff_ok = check_stasheff(smash(alg, cover), 4) == []

    _line(
        9,
        "finite cover products",
        dim_ok and iso_ok and blocks_ok and stasheff_ok,
        "dimension, trivial-group unwrap, block pattern n=1..3, twisted "
        "identities to arity 4",
    )


def test_criterion_10_sphere_complex():
    t0 = time.perf_counter()
    ok = True
    totals = {}
    for n in range(1, 5):
        maps, cells = zonotope_complex(n)
        counts = [len(layer) for layer in cells]
        expected = [
            comb(n + 2, l) * (2 ** (n + 2 - l) - 2) for l in range(n + 1)
        ]
        euler = sum((-1) ** d * c for d, c in enumerate(counts))
        ranks = homology_ranks(counts, maps)
        sphere = [1] + [0] * (n - 1) + [1]
        totals[n] = sum(counts)
        ok = (
            ok
            and counts == expected
            and euler == 1 + (-1) ** n
            and ranks == sphere
        )
    dt = time.perf_counter() - t0
    _line(
        10,
        "boundary sphere complex",
        ok and totals[4] == 602 and dt < 60,
        f"counts, Euler, d^2=0, sphere homology, n=1..4 "
        f"({totals[4]} cells at n=4), {dt:.1f}s < 60s",
    )


def test_criterion_11_gradient_flow():
    tol = 1e-9
    counts_ok = True
    hist_ok = True
    for n in range(1, 5):
        points = morse_data(n)
        counts_ok = counts_ok and len(points) == 2 ** (n + 2) - 2
        hist = [0] * (n + 1)
        for pt in points:
            hist[pt.index] += 1
        hist_ok = hist_ok and hist == [
            comb(n + 2, n + 1 - m) for m in range(n + 1)
        ]

    grad_ok = True
    for n in (1, 2, 3):
        for pt in morse_data(n):
            g = gradient_f(list(pt.unit_coordinates()))
            if sum(v * v for v in g) ** 0.5 >= tol:
                grad_ok = False

    gp = GParams()
    rng = random.Random(20240824)
    pairs = 0
    literal_violations = 0
    worst = 0.0
    unconfined = 0
    restricted_pairs = 0
    restricted_violations = 0
    unprojected_violations = 0
    positive_ok = True
    for _ in range(1000):
        x = _sphere_sample(rng, 4)
        gvals = [gp.gprime(v) for v in x]
        mean = sum(gvals) / 4
        f = [g - mean for g in gvals]
        for j in range(4):
            if abs(x[j]) < gp.delta and not f[j] > 0:
                positive_ok = False
            for k in range(4):
                if j == k:
                    continue
                # the mirror side x_j < x_k <= 0 is the positive side
                # with every quantity negated
                if x[j] > x[k] >= 0:
                    sign = 1
                elif x[j] < x[k] <= 0:
                    sign = -1
                else:
                    continue
                pairs += 1
                value = sign * (f[k] * x[j] - f[j] * x[k])
                if not value > -tol:
                    literal_violations += 1
                    worst = min(worst, value)
                    past_delta = min(abs(x[j]), abs(x[k])) > gp.delta
                    if not (f[k] < 0 and past_delta):
                        unconfined += 1
                if f[k] >= 0:
                    restricted_pairs += 1
                    if not value > 0:
                        restricted_violations += 1
                if not sign * (gvals[k] * x[j] - gvals[j] * x[k]) > 0:
                    unprojected_violations += 1

    _line(
        11,
        "gradient flow data",
        counts_ok and hist_ok and grad_ok and positive_ok
        and restricted_violations == 0 and 2 * restricted_pairs >= pairs
        and unconfined == 0 and unprojected_violations == 0,
        f"counts and histogram n=1..4, critical gradients < 1e-9, "
        f"plateau positivity at 1000 samples; restricted ratio inequality "
        f"(f_k >= 0) violated at {restricted_violations}/{restricted_pairs} "
        f"ordered pairs; literal form violated at "
        f"{literal_violations}/{pairs} (worst margin {worst:.2e}), "
        f"{unconfined} of them outside f_k < 0 with both coordinates past "
        f"delta (the literal form is false as stated, see the frozen "
        f"counterexample in test_pants); unprojected form violated at "
        f"{unprojected_violations}/{pairs}",
    )


def test_criterion_12_disk_configurations():
    named_ok = True
    for n in range(1, 5):
        n2 = n + 2
        full = full_mask(n)
        for k1 in range(1, full):
            for k2 in range(1, full):
                if k1 & k2 or (k1 | k2) == full:
                    continue
                if pearl_degree(k1 | k2, [k1, k2], n) != 1:
                    named_ok = False
        singles = [1 << i for i in range(n2)]
        if pearl_degree(0, singles, n) != n:
            named_ok = False
        for mask in range(1 << n2):
            if pearl_degree(mask, [mask], n) != 0:
                named_ok = False

    s = lambda *elems: sum(1 << (e - 1) for e in elems)
    triangle = PearlTreeLabeling(
        (PearlLabel((s(1), s(2), s(3)), 1),)
    )
    valid_ok = validate_pearl_labels(triangle, 1) == []

    repeated = PearlTreeLabeling((PearlLabel((s(1), s(1)), 2),))
    issues = validate_pearl_labels(repeated, 1)
    reject_ok = any("diagonal" in msg for _, msg in issues)

    negative = PearlTreeLabeling((PearlLabel((s(1), s(2), s(3)), -1),))
    reject_ok = reject_ok and any(
        "negative" in msg for _, msg in validate_pearl_labels(negative, 1)
    )

    parity = PearlTreeLabeling((PearlLabel((s(1), s(2), s(3)), 2),))
    reject_ok = reject_ok and any(
        "parity" in msg for _, msg in validate_pearl_labels(parity, 1)
    )

    _line(
        12,
        "disk configuration formulas",
        named_ok and valid_ok and reject_ok,
        "degrees 1/n/0 on the named shapes; validator accepts the "
        "triangle and rejects repeated, negative and parity-violating "
        "labelings",
    )


def test_criterion_13_interpolating_curve():
    t0 = time.perf_counter()
    rng = random.Random(20240903)
    ok = True
    checked = 0
    for n in (1, 2, 3):
        for _ in range(20):
            target = _random_target(rng, n)
            curve = solve_nodes(n, target)
            checked += 1
            if not projectively_equal(curve_eval(curve, 0), list(target)):
                ok = False
            for j, nu in enumerate(curve.nodes):
                point = [
                    Fraction(n + 1) if m == j else Fraction(-1)
                    for m in range(n + 2)
                ]
                if not projectively_equal(curve_eval(curve, nu), point):
                    ok = False
            if any(len(p) - 1 != n for p in cleared_polys(curve)):
                ok = False
            for rep in crossing_positivity(curve):
                if rep.flags or len(rep.roots) != n:
                    ok = False
                # strict positivity, certified exactly at every root
                if rep.derivative_signs != [1] * n:
                    ok = False
    dt = time.perf_counter() - t0
    _line(
        13,
        "interpolating curve",
        ok and dt < 60,
        f"{checked} random targets: exact interpolation, degree n, "
        f"positive crossings, {dt:.1f}s < 60s",
    )


def test_criterion_14_argument_image():
    rng = random.Random(20240904)
    mismatches = 0
    boundaries = 0
    for n in (1, 2):
        for _ in range(10000):
            turns = random_turns(rng, n + 2)
            label = coamoeba_classify(turns)
            boundaries += label == "boundary"
            if label != _hull_class(turns):
                mismatches += 1

    vertices_ok = True
    half = Fraction(1, 2)
    for n in (1, 2):
        n2 = n + 2
        for mask in range(1, (1 << n2) - 1):
            turns = [half if mask >> i & 1 else 0 for i in range(n2)]
            if coamoeba_classify(turns) != "boundary":
                vertices_ok = False

    _line(
        14,
        "argument image classifier",
        mismatches == 0 and boundaries > 0 and vertices_ok,
        f"{mismatches}/20000 oracle mismatches on rational turns, "
        f"{boundaries} of them exact boundaries; boundary at every "
        "half-turn vertex",
    )
