import random
from fractions import Fraction
from math import comb, cos, pi, sin

import pytest

from koszulmf import pants
from koszulmf.lattice import from_elements, full_mask, size
from koszulmf.linalg import homology_ranks
from koszulmf.minimal import admissible_tuples, build_minimal_model
from koszulmf.pants import (
    BadG,
    GParams,
    MorseCriticalPoint,
    PearlLabel,
    PearlTreeLabeling,
    ZonotopeCell,
    coamoeba_classify,
    gradient_f,
    morse_data,
    pearl_degree,
    validate_pearl_labels,
    zonotope_complex,
)
from koszulmf.weyl import MFConfig

F = Fraction


# -------------------------------------------------------------------- zonotope


def test_cell_validation():
    ZonotopeCell(0b001, 0b010, 0b100, 1)
    with pytest.raises(ValueError):
        ZonotopeCell(0b001, 0b011, 0b100, 1)  # overlap
    with pytest.raises(ValueError):
        ZonotopeCell(0b001, 0b010, 0b000, 1)  # not a partition of [3]
    with pytest.raises(ValueError):
        ZonotopeCell(0b000, 0b011, 0b100, 1)  # empty J
    assert ZonotopeCell(0b001, 0b110, 0b000, 1).dim == 0
    with pytest.raises(ValueError):
        zonotope_complex(0)


def test_hexagon():
    maps, cells = zonotope_complex(1)
    assert [len(c) for c in cells] == [6, 6]
    assert homology_ranks([6, 6], maps) == [1, 1]
    # each vertex meets exactly two of the six edges
    coboundary = maps[0]  # one column {edge: sign} per vertex
    assert all(set(c.values()) <= {1, -1} for c in coboundary)
    assert {len(c) for c in coboundary} == {2}
    # the edge with theta_3 free joins the two vertices that differ by
    # moving 3 between the zero side and the one side
    col = cells[1].index(ZonotopeCell(0b001, 0b010, 0b100, 1))
    faces = {
        cells[0][row]: edges[col]
        for row, edges in enumerate(coboundary)
        if col in edges
    }
    assert faces == {
        ZonotopeCell(0b101, 0b010, 0, 1): F(1),
        ZonotopeCell(0b001, 0b110, 0, 1): F(-1),
    }


def test_cell_counts_and_sphere_homology():
    for n in (1, 2, 3):
        maps, cells = zonotope_complex(n)
        for l in range(n + 1):
            expect = comb(n + 2, l) * (2 ** (n + 2 - l) - 2)
            assert len(cells[l]) == expect
        euler = sum((-1) ** l * len(cells[l]) for l in range(n + 1))
        assert euler == 1 + (-1) ** n
        ranks = homology_ranks([len(c) for c in cells], maps)
        if n == 1:
            assert ranks == [1, 1]
        else:
            assert ranks == [1] + [0] * (n - 1) + [1]


# -------------------------------------------------------------------- coamoeba


HALF = F(1, 2)


def test_coamoeba_named_points():
    for n in (1, 2):
        for kmask in range(1, full_mask(n)):
            turns = [HALF if kmask >> i & 1 else 0 for i in range(n + 2)]
            assert coamoeba_classify(turns) == "boundary"
    assert coamoeba_classify([0, 0, 0]) == "outside"
    assert coamoeba_classify([0, F(1, 3), F(2, 3)]) == "interior"
    # angles are read modulo a full turn
    assert coamoeba_classify([F(-1, 2), 0, 3]) == "boundary"
    # a largest gap of 1/2 + eps is outside, 1/2 - eps interior, however
    # small eps is: the comparison with 1/2 is exact.  10^-400 lies below
    # every positive float, so no float tolerance passes this
    for eps in (F(1, 10 ** 12), F(1, 10 ** 400)):
        assert coamoeba_classify([0, eps, HALF - eps]) == "outside"
        assert coamoeba_classify([0, HALF + eps, F(3, 4)]) == "outside"
        assert coamoeba_classify([0, HALF - eps, F(3, 4)]) == "interior"
        assert coamoeba_classify([0, eps, HALF]) == "boundary"


def random_turns(rng, count):
    """count angles, each a random fraction of a turn with denominator in
    2..24.  Exact half-turn gaps occur, and a gap other than 1/2 differs
    from it by at least 1/lcm(2, d, d') >= 1/966 turns, far above the
    float error of `_hull_class`."""
    out = []
    for _ in range(count):
        den = rng.randint(2, 24)
        out.append(F(rng.randrange(den), den))
    return out


def _hull_class(turns, tol=1e-9):
    """Convex-position oracle: where is 0 relative to the hull of the
    unit vectors at the given turns?  Separating directions are searched
    exhaustively among the input angles and all pairwise bisectors."""
    theta = [2 * pi * float(t) for t in turns]
    cands = list(theta)
    for i, a in enumerate(theta):
        for b in theta[i:]:
            cands.append((a + b) / 2)
            cands.append((a + b) / 2 + pi)
    margin = max(min(cos(t - u) for t in theta) for u in cands)
    if margin > tol:
        return "outside"
    if margin >= -tol:
        return "boundary"
    return "interior"


def test_coamoeba_against_convex_position_oracle():
    rng = random.Random(20240823)
    seen = set()
    for n in (1, 2):
        for _ in range(2000):
            turns = random_turns(rng, n + 2)
            label = coamoeba_classify(turns)
            assert label == _hull_class(turns), turns
            seen.add(label)
    assert seen == {"outside", "boundary", "interior"}


# ----------------------------------------------------------------------- morse


def test_morse_counts_and_indices():
    for n in range(1, 5):
        points = morse_data(n)
        assert len(points) == 2 ** (n + 2) - 2
        hist = {}
        for p in points:
            hist[p.index] = hist.get(p.index, 0) + 1
        for m in range(0, n + 1):
            assert hist[m] == comb(n + 2, n + 1 - m)


def test_morse_coordinates():
    points = {p.kmask: p for p in morse_data(2)}
    assert points[0b0001].coords == (F(-1), F(1, 3), F(1, 3), F(1, 3))
    full = full_mask(2)
    for kmask, p in points.items():
        anti = points[full ^ kmask]
        assert tuple(-x for x in p.coords) == anti.coords
        assert sum(p.coords) == 0
    with pytest.raises(ValueError):
        MorseCriticalPoint(1, (F(1), F(1)), 0)


def stable_unstable_membership(x, kmask, tol=1e-9):
    """Whether x lies on the stable / unstable manifold of the critical
    point of the given subset: the argmin set must equal K, the argmax
    set its complement (ties within tol)."""
    n2 = len(x)
    if abs(sum(x)) > tol * n2:
        raise ValueError("point must lie on the sum-zero slice")
    if abs(sum(v * v for v in x) - 1.0) > tol * n2:
        raise ValueError("point must lie on the unit sphere")
    lo, hi = min(x), max(x)
    argmin = 0
    argmax = 0
    for i, v in enumerate(x):
        if v <= lo + tol:
            argmin |= 1 << i
        if v >= hi - tol:
            argmax |= 1 << i
    full = (1 << n2) - 1
    return argmin == kmask, argmax == full ^ kmask


def test_membership():
    points = {p.kmask: p for p in morse_data(2)}
    for kmask, p in points.items():
        x = p.unit_coordinates()
        assert stable_unstable_membership(x, kmask) == (True, True)
        anti = full_mask(2) ^ kmask
        if anti != kmask:
            assert stable_unstable_membership(x, anti) == (False, False)
    rng = random.Random(7)
    for _ in range(50):
        raw = [rng.gauss(0, 1) for _ in range(4)]
        mean = sum(raw) / 4
        raw = [v - mean for v in raw]
        norm = sum(v * v for v in raw) ** 0.5
        x = [v / norm for v in raw]
        j = min(range(4), key=lambda i: x[i])
        for kmask in range(1, 15):
            in_stable, _ = stable_unstable_membership(x, kmask)
            assert in_stable == (kmask == 1 << j)
    with pytest.raises(ValueError):
        stable_unstable_membership([0.5, 0.5, -1.0, 0.1], 1)
    with pytest.raises(ValueError):
        stable_unstable_membership([2.0, 0.0, -1.0, -1.0], 1)


# -------------------------------------------------------------------- gradient


def test_gparams_validation():
    GParams()
    with pytest.raises(BadG):
        GParams(c=1.0)  # slope stays too large past 2*delta
    with pytest.raises(BadG):
        GParams(delta=0.0)


def test_gradient_vanishes_at_critical_points():
    for n in (1, 2):
        for p in morse_data(n):
            grad = gradient_f(list(p.unit_coordinates()))
            assert max(abs(v) for v in grad) < 1e-9
            # scaling off the unit sphere keeps the two-block symmetry
            grad = gradient_f([0.7 * v for v in p.unit_coordinates()])
            assert max(abs(v) for v in grad) < 1e-9


def test_default_profile_is_built_once(monkeypatch):
    # the default profile's grid check runs once per process, on first
    # use, not on every gradient
    x = [0.55, 0.35, -0.2, -0.7]
    expected = gradient_f(x, GParams())
    built = []
    check = GParams.__post_init__

    def counting(self):
        built.append(self)
        check(self)

    monkeypatch.setattr(GParams, "__post_init__", counting)
    pants._default_gparams.cache_clear()
    assert gradient_f(x) == expected
    assert gradient_f(x) == expected
    assert len(built) == 1


def test_gradient_is_tangent_to_the_sphere():
    # grad . x = 0 on the unit sphere of the sum-zero hyperplane; the ratio
    # inequality where it is provable (f_k >= 0) is asserted by criterion 11
    # on a superset of these samples
    rng = random.Random(20240824)
    gp = GParams()
    for _ in range(300):
        raw = [rng.gauss(0, 1) for _ in range(4)]
        mean = sum(raw) / 4
        raw = [v - mean for v in raw]
        norm = sum(v * v for v in raw) ** 0.5
        x = [v / norm for v in raw]
        grad = gradient_f(x, gp)
        assert abs(sum(a * b for a, b in zip(grad, x))) < 1e-12


def test_ratio_inequality_fails_without_sign_restriction():
    # two coordinates past the slope plateau whose components are pushed
    # negative by the mean: the unrestricted inequality is violated, for
    # any admissible profile (the slope drop available past 2*delta is
    # smaller than the mean offset such points produce)
    gp = GParams()
    raw = [0.55, 0.35, -0.2, -0.7]
    norm = sum(v * v for v in raw) ** 0.5
    x = [v / norm for v in raw]
    slopes = [gp.gprime(v) for v in x]
    m = sum(slopes) / 4
    f = [s - m for s in slopes]
    assert x[0] > x[1] >= 0
    assert f[0] < 0 and f[1] < 0
    assert f[1] * x[0] - f[0] * x[1] < 0


# ----------------------------------------------------------------- pearl trees


def test_pearl_degree_named_values():
    for n in (1, 2, 3):
        k1 = from_elements((1,))
        k2 = from_elements((2,))
        assert pearl_degree(k1 | k2, [k1, k2], n) == 1
        singles = [1 << i for i in range(n + 2)]
        assert pearl_degree(0, singles, n) == n
        assert pearl_degree(0, [0, 0], n) == 0
    assert pearl_degree(0b001, [0b011, 0b110, 0], 1) == F(-1)
    assert pearl_degree(full_mask(1), [0b011, 0b101, 0b110], 1) == F(-1)


def test_pearl_degree_integrality_on_graded_tuples():
    # at the graded arity k = 2 + n*q the degree is always an integer
    for n, k, q in ((1, 3, 1), (1, 4, 2), (2, 4, 1)):
        for tup in admissible_tuples(n, k, q):
            total = [0] * (n + 2)
            for mask in tup:
                for i in range(n + 2):
                    total[i] += mask >> i & 1
            k0 = 0
            for i in range(n + 2):
                if total[i] == q + 1:
                    k0 |= 1 << i
            d = pearl_degree(k0, list(tup), n)
            assert d.denominator == 1, (k0, tup)


def test_pearl_degree_does_not_bound_transferred_entries():
    # the degree formula filters holomorphic configurations, not entries
    # of this particular transferred model: here is a nonzero product
    # whose configuration has degree -1
    model = build_minimal_model(MFConfig(1), arities=(2, 3))
    key = (0b111, (0b011, 0b101, 0b110))
    assert model.tables[3].get(key)
    assert pearl_degree(key[0], list(key[1]), 1) == F(-1)
    for k, table in model.tables.items():
        for (k0, ins), coef in table.items():
            assert pearl_degree(k0, list(ins), 1).denominator == 1


def test_label_validator():
    triangle = PearlTreeLabeling((
        PearlLabel((0b001, 0b010, 0b100), 1),
    ))
    assert validate_pearl_labels(triangle, 1) == []
    trivial = PearlTreeLabeling((PearlLabel((), 0),))
    assert validate_pearl_labels(trivial, 1) == []
    repeated = PearlTreeLabeling((PearlLabel((0b001, 0b001), 0),))
    report = validate_pearl_labels(repeated, 1)
    assert any("diagonal" in msg for _, msg in report)
    mixed = PearlTreeLabeling((
        PearlLabel((0b001, 0b010, 0b100), 1),
        PearlLabel((0b111,), -1),
        PearlLabel((0b111, 0b111), 1),
    ))
    report = validate_pearl_labels(mixed, 1)
    assert (1, "negative degree") in report
    assert any(idx == 2 and "parity" in msg for idx, msg in report)
    assert not any(idx == 0 for idx, _ in report)
